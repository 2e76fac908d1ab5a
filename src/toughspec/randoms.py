"""Seeded random graph models: G(n, p), balanced bipartite G(n/2, n/2, p) with
sides 0..n/2-1 and n/2..n-1, and random regular graphs via the pairing model.

Every function accepts either an integer seed or an existing random.Random, so
callers that need many dependent draws (rejection sampling, per-sample seed
splits) can thread one generator through.  Identical seeds give identical
graphs.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable

from .graphs import Graph, vertex_mask

_CONNECTED_TRIES = 10_000  # rejection draws before connected_gnp gives up
_PAIRING_TRIES = 5_000  # pairing restarts before random_regular gives up


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _draw_masks(
    n: int, pairs: Iterable[tuple[int, int]], p: float, rng: random.Random
) -> list[int]:
    """Neighbour masks holding each pair whose draw, taken in ``pairs`` order, is below p."""
    masks = [0] * n
    for u, v in pairs:
        if rng.random() < p:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def sample_seed(master: int, index: int) -> int:
    """Counter-based split of a master seed into independent per-sample seeds."""
    return master * 1_000_000_007 + index


def gnp(n: int, p: float, seed: int | random.Random) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("gnp needs 0 <= p <= 1")
    return Graph._from_masks(n, _draw_masks(n, combinations(range(n), 2), p, _rng(seed)))


def connected_gnp(n: int, p: float, seed: int | random.Random) -> Graph:
    """G(n, p) conditioned on connectivity by rejection."""
    rng = _rng(seed)
    for _ in range(_CONNECTED_TRIES):
        g = gnp(n, p, rng)
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected G({n}, {p}) sample within {_CONNECTED_TRIES} tries")


def balanced_bipartite_gnp(n: int, p: float, seed: int | random.Random) -> Graph:
    """Random balanced bipartite graph: each pair between vertices 0..n/2-1 and
    n/2..n-1 is an edge with prob p."""
    if n < 2 or n % 2:
        raise ValueError("balanced bipartite model needs even n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("needs 0 <= p <= 1")
    half = n // 2
    pairs = product(range(half), range(half, n))
    return Graph._from_masks(n, _draw_masks(n, pairs, p, _rng(seed)))


def random_regular(n: int, d: int, seed: int | random.Random) -> Graph:
    """Random d-regular graph by the pairing model, one suitable pair at a time.

    Two unpaired points are kept when they add an edge between distinct,
    non-adjacent vertices; when no such pair is left, the pairing restarts
    (Steger & Wormald 1999).
    """
    if n < 1 or d < 0 or d >= n:
        raise ValueError("regular model needs 0 <= d < n")
    if n * d % 2:
        raise ValueError("regular model needs n*d even")
    rng = _rng(seed)
    for _ in range(_PAIRING_TRIES):
        masks = [0] * n
        points = [v for v in range(n) for _ in range(d)]
        while points:
            u, v = rng.sample(points, 2)
            if u != v and not masks[u] >> v & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                points.remove(u)
                points.remove(v)
                continue
            open_ = vertex_mask(set(points))
            if all(open_ & ~masks[w] == 1 << w for w in points):
                break  # no open vertex has another open vertex as a non-neighbour
        else:
            return Graph._from_masks(n, masks)
    raise RuntimeError(
        f"no simple {d}-regular pairing on {n} vertices within {_PAIRING_TRIES} restarts"
    )
