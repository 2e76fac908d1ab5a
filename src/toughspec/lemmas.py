"""Spectral comparison experiments: ordered family pairs whose radii must be
strictly ranked, and the Perron-weighted edge rotation that increases the
spectral radius.

Each comparison builds both graphs explicitly and measures the radii; nothing
is taken on faith from the closed forms, so these double as regression checks
on the family constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .families import split_join
from .graphs import Graph, complete, disjoint_union, join
from .spectra import perron_vector, spectral_radius


class Lemma(str, Enum):
    # rho(K_s v (K_n1 u ... u K_nt)) < rho(K_s v (K_big u (t-1) K_p))
    CLIQUE_CONCENTRATION = "clique-concentration"
    # when 2k | n the one-vertex split candidate beats the (k-1)-column one
    BIPARTITE_DIVISIBLE = "bipartite-divisible"
    # rho of K_{s, n/2-s-1} split-joined to O_{n/2-s, s+1} decreases in s
    BIPARTITE_MONOTONE = "bipartite-monotone"


@dataclass
class ComparisonReport:
    lemma: Lemma
    params: dict
    rho_left: float
    rho_right: float
    holds: bool  # the strict inequality, oriented per lemma
    left: Graph
    right: Graph


def _clique_concentration(s: int, p: int, parts: Sequence[int]) -> ComparisonReport:
    parts = tuple(int(x) for x in parts)
    t = len(parts)
    if s < 1:
        raise ValueError("needs join size s >= 1")
    if p < 1:
        raise ValueError("needs floor part size p >= 1")
    if t < 2:
        raise ValueError("needs at least two clique parts")
    if any(parts[i] < parts[i + 1] for i in range(t - 1)):
        raise ValueError("parts must be nonincreasing")
    if parts[-1] < p:
        raise ValueError("every part must be >= p")
    n = s + sum(parts)
    big = n - s - p * (t - 1)
    if parts[0] >= big:
        raise ValueError(f"needs largest part < n - s - p(t-1) = {big}")
    left = join(complete(s), disjoint_union([complete(x) for x in parts]))
    right = join(complete(s), disjoint_union([complete(big)] + [complete(p)] * (t - 1)))
    rl = spectral_radius(left).radius
    rr = spectral_radius(right).radius
    params = {"s": s, "p": p, "parts": list(parts), "n": n}
    return ComparisonReport(Lemma.CLIQUE_CONCENTRATION, params, rl, rr, rl < rr, left, right)


def _bipartite_divisible(k: int, n: int) -> ComparisonReport:
    if k < 2:
        raise ValueError("needs k >= 2")
    if n % 2:
        raise ValueError("needs even n")
    if n < 2 * k * k + 6 * k:
        raise ValueError(f"needs n >= 2k^2 + 6k = {2 * k * k + 6 * k}")
    if n % (2 * k):
        raise ValueError("needs 2k | n")
    half, chunk = n // 2, n // (2 * k)
    left = split_join(half - 1, half - chunk, 1, chunk)
    right = split_join(k - 1, half - 1, half - k + 1, 1)
    rl = spectral_radius(left).radius
    rr = spectral_radius(right).radius
    return ComparisonReport(
        Lemma.BIPARTITE_DIVISIBLE, {"k": k, "n": n}, rl, rr, rl > rr, left, right
    )


def _bipartite_monotone(n: int, s: int) -> ComparisonReport:
    if n % 2:
        raise ValueError("needs even n")
    if s < 1 or 4 * s + 6 > n:
        # at n = 4s + 4 the two graphs are mirror images of each other (swap
        # the bipartition sides), so the strict comparison has no content there
        raise ValueError("needs 1 <= s and n >= 4s + 6")
    half = n // 2
    left = split_join(s, half - s - 1, half - s, s + 1)
    right = split_join(s + 1, half - s - 2, half - s - 1, s + 2)
    rl = spectral_radius(left).radius
    rr = spectral_radius(right).radius
    return ComparisonReport(
        Lemma.BIPARTITE_MONOTONE, {"n": n, "s": s}, rl, rr, rl > rr, left, right
    )


def check_lemma_comparison(
    lemma: Lemma | str,
    *,
    s: int | None = None,
    p: int | None = None,
    parts: Sequence[int] | None = None,
    k: int | None = None,
    n: int | None = None,
) -> ComparisonReport:
    """Build both sides of the named comparison and test the strict inequality."""
    lemma = Lemma(lemma)
    if lemma is Lemma.CLIQUE_CONCENTRATION:
        if s is None or p is None or parts is None:
            raise ValueError("clique-concentration needs s, p and parts")
        return _clique_concentration(s, p, parts)
    if lemma is Lemma.BIPARTITE_DIVISIBLE:
        if k is None or n is None:
            raise ValueError("bipartite-divisible needs k and n")
        return _bipartite_divisible(k, n)
    if n is None or s is None:
        raise ValueError("bipartite-monotone needs n and s")
    return _bipartite_monotone(n, s)


@dataclass
class RotationReport:
    rho_before: float
    rho_after: float
    perron_sum_s1: float  # Perron weight gained by the rotated edges
    perron_sum_s2: float  # Perron weight lost


def rotation_experiment(
    g: Graph,
    s1: Iterable[int],
    s2: Iterable[int],
    t: Iterable[int],
) -> RotationReport:
    """Rotate the edges between T and S2 over to T and S1 and compare radii.

    Preconditions: S1, S2, T are disjoint and nonempty, T has no edge into S1
    and all |T|*|S2| edges into S2.  When the Perron weight of S1 is at least
    that of S2 the rotated graph has strictly larger spectral radius.
    """
    set1, set2, sett = frozenset(s1), frozenset(s2), frozenset(t)
    for name, block in (("s1", set1), ("s2", set2), ("t", sett)):
        if not block:
            raise ValueError(f"{name} must be nonempty")
        for v in block:
            if not 0 <= v < g.n:
                raise ValueError(f"{name} vertex {v} out of range")
    if set1 & set2 or set1 & sett or set2 & sett:
        raise ValueError("s1, s2 and t must be mutually disjoint")
    if not g.is_connected():
        raise ValueError("rotation needs a connected graph")
    if any(g.has_edge(u, v) for u in sett for v in set1):
        raise ValueError("t must have no edges into s1")
    if not all(g.has_edge(u, v) for u in sett for v in set2):
        raise ValueError("t must be completely joined to s2")
    before = spectral_radius(g)
    x = perron_vector(g)
    rotated = g.without_edges(
        [(u, v) for u in sett for v in set2]
    ).with_edges([(u, v) for u in sett for v in set1])
    after = spectral_radius(rotated)
    return RotationReport(
        before.radius,
        after.radius,
        float(sum(x[v] for v in set1)),
        float(sum(x[v] for v in set2)),
    )
