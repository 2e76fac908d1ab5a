"""Reference computations and seeded input graphs, made apart from toughspec.

Nothing here imports toughspec.  The family graphs come from the paper's block
formulas, radii from ``numpy.linalg.eigvalsh``, component counts from a
union-find of this module's own, and connectivity and isomorphism from
networkx.  The benchmark calls these only outside its timed phase.

networkx is imported inside the functions that need it, so that its import
time never lands in the benchmark's ``setup_s``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# seeded random graphs (edge lists on 0..n-1)
# ---------------------------------------------------------------------------

# Seeds the fixed pools every workload draws its graphs and specs from.
# ``--seed`` only relabels vertices and reorders operations, so every run does
# the same work and the spread between runs is the machine's, not the inputs'.
POOL_SEED = 0


def relabelled(n: int, edges, rng) -> list[tuple[int, int]]:
    """The edges under a random relabelling of 0..n-1 drawn from ``rng``."""
    label = list(range(n))
    rng.shuffle(label)
    return sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)



def gnp_edges(n: int, p: float, rng) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def bipartite_edges(n: int, p: float, rng) -> list[tuple[int, int]]:
    """Balanced bipartite G(n/2, n/2, p) with sides 0..n/2-1 and n/2..n-1."""
    half = n // 2
    return [(u, half + v) for u in range(half) for v in range(half) if rng.random() < p]


def is_connected(n: int, edges) -> bool:
    return components_without(n, edges, ()) == 1


# ---------------------------------------------------------------------------
# extremal families from the paper's block formulas
# ---------------------------------------------------------------------------


def family_blocks(family: str, n: int, **p: int) -> tuple[str, tuple[int, ...]]:
    """Block sizes of a family graph.

    ``("clique", (s, c, t))`` is K_s joined to K_c plus t isolated vertices.
    ``("split", (p, q, a, b))`` is K_{p,q} bipartitely joined to O_{a,b}: X1 has
    p vertices, Y1 q, X2 a and Y2 b; the edges are X1-Y1, X1-Y2 and X2-Y1.
    """
    half = n // 2
    if family == "tough-int":
        tau = p["tau"]
        return "clique", (tau - 1, n - tau, 1)
    if family == "tough-frac-delta":
        b, d = p["tau_inv"], p["delta"]
        return "clique", (d, n - (b + 1) * d - 1, b * d + 1)
    if family == "bip-int-div":
        k = n // (2 * p["r"])
        return "split", (half - 1, half - k, 1, k)
    if family == "bip-int-nondiv-a":
        r = p["r"]
        f = n // (2 * r)
        return "split", (r * f - 1, half - f, half - r * f + 1, f)
    if family == "bip-int-nondiv-b":
        r = p["r"]
        return "split", (r - 1, half - 1, half - r + 1, 1)
    if family == "bip-frac":
        b = p["r_inv"]
        return "split", (1, half - b - 1, half - 1, b + 1)
    raise ValueError(f"unknown family {family!r}")


def relabelled_family_edges(family: str, n: int, params: dict, rng) -> list[tuple[int, int]]:
    """Edges of a family graph under a random relabelling drawn from ``rng``."""
    a = block_adjacency(*family_blocks(family, n, **params))
    return relabelled(n, [(u, v) for u in range(n) for v in range(u + 1, n) if a[u, v]], rng)


def block_adjacency(shape: str, blocks: tuple[int, ...]) -> np.ndarray:
    """Adjacency matrix of a family graph, blocks laid out in the order given."""
    n = sum(blocks)
    a = np.zeros((n, n))
    if shape == "clique":
        s, c, _ = blocks
        a[:s, :] = 1.0
        a[:, :s] = 1.0
        a[s : s + c, s : s + c] = 1.0
    else:
        p, q, x2, y2 = blocks
        x1 = slice(0, p)
        y1 = slice(p, p + q)
        xs2 = slice(p + q, p + q + x2)
        ys2 = slice(p + q + x2, n)
        for u, v in ((x1, y1), (x1, ys2), (xs2, y1)):
            a[u, v] = 1.0
            a[v, u] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def block_edge_count(shape: str, blocks: tuple[int, ...]) -> int:
    """Closed-form edge count of a family graph."""
    if shape == "clique":
        s, c, t = blocks
        return s * (s - 1) // 2 + c * (c - 1) // 2 + s * (c + t)
    p, q, a, b = blocks
    return p * q + p * b + a * q


def block_degrees(shape: str, blocks: tuple[int, ...]) -> dict[int, int]:
    """Closed-form degree multiset of a family graph, as degree -> count."""
    out: dict[int, int] = {}
    if shape == "clique":
        s, c, t = blocks
        pairs = ((s + c + t - 1, s), (s + c - 1, c), (s, t))
    else:
        p, q, a, b = blocks
        pairs = ((q + b, p), (p + a, q), (q, a), (p, b))
    for degree, count in pairs:
        if count:
            out[degree] = out.get(degree, 0) + count
    return out


def own_cut_ratio(shape: str, blocks: tuple[int, ...], shift: int) -> Fraction:
    """Ratio |S| / (c(G-S) - shift) of the construction's own cut.

    Clique families: S is the joined clique K_s, leaving K_c and t singles.
    Split families: S is X1, leaving Y2 as b singles and X2 + Y1 connected.
    """
    if shape == "clique":
        s, _, t = blocks
        return Fraction(s, t + 1 - shift)
    p, _, _, b = blocks
    return Fraction(p, b + 1 - shift)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def radius(a: np.ndarray) -> float:
    """Largest adjacency eigenvalue by the dense symmetric solver."""
    return float(np.linalg.eigvalsh(a)[-1])


def second_abs_eigenvalue(a: np.ndarray) -> float:
    values = np.linalg.eigvalsh(a)
    return float(max(abs(v) for v in values[:-1]))


# ---------------------------------------------------------------------------
# cuts: union-find component count and brute-force scans
# ---------------------------------------------------------------------------


def components_without(n: int, edges, removed) -> int:
    """Components of G - removed, by union-find over the surviving edges."""
    gone = set(removed)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n - len(gone)
    for u, v in edges:
        if u in gone or v in gone:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def brute_min_ratio(n: int, edges, shift: int, universe=None, proper: bool = False):
    """First minimizer of |S| / (c(G-S) - shift) over every cut S.

    Cuts are visited by size, then lexicographically; ``universe`` limits S to
    those vertices and ``proper`` keeps S strictly inside it.  Returns
    (value, cut) with value ``math.inf`` and cut ``None`` when nothing
    disconnects.
    """
    pool = sorted(range(n) if universe is None else universe)
    top = min(len(pool) - (1 if proper else 0), n - 2)
    best, best_cut = math.inf, None
    for size in range(1, top + 1):
        for cut in combinations(pool, size):
            c = components_without(n, edges, cut)
            if c < 2:
                continue
            ratio = Fraction(size, c - shift)
            if ratio < best:
                best, best_cut = ratio, cut
    return best, best_cut


def brute_one_sided(n: int, edges, side_x, side_y, shift: int):
    """Minimum over proper subsets of either side; side X wins ties."""
    best, best_cut, best_side = math.inf, None, None
    for label, side in (("X", side_x), ("Y", side_y)):
        if len(side) < 2:
            continue
        value, cut = brute_min_ratio(n, edges, shift, universe=side, proper=True)
        if value < best:
            best, best_cut, best_side = value, cut, label
    return best, best_cut, best_side


def first_tau_violation(n: int, edges, tau: Fraction):
    """A cut with |S| < tau * (c(G-S) - 1), or None when G is tau-tough."""
    for size in range(1, n - 1):
        for cut in combinations(range(n), size):
            c = components_without(n, edges, cut)
            if c >= 2 and Fraction(size, c - 1) < tau:
                return cut
    return None


def two_coloring(n: int, edges):
    """Sides (X, Y) of a connected bipartite graph, X holding vertex 0."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return None
    if len(color) != n:
        return None
    return (
        frozenset(v for v in range(n) if color[v] == 0),
        frozenset(v for v in range(n) if color[v] == 1),
    )


# ---------------------------------------------------------------------------
# networkx
# ---------------------------------------------------------------------------


def nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def nx_components_without(g, removed) -> int:
    import networkx as nx

    gone = set(removed)
    return nx.number_connected_components(g.subgraph(v for v in g if v not in gone))


def nx_connectivity(g) -> int:
    import networkx as nx

    return nx.node_connectivity(g)


def nx_isomorphic(g, h) -> bool:
    import networkx as nx

    return nx.is_isomorphic(g, h)


def nx_graph6(g) -> bytes:
    import networkx as nx

    return nx.to_graph6_bytes(g, header=False)


def write_graph6(stream) -> None:
    """Write each [path, n, edges] of the JSON list read from ``stream`` as graph6."""
    for path, n, edges in json.load(stream):
        with open(path, "wb") as out:
            out.write(nx_graph6(nx_graph(n, edges)))


def nx_from_adjacency(a: np.ndarray):
    n = a.shape[0]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if a[u, v]]
    return nx_graph(n, edges)
