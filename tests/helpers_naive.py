"""Brute-force reference implementations used as oracles by the tests.

Deliberately independent of the package internals: dict/set graph handling,
itertools enumeration, and sympy for exact polynomial algebra.  Anything the
package computes cleverly should agree with these on small inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def naive_component_count(n, edges, removed=()):
    removed = set(removed)
    adj = {v: set() for v in range(n) if v not in removed}
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
    return count


def naive_min_cut_ratio(n, edges, shift, universe=None, proper=False):
    """Minimum |S| / (components - shift) by full enumeration.

    ``universe`` restricts cuts to subsets of those vertices; ``proper`` keeps
    S strictly inside the universe.  Returns (value, first minimizing cut).
    """
    pool = sorted(range(n) if universe is None else universe)
    top = len(pool) - (1 if proper else 0)
    best = math.inf
    best_cut = None
    for size in range(1, min(top, n - 2) + 1):
        for combo in combinations(pool, size):
            c = naive_component_count(n, edges, combo)
            if c < 2:
                continue
            ratio = Fraction(size, c - shift)
            if ratio < best:
                best = ratio
                best_cut = combo
    return best, best_cut


def naive_first_violation(n, edges, tau):
    """First cut S in (size, lexicographic) order with c(G-S) >= 2 and
    |S| / (c(G-S) - 1) < tau, as (cut tuple, components), or None."""
    for size in range(1, n - 1):
        for combo in combinations(range(n), size):
            c = naive_component_count(n, edges, combo)
            if c >= 2 and Fraction(size, c - 1) < tau:
                return combo, c
    return None


def naive_vertex_connectivity(n, edges):
    """Size of the smallest cut leaving at least two components, by enumeration
    in increasing size; None when no cut does (complete graphs)."""
    for size in range(n - 1):
        for combo in combinations(range(n), size):
            if naive_component_count(n, edges, combo) >= 2:
                return size
    return None


def naive_toughness(g):
    return naive_min_cut_ratio(g.n, g.edges(), shift=0)


def naive_variation(g):
    return naive_min_cut_ratio(g.n, g.edges(), shift=1)


def naive_one_sided(g, side_x, side_y, shift):
    bx, cx = naive_min_cut_ratio(g.n, g.edges(), shift, universe=side_x, proper=True)
    by, cy = naive_min_cut_ratio(g.n, g.edges(), shift, universe=side_y, proper=True)
    return min(bx, by)


def sympy_char_poly_coeffs(rows):
    """Exact coefficients of det(xI - M), leading first, as Fractions."""
    import sympy

    m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                       if isinstance(c, Fraction) else sympy.Rational(c)
                       for c in row] for row in rows])
    x = sympy.Symbol("x")
    poly = m.charpoly(x)
    coeffs = poly.all_coeffs()
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def sympy_root_bracket(coeffs, x, h):
    """Whether the largest real root of the polynomial lies in (x - h, x + h],
    by sympy's exact real-root counts."""
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], t)
    lo, hi = sympy.Rational(x) - sympy.Rational(h), sympy.Rational(x) + sympy.Rational(h)
    above = poly.count_roots(hi) - (poly.eval(hi) == 0)  # roots in (hi, oo)
    return above == 0 and poly.count_roots(lo, hi) - (poly.eval(lo) == 0) >= 1


def naive_gnp_edges(n, p, rng):
    """G(n, p) as an edge list: one rng.random() draw per pair u < v, in
    lexicographic order, keeping the pair when the draw is below p."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def naive_balanced_bipartite_edges(n, p, rng):
    """Balanced bipartite G(n/2, n/2, p) as an edge list: one draw per pair
    (u, n/2 + v), in lexicographic order."""
    half = n // 2
    return [(u, half + v) for u in range(half) for v in range(half) if rng.random() < p]


def naive_nosal_equality(n, edges):
    """Whether the graph is complete bipartite plus isolated vertices, with
    the edgeless graph counting degenerately: the non-isolated vertices must
    induce one connected, two-colourable graph with every cross pair an edge."""
    if not edges:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    covered = {v for v in adj if adj[v]}
    if len(_naive_components(covered, adj)) != 1:
        return False
    colouring = _naive_two_colouring({v: adj[v] for v in covered})
    if colouring is None:
        return False
    x = sum(1 for v in covered if colouring[v] == 0)
    return len(edges) == x * (len(covered) - x)


def relabeled(graph_cls, g, perm):
    """The same graph with vertices renamed by the permutation list."""
    return graph_cls(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def naive_matches_family(n, edges, blocks):
    """Structural isomorphism test against an extremal family graph.

    ``blocks`` is (s, c, t) for K_s joined to K_c plus t isolated vertices,
    or (p, q, a, b) for K_{p,q} bipartitely joined to O_{a,b}.  The graph is
    taken apart block by block: the join set, the components left without
    it, or the four degree classes of a two-colouring and their neighbour
    sets.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n != sum(blocks):
        return False
    if len(blocks) == 3:
        s, c, t = blocks
        hub = {v for v in adj if len(adj[v]) == n - 1}
        if len(hub) != s:
            return False
        comps = _naive_components(set(adj) - hub, adj)
        if sorted(len(comp) for comp in comps) != sorted([c] + [1] * t):
            return False
        return all(adj[v] - hub == comp - {v} for comp in comps for v in comp)
    p, q, a, b = blocks
    colouring = _naive_two_colouring(adj)
    if colouring is None:
        return False
    sides = [{v for v in adj if colouring[v] == k} for k in (0, 1)]
    for x_side, y_side in (sides, sides[::-1]):
        if len(x_side) != p + a or len(y_side) != q + b:
            continue
        x1 = {v for v in x_side if len(adj[v]) == q + b}
        x2 = {v for v in x_side if len(adj[v]) == q}
        y1 = {v for v in y_side if len(adj[v]) == p + a}
        y2 = {v for v in y_side if len(adj[v]) == p}
        if (len(x1), len(x2), len(y1), len(y2)) != (p, a, q, b) or x1 & x2 or y1 & y2:
            continue
        if all(adj[u] == y_side for u in x1) and all(adj[u] == y1 for u in x2):
            return True
    return False


def _naive_components(vertices, adj):
    comps, seen = [], set()
    for start in sorted(vertices):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            u = stack.pop()
            if u not in comp:
                comp.add(u)
                stack.extend((adj[u] & vertices) - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _naive_two_colouring(adj):
    colour = {}
    for start in adj:
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return None
    return colour


def naive_power_iteration(a):
    """The allocating power-iteration loop on a + I, as (radius, Perron
    vector, iterations, residual): a fresh array per operation and the norm
    from ``np.linalg.norm``.  The in-place kernel must match it bit for bit."""
    import numpy as np

    from toughspec.spectra import MAX_ITERATIONS, RADIUS_TOL

    n = a.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    z = a @ x
    for it in range(MAX_ITERATIONS):
        lam = float(x @ z)
        residual = float(np.max(np.abs(z - lam * x)))
        if residual <= RADIUS_TOL:
            return lam, x, it, residual
        y = z + x
        x = y / np.linalg.norm(y)
        z = a @ x
    raise AssertionError("naive power iteration did not converge")
