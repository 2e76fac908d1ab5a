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


def naive_min_cut_ratio(n, edges, shift, universe=None, proper=False,
                        divisible_only=False):
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
            if divisible_only:
                d = c - shift
                if size % d != 0 and d % size != 0:
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


def naive_variation(g, divisible_only=False):
    return naive_min_cut_ratio(g.n, g.edges(), shift=1,
                               divisible_only=divisible_only)


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


def relabeled(graph_cls, g, perm):
    """The same graph with vertices renamed by the permutation list."""
    return graph_cls(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
