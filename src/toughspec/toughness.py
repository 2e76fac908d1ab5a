"""Exact graph toughness by exhaustive cut enumeration.

Four quantities share one scan: classical toughness min |S| / c(G-S), the
variation with denominator c(G-S) - 1, and their bipartite one-sided versions
where S may only be drawn from a single side of the bipartition.  A connected
bipartite graph has one bipartition, so ``bipartite_toughness`` takes the graph
alone, finds the sides and makes every one-sided refusal itself.  Values are
exact rationals; complete graphs (and bipartite graphs no one-sided proper
subset disconnects) get the distinguished INFINITE value, which compares
greater than every finite ratio.

Enumeration visits cuts by increasing size and lexicographically within a
size, and the reported witness is always the first minimizer in that order,
so results are deterministic.  The scan counts components itself, from
neighbourhood-union tables built once per scan.  It skips only sizes where no
cut can disconnect: below mu(G), the fewest common neighbours of a non-adjacent
pair, since every cut separating u from v contains N(u) & N(v); and, for a
one-sided cut, sizes whose bound needs more components than the other side has
vertices, since every component of G - S then holds a vertex of that side.

Twins, vertices with equal open or equal closed neighbourhoods
(``graphs.twin_classes``), can be swapped by an automorphism, so every cut in
one orbit of the twin swaps leaves as many components.  The orbit of a cut is
fixed by how many members it takes from each class, and its lexicographically
first cut takes the first members of each class.  When those orbits number at
most a quarter of the cuts, prod (|C_i| + 1) <= 2^|U| / 4 over the scanned
vertex set U, the scan visits that first cut alone, in the same order; the
first minimizer and the first cut below a bound are always such cuts, so
values and witnesses do not depend on which way the scan went.  With fewer
twins, ``itertools.combinations`` visits every cut faster than the orbit walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .graphs import Graph, _members, bipartition_of, twin_classes, vertex_mask

INFINITE = math.inf  # sentinel: no disconnecting cut exists
ENUMERATION_CAP = 22  # full scans are 2^n; anything larger is refused


class ToughnessKind(Enum):
    TOUGHNESS = "toughness"  # denominator c(G-S)
    VARIATION = "variation"  # denominator c(G-S) - 1


@dataclass(frozen=True)
class CutWitness:
    """A disconnecting vertex cut with its component count and ratio.

    ``ratio`` equals Fraction(|cut|, components - shift) for the quantity the
    witness belongs to; ``side`` is "X" or "Y" for one-sided bipartite cuts.
    """

    cut: frozenset[int]
    components: int
    ratio: Fraction
    side: str | None = None


def _union_tables(masks):
    """(half, lo, hi) for the cut scan: with half = len(masks) // 2, the OR of
    masks[v] over any vertex set s is lo[s & (1 << half) - 1] | hi[s >> half]."""
    half = len(masks) // 2
    tables = [0], [0]
    for table, part in zip(tables, (masks[:half], masks[half:])):
        for mask in part:
            table += [union | mask for union in table]  # t[x | 1 << i] = t[x] | masks[i]
    return half, *tables


def _class_walk(universe, classes):
    """(bit, class predecessor's bit or 0, class members from it on) for each
    vertex of the ascending ``universe``, which ``classes`` partitions."""
    pred, rest = {}, {}
    for cls in classes:
        for j, v in enumerate(cls):
            pred[v], rest[v] = (1 << cls[j - 1] if j else 0), len(cls) - j
    return [(1 << v, pred[v], rest[v]) for v in universe]


def _prefix_cuts(walk, size):
    """The class-prefix cuts of ``size`` vertices, as bitmasks in lexicographic
    order: the first k_i members of each class C_i, with sum k_i = size.

    The walk runs over ``_class_walk``'s vertices in order and tries taking a
    vertex before skipping it; a vertex may be taken only once its class
    predecessor is, so a skip closes the rest of its class.  ``avail`` counts
    the vertices from ``i`` on whose class is still open, and a branch ends
    when it is below ``need``.
    """
    stack = [(0, size, len(walk), 0)]
    while stack:
        i, need, avail, cut = stack.pop()
        if not need:
            yield cut
            continue
        if avail < need:
            continue
        bit, before, left = walk[i]
        while before and not cut & before:  # its class closed at an earlier skip
            i += 1
            bit, before, left = walk[i]
        stack.append((i + 1, need, avail - left, cut))
        stack.append((i + 1, need - 1, avail - 1, cut | bit))


def _scan_min(g, universe, shift, cap, first_below=None):
    """Minimum cut ratio over the proper subsets of ``universe``.

    Returns (best ratio, witness); the witness is None when no cut beats the
    starting bound, which is INFINITE or ``first_below``.  Sizes start at
    max(1, mu), mu the least |N(u) & N(v)| over non-adjacent u, v: a cut
    leaving u and v in different components holds all their common
    neighbours, so kappa(G) >= mu.  Sizes stop once even the best case,
    min(cap, n - size) components, cannot beat the current bound or is below
    two; ``cap`` is n, or the other side's order for a one-sided universe.
    Sizes stay below |universe|, so a one-sided cut never takes a whole side;
    a whole-graph scan needs no tighter stop, as at size n - 1 the best case
    is one component and the loop has already broken.
    Within a size, cuts come in lexicographic order: every combination, or,
    when the twin classes cut down to the universe leave at most a quarter of
    its 2^|U| subsets as orbits (prod (|C_i| + 1) <= 2^|U| / 4), one cut per
    orbit of the twin swaps, from ``_prefix_cuts``.  Each is the first of its
    orbit, whose cuts all leave as many components, so the first minimizer
    and the first cut below ``first_below`` are among them.
    Skipped cuts all leave one component or cannot improve, so the first
    strict minimizer is kept.  With ``first_below`` the scan instead stops at
    the first cut whose ratio is below it.  Each BFS step is two
    ``_union_tables`` lookups; ratios are compared as integers with bn / bd
    (1 / 0 for INFINITE), and only an improving cut builds a Fraction and a
    witness.
    """
    n, masks = g.n, g.masks
    full = (1 << n) - 1
    mu = min(((masks[u] & masks[v]).bit_count() for u in range(n) for v in range(u)
              if not masks[u] >> v & 1), default=0)
    inside = vertex_mask(universe)
    classes = [cls for cls in ([v for v in c if inside >> v & 1] for c in twin_classes(g)) if cls]
    orbits = 4 * math.prod(len(cls) + 1 for cls in classes) <= 1 << len(universe)
    walk = _class_walk(universe, classes) if orbits else None
    half, lo, hi = _union_tables(masks)
    low = (1 << half) - 1
    best = INFINITE if first_below is None else first_below
    bn, bd = (1, 0) if best is INFINITE else (best.numerator, best.denominator)
    witness = None
    for size in range(max(1, mu), len(universe)):
        cmax = min(cap, n - size)
        if cmax < 2 or size * bd >= (cmax - shift) * bn:
            break
        if orbits:
            cuts = _prefix_cuts(walk, size)
        else:
            cuts = map(sum, combinations([1 << v for v in universe], size))
        for cut in cuts:
            rest = full ^ cut  # vertices of G - S not yet reached
            c = 0
            while rest:
                frontier = rest & -rest  # BFS from lowest unvisited vertex
                rest ^= frontier
                while frontier:
                    frontier = (lo[frontier & low] | hi[frontier >> half]) & rest
                    rest ^= frontier
                c += 1
            d = c - shift
            if c > 1 and size * bd < d * bn:
                bn, bd = size, d
                best = Fraction(size, d)
                witness = CutWitness(frozenset(_members(cut)), c, best)
                if first_below is not None:
                    return best, witness
    return best, witness


def _check_cap(size: int) -> None:
    if size > ENUMERATION_CAP:
        raise ValueError(
            f"cut enumeration over {size} vertices exceeds the cap of "
            f"{ENUMERATION_CAP} (2^n subsets)"
        )


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise ValueError("toughness is defined for connected graphs only")


def _scan_graph(g, shift, first_below=None):
    """The preamble of the whole-graph quantities, then their scan.

    The cap is checked before connectivity, whose search is itself superlinear
    in n.  Complete graphs have no disconnecting cut and report
    (INFINITE, None) without a scan.
    """
    _check_cap(g.n)
    _require_connected(g)
    if g.is_complete():
        return INFINITE, None
    return _scan_min(g, range(g.n), shift, g.n, first_below)


def toughness(g: Graph) -> tuple[Fraction | float, CutWitness | None]:
    """Classical toughness min |S| / c(G-S); INFINITE for complete graphs."""
    return _scan_graph(g, shift=0)


def variation_toughness(g: Graph) -> tuple[Fraction | float, CutWitness | None]:
    """Variation toughness min |S| / (c(G-S) - 1); INFINITE for complete graphs."""
    return _scan_graph(g, shift=1)


def is_tau_tough(g: Graph, tau: Fraction | int) -> tuple[bool, CutWitness | None]:
    """Whether every disconnecting cut satisfies |S| >= tau * (c(G-S) - 1).

    On failure the witness is the first violating cut in enumeration order,
    which need not be the global minimizer; the verdict is what matters and
    stopping early keeps dense graphs affordable, as does starting at size
    mu(G) (see ``_scan_min``), below which no cut disconnects.
    """
    _, witness = _scan_graph(g, shift=1, first_below=Fraction(tau))
    return witness is None, witness


def bipartite_toughness(
    g: Graph, kind: ToughnessKind = ToughnessKind.VARIATION
) -> tuple[Fraction | float, CutWitness | None]:
    """One-sided toughness: cuts range over proper subsets of a single side of
    ``bipartition_of(g)``, whose side X holds vertex 0.

    Both sides are scanned (side X first) and the overall minimum wins; the
    witness records which side its cut came from.  The VARIATION kind uses
    denominator c(G-S) - 1 and requires a balanced bipartition.  Refusals, in
    order: over 2 * ENUMERATION_CAP vertices (before the superlinear bipartition
    search), an odd cycle, a side over the cap, a disconnected graph, and
    unbalanced sides for VARIATION.
    """
    if g.n > 2 * ENUMERATION_CAP:
        raise ValueError(f"cut enumeration over a side of at least {(g.n + 1) // 2} "
                         f"vertices exceeds the cap of {ENUMERATION_CAP} (2^n subsets)")
    sides = bipartition_of(g)
    if sides is None:
        raise ValueError("one-sided toughness needs a bipartite graph")
    _check_cap(max(len(sides.x), len(sides.y)))
    _require_connected(g)
    kind = ToughnessKind(kind)
    shift = 1 if kind is ToughnessKind.VARIATION else 0
    if kind is ToughnessKind.VARIATION and not sides.is_balanced():
        raise ValueError("one-sided variation toughness requires a balanced bipartition")
    best = INFINITE
    witness = None
    for label, side, other in (("X", sides.x, sides.y), ("Y", sides.y, sides.x)):
        universe = sorted(side)
        found, side_witness = _scan_min(g, universe, shift, len(other))
        if found < best:
            best = found
            witness = replace(side_witness, side=label)
    return best, witness
