"""Exact graph toughness by exhaustive cut enumeration.

Four quantities share one scan: classical toughness min |S| / c(G-S), the
variation with denominator c(G-S) - 1, and their bipartite one-sided versions
where S may only be drawn from a single side of the bipartition.  A connected
bipartite graph has one bipartition, so ``bipartite_toughness`` takes the graph
alone, finds the sides and makes every one-sided refusal itself.  Values are
exact rationals; complete graphs (and bipartite graphs no one-sided proper
subset disconnects) get the distinguished INFINITE value, which compares
greater than every finite ratio.

The scan goes by increasing size, and the reported witness is always the
first minimizer in (size, lexicographic) order, so results are deterministic.
The scan counts components itself, from neighbourhood-union tables built once
per scan.  It skips only sizes where no cut can disconnect: below mu(G), the
fewest common neighbours of a non-adjacent pair, since every cut separating u
from v contains N(u) & N(v); and, for a one-sided cut, sizes whose bound needs
more components than the other side has vertices, since every component of
G - S then holds a vertex of that side.

Twins, vertices with equal open or equal closed neighbourhoods
(``graphs.twin_classes``), can be swapped by an automorphism, so all cuts that
take as many members from each twin class leave as many components, and the
lexicographically first of them takes the first members of each class.  The
scan visits that cut alone: each class-prefix head ORed with each
``combinations`` set of the twin-free vertices.  The first minimizer and the
first cut below a bound are such cuts, so values and witnesses are those of a
scan over every cut.  A twin-free graph has one head, the empty one, and keeps
the plain ``combinations`` loop in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, combinations

from .graphs import Graph, _members, bipartition_of, twin_classes

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


def _heads(prefixes, k, room):
    """The class-prefix heads of ``k`` of the ``room`` class members: an entry
    of each list in ``prefixes`` (entry t holds the first t members of a twin
    class), k members in all.  Partial heads are grouped by members taken, and
    no group is made that the later classes cannot fill up to k."""
    by_taken = {0: [0]}
    for pre in prefixes:
        room -= len(pre) - 1
        grown = {}
        for taken, heads in by_taken.items():
            lo = max(0, k - room - taken)
            for t, bits in enumerate(pre[lo:k - taken + 1], lo):
                grown.setdefault(taken + t, []).extend(map(bits.__or__, heads))
        by_taken = grown
    return by_taken[k]


def _cuts(prefixes, free, size, built):
    """The class-prefix cuts of ``size`` vertices, in batches: the heads of each
    member count k (kept in ``built`` while a later size needs them) ORed with
    each ``combinations`` mask of size - k of the twin-free vertex bits
    ``free``, the shorter side outermost; the combinations are never listed."""
    room = sum(map(len, prefixes)) - len(prefixes)
    for k in range(max(0, size - len(free)), min(size, room) + 1):
        heads = built[k] if k in built else built.setdefault(k, _heads(prefixes, k, room))
        if len(heads) <= math.comb(len(free), size - k):
            for head in heads:
                tails = map(sum, combinations(free, size - k))
                yield map(head.__or__, tails) if head else tails  # twin-free: lexicographic
        else:
            for tail in map(sum, combinations(free, size - k)):
                yield map(tail.__or__, heads)
    built.pop(size - len(free), None)


def _scan_min(g, universe, shift, cap, first_below=None):
    """Minimum cut ratio over the proper subsets of the vertex set ``universe``.

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
    Within a size the scan visits ``_cuts``, one cut per orbit of the twin
    swaps.  With twin classes they are not in lexicographic order, so a size
    keeps its most components, ties going to the lexicographically smaller
    cut, and a decision keeps its smallest violator and stops after the size;
    without, a decision stops at its first violator.  Each BFS step is two
    ``_union_tables`` lookups; ratios are compared as integers with bn / bd
    (1 / 0 for INFINITE), and a witness is built once per improving size.
    """
    n, masks = g.n, g.masks
    full = (1 << n) - 1
    mu = min(((masks[u] & masks[v]).bit_count() for u in range(n) for v in range(u)
              if not masks[u] >> v & 1), default=0)
    classes = [[1 << v for v in cls if v in universe] for cls in twin_classes(g)]
    prefixes = [list(accumulate(cls, initial=0)) for cls in classes if len(cls) > 1]
    free = [cls[0] for cls in classes if len(cls) == 1]
    tie = 1 if prefixes and first_below is None else 0  # an equal cut may come first
    half, lo, hi = _union_tables(masks)
    low = (1 << half) - 1
    best = INFINITE if first_below is None else first_below
    bn, bd = (1, 0) if best is INFINITE else (best.numerator, best.denominator)
    witness = None
    built = {0: [0]}  # heads by member count; a twin-free graph has only the empty one
    for size in range(max(1, mu), len(universe)):
        cmax = min(cap, n - size)
        if cmax < 2 or size * bd >= (cmax - shift) * bn:
            break
        at = None
        for cut in chain.from_iterable(_cuts(prefixes, free, size, built)):
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
            if c > 1 and size * bd < d * bn + tie:
                # better, or as good and first lexicographically: holding at ^ cut's lowest bit
                if (first_below is None or at is None) and size * bd < d * bn \
                        or at is not None and (at ^ cut) & -(at ^ cut) & cut:
                    at, at_c = cut, c
                    if first_below is None:
                        bn, bd = size, d
                    elif not prefixes:
                        break  # in lexicographic order the first violator is the smallest
        if at is not None:
            best = Fraction(size, at_c - shift)
            witness = CutWitness(frozenset(_members(at)), at_c, best)
            if first_below is not None:
                break
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

    On failure the witness is the first violating cut in (size,
    lexicographic) order, which need not be the global minimizer; the verdict
    is what matters, and stopping after the first size with a violator keeps
    dense graphs affordable, as does starting at size mu(G) (see
    ``_scan_min``), below which no cut disconnects.
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
        found, side_witness = _scan_min(g, side, shift, len(other))
        if found < best:
            best = found
            witness = replace(side_witness, side=label)
    return best, witness
