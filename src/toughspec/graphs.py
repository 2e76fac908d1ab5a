"""Simple-graph core: immutable graphs, the bipartition, the named graphs, the
disjoint union and join used to assemble the extremal families, and twin
classes.

Vertices are always 0..n-1.  Binary operations relabel deterministically: the
first operand keeps its indices, the second is shifted by the first's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def _members(mask: int) -> tuple[int, ...]:
    """The vertices whose bits are set in ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with one bit set per vertex."""
    return sum(1 << v for v in vertices)


def component_masks(masks: tuple[int, ...], remaining: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex set
    ``remaining``, as bitmasks ordered by their smallest member.

    Connectivity checks, component lists and the spectral radius go through
    it; the bipartition runs its own layered search, and the toughness cut
    scan counts components with its own lookup tables.
    """
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining  # BFS from lowest unvisited vertex
        while frontier:
            reach = 0
            while frontier:  # each vertex is expanded once, when it is first reached
                bit = frontier & -frontier
                frontier ^= bit
                reach |= masks[bit.bit_length() - 1]
            frontier = reach & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def _toggle_edges(n: int, masks: list[int], pairs: Iterable[tuple[int, int]], present: bool):
    """Flip each edge's bits in ``masks``; it must be ``present`` beforehand, else ValueError."""
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if masks[u] >> v & 1 != present:
            key = (u, v) if u < v else (v, u)
            raise ValueError(f"edge {key} not present" if present else f"duplicate edge {key}")
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Adjacency is stored once, as per-vertex neighbour bitmasks: bit w of
    ``masks[v]`` is set when v and w are adjacent.  Instances are value-like:
    equality and hashing are by (n, masks).
    """

    __slots__ = ("n", "masks", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        masks = [0] * n
        _toggle_edges(n, masks, edges, present=False)
        self.n = n
        self.masks = tuple(masks)
        self.m = sum(mask.bit_count() for mask in masks) // 2

    @classmethod
    def _from_masks(cls, n: int, masks: Iterable[int]) -> Graph:
        """Trusted constructor for builders whose masks are symmetric and loop-free."""
        g = object.__new__(cls)
        g.n = n
        g.masks = tuple(masks)
        g.m = sum(mask.bit_count() for mask in g.masks) // 2
        return g

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)

    def min_degree(self) -> int:
        return min(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [
            (u, v)
            for u, mask in enumerate(self.masks)
            for v in _members(mask >> (u + 1) << (u + 1))
        ]

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of connected components, ordered by smallest member."""
        return [_members(c) for c in component_masks(self.masks, (1 << self.n) - 1)]

    def is_connected(self) -> bool:
        return len(component_masks(self.masks, (1 << self.n) - 1)) == 1

    # -- derived graphs ----------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> Graph:
        """Induced subgraph, relabeled onto 0..k-1 in ascending vertex order."""
        keep = sorted(set(vertices))
        if not keep:
            raise ValueError("induced subgraph needs at least one vertex")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise ValueError(f"induced vertices must lie in 0..{self.n - 1}")
        index = {v: i for i, v in enumerate(keep)}
        masks = [
            sum(1 << index[w] for w in _members(self.masks[v]) if w in index)
            for v in keep
        ]
        return Graph._from_masks(len(keep), masks)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> Graph:
        """Copy with the given edges added; rejects edges already present."""
        masks = list(self.masks)
        _toggle_edges(self.n, masks, extra, present=False)
        return Graph._from_masks(self.n, masks)

    def without_edges(self, gone: Iterable[tuple[int, int]]) -> Graph:
        """Copy with the given edges removed; rejects edges not present."""
        masks = list(self.masks)
        _toggle_edges(self.n, masks, gone, present=True)
        return Graph._from_masks(self.n, masks)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SidePartition:
    """Two-coloring of a bipartite graph's vertex set into sides X and Y; the
    library makes one only in ``bipartition_of``, so it needs no validation."""

    x: frozenset[int]
    y: frozenset[int]

    def is_balanced(self) -> bool:
        return len(self.x) == len(self.y)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph._from_masks(n, [full ^ 1 << v for v in range(n)])


def empty(n: int) -> Graph:
    """Edgeless graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    return Graph._from_masks(n, [0] * n)


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: vertices 0..p-1 form one side and p..p+q-1 the other."""
    if p < 1 or q < 1:
        raise ValueError("complete bipartite graph needs p, q >= 1")
    x, y = (1 << p) - 1, ((1 << q) - 1) << p
    return Graph._from_masks(p + q, [y] * p + [x] * q)


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    """Disjoint union; part k is shifted by the total order of parts before it."""
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint union needs at least one part")
    masks: list[int] = []
    for g in parts:
        offset = len(masks)
        masks.extend(mask << offset for mask in g.masks)
    return Graph._from_masks(len(masks), masks)


def join(g1: Graph, g2: Graph) -> Graph:
    """Join: disjoint union plus every edge between the two vertex sets."""
    off = g1.n
    first, second = (1 << off) - 1, ((1 << g2.n) - 1) << off
    masks = [mask | second for mask in g1.masks]
    masks.extend(mask << off | first for mask in g2.masks)
    return Graph._from_masks(off + g2.n, masks)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph._from_masks(n, [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph._from_masks(
        n, [vertex_mask(w for w in (i - 1, i + 1) if 0 <= w < n) for i in range(n)]
    )


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9."""
    outer = [1 << (i - 1) % 5 | 1 << (i + 1) % 5 | 1 << 5 + i for i in range(5)]
    inner = [1 << i | 1 << 5 + (i - 2) % 5 | 1 << 5 + (i + 2) % 5 for i in range(5)]
    return Graph._from_masks(10, outer + inner)


def bipartition_of(g: Graph) -> SidePartition | None:
    """Two-color g, or return None if some component has an odd cycle.

    Deterministic: each component's smallest vertex is colored into side X.
    A breadth-first search from it walks the component layer by layer as
    bitmasks; even layers go to X and odd layers to Y.  Every edge joins one
    layer to itself or to the next, so g is bipartite exactly when no layer
    reaches into itself, and the search returns None at the first layer that
    does.
    """
    masks, full = g.masks, (1 << g.n) - 1
    remaining, x = full, 0
    while remaining:
        layer = seen = remaining & -remaining
        even = True
        while layer:
            reach, frontier = 0, layer
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= masks[bit.bit_length() - 1]
            if reach & layer:  # an edge inside the layer closes an odd cycle
                return None
            if even:
                x |= layer
            layer = reach & ~seen
            seen |= layer
            even = not even
        remaining &= ~seen
    return SidePartition(frozenset(_members(x)), frozenset(_members(full & ~x)))


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The twin classes of g, ascending, ordered by their smallest member.

    Vertices with equal open neighbourhoods form one class (isolated vertices
    share the empty one); the vertices left alone are then grouped by closed
    neighbourhood.  No vertex has both an open and a closed twin, so this is a
    partition, and swapping two members of a class is an automorphism.
    """
    by_open: dict[int, list[int]] = {}
    for v, mask in enumerate(g.masks):
        by_open.setdefault(mask, []).append(v)
    by_closed: dict[int, list[int]] = {}
    classes = []
    for members in by_open.values():
        if len(members) > 1:
            classes.append(tuple(members))
        else:
            v = members[0]
            by_closed.setdefault(g.masks[v] | 1 << v, []).append(v)
    classes.extend(tuple(members) for members in by_closed.values())
    return tuple(sorted(classes))
