"""Extremal graph families attaining the spectral thresholds.

Two shapes occur.  The non-bipartite families are a clique joined to the
disjoint union of a smaller clique and a few isolated vertices; the bipartite
families are a complete bipartite graph K_{p,q} bipartitely joined to an
edgeless graph O_{a,b} whose vertices are split between the two sides, which
keeps the result balanced bipartite.  Every builder returns a plain graph;
``graphs.bipartition_of`` recovers the sides of a bipartite one.  Each family
has an equitable vertex partition (by construction block) whose quotient
matrix carries the spectral radius; ``quotient_partition`` exposes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, bipartition_of, complete, disjoint_union, empty, join


class Family(str, Enum):
    TOUGH_INT = "tough-int"
    TOUGH_FRAC_DELTA = "tough-frac-delta"
    BIP_INT_DIV = "bip-int-div"
    BIP_INT_NONDIV_A = "bip-int-nondiv-a"
    BIP_INT_NONDIV_B = "bip-int-nondiv-b"
    BIP_FRAC = "bip-frac"


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters; ``validate`` checks every hypothesis."""

    family: Family
    n: int
    tau: int | None = None
    tau_inv: int | None = None
    delta: int | None = None
    r: int | None = None
    r_inv: int | None = None

    # convenience constructors ------------------------------------------------

    @classmethod
    def tough_int(cls, n: int, tau: int) -> FamilySpec:
        return cls(Family.TOUGH_INT, n, tau=tau)

    @classmethod
    def tough_frac_delta(cls, n: int, tau_inv: int, delta: int) -> FamilySpec:
        return cls(Family.TOUGH_FRAC_DELTA, n, tau_inv=tau_inv, delta=delta)

    @classmethod
    def bip_int_div(cls, n: int, r: int) -> FamilySpec:
        return cls(Family.BIP_INT_DIV, n, r=r)

    @classmethod
    def bip_int_nondiv_a(cls, n: int, r: int) -> FamilySpec:
        return cls(Family.BIP_INT_NONDIV_A, n, r=r)

    @classmethod
    def bip_int_nondiv_b(cls, n: int, r: int) -> FamilySpec:
        return cls(Family.BIP_INT_NONDIV_B, n, r=r)

    @classmethod
    def bip_frac(cls, n: int, r_inv: int) -> FamilySpec:
        return cls(Family.BIP_FRAC, n, r_inv=r_inv)

    # validation --------------------------------------------------------------

    def validate(self) -> None:
        f, n = self.family, self.n
        if f is Family.TOUGH_INT:
            tau = _require(self.tau, "tau")
            if tau < 2:
                raise ValueError(f"tough-int requires tau >= 2, got tau={tau}")
            floor = 2 * tau * tau + 3 * tau
            if n < floor:
                raise ValueError(
                    f"tough-int requires n >= 2*tau^2 + 3*tau = {floor}, got n={n}"
                )
        elif f is Family.TOUGH_FRAC_DELTA:
            b = _require(self.tau_inv, "tau_inv")
            d = _require(self.delta, "delta")
            if b < 1:
                raise ValueError(f"tough-frac-delta requires tau_inv >= 1, got {b}")
            if d < 1:
                raise ValueError(f"tough-frac-delta requires delta >= 1, got {d}")
            floor = max(5 * d + 4, b * d**3 + d)
            if n < floor:
                raise ValueError(
                    "tough-frac-delta requires n >= max(5*delta + 4, "
                    f"tau_inv*delta^3 + delta) = {floor}, got n={n}"
                )
            if n - (b + 1) * d - 1 < 1:
                raise ValueError(
                    "tough-frac-delta clique part would be empty: requires "
                    f"n >= (tau_inv + 1)*delta + 2 = {(b + 1) * d + 2}, got n={n}"
                )
        elif f in (Family.BIP_INT_DIV, Family.BIP_INT_NONDIV_A, Family.BIP_INT_NONDIV_B):
            r = _require(self.r, "r")
            if r < 2:
                raise ValueError(f"{f.value} requires r >= 2, got r={r}")
            if n % 2:
                raise ValueError(f"{f.value} requires even n, got n={n}")
            floor = 2 * r * r + 6 * r
            if n < floor:
                raise ValueError(
                    f"{f.value} requires n >= 2*r^2 + 6*r = {floor}, got n={n}"
                )
            divides = n % (2 * r) == 0
            if f is Family.BIP_INT_DIV and not divides:
                raise ValueError(f"bip-int-div requires 2r | n, got n={n}, r={r}")
            if f is not Family.BIP_INT_DIV and divides:
                raise ValueError(
                    f"{f.value} requires 2r not dividing n, got n={n}, r={r}"
                )
        elif f is Family.BIP_FRAC:
            b = _require(self.r_inv, "r_inv")
            if b < 1:
                raise ValueError(f"bip-frac requires r_inv >= 1, got {b}")
            if n % 2:
                raise ValueError(f"bip-frac requires even n, got n={n}")
            floor = 4 * b + 6
            if n < floor:
                raise ValueError(
                    f"bip-frac requires n >= 4*r_inv + 6 = {floor}, got n={n}"
                )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown family {f!r}")


def _require(value: int | None, name: str) -> int:
    if value is None:
        raise ValueError(f"missing family parameter {name}")
    return value


# ---------------------------------------------------------------------------
# block sizes
# ---------------------------------------------------------------------------


def tough_block_sizes(spec: FamilySpec) -> tuple[int, int, int]:
    """(join, clique, independents) sizes for the non-bipartite families."""
    spec.validate()
    if spec.family is Family.TOUGH_INT:
        return spec.tau - 1, spec.n - spec.tau, 1
    if spec.family is Family.TOUGH_FRAC_DELTA:
        b, d = spec.tau_inv, spec.delta
        return d, spec.n - (b + 1) * d - 1, b * d + 1
    raise ValueError(f"{spec.family.value} is not a join-of-cliques family")


def bip_block_sizes(spec: FamilySpec) -> tuple[int, int, int, int]:
    """(p, q, a, b) with the family graph K_{p,q} bipartitely joined to O_{a,b}."""
    spec.validate()
    n, half = spec.n, spec.n // 2
    if spec.family is Family.BIP_INT_DIV:
        chunk = n // (2 * spec.r)
        return half - 1, half - chunk, 1, chunk
    if spec.family is Family.BIP_INT_NONDIV_A:
        f = n // (2 * spec.r)
        return spec.r * f - 1, half - f, half - spec.r * f + 1, f
    if spec.family is Family.BIP_INT_NONDIV_B:
        return spec.r - 1, half - 1, half - spec.r + 1, 1
    if spec.family is Family.BIP_FRAC:
        b = spec.r_inv
        return 1, half - b - 1, half - 1, b + 1
    raise ValueError(f"{spec.family.value} is not a bipartite family")


def split_join(p: int, q: int, a: int, b: int) -> Graph:
    """K_{p,q} bipartitely joined to O_{a,b}; blocks X1, Y1, X2, Y2 in order,
    with sides X1 u X2 and Y1 u Y2."""
    if p < 1 or q < 1 or a < 0 or b < 0 or a + b < 1:
        raise ValueError("split join needs p, q >= 1 and a, b >= 0 with a + b >= 1")
    x1, y1 = (1 << p) - 1, ((1 << q) - 1) << p
    x2, y2 = ((1 << a) - 1) << p + q, ((1 << b) - 1) << p + q + a
    masks = [y1 | y2] * p + [x1 | x2] * q + [y1] * a + [x1] * b
    return Graph._from_masks(p + q + a + b, masks)


def clique_with_satellites(s: int, c: int, t: int) -> Graph:
    """K_s joined to (K_c plus t isolated vertices); blocks join, clique, singles."""
    tail = disjoint_union([complete(c), empty(t)]) if t else complete(c)
    return join(complete(s), tail)


# ---------------------------------------------------------------------------
# construction, canonical partitions, recognition
# ---------------------------------------------------------------------------


def family_graph(spec: FamilySpec) -> Graph:
    """Construct the family graph."""
    spec.validate()
    if spec.family in (Family.TOUGH_INT, Family.TOUGH_FRAC_DELTA):
        s, c, t = tough_block_sizes(spec)
        return clique_with_satellites(s, c, t)
    return split_join(*bip_block_sizes(spec))


def quotient_partition(spec: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """Canonical equitable partition of the family graph's vertex set.

    Non-bipartite families: (join set, independent set, clique).
    Bipartite families: (X1, Y1, X2, Y2) in construction order.
    """
    spec.validate()
    if spec.family in (Family.TOUGH_INT, Family.TOUGH_FRAC_DELTA):
        s, c, t = tough_block_sizes(spec)
        return (
            tuple(range(s)),
            tuple(range(s + c, s + c + t)),
            tuple(range(s, s + c)),
        )
    p, q, a, b = bip_block_sizes(spec)
    bounds = (0, p, p + q, p + q + a, p + q + a + b)
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))


def matches_family(g: Graph, spec: FamilySpec) -> bool:
    """Decide whether g is isomorphic to the family graph, from degrees alone.

    The clique families are threshold graphs: with the family's degrees, the
    s vertices of degree n - 1 are the join set, and the rest, of degrees
    c - 1 and 0 once the join set is gone, can only be K_c plus isolated
    vertices.  The bipartite families are difference graphs: given a
    bipartition whose side degrees are the family's, a vertex whose degree
    is the other side's order sees all of that side, and every other
    vertex's degree is used up by edges to those, which fixes every edge.
    The family graph is connected, so the bipartition is unique up to the
    order of the sides.
    """
    target = family_graph(spec)
    if g.n != target.n or sorted(g.degrees()) != sorted(target.degrees()):
        return False
    if spec.family in (Family.TOUGH_INT, Family.TOUGH_FRAC_DELTA):
        return True
    sides = bipartition_of(g)
    if sides is None:
        return False
    have, want = (
        sorted(sorted(h.degree(v) for v in side) for side in (split.x, split.y))
        for h, split in ((g, sides), (target, bipartition_of(target)))
    )
    return have == want
