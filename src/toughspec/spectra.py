"""Adjacency spectra: the spectral radius, the Perron vector, full spectra, and
exact rational quotient-matrix characteristic polynomials.

``spectral_radius`` takes each component's top eigenvalue from
``np.linalg.eigvalsh`` on that component's dense matrix: one route, O(k^3) time
and a working copy of the k x k matrix for a component on k vertices.  On a
2-core x86-64 host that is 11 ms for the n = 402 bip-frac graph and 83 ms for
a 1,000-vertex path, where a power iteration on A + I needs thousands of steps,
but 9.9 ms for tough-int(400, 2) and 80 ms for a 1,000-vertex G(n, 1/2), which
such an iteration settles in 0.65 and 3.4 ms.  No radius route keeps an
eigenvector; ``perron_vector`` gets one from ``np.linalg.eigh``.  Every route
holds a dense n x n matrix, so each refuses over ``DENSE_CAP`` vertices (per
component for the radius) with ValueError first.

The spectral radius and the quotient-polynomial root are deliberately computed
by two unrelated routes (linear algebra vs a certified polynomial root) so each
can check the other on the extremal families.  A certified root x comes with an
exact proof, by Descartes' rule of signs in rationals, that the largest real
root lies in (x - h, x + h] for some h <= RADIUS_TOL * max(1, |x|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _members, component_masks, vertex_mask

RADIUS_TOL = 1e-10  # bounds the root certificate
_NEWTON_STEPS = 200  # cap on the float and on the exact Newton steps of a root
DENSE_CAP = 1000


class RootIsolationError(ValueError):
    """Raised when no certificate isolates the largest real root."""


@dataclass
class SpectralResult:
    """Spectral radius.  No eigenvector is kept: see ``perron_vector``."""

    radius: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix, unpacked row by row from the neighbour masks."""
    width = (g.n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in g.masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(rows, axis=1, count=g.n, bitorder="little").astype(float)


def spectral_radius(g: Graph) -> SpectralResult:
    """Spectral radius of the adjacency matrix: the maximum over components,
    each the top eigenvalue from ``eigvalsh``.

    A connected graph is solved on its own matrix.  A component on more than
    ``DENSE_CAP`` vertices raises ValueError before any matrix is allocated.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    comps = component_masks(g.masks, (1 << g.n) - 1)
    largest = max(comp.bit_count() for comp in comps)
    if largest > DENSE_CAP:
        raise ValueError(
            f"spectral radius capped at components of <= {DENSE_CAP} vertices, got {largest}"
        )
    best = 0.0
    for comp in comps:
        if comp.bit_count() > 1:
            a = adjacency_matrix(g if len(comps) == 1 else g.induced(_members(comp)))
            best = max(best, float(np.linalg.eigvalsh(a)[-1]))
    return SpectralResult(best)


def perron_vector(g: Graph) -> np.ndarray:
    """Positive unit eigenvector of a connected graph's spectral radius, by
    ``np.linalg.eigh`` at any order up to ``DENSE_CAP``; ValueError otherwise."""
    if not g.is_connected():
        raise ValueError("Perron vector needs a connected graph")
    if g.n > DENSE_CAP:
        raise ValueError(f"Perron vector capped at n <= {DENSE_CAP}, got n={g.n}")
    return np.abs(np.linalg.eigh(adjacency_matrix(g))[1][:, -1])


def full_spectrum(g: Graph) -> list[float]:
    """All adjacency eigenvalues in nonincreasing order (dense solve)."""
    if g.n < 1:
        raise ValueError("spectrum needs at least one vertex")
    if g.n > DENSE_CAP:
        raise ValueError(f"dense spectrum capped at n <= {DENSE_CAP}, got n={g.n}")
    eigenvalues = np.linalg.eigvalsh(adjacency_matrix(g))
    return [float(v) for v in eigenvalues[::-1]]


def second_largest_absolute_eigenvalue(g: Graph) -> float:
    """max |eigenvalue| after removing one copy of the largest eigenvalue."""
    if not g.is_connected() or g.n < 2:
        raise ValueError("second largest absolute eigenvalue needs a connected graph on >= 2 vertices")
    spectrum = full_spectrum(g)
    return max(abs(v) for v in spectrum[1:])


# ---------------------------------------------------------------------------
# quotient matrices (exact rational arithmetic throughout)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums of the adjacency matrix over a vertex partition.

    ``equitable`` records whether every vertex of class i has the same number
    of neighbors in class j, for all i, j; only then do the quotient's
    eigenvalues interlace into the graph's spectrum exactly.
    """

    cells: tuple[tuple[Fraction, ...], ...]
    partition: tuple[tuple[int, ...], ...]
    equitable: bool


def quotient_matrix(g: Graph, partition: Sequence[Iterable[int]]) -> QuotientMatrix:
    """Quotient of g's adjacency matrix over a partition of the vertex set."""
    classes = [tuple(sorted(cls)) for cls in partition]
    if not classes or any(not cls for cls in classes):
        raise ValueError("partition classes must be nonempty")
    flat = [v for cls in classes for v in cls]
    if len(flat) != g.n or set(flat) != set(range(g.n)):
        raise ValueError("partition must cover the vertex set exactly once")
    class_masks = [vertex_mask(cls) for cls in classes]
    cells = []
    equitable = True
    for cls in classes:
        row = []
        for mask in class_masks:
            counts = [(g.masks[v] & mask).bit_count() for v in cls]
            if any(c != counts[0] for c in counts):
                equitable = False
            row.append(Fraction(sum(counts), len(cls)))
        cells.append(tuple(row))
    return QuotientMatrix(tuple(cells), tuple(classes), equitable)


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial with exact rational coefficients, leading term first."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("characteristic polynomial must be monic")

    def __call__(self, x):
        return _value_and_slope(self.coeffs, x)[0]


def char_poly(q: QuotientMatrix | Sequence[Sequence[Fraction | int]]) -> CharPoly:
    """det(xI - Q) via the Faddeev-LeVerrier recurrence in exact rationals."""
    rows = q.cells if isinstance(q, QuotientMatrix) else q
    a = [[Fraction(c) for c in row] for row in rows]
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("quotient matrix must be square")
    coeffs = [Fraction(1)]
    m = [row[:] for row in a]
    for step in range(1, k + 1):
        c = -sum(m[i][i] for i in range(k)) / step
        coeffs.append(c)
        if step < k:
            for i in range(k):
                m[i][i] += c
            m = [
                [sum(a[i][t] * m[t][j] for t in range(k)) for j in range(k)]
                for i in range(k)
            ]
    return CharPoly(tuple(coeffs))


def largest_real_root(p: CharPoly) -> float:
    """Largest real root by Newton's method, certified by Descartes' rule of signs.

    Newton's method starts at Fujiwara's root bound.  A quotient matrix is
    similar to a symmetric one, so its characteristic polynomial has only real
    roots, and the iterates fall monotonically onto the largest.  Float steps
    run until rounding stops that fall; then steps evaluated exactly, each
    rounded to a float, run until they repeat.  The result x is returned only
    if, for some h up to ``RADIUS_TOL * max(1, |x|)``, the coefficients of
    p(t + x + h) have no sign change and those of p(t + x - h) an odd number.
    Float rounding near a root cluster just below a simple largest root, as in
    (x - 30)**4 (x - 361/12), can throw the float steps below it; when the
    certificate then finds a root above x, exact steps alone run again from
    the bound.  Otherwise RootIsolationError, e.g. when the largest root has
    even multiplicity, as in x**2 or (x - 2)**2, or when complex roots add sign
    changes, as in (x - 1)((x - 3)**2 + 1).
    """
    floats = [float(c) for c in p.coeffs]
    start = 2.0 * max((abs(c) ** (1.0 / k) for k, c in enumerate(floats[1:], 1)), default=0.0)
    for steps in ((float, floats), (Fraction, p.coeffs)), ((Fraction, p.coeffs),):
        x = start
        for number, coeffs in steps:
            for _ in range(_NEWTON_STEPS):
                at = number(x)
                value, slope = _value_and_slope(coeffs, at)
                if not slope:
                    break
                x, last = float(at - value / slope), x
                if x == last or (x > last and number is float):  # a rising float step is noise
                    break
        centre, scale = Fraction(x), max(1.0, abs(x))
        for shrink in (1000, 100, 10, 1):
            h = Fraction(RADIUS_TOL * scale) / shrink
            above = _sign_changes(p.coeffs, centre + h)
            if above == 0 and _sign_changes(p.coeffs, centre - h) % 2:
                return x
        if not above:  # no root above x to fall onto
            break
    raise RootIsolationError(f"no certificate isolates the largest root near {x!r}")


def _value_and_slope(coeffs, x):
    """p(x) and p'(x) by Horner's rule, in the arithmetic of x."""
    value = slope = 0 * x
    for c in coeffs:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _sign_changes(coeffs: Sequence[Fraction], shift: Fraction) -> int:
    """Sign changes in the coefficients of p(t + shift), by repeated synthetic division."""
    a = list(coeffs)
    for end in range(len(a) - 1, 0, -1):
        for j in range(1, end + 1):
            a[j] += a[j - 1] * shift
    signs = [c > 0 for c in a if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))
