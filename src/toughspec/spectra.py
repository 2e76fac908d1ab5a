"""Adjacency spectra: the spectral radius, the Perron vector, full spectra, and
exact rational quotient-matrix characteristic polynomials.

``spectral_radius`` solves each component on at most ``SMALL_ORDER`` vertices
for its top eigenvalue alone, by ``np.linalg.eigvalsh``; larger ones run a power
iteration on A + I in three vectors allocated once per call, bit-identical to a
loop that allocates every intermediate.  The shift shrinks the -lambda_1 mode of
a bipartite graph only by (lambda_1 - 1)/(lambda_1 + 1) per step: the
criterion-3 grid's bipartite families with 300 <= n <= 400 take 1,189-2,069
steps (25 ms at n = 402 on a 2-core x86-64 host).  Past ``MAX_ITERATIONS`` steps
(a long path needs about 0.36 n^2) ``eigvalsh`` answers.  No radius route keeps
an eigenvector; ``perron_vector`` gets one from ``np.linalg.eigh``.  Every route
holds a dense n x n matrix, so each refuses over ``DENSE_CAP`` vertices (per
component for the radius) with ValueError first.

The spectral radius and the quotient-polynomial root are deliberately computed
by two unrelated routes (linear algebra vs a certified polynomial root) so each
can check the other on the extremal families.  A certified root x comes with an
exact proof, by Descartes' rule of signs in rationals, that the largest real
root lies in (x - h, x + h] for some h <= RADIUS_TOL * max(1, |x|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _members, component_masks, vertex_mask

RADIUS_TOL = 1e-10  # radius residual; also bounds the root certificate
MAX_ITERATIONS = 10_000  # about 5x the criterion-3 grid's worst, 2,069 steps
_NEWTON_STEPS = 200  # cap on the float and on the exact Newton steps of a root
DENSE_CAP = 1000
SMALL_ORDER = 24  # eigvalsh: 15 / 28-39 / 44-68 us at n = 16 / 24 / 32, against 78-345 /
# 70-460 / 65-287 us for the power iteration on six connected G(n, p) each (2-core x86-64);
# it wins past 24 too, but kept here while the benchmark's peak memory grows with throughput


class RootIsolationError(ValueError):
    """Raised when no certificate isolates the largest real root."""


@dataclass
class SpectralResult:
    """Spectral radius; ``iterations`` sums the power iteration's steps, with
    ``MAX_ITERATIONS`` for a component that ran out, and ``residual`` is the
    largest max |A x - radius x| over the components it settled, 0.0 where
    ``eigvalsh`` answered.  No eigenvector is kept: see ``perron_vector``."""

    radius: float
    iterations: int
    residual: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix, unpacked row by row from the neighbour masks.

    Rows are padded to a multiple of 8 entries and start on 64-byte boundaries:
    BLAS matrix-vector products run about a quarter slower on rows that do not.
    """
    width = (g.n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in g.masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    bits = np.unpackbits(rows, axis=1, bitorder="little")  # zero-padded to 8 * width
    buf = np.empty(bits.size + 7)
    start = -(buf.ctypes.data // 8) % 8  # malloc's offset varies with heap history
    a = buf[start : start + bits.size].reshape(bits.shape)
    a[...] = bits
    return a[:, : g.n]


def _dense(a: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric ``a``, by ``np.linalg.eigvalsh``."""
    return float(np.linalg.eigvalsh(a)[-1])


def _power_iteration(a: np.ndarray):
    """(radius, unit vector, steps, max |a x - radius x|) for the symmetric 0/1 ``a``.

    Iterates on a + I from the all-ones vector: the shift breaks the +/-lambda
    oscillation on bipartite graphs and makes a connected graph's top eigenvalue
    strictly dominant.  Past ``MAX_ITERATIONS`` steps ``_dense`` gives the
    radius, with residual 0.0 beside the last iterate.
    Each step writes into three vectors allocated once per call; the norm is
    sqrt(y . y), which is what ``np.linalg.norm`` computes for a float vector.
    """
    n = a.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    z, y, scratch = np.empty(n), np.empty(n), np.empty(n)
    np.matmul(a, x, out=z)
    for it in range(MAX_ITERATIONS):
        lam = float(np.dot(x, z))
        np.multiply(x, lam, out=scratch)
        np.subtract(z, scratch, out=scratch)
        np.absolute(scratch, out=scratch)
        residual = float(scratch.max())
        if residual <= RADIUS_TOL:
            return lam, x, it, residual
        np.add(z, x, out=y)
        np.divide(y, math.sqrt(np.dot(y, y)), out=x)
        np.matmul(a, x, out=z)
    return _dense(a), x, MAX_ITERATIONS, 0.0


def spectral_radius(g: Graph) -> SpectralResult:
    """Spectral radius of the adjacency matrix: the maximum over components.

    Components on at most ``SMALL_ORDER`` vertices go to ``eigvalsh``, larger
    ones to the power iteration.  A connected graph is solved on its own
    matrix.  A component on more than ``DENSE_CAP`` vertices raises ValueError
    before any matrix is allocated.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    comps = component_masks(g.masks, (1 << g.n) - 1)
    largest = max(comp.bit_count() for comp in comps)
    if largest > DENSE_CAP:
        raise ValueError(
            f"spectral radius capped at components of <= {DENSE_CAP} vertices, got {largest}"
        )
    best, iters, worst = 0.0, 0, 0.0
    for comp in comps:
        if comp.bit_count() == 1:
            continue
        a = adjacency_matrix(g if len(comps) == 1 else g.induced(_members(comp)))
        lam, _, it, res = _power_iteration(a) if len(a) > SMALL_ORDER else (_dense(a), None, 0, 0.0)
        best, iters, worst = max(best, lam), iters + it, max(worst, res)
    return SpectralResult(best, iters, worst)


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
