"""Adjacency spectra: power iteration for the spectral radius, a dense solver
for full spectra, and exact rational quotient-matrix characteristic polynomials.

The spectral radius and the quotient-polynomial root are deliberately computed
by two unrelated routes (iterative linear algebra vs exact polynomial root
isolation) so each can certify the other on the extremal families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, vertex_mask

RADIUS_TOL = 1e-10  # power-iteration residual; also scales the Newton stop
MAX_ITERATIONS = 1_000_000
DENSE_CAP = 1000


class PowerIterationError(RuntimeError):
    """Raised when power iteration fails to meet tolerance within the cap."""


class RootIsolationError(ValueError):
    """Raised when no sign change brackets the requested polynomial root."""


@dataclass
class SpectralResult:
    """Spectral radius with convergence diagnostics.

    ``perron`` is the positive unit eigenvector and is present only when the
    graph is connected (it is not well-defined otherwise).
    """

    radius: float
    iterations: int
    residual: float
    perron: np.ndarray | None


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


def _power_iteration(a: np.ndarray):
    """Largest eigenvalue of the symmetric 0/1 matrix ``a``.

    Iterates on a + I: the shift breaks the +/-lambda oscillation on bipartite
    graphs, and for a connected graph makes the top eigenvalue strictly
    dominant, so convergence is guaranteed.  Starts from the all-ones vector.
    """
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
    raise PowerIterationError(
        f"power iteration did not reach tol={RADIUS_TOL} within {MAX_ITERATIONS} iterations"
    )


def spectral_radius(g: Graph) -> SpectralResult:
    """Spectral radius of the adjacency matrix.

    Disconnected input is allowed: the radius is the maximum over components
    and no Perron vector is reported.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    comps = g.components()
    if len(comps) == 1:
        lam, x, it, res = _power_iteration(adjacency_matrix(g))
        return SpectralResult(lam, it, res, x)
    best, iters, worst = 0.0, 0, 0.0
    for comp in comps:
        if len(comp) == 1:
            continue
        lam, _, it, res = _power_iteration(adjacency_matrix(g.induced(comp)))
        best = max(best, lam)
        iters += it
        worst = max(worst, res)
    return SpectralResult(best, iters, worst, None)


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

    @property
    def size(self) -> int:
        return len(self.cells)


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        value = 0 * x if not isinstance(x, float) else 0.0
        for c in self.coeffs:
            value = value * x + c
        return value

    def float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


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
    """Largest real root, isolated by a sign-change scan and polished by Newton.

    Scans a descending grid over the Cauchy/Fujiwara root bound, where the
    monic polynomial is positive, bisects the first sign change, then finishes
    with Newton steps.  Raises RootIsolationError when the scan sees no sign
    change, e.g. when the dominant root has even multiplicity.
    """
    coeffs = p.float_coeffs()
    # take the tighter of the Cauchy and Fujiwara root bounds: Cauchy
    # grows with the largest coefficient while Fujiwara grows with the
    # root size, so the scan grid keeps resolution near the actual roots
    # even when low-order coefficients are huge
    tail = np.abs(coeffs[1:])  # the leading coefficient is 1
    cauchy = 1.0 + float(tail.max())
    fujiwara = 2.0 * max(c ** (1.0 / (k + 1)) for k, c in enumerate(tail))
    bound = max(min(cauchy, fujiwara), 1e-6)
    lo, hi = -bound, bound
    grid = np.linspace(hi, lo, 8193)
    values = np.polyval(coeffs, grid)
    below = np.nonzero(values <= 0)[0]
    if below.size == 0:
        raise RootIsolationError("no sign change found in scan range")
    first = int(below[0])
    a, b = float(grid[first]), float(grid[first - 1])  # p(a) <= 0 <= p(b)
    fa = float(values[first])
    if fa == 0.0:
        a_root = a
    else:
        for _ in range(120):
            mid = 0.5 * (a + b)
            if b - a <= 1e-13 * max(1.0, abs(mid)):
                break
            if np.polyval(coeffs, mid) <= 0:
                a = mid
            else:
                b = mid
        a_root = 0.5 * (a + b)
    deriv = np.polyder(coeffs)
    x = a_root
    for _ in range(40):
        fx = float(np.polyval(coeffs, x))
        dfx = float(np.polyval(deriv, x))
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= RADIUS_TOL * 1e-3 * max(1.0, abs(x)):
            break
    return x
