"""Kernels over ball points, Gram matrices, and positive-semidefiniteness checks.

The geodesic kernel family is

    K(u, v) = exp(-lambda * d(u, v)^q),   lambda, q > 0

with d the hyperbolic distance of the unit ball. q = 1 is the geodesic
Laplacian kernel (a valid Mercer kernel on the ball); q = 2 is the geodesic
Gaussian kernel, which is not positive semidefinite there - some point
configurations give Gram matrices with negative eigenvalues. Euclidean
RBF exp(-lambda |u - v|^2) and the plain dot product are provided as
baselines. The PSD diagnostic needs only the smallest eigenvalue, which an
in-repo route finds: a Householder reduction to tridiagonal form, then
bisection on the Sturm count.

Every square matrix this module or the kernel SVM takes - a
``GramMatrix``, a raw Gram array, the PSD check's input - passes the one
check ``check_gram``; a ``GramMatrix`` holds the array it returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gyroball import _rows, _same_width, pairwise_poincare_distance, pairwise_squared_distance

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "PsdReport",
    "check_gram",
    "cross_kernel",
    "gram_matrix",
    "psd_check",
]

KERNEL_KINDS = ("geodesic", "euclidean_rbf", "linear")

# psd_check passes a smallest eigenvalue down to -PSD_TOL * max(1, trace / n)
PSD_TOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector: kind plus rate lambda and geodesic exponent q.

    q is read only by the geodesic kind (1 = Laplacian, 2 = Gaussian), and
    lambda by all but linear; a setting the kind ignores must stay 1.0.
    """

    kind: str = "geodesic"
    lam: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not (math.isfinite(self.q) and self.q > 0):
            raise ValueError(f"q must be positive, got {self.q}")
        # stored as floats, so that a cell's row key is one spelling
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "q", float(self.q))
        if self.q != 1.0 and self.kind != "geodesic":
            raise ValueError(f"q applies only to the geodesic kernel, got q={self.q} for {self.kind!r}")
        if self.lam != 1.0 and self.kind == "linear":
            raise ValueError(f"lambda does not apply to the linear kernel, got lambda={self.lam}")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix, as ``check_gram`` returned it; its kernel is the caller's."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", check_gram(self.entries))


def check_gram(matrix) -> np.ndarray:
    """The one rule for a square matrix, from a ``GramMatrix`` or an array.

    Rejects a matrix that is empty, not square, not finite, or asymmetric
    beyond 1e-12 * max(1, max |entry|), and returns its float64 entries; a
    ``GramMatrix``'s, checked when it was built, are returned as they are.
    Finiteness and the scale come from the largest and smallest entries (a
    NaN or an infinity carries through max or min), and an exactly
    symmetric matrix, as every ``gram_matrix`` is, passes on one comparison
    with its transpose, so it is checked without n x n float scratch.
    """
    if isinstance(matrix, GramMatrix):
        return matrix.entries
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"Gram matrix must be square and non-empty, got shape {a.shape}")
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("Gram matrix contains non-finite entries")
    if not np.array_equal(a, a.T) and np.abs(a - a.T).max() > 1e-12 * max(1.0, abs(hi), abs(lo)):
        raise ValueError("Gram matrix is asymmetric beyond tolerance")
    return a


def _exp_kernel(pairs: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """exp(-lambda pairs^q), computed in place on a matrix the caller owns:
    the geodesic kernel of Poincare distances, or the rbf kernel of squared
    Euclidean distances (whose q is 1)."""
    pairs **= spec.q
    pairs *= -spec.lam
    return np.exp(pairs, out=pairs)


def cross_kernel(queries, points, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K[i, j] between query and reference point rows of one width."""
    Q = _rows(queries, "queries")
    P = _rows(points, "points")
    _same_width(Q, P)
    if spec.kind == "geodesic":
        return _exp_kernel(pairwise_poincare_distance(Q, P), spec)
    if spec.kind == "euclidean_rbf":
        return _exp_kernel(pairwise_squared_distance(Q, P), spec)
    return Q @ P.T


def gram_matrix(points, spec: KernelSpec) -> GramMatrix:
    """Build the Gram matrix of one set of point rows: its cross-kernel with itself.

    Geodesic and rbf entries are exactly symmetric with a diagonal of
    exactly 1 (d(u, u) = 0); linear ones are the one matrix product P P^T.
    """
    P = _rows(points, "points")
    return GramMatrix(entries=cross_kernel(P, P, spec))


def _smallest_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix ``check_gram`` returned.

    Householder reflections reduce a copy to tridiagonal form, n - 2 rank-2
    updates (Golub & Van Loan, Matrix Computations, 4th ed., 8.3.1). On that
    form, bisection on the Sturm count (Barth, Martin & Wilkinson 1967,
    Numer. Math. 9) narrows the Gershgorin interval until its ends are
    adjacent floats, and returns the upper end.
    """
    # on a copy scaled exactly by a power of two to a largest |entry| in
    # [0.5, 1), so that the squared subdiagonal entries below neither
    # overflow nor lose a tiny matrix's entries
    exponent = math.frexp(max(abs(float(a.max())), abs(float(a.min()))))[1]
    a = np.ldexp(a, -exponent)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        if not x[1:].any():
            continue  # already zero below the subdiagonal
        # scaled by its largest |entry| first, as LAPACK's dlarfg does, so
        # that v @ v >= 1 and cannot underflow
        scale = np.abs(x).max()
        v = x / scale
        alpha = -math.copysign(math.sqrt(v @ v), v[0])
        v[0] -= alpha
        # the subdiagonal entry H leaves; the zeros below it are never read
        x[0] = alpha * scale
        # H = I - beta v v^T applied on both sides of the trailing block
        beta = 2.0 / (v @ v)
        rest = a[k + 1 :, k + 1 :]
        p = beta * (rest @ v)
        w = p - (0.5 * beta * (p @ v)) * v
        rest -= np.outer(v, w) + np.outer(w, v)
    diag, off = a.diagonal(), a.diagonal(-1)
    radius = np.r_[np.abs(off), 0.0] + np.r_[0.0, np.abs(off)]
    # one float down, so that rounding in the bound cannot put lo above it
    lo = math.nextafter(float((diag - radius).min()), -math.inf)
    hi = float((diag + radius).max())
    d, e2 = diag.tolist(), [0.0, *(off * off).tolist()]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        # T - mid I = L D L^T has as many negative eigenvalues as D has
        # negative pivots (Sylvester), so one pivot <= 0 puts an eigenvalue
        # at or below mid. A zero pivot counts, as LAPACK's dstebz counts it
        # by taking it as -pivmin; stopping there never divides by zero
        pivot = 1.0
        for di, ei in zip(d, e2):
            pivot = di - mid - ei / pivot
            if pivot <= 0.0:
                hi = mid
                break
        else:
            lo = mid
    return math.ldexp(hi, exponent)


class PsdReport(NamedTuple):
    passed: bool
    min_eigenvalue: float


def psd_check(gram) -> PsdReport:
    """Positive-semidefiniteness test with a trace-scaled tolerance.

    Passes iff the smallest eigenvalue is >= -PSD_TOL * max(1, trace / n),
    which keeps the threshold dimensionless across kernel rates.
    """
    a = check_gram(gram)
    lo = _smallest_eigenvalue(a)
    scale = max(1.0, float(np.trace(a)) / a.shape[0])
    return PsdReport(passed=lo >= -PSD_TOL * scale, min_eigenvalue=lo)
