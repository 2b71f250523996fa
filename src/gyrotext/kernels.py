"""Kernels over ball points, Gram matrices, and positive-semidefiniteness checks.

The geodesic kernel family is

    K(u, v) = exp(-lambda * d(u, v)^q),   lambda, q > 0

with d the hyperbolic distance of the unit ball. q = 1 is the geodesic
Laplacian kernel (a valid Mercer kernel on the ball); q = 2 is the geodesic
Gaussian kernel, which is not positive semidefinite there - some point
configurations give Gram matrices with negative eigenvalues. Euclidean
RBF exp(-lambda |u - v|^2) and the plain dot product are provided as
baselines. The eigensolver used for the PSD diagnostic is an in-repo
cyclic Jacobi iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gyroball import pairwise_poincare_distance, pairwise_squared_distance

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "PsdReport",
    "check_gram",
    "cross_kernel",
    "gram_matrix",
    "jacobi_eigenvalues",
    "min_eigenvalue",
    "psd_check",
]

KERNEL_KINDS = ("geodesic", "euclidean_rbf", "linear")

# Jacobi sweeps before jacobi_eigenvalues returns whatever diagonal it has
MAX_SWEEPS = 100


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector: kind plus rate lambda and geodesic exponent q.

    q is only meaningful for the geodesic kind (1 = Laplacian, 2 = Gaussian)
    and is ignored otherwise.
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


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one point set, tagged with its spec."""

    entries: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        check_gram(self.entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def check_gram(entries: np.ndarray) -> None:
    """Reject a Gram array that is not square, finite and symmetric to 1e-12."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("Gram matrix contains non-finite entries")
    if np.abs(entries - entries.T).max() > 1e-12:
        raise ValueError("Gram matrix is asymmetric beyond tolerance")


def cross_kernel(queries, points, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K[i, j] between query rows and reference point rows."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if Q.shape[1] != P.shape[1]:
        raise ValueError(f"dimension mismatch: {Q.shape[1]} vs {P.shape[1]}")
    if spec.kind == "geodesic":
        d = pairwise_poincare_distance(Q, P)
        return np.exp(-spec.lam * d**spec.q)
    if spec.kind == "euclidean_rbf":
        return np.exp(-spec.lam * pairwise_squared_distance(Q, P))
    return Q @ P.T


def gram_matrix(points, spec: KernelSpec) -> GramMatrix:
    """Build the symmetric Gram matrix of one point set.

    The upper triangle is computed once and mirrored, so symmetry is exact;
    the diagonal is written directly (exp(0) = 1 for geodesic and rbf).
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if P.shape[0] == 0:
        raise ValueError("gram_matrix requires at least one point")
    full = cross_kernel(P, P, spec)
    upper = np.triu(full, k=1)
    entries = upper + upper.T
    if spec.kind in ("geodesic", "euclidean_rbf"):
        np.fill_diagonal(entries, 1.0)
    else:
        np.fill_diagonal(entries, np.sum(P * P, axis=1))
    return GramMatrix(entries=entries, spec=spec)


def _as_symmetric(matrix) -> np.ndarray:
    if isinstance(matrix, GramMatrix):
        a = matrix.entries
    else:
        a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return np.array(a, dtype=np.float64)


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal Frobenius norm falls to
    1e-12 * trace (or hits zero), capped at ``MAX_SWEEPS`` sweeps.
    Returns the eigenvalues in ascending order.
    """
    a = _as_symmetric(matrix)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    threshold = max(1e-12 * float(np.trace(a)), 0.0)
    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(MAX_SWEEPS):
        # summed from the off-diagonal entries themselves: the difference
        # sum(a^2) - sum(diag^2) cancels to a ~1e-7 floor above threshold
        if math.sqrt(float(np.sum(a[off_diagonal] ** 2))) <= threshold:
            break
        _jacobi_sweep(a)
    return np.sort(np.diag(a))


def _jacobi_sweep(a: np.ndarray) -> None:
    """One cyclic pass of rotations over the upper triangle, in place."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            # tangent of the rotation zeroing a[p, q]; this form of the
            # quadratic root never overflows, unlike theta = delta/(2 apq)
            delta = a[q, q] - a[p, p]
            t = 2.0 * apq * math.copysign(1.0, delta) / (
                abs(delta) + math.hypot(delta, 2.0 * apq)
            )
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            rot_p = c * a[p, :] - s * a[q, :]
            rot_q = s * a[p, :] + c * a[q, :]
            a[p, :] = rot_p
            a[q, :] = rot_q
            a[:, p] = rot_p
            a[:, q] = rot_q
            a[p, p] = c * rot_p[p] - s * rot_p[q]
            a[q, q] = s * rot_q[p] + c * rot_q[q]
            a[p, q] = 0.0
            a[q, p] = 0.0


def min_eigenvalue(gram) -> float:
    """Smallest eigenvalue of a Gram (or any symmetric) matrix via Jacobi."""
    return float(jacobi_eigenvalues(gram)[0])


class PsdReport(NamedTuple):
    passed: bool
    min_eigenvalue: float
    tol: float


def psd_check(gram, tol: float = 1e-8) -> PsdReport:
    """Positive-semidefiniteness test with a trace-scaled tolerance.

    Passes iff the smallest eigenvalue is >= -tol * max(1, trace / n),
    which keeps the threshold dimensionless across kernel rates.
    """
    a = _as_symmetric(gram)
    lo = min_eigenvalue(a)
    scale = max(1.0, float(np.trace(a)) / a.shape[0])
    return PsdReport(passed=lo >= -tol * scale, min_eigenvalue=lo, tol=tol)
