"""Kernels over ball points, Gram matrices, and positive-semidefiniteness checks.

The geodesic kernel family is

    K(u, v) = exp(-lambda * d(u, v)^q),   lambda, q > 0

with d the hyperbolic distance of the unit ball. q = 1 is the geodesic
Laplacian kernel (a valid Mercer kernel on the ball); q = 2 is the geodesic
Gaussian kernel, which is not positive semidefinite there - some point
configurations give Gram matrices with negative eigenvalues. Euclidean
RBF exp(-lambda |u - v|^2) and the plain dot product are provided as
baselines. The eigensolver used for the PSD diagnostic is an in-repo
Jacobi iteration in the round-robin (parallel) ordering of Brent & Luk
1985, which rotates disjoint index pairs together.

Every square matrix this module or the kernel SVM takes - a
``GramMatrix``, a raw Gram array, the eigensolver's input - passes the
one check ``check_gram``; a ``GramMatrix`` holds the array it returned.
"""

from __future__ import annotations

import functools
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
    "jacobi_eigenvalues",
    "psd_check",
]

KERNEL_KINDS = ("geodesic", "euclidean_rbf", "linear")

# Jacobi sweeps before jacobi_eigenvalues returns whatever diagonal it has
MAX_SWEEPS = 100
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
    """
    if isinstance(matrix, GramMatrix):
        return matrix.entries
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"Gram matrix must be square and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("Gram matrix contains non-finite entries")
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, float(np.abs(a).max())):
        raise ValueError("Gram matrix is asymmetric beyond tolerance")
    return a


def cross_kernel(queries, points, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K[i, j] between query and reference point rows of one width."""
    Q = _rows(queries, "queries")
    P = _rows(points, "points")
    _same_width(Q, P)
    if spec.kind == "geodesic":
        d = pairwise_poincare_distance(Q, P)
        return np.exp(-spec.lam * d**spec.q)
    if spec.kind == "euclidean_rbf":
        return np.exp(-spec.lam * pairwise_squared_distance(Q, P))
    return Q @ P.T


def gram_matrix(points, spec: KernelSpec) -> GramMatrix:
    """Build the Gram matrix of one set of point rows: its cross-kernel with itself.

    Geodesic and rbf entries are exactly symmetric with a diagonal of
    exactly 1 (d(u, u) = 0); linear ones are the one matrix product P P^T.
    """
    P = _rows(points, "points")
    return GramMatrix(entries=cross_kernel(P, P, spec))


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by Jacobi rotations.

    Each sweep rotates every off-diagonal pair once, in the round-robin
    ordering of Brent & Luk 1985 (SIAM J. Sci. Stat. Comput. 6): n - 1
    rounds (n for odd n) of disjoint pairs, each round one matrix update.

    Sweeps stop once the off-diagonal Frobenius norm falls to
    1e-12 * trace (or hits zero), capped at ``MAX_SWEEPS`` sweeps.
    Returns the eigenvalues in ascending order.
    """
    a = check_gram(matrix).copy()
    n = a.shape[0]
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
    """One round-robin pass of rotations over every off-diagonal pair, in place.

    Each round rotates its disjoint pairs at once: the rotations commute, so
    they form one orthogonal J and the round is the update a <- J^T a J.
    """
    n = a.shape[0]
    diag = a.diagonal()
    for p, q, entries in _round_robin(n):
        # tangent of the rotation zeroing a[p, q]; this form of the quadratic
        # root never overflows, unlike theta = delta/(2 apq). A pair with
        # apq = 0 and delta = 0 (0/0 here) is already diagonal: t = 0.
        two_apq = 2.0 * a[p, q]
        delta = diag[q] - diag[p]
        den = delta + np.copysign(np.hypot(delta, two_apq), delta)
        t = np.divide(two_apq, den, out=np.zeros_like(den), where=den != 0.0)
        c = 1.0 / np.hypot(1.0, t)
        s = t * c
        J = np.eye(n)
        J.put(entries, np.concatenate((c, c, s, -s)))
        np.matmul(J.T @ a, J, out=a)
        a.put(entries[2 * len(p):], 0.0)


@functools.lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Circle-method schedule: rounds of disjoint index pairs (p, q) that
    together meet every pair of 0..n-1 once (Brent & Luk 1985).

    Index 0 stays put while the others rotate one place per round. For odd
    n a bye slot n pads the circle and its pair is dropped, so each round
    one index sits out. Each round also carries the flat indices of its
    (p, p), (q, q), (p, q), (q, p) entries in an n x n array. The arrays are
    read-only: every caller shares them.
    """
    m = n + n % 2
    circle = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (circle[i], circle[m - 1 - i])
            for i in range(m // 2)
            if max(circle[i], circle[m - 1 - i]) < n
        ]
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        entries = np.concatenate((p * n + p, q * n + q, p * n + q, q * n + p))
        for array in (p, q, entries):
            array.flags.writeable = False
        rounds.append((p, q, entries))
        circle = [circle[0], circle[-1], *circle[1:-1]]
    return tuple(rounds)


class PsdReport(NamedTuple):
    passed: bool
    min_eigenvalue: float


def psd_check(gram) -> PsdReport:
    """Positive-semidefiniteness test with a trace-scaled tolerance.

    Passes iff the smallest eigenvalue is >= -PSD_TOL * max(1, trace / n),
    which keeps the threshold dimensionless across kernel rates.
    """
    a = check_gram(gram)
    # jacobi_eigenvalues works on its own copy
    lo = float(jacobi_eigenvalues(a)[0])
    scale = max(1.0, float(np.trace(a)) / a.shape[0])
    return PsdReport(passed=lo >= -PSD_TOL * scale, min_eigenvalue=lo)
