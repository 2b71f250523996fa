"""Gyrovector operations on the Poincare ball.

Points live in the open unit ball. The two basic operators are Mobius
addition

    x (+) y = ((1 + 2 <x,y> + |y|^2) x + (1 - |x|^2) y)
              / (1 + 2 <x,y> + |x|^2 |y|^2)

and Mobius scalar multiplication

    r (*) x = tanh(r * artanh(|x|)) * x/|x|

from which geodesics, midpoints and weighted midpoints are built. A result
whose norm rounds to 1 or beyond is pulled back to norm MAX_NORM. The
hyperbolic distance is

    d(u, v) = arccosh(1 + 2 |u-v|^2 / ((1 - |u|^2)(1 - |v|^2)))
            = 2 asinh(sqrt(|u-v|^2 / ((1 - |u|^2)(1 - |v|^2))))

and is evaluated in the asinh form, with |u-v|^2 summed from actual
coordinate differences, so nearby points keep full relative precision.
Each Mobius operation has one row-wise implementation over (B, d) row
stacks; the public functions take 1-D vectors, and the compositions call
the row kernels on whole batches.
All computation is in float64; the operators compound rounding error and
32-bit floats do not survive deep compositions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_NORM",
    "mobius_add",
    "mobius_neg",
    "mobius_scale",
    "geodesic_point",
    "midpoint",
    "weighted_midpoint",
    "poincare_distance",
    "pairwise_poincare_distance",
    "pairwise_squared_distance",
]

# byte budget of the (rows, N, d) difference block one chunk broadcasts
CHUNK_BYTES = 512 * 1024

# largest norm a point is given: results that reach the boundary are
# clamped to it, and artanh is taken at no more than it
MAX_NORM = 1.0 - 1e-7


def _as_vector(x, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite coordinates")
    return x


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


# Row kernels. Each takes (B, d) float64 row stacks and works row by row,
# without validating: the public functions below check their arguments once,
# and composition checks a whole batch once before folding it. A row's result
# depends on that row alone, and inner products go through np.vecdot (the
# same BLAS dot as 1-D np.dot), so a batch of one gives bitwise the rows of a
# batch of many.


def _clamp(X: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.vecdot(X, X))
    over = n >= 1.0
    # count_nonzero: ndarray.any costs several times more on small arrays
    if np.count_nonzero(over):
        X = np.where(over[:, None], X * (MAX_NORM / np.where(over, n, 1.0))[:, None], X)
    return X


def _add(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    dot2 = 2.0 * np.vecdot(A, B)[:, None]
    na2 = np.vecdot(A, A)[:, None]
    nb2 = np.vecdot(B, B)[:, None]
    # 1 + (2<a,b> + |b|^2) in this order: (1 + 2<a,b>) + |b|^2 rounds differently
    num = (1.0 + (dot2 + nb2)) * A + (1.0 - na2) * B
    den = 1.0 + dot2 + na2 * nb2
    return _clamp(num / den)


def _scale(r, X: np.ndarray) -> np.ndarray:
    # r is a scalar or one factor per row
    n = np.sqrt(np.vecdot(X, X))
    # artanh blows up at 1; points numerically on the boundary are pulled in.
    mag = np.tanh(r * np.arctanh(np.minimum(n, MAX_NORM)))
    # x/|x| has a removable singularity at the origin, which maps to itself
    return _clamp((mag / np.where(n > 0.0, n, 1.0))[:, None] * X)


def _geodesic(A: np.ndarray, B: np.ndarray, t) -> np.ndarray:
    # t is a scalar or one fraction per row
    return _add(A, _scale(t, _add(-A, B)))


def mobius_add(a, b) -> np.ndarray:
    """Mobius addition a (+) b.

    Non-commutative and non-associative. The output is clamped back
    inside the ball if rounding pushes its norm to 1 or beyond.
    """
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_same_dim(a, b)
    return _add(a[None], b[None])[0]


def mobius_neg(a) -> np.ndarray:
    """Gyrogroup inverse: coordinate-wise negation."""
    return -_as_vector(a, "a")


def mobius_scale(r: float, x) -> np.ndarray:
    """Mobius scalar multiplication r (*) x = tanh(r artanh(|x|)) x/|x|.

    The origin is a removable singularity of x/|x| and maps to itself.
    """
    if not math.isfinite(r):
        raise ValueError(f"scalar r must be finite, got {r}")
    return _scale(r, _as_vector(x, "x")[None])[0]


def geodesic_point(a, b, t: float) -> np.ndarray:
    """Point at fraction ``t`` along the geodesic from a to b.

    Parametrized as a (+) ((-a (+) b) (*) t); satisfies
    d(a, result) = t * d(a, b).
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_same_dim(a, b)
    if t == 0.0:
        return a.copy()
    if t == 1.0:
        return b.copy()
    return _geodesic(a[None], b[None], t)[0]


def midpoint(a, b) -> np.ndarray:
    """Geodesic midpoint, i.e. the t = 1/2 point; equidistant from a and b."""
    return geodesic_point(a, b, 0.5)


def weighted_midpoint(a, b, m_a: float, m_b: float) -> np.ndarray:
    """Weighted midpoint M_{ab|m_a m_b}: the geodesic point at t = m_b / (m_a + m_b).

    Splits the geodesic so that d(a, .) / d(., b) = m_b / m_a.
    """
    for name, m in (("m_a", m_a), ("m_b", m_b)):
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"weight {name} must be positive and finite, got {m}")
    return geodesic_point(a, b, m_b / (m_a + m_b))


def poincare_distance(u, v) -> float:
    """Hyperbolic distance between two unit-ball points; see pairwise_poincare_distance."""
    return float(pairwise_poincare_distance(_as_vector(u, "u"), _as_vector(v, "v"))[0, 0])


def _as_rows(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=np.float64))


def pairwise_squared_distance(U, V) -> np.ndarray:
    """Squared Euclidean distance matrix S[i, j] = |U[i] - V[j]|^2.

    Summed from actual row differences, never as |u|^2 + |v|^2 - 2 u.v,
    so equal rows give exactly 0 and S is exactly symmetric in U, V.
    The differences are broadcast a block of rows at a time, keeping the
    temporary within CHUNK_BYTES.
    """
    U = _as_rows(U)
    V = _as_rows(V)
    if U.shape[1] != V.shape[1]:
        raise ValueError(f"dimension mismatch: {U.shape[1]} vs {V.shape[1]}")
    out = np.empty((U.shape[0], V.shape[0]))
    rows = max(1, CHUNK_BYTES // max(1, V.size * 8))
    for start in range(0, U.shape[0], rows):
        diff = U[start : start + rows, None, :] - V[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start : start + rows])
    return out


def pairwise_poincare_distance(U, V) -> np.ndarray:
    """Distance matrix D[i, j] = d(U[i], V[j]) over unit-ball row stacks.

    d(u, v) = 2 asinh(sqrt(|u-v|^2 / ((1 - |u|^2)(1 - |v|^2))))

    which equals the arccosh form but, unlike arccosh(1 + x), keeps full
    relative precision when x is tiny.
    """
    U = _as_rows(U)
    V = _as_rows(V)
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise ValueError("non-finite coordinates")
    nu2 = np.sum(U * U, axis=1)
    nv2 = np.sum(V * V, axis=1)
    if np.any(nu2 >= 1.0) or np.any(nv2 >= 1.0):
        raise ValueError("pairwise_poincare_distance requires points strictly inside the unit ball")
    sq = pairwise_squared_distance(U, V)
    sq /= (1.0 - nu2)[:, None] * (1.0 - nv2)[None, :]
    np.sqrt(sq, out=sq)
    np.arcsinh(sq, out=sq)
    sq *= 2.0
    return sq
