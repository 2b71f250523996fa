"""Gyrovector operations on the Poincare ball.

Points live in the open unit ball. The two basic operators are Mobius
addition

    x (+) y = ((1 + 2 <x,y> + |y|^2) x + (1 - |x|^2) y)
              / (1 + 2 <x,y> + |x|^2 |y|^2)

and Mobius scalar multiplication

    r (*) x = tanh(r * artanh(|x|)) * x/|x|

from which geodesics, midpoints and weighted midpoints are defined. The
geodesic step a (+) ((-a (+) b) (*) t) is evaluated in one closed form
(see _geodesic) whose terms are all positive, so it stays accurate near
the boundary, where the three operations composed cancel. A result whose
norm rounds to 1 or beyond is pulled back to norm MAX_NORM. Mobius
scaling takes artanh at the point's own norm, uncapped, and so holds for
every point strictly inside the ball. The hyperbolic distance is

    d(u, v) = arccosh(1 + 2 |u-v|^2 / ((1 - |u|^2)(1 - |v|^2)))
            = 2 asinh(sqrt(|u-v|^2 / ((1 - |u|^2)(1 - |v|^2))))

and is evaluated in the asinh form, with |u-v|^2 summed from actual
coordinate differences, so nearby points lose nothing to cancellation;
the floor is the rounding of 1 - |u|^2 at the point nearer the boundary,
a relative error of about (dim + 2) eps / (1 - |u|^2). Each Mobius
operation has one row-wise implementation, which takes a (B, d) row stack
or, on a branch of Python floats, one (d,) row, and point arrays pass one
rule, _rows: finite float64 (n, d) rows, d >= 1, a 1-D vector as one row;
the Mobius functions take 1-D vectors. The row kernels take the norms of
their input rows as arguments, as the np.vecdot squared norms |x|^2
(Mobius addition and scaling) or as c = 1 - |x|^2 (the geodesic step),
one per row or a float for one (d,) row, and hand back those of their
results, which the clamp (_clamp_norms) returns with the rows it has
checked: a fold takes each norm once, where it makes the point.
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
# clamped to it
MAX_NORM = 1.0 - 1e-7

# the smallest normal float64, read once: _geodesic floors by it at every step
_TINY = np.finfo(np.float64).tiny


def _rows(X, name: str = "points") -> np.ndarray:
    """The point-row rule: X as finite float64 (n, d) rows, d >= 1; a 1-D
    vector is one row, and n = 0 is allowed (zero queries, empty results)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or X.shape[-1] < 1:
        raise ValueError(f"{name} must be (n, d) point rows with d >= 1, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return X[None] if X.ndim == 1 else X


def _same_width(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")


def _as_vector(x, name: str = "point") -> np.ndarray:
    """A 1-D vector, as the one row that _rows makes of it."""
    if np.ndim(x) != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {np.shape(x)}")
    return _rows(x, name)


def _inside(X: np.ndarray, name: str) -> np.ndarray:
    """Squared norms of the rows of X, which must lie strictly inside the unit ball.

    They are the np.vecdot squared norms that _clamp_norms takes, so every
    row it keeps is accepted.
    """
    n2 = np.vecdot(X, X)
    if np.count_nonzero(n2 >= 1.0):
        raise ValueError(f"{name} requires points strictly inside the unit ball")
    return n2


# Row kernels. Each takes (B, d) float64 row stacks and works row by row,
# without validating: the public functions below check their arguments once,
# and composition checks a whole batch once before folding it. A row's result
# depends on that row alone, and inner products go through np.vecdot (the
# same BLAS dot as 1-D ndarray.dot), so a batch of one gives bitwise the rows
# of a batch of many. A norm passed in must be the np.vecdot one of its row,
# bit for bit: then a step gives the bits it would give taking the norm itself.
# _add, _scale and _geodesic also take one (d,) row, on a branch of its own
# whose per-row values are Python floats: inner products by ndarray.dot,
# square roots by math.sqrt, and sinh, asinh, tanh and atanh by numpy's on
# a float (math's would round otherwise on 18-48% of inputs; both sqrts are
# correctly rounded). That gives bitwise the row of the (1, d) stack at a
# fraction of the per-call cost that dominates a stack of one: a geodesic
# step takes about 5 us, against 7 us on numpy scalars and 18 us on a stack
# of one. Such a row goes through the clamp, as a stack of one, only where
# its squared norm reaches 1 (_clamp_vector).


def _clamp_norms(X: np.ndarray):
    """X with every row of norm >= 1 pulled back to norm MAX_NORM (a row whose
    squared norm overflowed keeps its direction), the np.vecdot squared
    norms of its returned rows, and the mask of the rows it pulled back.

    sqrt(n2) >= 1 holds exactly where n2 >= 1, so the mask is taken from
    the squared norms; a caller that needs 1 - |x|^2 of the rows, as the
    next geodesic or Mobius step does, takes it from them.
    """
    n2 = np.vecdot(X, X)
    over = n2 >= 1.0
    # count_nonzero: ndarray.any costs several times more on small arrays
    if np.count_nonzero(over):
        if np.count_nonzero(inf := np.isinf(n2)):
            # by its largest |coordinate|, on a copy; an all-zero row would give 0/0
            X = np.divide(X, np.abs(X).max(axis=-1, keepdims=True), out=X.copy(),
                          where=inf[:, None])
            n2 = np.vecdot(X, X)
        # x * 1.0 is x, so the rows kept keep their bits
        X = X * (MAX_NORM / np.where(over, np.sqrt(n2), MAX_NORM))[:, None]
        # a pulled-back row's norm is MAX_NORM only to rounding
        n2 = np.where(over, np.vecdot(X, X), n2)
    return X, n2, over


def _clamp_vector(x: np.ndarray):
    """_clamp_norms of one (d,) row: the row and its squared norm, a float."""
    n2 = float(x.dot(x))
    # a NaN norm is kept, as _clamp_norms keeps it
    if not n2 >= 1.0:
        return x, n2
    X, n2, _ = _clamp_norms(x[None])
    return X[0], float(n2[0])


def _add(A: np.ndarray, B: np.ndarray, na2, nb2):
    """Rows of A (+) B, clamped, and their squared norms, given the squared
    norms na2 and nb2 of the rows of A and B; one (d,) row's are floats."""
    if A.ndim == 1:
        dot2 = 2.0 * float(A.dot(B))
    else:
        dot2, na2, nb2 = 2.0 * np.vecdot(A, B)[:, None], na2[:, None], nb2[:, None]
    # 1 + (2<a,b> + |b|^2) in this order: (1 + 2<a,b>) + |b|^2 rounds differently
    num = (1.0 + (dot2 + nb2)) * A + (1.0 - na2) * B
    den = 1.0 + dot2 + na2 * nb2
    return _clamp_vector(num / den) if A.ndim == 1 else _clamp_norms(num / den)[:2]


def _scale(r, X: np.ndarray, n2) -> np.ndarray:
    """Rows of r (*) X, clamped, given the squared norms n2 of the rows of X;
    one (d,) row's is a float."""
    # r is a scalar or one factor per row, and the rows lie inside the ball:
    # a squared norm below 1 has a correctly rounded sqrt of at most
    # 1 - 2^-53, whose artanh is finite
    if X.ndim == 1:
        n = math.sqrt(n2)
        mag = float(np.tanh(r * float(np.arctanh(n))))
        return _clamp_vector(mag / (n if n > 0.0 else 1.0) * X)[0]
    n = np.sqrt(n2)
    mag = np.tanh(r * np.arctanh(n))
    # x/|x| has a removable singularity at the origin, which maps to itself
    return _clamp_norms((mag / np.where(n > 0.0, n, 1.0))[:, None] * X)[0]


def _geodesic(A: np.ndarray, B: np.ndarray, t, c_a: np.ndarray, c_b: np.ndarray):
    """Rows of a (+) ((-a (+) b) (*) t), for rows inside the ball, and their
    c = 1 - |x|^2; t is a scalar or one fraction per row, and c_a and c_b
    are 1 - np.vecdot(x, x) of the rows of A and of B (floats for one
    (d,) row).

    With D = b - a and the half distance h = asinh(x),
    x = sqrt(|D|^2 / (c_a c_b)), the step is

        a + (beta D - gamma a) / (alpha + beta + gamma)
        alpha = sinh(2 (1 - t) h) / c_a,  beta = sinh(2 t h) / c_b,
        gamma = 2 x sinh(t h) sinh((1 - t) h)

    (the geodesic of the hyperboloid model, mapped back to the ball). All
    three weights are positive, so nothing cancels, and the step is taken
    from a, so a short step keeps its relative precision. Composing the
    three Mobius operations instead cancels in (-a) (+) b for nearby
    points and, for far points near the boundary, in the final addition,
    whose denominator shrinks like c_a^2 while its terms stay of order 1.
    What is left is the rounding of 1 - |a|^2 and 1 - |b|^2, a relative
    error of about dim eps / c that moves the result by about
    (1 - |m|^2) dim eps ((1 - t) / c_a + t / c_b). The c returned is 1
    minus the squared norm that the clamp takes of each row, so a fold
    carries c from step to step and never takes a norm twice.
    """
    D = B - A
    if A.ndim == 1:
        x = math.sqrt(float(D.dot(D)) / (c_a * c_b))
        h = float(np.arcsinh(x))
        th = t * h
        uh = h - th
        alpha = float(np.sinh(2.0 * uh)) / c_a
        beta = float(np.sinh(2.0 * th)) / c_b
        gamma = 2.0 * x * float(np.sinh(th)) * float(np.sinh(uh))
        # floored as the stack's den below, by max, which keeps a NaN as np.maximum does
        den = max(alpha + beta + gamma, _TINY)
        X, n2 = _clamp_vector((1.0 - gamma / den) * A + (beta / den) * D)
        return X, 1.0 - n2
    x = np.sqrt(np.vecdot(D, D) / (c_a * c_b))
    h = np.arcsinh(x)
    th = t * h
    uh = h - th
    alpha = np.sinh(2.0 * uh) / c_a
    beta = np.sinh(2.0 * th) / c_b
    gamma = 2.0 * x * np.sinh(th) * np.sinh(uh)
    # all three weights are 0 only where b = a, whose step is a; elsewhere
    # beta or alpha is at least sinh(h), far above the smallest normal
    den = np.maximum(alpha + beta + gamma, _TINY)
    X, n2, _ = _clamp_norms((1.0 - gamma / den)[:, None] * A + (beta / den)[:, None] * D)
    return X, 1.0 - n2


def mobius_add(a, b) -> np.ndarray:
    """Mobius addition a (+) b.

    Non-commutative and non-associative. Both points must lie strictly
    inside the unit ball. The output is clamped back inside the ball if
    rounding pushes its norm to 1 or beyond.
    """
    A = _as_vector(a, "a")
    B = _as_vector(b, "b")
    _same_width(A, B)
    _inside(np.concatenate([A, B]), "mobius_add")
    # the norms of a and b as given: a strided vector's np.vecdot can round
    # otherwise than that of its copy in the concatenation
    return _add(A, B, np.vecdot(A, A), np.vecdot(B, B))[0][0]


def mobius_neg(a) -> np.ndarray:
    """Gyrogroup inverse: coordinate-wise negation."""
    return -_as_vector(a, "a")[0]


def mobius_scale(r: float, x) -> np.ndarray:
    """Mobius scalar multiplication r (*) x = tanh(r artanh(|x|)) x/|x|.

    x must lie strictly inside the unit ball. The origin is a removable
    singularity of x/|x| and maps to itself.
    """
    if not math.isfinite(r):
        raise ValueError(f"scalar r must be finite, got {r}")
    X = _as_vector(x, "x")
    return _scale(r, X, _inside(X, "mobius_scale"))[0]


def geodesic_point(a, b, t: float) -> np.ndarray:
    """Point at fraction ``t`` along the geodesic from a to b.

    Parametrized as a (+) ((-a (+) b) (*) t); satisfies
    d(a, result) = t * d(a, b). Both points must lie strictly inside the
    unit ball.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    A = _as_vector(a, "a")
    B = _as_vector(b, "b")
    _same_width(A, B)
    _inside(np.concatenate([A, B]), "geodesic_point")
    if t == 0.0:
        return A[0].copy()
    if t == 1.0:
        return B[0].copy()
    # 1 - |x|^2 of a and b as given, as in mobius_add
    return _geodesic(A, B, t, 1.0 - np.vecdot(A, A), 1.0 - np.vecdot(B, B))[0][0]


def midpoint(a, b) -> np.ndarray:
    """Geodesic midpoint, i.e. the t = 1/2 point; equidistant from a and b."""
    return geodesic_point(a, b, 0.5)


def weighted_midpoint(a, b, m_a: float, m_b: float) -> np.ndarray:
    """Weighted midpoint M_{ab|m_a m_b}: the geodesic point at t = m_b / (m_a + m_b).

    Splits the geodesic so that d(a, .) / d(., b) = m_b / m_a. Where
    m_a + m_b overflows, t is taken from the halved masses, which gives
    the same fraction since halving is exact.
    """
    for name, m in (("m_a", m_a), ("m_b", m_b)):
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"weight {name} must be positive and finite, got {m}")
    if math.isinf(m_a + m_b):
        m_a, m_b = m_a / 2.0, m_b / 2.0
    return geodesic_point(a, b, m_b / (m_a + m_b))


def poincare_distance(u, v) -> float:
    """Hyperbolic distance between two unit-ball points; see pairwise_poincare_distance."""
    return float(pairwise_poincare_distance(_as_vector(u, "u"), _as_vector(v, "v"))[0, 0])


def pairwise_squared_distance(U, V) -> np.ndarray:
    """Squared Euclidean distance matrix S[i, j] = |U[i] - V[j]|^2.

    Summed from actual row differences, never as |u|^2 + |v|^2 - 2 u.v,
    so equal rows give exactly 0 and S is exactly symmetric in U, V.
    The differences are broadcast a block of rows at a time, keeping the
    temporary within CHUNK_BYTES. When V is U (one array passed twice, as
    for a Gram matrix) only one triangle is summed: the block of rows
    s..e takes columns s.. and is mirrored into the lower triangle, which
    is bitwise what the full sums give, since (u - v)^2 = (v - u)^2
    coordinate by coordinate. U and V are point rows of one width.
    """
    symmetric = V is U
    U = _rows(U, "U")
    V = U if symmetric else _rows(V, "V")
    _same_width(U, V)
    out = np.empty((U.shape[0], V.shape[0]))
    rows = max(1, CHUNK_BYTES // max(1, V.size * 8))
    for start in range(0, U.shape[0], rows):
        stop = start + rows
        first = start if symmetric else 0
        diff = U[start:stop, None, :] - V[None, first:, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:stop, first:])
        if symmetric:
            out[stop:, start:stop] = out[start:stop, stop:].T
    return out


def pairwise_poincare_distance(U, V) -> np.ndarray:
    """Distance matrix D[i, j] = d(U[i], V[j]) over unit-ball row stacks.

    d(u, v) = 2 asinh(sqrt(|u-v|^2 / ((1 - |u|^2)(1 - |v|^2))))

    which equals the arccosh form but, unlike arccosh(1 + x), loses nothing
    to cancellation when x is tiny; rounding 1 - |u|^2 leaves a floor, a
    relative error of about (dim + 2) eps / (1 - |u|^2) for the u nearer the
    boundary. U and V are point rows of one width, strictly inside the ball.
    """
    symmetric = V is U
    U = _rows(U, "U")
    V = U if symmetric else _rows(V, "V")
    nu2 = _inside(U, "pairwise_poincare_distance")
    nv2 = nu2 if symmetric else _inside(V, "pairwise_poincare_distance")
    sq = pairwise_squared_distance(U, V)
    sq /= (1.0 - nu2)[:, None] * (1.0 - nv2)[None, :]
    np.sqrt(sq, out=sq)
    np.arcsinh(sq, out=sq)
    sq *= 2.0
    return sq
