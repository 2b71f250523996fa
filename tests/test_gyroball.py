import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotext import gyroball
from gyrotext.composition import compose
from gyrotext.gyroball import (
    MAX_NORM,
    _clamp_norms,
    geodesic_point,
    midpoint,
    mobius_add,
    mobius_neg,
    mobius_scale,
    pairwise_poincare_distance,
    pairwise_squared_distance,
    poincare_distance,
    weighted_midpoint,
)


# independent 1-D oracles for collinear points on a diameter: Mobius addition
# reduces to the relativistic velocity sum and scaling to a tanh stretch
def radial_add(u, v):
    return (u + v) / (1.0 + u * v)


def radial_scale(r, u):
    return math.tanh(r * math.atanh(u))


def random_ball(rng, dim, max_norm=0.9):
    u = rng.normal(size=dim)
    return u * rng.uniform(0.0, max_norm) / np.linalg.norm(u)


def test_mobius_add_collinear_closed_form():
    for u, v in [(0.5, 0.5), (0.2, -0.7), (0.9, 0.05), (-0.6, -0.3)]:
        got = mobius_add(np.array([u, 0.0]), np.array([v, 0.0]))
        assert got[0] == pytest.approx(radial_add(u, v), abs=1e-14)
        assert got[1] == 0.0
    assert mobius_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))[0] == pytest.approx(0.8)


def test_mobius_add_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = random_ball(rng, 4)
        assert np.array_equal(mobius_add(np.zeros(4), b), b)
        assert np.array_equal(mobius_add(b, np.zeros(4)), b)


def test_mobius_add_left_inverse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_ball(rng, 6)
        np.testing.assert_allclose(mobius_add(mobius_neg(a), a), 0.0, atol=1e-15)
        np.testing.assert_allclose(mobius_add(a, mobius_neg(a)), 0.0, atol=1e-15)


def test_mobius_add_rejects_mismatch():
    with pytest.raises(ValueError):
        mobius_add(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        mobius_add(np.array([np.inf, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match="a must be a 1-D vector, got shape"):
        mobius_add(np.zeros((1, 2)), np.zeros(2))


def test_mobius_neg():
    assert np.array_equal(mobius_neg(np.array([0.2, -0.4])), [-0.2, 0.4])
    assert np.array_equal(mobius_neg(np.zeros(3)), np.zeros(3))


def test_left_cancellation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = random_ball(rng, 5)
        b = random_ball(rng, 5)
        np.testing.assert_allclose(
            mobius_add(mobius_neg(a), mobius_add(a, b)), b, atol=1e-8
        )


def test_mobius_add_noncommutative():
    a = np.array([0.5, 0.0])
    b = np.array([0.0, 0.5])
    gap = np.linalg.norm(mobius_add(a, b) - mobius_add(b, a))
    assert gap > 1e-3


def test_mobius_scale_doubling():
    # tanh(2 artanh u) = 2u/(1+u^2)
    got = mobius_scale(2.0, np.array([0.5, 0.0]))
    assert got[0] == pytest.approx(0.8, abs=1e-14)
    for u in (0.1, 0.45, 0.85):
        got = mobius_scale(2.0, np.array([u, 0.0]))
        assert got[0] == pytest.approx(2 * u / (1 + u * u), abs=1e-13)


def test_mobius_scale_identity_and_origin():
    rng = np.random.default_rng(3)
    x = random_ball(rng, 3)
    np.testing.assert_allclose(mobius_scale(1.0, x), x, atol=1e-12)
    assert np.array_equal(mobius_scale(0.7, np.zeros(3)), np.zeros(3))
    with pytest.raises(ValueError):
        mobius_scale(np.inf, x)


def test_scalar_distributivity_and_associativity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = random_ball(rng, 4)
        r1, r2 = rng.uniform(-3, 3, 2)
        lhs = mobius_scale(r1 + r2, x)
        rhs = mobius_add(mobius_scale(r1, x), mobius_scale(r2, x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)
        np.testing.assert_allclose(
            mobius_scale(r1 * r2, x), mobius_scale(r1, mobius_scale(r2, x)), atol=1e-8
        )


def test_integer_scale_is_repeated_addition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_ball(rng, 3, max_norm=0.7)
        acc = x.copy()
        for n in (2, 3, 4):
            acc = mobius_add(acc, x)
            np.testing.assert_allclose(mobius_scale(n, x), acc, atol=1e-8)


def test_geodesic_endpoints_exact():
    a = np.array([0.3, 0.2])
    b = np.array([-0.1, 0.5])
    assert np.array_equal(geodesic_point(a, b, 0.0), a)
    assert np.array_equal(geodesic_point(a, b, 1.0), b)
    with pytest.raises(ValueError):
        geodesic_point(a, b, -0.1)
    with pytest.raises(ValueError):
        geodesic_point(a, b, 1.1)


def test_geodesic_symmetric_midpoint_is_origin():
    a = np.array([0.5, 0.0])
    b = np.array([-0.5, 0.0])
    np.testing.assert_allclose(geodesic_point(a, b, 0.5), 0.0, atol=1e-15)
    np.testing.assert_allclose(midpoint(a, b), 0.0, atol=1e-15)


def test_midpoint_degenerate_and_equidistant():
    rng = np.random.default_rng(6)
    a = random_ball(rng, 4)
    np.testing.assert_allclose(midpoint(a, a), a, atol=1e-12)
    for _ in range(100):
        u = random_ball(rng, 4)
        v = random_ball(rng, 4)
        m = midpoint(u, v)
        d = poincare_distance(u, v)
        assert poincare_distance(u, m) == pytest.approx(d / 2, rel=1e-9)
        assert poincare_distance(v, m) == pytest.approx(d / 2, rel=1e-9)


def test_weighted_midpoint_reduces_to_midpoint():
    rng = np.random.default_rng(7)
    a, b = random_ball(rng, 3), random_ball(rng, 3)
    np.testing.assert_allclose(
        weighted_midpoint(a, b, 2.5, 2.5), midpoint(a, b), atol=1e-15
    )


def test_weighted_midpoint_of_masses_whose_sum_overflows():
    # m_a + m_b is inf, which would put t at 0 and return a
    rng = np.random.default_rng(8)
    a, b = random_ball(rng, 3), random_ball(rng, 3)
    assert weighted_midpoint(a, b, 1e308, 1e308).tobytes() == midpoint(a, b).tobytes()
    big = 2.0**1023
    got = weighted_midpoint(a, b, big, 1.5 * big)
    assert got.tobytes() == weighted_midpoint(a, b, 1.0, 1.5).tobytes()


def test_weighted_midpoint_small_weight_limit():
    rng = np.random.default_rng(8)
    a, b = random_ball(rng, 3), random_ball(rng, 3)
    np.testing.assert_allclose(weighted_midpoint(a, b, 1.0, 1e-12), a, atol=1e-9)


def test_weighted_midpoint_radial_oracle():
    # a=(0.5,0), b=(-0.5,0), m_a=1, m_b=3 must match the geodesic at t=0.75,
    # evaluated here through the independent 1-D closed forms
    a, b = 0.5, -0.5
    w = radial_add(-a, b)
    expect = radial_add(a, radial_scale(0.75, abs(w)) * math.copysign(1.0, w))
    got = weighted_midpoint(np.array([a, 0.0]), np.array([b, 0.0]), 1.0, 3.0)
    assert got[0] == pytest.approx(expect, abs=1e-14)
    np.testing.assert_allclose(
        got, geodesic_point(np.array([a, 0.0]), np.array([b, 0.0]), 0.75), atol=1e-15
    )


def test_weighted_midpoint_distance_split():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = random_ball(rng, 3), random_ball(rng, 3)
        ma, mb = rng.uniform(0.2, 5.0, 2)
        m = weighted_midpoint(a, b, ma, mb)
        ratio = poincare_distance(a, m) / poincare_distance(m, b)
        assert ratio == pytest.approx(mb / ma, rel=1e-7)


def test_weighted_midpoint_rejects_bad_weights():
    a, b = np.array([0.1, 0.0]), np.array([0.2, 0.0])
    for ma, mb in [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError):
            weighted_midpoint(a, b, ma, mb)


def test_distance_radial_closed_form():
    # d(0, r) = 2 artanh r; at r=0.5 that is ln 3 = arccosh(5/3)
    d = poincare_distance(np.zeros(2), np.array([0.5, 0.0]))
    assert d == pytest.approx(math.log(3.0), abs=1e-12)
    assert d == pytest.approx(2.0 * math.atanh(0.5), abs=1e-12)
    for r in (0.1, 0.3, 0.7, 0.95):
        d = poincare_distance(np.zeros(3), np.array([r, 0.0, 0.0]))
        assert d == pytest.approx(2.0 * math.atanh(r), rel=1e-12)


def test_distance_identity_and_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = random_ball(rng, 5)
        v = random_ball(rng, 5)
        assert poincare_distance(u, u) == 0.0
        assert poincare_distance(u, v) == poincare_distance(v, u)
        assert poincare_distance(u, v) > 0.0


def test_distance_rejects_points_outside_unit_ball():
    with pytest.raises(ValueError):
        poincare_distance(np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        poincare_distance(np.zeros(2), np.array([0.8, 0.8]))


def test_clamp_norms_reports_exactly_the_rows_it_pulled_back():
    rng = np.random.default_rng(62)
    X = rng.normal(size=(400, 3))
    X *= (rng.uniform(1.0 - 1e-15, 1.0 + 1e-15, size=400) / np.linalg.norm(X, axis=1))[:, None]
    # a zero row, norm 1, norm 1 - 2^-53, and a row whose squared norm overflows
    X[:4] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0 - 2.0**-53, 0.0], [1e200, -1e200, 0.0]]
    before = X.copy()
    with np.errstate(over="ignore"):
        out, n2, over = _clamp_norms(X)
        assert np.array_equal(over, np.sqrt(np.vecdot(X, X)) >= 1.0)
    assert X.tobytes() == before.tobytes()
    assert over.tolist()[:4] == [False, True, False, True] and 0 < over.sum() < 400
    # the rows it reports, and only those, changed; the others keep their bits
    assert np.array_equal(over, np.any(out != X, axis=1))
    assert out[~over].tobytes() == X[~over].tobytes()
    # the squared norms it hands back are those of the rows it returns, bit for bit
    assert n2.tobytes() == np.vecdot(out, out).tobytes()
    assert np.all(np.sqrt(n2) < 1.0) and out[3, 0] == -out[3, 1] > 0.7


@pytest.mark.parametrize("dim", [2, 50])
def test_row_kernels_take_one_vector_as_the_row_of_a_stack_of_one(monkeypatch, dim):
    # one (d,) row with numpy-scalar norms gives bitwise the row, and the
    # norms, of the (1, d) stack: the clamp of a kept row, the origin, rows
    # at norm 1 and just beyond (pulled back), and a row whose squared norm
    # overflows; and add, scale and geodesic steps between interior points,
    # points at 1 - 1e-6, and points at the largest squared norm below 1 a
    # hair apart, whose steps the clamp pulls back
    rng = np.random.default_rng(63)
    pulled = {1: 0, 2: 0}
    real = gyroball._clamp_norms

    def clamp(X):
        out = real(X)
        pulled[X.ndim] += int(np.count_nonzero(out[2]))
        return out

    monkeypatch.setattr(gyroball, "_clamp_norms", clamp)

    def same(one, stack):
        for v, s in zip(one, stack):
            assert np.ndim(v) == np.ndim(s) - 1
            assert np.asarray(v).tobytes() == s[0].tobytes()

    u = random_ball(rng, dim, 1.0)
    u /= np.linalg.norm(u)
    with np.errstate(over="ignore"):
        for x in (0.5 * u, np.zeros(dim), np.eye(dim)[0], u * (1.0 + 1e-12), np.full(dim, 1e200)):
            same(gyroball._clamp_norms(x), gyroball._clamp_norms(x[None]))
    assert pulled[1] == pulled[2] == 3
    edge = u + 1e-15 * rng.normal(size=(400, dim))
    edge *= ((1.0 - 2.0**-53) / np.linalg.norm(edge, axis=1))[:, None]
    edge = edge[np.vecdot(edge, edge) == np.nextafter(1.0, 0.0)][:40]
    far = rng.normal(size=(20, dim))
    far *= ((1.0 - 1e-6) / np.linalg.norm(far, axis=1))[:, None]
    points = np.concatenate([[random_ball(rng, dim) for _ in range(20)], far, edge])
    n2 = np.vecdot(points, points)
    for i, j in rng.integers(0, len(points), size=(300, 2)):
        a, b, A, B = points[i], points[j], points[i : i + 1], points[j : j + 1]
        same(gyroball._add(a, b, n2[i], n2[j]), gyroball._add(A, B, n2[i : i + 1], n2[j : j + 1]))
        t = rng.uniform()
        same(gyroball._geodesic(a, b, t, 1.0 - n2[i], 1.0 - n2[j]),
             gyroball._geodesic(A, B, t, 1.0 - n2[i : i + 1], 1.0 - n2[j : j + 1]))
        r = 1.0 / rng.integers(1, 50)
        same([gyroball._scale(r, a, n2[i])], [gyroball._scale(r, A, n2[i : i + 1])])
    assert pulled[1] == pulled[2] > 3, pulled


def test_distance_accepts_every_row_the_clamp_keeps():
    # directions scaled to norm 1 - 2^-53: the clamp keeps a row whose
    # sqrt(vecdot) norm rounds below 1, and the distance must then accept it,
    # which a squared norm summed in another order can round up to 1
    rng = np.random.default_rng(61)
    X = rng.normal(size=(20000, 50))
    X *= ((1.0 - 2.0**-53) / np.linalg.norm(X, axis=1))[:, None]
    kept = X[np.all(_clamp_norms(X)[0] == X, axis=1)]
    assert kept.shape[0] > 1000
    D = pairwise_poincare_distance(kept, np.zeros((1, 50)))
    assert np.all(np.isfinite(D))


def test_pairwise_distance_matches_scalar():
    rng = np.random.default_rng(11)
    U = np.array([random_ball(rng, 4, 0.95) for _ in range(12)])
    V = np.array([random_ball(rng, 4, 0.95) for _ in range(7)])
    D = pairwise_poincare_distance(U, V)
    assert D.shape == (12, 7)
    for i in range(12):
        for j in range(7):
            assert D[i, j] == pytest.approx(poincare_distance(U[i], V[j]), rel=1e-10)


def mp_distance(u, v):
    """50-digit reference distance, taken as exact for the float inputs."""
    with mpmath.workdps(50):
        mu = [mpmath.mpf(float(x)) for x in u]
        mv = [mpmath.mpf(float(x)) for x in v]
        gap = mpmath.fsum((a - b) ** 2 for a, b in zip(mu, mv))
        du = 1 - mpmath.fsum(a * a for a in mu)
        dv = 1 - mpmath.fsum(b * b for b in mv)
        return 2 * mpmath.asinh(mpmath.sqrt(gap / (du * dv)))


def unit(coords):
    w = np.asarray(coords, dtype=np.float64)
    n = np.linalg.norm(w)
    return w / n if n > 1e-3 else np.eye(len(w))[0]


@st.composite
def near_pairs(draw):
    """Pairs with |u| up to the clamp norm 1 - 1e-7 and |u - v| from 1e-9 to 1."""
    dim = draw(st.integers(2, 6))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    u_dir, v_dir = unit(draw(coords)), unit(draw(coords))
    kind = draw(st.sampled_from(["near", "coincident", "clamped"]))
    if kind == "clamped":
        # the clamp pulls any point outside the ball in to the clamp norm
        return tuple(_clamp_norms(2.0 * np.stack([u_dir, v_dir]))[0])
    u = u_dir * (1.0 - 10.0 ** draw(st.floats(-7.0, 0.0)))
    if kind == "coincident":
        return u, u.copy()
    v = u + 10.0 ** draw(st.floats(-9.0, 0.0)) * v_dir
    norm = np.linalg.norm(v)
    if norm > MAX_NORM:
        v *= MAX_NORM / norm
    return u, v


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_pairs())
def test_distance_matches_high_precision_oracle(pair):
    u, v = pair
    got = float(pairwise_poincare_distance(u, v)[0, 0])
    assert got == poincare_distance(u, v)
    assert pairwise_squared_distance([u, v], [u, v])[0, 0] == 0.0
    if np.array_equal(u, v):
        assert got == 0.0
        return
    # Rounding |u|^2 costs about (dim + 1) ulps of 1, so 1 - |u|^2 carries a
    # relative error of about (dim + 1) eps / (1 - |u|^2), and the same for v.
    # Those two dominate near the boundary; |u - v|^2 from differences, the
    # division, sqrt and asinh add only O(dim) eps, and the map from the asinh
    # argument to d halves relative errors. 4 (dim + 2) covers the sum.
    eps = np.finfo(np.float64).eps
    c = 4.0 * (len(u) + 2)
    slack = min(1.0 - float(u @ u), 1.0 - float(v @ v))
    ref = mp_distance(u, v)
    assert abs(got - float(ref)) <= c * eps / slack * float(ref)


def test_squared_distance_exact_zero_symmetry_and_chunking(monkeypatch):
    rng = np.random.default_rng(14)
    U = np.array([random_ball(rng, 7, 0.999) for _ in range(40)])
    S = pairwise_squared_distance(U, U)
    assert np.all(np.diag(S) == 0.0)
    assert np.array_equal(S, S.T)
    D = pairwise_poincare_distance(U, U)
    assert np.all(np.diag(D) == 0.0)
    assert np.array_equal(D, D.T)
    # a budget below one row's block evaluates row by row, to the same bits
    monkeypatch.setattr(gyroball, "CHUNK_BYTES", 8)
    assert np.array_equal(pairwise_squared_distance(U, U), S)
    assert np.array_equal(pairwise_poincare_distance(U, U), D)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 40])
def test_squared_distance_one_triangle_is_the_full_matrix(monkeypatch, n):
    # V is U sums one triangle and mirrors it; a copy of U takes every entry
    rng = np.random.default_rng(15 + n)
    U = np.array([random_ball(rng, 5, 0.999) for _ in range(n)])
    # 3 rows of 40 columns per chunk: 40 rows end in a part-filled chunk
    for budget in (gyroball.CHUNK_BYTES, 3 * 40 * 5 * 8, 8):
        monkeypatch.setattr(gyroball, "CHUNK_BYTES", budget)
        S = pairwise_squared_distance(U, U)
        assert S.tobytes() == pairwise_squared_distance(U, U.copy()).tobytes()
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 0.0)
        D = pairwise_poincare_distance(U, U)
        assert D.tobytes() == pairwise_poincare_distance(U, U.copy()).tobytes()


def test_gyrotranslation_isometry():
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = random_ball(rng, 4)
        u = random_ball(rng, 4)
        v = random_ball(rng, 4)
        d0 = poincare_distance(u, v)
        d1 = poincare_distance(mobius_add(g, u), mobius_add(g, v))
        assert d1 == pytest.approx(d0, rel=1e-7)


def test_outputs_stay_inside_ball():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_ball(rng, 3, 0.99)
        b = random_ball(rng, 3, 0.99)
        r = rng.uniform(-20, 20)
        for out in (mobius_add(a, b), mobius_scale(r, a), midpoint(a, b)):
            assert np.linalg.norm(out) < 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: geodesic_point(a, b, 0.5),
        lambda a, b: geodesic_point(a, b, 0.0),
        lambda a, b: geodesic_point(b, a, 1.0),
    ],
)
def test_geodesic_point_rejects_points_outside_ball(call):
    # [0, 1] has squared norm 1: the three Mobius operations make
    # [2.2e-7, 0.99925] of its t = 1/2 point, which is no midpoint at all
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        call(np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        call(np.array([1.5, 0.0]), np.array([0.0, 0.5]))


def test_midpoint_rejects_points_outside_ball():
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        midpoint(np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        midpoint(np.array([0.0, -2.0]), np.array([0.1, 0.0]))


def test_weighted_midpoint_rejects_points_outside_ball():
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        weighted_midpoint(np.array([0.5, 0.0]), np.array([0.0, 1.0]), 1.0, 3.0)
    with pytest.raises(ValueError, match="strictly inside the unit ball"):
        weighted_midpoint(np.array([1.0, 0.0]), np.array([0.2, 0.0]), 2.0, 1.0)


def test_mobius_scale_rejects_points_outside_ball():
    # [0.6, 0.8] has squared norm 1 to rounding; artanh is undefined there
    for x in ([1.0, 0.0], [0.6, 0.8], [3.0, -4.0]):
        with pytest.raises(ValueError, match="strictly inside the unit ball"):
            mobius_scale(0.5, np.array(x))


def test_mobius_add_rejects_points_outside_ball():
    # [1.5, 0] (+) [0.1, 0] used to come back clamped to [1 - 1e-7, 0]
    for a, b in (([1.5, 0.0], [0.1, 0.0]), ([0.1, 0.0], [0.6, 0.8]), ([0.0, 1.0], [0.0, 0.0])):
        with pytest.raises(ValueError, match="strictly inside the unit ball"):
            mobius_add(np.array(a), np.array(b))


def mp_add(x, y):
    xy = mpmath.fsum(p * q for p, q in zip(x, y))
    x2 = mpmath.fsum(p * p for p in x)
    y2 = mpmath.fsum(q * q for q in y)
    den = 1 + 2 * xy + x2 * y2
    return [((1 + 2 * xy + y2) * p + (1 - x2) * q) / den for p, q in zip(x, y)]


def mp_geodesic_exact(a, b, t):
    """a (+) ((-a (+) b) (*) t), the definition itself, on mpmath vectors.

    Call it at 50 digits. Its cancellations cost about log10(1 / |b - a|)
    digits for nearby points and 2 log10(1 / (1 - |a|^2)) for far points
    near the boundary, at most 14 on the inputs below, so over 30 are left.
    """
    w = mp_add([-p for p in a], b)
    n = mpmath.sqrt(mpmath.fsum(p * p for p in w))
    if n == 0:
        return list(a)
    k = mpmath.tanh(mpmath.mpf(float(t)) * mpmath.atanh(n)) / n
    return mp_add(a, [k * p for p in w])


def mp_vector(x):
    return [mpmath.mpf(float(v)) for v in x]


def as_float(x):
    return np.array([float(v) for v in x])


def mp_geodesic(a, b, t):
    """50-digit geodesic point of float vectors, taken as exact for them."""
    with mpmath.workdps(50):
        return as_float(mp_geodesic_exact(mp_vector(a), mp_vector(b), t))


def geodesic_error_bound(a, b, t, m):
    """Error allowed to the float t-point of a and b, whose exact value is m.

    Forming the result from a, b - a and a few dozen correctly rounded
    row operations costs a few ulps of max(|a|, |b|) < 1. The step is ill
    conditioned only through 1 - |a|^2 and 1 - |b|^2: a squared norm summed
    in float64 is off by up to dim ulps, so c = 1 - |x|^2 carries a relative
    error of about (dim + 1) eps / c. That error acts like moving the
    endpoint by a hyperbolic distance of the same size; geodesic points in
    the hyperbolic plane move by at most (1 - t) and t times the moves of
    their endpoints, and a hyperbolic move delta at m is a Euclidean move
    of (1 - |m|^2) delta / 2. 4 (dim + 2) covers both terms, as in the
    distance oracle test.
    """
    eps = np.finfo(np.float64).eps
    c_a = 1.0 - float(a @ a)
    c_b = 1.0 - float(b @ b)
    cond = (1.0 - float(m @ m)) * ((1.0 - t) / c_a + t / c_b)
    return 4.0 * (len(a) + 2) * eps * (1.0 + cond)


def orthogonal_unit(u, coords):
    """A unit vector orthogonal to the unit vector u, from drawn coordinates."""
    w = np.asarray(coords, dtype=np.float64)
    w = w - (w @ u) * u
    if np.linalg.norm(w) <= 1e-3:
        # the axis u leans on least is at least 45 degrees off u
        w = np.eye(len(u))[np.argmin(np.abs(u))]
        w = w - (w @ u) * u
    return w / np.linalg.norm(w)


@st.composite
def nearby_boundary_pairs(draw):
    """a at norm 1 - 10^-2 .. 1 - 10^-7 and b within 10^-9 .. 10^-3 of it."""
    dim = draw(st.integers(2, 6))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    a = unit(draw(coords)) * (1.0 - 10.0 ** draw(st.floats(-7.0, -2.0)))
    b = a + 10.0 ** draw(st.floats(-9.0, -3.0)) * unit(draw(coords))
    norm = np.linalg.norm(b)
    if norm > MAX_NORM:
        b *= MAX_NORM / norm
    return a, b, draw(st.floats(0.0, 1.0))


@st.composite
def far_boundary_pairs(draw):
    """a and b at norms 1 - 10^-4 .. 1 - 10^-7, at least 45 degrees apart,
    so d(a, b) > 2 artanh(MAX_NORM) = 16.8, the length at which the
    three-operation step, whose Mobius scaling caps artanh at MAX_NORM,
    goes wrong."""
    dim = draw(st.integers(2, 6))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    u = unit(draw(coords))
    angle = draw(st.floats(math.pi / 4, math.pi))
    v = math.cos(angle) * u + math.sin(angle) * orthogonal_unit(u, draw(coords))
    gaps = st.floats(-7.0, -4.0)
    a = u * (1.0 - 10.0 ** draw(gaps))
    b = v * (1.0 - 10.0 ** draw(gaps))
    return a, b, draw(st.floats(0.0, 1.0))


def check_geodesic_point(a, b, t):
    got = geodesic_point(a, b, t)
    ref = mp_geodesic(a, b, t)
    assert np.linalg.norm(got - ref) <= geodesic_error_bound(a, b, t, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nearby_boundary_pairs())
def test_geodesic_point_matches_oracle_for_nearby_boundary_pairs(case):
    # (-a) (+) b cancels here: composing the three Mobius operations at
    # |a| = 1 - 1e-6 with |b - a| = 1e-9 gives steps off by 17%
    check_geodesic_point(*case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(far_boundary_pairs())
def test_geodesic_point_matches_oracle_for_far_boundary_pairs(case):
    a, b, t = case
    assert poincare_distance(a, b) > 2.0 * math.atanh(MAX_NORM)
    # the three-operation midpoints of such pairs are off by 0.35 to 0.70
    check_geodesic_point(a, b, t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(nearby_boundary_pairs(), far_boundary_pairs()), st.floats(0.1, 10.0))
def test_weighted_midpoint_matches_oracle_for_boundary_pairs(case, m_a):
    a, b, _ = case
    m_b = 1.0
    t = m_b / (m_a + m_b)
    got = weighted_midpoint(a, b, m_a, m_b)
    ref = mp_geodesic(a, b, t)
    assert np.linalg.norm(got - ref) <= geodesic_error_bound(a, b, t, ref)


def mp_scale(r, x):
    """50-digit r (*) x of a float vector, taken as exact for it."""
    with mpmath.workdps(50):
        mx = mp_vector(x)
        n = mpmath.sqrt(mpmath.fsum(p * p for p in mx))
        if n == 0:
            return np.zeros(len(x))
        k = mpmath.tanh(mpmath.mpf(float(r)) * mpmath.atanh(n)) / n
        return as_float([k * p for p in mx])


def check_mobius_scale(r, x):
    """mobius_scale against the oracle, within the error its rounding allows.

    |x|^2 summed in float64 is off by up to dim ulps, and its sqrt by half
    an ulp more, so |x| carries a relative error of about (dim / 2 + 1) eps.
    artanh has slope 1 / (1 - |x|^2) = 1 / c, and r times it goes through
    tanh, whose slope at the result norm m is 1 - m^2: the norm is off by
    about (1 - m^2) |r| (dim / 2 + 3) eps / c, the last term counting
    artanh <= |x| / c and the roundings of artanh and the product. Forming
    the vector from x adds a few ulps of m. 4 (dim + 2) covers both terms,
    as in the distance and geodesic oracle tests.
    """
    got = mobius_scale(r, x)
    ref = mp_scale(r, x)
    eps = np.finfo(np.float64).eps
    c = 1.0 - float(x @ x)
    m = float(np.linalg.norm(ref))
    assert np.linalg.norm(got - ref) <= 4.0 * (len(x) + 2) * eps * (1.0 + (1.0 - m * m) * abs(r) / c)


@st.composite
def ball_points(draw):
    """x at norm 1 - 10^g for g in [-12, 0], the origin included."""
    dim = draw(st.integers(2, 6))
    coords = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    return unit(coords) * (1.0 - 10.0 ** draw(st.floats(-12.0, 0.0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ball_points(), st.floats(-1.0, 1.0))
def test_mobius_scale_matches_oracle_up_to_the_boundary(x, r):
    # |r| <= 1 keeps the exact result within |x| of the origin, so no clamp
    # applies. Taking artanh at no more than MAX_NORM would put 0.5 (*) x at
    # norm 0.99955289 for |x| = 1 - 1e-9, where the oracle gives 0.99995528
    check_mobius_scale(r, x)


def test_mobius_scale_at_the_largest_squared_norm_below_one():
    # the squared norm of x is the largest double below 1, whose correctly
    # rounded sqrt is 1 - 2^-53 < 1: artanh(|x|) stays finite, and pytest
    # turns any floating-point warning into a failure
    x = np.array([1.0 - 2.0**-52, 1.825511988460775e-08])
    assert np.vecdot(x, x) == np.nextafter(1.0, 0.0)
    for r in (0.5, 0.25, 1e-3, -0.5):
        check_mobius_scale(r, x)
    assert np.array_equal(mobius_scale(0.0, x), [0.0, 0.0])


def mp_fold(points):
    """lcf by exact steps, with the error its float evaluation is allowed.

    Every float step starts from inputs that carry the errors of earlier
    steps. Since d(gamma(t), gamma'(t)) <= (1 - t) d(a, a') + t d(b, b') in
    the hyperbolic plane, a step passes on at most the larger hyperbolic
    error of its inputs and adds its own, 2 geodesic_error_bound / (1 - |m|^2)
    at its exact result m. So the hyperbolic errors add up over the steps.
    Returns the exact result (on mpmath vectors) and that sum.
    """
    acc, budget = points[0], 0.0
    for k in range(1, len(points)):
        acc, spent = mp_step(acc, points[k], 1.0 / (k + 1))
        budget += spent
    return acc, budget


def mp_tree(points):
    """fnw by exact steps; the error budget as in mp_fold, summed over nodes."""
    n = len(points)
    if n == 1:
        return points[0], 0.0
    half = n // 2
    left, b_left = mp_tree(points[:half])
    right, b_right = mp_tree(points[half:])
    m, spent = mp_step(left, right, (n - half) / n)
    return m, b_left + b_right + spent


def mp_step(a, b, t):
    m = mp_geodesic_exact(a, b, t)
    a, b, m_f = as_float(a), as_float(b), as_float(m)
    return m, 2.0 * geodesic_error_bound(a, b, t, m_f) / (1.0 - float(m_f @ m_f))


@pytest.mark.parametrize("method, oracle", [("lcf", mp_fold), ("fnw", mp_tree)])
def test_boundary_composition_matches_oracle(method, oracle):
    # words near the boundary, some far apart and some in a tight cluster:
    # the three-operation steps between far points are off by up to 0.7
    rng = np.random.default_rng(62)
    dirs = rng.normal(size=(9, 5))
    dirs[5:] = dirs[4] + 1e-6 * rng.normal(size=(4, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = dirs * (1.0 - 10.0 ** rng.uniform(-7.0, -4.0, size=(9, 1)))
    for seq in (points, points[::-1], points[2:7]):
        with mpmath.workdps(50):
            exact, budget = oracle([mp_vector(p) for p in seq])
        ref = as_float(exact)
        got = compose(method, seq)
        assert np.linalg.norm(got - ref) <= (1.0 - float(ref @ ref)) / 2.0 * budget
