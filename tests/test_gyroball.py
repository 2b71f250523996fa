import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotext import gyroball
from gyrotext.gyroball import (
    MAX_NORM,
    _clamp,
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
        return _clamp((2.0 * u_dir)[None])[0], _clamp((2.0 * v_dir)[None])[0]
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
