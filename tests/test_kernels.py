import math
from pathlib import Path

import numpy as np
import pytest

from gyrotext.classify import svm_train_smo
from gyrotext.gyroball import pairwise_poincare_distance, pairwise_squared_distance, poincare_distance
from gyrotext.kernels import (
    PSD_TOL,
    GramMatrix,
    KernelSpec,
    check_gram,
    cross_kernel,
    gram_matrix,
    psd_check,
)

DATA = Path(__file__).parent / "data"


def pair_kernel(u, v, spec):
    """The kernel on a single pair, through the row-wise entry point."""
    return float(cross_kernel([u], [v], spec)[0, 0])


def scalar_kernel(u, v, spec):
    """Per-pair reference: the arccosh distance form and plain dot products."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if spec.kind == "geodesic":
        gap = float(np.dot(u - v, u - v))
        arg = 1.0 + 2.0 * gap / ((1.0 - float(np.dot(u, u))) * (1.0 - float(np.dot(v, v))))
        return math.exp(-spec.lam * math.acosh(arg) ** spec.q)
    if spec.kind == "euclidean_rbf":
        return math.exp(-spec.lam * float(np.dot(u - v, u - v)))
    return float(np.dot(u, v))


def random_points(rng, n, dim, max_norm=0.9):
    u = rng.normal(size=(n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(0.0, max_norm, size=(n, 1))


def test_kernel_spec_validation():
    KernelSpec("geodesic", lam=2.0, q=2.0)
    with pytest.raises(ValueError):
        KernelSpec("polynomial")
    with pytest.raises(ValueError):
        KernelSpec("geodesic", lam=0.0)
    with pytest.raises(ValueError):
        KernelSpec("geodesic", q=0.0)
    with pytest.raises(ValueError):
        KernelSpec("geodesic", lam=math.nan)


def test_kernel_spec_refuses_a_setting_its_kind_ignores():
    # q is read only by the geodesic kernel and lambda by all but linear;
    # a setting with no effect would still be written into the row key
    with pytest.raises(ValueError, match=r"q applies only to the geodesic kernel, got q=3\.0 for 'linear'"):
        KernelSpec("linear", q=3)
    with pytest.raises(ValueError, match="q applies only to the geodesic kernel"):
        KernelSpec("euclidean_rbf", lam=2.0, q=2.0)
    with pytest.raises(ValueError, match=r"lambda does not apply to the linear kernel, got lambda=2\.0"):
        KernelSpec("linear", lam=2.0)
    # the defaults stay accepted, whatever their number type
    assert KernelSpec("linear", lam=1, q=1) == KernelSpec("linear")
    assert KernelSpec("euclidean_rbf", lam=2.0, q=1).q == 1.0


def test_geodesic_kernel_self_similarity():
    rng = np.random.default_rng(20)
    x = random_points(rng, 1, 4)[0]
    assert pair_kernel(x, x, KernelSpec("geodesic", lam=1.0, q=1.0)) == 1.0


def test_geodesic_kernel_known_distance():
    # d(0, (0.5, 0)) = ln 3, so the q=1 kernel is exp(-ln 3) = 1/3
    o = np.zeros(2)
    x = np.array([0.5, 0.0])
    assert pair_kernel(o, x, KernelSpec("geodesic", lam=1.0, q=1.0)) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )
    # squared-distance variant at the same pair
    assert pair_kernel(o, x, KernelSpec("geodesic", lam=1.0, q=2.0)) == pytest.approx(
        math.exp(-math.log(3.0) ** 2), rel=1e-12
    )


def test_geodesic_kernel_matches_distance_formula():
    rng = np.random.default_rng(21)
    pts = random_points(rng, 20, 3)
    for lam in (0.5, 1.0, 2.0):
        for q in (1.0, 2.0):
            for i in range(0, 20, 3):
                u, v = pts[i], pts[(i + 7) % 20]
                expect = math.exp(-lam * poincare_distance(u, v) ** q)
                got = pair_kernel(u, v, KernelSpec("geodesic", lam=lam, q=q))
                assert got == pytest.approx(expect, rel=1e-14)


def test_kernel_value_dispatch():
    u = np.array([0.3, 0.0])
    v = np.array([0.0, 0.4])
    assert pair_kernel(u, v, KernelSpec("geodesic", lam=1.0, q=1.0)) == pytest.approx(
        math.exp(-poincare_distance(u, v))
    )
    assert pair_kernel(u, v, KernelSpec("euclidean_rbf", lam=2.0)) == pytest.approx(
        math.exp(-2.0 * 0.25)
    )
    assert pair_kernel(u, v, KernelSpec("linear")) == pytest.approx(0.0, abs=0)


def test_kernel_bounds():
    rng = np.random.default_rng(22)
    pts = random_points(rng, 30, 4)
    spec = KernelSpec("geodesic", lam=1.0, q=1.0)
    g = gram_matrix(pts, spec).entries
    assert np.all(g > 0.0) and np.all(g <= 1.0)
    lin = gram_matrix(pts, KernelSpec("linear")).entries
    assert np.all(np.abs(lin) < 1.0)


def test_gram_matrix_examples():
    x = np.array([[0.3, 0.4]])
    g = gram_matrix(x, KernelSpec("geodesic")).entries
    assert np.array_equal(g, [[1.0]])
    dup = np.array([[0.2, 0.1], [0.2, 0.1]])
    g2 = gram_matrix(dup, KernelSpec("geodesic")).entries
    assert np.array_equal(g2, np.ones((2, 2)))
    ortho = np.array([[0.5, 0.0], [0.0, 0.5]])
    g3 = gram_matrix(ortho, KernelSpec("linear")).entries
    np.testing.assert_allclose(g3, [[0.25, 0.0], [0.0, 0.25]], atol=0)


def test_gram_matrix_exact_symmetry():
    rng = np.random.default_rng(23)
    pts = random_points(rng, 25, 5)
    g = gram_matrix(pts, KernelSpec("geodesic", lam=0.7, q=1.0)).entries
    assert np.array_equal(g, g.T)
    assert np.all(np.diag(g) == 1.0)


def test_cross_kernel_matches_scalar():
    rng = np.random.default_rng(24)
    P = random_points(rng, 6, 3)
    Q = random_points(rng, 4, 3)
    for spec in (
        KernelSpec("geodesic", lam=1.3, q=1.0),
        KernelSpec("geodesic", lam=0.5, q=2.0),
        KernelSpec("euclidean_rbf", lam=1.0),
        KernelSpec("linear"),
    ):
        got = cross_kernel(Q, P, spec)
        assert got.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert got[i, j] == pytest.approx(
                    scalar_kernel(Q[i], P[j], spec), rel=1e-12, abs=1e-15
                )


def test_cross_kernel_consistent_with_gram():
    rng = np.random.default_rng(25)
    P = random_points(rng, 8, 3)
    spec = KernelSpec("geodesic", lam=1.0, q=1.0)
    np.testing.assert_allclose(
        cross_kernel(P, P, spec), gram_matrix(P, spec).entries, atol=1e-12
    )


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(ValueError):
        GramMatrix(np.ones((2, 3)))


def min_eig(matrix):
    return psd_check(matrix).min_eigenvalue


def test_psd_check_small_examples():
    assert min_eig(np.eye(3)) == 1.0
    assert min_eig(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert min_eig(m) == pytest.approx(1.0, abs=1e-12)
    # below each block's subdiagonal entry the column is zero: no reflection
    blocks = np.kron(np.eye(3), [[1.0, 0.5], [0.5, 1.0]])
    assert min_eig(blocks) == pytest.approx(0.5, abs=1e-14)


def test_psd_check_matches_reference_solver():
    # odd and even n, 60 being the benchmark's size; each matrix and its
    # negation, so that one of them has a trace <= 0
    rng = np.random.default_rng(26)
    for n in (2, 3, 8, 20, 59, 60, 61):
        a = rng.normal(size=(n, n))
        for sym in ((a + a.T) / 2.0, -(a + a.T) / 2.0):
            expect = np.linalg.eigvalsh(sym)[0]
            assert min_eig(sym) == pytest.approx(expect, abs=1e-10 * max(1.0, np.abs(sym).sum()))


def test_psd_check_accepts_gram_and_rejects_asymmetry():
    rng = np.random.default_rng(27)
    pts = random_points(rng, 10, 3)
    gm = gram_matrix(pts, KernelSpec("geodesic"))
    assert min_eig(gm) == pytest.approx(np.linalg.eigvalsh(gm.entries)[0], abs=1e-10)
    with pytest.raises(ValueError):
        psd_check(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_psd_check_diagonal_input_gives_its_minimum_bitwise():
    # no column needs a reflection, and bisection stops at adjacent floats
    # around the smallest diagonal entry, so the upper one is that entry
    rng = np.random.default_rng(46)
    for _ in range(20):
        diag = rng.uniform(0.5, 1.5, size=60)
        assert min_eig(np.diag(diag)) == diag.min()
    for lone in (2.5, -2.0, 0.0, 1e-300, -7e-310):
        assert min_eig([[lone]]) == lone


def reference_gap(matrix):
    """|psd_check's minimum - eigvalsh's| in units of max(1, trace / n)."""
    a = check_gram(matrix)
    scale = max(1.0, float(np.trace(a)) / a.shape[0])
    return abs(min_eig(a) - np.linalg.eigvalsh(a)[0]) / scale


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_psd_check_matches_reference_near_the_boundary(q):
    # 60 points in d = 50 at norms 1 - 10^-u, u in [1, 7], where hyperbolic
    # embeddings put specific words
    rng = np.random.default_rng(47)
    for _ in range(10):
        u = rng.normal(size=(60, 50))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = u * (1.0 - 10.0 ** -rng.uniform(1.0, 7.0, size=(60, 1)))
        assert reference_gap(gram_matrix(pts, KernelSpec("geodesic", lam=0.05, q=q))) < 1e-13


def test_psd_check_scales_each_householder_column():
    # every entry below the diagonal squares to 1e-340, below the smallest
    # float: unscaled, v @ v underflows to 0 and the reflector divides by it
    a = np.full((6, 6), 1e-170)
    np.fill_diagonal(a, 1.0)
    assert reference_gap(a) < 1e-15
    assert reference_gap(np.diag([1.0, 2.0, 3.0]) + np.full((3, 3), 1e-170)) < 1e-15


def test_psd_check_is_exact_under_power_of_two_scaling():
    # a matrix's entries near 1e180 would square past the largest float, and
    # near 1e-180 below the smallest; scaled by a power of two the smallest
    # eigenvalue scales exactly
    m = np.array([[1.0, 2.0], [2.0, 5.0]])
    rng = np.random.default_rng(50)
    a = rng.normal(size=(20, 20))
    for base in (m, (a + a.T) / 2.0):
        want = min_eig(base)
        for exponent in (600, -600):
            assert min_eig(np.ldexp(base, exponent)) == math.ldexp(want, exponent)
    assert psd_check(1e200 * m).passed
    assert min_eig(1e200 * m) == pytest.approx(np.linalg.eigvalsh(1e200 * m)[0], rel=1e-14)


def test_psd_check_block_diagonal_gram():
    # a linear Gram of points in orthogonal coordinate blocks is block
    # diagonal: at each block's last column nothing is left below the
    # diagonal, so no reflection is formed there
    rng = np.random.default_rng(48)
    pts = np.zeros((12, 9))
    for block in range(3):
        pts[4 * block : 4 * block + 4, 3 * block : 3 * block + 3] = rng.uniform(-0.5, 0.5, size=(4, 3))
    gram = gram_matrix(pts, KernelSpec("linear"))
    assert np.count_nonzero(gram.entries) == 3 * 16
    assert reference_gap(gram) < 1e-15
    assert reference_gap(gram.entries - 0.1 * np.eye(12)) < 1e-15


def test_psd_check_one_and_two_points():
    rng = np.random.default_rng(49)
    for _ in range(20):
        x, y, z = rng.normal(size=3)
        assert min_eig([[x]]) == x
        assert reference_gap([[x, y], [y, z]]) < 1e-15


def test_square_matrix_rule_is_one_for_every_entry_point():
    # a linear Gram with entries up to 252: its symmetry tolerance is
    # 1e-12 * 252, so 1e-11 off passes everywhere and 1e-9 off fails
    # everywhere; with entries <= 1 the tolerance is 1e-12 itself
    X = np.array(
        [[14, 6, 4, 2], [1, 0, 2, 1], [0, 3, 1, 0], [2, 1, 0, 1], [1, 1, 1, 1], [0, 0, 3, 2]],
        dtype=np.float64,
    )
    linear = X @ X.T
    assert linear.max() == 252.0
    small = np.exp(-pairwise_poincare_distance(X / 20.0, X / 20.0))
    labels = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def shifted(base, off):
        m = base.copy()
        m[0, 1] += off
        return m

    # an empty matrix is rejected by the same rule, not by a numpy reduction
    for m, ok, reason in [
        (shifted(linear, 1e-11), True, "asymmetric"),
        (shifted(linear, 1e-9), False, "asymmetric"),
        (shifted(small, 5e-13), True, "asymmetric"),
        (shifted(small, 1e-11), False, "asymmetric"),
        (np.empty((0, 0)), False, "Gram matrix must be square and non-empty"),
    ]:
        verdicts = []
        for entry in (lambda a: svm_train_smo(a, labels), psd_check, GramMatrix):
            try:
                entry(m)
                verdicts.append(True)
            except ValueError as exc:
                assert reason in str(exc)
                verdicts.append(False)
        assert verdicts == [ok] * 3, (m.shape, reason, verdicts)


def previous_check_gram(matrix):
    """The square-matrix rule as it read with n x n float scratch: the
    message it raises, or None."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        return f"Gram matrix must be square and non-empty, got shape {a.shape}"
    if not np.all(np.isfinite(a)):
        return "Gram matrix contains non-finite entries"
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, float(np.abs(a).max())):
        return "Gram matrix is asymmetric beyond tolerance"
    return None


def test_check_gram_keeps_its_verdicts_and_messages():
    rng = np.random.default_rng(51)
    base = gram_matrix(random_points(rng, 7, 3), KernelSpec("geodesic")).entries
    cases = {"symmetric": base, "empty": np.empty((0, 0)), "wide": np.ones((2, 3))}
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((2, 5), (3, 3)):
            m = base.copy()
            m[i, j] = bad
            cases[f"{bad} at {i},{j}"] = m
    # the tolerance is 1e-12 max(1, max|entry|): entries up to 1 here, up to
    # 300 in size (from the largest entry), and up to 300 from the most
    # negative entry
    for scale, sign in ((1.0, 1.0), (300.0, 1.0), (300.0, -1.0)):
        m = sign * scale * base
        tol = 1e-12 * max(1.0, float(np.abs(m).max()))
        for factor in (0.5, 0.99, 1.01, 2.0):
            shifted = m.copy()
            shifted[1, 4] += factor * tol
            cases[f"{sign * scale} off by {factor} tol"] = shifted
    flipped = np.eye(3)
    flipped[0, 1], flipped[1, 0] = 0.0, -0.0
    cases["signed zeros"] = flipped
    for name, m in cases.items():
        want = previous_check_gram(m)
        for entry in (check_gram, lambda a: check_gram(GramMatrix(a))):
            if want is None:
                assert entry(m).tobytes() == np.asarray(m, dtype=np.float64).tobytes(), name
            else:
                with pytest.raises(ValueError) as caught:
                    entry(m)
                assert str(caught.value) == want, name
    assert [name for name, m in cases.items() if previous_check_gram(m) is None] == [
        "symmetric", "1.0 off by 0.5 tol", "1.0 off by 0.99 tol", "300.0 off by 0.5 tol",
        "300.0 off by 0.99 tol", "-300.0 off by 0.5 tol", "-300.0 off by 0.99 tol", "signed zeros",
    ]


def test_exp_kernels_are_bitwise_the_previous_expressions():
    # cross_kernel and the harness's shared rows compute exp(-lambda m^q)
    # in place; it is bitwise the out-of-place expression it replaced
    rng = np.random.default_rng(52)
    Q, P = random_points(rng, 9, 4), random_points(rng, 13, 4)
    d, s = pairwise_poincare_distance(Q, P), pairwise_squared_distance(Q, P)
    for lam, q in ((1.0, 1.0), (0.25, 2.0), (0.7, 0.5), (2.0, 3.0)):
        got = cross_kernel(Q, P, KernelSpec("geodesic", lam=lam, q=q))
        assert got.tobytes() == np.exp(-lam * d**q).tobytes(), (lam, q)
    got = cross_kernel(Q, P, KernelSpec("euclidean_rbf", lam=0.6))
    assert got.tobytes() == np.exp(-0.6 * s).tobytes()


def test_gram_matrix_holds_the_float64_array_it_checked():
    # built from nested lists or an int array, a GramMatrix trains and
    # checks bitwise as the float64 array does
    ints = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    for source, labels in [
        ([[1.0, 0.2], [0.2, 1.0]], [1, -1]),
        (ints, [1, -1, 1]),
        (np.array(ints), [1, -1, 1]),
    ]:
        plain = np.array(source, dtype=np.float64)
        gram = GramMatrix(source)
        assert gram.entries.dtype == np.float64
        assert gram.entries.tobytes() == plain.tobytes()
        # checked once, when it was built: the rule returns the same array
        assert check_gram(gram) is gram.entries
        assert psd_check(gram) == psd_check(plain)
        got, want = svm_train_smo(gram, labels), svm_train_smo(plain, labels)
        assert got.alphas.tobytes() == want.alphas.tobytes() and got.bias == want.bias


def test_psd_tolerance_is_the_module_constant():
    # with trace / n <= 1 the threshold is -PSD_TOL itself
    assert PSD_TOL == 1e-8
    assert psd_check(np.diag([1.0, -0.5 * PSD_TOL])).passed
    assert not psd_check(np.diag([1.0, -2.0 * PSD_TOL])).passed


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigen_entry_points_reject_non_finite(bad):
    # an inf pair would warn in the symmetry test, a NaN one pass it
    m = np.eye(4)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        psd_check(m)


def test_psd_check_verdicts():
    ok = psd_check(np.eye(4))
    assert ok.passed and ok.min_eigenvalue == pytest.approx(1.0)
    bad = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not bad.passed
    assert bad.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    lone = psd_check([[-2.0]])
    assert not lone.passed and lone.min_eigenvalue == -2.0


def test_laplacian_gram_is_psd():
    rng = np.random.default_rng(28)
    pts = random_points(rng, 20, 4, max_norm=0.95)
    report = psd_check(gram_matrix(pts, KernelSpec("geodesic", lam=1.0, q=1.0)))
    assert report.passed


def test_frozen_gaussian_counterexample():
    pts = np.loadtxt(DATA / "gaussian_nonpsd_points.txt")
    gram = gram_matrix(pts, KernelSpec("geodesic", lam=0.25, q=2.0))
    report = psd_check(gram)
    assert not report.passed
    assert report.min_eigenvalue < -1e-6
    # independent route: numpy's solver on the same matrix agrees
    assert np.linalg.eigvalsh(gram.entries)[0] == pytest.approx(
        report.min_eigenvalue, rel=1e-6
    )
    # the q=1 kernel on the very same points stays positive semidefinite
    lap = gram_matrix(pts, KernelSpec("geodesic", lam=0.25, q=1.0))
    assert psd_check(lap).passed


def test_pairwise_distance_feeds_kernel():
    rng = np.random.default_rng(29)
    pts = random_points(rng, 12, 3)
    d = pairwise_poincare_distance(pts, pts)
    g = gram_matrix(pts, KernelSpec("geodesic", lam=0.8, q=1.0)).entries
    np.testing.assert_allclose(g, np.exp(-0.8 * d), atol=1e-12)
