import math
from pathlib import Path

import numpy as np
import pytest

from gyrotext import kernels
from gyrotext.classify import svm_train_smo
from gyrotext.gyroball import pairwise_poincare_distance, poincare_distance
from gyrotext.kernels import (
    GramMatrix,
    KernelSpec,
    cross_kernel,
    gram_matrix,
    jacobi_eigenvalues,
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
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), KernelSpec("geodesic"))
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]), KernelSpec("geodesic"))
    with pytest.raises(ValueError):
        GramMatrix(np.ones((2, 3)), KernelSpec("geodesic"))


def test_jacobi_small_examples():
    np.testing.assert_allclose(jacobi_eigenvalues(np.eye(3)), np.ones(3), atol=0)
    ones = np.ones((2, 2))
    np.testing.assert_allclose(jacobi_eigenvalues(ones), [0.0, 2.0], atol=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(jacobi_eigenvalues(m), [1.0, 3.0], atol=1e-12)
    # pairs across the 2x2 blocks have a[p, q] = 0 and a[p, p] = a[q, q]
    blocks = np.kron(np.eye(3), [[1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(jacobi_eigenvalues(blocks), [0.5] * 3 + [1.5] * 3, atol=1e-14)


def test_jacobi_matches_reference_solver(monkeypatch):
    # odd n leaves one index out of each round; 60 is the benchmark's size.
    # Of each matrix and its negation one has a trace <= 0, so its threshold
    # is 0 and only an exactly zero off-diagonal stops the sweeps
    sweeps = []
    sweep = kernels._jacobi_sweep
    monkeypatch.setattr(kernels, "_jacobi_sweep", lambda a: (sweeps.append(1), sweep(a)))
    rng = np.random.default_rng(26)
    for n in (2, 3, 8, 20, 59, 60, 61):
        a = rng.normal(size=(n, n))
        for sym in ((a + a.T) / 2.0, -(a + a.T) / 2.0):
            sweeps.clear()
            got = jacobi_eigenvalues(sym)
            expect = np.linalg.eigvalsh(sym)
            np.testing.assert_allclose(got, expect, atol=1e-10 * max(1.0, np.abs(sym).sum()))
            assert len(sweeps) < kernels.MAX_SWEEPS


def test_jacobi_accepts_gram_and_rejects_asymmetry():
    rng = np.random.default_rng(27)
    pts = random_points(rng, 10, 3)
    gm = gram_matrix(pts, KernelSpec("geodesic"))
    np.testing.assert_allclose(
        jacobi_eigenvalues(gm), np.linalg.eigvalsh(gm.entries), atol=1e-10
    )
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_jacobi_diagonal_input_takes_zero_sweeps(monkeypatch):
    # non-integer entries make sum(a^2) - sum(diag(a)^2) round to a nonzero
    # floor far above 1e-12 * trace; the exact zero off-diagonal must stop it
    sweeps = []
    sweep = kernels._jacobi_sweep
    monkeypatch.setattr(kernels, "_jacobi_sweep", lambda a: (sweeps.append(1), sweep(a)))
    rng = np.random.default_rng(46)
    for _ in range(20):
        diag = rng.uniform(0.5, 1.5, size=60)
        assert np.array_equal(jacobi_eigenvalues(np.diag(diag)), np.sort(diag))
    # a 1x1 matrix has an empty off-diagonal
    assert jacobi_eigenvalues([[2.5]]).tolist() == [2.5]
    assert sweeps == []


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
    for base, off, ok in [
        (linear, 1e-11, True),
        (linear, 1e-9, False),
        (small, 5e-13, True),
        (small, 1e-11, False),
    ]:
        m = base.copy()
        m[0, 1] += off
        verdicts = []
        for entry in (
            lambda a: svm_train_smo(a, labels),
            jacobi_eigenvalues,
            psd_check,
            lambda a: GramMatrix(a, KernelSpec("linear")),
        ):
            try:
                entry(m)
                verdicts.append(True)
            except ValueError as exc:
                assert "asymmetric" in str(exc)
                verdicts.append(False)
        assert verdicts == [ok] * 4, (off, verdicts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigen_entry_points_reject_non_finite(bad):
    # a NaN pair used to run every sweep and report nan eigenvalues; an inf
    # one warned in the symmetry test
    m = np.eye(4)
    m[0, 1] = m[1, 0] = bad
    for entry in (jacobi_eigenvalues, psd_check):
        with pytest.raises(ValueError, match="non-finite"):
            entry(m)


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
