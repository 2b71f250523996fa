import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from gyrotext import classify
from gyrotext.classify import (
    LinearPrimalConfig,
    LinearSvmModel,
    OvrModel,
    SmoConfig,
    SvmModel,
    knn_fit,
    knn_predict_batch,
    knn_rank,
    linear_svm_primal_train,
    ovr_decision,
    ovr_predict,
    ovr_train,
    svm_train_smo,
)
from gyrotext.gyroball import mobius_add
from gyrotext.kernels import KernelSpec, cross_kernel, gram_matrix


# ---------------------------------------------------------------- oracles


def oracle_distance(u, v, metric):
    if metric == "euclidean":
        return math.dist(list(u), list(v))
    du = 1.0 - sum(x * x for x in u)
    dv = 1.0 - sum(x * x for x in v)
    gap = sum((a - b) ** 2 for a, b in zip(u, v))
    return math.acosh(max(1.0, 1.0 + 2.0 * gap / (du * dv)))


def oracle_knn(train_points, train_labels, query, k, metric):
    """All-pairs scan replaying the documented tie rules."""
    ranked = sorted(
        (oracle_distance(p, query, metric), idx) for idx, p in enumerate(train_points)
    )[:k]
    counts = defaultdict(int)
    sums = defaultdict(float)
    for d, idx in ranked:
        c = int(train_labels[idx])
        counts[c] += 1
        sums[c] += d
    best = max(counts.values())
    tied = [c for c in counts if counts[c] == best]
    if len(tied) == 1:
        return tied[0]
    closest = min(sums[c] for c in tied)
    return min(c for c in tied if sums[c] == closest)


def linear_decision(model, train_points, queries):
    """Decision values of one binary SMO model trained on the linear-kernel
    Gram of ``train_points``, evaluated through ovr_decision."""
    ovr = OvrModel(
        classes=np.array([1]),
        models=(replace(model, kernel=KernelSpec("linear")),),
        train_points=np.atleast_2d(np.asarray(train_points, dtype=np.float64)),
    )
    return ovr_decision(ovr, queries)[:, 0]


def ball_blobs(rng, centers, per_class, spread=0.05):
    pts, labels = [], []
    for cid, center in enumerate(centers):
        jitter = rng.normal(scale=spread, size=(per_class, len(center)))
        pts.append(np.asarray(center) + jitter)
        labels += [cid] * per_class
    return np.vstack(pts), np.array(labels)


# ------------------------------------------------------------------ k-NN


def test_knn_fit_validation():
    pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    labels = [0, 1, 0]
    model = knn_fit(pts, labels, k=3)
    assert model.k == 3 and model.metric == "poincare"
    with pytest.raises(ValueError):
        knn_fit(pts, labels, k=0)
    with pytest.raises(ValueError):
        knn_fit(pts, labels, k=4)
    with pytest.raises(ValueError):
        knn_fit(pts, [0, 1], k=1)
    with pytest.raises(ValueError):
        knn_fit(np.empty((0, 2)), [], k=1)
    with pytest.raises(ValueError):
        knn_fit(pts, labels, k=1, metric="manhattan")


def test_knn_zero_distance_and_majority():
    pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.9, 0.0]])
    labels = [0, 0, 1]
    model = knn_fit(pts, labels, k=1)
    assert knn_predict_batch(model, [[0.9, 0.0]])[0] == 1
    model3 = knn_fit(pts, labels, k=3)
    # two votes for class 0 near the query, one distant for class 1
    assert knn_predict_batch(model3, [[0.15, 0.0]])[0] == 0


def test_knn_rank_tie_keeps_index_order():
    # both training points sit at the same distance from the query
    pts = np.array([[0.2, 0.0], [-0.2, 0.0]])
    model = knn_fit(pts, [5, 7], k=1)
    assert knn_predict_batch(model, [[0.0, 0.0]])[0] == 5


def test_knn_vote_tie_prefers_smaller_summed_distance():
    pts = np.array([[0.1, 0.0], [0.5, 0.0]])
    model = knn_fit(pts, [4, 2], k=2)
    assert knn_predict_batch(model, [[0.0, 0.0]])[0] == 4


def test_knn_full_tie_prefers_smaller_class_id():
    pts = np.array([[0.3, 0.0], [-0.3, 0.0]])
    model = knn_fit(pts, [3, 1], k=2)
    assert knn_predict_batch(model, [[0.0, 0.0]])[0] == 1


def test_knn_k_equals_n_is_global_majority():
    rng = np.random.default_rng(30)
    pts = rng.uniform(-0.4, 0.4, size=(9, 2))
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
    model = knn_fit(pts, labels, k=9)
    queries = rng.uniform(-0.4, 0.4, size=(6, 2))
    assert np.all(knn_predict_batch(model, queries) == 0)


@pytest.mark.parametrize("metric", ["poincare", "euclidean"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_knn_matches_brute_force_oracle(metric, k):
    rng = np.random.default_rng(31)
    train = rng.uniform(-0.5, 0.5, size=(60, 3))
    labels = rng.integers(0, 4, size=60)
    queries = rng.uniform(-0.5, 0.5, size=(20, 3))
    model = knn_fit(train, labels, k=k, metric=metric)
    got = knn_predict_batch(model, queries)
    expect = [oracle_knn(train, labels, q, k, metric) for q in queries]
    assert got.tolist() == expect


def test_knn_prediction_invariant_under_isometry():
    rng = np.random.default_rng(32)
    train = rng.uniform(-0.45, 0.45, size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    queries = rng.uniform(-0.45, 0.45, size=(10, 3))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for metric in ("poincare", "euclidean"):
        base = knn_predict_batch(knn_fit(train, labels, k=3, metric=metric), queries)
        rotated = knn_predict_batch(
            knn_fit(train @ Q.T, labels, k=3, metric=metric), queries @ Q.T
        )
        assert np.array_equal(base, rotated), metric
    # ball translation is an isometry for the hyperbolic metric only
    g = np.array([0.2, -0.1, 0.15])
    shifted_train = np.stack([mobius_add(g, p) for p in train])
    shifted_queries = np.stack([mobius_add(g, p) for p in queries])
    base = knn_predict_batch(knn_fit(train, labels, k=3), queries)
    moved = knn_predict_batch(knn_fit(shifted_train, labels, k=3), shifted_queries)
    assert np.array_equal(base, moved)


def test_knn_query_shape_checks():
    model = knn_fit(np.array([[0.1, 0.0]]), [0], k=1)
    with pytest.raises(ValueError):
        knn_predict_batch(model, np.array([[0.1, 0.0, 0.0]]))


def test_knn_shared_ranking_matches_fresh_prediction():
    # one ranking serves every k; ties in distance and in votes included
    rng = np.random.default_rng(33)
    train = np.round(rng.uniform(-0.5, 0.5, size=(50, 2)), 1)
    labels = rng.integers(0, 3, size=50)
    queries = np.round(rng.uniform(-0.5, 0.5, size=(25, 2)), 1)
    for metric in ("poincare", "euclidean"):
        ranking = knn_rank(knn_fit(train, labels, 1, metric), queries)
        assert ranking.order.shape == ranking.distances.shape == (25, 50)
        assert np.all(np.diff(ranking.distances, axis=1) >= 0)
        for k in (1, 2, 3, 4, 7, 50):
            model = knn_fit(train, labels, k, metric)
            shared = knn_predict_batch(model, queries, ranking)
            assert np.array_equal(shared, knn_predict_batch(model, queries)), (metric, k)
            expect = [oracle_knn(train, labels, q, k, metric) for q in queries]
            assert shared.tolist() == expect, (metric, k)
    with pytest.raises(ValueError):
        knn_predict_batch(model, queries[:3], ranking)


# ------------------------------------------------------------------- SMO


def test_smo_two_point_separable_trace():
    # 1-D points +1/-1 with the linear kernel; exact solution has
    # alpha = (0.5, 0.5), b = 0, margin 1 at both points
    X = np.array([[1.0], [-1.0]])
    gram = X @ X.T
    model = svm_train_smo(gram, [1.0, -1.0])
    np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert model.converged
    assert model.support_indices.tolist() == [0, 1]
    assert model.dual_objective == pytest.approx(0.5, abs=1e-12)
    scores = linear_decision(model, X, X)
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert scores[1] == pytest.approx(-1.0, abs=1e-12)


def test_smo_conflicting_duplicates_hit_the_box():
    gram = np.ones((2, 2))
    model = svm_train_smo(gram, [1.0, -1.0], C=0.7)
    np.testing.assert_allclose(model.alphas, [0.7, 0.7], atol=0)
    assert model.converged


def test_smo_separable_blobs_sign_match():
    rng = np.random.default_rng(33)
    X, y01 = ball_blobs(rng, [(2.0, 2.0), (-2.0, -2.0)], per_class=20, spread=0.5)
    y = np.where(y01 == 0, 1.0, -1.0)
    gram = X @ X.T
    model = svm_train_smo(gram, y)
    assert model.converged
    scores = linear_decision(model, X, X)
    assert np.all(np.sign(scores) == y)
    # dual feasibility
    assert np.all(model.alphas >= 0) and np.all(model.alphas <= model.C)
    assert abs(model.alphas @ y) <= 1e-8
    assert model.dual_objective > 0
    # every free support vector sits on the margin
    free = (model.alphas > 1e-10) & (model.alphas < model.C - 1e-10)
    if free.any():
        margins = y[free] * scores[free]
        np.testing.assert_allclose(margins, 1.0, atol=2e-3)


def test_smo_deterministic():
    rng = np.random.default_rng(34)
    X, y01 = ball_blobs(rng, [(1.0, 0.0), (-1.0, 0.0)], per_class=15, spread=0.6)
    y = np.where(y01 == 0, 1.0, -1.0)
    gram = X @ X.T
    a = svm_train_smo(gram, y)
    b = svm_train_smo(gram, y)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias and a.n_iter == b.n_iter


def test_smo_objective_history_is_nondecreasing():
    rng = np.random.default_rng(35)
    X, y01 = ball_blobs(rng, [(1.5, 1.0), (-1.5, -1.0)], per_class=25, spread=0.8)
    y = np.where(y01 == 0, 1.0, -1.0)
    model = svm_train_smo(X @ X.T, y)
    assert model.objective_history.shape == (model.n_iter,)
    assert model.n_iter > 0
    assert np.all(np.diff(model.objective_history) >= -1e-9)
    # the running sum of per-step gains ends at the objective recomputed
    # from the final alphas and F
    assert model.objective_history[-1] == pytest.approx(model.dual_objective, rel=1e-12)


def test_smo_validation():
    gram = np.eye(3)
    with pytest.raises(ValueError):
        svm_train_smo(gram, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        svm_train_smo(gram, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        svm_train_smo(gram, [1.0, -1.0])
    with pytest.raises(ValueError):
        svm_train_smo(np.full((2, 2), np.inf), [1.0, -1.0])
    with pytest.raises(ValueError):
        svm_train_smo(np.eye(2), [1.0, -1.0], C=0.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            SmoConfig(kernel=KernelSpec(), C=bad)


def test_smo_rejects_asymmetric_raw_gram():
    # GramMatrix and psd_check reject this matrix; a raw array must be too
    asym = np.array([[1.0, 0.9, 0.1], [0.0, 1.0, 0.2], [0.1, 0.2, 1.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        svm_train_smo(asym, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="square"):
        svm_train_smo(np.ones((2, 3)), [1.0, -1.0])


def test_smo_budget_exhaustion_reports_residual(monkeypatch):
    monkeypatch.setattr(classify, "MAX_PASSES", 0)
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = svm_train_smo(gram, [1.0, -1.0])
    assert not model.converged
    assert model.kkt_residual == pytest.approx(2.0, abs=0)
    assert np.all(model.alphas == 0.0)


def test_smo_flags_negative_curvature():
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = svm_train_smo(gram, [1.0, -1.0])
    assert model.psd_warning


def test_svm_decision_examples():
    zero = SvmModel(
        alphas=np.zeros(2),
        bias=0.5,
        support_indices=np.array([], dtype=np.int64),
        labels=np.array([1.0, -1.0]),
        kernel=None,
        C=1.0,
        converged=True,
        kkt_residual=0.0,
        dual_objective=0.0,
        psd_warning=False,
        n_iter=0,
        objective_history=np.zeros(0),
    )
    # linear kernel against unit-vector training rows: the query is its own kernel row
    assert linear_decision(zero, np.eye(2), [[0.3, 0.9]])[0] == 0.5
    lone = SvmModel(
        alphas=np.array([1.0]),
        bias=0.0,
        support_indices=np.array([0]),
        labels=np.array([1.0]),
        kernel=None,
        C=1.0,
        converged=True,
        kkt_residual=0.0,
        dual_objective=0.0,
        psd_warning=False,
        n_iter=0,
        objective_history=np.zeros(0),
    )
    assert linear_decision(lone, [[1.0]], [[1.0]])[0] == 1.0
    pair = SvmModel(
        alphas=np.array([0.5, 0.5]),
        bias=0.0,
        support_indices=np.array([0, 1]),
        labels=np.array([1.0, -1.0]),
        kernel=None,
        C=1.0,
        converged=True,
        kkt_residual=0.0,
        dual_objective=0.0,
        psd_warning=False,
        n_iter=0,
        objective_history=np.zeros(0),
    )
    # kernel row equidistant from the two opposing supports
    assert linear_decision(pair, np.eye(2), [[0.4, 0.4]])[0] == 0.0
    with pytest.raises(ValueError):
        linear_decision(pair, np.eye(2), [[0.4, 0.4, 0.4]])


# --------------------------------------------------------- linear primal


def test_linear_primal_1d_signs():
    X = np.array([[-1.0], [1.0]])
    y = [-1.0, 1.0]
    model = linear_svm_primal_train(X, y)
    assert model.weights[0] > 0
    assert np.all(np.sign(X @ model.weights + model.bias).ravel() == y)


def squared_hinge_gradient(X, y, w, b, C=1.0):
    """Gradient of 1/2 |w|^2 + C sum max(0, 1 - y (w.x + b))^2 in (w, b)."""
    slack = 1.0 - y * (X @ w + b)
    active = slack > 0
    pull = 2.0 * C * y[active] * slack[active]
    return np.append(w - X[active].T @ pull, -pull.sum())


def blob_fixtures():
    """The seeded two-class blob sets the linear-primal tests train on."""
    for seed, centers, per_class, spread in [
        (36, [(1.0, 1.0), (-1.0, -1.0)], 20, 0.9),
        (37, [(2.0, 0.0), (-2.0, 0.0)], 30, 0.5),
        (38, [(0.6, 0.3), (-0.6, -0.3)], 40, 0.8),
    ]:
        X, y01 = ball_blobs(np.random.default_rng(seed), centers, per_class, spread)
        yield X, np.where(y01 == 0, 1.0, -1.0)


def test_linear_primal_deterministic():
    X, y = next(blob_fixtures())
    a = linear_svm_primal_train(X, y)
    b = linear_svm_primal_train(X, y)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_linear_primal_separable_blobs_accuracy():
    X, y = list(blob_fixtures())[1]
    model = linear_svm_primal_train(X, y)
    acc = np.mean(np.sign(X @ model.weights + model.bias) == y)
    assert acc >= 0.99


def test_linear_primal_objective_descends_with_jitter():
    for X, y in blob_fixtures():
        model = linear_svm_primal_train(X, y)
        h = model.objective_history
        assert h.size >= 1 and np.all(np.diff(h) <= 0)
        # Newton stops at the exact minimiser: the gradient vanishes there
        g = squared_hinge_gradient(X, y, model.weights, model.bias)
        g0 = squared_hinge_gradient(X, y, np.zeros(X.shape[1]), 0.0)
        assert np.linalg.norm(g) <= 1e-9 * (1.0 + np.linalg.norm(g0))


def test_linear_primal_edge_fixtures():
    # one step lands on the exact minimiser w = 40C / (1 + 400C), b = 0,
    # with both margins 400/401, just short of 1; the active set is kept
    model = linear_svm_primal_train(np.array([[-10.0], [10.0]]), [-1.0, 1.0])
    assert model.objective_history.size == 1
    assert model.weights[0] == pytest.approx(40.0 / 401.0, rel=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    # coincident points with opposite labels: the origin is the minimiser
    model = linear_svm_primal_train(np.array([[0.3, 0.4], [0.3, 0.4]]), [1.0, -1.0])
    assert np.array_equal(model.weights, [0.0, 0.0]) and model.bias == 0.0
    assert model.objective_history.tolist() == [2.0]


def test_linear_primal_validation():
    X = np.array([[1.0], [-1.0]])
    with pytest.raises(ValueError):
        linear_svm_primal_train(X, [1.0, 1.0])
    with pytest.raises(ValueError):
        linear_svm_primal_train(np.array([[np.nan], [1.0]]), [1.0, -1.0])
    with pytest.raises(ValueError):
        linear_svm_primal_train(X, [1.0, -1.0], C=-1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            LinearPrimalConfig(C=bad)


# ----------------------------------------------------------- one-vs-rest


def test_ovr_train_one_model_per_class():
    rng = np.random.default_rng(40)
    pts, labels = ball_blobs(
        rng, [(0.4, 0.0), (-0.2, 0.35), (-0.2, -0.35)], per_class=10
    )
    model = ovr_train(pts, labels, SmoConfig(kernel=KernelSpec("geodesic")))
    assert model.classes.tolist() == [0, 1, 2]
    assert len(model.models) == 3
    with pytest.raises(ValueError):
        ovr_train(pts, np.zeros(len(labels), dtype=int), SmoConfig(KernelSpec("geodesic")))
    with pytest.raises(TypeError):
        ovr_train(pts, labels, config="linear")


def test_ovr_two_class_decisions_anticorrelated(monkeypatch):
    # at the default KKT_TOL of 1e-3 the two scores differ by up to 2.7e-4
    monkeypatch.setattr(classify, "KKT_TOL", 1e-6)
    rng = np.random.default_rng(41)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (-0.4, 0.0)], per_class=15)
    model = ovr_train(pts, labels, SmoConfig(kernel=KernelSpec("geodesic")))
    scores = ovr_decision(model, pts)
    assert np.all(np.sign(scores[:, 0]) == -np.sign(scores[:, 1]))
    np.testing.assert_allclose(scores[:, 0], -scores[:, 1], atol=1e-4)


def test_ovr_predict_argmax_and_ties():
    stub = lambda w, b: LinearSvmModel(  # noqa: E731
        weights=np.asarray(w, dtype=float), bias=b, objective_history=np.zeros(1)
    )
    model = OvrModel(
        classes=np.array([2, 5, 9]),
        models=(stub([0.0], -1.0), stub([0.0], 2.0), stub([0.0], -1.0)),
    )
    assert ovr_predict(model, np.array([[0.3]])).tolist() == [5]
    tied = OvrModel(
        classes=np.array([1, 3]),
        models=(stub([0.0], 0.0), stub([0.0], 0.0)),
    )
    assert ovr_predict(tied, np.array([[0.7]])).tolist() == [1]


def test_ovr_three_class_blobs_both_routes():
    rng = np.random.default_rng(42)
    pts, labels = ball_blobs(
        rng, [(0.45, 0.0), (-0.22, 0.4), (-0.22, -0.4)], per_class=20
    )
    labels = labels * 10 + 10  # non-contiguous ids: 10, 20, 30
    smo = ovr_train(pts, labels, SmoConfig(kernel=KernelSpec("geodesic", lam=1.0)))
    linear = ovr_train(pts, labels, LinearPrimalConfig())
    for model in (smo, linear):
        preds = ovr_predict(model, pts)
        assert np.mean(preds == labels) >= 0.95
        assert set(preds.tolist()) <= {10, 20, 30}


def test_ovr_decision_dimension_checks():
    rng = np.random.default_rng(43)
    pts, labels = ball_blobs(rng, [(0.3, 0.0), (-0.3, 0.0)], per_class=5)
    model = ovr_train(pts, labels, LinearPrimalConfig())
    with pytest.raises(ValueError):
        ovr_decision(model, np.zeros((2, 3)))
    smo = ovr_train(pts, labels, SmoConfig(kernel=KernelSpec("geodesic")))
    with pytest.raises(ValueError):
        ovr_decision(smo, np.zeros((2, 3)))


def test_ovr_smo_decision_matches_manual_kernel_rows():
    rng = np.random.default_rng(44)
    pts, labels = ball_blobs(rng, [(0.35, 0.1), (-0.35, -0.1)], per_class=8)
    spec = KernelSpec("geodesic", lam=0.8)
    model = ovr_train(pts, labels, SmoConfig(kernel=spec))
    queries = pts[:3]
    rows = cross_kernel(queries, pts, spec)
    scores = ovr_decision(model, queries)
    for col, binary in enumerate(model.models):
        for r in range(3):
            assert scores[r, col] == pytest.approx(
                float(rows[r] @ (binary.alphas * binary.labels) + binary.bias), abs=1e-12
            )


def test_ovr_smo_reuses_single_gram():
    rng = np.random.default_rng(45)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (0.0, 0.4), (-0.4, 0.0)], per_class=6)
    spec = KernelSpec("geodesic")
    model = ovr_train(pts, labels, SmoConfig(kernel=spec))
    gram = gram_matrix(pts, spec)
    for c, binary in zip(model.classes, model.models):
        y = np.where(labels == c, 1.0, -1.0)
        solo = svm_train_smo(gram, y)
        assert np.array_equal(binary.alphas, solo.alphas)
        assert binary.bias == solo.bias
