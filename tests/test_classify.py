import math
from collections import defaultdict
from itertools import product

import _smo_reference as smo_reference
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
from gyrotext.composition import PointBatch
from gyrotext.gyroball import mobius_add, pairwise_poincare_distance, pairwise_squared_distance
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
    Gram of ``train_points``, evaluated through ovr_decision on the
    queries' linear-kernel rows."""
    spec = KernelSpec("linear")
    ovr = OvrModel(classes=np.array([1]), models=(model,), kernel=spec)
    return ovr_decision(ovr, cross_kernel(queries, train_points, spec))[:, 0]


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
    # a whole float is that k; any other k used to be truncated (2.5 -> 2)
    assert type(knn_fit(pts, labels, k=2.0).k) is int
    for k in (0, 4, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="k must lie in"):
            knn_fit(pts, labels, k=k)
    with pytest.raises(ValueError):
        knn_fit(pts, [0, 1], k=1)
    with pytest.raises(ValueError):
        knn_fit(np.empty((0, 2)), [], k=1)
    with pytest.raises(ValueError):
        knn_fit(pts, labels, k=1, metric="manhattan")


def test_knn_fit_rejects_labels_that_are_not_integers():
    pts = np.array([[0.1], [0.2]])
    # a cast to int64 would make these the class ids [1, 2] without a word
    for labels in ([1.5, 2.7], [1.0, np.nan], np.array([0.0, np.inf])):
        with pytest.raises(ValueError, match="labels must be integers"):
            knn_fit(pts, labels, 1)
    # integral floats are class ids as they stand
    assert knn_fit(pts, [1.0, -2.0], 1).labels.tolist() == [1, -2]
    assert knn_fit(pts, np.array([3, 4], dtype=np.uint8), 1).labels.dtype == np.int64


def test_ovr_train_rejects_labels_that_are_not_integers():
    pts = np.array([[0.1], [0.2], [0.3], [0.4]])
    with pytest.raises(ValueError, match="labels must be integers"):
        ovr_train(pts, [0.5, 0.5, 1.5, 1.5], LinearPrimalConfig())


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


def knn_distances(queries, train, metric):
    """The queries-by-training distances k-NN ranks by, as the harness shares them."""
    return classify._knn_distances(classify._pair_matrix(queries, train, metric), metric)


def test_knn_shared_ranking_matches_fresh_prediction():
    # one ranking, as deep as the largest k it serves, serves every k up to
    # that depth; ties in distance and in votes included
    rng = np.random.default_rng(33)
    train = np.round(rng.uniform(-0.5, 0.5, size=(50, 2)), 1)
    labels = rng.integers(0, 3, size=50)
    queries = np.round(rng.uniform(-0.5, 0.5, size=(25, 2)), 1)
    # the same classes again as negative, non-contiguous ids in another order
    for metric, y in product(("poincare", "euclidean"), (labels, np.array([7, -4, 0])[labels])):
        distances = knn_distances(queries, train, metric)
        full = np.argsort(distances, axis=1, kind="stable")
        for depth, ks in ((15, (1, 2, 3, 4, 7, 15)), (50, (1, 15, 50))):
            ranking = knn_rank(knn_fit(train, y, depth, metric), distances)
            assert ranking.order.shape == ranking.distances.shape == (25, depth)
            assert np.array_equal(ranking.order, full[:, :depth])
            assert np.all(np.diff(ranking.distances, axis=1) >= 0)
            for k in ks:
                model = knn_fit(train, y, k, metric)
                shared = knn_predict_batch(model, queries, ranking)
                assert np.array_equal(shared, knn_predict_batch(model, queries)), (metric, k)
                expect = [oracle_knn(train, y, q, k, metric) for q in queries]
                assert shared.tolist() == expect, (metric, k)
                none = knn_predict_batch(model, queries[:0])
                assert none.dtype == np.int64 and none.shape == (0,)
    with pytest.raises(ValueError, match="does not rank 3 queries"):
        knn_predict_batch(model, queries[:3], ranking)
    # a ranking shallower than k cannot serve it
    shallow = knn_rank(knn_fit(train, y, 4, metric), distances)
    with pytest.raises(ValueError, match="at least k=7 deep"):
        knn_predict_batch(knn_fit(train, y, 7, metric), queries, shallow)


def test_knn_rank_at_depth_is_the_stable_argsort_prefix():
    # eight training points at exactly one distance from the origin query,
    # (+-a, +-b) and (+-b, +-a), with three nearer and four farther points;
    # shuffled, so that the tied indices lie apart. At k = 4 the cut takes
    # one of the eight, and seven others tie with it outside the candidates
    a, b = 0.3, 0.1
    ring = [(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)]
    ring += [(y, x) for x, y in ring]
    near = [(0.05, 0.0), (0.0, -0.1), (-0.12, 0.02)]
    far = [(0.5, 0.1), (-0.45, -0.2), (0.2, 0.55), (-0.1, -0.6)]
    rng = np.random.default_rng(34)
    train = rng.permutation(np.array(ring + near + far))
    labels = rng.integers(0, 3, size=len(train))
    queries = np.vstack([np.zeros((2, 2)), rng.uniform(-0.4, 0.4, size=(5, 2))])
    n = len(train)
    for metric in ("poincare", "euclidean"):
        d = knn_distances(queries, train, metric)
        assert np.unique(d[0]).size == n - 7
        full = np.argsort(d, axis=1, kind="stable")
        for k in (1, 3, 4, 5, 10, 11, 12, n):
            ranking = knn_rank(knn_fit(train, labels, k, metric), d)
            assert np.array_equal(ranking.order, full[:, :k]), (metric, k)
            assert ranking.distances.tobytes() == np.take_along_axis(d, full[:, :k], axis=1).tobytes()
        # zero queries rank to an empty (0, k) ranking
        empty = knn_rank(knn_fit(train, labels, 4, metric), d[:0])
        assert empty.order.shape == empty.distances.shape == (0, 4)
    model = knn_fit(train, labels, 4)
    with pytest.raises(ValueError, match="does not cover 15 training points"):
        knn_rank(model, d[:, 1:])
    d[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        knn_rank(model, d)


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
    C = 1.0
    model = svm_train_smo(gram, y, C)
    assert model.converged
    scores = linear_decision(model, X, X)
    assert np.all(np.sign(scores) == y)
    # dual feasibility
    assert np.all(model.alphas >= 0) and np.all(model.alphas <= C)
    assert abs(model.alphas @ y) <= 1e-8
    assert model.dual_objective > 0
    # every free support vector sits on the margin
    free = (model.alphas > 1e-10) & (model.alphas < C - 1e-10)
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


def test_smo_stall_exit():
    # the first pair step would move alpha by 2, which snaps to 0 under the
    # snap threshold of 1e-12 C = 1e8 at C = 1e20: a step of 0 is under the
    # stall threshold, so SMO stops before taking any step
    model = svm_train_smo(np.array([[1.0, 0.5], [0.5, 1.0]]), [1, -1], C=1e20)
    assert not model.converged and model.n_iter == 0
    assert model.kkt_residual == 2.0
    assert model.alphas.tobytes() == np.zeros(2).tobytes()
    assert not model.psd_warning


def test_smo_steps_on_a_gram_of_large_entries():
    # the first pair step moves alpha by 2 / 1e15 = 2e-15, above both
    # thresholds, which are relative to C / max(1, max K_ii) = 1e-15, so it
    # is taken and reaches the optimum
    model = svm_train_smo(1e15 * np.array([[1.0, 0.5], [0.5, 1.0]]), [1, -1])
    assert model.converged and model.n_iter == 1
    assert model.kkt_residual == 0.0
    assert model.alphas.tolist() == [2e-15, 2e-15]


def test_smo_takes_steps_in_a_tiny_box():
    # the stall threshold is 1e-14 C on this Gram, whose K_ii are 1: an
    # absolute 1e-14 stopped every box narrower than that before its first
    # pair step
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.3, 0.3, size=(40, 5))
    y = np.where(X[:, 0] > 0, 1, -1)
    gram = gram_matrix(X, KernelSpec("geodesic")).entries
    wide = svm_train_smo(gram, y, C=1e-13)
    for C in (1e-15, 1e-300):
        model = svm_train_smo(gram, y, C=C)
        assert model.converged and model.n_iter == wide.n_iter == 17
        # the same optimum, scaled to the box
        assert model.dual_objective / C == pytest.approx(wide.dual_objective / 1e-13, rel=1e-12)
        assert set(model.alphas.tolist()) == {0.0, C}


def test_smo_flags_negative_curvature():
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = svm_train_smo(gram, [1.0, -1.0])
    assert model.psd_warning


def smo_reference_fixtures():
    """Seeded PSD problems: linear-kernel and geodesic-Laplacian Grams of
    two ball blobs, with C = 1 and C = 10."""
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        d = 2 + seed % 4
        centers = [rng.uniform(-0.4, 0.4, size=d) for _ in range(2)]
        X, y01 = ball_blobs(rng, centers, per_class=30 + 5 * seed, spread=0.15)
        X *= (0.95 / np.maximum(0.95, np.linalg.norm(X, axis=1)))[:, None]
        y = np.where(y01 == 0, 1.0, -1.0)
        yield X @ X.T, y, 10.0 if seed % 2 else 1.0
        yield gram_matrix(X, KernelSpec("geodesic", lam=1.0, q=1.0)).entries, y, 1.0


def test_smo_second_order_selection_beats_maximal_violating_pair():
    steps = reference_steps = 0
    for K, y, C in smo_reference_fixtures():
        model = svm_train_smo(K, y, C=C)
        _, dual, ref_steps, ref_converged = smo_reference.smo(K, y, C=C)
        assert model.converged and ref_converged
        assert model.dual_objective == pytest.approx(dual, rel=1e-5)
        steps += model.n_iter
        reference_steps += ref_steps
    assert steps < reference_steps


def test_svm_decision_examples():
    zero = SvmModel(
        alphas=np.zeros(2),
        bias=0.5,
        support_indices=np.array([], dtype=np.int64),
        labels=np.array([1.0, -1.0]),
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


def test_linear_primal_halves_a_step_that_raises_the_objective():
    # the first step, on every point, minimises a quadratic that bounds the
    # objective from above, so it never rises; the second, on the points
    # still inside the margin, has no such bound, and here its full step
    # raises the objective, so the trainer must halve it
    X = np.array([[-0.43, -1.27], [-1.89, -0.06], [-0.17, 0.01], [0.04, 1.19]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    C = 100.0
    Xt = np.hstack([X, np.ones((4, 1))])

    def objective(z):
        slack = np.maximum(1.0 - y * (Xt @ z), 0.0)
        return 0.5 * z[:2] @ z[:2] + C * slack @ slack

    def newton(active):
        XA = Xt[active]
        return np.linalg.solve(np.diag([1.0, 1.0, 0.0]) + 2.0 * C * XA.T @ XA, 2.0 * C * XA.T @ y[active])

    first = newton(np.ones(4, dtype=bool))
    assert objective(newton(y * (Xt @ first) < 1.0)) > objective(first)
    model = linear_svm_primal_train(X, y, C)
    h = model.objective_history
    assert h[0] == pytest.approx(objective(first), rel=1e-12)
    assert h.size >= 2 and np.all(np.diff(h) <= 0)
    g = squared_hinge_gradient(X, y, model.weights, model.bias, C)
    g0 = squared_hinge_gradient(X, y, np.zeros(2), 0.0, C)
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
    config = SmoConfig(kernel=KernelSpec("geodesic"))
    gram = gram_matrix(pts, config.kernel)
    model = ovr_train(gram, labels, config)
    assert model.classes.tolist() == [0, 1, 2]
    assert len(model.models) == 3
    for train, y, message in [
        (gram, np.zeros(len(labels), dtype=int), "at least 2 classes"),
        # the kernel route trains on a Gram, and refuses the points it came from
        (pts, labels, "Gram matrix must be square and non-empty, got shape"),
        (gram.entries[:-1, :-1], labels, "29 points but"),
    ]:
        with pytest.raises(ValueError, match=message):
            ovr_train(train, y, config)
    with pytest.raises(TypeError):
        ovr_train(pts, labels, config="linear")


def test_ovr_model_holds_the_kernel_it_was_trained_with():
    rng = np.random.default_rng(46)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (-0.4, 0.0)], per_class=5)
    config = SmoConfig(kernel=KernelSpec("geodesic", lam=0.6, q=2.0))
    assert ovr_train(gram_matrix(pts, config.kernel), labels, config).kernel is config.kernel
    assert ovr_train(pts, labels, LinearPrimalConfig()).kernel is None


def test_ovr_two_class_decisions_anticorrelated(monkeypatch):
    # at the default KKT_TOL of 1e-3 the two scores differ by up to 2.7e-4
    monkeypatch.setattr(classify, "KKT_TOL", 1e-6)
    rng = np.random.default_rng(41)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (-0.4, 0.0)], per_class=15)
    config = SmoConfig(kernel=KernelSpec("geodesic"))
    model = ovr_train(gram_matrix(pts, config.kernel), labels, config)
    scores = ovr_decision(model, cross_kernel(pts, pts, model.kernel))
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
    spec = KernelSpec("geodesic", lam=1.0)
    smo = ovr_train(gram_matrix(pts, spec), labels, SmoConfig(kernel=spec))
    linear = ovr_train(pts, labels, LinearPrimalConfig())
    for model, queries in ((smo, cross_kernel(pts, pts, smo.kernel)), (linear, pts)):
        preds = ovr_predict(model, queries)
        assert np.mean(preds == labels) >= 0.95
        assert set(preds.tolist()) <= {10, 20, 30}


def test_ovr_decision_dimension_checks():
    rng = np.random.default_rng(43)
    pts, labels = ball_blobs(rng, [(0.3, 0.0), (-0.3, 0.0)], per_class=5)
    model = ovr_train(pts, labels, LinearPrimalConfig())
    with pytest.raises(ValueError):
        ovr_decision(model, np.zeros((2, 3)))
    config = SmoConfig(kernel=KernelSpec("geodesic"))
    smo = ovr_train(gram_matrix(pts, config.kernel), labels, config)
    with pytest.raises(ValueError):
        ovr_decision(smo, np.zeros((2, 3)))
    # the kernel route reads kernel rows, one entry per training point, not points
    assert ovr_decision(smo, np.zeros((2, 10))).shape == (2, 2)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 10"):
        ovr_decision(smo, pts[:2])


def test_ovr_smo_decision_matches_manual_kernel_rows():
    rng = np.random.default_rng(44)
    pts, labels = ball_blobs(rng, [(0.35, 0.1), (-0.35, -0.1)], per_class=8)
    spec = KernelSpec("geodesic", lam=0.8)
    model = ovr_train(gram_matrix(pts, spec), labels, SmoConfig(kernel=spec))
    rows = cross_kernel(pts[:3], pts, spec)
    scores = ovr_decision(model, rows)
    for col, binary in enumerate(model.models):
        for r in range(3):
            assert scores[r, col] == pytest.approx(
                float(rows[r] @ (binary.alphas * binary.labels) + binary.bias), abs=1e-12
            )


@pytest.mark.parametrize("spec", [
    KernelSpec("geodesic", lam=0.8),
    KernelSpec("geodesic", lam=0.3, q=2.0),
    KernelSpec("euclidean_rbf", lam=1.5),
    KernelSpec("linear"),
    None,
])
def test_ovr_decision_on_kernel_rows_is_the_decision_on_points(spec):
    # the kernel route used to take point rows and build their kernel rows
    # itself, by the expressions below; decided from the rows the caller
    # builds, every score is bitwise what it was. The linear route (spec
    # None) decides on the point rows, bitwise by its own expression
    rng = np.random.default_rng(47)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (-0.2, 0.35), (-0.2, -0.35)], per_class=8)
    queries = rng.uniform(-0.4, 0.4, size=(7, 2))
    if spec is None:
        model = ovr_train(pts, labels, LinearPrimalConfig())
        before = np.stack([queries @ m.weights + m.bias for m in model.models], axis=1)
        assert ovr_decision(model, queries).tobytes() == before.tobytes()
        return
    model = ovr_train(gram_matrix(pts, spec), labels, SmoConfig(kernel=spec))
    if spec.kind == "geodesic":
        rows = np.exp(-spec.lam * pairwise_poincare_distance(queries, pts) ** spec.q)
    elif spec.kind == "euclidean_rbf":
        rows = np.exp(-spec.lam * pairwise_squared_distance(queries, pts))
    else:
        rows = queries @ pts.T
    before = np.stack([rows @ (m.alphas * m.labels) + m.bias for m in model.models], axis=1)
    got = ovr_decision(model, cross_kernel(queries, pts, spec))
    assert got.tobytes() == before.tobytes()


def test_ovr_smo_reuses_single_gram():
    # a GramMatrix and its raw array train bitwise the same models, each
    # bitwise the binary model svm_train_smo trains on that Gram alone
    rng = np.random.default_rng(45)
    pts, labels = ball_blobs(rng, [(0.4, 0.0), (0.0, 0.4), (-0.4, 0.0)], per_class=6)
    config = SmoConfig(kernel=KernelSpec("geodesic"))
    gram = gram_matrix(pts, config.kernel)
    fields = ("alphas", "bias", "support_indices", "labels", "converged", "kkt_residual",
              "dual_objective", "psd_warning", "n_iter", "objective_history")

    def as_bytes(model):
        return [np.asarray(getattr(model, f)).tobytes() for f in fields]

    for train in (gram, gram.entries.copy()):
        model = ovr_train(train, labels, config)
        for c, binary in zip(model.classes, model.models):
            solo = svm_train_smo(gram, np.where(labels == c, 1.0, -1.0))
            assert as_bytes(binary) == as_bytes(solo)


# ------------------------------------------------- point-row and label rules


def test_point_row_rule_is_one_for_every_entry_point():
    P = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1], [0.0, -0.2]])
    y = [0, 0, 1, 1]
    knn = {m: knn_fit(P, y, 1, m) for m in ("poincare", "euclidean")}
    ovr = {"linear-svm": ovr_train(P, y, LinearPrimalConfig())}
    for name, kind in (("rbf", "euclidean_rbf"), ("linear", "linear"), ("geodesic", "geodesic")):
        ovr[name] = ovr_train(gram_matrix(P, KernelSpec(kind)), y, SmoConfig(KernelSpec(kind)))
    # each entry point takes X in place of one point-row argument
    entries = {
        "pairwise_squared_distance": lambda X: pairwise_squared_distance(X, P),
        "pairwise_poincare_distance": lambda X: pairwise_poincare_distance(P, X),
        "cross_kernel": lambda X: cross_kernel(X, P, KernelSpec("linear")),
        "gram_matrix": lambda X: gram_matrix(X, KernelSpec("euclidean_rbf")),
        "knn_fit": lambda X: knn_fit(X, y, 1, "euclidean"),
        "linear_svm_primal_train": lambda X: linear_svm_primal_train(X, [1, 1, -1, -1]),
        "ovr_train": lambda X: ovr_train(X, y, LinearPrimalConfig()),
        "PointBatch": lambda X: PointBatch(X, np.array([4])),
        "PointBatch/one sequence": lambda X: PointBatch(X),
    }
    for metric, model in knn.items():
        entries[f"knn_predict_batch/{metric}"] = lambda X, m=model: knn_predict_batch(m, X)
        # a shared ranking spares the distances, not the rule
        ranking = knn_rank(model, knn_distances(P, P, metric))
        entries[f"knn_predict_batch+ranking/{metric}"] = (
            lambda X, m=model, r=ranking: knn_predict_batch(m, X, r)
        )
    for name, model in ovr.items():
        # the kernel route decides from the queries' kernel rows, which
        # cross_kernel builds from point rows under the same rule
        if model.kernel is None:
            rows = lambda X: X  # noqa: E731
        else:
            rows = lambda X, k=model.kernel: cross_kernel(X, P, k)  # noqa: E731
        entries[f"ovr_decision/{name}"] = lambda X, m=model, r=rows: ovr_decision(m, r(X))
        entries[f"ovr_predict/{name}"] = lambda X, m=model, r=rows: ovr_predict(m, r(X))
    nan = P.copy()
    nan[0, 0] = np.nan
    for X, ok, reason in [
        (P, True, None),
        (nan, False, "non-finite coordinates"),
        (np.zeros((4, 2, 2)), False, "point rows"),
        (np.empty((4, 0)), False, "point rows"),
    ]:
        verdicts = {}
        for name, entry in entries.items():
            try:
                entry(X)
                verdicts[name] = True
            except ValueError as exc:
                assert reason is not None and reason in str(exc), (name, exc)
                verdicts[name] = False
        assert verdicts == dict.fromkeys(entries, ok), (X.shape, reason)


def test_query_entry_points_take_zero_and_one_dimensional_queries():
    P = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1], [0.0, -0.2]])
    y = [0, 0, 1, 1]
    models = [knn_fit(P, y, 3, m) for m in ("poincare", "euclidean")]
    q = np.array([0.05, 0.1])
    for model in models:
        # a 1-D query is one row, with a shared ranking as without one
        expected = knn_predict_batch(model, q[None])
        assert knn_predict_batch(model, q).tolist() == expected.tolist()
        d = knn_distances(q, P, model.metric)
        assert knn_predict_batch(model, q, knn_rank(model, d)).tolist() == expected.tolist()
        assert knn_predict_batch(model, np.empty((0, 2))).shape == (0,)
    assert pairwise_squared_distance(np.empty((0, 2)), P).shape == (0, 4)
    spec = KernelSpec("geodesic")
    assert cross_kernel(np.empty((0, 2)), P, spec).shape == (0, 4)
    model = ovr_train(gram_matrix(P, spec), y, SmoConfig(spec))
    assert ovr_predict(model, cross_kernel(np.empty((0, 2)), P, spec)).shape == (0,)
    # a 1-D kernel row is one query, as a 1-D point row is
    rows = cross_kernel(q, P, spec)
    assert ovr_predict(model, rows[0]).tolist() == ovr_predict(model, rows).tolist()
    with pytest.raises(ValueError, match="dimension mismatch"):
        knn_predict_batch(models[0], np.zeros((1, 3)), knn_rank(models[0], d))


def test_label_rules_are_one_for_both_trainers():
    P = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1], [0.0, -0.2]])
    gram = gram_matrix(P, KernelSpec("geodesic"))
    for labels, ok in [
        ([1.0, 1.0, -1.0, -1.0], True),
        ([1, 1, -1, -1], True),
        ([1.0, -1.0, 1.0], False),
        ([1.0, 1.0, 1.0, 1.0], False),
        ([0.0, 1.0, -1.0, 1.0], False),
        ([1.5, 1.0, -1.0, -1.0], False),
        ([np.nan, 1.0, -1.0, -1.0], False),
    ]:
        verdicts = []
        for train in (svm_train_smo, linear_svm_primal_train):
            try:
                train(gram if train is svm_train_smo else P, labels)
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
        assert verdicts == [ok, ok], labels
    for labels, ok in [
        ([0, 0, 1, 1], True),
        ([0.0, 0.0, 1.0, 1.0], True),
        ([0, 1, 1], False),
        ([0.5, 0.0, 1.0, 1.0], False),
    ]:
        verdicts = []
        for train in (lambda y: knn_fit(P, y, 1), lambda y: ovr_train(P, y, LinearPrimalConfig())):
            try:
                train(labels)
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
        assert verdicts == [ok, ok], labels
