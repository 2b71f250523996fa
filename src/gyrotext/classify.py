"""Classifiers over ball-point document representations.

Three families, mirroring the experiment grids:

    - metric k-NN with either the hyperbolic ball distance or the
      Euclidean distance, with fully deterministic tie rules;
    - binary soft-margin kernel SVM trained by SMO on a precomputed
      Gram matrix (maximal-violating-pair working set selection);
    - primal linear SVM on the squared-hinge objective, minimised
      exactly by Newton's method.

Multiclass problems are reduced one-vs-rest; prediction is the argmax
of the binary decision values with ties going to the smallest class id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .gyroball import pairwise_poincare_distance, pairwise_squared_distance
from .kernels import GramMatrix, KernelSpec, check_gram, cross_kernel, gram_matrix

__all__ = [
    "KnnModel",
    "KnnRanking",
    "SvmModel",
    "LinearSvmModel",
    "SmoConfig",
    "LinearPrimalConfig",
    "OvrModel",
    "knn_fit",
    "knn_rank",
    "knn_predict_batch",
    "svm_train_smo",
    "linear_svm_primal_train",
    "ovr_train",
    "ovr_decision",
    "ovr_predict",
]

METRIC_KINDS = ("poincare", "euclidean")

# alphas below this are treated as zero when collecting support vectors
SUPPORT_EPS = 1e-10
# SMO: stop once the maximal KKT violation max_low F - min_up F falls to
# KKT_TOL, or after MAX_PASSES * n pair steps; both read at call time
KKT_TOL = 1e-3
MAX_PASSES = 1000
# linear SVM: cap on Newton steps (the exact minimiser usually takes under
# ten), and the line-search step below which no descent counts as converged
NEWTON_MAX_STEPS = 50
MIN_STEP = 2.0**-40


def _check_C(C: float) -> None:
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")


def _pairwise_distance(queries, points, metric: str) -> np.ndarray:
    if metric == "poincare":
        return pairwise_poincare_distance(queries, points)
    return np.sqrt(pairwise_squared_distance(queries, points))


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: stored training data plus k and the metric name."""

    points: np.ndarray
    labels: np.ndarray
    k: int
    metric: str


def knn_fit(points, labels, k: int, metric: str = "poincare") -> KnnModel:
    """Store the training set verbatim after validating shapes and k."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    if P.shape[0] == 0:
        raise ValueError("training set is empty")
    if y.shape != (P.shape[0],):
        raise ValueError(f"{P.shape[0]} points but {y.shape} labels")
    if not (1 <= k <= P.shape[0]):
        raise ValueError(f"k must lie in [1, {P.shape[0]}], got {k}")
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")
    return KnnModel(points=P, labels=y, k=int(k), metric=metric)


class KnnRanking(NamedTuple):
    """Training points ordered by distance, per query row.

    ``order[i]`` lists training indices by increasing distance to query i,
    equal distances in training index order; ``distances[i]`` holds those
    distances in that order. It does not depend on k, so one ranking
    serves every k over the same training set and queries.
    """

    order: np.ndarray
    distances: np.ndarray


def knn_rank(model: KnnModel, queries) -> KnnRanking:
    """Rank the model's training points for every query row (ignores model.k)."""
    d = _pairwise_distance(queries, model.points, model.metric)
    order = np.argsort(d, axis=1, kind="stable")
    return KnnRanking(order=order, distances=np.take_along_axis(d, order, axis=1))


def _vote(order: np.ndarray, dist: np.ndarray, labels: np.ndarray, k: int) -> int:
    votes = labels[order[:k]]
    classes, counts = np.unique(votes, return_counts=True)
    top = classes[counts == counts.max()]
    if top.size == 1:
        return int(top[0])
    # vote tie: smallest summed distance to the query, then smallest id
    sums = np.array([dist[:k][votes == c].sum() for c in top])
    return int(top[sums == sums.min()].min())


def knn_predict_batch(model: KnnModel, queries, ranking: Optional[KnnRanking] = None) -> np.ndarray:
    """Majority label among the k nearest training points, per query row.

    Distance ties at the k-th rank are broken by training index order;
    vote ties by the smallest summed distance, then the smallest class id.
    ``ranking``, when given, is ``knn_rank`` of the same training points
    and queries, computed once and shared by several k.
    """
    if ranking is None:
        ranking = knn_rank(model, queries)
    elif ranking.order.shape != (len(queries), model.points.shape[0]):
        raise ValueError(
            f"ranking shape {ranking.order.shape} does not match "
            f"{len(queries)} queries x {model.points.shape[0]} training points"
        )
    return np.array(
        [_vote(o, d, model.labels, model.k) for o, d in zip(ranking.order, ranking.distances)],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class SvmModel:
    """Fitted binary kernel SVM (dual form).

    converged is False when the KKT residual still exceeded ``KKT_TOL`` at
    the iteration budget (or the pair step stalled on an indefinite Gram);
    the residual is reported either way. psd_warning records whether any
    working pair exhibited negative curvature, a witness that the Gram
    is not positive semidefinite. objective_history holds the dual
    objective after each pair step, one entry per iteration.
    """

    alphas: np.ndarray
    bias: float
    support_indices: np.ndarray
    labels: np.ndarray
    kernel: Optional[KernelSpec]
    C: float
    converged: bool
    kkt_residual: float
    dual_objective: float
    psd_warning: bool
    n_iter: int
    objective_history: np.ndarray


def _dual_objective(alpha: np.ndarray, y: np.ndarray, F: np.ndarray) -> float:
    # W = sum(alpha) - 1/2 sum_k alpha_k y_k (F_k + y_k), since
    # F_k + y_k = sum_m alpha_m y_m K[m, k]
    return float(np.sum(alpha) - 0.5 * np.sum(alpha * y * (F + y)))


def svm_train_smo(gram: Union[GramMatrix, np.ndarray], labels, C: float = 1.0) -> SvmModel:
    """Train a binary soft-margin SVM on a precomputed Gram matrix by SMO.

    Each iteration updates the maximal violating pair (Keerthi's working
    set selection): i from the candidates whose F may still decrease the
    violation from below, j from above; convergence when
    max_low F - min_up F <= ``KKT_TOL``. F_k = sum_m alpha_m y_m K[m,k] - y_k
    is maintained incrementally, so one iteration costs O(n), and so is
    the dual objective recorded after each step. The budget is
    ``MAX_PASSES * n`` iterations; running out is reported through
    converged/kkt_residual, not raised. A raw Gram array gets the same
    checks as ``GramMatrix``.
    """
    if isinstance(gram, GramMatrix):
        K = gram.entries
        spec = gram.spec
    else:
        K = check_gram(gram)
        spec = None
    y = np.asarray(labels, dtype=np.float64)
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{n}x{n} Gram but {y.shape} labels")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    _check_C(C)

    pos = y > 0
    alpha = np.zeros(n)
    F = -y.copy()
    psd_warning = False
    objective = 0.0
    history = []
    stalled = False
    it = 0
    budget = MAX_PASSES * n
    kkt_tol = KKT_TOL
    # rounding can leave an alpha one ulp off its bound, which would keep
    # it in the working set and jam the pair update against the box; snap
    # near-bound values to the exact bound instead
    snap = 1e-12 * C

    def _snap(a: float) -> float:
        if a < snap:
            return 0.0
        if a > C - snap:
            return C
        return a

    while it < budget:
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        j = up_idx[np.argmin(F[up_idx])]
        i = low_idx[np.argmax(F[low_idx])]
        # the pair's scalars as Python floats: numpy scalar arithmetic in
        # this loop costs microseconds per iteration
        F_i, F_j = float(F[i]), float(F[j])
        if F_i - F_j <= kkt_tol:
            break
        K_ii, K_jj, K_ij = float(K[i, i]), float(K[j, j]), float(K[i, j])
        y_i, y_j = float(y[i]), float(y[j])
        eta_raw = K_ii + K_jj - 2.0 * K_ij
        if eta_raw < -1e-12:
            psd_warning = True
        eta = max(eta_raw, 1e-12)
        a_i, a_j = float(alpha[i]), float(alpha[j])
        a_j_new = a_j + y_j * (F_i - F_j) / eta
        if y_i != y_j:
            lo, hi = max(0.0, a_j - a_i), min(C, C + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - C), min(C, a_i + a_j)
        a_j_new = _snap(min(max(a_j_new, lo), hi))
        if abs(a_j_new - a_j) < 1e-14:
            # clip box blocks the maximal pair: no further progress possible
            stalled = True
            break
        a_i_new = _snap(min(max(a_i - y_i * y_j * (a_j_new - a_j), 0.0), C))
        d_i, d_j = a_i_new - a_i, a_j_new - a_j
        F += d_i * y_i * K[i, :] + d_j * y_j * K[j, :]
        alpha[i], alpha[j] = a_i_new, a_j_new
        # exact change of W over the two coordinates, from F before the step
        objective += -(y_i * F_i * d_i + y_j * F_j * d_j) - 0.5 * (
            K_ii * d_i * d_i + K_jj * d_j * d_j + 2.0 * y_i * y_j * K_ij * d_i * d_j
        )
        history.append(objective)
        it += 1

    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (pos & (alpha > 0)) | (~pos & (alpha < C))
    if up.any() and low.any():
        b_up = float(F[up].min())
        b_low = float(F[low].max())
        residual = max(b_low - b_up, 0.0)
    else:
        b_up = b_low = 0.0
        residual = 0.0
    converged = residual <= kkt_tol and not stalled

    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if free.any():
        # every free support vector satisfies F_k = -b at optimality
        bias = float(-F[free].mean())
    else:
        bias = -(b_low + b_up) / 2.0

    return SvmModel(
        alphas=alpha,
        bias=bias,
        support_indices=np.flatnonzero(alpha > SUPPORT_EPS),
        labels=y,
        kernel=spec,
        C=float(C),
        converged=converged,
        kkt_residual=residual,
        dual_objective=_dual_objective(alpha, y, F),
        psd_warning=psd_warning,
        n_iter=it,
        objective_history=np.asarray(history),
    )


@dataclass(frozen=True)
class LinearSvmModel:
    """Fitted primal linear SVM: weights, bias, and the objective per Newton step."""

    weights: np.ndarray
    bias: float
    objective_history: np.ndarray


def linear_svm_primal_train(vectors, labels, C: float = 1.0) -> LinearSvmModel:
    """Primal squared-hinge SVM, minimised exactly by Newton's method.

    Objective: 1/2 |w|^2 + C sum_i max(0, 1 - y_i (w.x_i + b))^2 with an
    unregularised bias (Chapelle 2007, Training a Support Vector Machine
    in the Primal; Keerthi & DeCoste 2005, JMLR 6). With z = (w, b) and
    x~ = (x, 1), it is a quadratic on each active set A = {i : y_i x~_i.z
    < 1}. A step solves (R + 2C X~_A^T X~_A) z' = 2C X~_A^T y_A, the
    minimiser of that quadratic (R = diag(1, ..., 1, 0)), then halves the
    step until the objective does not rise. Once a full step keeps A,
    z' is the exact minimiser. The objective after each step is recorded.
    """
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"{X.shape[0]} vectors but {y.shape} labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if not set(np.unique(y)) <= {-1.0, 1.0} or len(np.unique(y)) < 2:
        raise ValueError("labels must be -1/+1 with both classes present")
    _check_C(C)

    n, d = X.shape
    Xt = np.hstack([X, np.ones((n, 1))])
    R = np.diag(np.append(np.ones(d), 0.0))

    def objective(z):
        slack = np.maximum(1.0 - y * (Xt @ z), 0.0)
        return 0.5 * float(z[:d] @ z[:d]) + C * float(slack @ slack)

    z = np.zeros(d + 1)
    f = objective(z)
    # A starts as every point and a step never pushes all of A past the
    # margin, so the bias entry 2C|A| keeps the system positive definite
    active = np.ones(n, dtype=bool)
    history = []
    for _ in range(NEWTON_MAX_STEPS):
        XA = Xt[active]
        step = np.linalg.solve(R + 2.0 * C * XA.T @ XA, 2.0 * C * XA.T @ y[active]) - z
        t = 1.0
        while (f_t := objective(z + t * step)) > f and t >= MIN_STEP:
            t *= 0.5
        if f_t > f:
            break  # no descent left at working precision
        z, f = z + t * step, f_t
        history.append(f)
        new_active = y * (Xt @ z) < 1.0
        if t == 1.0 and np.array_equal(new_active, active):
            break
        active = new_active
    return LinearSvmModel(weights=z[:d], bias=float(z[d]), objective_history=np.array(history))


@dataclass(frozen=True)
class SmoConfig:
    """One-vs-rest trainer config for the kernel SVM route."""

    kernel: KernelSpec
    C: float = 1.0

    def __post_init__(self):
        _check_C(self.C)


@dataclass(frozen=True)
class LinearPrimalConfig:
    """One-vs-rest trainer config for the primal linear route."""

    C: float = 1.0

    def __post_init__(self):
        _check_C(self.C)


@dataclass(frozen=True)
class OvrModel:
    """One binary model per class id, over a shared training representation.

    train_points is retained only for the kernel route, where decisions
    need kernel rows against the training set; its presence marks that
    route.
    """

    classes: np.ndarray
    models: tuple
    train_points: Optional[np.ndarray] = None


def ovr_train(points, labels, config: Union[SmoConfig, LinearPrimalConfig]) -> OvrModel:
    """Train one binary classifier per class (that class vs. the rest)."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (P.shape[0],):
        raise ValueError(f"{P.shape[0]} points but {y.shape} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("one-vs-rest needs at least 2 classes")

    if isinstance(config, SmoConfig):
        gram = gram_matrix(P, config.kernel)
        models = tuple(
            svm_train_smo(gram, np.where(y == c, 1.0, -1.0), C=config.C) for c in classes
        )
        return OvrModel(classes=classes, models=models, train_points=P)
    if isinstance(config, LinearPrimalConfig):
        models = tuple(
            linear_svm_primal_train(P, np.where(y == c, 1.0, -1.0), C=config.C)
            for c in classes
        )
        return OvrModel(classes=classes, models=models)
    raise TypeError(f"unsupported trainer config {type(config).__name__}")


def ovr_decision(model: OvrModel, queries) -> np.ndarray:
    """Decision-value matrix, one row per query and one column per class."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if model.train_points is not None:
        rows = cross_kernel(Q, model.train_points, model.models[0].kernel)
        cols = [rows @ (m.alphas * m.labels) + m.bias for m in model.models]
    else:
        if Q.shape[1] != model.models[0].weights.shape[0]:
            raise ValueError(
                f"dimension mismatch: {Q.shape[1]} vs {model.models[0].weights.shape[0]}"
            )
        cols = [Q @ m.weights + m.bias for m in model.models]
    return np.stack(cols, axis=1)


def ovr_predict(model: OvrModel, queries) -> np.ndarray:
    """Argmax class per query; exact ties go to the smallest class id."""
    scores = ovr_decision(model, queries)
    # argmax returns the first maximum and classes are sorted ascending
    return model.classes[np.argmax(scores, axis=1)]
