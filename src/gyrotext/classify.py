"""Classifiers over ball-point document representations.

Three families, mirroring the experiment grids:

    - metric k-NN with either the hyperbolic ball distance or the
      Euclidean distance, with fully deterministic tie rules, ranking a
      queries-by-training distance matrix only as deep as k;
    - binary soft-margin kernel SVM trained by SMO on a precomputed
      Gram matrix, each pair chosen by second-order working set
      selection (Fan, Chen & Lin 2005, LIBSVM's rule): the maximal
      violator from above, and the partner whose pair step gains the
      most dual objective, with the step's curvature floored at 1e-12;
    - primal linear SVM on the squared-hinge objective, minimised
      exactly by Newton's method.

Multiclass problems are reduced one-vs-rest; prediction is the argmax
of the binary decision values with ties going to the smallest class id.
On the kernel route the caller builds both kernel matrices, as LIBSVM's
precomputed kernels have it: the training Gram and each query's row of
kernel values against the training points (the harness builds the rows
from the test-by-train distances a fold's k-NN cells share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .gyroball import _rows, _same_width, pairwise_poincare_distance, pairwise_squared_distance
from .kernels import GramMatrix, KernelSpec, check_gram

# Not called here: benchmarks/tracing.py looks these names up in this module.
from .kernels import cross_kernel, gram_matrix  # noqa: F401

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


def _check_C(C: float) -> float:
    """C as a float if it is positive and finite."""
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    return float(C)


def _class_ids(labels, n: int) -> np.ndarray:
    """The multiclass label rule: n int64 class ids; a label that is not an
    integer is an error, where a cast would truncate it (1.5 -> 1)."""
    raw = np.asarray(labels)
    if raw.dtype.kind == "f" and not (np.isfinite(raw).all() and (raw == np.floor(raw)).all()):
        raise ValueError("class labels must be integers")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise ValueError(f"{n} points but {y.shape} labels")
    return y


def _signs(labels, n: int) -> np.ndarray:
    """The binary label rule: n class ids, each -1 or +1, both present, as float64."""
    y = _class_ids(labels, n)
    if set(y.tolist()) != {-1, 1}:
        raise ValueError("labels must be -1 or +1, with both classes present")
    return y.astype(np.float64)


def _meets(value, rule) -> bool:
    """Whether value meets rule; a value it cannot compare (None, a string) does not."""
    try:
        return bool(rule(value))
    except TypeError:
        return False


def _check_k(k, n=math.inf) -> int:
    """k as an int if it is a whole number in [1, n]; a cast would truncate 2.5."""
    if not _meets(k, lambda k: 1 <= k <= n and k % 1 == 0):
        raise ValueError(f"k must lie in [1, {n}] and be a whole number, got {k!r}")
    return int(k)


def _check_metric(metric: str) -> None:
    """The k-NN metric rule: one of METRIC_KINDS."""
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_KINDS}")


def _pair_matrix(queries, points, metric: str) -> np.ndarray:
    """The queries-by-points matrix a metric is read from: the Poincare
    distances, or the squared Euclidean distances, which the rbf kernel reads
    as they are and whose square roots are k-NN's Euclidean distances."""
    if metric == "poincare":
        return pairwise_poincare_distance(queries, points)
    return pairwise_squared_distance(queries, points)


def _knn_distances(pairs: np.ndarray, metric: str) -> np.ndarray:
    """k-NN's distances from a metric's ``_pair_matrix``."""
    return pairs if metric == "poincare" else np.sqrt(pairs)


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: stored training data plus k and the metric name."""

    points: np.ndarray
    labels: np.ndarray
    k: int
    metric: str


def knn_fit(points, labels, k: int, metric: str = "poincare") -> KnnModel:
    """Store the point rows and class ids verbatim; k is a whole number in [1, n]."""
    P = _rows(points, "points")
    y = _class_ids(labels, P.shape[0])
    if P.shape[0] == 0:
        raise ValueError("training set is empty")
    k = _check_k(k, P.shape[0])
    _check_metric(metric)
    return KnnModel(points=P, labels=y, k=k, metric=metric)


class KnnRanking(NamedTuple):
    """The nearest training points of each query row, a fixed depth deep.

    ``order[i]`` lists the depth nearest training indices by increasing
    distance to query i, equal distances in training index order;
    ``distances[i]`` holds those distances in that order. It is the prefix
    of the full stable ranking, so one ranking serves every k up to its
    depth over the same training set and queries.
    """

    order: np.ndarray
    distances: np.ndarray


def knn_rank(model: KnnModel, distances) -> KnnRanking:
    """Rank the model's training points model.k deep for every query row.

    ``distances`` is the queries-by-training distance matrix in the model's
    metric. Each row is partitioned at its k-th smallest distance and the k
    candidates are sorted by (distance, training index). A row where a
    training point outside the candidates ties the k-th distance is
    ranked by its stable argsort instead, so the result is always the
    prefix of the full stable ranking.
    """
    d = _rows(distances, "distances")
    if d.shape[1] != (n := model.points.shape[0]):
        raise ValueError(f"distances shape {d.shape} does not cover {n} training points")
    k = model.k
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    near = np.take_along_axis(d, part, axis=1)
    order = np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)
    # the candidates hold every distance below the k-th; a k-th distance
    # shared with a point outside them may have left a smaller index out
    kth = near.max(axis=1)
    for i in np.flatnonzero(np.count_nonzero(d <= kth[:, None], axis=1) > k):
        order[i] = np.argsort(d[i], kind="stable")[:k]
    return KnnRanking(order=order, distances=np.take_along_axis(d, order, axis=1))


def knn_predict_batch(model: KnnModel, queries, ranking: Optional[KnnRanking] = None) -> np.ndarray:
    """Majority label among the k nearest training points, per query row.

    Distance ties at the k-th rank are broken by training index order;
    vote ties by the smallest summed distance, then the smallest class id.
    ``ranking``, when given, is ``knn_rank`` of the same training points
    and queries, at least k deep, computed once and shared by several k;
    without one, the distances are computed and ranked k deep here. Votes
    and summed distances are counted for all queries at once, each sum
    added in rank order; zero query rows give an empty int64 array.
    """
    Q = _rows(queries, "queries")
    _same_width(Q, model.points)
    if ranking is None:
        pairs = _pair_matrix(Q, model.points, model.metric)
        ranking = knn_rank(model, _knn_distances(pairs, model.metric))
    elif not (
        ranking.order.shape[0] == Q.shape[0] and model.k <= ranking.order.shape[1] <= model.points.shape[0]
    ):
        raise ValueError(
            f"ranking shape {ranking.order.shape} does not rank {Q.shape[0]} queries"
            f" at least k={model.k} deep over {model.points.shape[0]} training points"
        )
    classes, codes = np.unique(model.labels, return_inverse=True)
    q, c = ranking.order.shape[0], classes.size
    # one bin per (query, class) cell; bincount adds the weights in rank order
    cells = (codes[ranking.order[:, : model.k]] + c * np.arange(q)[:, None]).ravel()
    votes = np.bincount(cells, minlength=q * c).reshape(q, c)
    sums = np.bincount(cells, ranking.distances[:, : model.k].ravel(), q * c).reshape(q, c)
    # vote tie: smallest summed distance to the query, then smallest id
    top = votes == votes.max(axis=1, keepdims=True)
    sums = np.where(top, sums, np.inf)
    return classes[np.argmax(top & (sums == sums.min(axis=1, keepdims=True)), axis=1)]


@dataclass(frozen=True)
class SvmModel:
    """Fitted binary kernel SVM (dual form).

    converged is False when the KKT residual still exceeded ``KKT_TOL`` at
    the iteration budget, or at a stall (``svm_train_smo``'s clipped pair
    step under 1e-14 C / max(1, max K_ii)); the residual is reported either
    way. psd_warning records whether any working pair exhibited negative
    curvature, a witness that the Gram is not positive semidefinite. objective_history holds the
    dual objective after each pair step, one entry per iteration. Its kernel
    and C are the caller's: ``OvrModel.kernel`` and ``SmoConfig.C``.
    """

    alphas: np.ndarray
    bias: float
    support_indices: np.ndarray
    labels: np.ndarray
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


def svm_train_smo(gram, labels, C: float = 1.0) -> SvmModel:
    """Train a binary soft-margin SVM on a precomputed Gram matrix by SMO.

    F_k = sum_m alpha_m y_m K[m,k] - y_k is maintained incrementally. Each
    iteration picks its pair by second-order working set selection (Fan,
    Chen & Lin 2005, Working Set Selection Using Second Order Information
    for Training SVM, JMLR 6; LIBSVM's rule): j = argmin F over the up
    candidates, the maximal violator from above, and i over the low
    candidates by the largest dual gain of the pair step,

        (F_t - F_j)_+^2 / max(K_jj + K_tt - 2 K_jt, 1e-12),

    the 1e-12 being the floor the pair step puts on its curvature eta, so
    an indefinite Gram still gets finite gains. It stops when
    max_low F - F_j <= ``KKT_TOL``, the maximal violation (Keerthi et al.
    2001). One iteration costs O(n); the dual objective recorded after
    each step is updated in O(1) from the pair's scalars. The up and low
    sets are built once and updated at the two indices each step changes
    (LIBSVM's per-index bound status). The budget is ``MAX_PASSES * n``
    iterations; running out is reported through converged/kkt_residual,
    not raised, as is a stall (a clipped pair step under 1e-14 C / max(1,
    max |K_ii|)). The Gram, a ``GramMatrix`` or an array, goes through
    ``check_gram``. The labels are -1 or +1, both present. The model
    keeps no kernel and no C: the caller that built the Gram knows them.
    """
    K = check_gram(gram)
    n = K.shape[0]
    y = _signs(labels, n)
    _check_C(C)

    alpha = np.zeros(n)
    F = -y.copy()
    diag = K.diagonal().copy()
    # the working sets at alpha = 0; each pair step updates its two indices
    up, low = y > 0, y < 0
    psd_warning = False
    objective = 0.0
    history = []
    stalled = False
    budget = MAX_PASSES * n
    kkt_tol = KKT_TOL
    # snap and stall are relative to C, so a tiny box still steps, and to a
    # PSD Gram's largest entry, its largest K_ii, by which the alphas shrink
    scale = C / max(1.0, float(np.abs(diag).max()))
    # rounding can leave an alpha one ulp off its bound, which would keep
    # it in the working set and jam the pair update against the box; snap
    # near-bound values to the exact bound instead
    snap = 1e-12 * scale
    # a shorter pair step has stalled
    stall = 1e-14 * scale

    def _snap(a: float) -> float:
        if a < snap:
            return 0.0
        if a > C - snap:
            return C
        return a

    while len(history) < budget:
        # neither set can be empty: that puts the positive and the negative
        # alphas at opposite bounds, against sum(y * alpha) = 0
        j = int(np.argmin(np.where(up, F, np.inf)))
        # the pair's scalars as Python floats: numpy scalar arithmetic in
        # this loop costs microseconds per iteration
        F_j, K_jj = float(F[j]), float(diag[j])
        gain = np.where(low, F, -np.inf)
        if float(gain.max()) - F_j <= kkt_tol:
            break
        # gain of each low candidate t: (F_t - F_j)_+^2 / max(a_jt, 1e-12)
        gain -= F_j
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        curvature = diag - 2.0 * K[j]
        curvature += K_jj
        gain /= np.maximum(curvature, 1e-12, out=curvature)
        i = int(np.argmax(gain))
        F_i, K_ii, K_ij = float(F[i]), float(diag[i]), float(K[i, j])
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
        if abs(a_j_new - a_j) < stall:
            # the clipped step is under stall, whether the box blocks it or it is that short
            stalled = True
            break
        a_i_new = _snap(min(max(a_i - y_i * y_j * (a_j_new - a_j), 0.0), C))
        d_i, d_j = a_i_new - a_i, a_j_new - a_j
        F += d_i * y_i * K[i, :] + d_j * y_j * K[j, :]
        alpha[i], alpha[j] = a_i_new, a_j_new
        for k, y_k, a in ((i, y_i, a_i_new), (j, y_j, a_j_new)):
            # up: y_k alpha_k can still grow; low: it can still shrink
            up[k], low[k] = (a < C, a > 0.0) if y_k > 0 else (a > 0.0, a < C)
        # exact change of W over the two coordinates, from F before the step
        objective += -(y_i * F_i * d_i + y_j * F_j * d_j) - 0.5 * (
            K_ii * d_i * d_i + K_jj * d_j * d_j + 2.0 * y_i * y_j * K_ij * d_i * d_j
        )
        history.append(objective)

    b_up = float(F[up].min())
    b_low = float(F[low].max())
    residual = max(b_low - b_up, 0.0)
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
        converged=converged,
        kkt_residual=residual,
        dual_objective=_dual_objective(alpha, y, F),
        psd_warning=psd_warning,
        n_iter=len(history),
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
    The vectors are point rows; the labels are -1 or +1, both present.
    """
    X = _rows(vectors, "vectors")
    y = _signs(labels, X.shape[0])
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
        object.__setattr__(self, "C", _check_C(self.C))


@dataclass(frozen=True)
class LinearPrimalConfig:
    """One-vs-rest trainer config for the primal linear route."""

    C: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "C", _check_C(self.C))


@dataclass(frozen=True)
class OvrModel:
    """One binary model per class id, over a shared training representation.

    kernel, set only on the kernel route, is the one kernel every binary
    model was trained and decides with; a decision there reads each query's
    kernel row against the training points, not the query itself.
    """

    classes: np.ndarray
    models: tuple
    kernel: Optional[KernelSpec] = None


def ovr_train(train, labels, config: SmoConfig | LinearPrimalConfig) -> OvrModel:
    """Train one binary classifier per class (that class vs. the rest) on the
    training point rows, or on the kernel route on their Gram, wrapped once
    in a ``GramMatrix`` so that every class's SMO reads it unchecked."""
    if isinstance(config, SmoConfig):
        data = GramMatrix(train)
        n, fit, kernel = data.entries.shape[0], svm_train_smo, config.kernel
    elif isinstance(config, LinearPrimalConfig):
        data = _rows(train, "points")
        n, fit, kernel = data.shape[0], linear_svm_primal_train, None
    else:
        raise TypeError(f"unsupported trainer config {type(config).__name__}")
    y = _class_ids(labels, n)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("one-vs-rest needs at least 2 classes")
    # one binary problem per class: that class +1, the rest -1
    models = tuple(fit(data, np.where(y == c, 1.0, -1.0), C=config.C) for c in classes)
    return OvrModel(classes=classes, models=models, kernel=kernel)


def ovr_decision(model: OvrModel, queries) -> np.ndarray:
    """Decision-value matrix, one row per query and one column per class.

    On the kernel route each query is its row of kernel values against the
    training points, ``cross_kernel(query_points, train_points,
    model.kernel)``, one entry per training point; on the linear route it
    is the query's point row. Either way a class's column is the rows'
    product with its model's ``alphas * labels`` or ``weights``, plus its bias.
    """
    Q = _rows(queries, "queries")
    coefs = [m.alphas * m.labels if model.kernel is not None else m.weights for m in model.models]
    _same_width(Q, coefs[0])
    return np.stack([Q @ w + m.bias for w, m in zip(coefs, model.models)], axis=1)


def ovr_predict(model: OvrModel, queries) -> np.ndarray:
    """Argmax class per query row, as ``ovr_decision`` takes it; exact ties
    go to the smallest class id."""
    scores = ovr_decision(model, queries)
    # argmax returns the first maximum and classes are sorted ascending
    return model.classes[np.argmax(scores, axis=1)]
