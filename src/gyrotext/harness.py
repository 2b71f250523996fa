"""Experiment harness: splits, metrics, grid execution, results tables.

A grid run crosses composition methods with classifier cells (one k-NN
cell per k, one kernel-SVM cell, one linear-SVM cell) on a fixed
stratified split. Hyperbolic compositions are only defined for
poincare-flavor embeddings; on euclidean flavor those cells are emitted
as NA rows, mirroring the NA cells of the reference result tables.
Failures are isolated per cell: a diverging trainer yields an error row,
not an aborted run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import kernels
from .classify import (
    LinearPrimalConfig,
    SmoConfig,
    _check_k,
    _check_metric,
    _knn_distances,
    _meets,
    _pair_matrix,
    knn_fit,
    knn_predict_batch,
    knn_rank,
    ovr_predict,
    ovr_train,
)
from .composition import _check_methods, _passes, _repeated, compose_batch
from .corpus import _check_flavor, corpus_points, load_corpus, load_embeddings

# Not called here: benchmarks/tracing.py looks this name up in this module.
from .corpus import represent_corpus  # noqa: F401

__all__ = [
    "SplitSpec",
    "SplitError",
    "KnnSpec",
    "ExperimentConfig",
    "ResultRow",
    "ResultsTable",
    "split",
    "evaluate",
    "run_experiment",
    "emit_table",
]

CSV_HEADER = ("embedding", "composition", "classifier", "params", "accuracy", "micro_f1", "runtime_s")


def _check_seed(seed) -> int:
    """The seed rule: seed as an int if it is a non-negative whole number."""
    if not _meets(seed, lambda s: s >= 0 and s % 1 == 0):
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class SplitSpec:
    """Stratified evaluation protocol: holdout (train ratio) or k-fold,
    seeded by a non-negative whole number, stored as an int (7.0 is 7)."""

    kind: str = "holdout"
    ratio: float = 0.8
    folds: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ("holdout", "kfold"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        # both fields are checked whatever the kind, so that no spec holds a
        # value its rule refuses
        if not _meets(self.ratio, lambda r: 0.0 < r < 1.0):
            raise ValueError(f"holdout ratio must lie in (0, 1), got {self.ratio}")
        # k's whole-number rule: 2.5 is refused, 3.0 is stored as 3
        if not _meets(self.folds, lambda f: f % 1 == 0):
            raise ValueError(f"k-fold needs a whole number of folds, got {self.folds!r}")
        if self.folds < 2:
            raise ValueError(f"k-fold needs at least 2 folds, got {self.folds}")
        object.__setattr__(self, "folds", int(self.folds))
        object.__setattr__(self, "seed", _check_seed(self.seed))


class SplitError(ValueError):
    """The labels cannot be split as the ``SplitSpec`` asks."""


@dataclass(frozen=True)
class KnnSpec:
    """k-NN grid cell family: one cell per k, all sharing the metric.

    The default metric, None, is the embedding flavor's: ``ExperimentConfig``
    puts the flavor's name in its place, as ``--knn-metric`` does.
    """

    ks: tuple = (3, 5, 7, 9, 11)
    metric: Optional[str] = None

    def __post_init__(self):
        if len(self.ks) == 0:
            raise ValueError("ks must be a non-empty list of positive ints")
        ks = tuple(_check_k(k) for k in self.ks)
        # a repeated k would write its cells twice, under one key
        if repeated := _repeated(self.ks):
            raise ValueError(f"k repeated: {repeated}")
        # stored as ints, so that 3.0 and 3 write one row key
        object.__setattr__(self, "ks", ks)
        if self.metric is not None:
            _check_metric(self.metric)


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: str
    embeddings_path: str
    flavor: str
    methods: tuple
    knn: Optional[KnnSpec] = None
    svm: Optional[SmoConfig] = None
    linear_svm: Optional[LinearPrimalConfig] = None
    split: SplitSpec = SplitSpec()

    def __post_init__(self):
        _check_flavor(self.flavor)
        if self.knn is not None and self.knn.metric is None:
            # the flavor names are the metric names
            object.__setattr__(self, "knn", replace(self.knn, metric=self.flavor))
        # stored as a tuple, so that the frozen config hashes
        object.__setattr__(self, "methods", _check_methods(self.methods))
        if self.knn is None and self.svm is None and self.linear_svm is None:
            raise ValueError("at least one classifier is required")


def _composable(flavor: str, method: str) -> bool:
    """The flavor rule: the hyperbolic schemes need ball points, so only
    emean is defined on euclidean-flavor (unconstrained) vectors."""
    return flavor == "poincare" or method == "emean"


def split(labels, spec: SplitSpec):
    """Stratified partitions of range(len(labels)): a list of (train, test) pairs.

    Holdout yields one pair; k-fold yields one pair per fold. Within each
    class the indices are shuffled by a generator seeded from the spec, so
    identical inputs give identical partitions. Holdout draws
    floor(n_c * (1 - ratio) + 0.5) test members per class, keeping at
    least one training member, and raises ``SplitError`` when that draws
    none at all; k-fold raises it when a class has fewer members than folds.
    The labels are taken as an object array and each class's members found
    by its id, since a str array or a str compared with one would drop
    trailing NULs and merge two classes.
    """
    y = np.asarray(labels, dtype=object)
    if y.shape[0] == 0:
        raise ValueError("no labels to split")
    classes, ids = np.unique(y, return_inverse=True)
    per_class = [np.flatnonzero(ids == c) for c in range(classes.size)]
    if spec.kind == "kfold":
        for c, idx in zip(classes.tolist(), per_class):
            if idx.size < spec.folds:
                raise SplitError(f"class {c!r} has {idx.size} members, fewer than {spec.folds} folds")
    rng = np.random.default_rng(spec.seed)
    perms = [rng.permutation(idx) for idx in per_class]
    if spec.kind == "holdout":
        sizes = [min(int(np.floor(perm.size * (1.0 - spec.ratio) + 0.5)), perm.size - 1) for perm in perms]
        if not any(sizes):
            raise SplitError(f"holdout ratio {spec.ratio} leaves no test documents")
        folds = [[perm[:n] for perm, n in zip(perms, sizes)]]
    else:
        folds = [[perm[f :: spec.folds] for perm in perms] for f in range(spec.folds)]
    everything = np.arange(y.shape[0])
    tests = [np.sort(np.concatenate(parts)) for parts in folds]
    return [(np.setdiff1d(everything, test, assume_unique=True), test) for test in tests]


def evaluate(predictions, gold) -> float:
    """Accuracy: the fraction of predictions equal to their gold label.

    In single-label classification it is also the micro-F1: every miss is
    one false positive and one false negative, so TP + FP = TP + FN = n
    and precision = recall = accuracy.
    """
    pred = np.asarray(predictions)
    true = np.asarray(gold)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: predictions {pred.shape} vs gold {true.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("nothing to evaluate")
    return float(np.count_nonzero(pred == true)) / n


@dataclass(frozen=True)
class ResultRow:
    """One grid cell. Metrics are None for NA cells (flavor rule) and on error."""

    embedding: str
    composition: str
    classifier: str
    params: str
    accuracy: Optional[float]
    micro_f1: Optional[float]
    runtime_s: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple

    @property
    def errors(self):
        return [r for r in self.rows if r.error is not None]


def _classifier_cells(config: ExperimentConfig):
    """(classifier, params, spec) per cell: spec is k for a k-NN cell and
    the trainer config for an SVM cell."""
    cells = []
    if config.knn is not None:
        for k in config.knn.ks:
            cells.append(("knn", f"k={k},metric={config.knn.metric}", k))
    if config.svm is not None:
        s = config.svm
        params = f"kernel={s.kernel.kind},lambda={s.kernel.lam!r},q={s.kernel.q!r},C={s.C!r}"
        cells.append(("svm", params, s))
    if config.linear_svm is not None:
        cells.append(("linear-svm", f"C={config.linear_svm.C!r}", config.linear_svm))
    return cells


# the k-NN metric whose test-by-train matrix each exp kernel reads
_KERNEL_METRIC = {"geodesic": "poincare", "euclidean_rbf": "euclidean"}


def _fold_matrix(shared, metric, X_tr, X_te):
    """The fold's test-by-train ``_pair_matrix`` for a metric, made on first use."""
    if metric not in shared:
        shared[metric] = _pair_matrix(X_te, X_tr, metric)
    return shared[metric]


def _run_cell(spec, config, folds):
    """Mean accuracy of one cell over a method's fold records.

    A record ``(X_tr, y_tr, X_te, y_te, shared)`` holds a fold's blocks,
    sliced once for the method's cells, which no callee writes into, and
    what they share there, each entry made by the first cell that needs
    it: per metric the test-by-train ``_pair_matrix``, which the k-NN
    ranking and the SVM's kernel rows read, and the k-NN "ranking",
    min(max(ks), n_train) deep, whose prefix every k-NN cell votes from.
    The kernel SVM's Gram and kernel rows are both built here.
    """
    accs = []
    for X_tr, y_tr, X_te, y_te, shared in folds:
        if isinstance(spec, LinearPrimalConfig):
            preds = ovr_predict(ovr_train(X_tr, y_tr, spec), X_te)
        elif isinstance(spec, SmoConfig):
            kernel = spec.kernel
            if np.unique(y_tr).size < 2:  # ovr_train's rule, before an n x n Gram
                raise ValueError("one-vs-rest needs at least 2 classes")
            # through the module, whose gram_matrix benchmarks/tracing.py wraps
            model = ovr_train(kernels.gram_matrix(X_tr, kernel), y_tr, spec)
            if kernel.kind in _KERNEL_METRIC:
                matrix = _fold_matrix(shared, _KERNEL_METRIC[kernel.kind], X_tr, X_te)
                # a copy: _exp_kernel overwrites its matrix, and this one is shared
                queries = kernels._exp_kernel(matrix.copy(), kernel)
            else:
                queries = kernels.cross_kernel(X_te, X_tr, kernel)
            preds = ovr_predict(model, queries)
        else:
            metric = config.knn.metric
            model = knn_fit(X_tr, y_tr, spec, metric)
            if "ranking" not in shared:
                distances = _knn_distances(_fold_matrix(shared, metric, X_tr, X_te), metric)
                deepest = replace(model, k=min(max(config.knn.ks), len(X_tr)))
                shared["ranking"] = knn_rank(deepest, distances)
            preds = knn_predict_batch(model, X_te, shared["ranking"])
        accs.append(evaluate(preds, y_te))
    return float(np.mean(accs))


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Execute the full (composition x classifier) grid.

    The corpus is tokenized and looked up once, and every method composes
    from those points: one ``compose_batch`` call per pass of ``_passes``,
    so lcf, lcb and lca share one fold, and every pass composes once,
    before any cell runs. A method's cells share its fold records, sliced
    once before any cell's ``runtime_s`` starts, and so each fold's
    test-by-train distances (by k-NN and the kernel SVM) and its k-NN
    ranking (by the k-NN cells). The split is computed once from the
    corpus labels and reused everywhere, so cells are comparable. Cell
    failures are captured in the row's error field; remaining cells still
    run. A failing pass gives error rows to the methods it composes; the
    other methods' rows are unchanged.
    """
    table, _ = load_embeddings(config.embeddings_path, config.flavor)
    corpus, _ = load_corpus(config.corpus_path)
    points = corpus_points(corpus, table)
    # split by name, so that an error names the class as the corpus writes
    # it; object dtype, as a fixed-width str array drops trailing NULs
    labels = np.array([label for label, _ in corpus.records], dtype=object)
    y = np.unique(labels, return_inverse=True)[1]
    pairs = split(labels, config.split)
    cells = _classifier_cells(config)

    rows = []

    def empty_row(method, classifier, params, exc=None):
        # NA row without an error (flavor rule), error row with one
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        return ResultRow(config.flavor, method, classifier, params, None, None, None, error)

    blocks = {}
    for group in _passes([m for m in config.methods if _composable(config.flavor, m)]):
        try:
            blocks.update(compose_batch(group, points.batch))
        except Exception as exc:
            blocks.update(dict.fromkeys(group, exc))
    for method in config.methods:
        # a method's block is let go once its cells have run
        X = blocks.pop(method, None)
        if not isinstance(X, np.ndarray):
            # no block: NA rows by the flavor rule; an exception: error rows
            rows.extend(empty_row(method, c, p, X) for c, p, _ in cells)
            continue
        folds = [(X[train], y[train], X[test], y[test], {}) for train, test in pairs]
        for classifier, params, spec in cells:
            start = time.perf_counter()
            try:
                acc = _run_cell(spec, config, folds)
            except Exception as exc:
                rows.append(empty_row(method, classifier, params, exc))
                continue
            elapsed = time.perf_counter() - start
            rows.append(
                ResultRow(config.flavor, method, classifier, params, acc, acc, elapsed)
            )
    return ResultsTable(rows=tuple(rows))


def _cell_str(value):
    if value is None:
        return "NA"
    return value if isinstance(value, str) else repr(value)


def emit_table(results: ResultsTable, fmt: str, destination) -> None:
    """Write the results table as CSV or JSON; NA cells emit the literal NA."""
    if fmt == "csv":
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows([_cell_str(getattr(r, c)) for c in CSV_HEADER] for r in results.rows)
    elif fmt == "json":
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results.rows], fh, indent=2, ensure_ascii=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
