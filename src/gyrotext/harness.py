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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .classify import (
    LinearPrimalConfig,
    SmoConfig,
    knn_fit,
    knn_predict_batch,
    knn_rank,
    ovr_predict,
    ovr_train,
)
from .composition import METHODS
from .corpus import compose_corpus, corpus_points, load_corpus, load_embeddings

# Not called here: benchmarks/tracing.py looks this name up in this module.
from .corpus import represent_corpus  # noqa: F401

__all__ = [
    "SplitSpec",
    "KnnSpec",
    "ExperimentConfig",
    "EvalReport",
    "ResultRow",
    "ResultsTable",
    "split",
    "evaluate",
    "run_experiment",
    "emit_table",
]

CSV_HEADER = ("embedding", "composition", "classifier", "params", "accuracy", "micro_f1", "runtime_s")


@dataclass(frozen=True)
class SplitSpec:
    """Stratified evaluation protocol: holdout (train ratio) or k-fold."""

    kind: str = "holdout"
    ratio: float = 0.8
    folds: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ("holdout", "kfold"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind == "holdout" and not (0.0 < self.ratio < 1.0):
            raise ValueError(f"holdout ratio must lie in (0, 1), got {self.ratio}")
        if self.kind == "kfold" and self.folds < 2:
            raise ValueError(f"k-fold needs at least 2 folds, got {self.folds}")


@dataclass(frozen=True)
class KnnSpec:
    """k-NN grid cell family: one cell per k, all sharing the metric."""

    ks: tuple = (3, 5, 7, 9, 11)
    metric: str = "poincare"

    def __post_init__(self):
        if len(self.ks) == 0 or any(k < 1 for k in self.ks):
            raise ValueError(f"ks must be a non-empty list of positive ints, got {self.ks}")


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
        if len(self.methods) == 0:
            raise ValueError("at least one composition method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown composition methods {unknown}; expected from {METHODS}")
        if self.knn is None and self.svm is None and self.linear_svm is None:
            raise ValueError("at least one classifier is required")


def split(labels, spec: SplitSpec):
    """Stratified partitions of range(len(labels)): a list of (train, test) pairs.

    Holdout yields one pair; k-fold yields one pair per fold. Within each
    class the indices are shuffled by a generator seeded from the spec, so
    identical inputs give identical partitions. Holdout draws
    floor(n_c * (1 - ratio) + 0.5) test members per class, keeping at
    least one training member.
    """
    y = np.asarray(labels)
    if y.shape[0] == 0:
        raise ValueError("no labels to split")
    rng = np.random.default_rng(spec.seed)
    per_class = [np.flatnonzero(y == c) for c in np.unique(y)]

    if spec.kind == "holdout":
        train, test = [], []
        for idx in per_class:
            perm = rng.permutation(idx)
            n_test = int(np.floor(idx.size * (1.0 - spec.ratio) + 0.5))
            n_test = min(max(n_test, 0), idx.size - 1)
            test.append(perm[:n_test])
            train.append(perm[n_test:])
        return [(np.sort(np.concatenate(train)), np.sort(np.concatenate(test)))]

    for idx in per_class:
        if idx.size < spec.folds:
            raise ValueError(
                f"class {y[idx[0]]!r} has {idx.size} members, fewer than {spec.folds} folds"
            )
    assignments = [rng.permutation(idx) for idx in per_class]
    pairs = []
    for f in range(spec.folds):
        test = np.sort(np.concatenate([perm[f :: spec.folds] for perm in assignments]))
        mask = np.ones(y.shape[0], dtype=bool)
        mask[test] = False
        pairs.append((np.flatnonzero(mask), test))
    return pairs


@dataclass(frozen=True)
class EvalReport:
    """Accuracy and micro-F1 with the confusion matrix they came from.

    micro-F1 is computed independently through global precision/recall
    and asserted equal to accuracy, the single-label multiclass identity.
    """

    accuracy: float
    micro_f1: float
    confusion: np.ndarray
    classes: np.ndarray
    n_test: int


def evaluate(predictions, gold) -> EvalReport:
    pred = np.asarray(predictions)
    true = np.asarray(gold)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: predictions {pred.shape} vs gold {true.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("nothing to evaluate")
    classes = np.unique(np.concatenate([true, pred]))
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    for t, p in zip(true, pred):
        confusion[index[t], index[p]] += 1
    accuracy = float(np.trace(confusion)) / n

    # micro-F1 from global confusion counts: tp over the diagonal, every
    # miss is simultaneously a false positive and a false negative
    tp = float(np.trace(confusion))
    fp = n - tp
    fn = n - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    micro_f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert abs(micro_f1 - accuracy) < 1e-12
    return EvalReport(
        accuracy=accuracy,
        micro_f1=micro_f1,
        confusion=confusion,
        classes=classes,
        n_test=n,
    )


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


def _run_cell(spec, config, X, y, pairs, rankings):
    """Mean accuracy of one cell over the folds.

    ``rankings`` maps a fold to its query-by-training k-NN ranking. The
    first k-NN cell of a method computes and stores it; the later ones only
    vote from its sorted prefix.
    """
    accs = []
    for fold, (train, test) in enumerate(pairs):
        if isinstance(spec, (SmoConfig, LinearPrimalConfig)):
            preds = ovr_predict(ovr_train(X[train], y[train], spec), X[test])
        else:
            model = knn_fit(X[train], y[train], spec, config.knn.metric)
            if fold not in rankings:
                rankings[fold] = knn_rank(model, X[test])
            preds = knn_predict_batch(model, X[test], rankings[fold])
        accs.append(evaluate(preds, y[test]).accuracy)
    return float(np.mean(accs))


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Execute the full (composition x classifier) grid.

    The corpus is tokenized and looked up once; every method composes
    from those points, and its representations are shared by its cells,
    as is each fold's k-NN ranking by its k-NN cells. The split is
    computed once from the corpus labels and reused everywhere, so cells
    are comparable. Cell failures are captured in the row's error field;
    remaining cells still run.
    """
    table, _ = load_embeddings(config.embeddings_path, config.flavor)
    corpus, _ = load_corpus(config.corpus_path)
    points = corpus_points(corpus, table)
    label_names = sorted(corpus.label_set)
    label_id = {name: i for i, name in enumerate(label_names)}
    y = np.array([label_id[label] for label, _ in corpus.records], dtype=np.int64)
    pairs = split(y, config.split)
    cells = _classifier_cells(config)

    rows = []

    def empty_row(method, classifier, params, exc=None):
        # NA row without an error (flavor rule), error row with one
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        return ResultRow(config.flavor, method, classifier, params, None, None, None, error)

    for method in config.methods:
        if config.flavor == "euclidean" and method != "emean":
            # hyperbolic composition of unconstrained vectors is undefined
            rows.extend(empty_row(method, c, p) for c, p, _ in cells)
            continue
        try:
            X = compose_corpus(points, method)
        except Exception as exc:
            rows.extend(empty_row(method, c, p, exc) for c, p, _ in cells)
            continue
        rankings = {}
        for classifier, params, spec in cells:
            start = time.perf_counter()
            try:
                acc = _run_cell(spec, config, X, y, pairs, rankings)
            except Exception as exc:
                rows.append(empty_row(method, classifier, params, exc))
                continue
            elapsed = time.perf_counter() - start
            rows.append(
                ResultRow(config.flavor, method, classifier, params, acc, acc, elapsed)
            )
    return ResultsTable(rows=tuple(rows))


def _cell_str(value):
    return "NA" if value is None else repr(value)


def emit_table(results: ResultsTable, fmt: str, destination) -> None:
    """Write the results table as CSV or JSON; NA cells emit the literal NA."""
    if fmt == "csv":
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in results.rows:
                writer.writerow(
                    [
                        r.embedding,
                        r.composition,
                        r.classifier,
                        r.params,
                        _cell_str(r.accuracy),
                        _cell_str(r.micro_f1),
                        _cell_str(r.runtime_s),
                    ]
                )
    elif fmt == "json":
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results.rows], fh, indent=2, ensure_ascii=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
