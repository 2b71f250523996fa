import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from gyrotext import corpus as corpus_module
from gyrotext import harness
from gyrotext.classify import LinearPrimalConfig, SmoConfig, knn_fit, knn_predict_batch
from gyrotext.corpus import load_corpus, load_embeddings, represent_corpus
from gyrotext.harness import (
    CSV_HEADER,
    EvalReport,
    ExperimentConfig,
    KnnSpec,
    ResultRow,
    ResultsTable,
    SplitSpec,
    emit_table,
    evaluate,
    run_experiment,
    split,
)
from gyrotext.kernels import KernelSpec


def tiny_files(tmp_path, labels=("red", "blue"), docs_per_class=6):
    """Two well-separated token clusters and a corpus built from them."""
    emb_lines = []
    anchors = {"red": (0.5, 0.0), "blue": (-0.5, 0.0)}
    tokens = {}
    for lab in labels:
        ax, ay = anchors.get(lab, (0.0, 0.5))
        tokens[lab] = [f"{lab}{i}" for i in range(6)]
        for i, tok in enumerate(tokens[lab]):
            emb_lines.append(f"{tok} {ax + 0.01 * i!r} {ay + 0.01 * i!r}")
    emb = tmp_path / "emb.txt"
    emb.write_text("\n".join(emb_lines) + "\n", encoding="utf-8")
    cor_lines = []
    rng = np.random.default_rng(3)
    for lab in labels:
        for _ in range(docs_per_class):
            words = rng.choice(tokens[lab], size=4)
            cor_lines.append(lab + "\t" + " ".join(words))
    cor = tmp_path / "corpus.tsv"
    cor.write_text("\n".join(cor_lines) + "\n", encoding="utf-8")
    return str(emb), str(cor)


# ------------------------------------------------------------ config types


def test_split_spec_validation():
    SplitSpec()
    SplitSpec(kind="kfold", folds=2)
    with pytest.raises(ValueError):
        SplitSpec(kind="bootstrap")
    with pytest.raises(ValueError):
        SplitSpec(ratio=1.0)
    with pytest.raises(ValueError):
        SplitSpec(ratio=0.0)
    with pytest.raises(ValueError):
        SplitSpec(kind="kfold", folds=1)


def test_knn_spec_validation():
    KnnSpec(ks=(1,))
    with pytest.raises(ValueError):
        KnnSpec(ks=())
    with pytest.raises(ValueError):
        KnnSpec(ks=(3, 0))


def test_experiment_config_validation():
    ok = ExperimentConfig(
        corpus_path="c",
        embeddings_path="e",
        flavor="poincare",
        methods=("emean",),
        knn=KnnSpec(),
    )
    assert ok.split.kind == "holdout"
    with pytest.raises(ValueError):
        ExperimentConfig("c", "e", "poincare", methods=(), knn=KnnSpec())
    with pytest.raises(ValueError):
        ExperimentConfig("c", "e", "poincare", methods=("centroid",), knn=KnnSpec())
    with pytest.raises(ValueError):
        ExperimentConfig("c", "e", "poincare", methods=("emean",))


# ------------------------------------------------------------------- split


def test_holdout_split_is_stratified():
    labels = ["a"] * 5 + ["b"] * 5
    [(train, test)] = split(labels, SplitSpec(seed=7))
    assert train.size == 8 and test.size == 2
    y = np.asarray(labels)
    assert sorted(y[test]) == ["a", "b"]
    # disjoint and exhaustive
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))


def test_holdout_split_deterministic():
    labels = list("aabbbabababab")
    first = split(labels, SplitSpec(seed=11))
    second = split(labels, SplitSpec(seed=11))
    assert np.array_equal(first[0][0], second[0][0])
    assert np.array_equal(first[0][1], second[0][1])
    third = split(labels, SplitSpec(seed=12))
    assert not np.array_equal(first[0][1], third[0][1])


def test_holdout_always_keeps_a_training_member():
    labels = ["a", "a", "a", "b", "b", "b"]
    [(train, test)] = split(labels, SplitSpec(ratio=0.01))
    y = np.asarray(labels)
    assert sorted(set(y[train])) == ["a", "b"]
    assert train.size == 2 and test.size == 4


def test_kfold_split_partitions():
    labels = np.repeat([0, 1, 2], 4)
    pairs = split(labels, SplitSpec(kind="kfold", folds=4, seed=5))
    assert len(pairs) == 4
    all_test = np.concatenate([test for _, test in pairs])
    assert np.array_equal(np.sort(all_test), np.arange(12))
    for train, test in pairs:
        assert np.intersect1d(train, test).size == 0
        assert sorted(labels[test]) == [0, 1, 2]


def test_kfold_small_class_raises():
    labels = [0] * 4 + [1] * 10
    with pytest.raises(ValueError, match="fewer than"):
        split(labels, SplitSpec(kind="kfold", folds=5))


def test_split_empty_raises():
    with pytest.raises(ValueError):
        split([], SplitSpec())


# ---------------------------------------------------------------- evaluate


def test_evaluate_examples():
    assert evaluate([1, 2, 3], [1, 2, 3]).accuracy == 1.0
    assert evaluate([1, 1, 1], [2, 2, 2]).accuracy == 0.0
    report = evaluate([0, 1, 1, 2], [0, 0, 1, 2])
    assert report.accuracy == 0.75
    assert report.micro_f1 == 0.75
    assert report.n_test == 4


def test_evaluate_micro_f1_identity_holds():
    rng = np.random.default_rng(60)
    for _ in range(25):
        gold = rng.integers(0, 5, size=40)
        pred = rng.integers(0, 5, size=40)
        report = evaluate(pred, gold)
        assert report.micro_f1 == pytest.approx(report.accuracy, abs=1e-12)


def test_evaluate_confusion_matrix():
    report = evaluate([0, 1, 1, 2], [0, 0, 1, 2])
    assert report.classes.tolist() == [0, 1, 2]
    expect = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(report.confusion, expect)
    assert report.confusion.sum() == report.n_test


def test_evaluate_handles_unseen_predicted_class():
    report = evaluate([0, 9], [0, 1])
    assert report.classes.tolist() == [0, 1, 9]
    assert report.accuracy == 0.5


def test_evaluate_errors():
    with pytest.raises(ValueError):
        evaluate([1, 2], [1])
    with pytest.raises(ValueError):
        evaluate([], [])


# ---------------------------------------------------------- run_experiment


def full_config(emb, cor, flavor="poincare", methods=("emean", "lcf", "bnw")):
    return ExperimentConfig(
        corpus_path=cor,
        embeddings_path=emb,
        flavor=flavor,
        methods=methods,
        knn=KnnSpec(ks=(1, 3)),
        svm=SmoConfig(kernel=KernelSpec("geodesic")),
        linear_svm=LinearPrimalConfig(),
    )


def test_run_experiment_grid_completeness(tmp_path):
    emb, cor = tiny_files(tmp_path)
    results = run_experiment(full_config(emb, cor))
    # cells: knn k=1, knn k=3, svm, linear-svm = 4 per method
    assert len(results.rows) == 3 * 4
    assert not results.errors
    for row in results.rows:
        assert row.accuracy is not None
        assert row.micro_f1 == row.accuracy
        assert row.runtime_s > 0 and np.isfinite(row.runtime_s)
    # clean separation: every cell classifies the toy corpus perfectly
    assert all(row.accuracy == 1.0 for row in results.rows)


def test_run_experiment_euclidean_na_rows(tmp_path):
    emb, cor = tiny_files(tmp_path)
    results = run_experiment(full_config(emb, cor, flavor="euclidean"))
    by_method = {}
    for row in results.rows:
        by_method.setdefault(row.composition, []).append(row)
    for row in by_method["lcf"] + by_method["bnw"]:
        assert row.accuracy is None and row.error is None
    for row in by_method["emean"]:
        assert row.accuracy is not None
    assert len(results.rows) == 3 * 4


def test_run_experiment_error_isolation(tmp_path):
    # single-class corpus: k-NN still works, one-vs-rest trainers cannot
    emb, cor = tiny_files(tmp_path, labels=("red",))
    results = run_experiment(full_config(emb, cor, methods=("emean",)))
    by_classifier = {row.classifier: row for row in results.rows}
    assert by_classifier["knn"].error is None
    assert by_classifier["svm"].error is not None
    assert by_classifier["svm"].accuracy is None
    assert by_classifier["linear-svm"].error is not None
    assert len(results.errors) == 2


def test_run_experiment_isolates_a_failing_composition(tmp_path, monkeypatch):
    # a method whose composition raises gets one error row per cell; the
    # other methods' rows are those of an unpatched run
    emb, cor = tiny_files(tmp_path)
    config = full_config(emb, cor)
    clean = run_experiment(config)
    real = harness.compose_corpus

    def compose_corpus(points, method):
        if method == "lcf":
            raise RuntimeError("composition broke")
        return real(points, method)

    monkeypatch.setattr(harness, "compose_corpus", compose_corpus)
    broken = run_experiment(config)
    assert len(broken.rows) == len(clean.rows) == 3 * 4
    assert len(broken.errors) == 4
    for got, want in zip(broken.rows, clean.rows):
        cell = (got.embedding, got.composition, got.classifier, got.params)
        assert cell == (want.embedding, want.composition, want.classifier, want.params)
        if got.composition == "lcf":
            assert got.error == "RuntimeError: composition broke"
            assert (got.accuracy, got.micro_f1, got.runtime_s) == (None, None, None)
        else:
            assert replace(got, runtime_s=None) == replace(want, runtime_s=None)


def test_run_experiment_deterministic_modulo_runtime(tmp_path):
    emb, cor = tiny_files(tmp_path)
    a = run_experiment(full_config(emb, cor))
    b = run_experiment(full_config(emb, cor))
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.embedding, ra.composition, ra.classifier, ra.params) == (
            rb.embedding,
            rb.composition,
            rb.classifier,
            rb.params,
        )
        assert ra.accuracy == rb.accuracy and ra.micro_f1 == rb.micro_f1
        assert ra.error == rb.error


def test_run_experiment_kfold(tmp_path):
    emb, cor = tiny_files(tmp_path)
    config = ExperimentConfig(
        corpus_path=cor,
        embeddings_path=emb,
        flavor="poincare",
        methods=("lca",),
        knn=KnnSpec(ks=(1,)),
        split=SplitSpec(kind="kfold", folds=3, seed=1),
    )
    results = run_experiment(config)
    assert len(results.rows) == 1
    assert results.rows[0].accuracy == 1.0


def test_run_experiment_synth_corpus(synth_files):
    emb, cor = synth_files
    config = ExperimentConfig(
        corpus_path=str(cor),
        embeddings_path=str(emb),
        flavor="poincare",
        methods=("lca",),
        knn=KnnSpec(ks=(5,)),
    )
    results = run_experiment(config)
    assert len(results.rows) == 1
    assert results.rows[0].accuracy >= 0.9


# ------------------------------------------------------------- emit_table


def sample_table():
    return ResultsTable(
        rows=(
            ResultRow("poincare", "lcf", "knn", "k=3,metric=poincare", 0.9125, 0.9125, 0.0625),
            ResultRow("euclidean", "lcf", "knn", "k=3,metric=poincare", None, None, None),
        )
    )


def test_emit_table_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_table(ResultsTable(rows=()), "csv", out)
    assert out.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"


def test_emit_table_rows_and_na(tmp_path):
    out = tmp_path / "r.csv"
    emit_table(sample_table(), "csv", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_HEADER)
    assert rows[1][:4] == ["poincare", "lcf", "knn", "k=3,metric=poincare"]
    assert rows[1][4] == "0.9125"
    assert rows[2][4:] == ["NA", "NA", "NA"]


def test_emit_table_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_table(sample_table(), "csv", a)
    emit_table(sample_table(), "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_table_json_matches_csv_values(tmp_path):
    table = sample_table()
    c, j = tmp_path / "t.csv", tmp_path / "t.json"
    emit_table(table, "csv", c)
    emit_table(table, "json", j)
    payload = json.loads(j.read_text(encoding="utf-8"))
    with open(c, newline="", encoding="utf-8") as fh:
        csv_rows = list(csv.reader(fh))[1:]
    assert len(payload) == len(csv_rows) == 2
    for jrow, crow in zip(payload, csv_rows):
        assert jrow["embedding"] == crow[0]
        assert jrow["params"] == crow[3]
        if jrow["accuracy"] is None:
            assert crow[4] == "NA"
        else:
            assert float(crow[4]) == jrow["accuracy"]


def test_emit_table_params_quoted_roundtrip(tmp_path):
    # params contain commas, so the CSV layer must quote them
    out = tmp_path / "q.csv"
    emit_table(sample_table(), "csv", out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert all(len(r) == len(CSV_HEADER) for r in rows)


def test_emit_table_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_table(sample_table(), "xml", tmp_path / "t.xml")


def test_run_experiment_tokenizes_corpus_once(tmp_path, monkeypatch):
    # every method composes from one tokenize + lookup pass over the corpus
    emb, cor = tiny_files(tmp_path)
    calls = []
    real = corpus_module.tokenize
    monkeypatch.setattr(corpus_module, "tokenize", lambda *a, **k: calls.append(1) or real(*a, **k))
    config = ExperimentConfig(
        corpus_path=cor,
        embeddings_path=emb,
        flavor="poincare",
        methods=("emean", "lcf", "lca", "bnw"),
        knn=KnnSpec(ks=(1, 3)),
    )
    results = run_experiment(config)
    assert not results.errors
    assert len(calls) == 12  # the corpus holds 12 documents


def test_run_experiment_knn_cells_match_direct_prediction(tmp_path):
    # the k cells of a method share one ranking per fold; their accuracies
    # must be those of a fresh knn_predict_batch per k
    emb, cor = tiny_files(tmp_path, labels=("red", "blue", "green"), docs_per_class=9)
    ks = (1, 3, 5, 30)
    config = ExperimentConfig(
        corpus_path=cor,
        embeddings_path=emb,
        flavor="poincare",
        methods=("lcf",),
        knn=KnnSpec(ks=ks),
        split=SplitSpec(kind="kfold", folds=3, seed=5),
    )
    rows = run_experiment(config).rows
    table, _ = load_embeddings(emb, "poincare")
    corpus, _ = load_corpus(cor)
    X, labels, _ = represent_corpus(corpus, table, "lcf")
    names = sorted(set(labels))
    y = np.array([names.index(label) for label in labels])
    for k, row in zip(ks, rows):
        if k == 30:
            # more neighbours than training points: only this cell fails
            assert row.error is not None and "k must lie in" in row.error
            continue
        accs = []
        for train, test in split(y, config.split):
            model = knn_fit(X[train], y[train], k, "poincare")
            accs.append(evaluate(knn_predict_batch(model, X[test]), y[test]).accuracy)
        assert row.accuracy == float(np.mean(accs))
