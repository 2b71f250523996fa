import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gyrotext import corpus as corpus_module
from gyrotext import classify, cli, composition, gyroball, harness, kernels
from gyrotext.classify import LinearPrimalConfig, SmoConfig, knn_fit, knn_predict_batch
from gyrotext.corpus import load_corpus, load_embeddings, represent_corpus
from gyrotext.harness import (
    CSV_HEADER,
    ExperimentConfig,
    KnnSpec,
    ResultRow,
    ResultsTable,
    SplitError,
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
    # the seed rule holds when the spec is built, not inside split after
    # both files have loaded: a non-negative whole number, stored as an int
    for bad in (-1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="expected a non-negative integer"):
            SplitSpec(seed=bad)
    assert SplitSpec(seed=0).seed == 0
    whole = SplitSpec(seed=7.0)
    assert whole == SplitSpec(seed=7) and type(whole.seed) is int
    # both fields hold to their rules whatever the kind
    with pytest.raises(ValueError, match="k-fold needs a whole number of folds, got 2.5"):
        SplitSpec(kind="holdout", folds=2.5)
    with pytest.raises(ValueError, match=r"holdout ratio must lie in \(0, 1\), got 7.0"):
        SplitSpec(kind="kfold", ratio=7.0)


def test_split_and_knn_rules_refuse_values_that_do_not_compare():
    # None or a string fails the rule's own check, not a comparison inside it
    for bad in (None, "3"):
        with pytest.raises(ValueError, match="expected a non-negative integer"):
            SplitSpec(seed=bad)
        with pytest.raises(ValueError, match="whole number of folds"):
            SplitSpec(kind="kfold", folds=bad)
        with pytest.raises(ValueError, match="holdout ratio must lie in"):
            SplitSpec(ratio=bad)
        with pytest.raises(ValueError, match="whole number"):
            KnnSpec(ks=(bad,))


def test_split_spec_folds_follow_the_whole_number_rule_of_k():
    # a fold count that is not whole is refused when the spec is built, as
    # a k is, so split never sees it; a whole float is that many folds
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="whole number of folds"):
            SplitSpec(kind="kfold", folds=bad)
    whole = SplitSpec(kind="kfold", folds=3.0, seed=4)
    assert whole == SplitSpec(kind="kfold", folds=3, seed=4) and type(whole.folds) is int
    labels = np.repeat([0, 1], 6)
    got = split(labels, whole)
    want = split(labels, SplitSpec(kind="kfold", folds=3, seed=4))
    assert len(got) == 3
    for (train, test), (want_train, want_test) in zip(got, want):
        assert np.array_equal(train, want_train) and np.array_equal(test, want_test)


def test_knn_spec_validation():
    KnnSpec(ks=(1,))
    KnnSpec(ks=(3.0, 5))
    assert KnnSpec(metric="euclidean").metric == "euclidean"
    # knn_fit's rule, at construction rather than as an error row per cell
    with pytest.raises(ValueError, match="unknown metric 'manhattan'"):
        KnnSpec(metric="manhattan")
    with pytest.raises(ValueError):
        KnnSpec(ks=())
    with pytest.raises(ValueError):
        KnnSpec(ks=(3, 0))
    # knn_fit's rule: 2.5 would read k=2.5 in its row and vote with 2
    for ks in ((2.5, 3), (3, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="whole number"):
            KnnSpec(ks=ks)
    # a repeated k would write two cells under one key
    for ks in ((3, 3), (5, 3, 5.0, 3)):
        with pytest.raises(ValueError, match="k repeated"):
            KnnSpec(ks=ks)


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
    with pytest.raises(ValueError, match=r"composition methods repeated: \['lcf'\]"):
        ExperimentConfig("c", "e", "poincare", methods=("lcf", "emean", "lcf"), knn=KnnSpec())
    with pytest.raises(ValueError, match="unknown flavor 'spherical'"):
        ExperimentConfig("c", "e", "spherical", methods=("emean",), knn=KnnSpec())
    # a list of methods is stored as a tuple, so the frozen config hashes
    listed = ExperimentConfig("c", "e", "poincare", methods=["lcf", "emean"], knn=KnnSpec())
    assert listed.methods == ("lcf", "emean")
    assert hash(listed) == hash(replace(listed, methods=("lcf", "emean")))


def test_default_knn_metric_is_the_flavor(synth_files, tmp_path, capsys):
    # KnnSpec() ranks by the flavor's distance, as --knn-metric's default
    # does; an explicit metric is kept
    for flavor in ("euclidean", "poincare"):
        config = ExperimentConfig("c", "e", flavor, methods=("emean",), knn=KnnSpec())
        assert config.knn == KnnSpec(metric=flavor)
        chosen = ExperimentConfig("c", "e", flavor, methods=("emean",), knn=KnnSpec(metric="poincare"))
        assert chosen.knn.metric == "poincare"
    # the library and the CLI write the same table on euclidean flavor
    emb, cor = synth_files
    config = ExperimentConfig(cor, emb, "euclidean", methods=("emean",), knn=KnnSpec(ks=(3, 5)))
    emit_table(run_experiment(config), "csv", tmp_path / "library.csv")
    argv = ["run", "--corpus", cor, "--embeddings", emb, "--flavor", "euclidean", "--methods", "emean",
            "--knn", "k=3,5", "--out", str(tmp_path / "cli.csv")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    tables = []
    for name in ("library.csv", "cli.csv"):
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            tables.append([row[:-1] for row in csv.reader(fh)])
    assert [row[3] for row in tables[0][1:]] == ["k=3,metric=euclidean", "k=5,metric=euclidean"]
    assert tables[0] == tables[1]


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


def test_holdout_that_draws_no_test_member_raises():
    # three members a class at ratio 0.9: each test share rounds to 0
    labels = ["a", "a", "a", "b", "b", "b"]
    with pytest.raises(SplitError, match=r"^holdout ratio 0\.9 leaves no test documents$"):
        split(labels, SplitSpec(ratio=0.9))
    # one class that draws a member is enough
    [(train, test)] = split(labels + ["b"] * 3, SplitSpec(ratio=0.9))
    assert test.size == 1 and train.size == 8


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


def test_split_partitions_are_frozen():
    # holdout and k-fold shuffle each class once, in class order, and take
    # their test members from those permutations; these literals pin both
    labels = ["b", "a", "c", "a", "b", "a", "c", "b", "a", "c", "a", "b", "a"]
    [(train, test)] = split(labels, SplitSpec(ratio=0.7, seed=3))
    assert (train.tolist(), test.tolist()) == ([0, 1, 2, 3, 4, 8, 9, 10, 11], [5, 6, 7, 12])
    pairs = split(labels, SplitSpec(kind="kfold", folds=3, seed=3))
    assert [test.tolist() for _, test in pairs] == [[3, 5, 6, 7, 11], [2, 4, 8, 12], [0, 1, 9, 10]]
    for train, test in pairs:
        assert train.tolist() == sorted(set(range(len(labels))) - set(test.tolist()))


def test_split_keeps_labels_that_differ_by_a_trailing_nul():
    # a plain list of str labels is taken as objects: "a" and "a\0" are two
    # classes of two members, too few for three folds, and not one of four;
    # a holdout draws one test member from each
    labels = ["a", "a\0"] * 2
    for given in (labels, np.array(labels, dtype=object)):
        with pytest.raises(SplitError, match="^class 'a' has 2 members, fewer than 3 folds$"):
            split(given, SplitSpec(kind="kfold", folds=3))
    [(train, test)] = split(labels, SplitSpec(ratio=0.5))
    assert sorted(labels[i] for i in test) == ["a", "a\0"]


def test_split_of_int_labels_is_unchanged():
    # the object array numbers and orders int labels as the int array did
    labels = [3, 1, 2, 1, 3, 3, 2, 1, 2, 3, 1, 2, 1]
    for spec in (SplitSpec(ratio=0.7, seed=3), SplitSpec(kind="kfold", folds=3, seed=3)):
        for given in (labels, np.array(labels), np.array(labels, dtype=np.int8)):
            got = split(given, spec)
            want = split(np.array([f"{v}" for v in labels]), spec)
            assert [(a.tolist(), b.tolist()) for a, b in got] == [(a.tolist(), b.tolist()) for a, b in want]
    assert [t.tolist() for _, t in split(labels, SplitSpec(kind="kfold", folds=3, seed=3))] == [
        [5, 8, 9, 10, 11, 12], [1, 4, 6, 7], [0, 2, 3],
    ]
    with pytest.raises(SplitError, match="^class 2 has 4 members, fewer than 5 folds$"):
        split(labels, SplitSpec(kind="kfold", folds=5))


def test_split_empty_raises():
    with pytest.raises(ValueError):
        split([], SplitSpec())


# ---------------------------------------------------------------- evaluate


def test_evaluate_examples():
    assert evaluate([1, 2, 3], [1, 2, 3]) == 1.0
    assert evaluate([1, 1, 1], [2, 2, 2]) == 0.0
    accuracy = evaluate([0, 1, 1, 2], [0, 0, 1, 2])
    assert type(accuracy) is float and accuracy == 0.75


def test_evaluate_micro_f1_identity_holds():
    # micro-F1 from global confusion counts, summed over the classes: in
    # single-label classification it is the accuracy evaluate returns
    rng = np.random.default_rng(60)
    for _ in range(25):
        gold = rng.integers(0, 5, size=40)
        pred = rng.integers(0, 5, size=40)
        tp = fp = fn = 0
        for c in range(5):
            tp += np.count_nonzero((pred == c) & (gold == c))
            fp += np.count_nonzero((pred == c) & (gold != c))
            fn += np.count_nonzero((pred != c) & (gold == c))
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        micro_f1 = 2.0 * precision * recall / (precision + recall)
        assert evaluate(pred, gold) == pytest.approx(micro_f1, abs=1e-12)


def test_evaluate_handles_unseen_predicted_class():
    assert evaluate([0, 9], [0, 1]) == 0.5


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


def test_a_cell_row_key_does_not_depend_on_number_types(tmp_path):
    # a spec stores its checked values as the CLI writes them (int k,
    # float lambda, q and C), so both spellings of one cell write one key
    emb, cor = tiny_files(tmp_path)
    spellings = [
        (KnnSpec(ks=(3.0, np.int64(5))), SmoConfig(KernelSpec(lam=np.float64(0.5), q=2), C=np.float64(1)),
         LinearPrimalConfig(C=2)),
        (KnnSpec(ks=(3, 5)), SmoConfig(KernelSpec(lam=0.5, q=2.0), C=1.0), LinearPrimalConfig(C=2.0)),
    ]
    tables = []
    for knn, svm, linear_svm in spellings:
        config = ExperimentConfig(cor, emb, "poincare", ("emean",), knn=knn, svm=svm, linear_svm=linear_svm)
        tables.append([replace(row, runtime_s=None) for row in run_experiment(config).rows])
    assert [row.params for row in tables[0]] == [
        "k=3,metric=poincare",
        "k=5,metric=poincare",
        "kernel=geodesic,lambda=0.5,q=2.0,C=1.0",
        "C=2.0",
    ]
    assert tables[0] == tables[1]


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


def check_failing_passes(tmp_path, monkeypatch, methods, failed):
    """Run ``methods`` with every composition pass that serves lcf raising:
    the methods in ``failed`` get one error row per cell, and the other
    methods' rows are those of an unpatched run."""
    emb, cor = tiny_files(tmp_path)
    config = full_config(emb, cor, methods=methods)
    clean = run_experiment(config)
    real = harness.compose_batch

    def compose_batch(methods, batch):
        if "lcf" in methods:
            raise RuntimeError("composition broke")
        return real(methods, batch)

    monkeypatch.setattr(harness, "compose_batch", compose_batch)
    broken = run_experiment(config)
    assert len(broken.rows) == len(clean.rows) == len(methods) * 4
    assert len(broken.errors) == len(failed) * 4
    for got, want in zip(broken.rows, clean.rows):
        cell = (got.embedding, got.composition, got.classifier, got.params)
        assert cell == (want.embedding, want.composition, want.classifier, want.params)
        if got.composition in failed:
            assert got.error == "RuntimeError: composition broke"
            assert (got.accuracy, got.micro_f1, got.runtime_s) == (None, None, None)
        else:
            assert replace(got, runtime_s=None) == replace(want, runtime_s=None)


def test_run_experiment_isolates_a_failing_composition(tmp_path, monkeypatch):
    check_failing_passes(tmp_path, monkeypatch, ("emean", "lcf", "bnw"), {"lcf"})


def test_run_experiment_isolates_a_failing_shared_pass(tmp_path, monkeypatch):
    # lcf and lca share one pass, so both lose their rows; emean and bnw keep theirs
    check_failing_passes(tmp_path, monkeypatch, ("emean", "lca", "bnw", "lcf"), {"lcf", "lca"})


@pytest.mark.parametrize("methods, rows", [
    (("lcf", "lcb", "lca"), 2 * 12),
    (("lcf",), 12),
    (("bnw", "lcb"), 12),
    (("lca", "emean", "lcb"), 2 * 12),
])
def test_run_experiment_folds_once(tmp_path, monkeypatch, methods, rows):
    # lcf, lcb and lca come from one fold over the forward and backward
    # readings they need (12 documents each), never from a fold each
    emb, cor = tiny_files(tmp_path)
    folded = []
    real = composition._fold

    def fold(points, c, first, stride, lengths):
        folded.append(lengths.size)
        return real(points, c, first, stride, lengths)

    monkeypatch.setattr(composition, "_fold", fold)
    run_experiment(full_config(emb, cor, methods=methods))
    assert folded == [rows]


def test_run_experiment_checks_the_batch_once(tmp_path, monkeypatch):
    # the seven methods compose in four ball passes (naive, the folds, fnw,
    # bnw); all of them read the squared norms that one check of the
    # batch's 48 points took
    emb, cor = tiny_files(tmp_path)
    checked = []
    real = composition._inside

    def inside(X, name):
        checked.append(len(X))
        return real(X, name)

    monkeypatch.setattr(composition, "_inside", inside)
    results = run_experiment(full_config(emb, cor, methods=composition.METHODS))
    assert not results.errors
    assert checked == [12 * 4]


def test_run_experiment_computes_one_test_by_train_matrix_per_fold(tmp_path, monkeypatch):
    # k-NN ranks and the geodesic SVM decides from one Poincare matrix per
    # (method, fold); the SVM's Gram is the only other distance computed
    emb, cor = tiny_files(tmp_path)
    config = full_config(emb, cor, methods=("emean", "lcf"))
    config = replace(config, split=SplitSpec(kind="kfold", folds=3, seed=2))
    clean = run_experiment(config)
    calls = []
    real = gyroball.pairwise_poincare_distance

    def counted(U, V):
        calls.append("gram" if V is U else (len(U), len(V)))
        return real(U, V)

    for module in (classify, kernels):
        monkeypatch.setattr(module, "pairwise_poincare_distance", counted)
    counted_run = run_experiment(config)
    assert [replace(r, runtime_s=None) for r in counted_run.rows] == [
        replace(r, runtime_s=None) for r in clean.rows
    ]
    # 12 documents in 3 folds of 4: per method, the first k-NN cell makes
    # each fold's 4 x 8 matrix, and the SVM cell only each fold's Gram
    assert calls == 2 * (3 * [(4, 8)] + 3 * ["gram"])


@pytest.mark.parametrize("kernel", [
    KernelSpec("geodesic"),
    KernelSpec("geodesic", q=2.0),
    KernelSpec("euclidean_rbf"),
    KernelSpec("linear"),
])
def test_run_experiment_svm_cell_is_the_svm_built_by_hand(tmp_path, kernel):
    # the harness builds the fold's Gram and kernel rows itself, from the
    # shared test-by-train matrix where the kernel reads one; its accuracy
    # is that of the kernel SVM trained and queried on them by hand. The
    # documents mix random words, so that a different Gram or different
    # rows (another kernel, or lambda = 2) changes every cell's accuracy
    rng = np.random.default_rng(2)
    angles = rng.uniform(0.0, 2.0 * np.pi, 24)
    radii = 0.7 * np.sqrt(rng.uniform(size=24))
    emb, cor = tmp_path / "emb.txt", tmp_path / "corpus.tsv"
    emb.write_text("".join(f"t{i} {float(r * math.cos(a))!r} {float(r * math.sin(a))!r}\n"
                           for i, (a, r) in enumerate(zip(angles, radii))), encoding="utf-8")
    docs = rng.integers(0, 24, size=(45, 3))
    # labelled by the sector of a document's first word
    sector = (angles // (2.0 * np.pi / 3.0)).astype(int)
    cor.write_text("".join(f"{'abc'[sector[d[0]]]}\t{' '.join(f't{i}' for i in d)}\n" for d in docs),
                   encoding="utf-8")
    emb, cor = str(emb), str(cor)
    svm = SmoConfig(kernel=kernel)
    config = ExperimentConfig(cor, emb, "poincare", ("lcf",), svm=svm,
                              split=SplitSpec(kind="kfold", folds=3, seed=5))
    (row,) = run_experiment(config).rows
    table, _ = load_embeddings(emb, "poincare")
    corpus, _ = load_corpus(cor)
    P = composition.compose_batch(("lcf",), corpus_module.corpus_points(corpus, table).batch)["lcf"]
    y = np.unique([label for label, _ in corpus.records], return_inverse=True)[1]
    accs = []
    for train, test in split(y, config.split):
        model = classify.ovr_train(kernels.gram_matrix(P[train], kernel), y[train], svm)
        rows = kernels.cross_kernel(P[test], P[train], kernel)
        accs.append(evaluate(classify.ovr_predict(model, rows), y[test]))
    assert row.error is None and 0 < row.accuracy < 1
    assert row.accuracy == float(np.mean(accs))


def test_svm_cell_of_a_one_class_fold_fails_on_its_classes_before_its_gram():
    # a one-class fold fails on the one-vs-rest rule, before the harness
    # builds a Gram, even where the kernel could not measure the points
    # (outside the ball, for the geodesic kernel)
    X = np.array([[0.0, 3.0], [3.0, 0.0], [2.0, 2.0], [0.5, 0.0]])
    y = np.zeros(4, dtype=np.int64)
    folds = [(X[:3], y[:3], X[3:], y[3:], {})]
    with pytest.raises(ValueError, match="^one-vs-rest needs at least 2 classes$"):
        harness._run_cell(SmoConfig(kernel=KernelSpec("geodesic")), None, folds)


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


def test_emit_table_exact_bytes(tmp_path):
    # a scored row whose float needs 17 digits, an NA row and an error row,
    # the first two with commas in params
    svm, error = "kernel=geodesic,lambda=1.0,q=1.0,C=1.0", "FloatingPointError: overflow"
    table = ResultsTable(
        rows=(
            ResultRow("poincare", "lcf", "svm", svm, 0.1 + 0.2, 0.1 + 0.2, 0.0625),
            ResultRow("euclidean", "lcf", "knn", "k=3,metric=euclidean", None, None, None),
            ResultRow("poincare", "bnw", "linear-svm", "C=1.0", None, None, None, error),
        )
    )
    c, j = tmp_path / "t.csv", tmp_path / "t.json"
    emit_table(table, "csv", c)
    emit_table(table, "json", j)
    assert c.read_bytes() == (
        b"embedding,composition,classifier,params,accuracy,micro_f1,runtime_s\n"
        b'poincare,lcf,svm,"kernel=geodesic,lambda=1.0,q=1.0,C=1.0",'
        b"0.30000000000000004,0.30000000000000004,0.0625\n"
        b'euclidean,lcf,knn,"k=3,metric=euclidean",NA,NA,NA\n'
        b"poincare,bnw,linear-svm,C=1.0,NA,NA,NA\n"
    )
    assert j.read_bytes() == b"""[
  {
    "embedding": "poincare",
    "composition": "lcf",
    "classifier": "svm",
    "params": "kernel=geodesic,lambda=1.0,q=1.0,C=1.0",
    "accuracy": 0.30000000000000004,
    "micro_f1": 0.30000000000000004,
    "runtime_s": 0.0625,
    "error": null
  },
  {
    "embedding": "euclidean",
    "composition": "lcf",
    "classifier": "knn",
    "params": "k=3,metric=euclidean",
    "accuracy": null,
    "micro_f1": null,
    "runtime_s": null,
    "error": null
  },
  {
    "embedding": "poincare",
    "composition": "bnw",
    "classifier": "linear-svm",
    "params": "C=1.0",
    "accuracy": null,
    "micro_f1": null,
    "runtime_s": null,
    "error": "FloatingPointError: overflow"
  }
]
"""


def test_run_experiment_keeps_labels_that_differ_by_a_trailing_nul(tmp_path):
    # "red" and "red\0" are two classes of 6 documents, too few for 7 folds;
    # a fixed-width str array would strip the NUL and split one class of 12
    emb, cor = tiny_files(tmp_path)
    path = tmp_path / "corpus.tsv"
    path.write_text(path.read_text(encoding="utf-8").replace("blue\t", "red\0\t"), encoding="utf-8")
    config = ExperimentConfig(
        corpus_path=cor,
        embeddings_path=emb,
        flavor="poincare",
        methods=("lcf",),
        knn=KnnSpec(ks=(1,)),
        split=SplitSpec(kind="kfold", folds=7),
    )
    with pytest.raises(SplitError, match="^class 'red' has 6 members, fewer than 7 folds$"):
        run_experiment(config)


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
            accs.append(evaluate(knn_predict_batch(model, X[test]), y[test]))
        assert row.accuracy == float(np.mean(accs))
