import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gyrotext import harness
from gyrotext.cli import (
    _parse_knn,
    _parse_methods,
    _parse_split,
    _parse_svm,
    build_parser,
    main,
)

DATA = Path(__file__).parent / "data"


def tiny_files(tmp_path):
    emb = tmp_path / "emb.txt"
    lines = []
    for i in range(8):
        lines.append(f"red{i} {0.4 + 0.01 * i!r} 0.0")
        lines.append(f"blue{i} {-0.4 - 0.01 * i!r} 0.0")
    emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cor = tmp_path / "corpus.tsv"
    rows = []
    for i in range(10):
        rows.append(f"red\tred{i % 8} red{(i + 3) % 8} red{(i + 5) % 8}")
        rows.append(f"blue\tblue{i % 8} blue{(i + 2) % 8} blue{(i + 4) % 8}")
    cor.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(emb), str(cor)


# ----------------------------------------------------------- parse helpers


def test_parse_methods():
    assert _parse_methods("emean,lcf") == ("emean", "lcf")
    assert _parse_methods(" lca , bnw ") == ("lca", "bnw")
    with pytest.raises(ValueError, match="unknown"):
        _parse_methods("emean,frechet")
    with pytest.raises(ValueError, match="at least one composition method"):
        _parse_methods(" , ")


def test_parse_knn():
    assert _parse_knn("k=3,5,7") == (3, 5, 7)
    assert _parse_knn("k=1") == (1,)
    with pytest.raises(ValueError, match="k="):
        _parse_knn("3,5,7")
    with pytest.raises(ValueError, match="integers"):
        _parse_knn("k=3,five")


def test_parse_svm(capsys):
    config = _parse_svm("kernel=geodesic-laplacian,lambda=0.5,C=2.0")
    assert config.kernel.kind == "geodesic" and config.kernel.q == 1.0
    assert config.kernel.lam == 0.5 and config.C == 2.0
    gaussian = _parse_svm("kernel=geodesic-gaussian")
    assert gaussian.kernel.q == 2.0
    defaults = _parse_svm("C=1.5")
    assert defaults.kernel.kind == "geodesic" and defaults.C == 1.5
    with pytest.raises(ValueError, match="unknown kernel"):
        _parse_svm("kernel=sigmoid")
    with pytest.raises(ValueError, match="unknown keys"):
        _parse_svm("kernel=linear,gamma=2")
    # the linear SVM takes only C; keys are checked before any file is read
    rc = main(["run", "--corpus", "c", "--embeddings", "e", "--flavor", "poincare",
               "--linear-svm", "C=1.0,epochs=20"])
    assert rc == 2
    assert "unknown keys ['epochs']" in capsys.readouterr().err
    with pytest.raises(ValueError, match="key=value"):
        _parse_svm("just-words")
    with pytest.raises(ValueError, match=r"repeated keys \['lambda'\]"):
        _parse_svm("lambda=1,C=2,lambda=0.5")


def test_parse_split():
    holdout = _parse_split("holdout:0.7", seed=9)
    assert holdout.kind == "holdout" and holdout.ratio == 0.7 and holdout.seed == 9
    assert _parse_split("holdout", seed=1).ratio == 0.8
    kfold = _parse_split("kfold:4", seed=2)
    assert kfold.kind == "kfold" and kfold.folds == 4
    with pytest.raises(ValueError):
        _parse_split("kfold", seed=0)
    with pytest.raises(ValueError):
        _parse_split("jackknife:3", seed=0)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--svm", "lambda=abc", "--svm: lambda takes numbers only, got 'abc'"),
        ("--svm", "C=x", "--svm: C takes numbers only, got 'x'"),
        ("--svm", "q=1,5", "--svm: expected key=value items"),
        ("--linear-svm", "C=abc", "--linear-svm: C takes numbers only, got 'abc'"),
        ("--split", "holdout:abc", "--split: holdout:RATIO takes numbers only, got 'abc'"),
        ("--split", "kfold:x", "--split: kfold:K takes integers only, got 'x'"),
        ("--split", "kfold:2.5", "--split: kfold:K takes integers only, got '2.5'"),
        ("--knn", "k=3,2.5", "--knn: k takes integers only, got '2.5'"),
        # range checks of the specs the values build
        ("--knn", "k=3,0", "--knn: k must lie in [1, inf] and be a whole number, got 0"),
        ("--svm", "lambda=-1", "--svm: lambda must be positive, got -1.0"),
        ("--svm", "q=0", "--svm: q must be positive, got 0.0"),
        ("--svm", "C=0", "--svm: C must be positive and finite, got 0.0"),
        ("--linear-svm", "C=0", "--linear-svm: C must be positive and finite, got 0.0"),
        ("--split", "holdout:1.5", "--split: holdout ratio must lie in (0, 1), got 1.5"),
        ("--split", "kfold:1", "--split: k-fold needs at least 2 folds, got 1"),
        ("--seed", "-1", "--seed: expected a non-negative integer, got -1"),
        # a repeated entry would compose twice and write two rows under one key
        ("--methods", "lcf,lcf", "--methods: composition methods repeated: ['lcf']"),
        ("--methods", "emean,lcf,emean,lcf", "--methods: composition methods repeated: ['emean', 'lcf']"),
        ("--knn", "k=3,3", "--knn: k repeated: [3]"),
        ("--knn", "k=5,3,5", "--knn: k repeated: [5]"),
        # a repeated key would silently take its last value
        ("--svm", "C=1,C=2,kernel=linear,kernel=geodesic-gaussian", "--svm: repeated keys ['C', 'kernel']"),
        ("--linear-svm", "C=1,C=2", "--linear-svm: repeated keys ['C']"),
    ],
)
def test_bad_numbers_name_their_flag_and_key(capsys, flag, value, message):
    # the values are parsed before any file is read
    rc = main(["run", "--corpus", "c", "--embeddings", "e", "--flavor", "poincare", flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_parser_rejects_bad_choices(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["run", "--corpus", "c", "--embeddings", "e", "--flavor", "spherical"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["doctor"])
    capsys.readouterr()


# -------------------------------------------------------------------- run


def test_run_writes_csv(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(
        [
            "run",
            "--corpus", cor,
            "--embeddings", emb,
            "--flavor", "poincare",
            "--methods", "emean,lcf",
            "--knn", "k=1,3",
            "--linear-svm", "C=1.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "6 rows" in stdout
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["embedding", "composition", "classifier", "params", "accuracy", "micro_f1", "runtime_s"]
    assert len(rows) == 7
    assert {r[1] for r in rows[1:]} == {"emean", "lcf"}


@pytest.mark.parametrize("flag,value", [("--linear-svm", "C=-1"), ("--svm", "C=0"),
                                        ("--svm", "kernel=linear,C=inf")])
def test_run_rejects_bad_C(tmp_path, capsys, flag, value):
    # a bad C is a bad argument (exit 2), caught before any cell runs
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
               "--methods", "emean", "--knn", "off", flag, value, "--out", str(out)])
    assert rc == 2
    assert "C must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where, errno", [("missing/o.csv", 2), ("", 21)])
def test_run_fails_on_a_bad_out_before_loading(tmp_path, capsys, monkeypatch, where, errno):
    # an --out in a missing directory, or naming a directory, exits 2 before
    # the embeddings or the corpus load, and leaves no file behind
    emb, cor = tiny_files(tmp_path)
    loaded = []
    for name in ("load_embeddings", "load_corpus"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: loaded.append(name))
    out = tmp_path / where
    before = sorted(tmp_path.rglob("*"))
    rc = main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
               "--methods", "emean,lcf", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno}] ")
    assert loaded == []
    assert sorted(tmp_path.rglob("*")) == before


def test_run_checks_out_without_touching_it(tmp_path, capsys):
    # the check opens --out without truncating an existing file, and a run
    # that fails after it leaves no new file behind
    emb, cor = tiny_files(tmp_path)
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")
    args = ["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
            "--methods", "emean", "--split", "kfold:11", "--out"]
    assert main(args + [str(kept)]) == 2
    assert kept.read_text(encoding="utf-8") == "old\n"
    fresh = tmp_path / "fresh.csv"
    assert main(args + [str(fresh)]) == 2
    assert not fresh.exists()
    capsys.readouterr()


def test_run_kfold_names_the_short_class_by_its_label(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
               "--methods", "emean", "--split", "kfold:11", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --split: class 'blue' has 10 members, fewer than 11 folds\n"
    assert not out.exists()


def test_run_holdout_without_test_documents_is_exit_2(tmp_path, capsys):
    # ten documents a class at ratio 0.96 round each test share to 0
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
               "--methods", "emean", "--split", "holdout:0.96", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --split: holdout ratio 0.96 leaves no test documents\n"
    assert not out.exists()


@pytest.mark.parametrize("value,message", [
    ("kernel=linear,q=3", "q applies only to the geodesic kernel, got q=3.0 for 'linear'"),
    ("kernel=euclidean-rbf,q=2", "q applies only to the geodesic kernel, got q=2.0 for 'euclidean_rbf'"),
    ("kernel=linear,lambda=0.5", "lambda does not apply to the linear kernel, got lambda=0.5"),
])
def test_run_refuses_a_kernel_setting_its_kind_ignores(tmp_path, capsys, value, message):
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
               "--methods", "emean", "--knn", "off", "--svm", value, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --svm: {message}\n"
    assert not out.exists()


def test_run_euclidean_flavor_emits_na(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(
        [
            "run",
            "--corpus", cor,
            "--embeddings", emb,
            "--flavor", "euclidean",
            "--methods", "emean,fnw",
            "--knn", "k=3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {r[1]: r for r in list(csv.reader(fh))[1:]}
    assert rows["fnw"][4:] == ["NA", "NA", "NA"]
    assert rows["emean"][4] not in ("NA", "")


def test_run_reports_cell_errors(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    # single-class corpus breaks the one-vs-rest trainer but not k-NN
    solo = tmp_path / "solo.tsv"
    solo.write_text("red\tred0 red1\nred\tred2 red3\nred\tred4\n", encoding="utf-8")
    out = tmp_path / "res.csv"
    rc = main(
        [
            "run",
            "--corpus", str(solo),
            "--embeddings", emb,
            "--flavor", "poincare",
            "--methods", "emean",
            "--knn", "k=1",
            "--svm", "kernel=geodesic-laplacian",
            "--out", str(out),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "1 cells failed" in err and "svm" in err


def test_run_knn_off(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    out = tmp_path / "res.csv"
    rc = main(
        [
            "run",
            "--corpus", cor,
            "--embeddings", emb,
            "--flavor", "poincare",
            "--methods", "emean",
            "--knn", "off",
            "--linear-svm", "C=1.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[2] for r in rows] == ["linear-svm"]


def test_run_missing_file_is_exit_2(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    rc = main(
        [
            "run",
            "--corpus", str(tmp_path / "absent.tsv"),
            "--embeddings", emb,
            "--flavor", "poincare",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_no_classifier(tmp_path, capsys):
    emb, cor = tiny_files(tmp_path)
    rc = main(
        [
            "run",
            "--corpus", cor,
            "--embeddings", emb,
            "--flavor", "poincare",
            "--knn", "off",
        ]
    )
    assert rc == 2
    assert "classifier" in capsys.readouterr().err


# ------------------------------------------------------------ check-kernel


def test_check_kernel_laplacian_passes(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    rc = main(["check-kernel", "--embeddings", emb, "--n", "10", "--q", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psd=pass" in out and "q=1" in out and "min_eigenvalue=" in out


def test_check_kernel_gaussian_counterexample_fails(capsys):
    # the frozen witness points, fed through the embedding-file format
    rc = main(
        [
            "check-kernel",
            "--embeddings", str(DATA / "gaussian_nonpsd_witness_embeddings.txt"),
            "--n", "30",
            "--q", "2",
            "--lam", "0.25",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out == "n=30 q=2 lambda=0.25 min_eigenvalue=-1.644914e-01 psd=FAIL\n"


def test_check_kernel_bad_n(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    rc = main(["check-kernel", "--embeddings", emb, "--n", "500"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --n: must lie in [2, 16], got 500")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "--seed: expected a non-negative integer, got -1"),
        ("--q", "0", "--q: q must be positive, got 0.0"),
        ("--lam", "-1", "--lam: lambda must be positive, got -1.0"),
        ("--lam", "nan", "--lam: lambda must be positive, got nan"),
    ],
)
def test_check_kernel_bad_numbers_name_their_flag(capsys, flag, value, message):
    # the values are checked before the embedding file is read
    rc = main(["check-kernel", "--embeddings", "e", flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ----------------------------------------------------------------- compose


def test_compose_prints_point(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    rc = main(
        ["compose", "--embeddings", emb, "--method", "lca", "--text", "red0 red1 zebra"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "lca"
    assert payload["tokens"] == 3 and payload["oov"] == 1
    assert len(payload["point"]) == 2
    assert np.linalg.norm(payload["point"]) < 1.0


def test_compose_rejects_hyperbolic_method_on_euclidean_flavor(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    args = ["compose", "--embeddings", emb, "--flavor", "euclidean", "--text", "red0 blue1"]
    assert main([*args, "--method", "lcf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "only emean" in captured.err
    assert main([*args, "--method", "emean"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "emean"


def test_compose_all_oov_is_origin(tmp_path, capsys):
    emb, _ = tiny_files(tmp_path)
    rc = main(["compose", "--embeddings", emb, "--method", "emean", "--text", "zz qq"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [0.0, 0.0] and payload["oov"] == 2
