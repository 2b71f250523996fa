"""The benchmark's tracer (benchmarks/tracing.py) against the package it patches.

The tracer looks each traced function up by name in every module that
calls it, and its hooks read positional arguments such as
``compose(method, points)`` and ``doc_to_points(tokens, table)``. A
renamed function or a changed call shape breaks the traced benchmark run;
these tests catch it without running the benchmark.
"""

import ast
import csv
import time
from pathlib import Path

import gyrotext
from gyrotext import cli
from gyrotext.corpus import load_corpus, tokenize

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_reports_a_traced_run_and_compose(synth_files, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    emb, cor = synth_files
    token = Path(emb).read_text(encoding="utf-8").split(None, 1)[0]
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracing.installed(tracer):
        run_rc = cli.main([
            "run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
            "--knn", "k=3", "--svm", "kernel=geodesic-laplacian", "--linear-svm", "C=1.0",
            "--out", str(tmp_path / "results.csv"),
        ])
        compose_rc = cli.main(["compose", "--embeddings", emb, "--method", "lcf", "--text", f"{token} {token}"])
        # an all-OOV text: the one empty document the tracer's on_doc sees
        oov_rc = cli.main(["compose", "--embeddings", emb, "--method", "lcf", "--text", "zzzz qqqq zzzz"])
    wall = time.perf_counter() - start
    capsys.readouterr()
    assert (run_rc, compose_rc, oov_rc) == (0, 0, 0)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, wall)
    # k-NN votes and the SVM's Gram still pass through traced names when
    # both read a fold's shared test-by-train matrix
    for name in ("harness.cells", "composition.compose_calls", "classify.smo_models",
                 "classify.knn_queries", "kernels.gram_entries"):
        assert metrics[name] > 0, name
    assert (metrics["corpus.empty_docs"], metrics["corpus.oov_tokens"]) == (1, 3)
    # corpus_points maps every document of the run through doc_to_points,
    # so the run's tokens (3,585) are counted beside the compose texts' 5
    corpus, _ = load_corpus(cor)
    assert metrics["corpus.tokens"] == sum(len(tokenize(text)) for _, text in corpus.records) + 5
    # one evaluate span per fold of every completed cell: 7 methods x 3
    # cells x 1 holdout fold
    with open(tmp_path / "results.csv", encoding="utf-8", newline="") as fh:
        completed = sum(row["accuracy"] != "NA" for row in csv.DictReader(fh))
    assert completed == 7 * 3
    assert [s.name for s in tracer.spans].count("harness.evaluate") == completed


def _imports(tree):
    """(bound name, line) of every top-level import of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_every_import_is_used_exported_or_a_tracer_seam(monkeypatch):
    # an import that nothing in its module uses is either dead or a seam
    # that benchmarks/tracing.py patches by name; a seam says so with
    # "# noqa: F401", and every name so marked must be one the tracer
    # looks up in that module, so a cleanup neither breaks the traced run
    # nor keeps a seam the tracer no longer patches
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    looked_up = {
        (module.__name__, attr) for modules, attr, _ in tracing._plan(tracing.Tracer()) for module in modules
    }
    problems = []
    for path in sorted(Path(gyrotext.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _all(tree)
        module = f"gyrotext.{path.stem}"
        for name, line in _imports(tree):
            seam = lines[line - 1].endswith("# noqa: F401")
            if seam and path.name != "__init__.py" and (module, name) not in looked_up:
                problems.append(f"{module}.{name}: marked as a seam, but the tracer does not patch it")
            if not (seam or name in used or name in exported):
                problems.append(f"{module}.{name}: imported but unused")
    assert not problems, "\n".join(problems)
