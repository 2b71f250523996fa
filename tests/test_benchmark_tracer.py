"""The benchmark's tracer (benchmarks/tracing.py) against the package it patches.

The tracer looks each traced function up by name in every module that
calls it, and its hooks read positional arguments such as
``compose(method, points)`` and ``doc_to_points(tokens, table)``. A
renamed function or a changed call shape breaks the traced benchmark run;
this test catches it without running the benchmark.
"""

import time
from pathlib import Path

from gyrotext import cli

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
    wall = time.perf_counter() - start
    capsys.readouterr()
    assert (run_rc, compose_rc) == (0, 0)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, wall)
    for name in ("harness.cells", "composition.compose_calls", "classify.smo_models"):
        assert metrics[name] > 0, name
