#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each corrupted output must
raise failed_frac, and each sound one must not.

    python3 benchmarks/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import bench

bench._use_checkout()

import numpy as np  # noqa: E402

from _synth import build_corpus_files  # noqa: E402
from checks import Checker, read_table  # noqa: E402
from gyrotext import cli  # noqa: E402


def _row(accuracy, runtime="0.1"):
    return {"embedding": "poincare", "composition": "lcf", "classifier": "knn",
            "params": "k=3", "accuracy": accuracy, "micro_f1": accuracy, "runtime_s": runtime}


def _failures(fn) -> int:
    checker = Checker()
    fn(checker)
    return checker.failed


def _grid_with_errored_cell(checker):
    """A real grid run in which one k-NN cell errors (k exceeds the training set)."""
    workdir = bench.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        emb, cor = build_corpus_files(workdir)
        out = workdir / "results.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--corpus", cor, "--embeddings", emb, "--flavor", "poincare",
                             "--methods", "lcf", "--knn", "k=3,100000", "--out", str(out)])
        checker.exit_code(code, "gyrotext run")
        checker.cells(read_table(out), 0.5, "grid cell")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


CASES = [
    # (description, check, expected failures)
    ("point inside the ball", lambda c: c.point(np.full(4, 0.1), "p"), 0),
    ("NaN point", lambda c: c.point(np.array([0.1, np.nan]), "p"), 1),
    ("point on the unit sphere", lambda c: c.point(np.array([1.0, 0.0]), "p"), 1),
    ("points equal within 1e-9", lambda c: c.same_point(np.ones(3), np.ones(3) + 1e-12, "p"), 0),
    ("points apart by 1e-6", lambda c: c.same_point(np.ones(3), np.ones(3) + 1e-6, "p"), 1),
    ("cell above the floor", lambda c: c.cells([_row("0.9")], 0.6, "cell"), 0),
    ("NA cell", lambda c: c.cells([_row("NA")], 0.6, "cell"), 1),
    ("cell below the floor", lambda c: c.cells([_row("0.5")], 0.6, "cell"), 1),
    ("tables differing only in runtime_s",
     lambda c: c.same_table([_row("0.9", "0.1")], [_row("0.9", "0.2")], "t"), 0),
    ("tables differing in accuracy",
     lambda c: c.same_table([_row("0.9")], [_row("0.8")], "t"), 1),
    ("non-zero exit code", lambda c: c.exit_code(1, "run"), 1),
    # exit code 1 plus the NA cell; the sound k=3 cell passes
    ("grid run with an errored cell", _grid_with_errored_cell, 2),
]


def main() -> int:
    bad = 0
    for description, fn, expected in CASES:
        got = _failures(fn)
        status = "ok" if got == expected else "WRONG"
        bad += got != expected
        print(f"{status:5s} {description}: {got} failed (expected {expected})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
