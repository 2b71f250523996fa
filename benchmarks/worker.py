"""Measuring side of the benchmark: one workload in one fresh process.

    python3 benchmarks/worker.py SPEC.json

``bench.py`` writes the spec (workload, seed, seconds, trace flag, input
and output paths) and runs this with ``src``, ``tests`` and ``benchmarks``
on PYTHONPATH. The result goes to the spec's ``result`` path as JSON.

Every call into the program goes through a module attribute
(``corpus.tokenize``, ``cli.main``, ...), so the tracer's patches see it.

Every timing is taken as a ratio to a reference loop, and reported as
that ratio times ``REF_NOMINAL_S``: the time the operation takes when the
reference loop takes 1 ms. On a shared machine whose speed drifts by up
to 2x, this cancels the drift; the reference loop calls no gyrotext code,
so a change to the program moves the ratio in full.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads
from gyrotext import cli, composition, corpus, kernels

# the end-to-end metrics an untraced run reports, with their units
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "compose_p50_ms": "ms",
    "compose_p99_ms": "ms",
    "psd_check_s": "s",
    "peak_rss_mb": "MB",
}

# timings are reported as (time / reference loop time) x REF_NOMINAL_S
REF_NOMINAL_S = 1e-3
_REF_X = np.random.default_rng(0).standard_normal(50) * 0.01
_REF_Y = np.random.default_rng(1).standard_normal(50) * 0.01


def reference_s() -> float:
    """Time of a fixed loop that calls no gyrotext code: small vector ops in
    the shape of a Mobius fold, the same mix of interpreter and numpy work
    as the program's hot paths. About 1 ms on the baseline machine."""
    start = time.perf_counter()
    x = _REF_X.copy()
    for _ in range(150):
        xy, x2 = float(np.dot(x, _REF_Y)), float(np.dot(x, x))
        x = 0.5 * ((1 + 2 * xy) * x + (1 - x2) * _REF_Y) / (1 + 2 * xy + x2)
    return time.perf_counter() - start


class Session:
    """One workload in one process: set-up, repetitions, checks."""

    def __init__(self, spec):
        self.spec = spec
        self.w = workloads.WORKLOADS[spec["workload"]]
        self.workdir = Path(spec["workdir"])
        self.checker = checks.Checker()
        self.rng = np.random.default_rng(spec["seed"])
        self.table = self.docs = None
        # every reference loop time measured, in seconds
        self.refs = []

    def speed(self):
        """Time the reference loop now; the next timing is divided by it."""
        self.refs.append(reference_s())
        return self.refs[-1]

    def setup(self):
        """Load both input files ``setup_reps`` times; returns each load's
        time over the mean of the reference loops timed before and after it."""
        ratios = []
        for _ in range(self.w.setup_reps):
            self.table = self.docs = None
            ref = self.speed()
            start = time.perf_counter()
            self.table, _ = corpus.load_embeddings(self.spec["embeddings"], "poincare")
            self.docs, _ = corpus.load_corpus(self.spec["corpus"])
            elapsed = time.perf_counter() - start
            ratios.append(elapsed / statistics.fmean((ref, self.speed())))
        self.vocab = sorted(self.table.vectors)
        return ratios

    def prepare(self):
        """Fix what every repetition reuses: the seeded PSD check samples and
        the texts composed one at a time (held-out documents on a grid)."""
        self.psd_samples = [
            self.rng.choice(len(self.vocab), size=workloads.PSD_N, replace=False)
            for _ in range(workloads.PSD_SAMPLES)
        ]
        texts = self.docs if self.w.kind == "interactive" else (
            corpus.load_corpus(self.spec["held_out"])[0])
        self.texts = [text for _, text in texts.records]

    def compose_text(self, method, text):
        tokens = corpus.tokenize(text)
        doc = corpus.doc_to_points(tokens, self.table)
        if doc.empty:
            return np.zeros(self.table.dimension)
        return composition.compose(method, doc.points)

    def psd(self, k):
        """check-kernel equivalent on the k-th fixed sample of PSD_N vectors:
        geodesic Gram matrix (q=1 for even k, q=2 for odd k), Jacobi PSD check.
        Returns its time over the reference loop's."""
        q = 1.0 + k % 2
        ref = self.speed()
        start = time.perf_counter()
        points = np.stack([self.table.vectors[self.vocab[i]] for i in self.psd_samples[k]])
        report = kernels.psd_check(kernels.gram_matrix(points, kernels.KernelSpec(lam=1.0, q=q)))
        elapsed = time.perf_counter() - start
        if q == 1.0:
            # the Laplacian geodesic kernel is PSD on the ball
            self.checker.check(report.passed, f"q=1 PSD check failed: {report.min_eigenvalue:.3g}")
        return elapsed / ref

    def _psd_round(self, index):
        n, per_rep = workloads.PSD_SAMPLES, workloads.PSD_PER_REP
        return [(index * per_rep + j) % n for j in range(per_rep)]

    def rep(self, index, tracer=None):
        """One repetition: what the caller waits on, plus the outputs to check.

        Timings are ratios to the reference loop. A text or a PSD check is
        divided by the loop timed right before it, a set-up load by the mean
        of the loops before and after it. A ``gyrotext run`` call lasts long
        enough for the machine to switch speed several times during it, so
        it is divided by the mean loop time over the repetition.

        With a tracer, a grid traces only its ``gyrotext run`` call, so that
        its per-layer figures are those of ``wall_s``; interactive traces
        the whole repetition. ``traced_s`` is the time the tracer was
        installed, in seconds, less the reference loops run meanwhile.
        """
        scope = (lambda: tracing.installed(tracer)) if tracer else contextlib.nullcontext
        n_refs = len(self.refs)
        # set-up is sampled in every repetition, so that its median covers the
        # same stretch of machine time as the other metrics
        if self.w.kind == "grid":
            setup = self.setup()
            result = self._grid_rep(index, scope)
            # the mean, not the median: the loop's times cluster at two speeds
            result["wall"] = result["traced_s"] / statistics.fmean(self.refs[n_refs:])
        else:
            start = time.perf_counter()
            with scope():
                setup = self.setup()
                result = self._interactive_rep(index)
            result["traced_s"] = time.perf_counter() - start - sum(self.refs[n_refs:])
        result["setup"] = setup
        return result

    def _grid_rep(self, index, scope):
        w, spec = self.w, self.spec
        out = self.workdir / f"results-{index}.csv"
        argv = [
            "run", "--corpus", spec["corpus"], "--embeddings", spec["embeddings"],
            "--flavor", "poincare", "--methods", ",".join(w.methods), *w.grid_args,
            "--seed", str(spec["seed"]), "--out", str(out),
        ]
        with scope(), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            traced_s = time.perf_counter() - start
        psd = {k: self.psd(k) for k in self._psd_round(index)}
        latencies, points = {}, {}
        for i in range(index % workloads.HELD_OUT_SLICES, len(self.texts),
                       workloads.HELD_OUT_SLICES):
            text = self.texts[i]
            ref = self.speed()
            for method in workloads.ALL_METHODS:
                t = time.perf_counter()
                points[i, method] = self.compose_text(method, text)
                latencies[i, method] = (time.perf_counter() - t) / ref
        rows = checks.read_table(out) if out.exists() else []
        return {"traced_s": traced_s, "code": code, "rows": rows, "psd": psd,
                "latencies": latencies, "points": points}

    def _interactive_rep(self, index):
        ks = self._psd_round(index)
        slots = {round((j + 1) * len(self.texts) / (len(ks) + 1)): k for j, k in enumerate(ks)}
        psd, latencies, points = {}, {}, {}
        for i, text in enumerate(self.texts):
            if i in slots:
                psd[slots[i]] = self.psd(slots[i])
            ref = self.speed()
            for method in self.w.methods:
                t = time.perf_counter()
                points[i, method] = self.compose_text(method, text)
                latencies[i, method] = (time.perf_counter() - t) / ref
        # one pass over the texts; the PSD checks have their own metric
        wall = sum(latencies.values())
        return {"wall": wall, "psd": psd, "latencies": latencies, "points": points}

    def reference_rows(self):
        """represent_corpus rows for the interactive texts, one matrix per method."""
        if self.w.kind != "interactive":
            return {}
        return {m: corpus.represent_corpus(self.docs, self.table, m)[0] for m in self.w.methods}

    def check(self, result, reference):
        """Check one repetition's outputs; returns the grid cells' accuracies."""
        c = self.checker
        accs = []
        if self.w.kind == "grid":
            c.exit_code(result["code"], "gyrotext run")
            accs = c.cells(result["rows"], self.w.accuracy_floor, "grid cell")
        for (i, method), point in result["points"].items():
            if c.point(point, f"text {i} {method}") and reference:
                c.same_point(point, reference[method][i], f"text {i} {method} vs represent_corpus")
        return accs


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _until(seconds, minimum):
    """Yield repetition indices until ``seconds`` have passed and at least
    ``minimum`` repetitions ran."""
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        yield index
        index += 1


def measure(session, seconds):
    """End-to-end metrics from untraced repetitions."""
    setup_times = session.setup()
    session.prepare()
    reference = session.reference_rows()
    # every timed operation repeats once per repetition; its time is the
    # median of those repeats
    walls, psd, latencies, accs = [], {}, {}, []
    for index in _until(seconds, workloads.MIN_REPS):
        result = session.rep(index)
        setup_times += result["setup"]
        walls.append(result["wall"])
        for k, r in result["psd"].items():
            psd.setdefault(k, []).append(r)
        for op, r in result["latencies"].items():
            latencies.setdefault(op, []).append(r)
        accs += session.check(result, reference)

    lat_ms = np.array([_median(v) for v in latencies.values()]) * REF_NOMINAL_S * 1e3
    p99 = float(np.percentile(lat_ms, 99))
    metrics = {
        "setup_s": _median(setup_times) * REF_NOMINAL_S,
        "wall_s": _median(walls) * REF_NOMINAL_S,
        "compose_p50_ms": float(np.percentile(lat_ms, 50)),
        "compose_p99_ms": p99,
        # the mean, not the median: some samples make the Jacobi solver run
        # to its sweep cap, and a median would flip between the two modes
        "psd_check_s": statistics.fmean(_median(v) for v in psd.values()) * REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"repetitions": len(walls), "setup_loads": len(setup_times),
               "texts_x_methods": len(latencies), "beyond_p99": int(np.sum(lat_ms > p99)),
               "psd_samples": len(psd), "reference_loops": len(session.refs),
               "reference_ms_median": 1e3 * _median(session.refs)}
    return metrics, samples, float(np.mean(accs)) if accs else None


def measure_traced(session, seconds):
    """Per-layer metrics from traced repetitions, each paired with an untraced one."""
    tracer = tracing.Tracer()
    loads = {"corpus.load_embeddings": [], "corpus.load_corpus": []}
    clamped = []

    def collect_loads():
        for s in tracer.spans:
            if s.name in loads:
                loads[s.name].append(s.duration)
            if "clamped" in s.attrs:
                clamped.append(s.attrs["clamped"])

    with tracing.installed(tracer):
        session.setup()
    collect_loads()
    session.prepare()
    per_rep, walls_plain, walls_traced, accs = [], [], [], []
    for index in _until(seconds, 2):
        # alternate which side of the pair runs first, so that neither side
        # always pays for warm-up
        results = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.reset()
            results[traced] = session.rep(2 * index + traced, tracer if traced else None)
        collect_loads()
        plain, traced = results[False], results[True]
        walls_plain.append(plain["wall"])
        walls_traced.append(traced["wall"])
        per_rep.append(tracing.layer_metrics(tracer.spans, tracer.counts, traced["traced_s"]))
        accs += session.check(traced, {})
        if session.w.kind == "grid":
            session.checker.same_table(plain["rows"], traced["rows"], "traced vs untraced run")
        else:
            session.checker.check(
                all(np.array_equal(p, traced["points"][k]) for k, p in plain["points"].items()),
                "traced vs untraced points differ")
    tracer.dump(session.spec["trace_out"], {"workload": session.w.name, "seed": session.spec["seed"]})

    metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
    plain_wall = _median(walls_plain)
    metrics.update({
        "corpus.load_embeddings_s": _median(loads["corpus.load_embeddings"]),
        "corpus.load_corpus_s": _median(loads["corpus.load_corpus"]),
        "corpus.clamped_vectors": max(clamped, default=0),
        "harness.accuracy_mean": float(np.mean(accs)) if accs else 0.0,
        "trace.overhead_frac": (_median(walls_traced) - plain_wall) / plain_wall,
    })
    return metrics, {"traced_reps": len(per_rep)}, None


def main(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # the loaders warn once per load about clamped vectors; the count is a metric
    logging.getLogger("gyrotext").setLevel(logging.ERROR)
    session = Session(spec)
    metrics, samples, accuracy = (measure_traced if spec["trace"] else measure)(
        session, spec["seconds"])
    units = tracing.UNITS if spec["trace"] else UNITS
    result = {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples,
        "accuracy_mean": accuracy,
        "attempted": session.checker.attempted,
        "failed": session.checker.failed,
        "failures": session.checker.failures[:20],
        "numpy": np.__version__,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
