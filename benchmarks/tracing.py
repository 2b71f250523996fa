"""Spans and counters recorded from outside the program.

The tracer wraps each module's public functions under every name a caller
looks them up by. The package binds its callees with ``from .x import``,
so wrapping only the defining module would miss e.g. ``harness.represent_corpus``
or ``classify.gram_matrix``. Whole-call functions get spans (name, layer,
start, end, parent); the per-call gyrovector operations get counters
only, since a span per ``mobius_add`` would cost more than the operation.

Spans are held in memory; ``Tracer.dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from gyrotext import classify, cli, composition, corpus, gyroball, harness, kernels

LAYERS = ("corpus", "composition", "gyroball", "kernels", "classify", "harness", "cli")
METHODS = composition.METHODS

# every per-layer metric a traced run reports, with its unit
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"composition.{m}_us_per_token": "us/token" for m in METHODS},
    **{f"composition.{m}_tokens": "count" for m in METHODS},
    **dict.fromkeys((
        "corpus.load_embeddings_s", "corpus.load_corpus_s", "corpus.tokenize_s",
        "corpus.represent_corpus_self_s", "gyroball.pairwise_distance_s", "kernels.gram_s",
        "kernels.cross_kernel_s", "kernels.psd_check_s", "classify.knn_predict_s",
        "classify.smo_s", "classify.linear_svm_s", "harness.emit_table_s", "trace.unspanned_s",
    ), "s"),
    **dict.fromkeys((
        "corpus.tokens", "corpus.oov_tokens", "corpus.empty_docs", "corpus.clamped_vectors",
        "composition.compose_calls", "composition.naive_overflows",
        "gyroball.mobius_add_calls", "gyroball.mobius_scale_calls",
        "gyroball.weighted_midpoint_calls", "gyroball.pairwise_distance_entries",
        "kernels.gram_entries", "kernels.cross_kernel_entries", "classify.knn_queries",
        "classify.smo_iters", "classify.smo_models", "classify.linear_sample_updates",
        "harness.cells", "harness.cells_failed", "trace.spans",
    ), "count"),
    "kernels.gram_bytes": "bytes",
    "classify.smo_converged_frac": "fraction",
    "harness.accuracy_mean": "fraction",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; ``spans`` are in start order."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts.clear()

    def span(self, layer, fn, on_return=None):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = Span(name, layer, time.perf_counter(), 0.0,
                       self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(rec.attrs, args, out)
            return out

        return wrapper

    def counter(self, key, fn, on_return=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(counts, args, out)
            return out

        return wrapper

    def dump(self, path, extra=None):
        payload = {
            "spans": [
                {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=float)


def _plan(tracer: Tracer):
    """(modules the name is looked up in, attribute, wrapper) for every
    traced function."""

    def on_compose(attrs, args, out):
        attrs["method"] = args[0]
        attrs["tokens"] = int(len(args[1]))

    def on_doc(counts, args, out):
        counts["corpus.tokens"] += len(args[0])
        counts["corpus.oov_tokens"] += out.oov
        counts["corpus.empty_docs"] += int(out.empty)

    def on_sum(counts, args, out):
        counts["composition.naive_overflows"] += out[1]

    def on_load(attrs, args, out):
        attrs["clamped"] = out[1].clamped

    def on_entries(attrs, args, out):
        attrs["entries"] = int(out.size)

    def on_gram(attrs, args, out):
        attrs["entries"] = int(out.entries.size)
        attrs["bytes"] = int(out.entries.nbytes)

    def on_queries(attrs, args, out):
        attrs["queries"] = int(len(out))

    def on_smo(attrs, args, out):
        attrs["iters"] = out.n_iter
        attrs["converged"] = bool(out.converged)

    def on_linear(attrs, args, out):
        # epochs actually run x samples: one update per sample per epoch
        attrs["updates"] = int(out.objective_history.size * len(args[0]))

    def on_run(attrs, args, out):
        attrs["cells"] = len(out.rows)
        attrs["cells_failed"] = sum(1 for r in out.rows if r.error is not None or r.accuracy is None)

    c = corpus
    return [
        ((c, harness, cli), "load_embeddings", tracer.span("corpus", c.load_embeddings, on_load)),
        ((c, harness, cli), "load_corpus", tracer.span("corpus", c.load_corpus)),
        ((c, cli), "tokenize", tracer.span("corpus", c.tokenize)),
        ((c, cli), "doc_to_points", tracer.counter("corpus.doc_to_points_calls", c.doc_to_points, on_doc)),
        ((c, harness), "represent_corpus", tracer.span("corpus", c.represent_corpus)),
        ((composition, c, cli), "compose", tracer.span("composition", composition.compose, on_compose)),
        ((composition,), "mobius_sum", tracer.counter("composition.mobius_sum_calls", composition.mobius_sum, on_sum)),
        ((gyroball, composition), "mobius_add", tracer.counter("gyroball.mobius_add_calls", gyroball.mobius_add)),
        ((gyroball, composition), "mobius_scale", tracer.counter("gyroball.mobius_scale_calls", gyroball.mobius_scale)),
        ((composition,), "weighted_midpoint", tracer.counter("gyroball.weighted_midpoint_calls", gyroball.weighted_midpoint)),
        ((kernels, classify), "pairwise_poincare_distance",
         tracer.span("gyroball", gyroball.pairwise_poincare_distance, on_entries)),
        ((kernels, classify, cli), "gram_matrix", tracer.span("kernels", kernels.gram_matrix, on_gram)),
        ((classify,), "cross_kernel", tracer.span("kernels", kernels.cross_kernel, on_entries)),
        ((kernels, cli), "psd_check", tracer.span("kernels", kernels.psd_check)),
        ((harness,), "knn_fit", tracer.span("classify", classify.knn_fit)),
        ((harness,), "knn_predict_batch", tracer.span("classify", classify.knn_predict_batch, on_queries)),
        ((harness,), "ovr_train", tracer.span("classify", classify.ovr_train)),
        ((harness,), "ovr_predict", tracer.span("classify", classify.ovr_predict)),
        ((classify,), "svm_train_smo", tracer.span("classify", classify.svm_train_smo, on_smo)),
        ((classify,), "linear_svm_primal_train",
         tracer.span("classify", classify.linear_svm_primal_train, on_linear)),
        ((harness,), "split", tracer.span("harness", harness.split)),
        ((harness,), "evaluate", tracer.span("harness", harness.evaluate)),
        ((cli,), "run_experiment", tracer.span("harness", harness.run_experiment, on_run)),
        ((cli,), "emit_table", tracer.span("harness", harness.emit_table)),
        ((cli,), "main", tracer.span("cli", cli.main)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for modules, attr, wrapper in _plan(tracer):
            for module in modules:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans, counts, wall: float) -> dict:
    """Per-layer numbers for one traced repetition of ``wall`` seconds."""
    own = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total = Counter()
    calls = Counter()
    attr_sum = Counter()
    for s, t in zip(spans, own):
        m[f"{s.layer}.self_s"] += t
        total[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key != "method":
                attr_sum[f"{s.name}:{key}"] += value

    compose_s = Counter()
    compose_tokens = Counter()
    for s in spans:
        if s.name == "composition.compose":
            compose_s[s.attrs["method"]] += s.duration
            compose_tokens[s.attrs["method"]] += s.attrs["tokens"]
    for method in METHODS:
        n = compose_tokens[method]
        m[f"composition.{method}_us_per_token"] = 1e6 * compose_s[method] / n if n else 0.0
        m[f"composition.{method}_tokens"] = n

    smo = calls["classify.svm_train_smo"]
    m.update({
        "corpus.tokenize_s": total["corpus.tokenize"],
        "corpus.represent_corpus_self_s": sum(
            t for s, t in zip(spans, own) if s.name == "corpus.represent_corpus"),
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.oov_tokens": counts["corpus.oov_tokens"],
        "corpus.empty_docs": counts["corpus.empty_docs"],
        "composition.compose_calls": calls["composition.compose"],
        "composition.naive_overflows": counts["composition.naive_overflows"],
        "gyroball.mobius_add_calls": counts["gyroball.mobius_add_calls"],
        "gyroball.mobius_scale_calls": counts["gyroball.mobius_scale_calls"],
        "gyroball.weighted_midpoint_calls": counts["gyroball.weighted_midpoint_calls"],
        "gyroball.pairwise_distance_s": total["gyroball.pairwise_poincare_distance"],
        "gyroball.pairwise_distance_entries": attr_sum["gyroball.pairwise_poincare_distance:entries"],
        "kernels.gram_s": total["kernels.gram_matrix"],
        "kernels.gram_entries": attr_sum["kernels.gram_matrix:entries"],
        "kernels.gram_bytes": attr_sum["kernels.gram_matrix:bytes"],
        "kernels.cross_kernel_s": total["kernels.cross_kernel"],
        "kernels.cross_kernel_entries": attr_sum["kernels.cross_kernel:entries"],
        "kernels.psd_check_s": total["kernels.psd_check"],
        "classify.knn_predict_s": total["classify.knn_predict_batch"],
        "classify.knn_queries": attr_sum["classify.knn_predict_batch:queries"],
        "classify.smo_s": total["classify.svm_train_smo"],
        "classify.smo_iters": attr_sum["classify.svm_train_smo:iters"],
        "classify.smo_models": smo,
        "classify.smo_converged_frac": (
            attr_sum["classify.svm_train_smo:converged"] / smo if smo else 0.0),
        "classify.linear_svm_s": total["classify.linear_svm_primal_train"],
        "classify.linear_sample_updates": attr_sum["classify.linear_svm_primal_train:updates"],
        "harness.emit_table_s": total["harness.emit_table"],
        "harness.cells": attr_sum["harness.run_experiment:cells"],
        "harness.cells_failed": attr_sum["harness.run_experiment:cells_failed"],
        "trace.unspanned_s": wall - sum(s.duration for s in spans if s.parent < 0),
        "trace.spans": len(spans),
    })
    return m
