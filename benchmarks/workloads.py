"""Seeded inputs for the three benchmark workloads.

Every workload is built from the fixture generators in ``tests/_synth.py``
(imported read-only, with the seed passed in), then written to an
embedding file and a label-TAB-text corpus file. The program only ever
sees those two files. The same seed gives byte-identical files.

Why each workload exists:

- ``grid-long-docs`` exercises composition: 75 documents of 40-80 tokens
  run through all seven methods with only the default k-NN grid, so the
  Mobius folds dominate and classifier work barely registers.
- ``grid-many-short-docs`` exercises the classifiers: 450 documents of
  4-10 tokens, two cheap methods, and the k-NN grid plus the kernel SVM
  and the linear SVM. Cross-class tokens make the classes overlap, so the
  mean accuracy sits below 1 and works as a quality guard.

Both grids are sized so that one ``gyrotext run`` takes 1.5-2.5 s, so a
30 s run times it several times. After each grid run the caller composes
held-out documents of the same kind one at a time, so the grids report
per-text latency too.

- ``interactive`` exercises composition at batch size 1: one caller turns
  heavy-tailed texts into points one at a time over a large vocabulary
  with near-boundary vectors, interleaving PSD checks. It shows per-text
  latency, loader cost and the Jacobi solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from _synth import (
    CLASS_NAMES,
    make_corpus,
    make_embeddings,
    write_corpus_file,
    write_embedding_file,
)

# a vector counts as near the boundary from this norm on
NEAR_BOUNDARY_NORM = 1.0 - 1e-5
# PSD checks: PSD_SAMPLES fixed samples of PSD_N vectors (q=1 on even, q=2
# on odd ones), PSD_PER_REP of them per repetition in rotation; interactive
# interleaves them between texts. Many samples, since the share that runs
# Jacobi to its sweep cap varies with the seed
PSD_SAMPLES = 36
PSD_PER_REP = 6
PSD_N = 60
# grids: held-out documents per class, composed one at a time after each
# grid run, a third of them per repetition in rotation; 150 documents x 7
# methods leave ten samples beyond the p99. The rotation keeps repetitions
# short, so that a run times many grid runs
HELD_OUT_PER_CLASS = 50
HELD_OUT_SLICES = 3
# repetitions measured even when --seconds has already run out: enough to
# measure every PSD sample and every held-out document
MIN_REPS = PSD_SAMPLES // PSD_PER_REP


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid" or "interactive"
    dim: int
    tokens_per_class: int
    docs_per_class: int
    doc_len: tuple = ()
    methods: tuple = ()
    grid_args: tuple = ()
    # share of tokens swapped for a token of another class
    cross_class: float = 0.0
    # shares of class tokens pushed onto / just outside the unit sphere
    near_boundary: float = 0.0
    outside: float = 0.0
    # interactive only: log-normal text lengths
    median_len: float = 0.0
    len_sigma: float = 0.0
    max_len: int = 0
    n_oov_texts: int = 0
    n_single_texts: int = 0
    # minimum mean accuracy of any grid cell (3 classes: chance is 1/3)
    accuracy_floor: float = 0.0
    # loads of both input files per repetition; setup_s is their median
    setup_reps: int = 5


ALL_METHODS = ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-long-docs",
            kind="grid",
            dim=50,
            tokens_per_class=400,
            docs_per_class=25,
            doc_len=(40, 80),
            methods=ALL_METHODS,
            grid_args=("--knn", "k=3,5,7,9,11"),
            accuracy_floor=0.9,
        ),
        Workload(
            name="grid-many-short-docs",
            kind="grid",
            dim=50,
            tokens_per_class=400,
            docs_per_class=150,
            doc_len=(4, 10),
            methods=("emean", "lcf"),
            grid_args=(
                "--knn", "k=3,5,7,9,11",
                "--svm", "kernel=geodesic-laplacian",
                "--linear-svm", "C=1.0",
            ),
            cross_class=0.35,
            accuracy_floor=0.6,
        ),
        Workload(
            name="interactive",
            kind="interactive",
            dim=50,
            tokens_per_class=10000,
            docs_per_class=50,
            methods=ALL_METHODS,
            near_boundary=0.01,
            outside=0.01,
            median_len=12.0,
            len_sigma=1.0,
            max_len=512,
            n_oov_texts=3,
            n_single_texts=3,
            setup_reps=1,
        ),
    )
}


def _push_to_boundary(vectors, class_tokens, w: Workload, rng) -> None:
    """Move a seeded share of class tokens onto the boundary region: some to
    norm 1 - 1e-6 (inside), some to 1 + 1e-6 (outside, clamped on load)."""
    pool = [t for tokens in class_tokens for t in tokens]
    n_near = int(round(w.near_boundary * len(pool)))
    n_out = int(round(w.outside * len(pool)))
    chosen = rng.choice(len(pool), size=n_near + n_out, replace=False)
    for rank, i in enumerate(chosen):
        v = vectors[pool[i]]
        target = 1.0 - 1e-6 if rank < n_near else 1.0 + 1e-6
        vectors[pool[i]] = v * (target / float(np.linalg.norm(v)))


def _mix_classes(records, class_tokens, share: float, rng):
    """Swap a share of each document's tokens for tokens of another class."""
    index = {name: c for c, name in enumerate(CLASS_NAMES)}
    mixed = []
    for label, text in records:
        c = index[label]
        words = text.split()
        for i in range(len(words)):
            if rng.random() < share:
                other = (c + 1 + int(rng.integers(len(CLASS_NAMES) - 1))) % len(CLASS_NAMES)
                vocab = class_tokens[other]
                words[i] = vocab[int(rng.integers(len(vocab)))]
        mixed.append((label, " ".join(words)))
    return mixed


def _interactive_texts(class_tokens, shared, w: Workload, rng):
    """Texts with log-normal lengths taken at fixed quantiles, so every seed
    sees the same length distribution; only order and tokens are seeded."""
    n = w.docs_per_class * len(CLASS_NAMES)
    dist = NormalDist(math.log(w.median_len), w.len_sigma)
    lengths = [
        min(w.max_len, max(1, int(round(math.exp(dist.inv_cdf((i + 0.5) / n))))))
        for i in range(n)
    ]
    for i in range(w.n_single_texts):
        lengths[i] = 1
    order = rng.permutation(n)
    records = []
    for slot, i in enumerate(order):
        label = CLASS_NAMES[slot % len(CLASS_NAMES)]
        if i >= n - w.n_oov_texts:
            # all out-of-vocabulary: composed as the origin
            words = [f"oov{slot}x{j}" for j in range(lengths[i])]
        else:
            vocab = class_tokens[CLASS_NAMES.index(label)]
            words = [
                shared[int(rng.integers(len(shared)))] if rng.random() < 0.1
                else vocab[int(rng.integers(len(vocab)))]
                for _ in range(lengths[i])
            ]
        records.append((label, " ".join(words)))
    return records


def _grid_docs(w: Workload, class_tokens, shared, docs_per_class, seed, rng):
    records = make_corpus(class_tokens, shared, docs_per_class=docs_per_class,
                          doc_len=w.doc_len, seed=seed)
    if w.cross_class:
        records = _mix_classes(records, class_tokens, w.cross_class, rng)
    return records


def build(w: Workload, seed: int, directory):
    """Write the workload's embedding and corpus files, and on a grid the
    held-out documents; returns (paths, input properties)."""
    vectors, class_tokens, shared = make_embeddings(
        dim=w.dim, tokens_per_class=w.tokens_per_class, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    if w.near_boundary or w.outside:
        _push_to_boundary(vectors, class_tokens, w, rng)
    paths = {"embeddings": str(directory / "vectors.txt"),
             "corpus": str(directory / "corpus.tsv"), "held_out": None}
    held_out = []
    if w.kind == "interactive":
        records = _interactive_texts(class_tokens, shared, w, rng)
    else:
        records = _grid_docs(w, class_tokens, shared, w.docs_per_class, seed + 2, rng)
        held_out = _grid_docs(w, class_tokens, shared, HELD_OUT_PER_CLASS, seed + 3, rng)
        paths["held_out"] = str(directory / "held_out.tsv")
        write_corpus_file(paths["held_out"], held_out)
    write_embedding_file(paths["embeddings"], vectors)
    write_corpus_file(paths["corpus"], records)
    props = _properties(w, seed, vectors, records)
    props["held_out_documents"] = len(held_out)
    props["held_out_tokens"] = sum(len(text.split()) for _, text in held_out)
    return paths, props


def _properties(w: Workload, seed: int, vectors, records) -> dict:
    lengths = np.array([len(text.split()) for _, text in records])
    oov = sum(1 for _, text in records for t in text.split() if t not in vectors)
    empty = sum(1 for _, text in records if not any(t in vectors for t in text.split()))
    norms = np.array([float(np.linalg.norm(v)) for v in vectors.values()])
    q = np.quantile(lengths, [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0])
    return {
        "seed": seed,
        "documents": int(lengths.size),
        "tokens": int(lengths.sum()),
        "length_quantiles": dict(zip(("min", "p25", "p50", "p75", "p90", "p99", "max"),
                                     (float(x) for x in q))),
        "vocabulary": len(vectors),
        "dimension": w.dim,
        "near_boundary_share": float(np.mean(norms >= NEAR_BOUNDARY_NORM)),
        "outside_ball_vectors": int(np.sum(norms >= 1.0)),
        "oov_tokens": oov,
        "empty_documents": empty,
        "methods": list(w.methods),
    }
