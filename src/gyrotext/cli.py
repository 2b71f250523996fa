"""Command-line interface.

Three subcommands:

    run           full (composition x classifier) experiment grid -> CSV/JSON
    check-kernel  PSD diagnostic for the geodesic kernel on sampled vectors
    compose       compose a single text into one ball point, printed as JSON

Exit codes: 0 on success; 1 when grid cells errored (run) or the PSD
check failed (check-kernel); 2 on bad arguments or input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .classify import METRIC_KINDS, LinearPrimalConfig, SmoConfig
from .composition import METHODS, _check_methods, _repeated, compose
from .corpus import FLAVORS, doc_to_points, load_embeddings, tokenize
from .harness import (
    ExperimentConfig,
    KnnSpec,
    SplitError,
    SplitSpec,
    _check_seed,
    _composable,
    emit_table,
    run_experiment,
)
from .kernels import KernelSpec, gram_matrix, psd_check

# Not called here: benchmarks/tracing.py looks this name up in this module.
from .corpus import load_corpus  # noqa: F401

KERNEL_NAMES = {
    "geodesic-laplacian": ("geodesic", 1.0),
    "geodesic-gaussian": ("geodesic", 2.0),
    "euclidean-rbf": ("euclidean_rbf", None),
    "linear": ("linear", None),
}


def _flag(flag: str, parse, *args, **kwargs):
    """parse(*args, **kwargs) for one flag's value, naming the flag in its errors."""
    try:
        return parse(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_pairs(text: str) -> dict:
    pairs = {}
    keys = []
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value items, got {part!r}")
        keys.append(key)
        pairs[key] = value
    # a later value would silently replace an earlier one
    if repeated := _repeated(keys):
        raise ValueError(f"repeated keys {repeated}")
    return pairs


def _number(kind, text: str, key: str):
    try:
        return kind(text)
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{key} takes {noun} only, got {text!r}") from None


def _parse_methods(text: str) -> tuple:
    return _check_methods([m.strip() for m in text.split(",") if m.strip()])


def _parse_knn(text: str) -> tuple:
    # the k list shares one key: k=3,5,7,9,11
    if not text.startswith("k="):
        raise ValueError(f"expected k=K1,K2,..., got {text!r}")
    return tuple(_number(int, v, "k") for v in text[2:].split(","))


def _parse_svm(text: str) -> SmoConfig:
    pairs = _parse_pairs(text)
    name = pairs.pop("kernel", "geodesic-laplacian")
    if name not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {name!r}; choose from {','.join(KERNEL_NAMES)}")
    kind, q = KERNEL_NAMES[name]
    lam = _number(float, pairs.pop("lambda", 1.0), "lambda")
    q = _number(float, pairs.pop("q", q if q is not None else 1.0), "q")
    C = _number(float, pairs.pop("C", 1.0), "C")
    if pairs:
        raise ValueError(f"unknown keys {sorted(pairs)}")
    kernel = KernelSpec(kind=kind, lam=lam, q=q)
    return SmoConfig(kernel=kernel, C=C)


def _parse_linear_svm(text: str) -> LinearPrimalConfig:
    pairs = _parse_pairs(text)
    C = _number(float, pairs.pop("C", 1.0), "C")
    if pairs:
        raise ValueError(f"unknown keys {sorted(pairs)}")
    return LinearPrimalConfig(C=C)


def _parse_split(text: str, seed: int) -> SplitSpec:
    kind, sep, value = text.partition(":")
    if kind == "holdout":
        ratio = _number(float, value, "holdout:RATIO") if sep else 0.8
        return SplitSpec(kind="holdout", ratio=ratio, seed=seed)
    if kind == "kfold":
        if not sep:
            raise ValueError("kfold needs a fold count, e.g. kfold:5")
        folds = _number(int, value, "kfold:K")
        return SplitSpec(kind="kfold", folds=folds, seed=seed)
    raise ValueError(f"expected holdout:RATIO or kfold:K, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gyrotext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment grid and write a results table")
    run.add_argument("--corpus", required=True, help="label-TAB-text corpus file")
    run.add_argument("--embeddings", required=True, help="word-vector text file")
    run.add_argument("--flavor", required=True, choices=FLAVORS)
    run.add_argument("--methods", default=",".join(METHODS), help="comma list of composition methods")
    run.add_argument("--knn", default="k=3,5,7,9,11", help="k list, e.g. k=3,5,7,9,11; 'off' disables")
    run.add_argument("--knn-metric", choices=METRIC_KINDS, default=None,
                     help="k-NN metric (default: match the embedding flavor)")
    run.add_argument("--svm", default=None, help="e.g. kernel=geodesic-laplacian,lambda=1.0,C=1.0")
    run.add_argument("--linear-svm", default=None, help="e.g. C=1.0")
    run.add_argument("--split", default="holdout:0.8", help="holdout:RATIO or kfold:K")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--out", default="results.csv")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    check = sub.add_parser("check-kernel", help="PSD diagnostic on a sampled Gram matrix")
    check.add_argument("--embeddings", required=True)
    check.add_argument("--n", type=int, default=30, help="number of sampled vectors")
    check.add_argument("--q", type=float, default=1.0, help="geodesic exponent (1 or 2)")
    check.add_argument("--lam", type=float, default=1.0, help="kernel rate lambda")
    check.add_argument("--seed", type=int, default=0)

    comp = sub.add_parser("compose", help="compose one text into a single point")
    comp.add_argument("--embeddings", required=True)
    comp.add_argument("--flavor", choices=FLAVORS, default="poincare")
    comp.add_argument("--method", required=True, choices=list(METHODS))
    comp.add_argument("--text", required=True)
    return parser


def _check_writable(path: str) -> None:
    """Raise the OSError that writing the table to ``path`` would, before
    any work; a file that did not exist is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_run(args) -> int:
    knn = None
    if args.knn != "off":
        knn = _flag("--knn", KnnSpec, ks=_flag("--knn", _parse_knn, args.knn), metric=args.knn_metric)
    config = ExperimentConfig(
        corpus_path=args.corpus,
        embeddings_path=args.embeddings,
        flavor=args.flavor,
        methods=_flag("--methods", _parse_methods, args.methods),
        knn=knn,
        svm=_flag("--svm", _parse_svm, args.svm) if args.svm else None,
        linear_svm=_flag("--linear-svm", _parse_linear_svm, args.linear_svm) if args.linear_svm else None,
        split=_flag("--split", _parse_split, args.split, _flag("--seed", _check_seed, args.seed)),
    )
    _check_writable(args.out)
    try:
        results = run_experiment(config)
    except SplitError as exc:
        raise ValueError(f"--split: {exc}") from None
    emit_table(results, args.format, args.out)
    print(f"{len(results.rows)} rows -> {args.out}")
    if results.errors:
        print(f"{len(results.errors)} cells failed:", file=sys.stderr)
        for row in results.errors:
            print(f"  {row.composition}/{row.classifier}[{row.params}]: {row.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_check_kernel(args) -> int:
    # KernelSpec checks lambda before q, so only --lam can fail the first spec
    _flag("--lam", KernelSpec, lam=args.lam)
    kernel = _flag("--q", KernelSpec, lam=args.lam, q=args.q)
    rng = np.random.default_rng(_flag("--seed", _check_seed, args.seed))
    table, _ = load_embeddings(args.embeddings, "poincare")
    tokens = sorted(table.vectors)
    if args.n < 2 or args.n > len(tokens):
        raise ValueError(f"--n: must lie in [2, {len(tokens)}], got {args.n}")
    chosen = rng.choice(len(tokens), size=args.n, replace=False)
    points = np.stack([table.vectors[tokens[i]] for i in chosen])
    report = psd_check(gram_matrix(points, kernel))
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"n={args.n} q={args.q:g} lambda={args.lam:g} "
        f"min_eigenvalue={report.min_eigenvalue:.6e} psd={verdict}"
    )
    return 0 if report.passed else 1


def _cmd_compose(args) -> int:
    if not _composable(args.flavor, args.method):
        raise ValueError(
            f"--method {args.method} is undefined on euclidean-flavor vectors; only emean is defined there"
        )
    table, _ = load_embeddings(args.embeddings, args.flavor)
    tokens = tokenize(args.text)
    doc = doc_to_points(tokens, table)
    point = compose(args.method, doc.points)
    json.dump(
        {
            "method": args.method,
            "tokens": len(tokens),
            "oov": doc.oov,
            "point": point.tolist(),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-kernel":
            return _cmd_check_kernel(args)
        return _cmd_compose(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
