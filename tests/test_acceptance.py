"""Acceptance gate: one test per shipping criterion, at full stated scale.

Each test prints through the terminal-summary hook in conftest.py as a
PASS/FAIL line. Scales and tolerances here are contractual; do not
shrink them to speed up local runs.
"""

import csv
import math
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from gyrotext.classify import knn_fit, knn_predict_batch, svm_train_smo
from gyrotext.composition import METHODS, compose, mobius_sum
from gyrotext.gyroball import (
    geodesic_point,
    mobius_add,
    mobius_neg,
    mobius_scale,
    poincare_distance,
    weighted_midpoint,
)
from gyrotext.harness import (
    ExperimentConfig,
    KnnSpec,
    run_experiment,
)
from gyrotext.kernels import KernelSpec, gram_matrix, psd_check

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"

DIMS = (2, 10, 100)


def sample_ball(rng, dim, max_norm=0.9):
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    return u * rng.uniform(0.0, max_norm)


def sample_rows(rng, n, dim, max_norm=0.9):
    u = rng.normal(size=(n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(0.0, max_norm, size=(n, 1))


def test_gyrogroup_identity_suite_bulk():
    """1,000 randomized cases per algebraic law across dims 2/10/100, abs 1e-8, < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    tol = 1e-8
    for case in range(1000):
        dim = DIMS[case % 3]
        a = sample_ball(rng, dim, 0.85)
        b = sample_ball(rng, dim, 0.85)
        x = sample_ball(rng, dim, 0.85)
        g = sample_ball(rng, dim, 0.7)
        r, t = rng.uniform(-2.0, 2.0, size=2)

        # identity and inverse at the origin
        np.testing.assert_allclose(mobius_add(np.zeros(dim), x), x, atol=tol)
        np.testing.assert_allclose(mobius_add(mobius_neg(x), x), np.zeros(dim), atol=tol)
        # left cancellation
        np.testing.assert_allclose(
            mobius_add(mobius_neg(a), mobius_add(a, b)), b, atol=tol
        )
        # scalar associativity and distributivity
        np.testing.assert_allclose(
            mobius_scale(r, mobius_scale(t, x)), mobius_scale(r * t, x), atol=tol
        )
        np.testing.assert_allclose(
            mobius_scale(r + t, x),
            mobius_add(mobius_scale(r, x), mobius_scale(t, x)),
            atol=tol,
        )
        # integer scaling is repeated addition
        n_rep = 2 + case % 3
        acc = x
        for _ in range(n_rep - 1):
            acc = mobius_add(acc, x)
        np.testing.assert_allclose(mobius_scale(float(n_rep), x), acc, atol=tol)
        # translations preserve the metric
        assert poincare_distance(mobius_add(g, a), mobius_add(g, b)) == pytest.approx(
            poincare_distance(a, b), abs=tol
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


def test_geodesic_and_midpoint_metric_properties_bulk():
    """d(a, curve(t)) = t*d(a,b) and the weighted-midpoint distance ratio; 1,000 cases, rel 1e-7."""
    rng = np.random.default_rng(101)
    for case in range(1000):
        dim = DIMS[case % 3]
        a = sample_ball(rng, dim, 0.85)
        b = sample_ball(rng, dim, 0.85)
        d = poincare_distance(a, b)
        if d < 1e-3:
            b = -b
            d = poincare_distance(a, b)
        for t in (0.25, 0.5, 0.75):
            on_curve = geodesic_point(a, b, t)
            assert poincare_distance(a, on_curve) == pytest.approx(t * d, rel=1e-7)
        m_a, m_b = rng.uniform(0.5, 2.0, size=2)
        m = weighted_midpoint(a, b, m_a, m_b)
        ratio = poincare_distance(a, m) / poincare_distance(m, b)
        assert ratio == pytest.approx(m_b / m_a, rel=1e-7)


def test_composition_invariant_suite_bulk():
    """Fixed points, reversal dualities, permutation/rotation/translation behavior, overflow safety."""
    rng = np.random.default_rng(102)

    # single point and constant sequences are fixed points
    for dim in DIMS:
        x = sample_ball(rng, dim, 0.8)
        for method in METHODS:
            assert np.array_equal(compose(method, x[None, :]), x), method
            np.testing.assert_allclose(
                compose(method, np.tile(x, (7, 1))), x, atol=1e-9, err_msg=method
            )

    # reversal dualities are exact; Euclidean mean ignores order exactly
    for trial in range(50):
        dim = DIMS[trial % 3]
        seq = sample_rows(rng, 3 + trial % 10, dim, 0.85)
        assert np.array_equal(compose("lcb", seq), compose("lcf", seq[::-1]))
        assert np.array_equal(compose("bnw", seq), compose("fnw", seq[::-1]))
        perm = rng.permutation(seq.shape[0])
        assert np.array_equal(compose("emean", seq[perm]), compose("emean", seq))

    # translation equivariance for the five fold-based schemes
    for trial in range(25):
        dim = DIMS[trial % 3]
        seq = sample_rows(rng, 6, dim, 0.7)
        g = sample_ball(rng, dim, 0.5)
        shifted = np.stack([mobius_add(g, p) for p in seq])
        for method in ("lcf", "lcb", "lca", "fnw", "bnw"):
            np.testing.assert_allclose(
                compose(method, shifted),
                mobius_add(g, compose(method, seq)),
                atol=1e-7,
                err_msg=method,
            )

    # rotation equivariance for all seven schemes
    for trial in range(25):
        dim = DIMS[trial % 3]
        seq = sample_rows(rng, 6, dim, 0.85)
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        for method in METHODS:
            np.testing.assert_allclose(
                compose(method, seq @ Q.T),
                Q @ compose(method, seq),
                atol=1e-9,
                err_msg=method,
            )

    # 10,000 near-boundary points: the running fold must rescale instead
    # of leaving the ball, and every scheme must return an interior point
    monster = sample_rows(rng, 10_000, 5, 0.9995)
    monster *= 0.999 / np.maximum(np.linalg.norm(monster, axis=1, keepdims=True), 1e-12)
    _, overflow_count = mobius_sum(monster)
    assert overflow_count > 0
    for method in METHODS:
        out = compose(method, monster)
        assert np.linalg.norm(out) < 1.0, method
        assert np.all(np.isfinite(out)), method


def test_fold_direction_witness_search_and_frozen_fixture():
    """Forward and backward folds measurably disagree; the witness stays frozen."""
    rng = np.random.default_rng(103)
    found = 0
    for _ in range(50):
        seq = sample_rows(rng, 5, 3, 0.9)
        gap = float(np.linalg.norm(compose("lcf", seq) - compose("lcb", seq)))
        if gap > 1e-3:
            found += 1
    assert found >= 45, f"only {found}/50 random sequences exceeded the gap threshold"

    frozen = np.loadtxt(DATA / "lcf_lcb_witness.txt")
    gap = float(np.linalg.norm(compose("lcf", frozen) - compose("lcb", frozen)))
    assert gap > 1e-3
    assert gap == pytest.approx(0.38017366221867516, rel=1e-12)


def test_kernel_psd_bulk_and_frozen_counterexample():
    """q=1 Gram PSD on 200 random 30-point configurations; frozen q=2 Gram is not."""
    rng = np.random.default_rng(104)
    lams = (0.5, 1.0, 2.0)
    for trial in range(200):
        dim = DIMS[trial % 3]
        lam = lams[trial % len(lams)]
        pts = sample_rows(rng, 30, dim, 0.95)
        gram = gram_matrix(pts, KernelSpec("geodesic", lam=lam, q=1.0))
        report = psd_check(gram)
        assert report.passed, (
            f"trial {trial}: dim={dim} lam={lam} min_eig={report.min_eigenvalue:.3e}"
        )

    pts = np.loadtxt(DATA / "gaussian_nonpsd_points.txt")
    gram = gram_matrix(pts, KernelSpec("geodesic", lam=0.25, q=2.0))
    min_eig = psd_check(gram).min_eigenvalue
    assert min_eig < -1e-6
    # cross-check the in-repo smallest-eigenvalue route against numpy on the
    # witness matrix
    assert min_eig == pytest.approx(float(np.linalg.eigvalsh(gram.entries)[0]), rel=1e-6)


def oracle_distance(u, v, metric):
    if metric == "euclidean":
        return math.dist(list(u), list(v))
    du = 1.0 - sum(x * x for x in u)
    dv = 1.0 - sum(x * x for x in v)
    gap = sum((a - b) ** 2 for a, b in zip(u, v))
    return math.acosh(max(1.0, 1.0 + 2.0 * gap / (du * dv)))


def oracle_knn(train_points, train_labels, query, k, metric):
    ranked = sorted(
        (oracle_distance(p, query, metric), idx) for idx, p in enumerate(train_points)
    )[:k]
    counts = defaultdict(int)
    sums = defaultdict(float)
    for d, idx in ranked:
        c = int(train_labels[idx])
        counts[c] += 1
        sums[c] += d
    best = max(counts.values())
    tied = [c for c in counts if counts[c] == best]
    if len(tied) == 1:
        return tied[0]
    closest = min(sums[c] for c in tied)
    return min(c for c in tied if sums[c] == closest)


def test_knn_matches_brute_force_at_scale():
    """50 queries x 200 training points, both metrics, identical to the scan oracle."""
    rng = np.random.default_rng(105)
    train = sample_rows(rng, 200, 4, 0.85)
    labels = rng.integers(0, 4, size=200)
    queries = sample_rows(rng, 50, 4, 0.85)
    for metric in ("poincare", "euclidean"):
        for k in (1, 5, 11):
            model = knn_fit(train, labels, k=k, metric=metric)
            got = knn_predict_batch(model, queries).tolist()
            expect = [oracle_knn(train, labels, q, k, metric) for q in queries]
            assert got == expect, f"metric={metric} k={k}"


def smo_fixture(i):
    """Twenty deterministic fixtures alternating separable / overlapping."""
    rng = np.random.default_rng(2000 + i)
    n = (60, 150, 300, 500)[i % 4]
    separable = i % 2 == 0
    if i % 4 < 2:
        # ball clusters + geodesic kernel
        gap = 0.45 if separable else 0.06
        centers = np.array([[gap, 0.0, 0.0], [-gap, 0.0, 0.0]])
        spread = 0.05 if separable else 0.15
        pts = np.concatenate(
            [c + rng.normal(scale=spread, size=(n // 2, 3)) for c in centers]
        )
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        pts = np.where(norms >= 0.98, pts * (0.98 / norms), pts)
        K = gram_matrix(pts, KernelSpec("geodesic", lam=1.0)).entries
    else:
        # Euclidean clusters + linear kernel
        gap = 3.0 if separable else 0.3
        spread = 0.5 if separable else 1.0
        pts = np.concatenate(
            [
                (gap, 0.0) + rng.normal(scale=spread, size=(n // 2, 2)),
                (-gap, 0.0) + rng.normal(scale=spread, size=(n // 2, 2)),
            ]
        )
        K = pts @ pts.T
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return K, y, separable


def test_smo_kkt_and_accuracy_on_twenty_fixtures():
    """KKT residual <= 1e-3, |sum(alpha*y)| <= 1e-6, separable fits are perfect, < 5 s each."""
    for i in range(20):
        K, y, separable = smo_fixture(i)
        C = 10.0 if separable else 1.0
        start = time.perf_counter()
        model = svm_train_smo(K, y, C=C)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"fixture {i}: {elapsed:.2f}s"
        assert model.kkt_residual <= 1e-3, f"fixture {i}"
        assert model.converged, f"fixture {i}"
        assert abs(float(model.alphas @ y)) <= 1e-6, f"fixture {i}"
        assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= C)
        if separable:
            scores = K @ (model.alphas * y) + model.bias
            assert np.all(np.sign(scores) == y), f"fixture {i}: train accuracy < 100%"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cli_end_to_end_synthetic_corpus(synth_files, tmp_path):
    """Full CLI on a 300-document 3-class corpus: grid accuracy, determinism, < 60 s."""
    emb, cor = synth_files
    start = time.perf_counter()
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gyrotext",
                "run",
                "--corpus", str(cor),
                "--embeddings", str(emb),
                "--flavor", "poincare",
                "--methods", "emean,lcf,lcb,lca,fnw,bnw",
                "--knn", "k=5",
                "--knn-metric", "poincare",
                "--split", "holdout:0.8",
                "--seed", "42",
                "--out", str(out),
                "--format", "csv",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"two CLI runs took {elapsed:.1f}s"

    rows = read_rows(outs[0])
    assert rows[0] == ["embedding", "composition", "classifier", "params", "accuracy", "micro_f1", "runtime_s"]
    body = rows[1:]
    assert len(body) == 6  # one k-NN cell per method, complete grid
    assert [r[1] for r in body] == ["emean", "lcf", "lcb", "lca", "fnw", "bnw"]
    accuracy = {r[1]: r[4] for r in body}
    for method in ("emean", "lcf", "lcb", "lca"):
        assert accuracy[method] != "NA"
        assert float(accuracy[method]) >= 0.90, f"{method}: {accuracy[method]}"
    for r in body:
        assert "NA" not in r[4:6]

    # deterministic apart from wall-clock timings
    second = read_rows(outs[1])
    assert [r[:6] for r in rows] == [r[:6] for r in second]


@pytest.mark.skipif(
    not (os.environ.get("GYROTEXT_EMBEDDINGS") and os.environ.get("GYROTEXT_CORPUS")),
    reason="set GYROTEXT_EMBEDDINGS and GYROTEXT_CORPUS to run the public-data grid",
)
def test_public_data_full_knn_grid():
    """With user-supplied public files: the full k-NN grid runs clean, micro-F1 = accuracy."""
    config = ExperimentConfig(
        corpus_path=os.environ["GYROTEXT_CORPUS"],
        embeddings_path=os.environ["GYROTEXT_EMBEDDINGS"],
        flavor="poincare",
        methods=METHODS,
        knn=KnnSpec(ks=(3, 5, 7, 9, 11), metric="poincare"),
    )
    results = run_experiment(config)
    assert len(results.rows) == len(METHODS) * 5
    assert not results.errors
    for row in results.rows:
        if row.accuracy is not None:
            assert row.micro_f1 == row.accuracy


FORMULA_FRAGMENTS = [
    # ball algebra
    "x (+) y = ((1 + 2<x,y>/s^2 + |y|^2/s^2) x + (1 - |x|^2/s^2) y) / (1 + 2<x,y>/s^2 + |x|^2 |y|^2 / s^4)",
    "r (*) x = s tanh(r artanh(|x|/s)) x/|x|",
    "gamma(t) = a (+) ((-a (+) x) (*) t)",
    "M(a, b; m_a, m_b) = gamma(m_b / (m_a + m_b))",
    "d(u, v) = arccosh(1 + 2|u - v|^2 / ((1 - |u|^2)(1 - |v|^2)))",
    # composition schemes
    "emean(x_1..x_n) = sum_i w_i x_i / sum_i w_i",
    "naive(x_1..x_n) = (1/2) (*) (x_1 (+) x_2 (+) ... (+) x_n)",
    "c_1 = x_1; c_k = M(c_(k-1), x_k; W_(k-1), w_k)",
    "lcb(x_1..x_n) = lcf applied to the reversed sequence",
    "lca(x_1..x_n) = M(lcf, lcb; 1, 1)",
    "fnw(x_1..x_n) = M(fnw(x_1..x_m), fnw(x_(m+1)..x_n); W_left, W_right), m = floor(n/2)",
    "bnw(x_1..x_n) = fnw applied to the reversed sequence",
    # kernels and classifiers
    "K(u, v) = exp(-lambda d(u, v)^q)",
    "f(x) = sum_i alpha_i y_i K(x_i, x) + b",
    "(1/2)|w|^2 + C sum_i max(0, 1 - y_i (w.x_i + b))^2",
    "micro-F1 = 2PR / (P + R)",
]


def test_documentation_restates_every_formula():
    """README's math reference carries the implemented formula of each operation."""
    text = README.read_text(encoding="utf-8")
    squashed = re.sub(r"\s+", " ", text)
    missing = [f for f in FORMULA_FRAGMENTS if re.sub(r"\s+", " ", f) not in squashed]
    assert not missing, f"README lacks formulas: {missing}"
