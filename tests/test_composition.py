import collections
import gc
import itertools
import math
import tracemalloc
import warnings

import _compose_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotext import composition, gyroball
from gyrotext.composition import (
    METHODS,
    PointBatch,
    compose,
    compose_batch,
    mobius_sum,
)
from gyrotext.gyroball import midpoint, mobius_add, weighted_midpoint


def random_points(rng, n, dim, max_norm=0.8):
    u = rng.normal(size=(n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(0.0, max_norm, size=(n, 1))


def batch_of(seqs):
    """One batch of the sequences, built as corpus_points builds its batch."""
    return PointBatch(np.concatenate(seqs), [len(s) for s in seqs])


def test_emean_examples():
    x = np.array([0.3, -0.2])
    assert np.array_equal(compose("emean", x[None, :]), x)
    np.testing.assert_allclose(
        compose("emean", np.array([[0.4, 0.0], [-0.4, 0.0]])), 0.0, atol=0
    )
    np.testing.assert_allclose(
        compose("emean", np.array([[0.2, 0.0], [0.4, 0.0], [0.6, 0.0]])), [0.4, 0.0]
    )


def test_emean_exact_permutation_invariance():
    rng = np.random.default_rng(0)
    pts = random_points(rng, 40, 6)
    base = compose("emean", pts)
    for _ in range(20):
        perm = rng.permutation(40)
        assert np.array_equal(compose("emean", pts[perm]), base)


@st.composite
def hard_sums(draw):
    """Ragged batches of Euclidean vectors whose coordinate sums are hard to
    round correctly: values of 6 decimals (exact ties), rows beside their
    negations plus one small row (cancellation), magnitudes from 1e-300 to
    1e300, and columns of -0.0 only. Sequences reach 600 points, past the
    512 tokens of the longest texts composed one at a time."""
    dim = draw(st.integers(1, 4))
    length = st.one_of(st.integers(1, 40), st.integers(41, 600))
    lengths = draw(st.lists(length, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["decimals", "negated", "magnitudes", "negative zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = []
    for n in lengths:
        if kind == "negated":
            half = rng.normal(size=(n // 2, dim))
            small = rng.normal(size=(n % 2, dim)) * 10.0 ** rng.integers(-20, 1)
            x = np.concatenate([half, -half, small])[rng.permutation(n)]
        elif kind == "magnitudes":
            signs = rng.choice([-1.0, 1.0], size=(n, dim))
            x = signs * 10.0 ** rng.uniform(-300, 300, size=(n, dim))
        else:
            x = np.round(rng.uniform(-1.0, 1.0, size=(n, dim)), 6)
            if kind == "negative zeros":
                x[:, rng.random(dim) < 0.5] = -0.0
        seqs.append(x)
    return seqs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hard_sums())
def test_emean_equals_fsum_bit_for_bit(seqs):
    got = compose_batch(("emean",), batch_of(seqs))["emean"]
    for i, seq in enumerate(seqs):
        # a one-point sequence composes to that point itself
        fsum = [math.fsum(col.tolist()) / len(seq) for col in seq.T]
        want = seq[0] if len(seq) == 1 else np.array(fsum)
        assert got[i].tobytes() == want.tobytes(), i
        # the batch of one
        assert compose("emean", seq).tobytes() == want.tobytes(), i
    # groups of at most 50 points; longer sequences alone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composition, "STEP_BYTES", 50 * 8 * seqs[0].shape[1])
        assert compose_batch(("emean",), batch_of(seqs))["emean"].tobytes() == got.tobytes()


def test_emean_peak_memory_is_flat_in_batch_size():
    # emean holds its temporaries for one group of at most STEP_BYTES of
    # points at a time, so beyond its output its peak allocation does not
    # grow with the batch: 2,000 short sequences already make two groups
    rng = np.random.default_rng(24)
    peaks = []
    for count in (2000, 20000):
        lengths = rng.integers(1, 8, size=count)
        batch = PointBatch(rng.uniform(-1.0, 1.0, size=(int(lengths.sum()), 8)), lengths)
        tracemalloc.start()
        try:
            out = compose_batch(("emean",), batch)["emean"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak - out.nbytes)
    assert peaks[1] < 2 * peaks[0], peaks


def test_emean_overflow_raises_as_fsum_does():
    top = np.finfo(np.float64).max
    # the last column has no partial sum that overflows, yet fsum raises
    columns = ([1e308, 1e308], [1e308, 1e308, -1e308], [-1e308, -1e308, 0.5],
               [top / 2, 2.0**1018, -top])
    for col in columns:
        with pytest.raises(OverflowError):
            math.fsum(col)
        seq = np.array(col)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                compose("emean", seq)
            with pytest.raises(OverflowError):
                compose_batch(("emean",), batch_of([np.array([[0.5], [0.25]]), seq]))
    # near the overflow threshold without overflowing, the sums are fsum's
    seq = np.array([[top, 1.0], [-top, 2.0**-1074], [2.0**970, -0.0]])
    want = [math.fsum(col.tolist()) / 3 for col in seq.T]
    assert compose("emean", seq).tobytes() == np.array(want).tobytes()


def test_naive_examples():
    x = np.array([0.3, 0.1])
    assert np.array_equal(compose("naive", x[None, :]), x)
    pts = np.stack([x, -x])
    np.testing.assert_allclose(compose("naive", pts), 0.0, atol=1e-15)
    # (0.5 (+) 0.5) = 0.8, then tanh(0.5 artanh 0.8) = 0.5
    got = compose("naive", np.array([[0.5, 0.0], [0.5, 0.0]]))
    np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-14)


def test_mobius_sum_overflow_rescale():
    # near-boundary collinear points blow the fold onto the boundary
    pts = np.tile(np.array([0.999, 0.0]), (50, 1))
    acc, overflows = mobius_sum(pts)
    assert overflows > 0
    assert np.linalg.norm(acc) < 1.0
    interior, none_fired = mobius_sum(np.array([[0.1, 0.0], [0.2, 0.0]]))
    assert none_fired == 0
    assert interior[0] == pytest.approx(0.3 / 1.02, abs=1e-15)


def test_mobius_sum_rejects_points_outside_ball():
    # a one-point "sum" of [1.5, 0] used to be [1.499985, 0], outside the ball
    for pts in ([[1.5, 0.0]], [[0.1, 0.0], [0.6, 0.8]], [[0.2, 0.0], [0.0, -1.0], [0.1, 0.1]]):
        with pytest.raises(ValueError, match="strictly inside the unit ball"):
            mobius_sum(np.array(pts))


def test_lcf_examples():
    rng = np.random.default_rng(2)
    a, b, c = random_points(rng, 3, 3)
    assert np.array_equal(compose("lcf", a[None, :]), a)
    np.testing.assert_allclose(compose("lcf", np.stack([a, b])), midpoint(a, b), atol=0)
    expect = weighted_midpoint(midpoint(a, b), c, 2.0, 1.0)
    np.testing.assert_allclose(compose("lcf", np.stack([a, b, c])), expect, atol=0)


def test_lcb_examples():
    rng = np.random.default_rng(3)
    a, b = random_points(rng, 2, 3)
    np.testing.assert_allclose(compose("lcb", np.stack([a, b])), midpoint(b, a), atol=0)
    seq = random_points(rng, 5, 3)
    assert np.linalg.norm(compose("lcf", seq) - compose("lcb", seq)) > 1e-6


def test_reversal_duality_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (2, 3, 7, 12):
        seq = random_points(rng, n, 4)
        assert np.array_equal(compose("lcb", seq), compose("lcf", seq[::-1]))
        assert np.array_equal(compose("bnw", seq), compose("fnw", seq[::-1]))


def test_lca_examples():
    rng = np.random.default_rng(5)
    a, b = random_points(rng, 2, 3)
    np.testing.assert_allclose(compose("lca", np.stack([a, b])), midpoint(a, b), atol=1e-12)
    # palindrome: forward and backward folds coincide exactly
    pal = np.stack([a, b, a])
    assert np.array_equal(compose("lcf", pal), compose("lcb", pal))
    np.testing.assert_allclose(compose("lca", pal), compose("lcf", pal), atol=1e-12)


def test_fnw_examples():
    rng = np.random.default_rng(6)
    a, b, c, d = random_points(rng, 4, 3)
    np.testing.assert_allclose(compose("fnw", np.stack([a, b])), midpoint(a, b), atol=0)
    np.testing.assert_allclose(
        compose("fnw", np.stack([a, b, c, d])),
        midpoint(midpoint(a, b), midpoint(c, d)),
        atol=0,
    )
    # split at floor(3/2)=1: singleton left half against the (b,c) midpoint
    np.testing.assert_allclose(
        compose("fnw", np.stack([a, b, c])),
        weighted_midpoint(a, midpoint(b, c), 1.0, 2.0),
        atol=0,
    )


def test_bnw_examples():
    rng = np.random.default_rng(7)
    a, b, c, d = random_points(rng, 4, 3)
    np.testing.assert_allclose(
        compose("bnw", np.stack([a, b, c])),
        weighted_midpoint(c, midpoint(b, a), 1.0, 2.0),
        atol=0,
    )
    assert np.array_equal(
        compose("bnw", np.stack([a, b, c, d])), compose("fnw", np.stack([d, c, b, a]))
    )


def test_fnw_equals_lcf_for_pairs():
    rng = np.random.default_rng(8)
    pair = random_points(rng, 2, 5)
    assert np.array_equal(compose("fnw", pair), compose("lcf", pair))


def test_single_point_fixed_point_exact():
    # bit for bit: a -0.0 coordinate stays -0.0, and a point on the clamp
    # radius is not moved by naive's overflow rescale
    rng = np.random.default_rng(9)
    x = random_points(rng, 1, 4)
    x[0, 1] = -0.0
    for p in (x, x * ((1.0 - 1e-7) / np.linalg.norm(x))):
        for method in METHODS:
            assert compose(method, p).tobytes() == p[0].tobytes(), method


def test_constant_sequence_fixed_point():
    rng = np.random.default_rng(10)
    x = random_points(rng, 1, 3)[0]
    seq = np.tile(x, (9, 1))
    for method in METHODS:
        np.testing.assert_allclose(compose(method, seq), x, atol=1e-9, err_msg=method)


def test_order_sensitivity_of_folds():
    rng = np.random.default_rng(11)
    seq = random_points(rng, 6, 3)
    perm = seq[[3, 1, 5, 0, 2, 4]]
    for method in ("lcf", "lcb", "fnw", "bnw"):
        assert np.linalg.norm(compose(method, seq) - compose(method, perm)) > 1e-6


def test_gyrotranslation_equivariance():
    rng = np.random.default_rng(12)
    seq = random_points(rng, 7, 4, max_norm=0.7)
    g = random_points(rng, 1, 4, max_norm=0.5)[0]
    shifted = np.stack([mobius_add(g, p) for p in seq])
    for method in ("lcf", "lcb", "lca", "fnw", "bnw"):
        expect = mobius_add(g, compose(method, seq))
        np.testing.assert_allclose(compose(method, shifted), expect, atol=1e-7, err_msg=method)


def test_rotation_equivariance_all_methods():
    rng = np.random.default_rng(13)
    seq = random_points(rng, 8, 5)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    for method in METHODS:
        expect = Q @ compose(method, seq)
        np.testing.assert_allclose(compose(method, seq @ Q.T), expect, atol=1e-9, err_msg=method)


def test_outputs_inside_ball():
    rng = np.random.default_rng(14)
    seq = random_points(rng, 30, 3, max_norm=0.98)
    for method in METHODS:
        assert np.linalg.norm(compose(method, seq)) < 1.0, method


def test_methods_are_the_scheme_table_in_order():
    assert composition.METHODS == tuple(composition._SCHEMES)
    assert METHODS == ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw")


def test_dispatch_and_validation():
    rng = np.random.default_rng(15)
    seq = random_points(rng, 4, 3)
    assert np.array_equal(compose("fnw", seq), compose_batch(("fnw",), PointBatch(seq))["fnw"][0])
    with pytest.raises(ValueError):
        compose("frechet", seq)
    with pytest.raises(ValueError):
        compose("emean", np.empty((0, 3)))
    with pytest.raises(ValueError):
        compose("emean", np.array([[np.nan, 0.0]]))


def test_compose_checks_each_point_once(monkeypatch):
    # the batch of one passes the point-row rule once, on construction
    calls = []
    real = composition._rows

    def rows(X, name="points"):
        calls.append(name)
        return real(X, name)

    monkeypatch.setattr(composition, "_rows", rows)
    # and every ball scheme reads the squared norms of one ball check
    checked = []
    real_inside = composition._inside

    def inside(X, name):
        checked.append(name)
        return real_inside(X, name)

    monkeypatch.setattr(composition, "_inside", inside)
    seq = random_points(np.random.default_rng(16), 5, 3)
    for method in METHODS:
        calls.clear()
        checked.clear()
        compose(method, seq)
        assert len(calls) == 1, (method, calls)
        assert checked == ([] if method == "emean" else [f"composition method {method!r}"])
    calls.clear()
    checked.clear()
    mobius_sum(seq)
    assert len(calls) == 1, calls
    assert checked == ["mobius_sum"]
    # a batch is checked once, whatever its passes and however often it is composed
    batch = batch_of([seq, seq[:2]])
    checked.clear()
    compose_batch(METHODS, batch)
    compose_batch(("lca", "naive"), batch)
    assert checked == ["composition method 'naive'"]


# ------------------------------------------- batched vs per-document reference


def ragged_batch(rng, lengths, dim, max_norm=0.8):
    return [random_points(rng, int(n), dim, max_norm) for n in lengths]


def test_compose_batch_rejects_points_outside_ball_except_for_emean():
    # the geodesic steps turn such points into NaN or into points of no geodesic
    outside = [np.array([[0.5, 0.0], [1.5, 0.0], [0.0, 2.0]]), np.array([[0.0, 1.0]])]
    for pts in outside:
        batch = batch_of([np.array([[0.1, 0.2]]), pts])
        for method in (m for m in METHODS if m != "emean"):
            with pytest.raises(ValueError, match="strictly inside the unit ball"):
                compose_batch((method,), batch)
        # emean takes unconstrained Euclidean vectors as they are
        assert np.array_equal(compose_batch(("emean",), batch)["emean"][1], pts.sum(axis=0) / len(pts))


def test_batch_matches_per_document_reference():
    # interior points: every scheme agrees with the one-at-a-time code to
    # 1e-12 (summation order and libm vs numpy tanh differ by ulps only)
    rng = np.random.default_rng(20)
    lengths = np.concatenate([[1, 1, 2, 3, 64], rng.integers(1, 40, size=30)])
    docs = ragged_batch(rng, lengths, 7)
    batch = batch_of(docs)
    for method in METHODS:
        got = compose_batch((method,), batch)[method]
        for i, doc in enumerate(docs):
            expect = reference.compose(method, doc)
            np.testing.assert_allclose(got[i], expect, rtol=0, atol=1e-12,
                                       err_msg=f"{method} doc {i}")


def test_naive_overflow_matches_reference():
    # near-boundary, mostly collinear sequences push the running Mobius sum
    # onto the boundary, so the rescale fires; counts must agree exactly
    rng = np.random.default_rng(21)
    direction = np.array([1.0, 0.0, 0.0])
    docs = []
    for n in (1, 2, 5, 17, 40):
        jitter = 0.05 * rng.normal(size=(n, 3))
        rows = direction + jitter
        docs.append(rows / np.linalg.norm(rows, axis=1, keepdims=True) * 0.999)
    fired = 0
    naive_rows = compose_batch(("naive",), batch_of(docs))["naive"]
    for doc, row in zip(docs, naive_rows):
        expect_sum, expect_count = reference.mobius_sum(doc)
        got_sum, got_count = mobius_sum(doc)
        assert got_count == expect_count
        np.testing.assert_allclose(got_sum, expect_sum, rtol=0, atol=1e-9)
        np.testing.assert_allclose(row, reference.compose("naive", doc), rtol=0, atol=1e-9)
        fired += expect_count
    assert fired > 0


def edge_docs(rng):
    """Single points, the origin row of an all-OOV document, points on the
    clamp radius 1 - 1e-7 and at 1 - 1e-6, a constant sequence, and long
    and short sequences side by side."""
    docs = ragged_batch(rng, [1, 2, 3, 9, 33, 1, 70], 5)
    edge = random_points(rng, 6, 5)
    edge /= np.linalg.norm(edge, axis=1, keepdims=True)
    docs.append(edge * (1.0 - 1e-6))
    docs.append(edge[:1] * (1.0 - 1e-7))
    docs.append(np.tile(edge[2] * (1.0 - 1e-7), (4, 1)))
    docs.append(np.concatenate([edge[:3] * (1.0 - 1e-6), docs[3]]))
    docs.append(np.zeros((1, 5)))
    return docs


def test_batch_of_one_equals_full_batch_bitwise():
    # a text composed alone steps as (d,) vectors, and inside a batch as a
    # row of a stack: both give the same bits under every method, and
    # mobius_sum the same sum and overflow count, for texts of 1, 2 and 3
    # points, origin-only texts, and boundary texts that fire naive's rescale
    rng = np.random.default_rng(22)
    docs = edge_docs(rng) + [np.zeros((3, 5))]
    for n in (2, 3, 8):
        u = np.eye(5)[0] + 0.05 * rng.normal(size=(n, 5))
        docs.append(u / np.linalg.norm(u, axis=1, keepdims=True) * 0.999)
    batch = batch_of(docs)
    for method in METHODS:
        full = compose_batch((method,), batch)[method]
        for i, doc in enumerate(docs):
            one = compose(method, doc)
            assert one.tobytes() == full[i].tobytes(), (method, i)
            assert np.linalg.norm(one) < 1.0, (method, i)
        if method != "emean":
            # the ball schemes' rows are already inside the clamp radius
            assert gyroball._clamp_norms(full)[0].tobytes() == full.tobytes(), method
    sums, _, counts = composition._sums(batch, batch.squared_norms("mobius_sum"))
    for i, doc in enumerate(docs):
        total, count = mobius_sum(doc)
        assert (total.tobytes(), count) == (sums[i].tobytes(), counts[i]), i
    assert counts[-2:].min() > 0 and counts[-3] == 0, counts


def test_one_sequence_steps_as_vectors(monkeypatch):
    # compose and mobius_sum fold one text as (d,) vectors, with no lockstep
    # order: the vector path cannot fall back to a stack of one unseen
    rng = np.random.default_rng(30)
    stepped = []
    real = composition._lockstep

    def lockstep(lengths):
        stepped.append(lengths.size)
        return real(lengths)

    monkeypatch.setattr(composition, "_lockstep", lockstep)
    docs = [random_points(rng, n, 4) for n in (1, 2, 7)]
    for doc in docs:
        # every result is a new array, a one-point text's too
        for method in METHODS:
            assert not np.shares_memory(compose(method, doc), doc), method
        for block in compose_batch(METHODS, PointBatch(doc)).values():
            assert not np.shares_memory(block, doc)
        assert not np.shares_memory(mobius_sum(doc)[0], doc)
    assert stepped == []
    # a batch of two steps in lockstep, lcf and lcb in one shared fold
    compose_batch(("naive", "lcf", "lcb"), batch_of(docs[1:]))
    assert stepped == [2, 4]


def short_text_pools(rng, dim, size):
    """Three pools of ``size`` points, whose first n points make a text of
    every length n: points at 1 - 1e-6, points at the largest squared norm
    below 1 in directions 1e-15 apart (the points whose steps can round
    onto the sphere, where the clamp pulls them back) and interior points,
    shuffled; those points with a last column of -0.0; and those with a
    first column of 1e308 too, whose emean overflows in fsum at every
    length above 1."""
    edge = rng.normal(size=dim) + 1e-15 * rng.normal(size=(60 * size, dim))
    edge *= ((1.0 - 2.0**-53) / np.linalg.norm(edge, axis=1))[:, None]
    edge = edge[np.vecdot(edge, edge) == np.nextafter(1.0, 0.0)][: size // 3]
    assert len(edge) == size // 3
    far = random_points(rng, size // 3, dim, 1.0)
    far *= ((1.0 - 1e-6) / np.linalg.norm(far, axis=1))[:, None]
    inner = random_points(rng, size - 2 * (size // 3), dim)
    mixed = rng.permutation(np.concatenate([far, edge, inner]))
    zeros = mixed.copy()
    zeros[:, -1] = -0.0
    overflow = zeros.copy()
    overflow[:, 0] = 1e308
    return mixed, zeros, overflow


@pytest.mark.parametrize("dim", [2, 50, 300])
def test_short_text_vector_paths_equal_a_batch_of_many(monkeypatch, dim):
    # one text's fnw and bnw step as a tree of (d,) vectors below
    # _VECTOR_TREE_POINTS points, and its emean sums each column by fsum up
    # to _FSUM_ENTRIES coordinates; every text, on both sides of each cut,
    # composes bitwise to its row of a two-text batch, which takes the
    # lockstep tree and the extraction pass, and to a new array
    calls = collections.Counter()

    def counted(name):
        real = getattr(composition, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(composition, name, call)

    counted("_tree")
    counted("_extraction")
    cuts = {"fnw": ("_tree", lambda text: len(text) >= composition._VECTOR_TREE_POINTS),
            "bnw": ("_tree", lambda text: len(text) >= composition._VECTOR_TREE_POINTS),
            "emean": ("_extraction", lambda text: text.size > composition._FSUM_ENTRIES)}
    # every length from 1 to 3 points past each cut
    tree = composition._VECTOR_TREE_POINTS + 2
    longest = {"fnw": tree, "bnw": tree, "emean": composition._FSUM_ENTRIES // dim + 3}
    rng = np.random.default_rng(32)
    mixed, zeros, overflow = short_text_pools(rng, dim, max(longest.values()))
    sides = collections.defaultdict(set)
    for method, (name, past) in cuts.items():
        for pool in (mixed, zeros):
            for n in range(1, longest[method] + 1):
                text = pool[:n]
                calls.clear()
                one = compose(method, text)
                assert (calls[name] > 0) == past(text), (method, n, calls)
                sides[method].add(past(text))
                row = compose_batch((method,), batch_of([text, pool[:2]]))[method][0]
                assert one.tobytes() == row.tobytes(), (method, n)
                assert not np.shares_memory(one, text), (method, n)
    assert all(sides[method] == {False, True} for method in cuts), sides
    # fsum of a column of -0.0, as both routes take it
    assert compose("emean", zeros[:5])[-1].tobytes() == np.float64(math.fsum([-0.0] * 5)).tobytes()
    # a text whose first column overflows fsum raises fsum's OverflowError
    # alone and in a batch, on both sides of emean's cut
    assert compose("emean", overflow[:1]).tobytes() == overflow[0].tobytes()
    for n in range(2, longest["emean"] + 1):
        with pytest.raises(OverflowError):
            compose("emean", overflow[:n])
        with pytest.raises(OverflowError):
            compose_batch(("emean",), batch_of([overflow[:n], zeros[:2]]))


@pytest.mark.parametrize("dim", [2, 50, 300])
def test_one_text_folds_on_floats_equal_a_batch_of_many(monkeypatch, dim):
    # one text's naive sum and its lcf, lcb and lca folds step as (d,)
    # vectors on Python-float norms; a text of every length from 1 to 40,
    # from the pool with points at the edge and from the one with a column
    # of -0.0, composes bitwise to its row of a two-text batch, which folds
    # in lockstep on (B, d) stacks, and mobius_sum gives the sum and count
    # of _sums' row. On the edge pool the (d,) row's clamp pulls steps back
    # and naive's rescale fires, both counted
    pulled = collections.Counter()
    real = gyroball._clamp_vector

    def clamp(x):
        out = real(x)
        pulled[pool_name] += int(np.count_nonzero(out[0] != x) > 0)
        return out

    monkeypatch.setattr(gyroball, "_clamp_vector", clamp)
    rng = np.random.default_rng(34)
    mixed, zeros, _ = short_text_pools(rng, dim, 40)
    methods = ("naive", "lcf", "lcb", "lca")
    rescaled = 0
    for pool_name, pool in (("edge", mixed), ("zeros", zeros)):
        for n in range(1, 41):
            text = pool[:n]
            batch = batch_of([text, pool[:2]])
            rows = compose_batch(methods, batch)
            for method in methods:
                assert compose(method, text).tobytes() == rows[method][0].tobytes(), (method, n)
            total, count = mobius_sum(text)
            sums, _, counts = composition._sums(batch, batch.squared_norms("mobius_sum"))
            assert (total.tobytes(), count) == (sums[0].tobytes(), counts[0]), n
            rescaled += count
    assert pulled["edge"] > 0 and rescaled > 0, (pulled, rescaled)


def test_composing_leaves_no_reference_cycle():
    # every object a composition makes is freed by reference counting: a
    # cycle (such as a recursive closure) would keep a text's points alive
    # until the cyclic GC ran, between the texts a caller composes
    rng = np.random.default_rng(33)
    gc.collect()
    gc.disable()
    try:
        for n in (1, 3, 12, 40):
            text = random_points(rng, n, 50)
            for method in METHODS:
                compose(method, text)
            mobius_sum(text)
            compose_batch(METHODS, batch_of([text, text[:2]]))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------- carried squared norms vs recomputed norms


def clamped(X, step, seen):
    """X through the clamp, counting in ``seen[step]`` the rows it pulled back."""
    X, _, over = gyroball._clamp_norms(X)
    seen[step] += int(over.sum())
    return X


def recomputed_geodesic(A, B, t, seen):
    """The geodesic step's expressions, with 1 - |x|^2 of both rows taken by
    np.vecdot at every step, where composition carries it from step to step."""
    D = B - A
    c_a = 1.0 - np.vecdot(A, A)
    c_b = 1.0 - np.vecdot(B, B)
    x = np.sqrt(np.vecdot(D, D) / (c_a * c_b))
    h = np.arcsinh(x)
    th = t * h
    uh = h - th
    alpha = np.sinh(2.0 * uh) / c_a
    beta = np.sinh(2.0 * th) / c_b
    gamma = 2.0 * x * np.sinh(th) * np.sinh(uh)
    den = np.maximum(alpha + beta + gamma, np.finfo(np.float64).tiny)
    return clamped((1.0 - gamma / den)[:, None] * A + (beta / den)[:, None] * D, "geodesic", seen)


def recomputed_add(A, B, seen):
    """Mobius addition's expressions, with both squared norms taken by np.vecdot."""
    dot2 = 2.0 * np.vecdot(A, B)[:, None]
    na2 = np.vecdot(A, A)[:, None]
    nb2 = np.vecdot(B, B)[:, None]
    num = (1.0 + (dot2 + nb2)) * A + (1.0 - na2) * B
    den = 1.0 + dot2 + na2 * nb2
    return clamped(num / den, "add", seen)


def recomputed_sum(rows, seen):
    """naive's running Mobius sum of (1, d) rows and its overflow count, with
    the norm that the rescale tests taken anew after every step."""
    count = 0
    for i, row in enumerate(rows):
        acc = row if i == 0 else recomputed_add(acc, row, seen)
        if np.sqrt(np.vecdot(acc, acc))[0] >= composition.MAX_NORM:
            acc = acc * composition.OVERFLOW_RESCALE
            count += 1
    seen["rescale"] += count
    return acc, count


def recomputed(method, seq, seen):
    """One sequence composed step by step on (1, d) rows, every squared norm
    taken anew from the row it belongs to."""
    rows = [seq[i : i + 1] for i in range(len(seq))]

    def fold(rows):
        acc = rows[0]
        for k, row in enumerate(rows[1:], start=1):
            acc = recomputed_geodesic(acc, row, 1.0 / (k + 1), seen)
        return acc

    def tree(rows):
        n, half = len(rows), len(rows) // 2
        if n == 1:
            return rows[0]
        return recomputed_geodesic(tree(rows[:half]), tree(rows[half:]), (n - half) / n, seen)

    if len(rows) == 1:
        return seq[0]
    if method == "emean":
        return np.array([math.fsum(col) for col in seq.T]) / len(seq)
    if method == "naive":
        acc, _ = recomputed_sum(rows, seen)
        n = np.sqrt(np.vecdot(acc, acc))
        mag = np.tanh(1.0 / len(rows) * np.arctanh(n))
        return clamped((mag / np.where(n > 0.0, n, 1.0))[:, None] * acc, "scale", seen)[0]
    return {
        "lcf": lambda: fold(rows),
        "lcb": lambda: fold(rows[::-1]),
        "lca": lambda: recomputed_geodesic(fold(rows), fold(rows[::-1]), 0.5, seen),
        "fnw": lambda: tree(rows),
        "bnw": lambda: tree(rows[::-1]),
    }[method]()[0]


def boundary_docs(rng, dim):
    """Points at norm 1 - 1e-6; points at the largest squared norm below 1,
    in directions 1e-15 apart, whose geodesic and Mobius steps can round
    onto the sphere, so that the clamp pulls them back; nearly collinear
    points at norm 0.999, whose running Mobius sum reaches MAX_NORM, so
    that naive's rescale fires; and interior points, alone and mixed."""

    def directions(n, around, spread):
        u = around + spread * rng.normal(size=(n, dim))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    docs = []
    for n in (1, 2, 3, 8, 21, 40):
        edge = directions(100 * n, rng.normal(size=dim), 1e-15) * (1.0 - 2.0**-53)
        kinds = [
            directions(n, 0.0, 1.0) * (1.0 - 1e-6),
            edge[np.vecdot(edge, edge) == np.nextafter(1.0, 0.0)][:n],
            directions(n, np.eye(dim)[0], 0.05) * 0.999,
            random_points(rng, n, dim),
        ]
        assert all(len(doc) == n for doc in kinds)
        docs += kinds + [rng.permutation(np.concatenate(kinds))]
    return docs


@pytest.mark.parametrize("dim", [2, 50])
def test_carried_norms_match_norms_recomputed_at_every_step(dim):
    rng = np.random.default_rng(26)
    docs = boundary_docs(rng, dim)
    seen = collections.Counter()
    want = {m: np.stack([recomputed(m, doc, seen) for doc in docs]) for m in METHODS}
    # the documents reach naive's rescale and the pull-backs of its Mobius
    # steps; in the plane, where a rounded step reaches the sphere more
    # often, those of the geodesic steps too
    assert seen["add"] and seen["rescale"] and (dim > 2 or seen["geodesic"]), seen
    for method in METHODS:
        for i, doc in enumerate(docs):
            # in C order, in Fortran order, and as a strided view: a batch
            # keeps its points in C order, whose np.vecdot sums as the
            # rows' recomputed here do
            for points in (doc, np.asfortranarray(doc), np.repeat(doc, 2, axis=1)[:, ::2]):
                assert compose(method, points).tobytes() == want[method][i].tobytes(), (method, i)
    for i, doc in enumerate(docs):
        got_sum, got_count = mobius_sum(doc)
        want_sum, want_count = recomputed_sum([doc[j : j + 1] for j in range(len(doc))], seen)
        assert (got_sum.tobytes(), got_count) == (want_sum[0].tobytes(), want_count), i
    # ragged batches, every document and a shuffled half of them, and a
    # batch of documents of one length
    one_length = [i for i, doc in enumerate(docs) if len(doc) == 8]
    for pick in (np.arange(len(docs)), rng.permutation(len(docs))[: len(docs) // 2], one_length):
        blocks = compose_batch(METHODS, batch_of([docs[i] for i in pick]))
        for method in METHODS:
            assert blocks[method].tobytes() == want[method][pick].tobytes(), method


def test_shared_fold_blocks_equal_one_method_blocks_bitwise():
    # every mix of the folds with the other methods, in two request orders:
    # each block is the one-method block, byte for byte
    rng = np.random.default_rng(24)
    batch = batch_of(edge_docs(rng))
    alone = {m: compose_batch((m,), batch)[m] for m in METHODS}
    folds, others = ("lcf", "lcb", "lca"), ("emean", "naive", "fnw", "bnw")
    for f, o in itertools.product(range(1, 8), range(16)):
        methods = [m for i, m in enumerate(folds) if f >> i & 1]
        methods += [m for i, m in enumerate(others) if o >> i & 1]
        for order in (rng.permutation(methods).tolist(), methods[::-1]):
            blocks = compose_batch(order, batch)
            assert sorted(blocks) == sorted(order)
            for m, block in blocks.items():
                assert block.tobytes() == alone[m].tobytes(), (order, m)


def test_shared_fold_runs_once(monkeypatch):
    rng = np.random.default_rng(25)
    batch = batch_of(ragged_batch(rng, [1, 4, 9], 3))
    folded = []
    real = composition._fold

    def fold(points, c, first, stride, lengths):
        folded.append(lengths.size)
        return real(points, c, first, stride, lengths)

    monkeypatch.setattr(composition, "_fold", fold)
    for methods, rows in [(("lcf",), 3), (("lca",), 6), (("lcb", "lcf"), 6),
                          (("naive", "lca", "fnw", "lcf", "lcb"), 6)]:
        folded.clear()
        compose_batch(methods, batch)
        assert folded == [rows], methods
    assert composition._passes(("lcb", "emean", "lca", "bnw", "lcf")) == [
        ("lcb", "lca", "lcf"), ("emean",), ("bnw",)
    ]


@pytest.mark.parametrize("methods", [(), ("lcf", "frechet"), ("lca", "emean", "lca"), "lcf"])
def test_compose_batch_rejects_a_bad_method_list(methods):
    batch = PointBatch(np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        compose_batch(methods, batch)


def test_an_unhashable_method_name_meets_the_method_list_rule():
    # the plan cache hashes the method list; a list as a name must still get
    # the rule's message, not the cache's TypeError
    pts = np.array([[0.1, 0.2]])
    message = r"^unknown composition methods \[\['lcf'\]\]; expected from \("
    with pytest.raises(ValueError, match=message):
        compose(["lcf"], pts)
    with pytest.raises(ValueError, match=message):
        compose_batch([["lcf"]], PointBatch(pts))


def test_tree_groups_match_one_group(monkeypatch):
    # fnw/bnw split a large batch into groups of consecutive sequences; the
    # grouping must not change any row
    rng = np.random.default_rng(23)
    batch = batch_of(ragged_batch(rng, rng.integers(1, 30, size=25), 4))
    # groups of at most 10 points of 4 coordinates; longer sequences alone
    monkeypatch.setattr(composition, "STEP_BYTES", 10 * 4 * 8)
    grouped = {m: compose_batch((m,), batch)[m] for m in ("fnw", "bnw")}
    monkeypatch.setattr(composition, "STEP_BYTES", 10**9)
    for method, rows in grouped.items():
        assert np.array_equal(compose_batch((method,), batch)[method], rows), method


def test_fold_peak_memory_holds_no_copy_of_the_batch():
    # a fold or naive gathers each step's rows as it takes the step; beside
    # its per-point bookkeeping (one float per point) it never holds a copy
    # of the batch's points
    rng = np.random.default_rng(28)
    points = random_points(rng, 6000, 256)
    for methods in [("naive",), ("lcf",), ("lcb",), ("lcf", "lcb", "lca")]:
        batch = PointBatch(points, [3000, 2000, 1000])
        tracemalloc.start()
        try:
            compose_batch(methods, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes / 4, (methods, peak, points.nbytes)


def test_compose_batch_writes_nothing_into_a_batch_of_many():
    # naive's rescale and the folds' steps write their running points back
    # in place: into gathered copies, never into the batch's read-only
    # points or its kept squared norms, and no block is a view of the points
    rng = np.random.default_rng(21)
    docs = []
    for n in (1, 2, 5, 17, 40):
        rows = np.array([1.0, 0.0, 0.0]) + 0.05 * rng.normal(size=(n, 3))
        docs.append(rows / np.linalg.norm(rows, axis=1, keepdims=True) * 0.999)
    points = np.concatenate(docs)
    before = points.tobytes()
    points.setflags(write=False)
    batch = PointBatch(points, [len(doc) for doc in docs])
    n2 = batch.squared_norms("test").copy()
    blocks = compose_batch(METHODS, batch)
    assert batch.points.tobytes() == before
    assert batch.squared_norms("test").tobytes() == n2.tobytes()
    for method, block in blocks.items():
        assert not np.shares_memory(block, batch.points), method
    # the rescale fired
    assert composition._sums(batch, n2)[2].sum() > 0


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
def test_unsigned_lengths_compose_as_int64(dtype):
    rng = np.random.default_rng(31)
    lengths = [3, 1, 5, 5, 2]
    points = random_points(rng, sum(lengths), 4)
    want = compose_batch(METHODS, PointBatch(points, np.array(lengths, dtype=np.int64)))
    batch = PointBatch(points, np.array(lengths, dtype=dtype))
    assert batch.lengths.dtype == np.int64 and batch.starts.tolist() == [0, 3, 4, 9, 14]
    got = compose_batch(METHODS, batch)
    for method in METHODS:
        assert got[method].tobytes() == want[method].tobytes(), method
    if dtype == np.uint64:
        # 2^64 - 1 and 17 sum to 16 in uint64; as int64 the first is -1
        with pytest.raises(ValueError, match="one or more sequences"):
            PointBatch(points, np.array([2**64 - 1, 17], dtype=dtype))


def test_point_batch_validation():
    pts = np.zeros((3, 2))
    # with no lengths the points are one sequence
    one = PointBatch(pts)
    assert one.lengths.tolist() == [3] and one.starts.tolist() == [0]
    for bad in (np.empty((0, 2)), np.array([[np.inf, 0.0]]), np.float64(0.5)):
        with pytest.raises(ValueError):
            PointBatch(bad)
    for lengths in ([2], [], [3, 0], [4, -1], [[3]]):
        with pytest.raises(ValueError):
            PointBatch(pts, lengths)
    # these int64 lengths sum to 16, and their partial sums wrap; a length
    # above the point count is refused before any of them is taken
    with pytest.raises(ValueError, match="sum to the point count"):
        PointBatch(np.zeros((16, 2)), [2**62] * 4 + [16])
    # lengths go through np.asarray: a list of ints builds, float lengths
    # get the batch's own error
    listed = PointBatch(pts, [3])
    assert isinstance(listed.lengths, np.ndarray) and listed.lengths.tolist() == [3]
    assert listed.starts.tolist() == [0]
    for lengths in ([3.0], [1.5, 1.5]):
        with pytest.raises(ValueError, match="one or more sequences"):
            PointBatch(pts, lengths)
    batch = batch_of([pts, pts[:1]])
    assert batch.lengths.tolist() == [3, 1] and batch.starts.tolist() == [0, 3]
    with pytest.raises(ValueError):
        compose_batch(("frechet",), batch)
