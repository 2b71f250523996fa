import _load_reference as reference
import numpy as np
import pytest

from gyrotext import corpus
from gyrotext.composition import compose
from gyrotext.corpus import (
    FLAVORS,
    DocPoints,
    EmbeddingTable,
    compose_corpus,
    corpus_points,
    doc_to_points,
    load_corpus,
    load_embeddings,
    represent_corpus,
    tokenize,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# -------------------------------------------------------------- embeddings


def test_load_embeddings_basic(tmp_path):
    path = write(tmp_path, "emb.txt", "a 0.1 0.2\nb 0.3 0.4\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert table.dimension == 2 and len(table) == 2
    np.testing.assert_allclose(table.vectors["a"], [0.1, 0.2])
    assert report == (2, 2, 0, 0)


def test_load_embeddings_clamps_boundary_vectors(tmp_path):
    path = write(tmp_path, "emb.txt", "edge 0.8 0.6\nok 0.1 0.0\n")
    table, report = load_embeddings(path, flavor="poincare")
    norm = float(np.linalg.norm(table.vectors["edge"]))
    assert norm == pytest.approx(1.0 - 1e-7, rel=1e-12)
    assert norm < 1.0
    assert report.clamped == 1
    # direction preserved
    np.testing.assert_allclose(table.vectors["edge"] / norm, [0.8, 0.6], atol=1e-12)


def test_load_embeddings_euclidean_never_clamps(tmp_path):
    path = write(tmp_path, "emb.txt", "big 3.0 4.0\n")
    table, report = load_embeddings(path, flavor="euclidean")
    np.testing.assert_allclose(table.vectors["big"], [3.0, 4.0], atol=0)
    assert report.clamped == 0


def test_load_embeddings_word2vec_count_header(tmp_path):
    rng = np.random.default_rng(7)
    vecs = rng.uniform(-0.5, 0.5, size=(200, 3))
    body = "".join(f"w{i} " + " ".join(repr(float(x)) for x in v) + "\n" for i, v in enumerate(vecs))
    table, report = load_embeddings(write(tmp_path, "w2v.txt", "200 3\n" + body), "poincare")
    assert table.dimension == 3 and len(table) == 200
    assert "200" not in table
    np.testing.assert_array_equal(table.vectors["w0"], vecs[0])
    # the header is neither a parsed nor a skipped line
    assert report == (200, 200, 0, 0)
    headless, _ = load_embeddings(write(tmp_path, "plain.txt", body), "poincare")
    assert headless.vectors.keys() == table.vectors.keys()
    # "7 2" is a 1-d vector when the next line has 2 fields, not d + 1 = 3
    table, report = load_embeddings(write(tmp_path, "1d.txt", "7 2\na 0.5\n"), "euclidean")
    assert table.dimension == 1 and len(table) == 2
    np.testing.assert_array_equal(table.vectors["7"], [2.0])
    assert report == (2, 2, 0, 0)


def test_load_embeddings_skips_malformed_lines(tmp_path):
    lines = ["w%d 0.01 0.02" % i for i in range(300)]
    lines.insert(5, "bad 0.1 0.2 0.3")  # wrong dimension
    lines.insert(9, "alone")  # token with no numbers
    lines.insert(12, "nan_line 0.1 oops")  # unparseable number
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert report.skipped == 3
    assert report.parsed + report.skipped == report.total == 303
    assert len(table) == 300
    assert "bad" not in table and "alone" not in table


def test_load_embeddings_duplicate_tokens_skipped(tmp_path):
    lines = ["w%d 0.01 0.02" % i for i in range(200)]
    lines.append("w0 0.5 0.5")
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert report.skipped == 1
    np.testing.assert_allclose(table.vectors["w0"], [0.01, 0.02], atol=0)


def test_load_embeddings_abort_above_skip_threshold(tmp_path):
    lines = ["w%d 0.1 0.2" % i for i in range(50)] + ["junk"] * 2
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed"):
        load_embeddings(path, flavor="poincare")


def test_load_embeddings_exactly_at_threshold_loads(tmp_path):
    lines = ["w%d 0.1 0.2" % i for i in range(99)] + ["junk"]
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert report.skipped == 1 and len(table) == 99


def test_load_embeddings_errors(tmp_path):
    with pytest.raises(OSError):
        load_embeddings(tmp_path / "absent.txt", flavor="poincare")
    path = write(tmp_path, "emb.txt", "a 0.1 0.2\n")
    with pytest.raises(ValueError, match="flavor"):
        load_embeddings(path, flavor="spherical")
    empty = write(tmp_path, "none.txt", "junk\n")
    with pytest.raises(ValueError, match="no parseable"):
        load_embeddings(empty, flavor="poincare")


def test_load_embeddings_deterministic(tmp_path):
    body = "\n".join("w%d %r %r" % (i, 0.001 * i, -0.002 * i) for i in range(40))
    p1 = write(tmp_path, "e1.txt", body)
    p2 = write(tmp_path, "e2.txt", body)
    t1, _ = load_embeddings(p1, flavor="poincare")
    t2, _ = load_embeddings(p2, flavor="poincare")
    assert t1.vectors.keys() == t2.vectors.keys()
    for tok in t1.vectors:
        assert np.array_equal(t1.vectors[tok], t2.vectors[tok])


def test_load_embeddings_clamp_values(tmp_path):
    path = write(tmp_path, "emb.txt", "a 0.5 0\nb 1 0\nc 3 4\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert np.array_equal(table.vectors["a"], [0.5, 0.0])
    np.testing.assert_allclose(table.vectors["b"], [1.0 - 1e-7, 0.0], atol=1e-16)
    np.testing.assert_allclose(
        table.vectors["c"], np.array([0.6, 0.8]) * (1.0 - 1e-7), atol=1e-15
    )
    assert report == (3, 3, 0, 2)


def test_load_embeddings_number_grammar(tmp_path):
    # Python's float() reads digit groups and non-ASCII digits; numpy's text
    # reader does not, so these two lines are malformed
    lines = ["w%d 0.%d 0.5" % (i, i % 10) for i in range(200)] + ["w 1_000 2", "v ١ ٢"]
    table, report = load_embeddings(write(tmp_path, "emb.txt", "\n".join(lines)), "euclidean")
    assert report == (202, 200, 2, 0)
    assert "w" not in table and "v" not in table


# spellings that float() and numpy's text reader read alike
NUMBER_FORMATS = ("{!r}", "{:.6e}", "{:+.17g}", "{:.17E}")
SEPARATORS = (" ", "  ", "\t", " \t ")


def mixed_embedding_lines(rng, dim, n_good, header, first_block_dirty):
    """Seeded embedding-file lines: n_good good ones plus 7 bad ones.

    Good line i holds a vector of norm in (0.05, 0.95), 1 - 1e-6, 1 + 1e-6 or
    in (1.5, 4) as i % 4 is 0, 1, 2 or 3, with numbers and separators of
    mixed spelling. The bad lines are an unparseable number, a wrong
    dimension, a lone token, a nan, an inf, a repeat of a token just seen and
    a repeat of the first token. The nan line carries the last good line's
    token, which must still load. Returns the lines and the positions of the
    bad ones, counted after the optional "V d" header.
    """

    def fields(values):
        out = ""
        for x in values:
            out += SEPARATORS[rng.integers(len(SEPARATORS))]
            out += NUMBER_FORMATS[rng.integers(len(NUMBER_FORMATS))].format(float(x))
        return out + " " * int(rng.integers(2))

    rows = []
    for i in range(n_good):
        v = rng.normal(size=dim)
        norm = (rng.uniform(0.05, 0.95), 1.0 - 1e-6, 1.0 + 1e-6, rng.uniform(1.5, 4.0))[i % 4]
        rows.append((f"w{i}" + fields(v * (norm / np.linalg.norm(v))), False))
    small = rng.uniform(-0.1, 0.1, size=dim + 1)
    bad = [
        "garbled" + fields(small[:dim]) + " 0.1.2",
        "wide" + fields(small),
        "lonely  ",
        f"w{n_good - 1}" + fields(small[1:dim]) + " NaN",
        "infinite" + fields(small[1:dim]) + " -Infinity",
    ]
    # a dirty first block: the garbled line first (after the first line when
    # a header needs that one good), the wide one after a good line
    first = ([1, 2] if header else [0, 1]) if first_block_dirty else []
    others = rng.choice(np.arange(8, n_good), size=len(bad) - len(first), replace=False)
    # inserted from the back, so each position still points into the good lines
    for pos, line in sorted(zip(first + sorted(others.tolist()), bad), reverse=True):
        rows.insert(pos, (line, True))
    k = int(rng.integers(10, n_good - 1))
    at = next(i for i, (line, _) in enumerate(rows) if line.split()[0] == f"w{k}")
    rows.insert(at + 1, (f"w{k}" + fields(small[:dim]), True))
    rows.insert(int(rng.integers(len(rows) // 2, len(rows))), ("w0" + fields(small[:dim]), True))
    lines = [line for line, _ in rows]
    positions = [i for i, (_, is_bad) in enumerate(rows) if is_bad]
    if header:
        lines.insert(0, f"{len(rows)} {dim}")
    return lines, positions


def assert_same_load(got, want):
    (table, report), (want_table, want_report) = got, want
    assert report == want_report
    assert table.dimension == want_table.dimension
    assert list(table.vectors) == list(want_table.vectors)
    for token, vec in want_table.vectors.items():
        row = table.vectors[token]
        assert row.dtype == np.float64 and row.shape == (table.dimension,)
        assert row.tobytes() == vec.tobytes(), token


@pytest.mark.parametrize(
    "dim, header, first_block_dirty",
    [(4, False, True), (4, True, True), (4, True, False), (1, False, True), (1, True, False)],
)
def test_load_embeddings_blocks_match_per_line_reference(
    tmp_path, monkeypatch, dim, header, first_block_dirty
):
    # small blocks give clean blocks, dirty ones that are parsed a line per
    # call, and (first_block_dirty) a dirty first block whose per-line parse
    # fixes the dimension; one block of the default size holds the file
    rng = np.random.default_rng(60 + dim + 2 * header + 4 * first_block_dirty)
    lines, bad = mixed_embedding_lines(rng, dim, 800, header, first_block_dirty)
    n_body = len(lines) - header
    assert len(bad) == 7 and n_body == 807
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    junk = write(tmp_path, "junk.txt", "\n".join(lines + ["junk"] * 5) + "\n")
    for block_lines in (3, 4, 5, corpus.PARSE_BLOCK_LINES):
        monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", block_lines)
        if block_lines < 6:
            dirty = {pos // block_lines for pos in bad}
            assert 0 < len(dirty) < -(-n_body // block_lines)
            assert (0 in dirty) == first_block_dirty
        for flavor in FLAVORS:
            got = load_embeddings(path, flavor)
            assert got[1] == (807, 800, 7, 400 if flavor == "poincare" else 0)
            assert_same_load(got, reference.load_embeddings(path, flavor))
        for load in (load_embeddings, reference.load_embeddings):
            with pytest.raises(ValueError, match="12 of 812 lines malformed"):
                load(junk, "poincare")


def test_load_embeddings_skips_a_whole_block_of_wrong_dimension(tmp_path, monkeypatch):
    # a block whose lines all parse, to the wrong width, is read in one call
    monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", 2)
    lines = ["w%d 0.%d 0.2" % (i, i % 10) for i in range(300)]
    lines[100:100] = ["wide 0.1 0.2 0.3", "wider 0.1 0.2 0.3"]
    path = write(tmp_path, "emb.txt", "\n".join(lines))
    got = load_embeddings(path, "poincare")
    assert got[1] == (302, 300, 2, 0)
    assert_same_load(got, reference.load_embeddings(path, "poincare"))


def test_load_embeddings_skips_a_block_of_unparseable_lines(tmp_path, monkeypatch):
    # every line of one dirty block fails on its own, so none of it is kept
    monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", 3)
    lines = ["w%d 0.%d -0.3" % (i, i % 10) for i in range(397)]
    lines[99:99] = ["bad1 0.1 x", "bad2 y 0.2", "bad3 0.1 0.2z"]
    assert len(lines) == 400 and 99 % 3 == 0
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    got = load_embeddings(path, "poincare")
    assert got[1] == (400, 397, 3, 0)
    assert_same_load(got, reference.load_embeddings(path, "poincare"))


def test_load_embeddings_keeps_direction_of_overflowing_vector(tmp_path):
    # the squared norm of (1e200, 0) overflows to inf; the row must still be
    # clamped along its direction, without a floating-point warning
    path = write(tmp_path, "emb.txt", "a 1e200 0\nb -1e300 1e300\nc 0.1 0.2\n")
    table, report = load_embeddings(path, "poincare")
    assert report == (3, 3, 0, 2)
    assert table.vectors["a"].tolist() == [0.9999999, 0.0]
    b = table.vectors["b"]
    assert b[0] == -b[1] and b[1] > 0
    assert np.linalg.norm(b) == pytest.approx(0.9999999, abs=1e-15)
    assert table.vectors["c"].tolist() == [0.1, 0.2]


# --------------------------------------------------------------- tokenizer


def test_tokenize_basic():
    assert tokenize("Hello, world!") == ["hello", "world"]
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_digit_runs_and_casefolding():
    assert tokenize("ABC123def") == ["abc123def"]
    assert tokenize("v2.0-beta") == ["v2", "0", "beta"]


def test_tokenize_turkish_fixture():
    # dotted capital I lowercases to "i" + combining dot above (U+0307);
    # splitting happens before lowercasing so the token stays whole
    got = tokenize("İstanbul'da 3 gün")
    assert got == ["i̇stanbul", "da", "3", "gün"]


def test_tokenize_deterministic():
    text = "Çok güzel, 42 kere söyledim!"
    assert tokenize(text) == tokenize(text)


# ------------------------------------------------------------------ corpus


def test_load_corpus_basic(tmp_path):
    path = write(tmp_path, "c.tsv", "sport\tmatch report\n")
    corpus, report = load_corpus(path)
    assert corpus.records == (("sport", "match report"),)
    assert corpus.label_set == frozenset({"sport"})
    assert report == (1, 1, 0)


def test_load_corpus_label_set(tmp_path):
    path = write(tmp_path, "c.tsv", "a\tone\nb\ttwo\na\tthree\n")
    corpus, _ = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.label_set == frozenset({"a", "b"})


def test_load_corpus_rejects_tabless_lines(tmp_path):
    lines = ["lab\tdoc %d" % i for i in range(300)]
    lines.insert(7, "no tab here")
    path = write(tmp_path, "c.tsv", "\n".join(lines) + "\n")
    corpus, report = load_corpus(path)
    assert report.rejected == 1
    assert report.parsed + report.rejected == report.total == 301
    assert len(corpus) == 300


def test_load_corpus_abort_above_threshold(tmp_path):
    path = write(tmp_path, "c.tsv", "a\tx\nbroken line\n")
    with pytest.raises(ValueError, match="TAB"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = write(tmp_path, "c.tsv", "")
    with pytest.raises(ValueError):
        load_corpus(path)


def test_load_corpus_keeps_duplicates_and_tabs_in_text(tmp_path):
    path = write(tmp_path, "c.tsv", "a\tsame text\na\tsame text\nb\tcol1\tcol2\n")
    corpus, _ = load_corpus(path)
    assert corpus.records[0] == corpus.records[1]
    # only the first TAB separates label from text
    assert corpus.records[2] == ("b", "col1\tcol2")


# ----------------------------------------------------------- doc_to_points


def make_table():
    return EmbeddingTable(
        dimension=2,
        vectors={
            "a": np.array([0.1, 0.0]),
            "b": np.array([0.3, 0.0]),
            "c": np.array([0.0, 0.2]),
        },
        flavor="poincare",
    )


def test_doc_to_points_examples():
    table = make_table()
    got = doc_to_points(["a", "b"], table)
    assert got.points.shape == (2, 2) and got.oov == 0 and not got.empty
    np.testing.assert_allclose(got.points, [[0.1, 0.0], [0.3, 0.0]], atol=0)
    partial = doc_to_points(["a", "zzz"], table)
    assert partial.points.shape == (1, 2) and partial.oov == 1
    empty = doc_to_points([], table)
    assert empty.empty and empty.oov == 0 and empty.points.shape == (0, 2)
    all_oov = doc_to_points(["x", "y"], table)
    assert all_oov.empty and all_oov.oov == 2


def test_doc_to_points_preserves_order_and_repeats():
    table = make_table()
    got = doc_to_points(["b", "a", "b"], table)
    np.testing.assert_allclose(got.points, [[0.3, 0.0], [0.1, 0.0], [0.3, 0.0]], atol=0)


# -------------------------------------------------------- represent_corpus


def corpus_of(*records):
    from gyrotext.corpus import LabeledCorpus

    return LabeledCorpus(
        records=tuple(records), label_set=frozenset(l for l, _ in records)
    )


def test_represent_corpus_single_doc_mean():
    table = make_table()
    corpus = corpus_of(("lab", "a b"))
    reps, labels, diag = represent_corpus(corpus, table, "emean")
    np.testing.assert_allclose(reps, [[0.2, 0.0]], atol=1e-15)
    assert labels == ["lab"]
    assert diag.n_docs == 1 and diag.oov_rate == 0.0


def test_represent_corpus_all_oov_doc_is_origin():
    table = make_table()
    corpus = corpus_of(("x", "a b c"), ("y", "qqq zzz"))
    reps, labels, diag = represent_corpus(corpus, table, "lcf")
    assert diag.empty_doc_indices == (1,)
    np.testing.assert_allclose(reps[1], [0.0, 0.0], atol=0)
    assert diag.oov_tokens == 2 and diag.total_tokens == 5
    assert diag.oov_rate == pytest.approx(0.4)


def test_represent_corpus_row_count_matches_corpus():
    table = make_table()
    corpus = corpus_of(("x", "a"), ("y", ""), ("z", "b c a"), ("w", "nope"))
    reps, labels, diag = represent_corpus(corpus, table, "fnw")
    assert reps.shape == (4, 2)
    assert labels == ["x", "y", "z", "w"]
    assert diag.empty_doc_indices == (1, 3)


def test_represent_corpus_lcf_vs_lcb_differ():
    table = make_table()
    corpus = corpus_of(("x", "a b c a b"),)
    f, _, _ = represent_corpus(corpus, table, "lcf")
    b, _, _ = represent_corpus(corpus, table, "lcb")
    assert np.linalg.norm(f - b) > 1e-6


def test_represent_corpus_outputs_stay_in_ball():
    rng = np.random.default_rng(50)
    toks = {f"t{i}": rng.uniform(-0.5, 0.5, 2) * 0.9 for i in range(30)}
    table = EmbeddingTable(dimension=2, vectors=toks, flavor="poincare")
    text = " ".join(rng.choice(sorted(toks), size=12))
    corpus = corpus_of(("x", text), ("y", text))
    for method in ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw"):
        reps, _, _ = represent_corpus(corpus, table, method)
        assert np.all(np.linalg.norm(reps, axis=1) < 1.0), method


def test_represent_corpus_deterministic():
    table = make_table()
    corpus = corpus_of(("x", "a b c"), ("y", "c b"))
    r1, _, _ = represent_corpus(corpus, table, "lca")
    r2, _, _ = represent_corpus(corpus, table, "lca")
    assert np.array_equal(r1, r2)


def test_represent_corpus_empty_corpus_raises():
    from gyrotext.corpus import LabeledCorpus

    with pytest.raises(ValueError):
        represent_corpus(
            LabeledCorpus(records=(), label_set=frozenset()), make_table(), "emean"
        )


def test_corpus_rows_equal_per_text_compose_bitwise(tmp_path):
    # represent_corpus composes the corpus as one batch; each of its rows
    # must equal the per-text path (tokenize, look up, compose one) bit for
    # bit, also for single-token texts, all-OOV texts (the origin), vectors
    # at norm 1 - 1e-6 and vectors clamped on load from norm 1 + 1e-6
    rng = np.random.default_rng(51)
    lines = []
    for i in range(40):
        v = rng.normal(size=4)
        norm = (1.0 - 1e-6, 1.0 + 1e-6)[i % 2] if i < 8 else rng.uniform(0.1, 0.9)
        v *= norm / np.linalg.norm(v)
        lines.append(f"w{i} " + " ".join(repr(float(x)) for x in v))
    table, report = load_embeddings(write(tmp_path, "e.txt", "\n".join(lines) + "\n"), "poincare")
    assert report.clamped == 4
    texts = ["w0", "oov only here", "w1 w2 w3", "", "w7"]
    texts += [" ".join(f"w{j}" for j in rng.integers(0, 40, size=n)) for n in (2, 5, 17, 60)]
    texts += ["w0 w1 w2 w3 w4 w5 w6 w7 zzz"]
    corpus = corpus_of(*(("x", t) for t in texts))
    points = corpus_points(corpus, table)
    assert points.diagnostics.empty_doc_indices == (1, 3)
    for method in ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw"):
        reps = compose_corpus(points, method)
        assert np.array_equal(reps, represent_corpus(corpus, table, method)[0])
        for i, text in enumerate(texts):
            doc = doc_to_points(tokenize(text), table)
            one = np.zeros(4) if doc.empty else compose(method, doc.points)
            assert np.array_equal(reps[i], one), (method, i)
            assert np.linalg.norm(reps[i]) < 1.0


def test_corpus_points_warns_about_empty_documents_once(caplog):
    table = make_table()
    corpus = corpus_of(("x", "a b"), ("y", "nope"), ("z", ""))
    with caplog.at_level("WARNING", logger="gyrotext.corpus"):
        points = corpus_points(corpus, table)
        for method in ("emean", "lcf", "fnw"):
            compose_corpus(points, method)
    assert len(caplog.records) == 1
    assert "2 of 3 documents" in caplog.records[0].getMessage()
    assert points.nonempty.tolist() == [0]
    assert points.batch.lengths.tolist() == [2]
