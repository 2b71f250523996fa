import tracemalloc

import _load_reference as reference
import _tokenize_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotext import corpus
from gyrotext.composition import METHODS, compose, compose_batch
from gyrotext.corpus import (
    FLAVORS,
    DocPoints,
    EmbeddingTable,
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
    assert table.dimension == 2 and len(table.vectors) == 2
    np.testing.assert_allclose(table.vectors["a"], [0.1, 0.2])
    assert report == (2, 0, 0)


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


def test_load_embeddings_euclidean_skips_rows_whose_squared_norm_overflows(tmp_path):
    # (1e200, 0) is finite, but its squared norm is not: every Euclidean
    # distance from it would be inf. The line counts as malformed
    good = ["w%d 0.%d -0.25" % (i, i % 10) for i in range(250)]
    huge = ["huge 1e200 0", "big -1e300 1e300"]
    path = write(tmp_path, "emb.txt", "\n".join(good[:70] + huge + good[70:]) + "\n")
    got = load_embeddings(path, "euclidean")
    assert got[1] == (252, 2, 0)
    assert "huge" not in got[0].vectors and "big" not in got[0].vectors
    assert_same_load(got, reference.load_embeddings(path, "euclidean"))
    # the 1% rule is unchanged: one such line in 100 loads, two abort
    path = write(tmp_path, "emb.txt", "\n".join(good[:99] + huge[:1]) + "\n")
    assert load_embeddings(path, "euclidean")[1] == (100, 1, 0)
    path = write(tmp_path, "emb.txt", "\n".join(good[:98] + huge) + "\n")
    with pytest.raises(ValueError, match="2 of 100 lines malformed"):
        load_embeddings(path, "euclidean")


def test_load_embeddings_word2vec_count_header(tmp_path):
    rng = np.random.default_rng(7)
    vecs = rng.uniform(-0.5, 0.5, size=(200, 3))
    body = "".join(f"w{i} " + " ".join(repr(float(x)) for x in v) + "\n" for i, v in enumerate(vecs))
    table, report = load_embeddings(write(tmp_path, "w2v.txt", "200 3\n" + body), "poincare")
    assert table.dimension == 3 and len(table.vectors) == 200
    assert "200" not in table.vectors
    np.testing.assert_array_equal(table.vectors["w0"], vecs[0])
    # the header is neither a parsed nor a skipped line
    assert report == (200, 0, 0)
    headless, _ = load_embeddings(write(tmp_path, "plain.txt", body), "poincare")
    assert headless.vectors.keys() == table.vectors.keys()
    # "7 2" is a 1-d vector when the next line has 2 fields, not d + 1 = 3
    table, report = load_embeddings(write(tmp_path, "1d.txt", "7 2\na 0.5\n"), "euclidean")
    assert table.dimension == 1 and len(table.vectors) == 2
    np.testing.assert_array_equal(table.vectors["7"], [2.0])
    assert report == (2, 0, 0)


def test_load_embeddings_ignores_a_byte_order_mark(tmp_path):
    # a leading BOM is part of neither the count header nor the first token
    body = "a 0.1 0.2\nb 0.3 0.4\nc 0.5 0.0\n"
    for text in ("\ufeff3 2\n" + body, "\ufeff" + body):
        table, report = load_embeddings(write(tmp_path, "bom.txt", text), "poincare")
        assert list(table.vectors) == ["a", "b", "c"]
        assert report == (3, 0, 0)


def test_load_embeddings_ignores_whitespace_only_lines(tmp_path):
    # counted as a skipped line, one trailing blank line after 40 vectors
    # would abort the load with "1 of 41 lines malformed"
    lines = [f"w{i} 0.{i % 9} 0.1\n" for i in range(40)]
    body = "".join(lines)
    for text in (body + "\n", "\n \t\n" + "".join(lines[:7]) + "  \n" + "".join(lines[7:]) + "\n\n"):
        table, report = load_embeddings(write(tmp_path, "emb.txt", text), "poincare")
        assert len(table.vectors) == 40
        assert report == (40, 0, 0)
    # a count header is still the first line that is not blank
    table, report = load_embeddings(write(tmp_path, "w2v.txt", "\n40 2\n\n" + body), "poincare")
    assert "40" not in table.vectors and report == (40, 0, 0)


def test_load_embeddings_skips_malformed_lines(tmp_path):
    lines = ["w%d 0.01 0.02" % i for i in range(300)]
    lines.insert(5, "bad 0.1 0.2 0.3")  # wrong dimension
    lines.insert(9, "alone")  # token with no numbers
    lines.insert(12, "nan_line 0.1 oops")  # unparseable number
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    table, report = load_embeddings(path, flavor="poincare")
    assert report.skipped == 3 and report.total == 303
    assert len(table.vectors) == 300
    assert "bad" not in table.vectors and "alone" not in table.vectors


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
    assert report.skipped == 1 and len(table.vectors) == 99


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
    assert report == (3, 0, 2)


def test_load_embeddings_number_grammar(tmp_path):
    # Python's float() reads digit groups and non-ASCII digits; numpy's text
    # reader does not, so these two lines are malformed
    lines = ["w%d 0.%d 0.5" % (i, i % 10) for i in range(200)] + ["w 1_000 2", "v ١ ٢"]
    table, report = load_embeddings(write(tmp_path, "emb.txt", "\n".join(lines)), "euclidean")
    assert report == (202, 2, 0)
    assert "w" not in table.vectors and "v" not in table.vectors


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
            assert got[1] == (807, 7, 400 if flavor == "poincare" else 0)
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
    assert got[1] == (302, 2, 0)
    assert_same_load(got, reference.load_embeddings(path, "poincare"))


def test_load_embeddings_skips_a_block_of_unparseable_lines(tmp_path, monkeypatch):
    # every line of one dirty block fails on its own, so none of it is kept
    monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", 3)
    lines = ["w%d 0.%d -0.3" % (i, i % 10) for i in range(397)]
    lines[99:99] = ["bad1 0.1 x", "bad2 y 0.2", "bad3 0.1 0.2z"]
    assert len(lines) == 400 and 99 % 3 == 0
    path = write(tmp_path, "emb.txt", "\n".join(lines) + "\n")
    got = load_embeddings(path, "poincare")
    assert got[1] == (400, 3, 0)
    assert_same_load(got, reference.load_embeddings(path, "poincare"))


def test_load_embeddings_keeps_direction_of_overflowing_vector(tmp_path):
    # the squared norm of (1e200, 0) overflows to inf; the row must still be
    # clamped along its direction, without a floating-point warning
    path = write(tmp_path, "emb.txt", "a 1e200 0\nb -1e300 1e300\nc 0.1 0.2\n")
    table, report = load_embeddings(path, "poincare")
    assert report == (3, 0, 2)
    assert table.vectors["a"].tolist() == [0.9999999, 0.0]
    b = table.vectors["b"]
    assert b[0] == -b[1] and b[1] > 0
    assert np.linalg.norm(b) == pytest.approx(0.9999999, abs=1e-15)
    assert table.vectors["c"].tolist() == [0.1, 0.2]


def test_load_embeddings_clamps_a_block_with_zero_and_overflowing_rows(tmp_path):
    # only the row whose squared norm overflows is divided by its largest
    # |coordinate|: dividing the all-zero rows too would warn of 0/0
    text = "zero 0 0 0\nneg -0.0 0 -0.0\nfive 3 4 0\nhuge 1e200 1e200 -1e200\nin 0.1 -0.2 0.3\n"
    table, report = load_embeddings(write(tmp_path, "emb.txt", text), "poincare")
    assert report == (5, 0, 2)
    assert table.vectors["zero"].tobytes() == np.zeros(3).tobytes()
    assert table.vectors["neg"].tobytes() == np.array([-0.0, 0.0, -0.0]).tobytes()
    assert table.vectors["five"].tolist() == [0.59999994, 0.7999999200000001, 0.0]
    h = 0.5773502114545989
    assert table.vectors["huge"].tolist() == [h, h, -h]
    assert table.vectors["in"].tolist() == [0.1, -0.2, 0.3]


def test_load_embeddings_ends_lines_only_at_line_breaks(tmp_path):
    # as in a corpus, vertical tab, form feed, the file/group/record
    # separators, NEL and the Unicode line and paragraph separators stay
    # inside a line, where str.split and numpy's reader both take them for
    # whitespace between fields; \n, \r\n and \r each end a line
    inner = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    ends = ["\n", "\r\n", "\r"]
    path = tmp_path / "emb.txt"
    path.write_bytes("".join(f"w{i}{ch}0.5{ch}-0.25{ends[i % 3]}" for i, ch in enumerate(inner)).encode())
    table, report = load_embeddings(path, "poincare")
    assert report == (8, 0, 0)
    assert table.dimension == 2
    assert {token: v.tolist() for token, v in table.vectors.items()} == {
        f"w{i}": [0.5, -0.25] for i in range(8)
    }


def test_load_embeddings_finds_the_count_header_across_blocks(tmp_path, monkeypatch):
    # the header test reads the first two lines that are not blank, however
    # few lines a block holds
    body = "".join(f"w{i} 0.{i % 9} 0.1\n" for i in range(40))
    header = write(tmp_path, "w2v.txt", "\n \n40 2\n\n\t\n" + body)
    one_d = write(tmp_path, "1d.txt", "\n7 2\n\n\na 0.5\n \nb 0.25\n")
    for block_lines in (1, 2, corpus.PARSE_BLOCK_LINES):
        monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", block_lines)
        table, report = load_embeddings(header, "poincare")
        assert list(table.vectors) == [f"w{i}" for i in range(40)]
        assert report == (40, 0, 0)
        # "7 2" is no header when the next line that is not blank has 2 fields
        table, report = load_embeddings(one_d, "euclidean")
        assert table.dimension == 1 and list(table.vectors) == ["7", "a", "b"]
        assert report == (3, 0, 0)


def test_load_embeddings_holds_one_block_of_text_at_a_time(tmp_path, monkeypatch):
    block_lines, n_blocks, dim = 200, 10, 32
    monkeypatch.setattr(corpus, "PARSE_BLOCK_LINES", block_lines)
    rng = np.random.default_rng(64)
    lines = [
        f"w{i}" + "".join(f" {x!r}" for x in rng.uniform(-0.03, 0.03, dim).tolist()) + "\n"
        for i in range(block_lines * n_blocks)
    ]
    block_text = max(len("".join(lines[k : k + block_lines])) for k in range(0, len(lines), block_lines))
    path = write(tmp_path, "emb.txt", "".join(lines))
    tracemalloc.start()
    try:
        table, report = load_embeddings(path, "poincare")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == (2000, 0, 0) and len(table.vectors) == 2000
    # Beyond the table it returns, a load holds one block's tokens and
    # number strings, which is the block's text once (ASCII, a byte a
    # character). Their str headers, two of about 50 bytes a line, and the
    # block's float64 array, 8 bytes a number against about 20 characters
    # a number here, add under half of that again; the file's read buffer
    # and the line being split add a few kB. Three times the text of one
    # block covers it; holding the whole file's text, ten blocks of it,
    # does not fit.
    assert peak - kept < 3 * block_text


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


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("x²y", ["x", "y"]),
        ("a_b", ["a", "b"]),
        ("١٢٣", ["١٢٣"]),
        ("Ⅻ½abc١٢", ["abc١٢"]),
        ("e\u0301t\u00e9", ["e", "té"]),
        ("İ²İ", ["i̇", "i̇"]),
    ],
)
def test_tokenize_splits_at_numerals_underscores_and_marks(text, tokens):
    assert tokenize(text) == tokens == _tokenize_reference.tokenize(text)


# ASCII, letters of other scripts, non-ASCII decimal digits (Nd), other
# numerals (No, Nl), the underscore, a combining mark and dotted capital I
TOKEN_ALPHABET = "aZ9 ,.-_\téßΩж中١٢٣²½Ⅻ\u0301İ"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(alphabet=TOKEN_ALPHABET, max_size=40), st.text(max_size=40)))
def test_tokenize_matches_per_character_reference(text):
    assert tokenize(text) == _tokenize_reference.tokenize(text)


# ------------------------------------------------------------------ corpus


def test_load_corpus_basic(tmp_path):
    path = write(tmp_path, "c.tsv", "sport\tmatch report\n")
    corpus, report = load_corpus(path)
    assert corpus.records == (("sport", "match report"),)
    assert {label for label, _ in corpus.records} == {"sport"}
    assert report == (1, 0)


def test_load_corpus_label_set(tmp_path):
    path = write(tmp_path, "c.tsv", "a\tone\nb\ttwo\na\tthree\n")
    corpus, _ = load_corpus(path)
    assert len(corpus) == 3
    assert {label for label, _ in corpus.records} == {"a", "b"}


def test_load_corpus_rejects_tabless_lines(tmp_path):
    lines = ["lab\tdoc %d" % i for i in range(300)]
    lines.insert(7, "no tab here")
    path = write(tmp_path, "c.tsv", "\n".join(lines) + "\n")
    corpus, report = load_corpus(path)
    assert report.rejected == 1 and report.total == 301
    assert len(corpus) == 300


def test_load_corpus_ignores_whitespace_only_lines(tmp_path):
    # counted as a line without a TAB, one trailing blank line after 40
    # records would abort the load with "1 of 41 lines lack a TAB"
    lines = [f"lab{i % 2}\tdoc {i}\n" for i in range(40)]
    body = "".join(lines)
    for text in (body + "\n", " \n" + "".join(lines[:7]) + "\t\n\f\n" + "".join(lines[7:]) + "\r\n\n"):
        corpus, report = load_corpus(write(tmp_path, "c.tsv", text))
        assert [text for _, text in corpus.records] == [f"doc {i}" for i in range(40)]
        assert report == (40, 0)


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


def test_load_corpus_ignores_a_byte_order_mark(tmp_path):
    path = write(tmp_path, "c.tsv", "\ufeffpos\tgood film\nneg\tdull\npos\tfine\n")
    corpus, report = load_corpus(path)
    assert corpus.records[0] == ("pos", "good film")
    assert {label for label, _ in corpus.records} == {"neg", "pos"}
    assert report == (3, 0)


def test_load_corpus_ends_records_only_at_line_breaks(tmp_path):
    # vertical tab, form feed, the file/group/record separators, NEL and the
    # Unicode line and paragraph separators stay inside a record's text;
    # \n, \r\n and \r each end one
    inner = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    texts = [f"part one{ch}part two" for ch in inner]
    ends = ["\n", "\r\n", "\r"]
    path = tmp_path / "c.tsv"
    path.write_bytes("".join(f"l{i % 2}\t{t}{ends[i % 3]}" for i, t in enumerate(texts)).encode())
    corpus, report = load_corpus(path)
    assert corpus.records == tuple((f"l{i % 2}", t) for i, t in enumerate(texts))
    assert report == (8, 0)


# ----------------------------------------------------------- doc_to_points


def make_table():
    return EmbeddingTable(
        dimension=2,
        vectors={
            "a": np.array([0.1, 0.0]),
            "b": np.array([0.3, 0.0]),
            "c": np.array([0.0, 0.2]),
        },
    )


def test_doc_to_points_examples():
    table = make_table()
    got = doc_to_points(["a", "b"], table)
    assert got.points.shape == (2, 2) and got.oov == 0 and not got.empty
    np.testing.assert_allclose(got.points, [[0.1, 0.0], [0.3, 0.0]], atol=0)
    partial = doc_to_points(["a", "zzz"], table)
    assert partial.points.shape == (1, 2) and partial.oov == 1 and not partial.empty
    # an empty or all-OOV text is one point at the origin, +0.0
    for tokens in ([], ["x", "y"]):
        none = doc_to_points(tokens, table)
        assert none.empty and none.oov == len(tokens)
        assert none.points.shape == (1, 2)
        assert none.points.tobytes() == np.zeros((1, 2)).tobytes()


def test_doc_to_points_preserves_order_and_repeats():
    table = make_table()
    got = doc_to_points(["b", "a", "b"], table)
    np.testing.assert_allclose(got.points, [[0.3, 0.0], [0.1, 0.0], [0.3, 0.0]], atol=0)


# -------------------------------------------------------- represent_corpus


def corpus_of(*records):
    from gyrotext.corpus import LabeledCorpus

    return LabeledCorpus(records=tuple(records))


def test_represent_corpus_single_doc_mean():
    table = make_table()
    corpus = corpus_of(("lab", "a b"))
    reps, labels, points = represent_corpus(corpus, table, "emean")
    np.testing.assert_allclose(reps, [[0.2, 0.0]], atol=1e-15)
    assert labels == ["lab"]
    assert points.batch.lengths.size == 1 and points.oov_tokens == 0


def test_represent_corpus_all_oov_doc_is_origin():
    table = make_table()
    corpus = corpus_of(("x", "a b c"), ("y", "qqq zzz"))
    reps, labels, points = represent_corpus(corpus, table, "lcf")
    assert points.empty_doc_indices == (1,)
    np.testing.assert_allclose(reps[1], [0.0, 0.0], atol=0)
    assert points.oov_tokens == 2 and points.total_tokens == 5


def test_represent_corpus_row_count_matches_corpus():
    table = make_table()
    corpus = corpus_of(("x", "a"), ("y", ""), ("z", "b c a"), ("w", "nope"))
    reps, labels, points = represent_corpus(corpus, table, "fnw")
    assert reps.shape == (4, 2)
    assert labels == ["x", "y", "z", "w"]
    assert points.empty_doc_indices == (1, 3)


def test_represent_corpus_lcf_vs_lcb_differ():
    table = make_table()
    corpus = corpus_of(("x", "a b c a b"),)
    f, _, _ = represent_corpus(corpus, table, "lcf")
    b, _, _ = represent_corpus(corpus, table, "lcb")
    assert np.linalg.norm(f - b) > 1e-6


def test_represent_corpus_outputs_stay_in_ball():
    rng = np.random.default_rng(50)
    toks = {f"t{i}": rng.uniform(-0.5, 0.5, 2) * 0.9 for i in range(30)}
    table = EmbeddingTable(dimension=2, vectors=toks)
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
            LabeledCorpus(records=()), make_table(), "emean"
        )


def _text_row(table, method, text):
    return compose(method, doc_to_points(tokenize(text), table).points)


def test_corpus_rows_equal_per_text_compose_bitwise(tmp_path):
    # represent_corpus composes the corpus as one batch; each of its rows
    # must equal the per-text path (tokenize, look up, compose one) byte
    # for byte, also for single-token texts (one with a -0.0 coordinate,
    # which a sum would turn into 0.0), all-OOV texts (the origin, +0.0),
    # vectors at norm 1 - 1e-6 and vectors clamped on load from norm 1 + 1e-6
    rng = np.random.default_rng(51)
    lines = []
    for i in range(40):
        v = rng.normal(size=4)
        norm = (1.0 - 1e-6, 1.0 + 1e-6)[i % 2] if i < 8 else rng.uniform(0.1, 0.9)
        v *= norm / np.linalg.norm(v)
        lines.append(f"w{i} " + " ".join(repr(float(x)) for x in v))
    lines.append("wz -0.0 0.5 -0.25 -0.0")
    table, report = load_embeddings(write(tmp_path, "e.txt", "\n".join(lines) + "\n"), "poincare")
    assert report.clamped == 4
    texts = ["w0", "oov only here", "w1 w2 w3", "", "w7", "wz"]
    texts += [" ".join(f"w{j}" for j in rng.integers(0, 40, size=n)) for n in (2, 5, 17, 60)]
    texts += ["w0 w1 w2 w3 w4 w5 w6 w7 zzz"]
    corpus = corpus_of(*(("x", t) for t in texts))
    points = corpus_points(corpus, table)
    assert points.empty_doc_indices == (1, 3)
    for method in ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw"):
        reps = compose_batch((method,), points.batch)[method]
        assert reps.tobytes() == represent_corpus(corpus, table, method)[0].tobytes()
        for i, text in enumerate(texts):
            assert reps[i].tobytes() == _text_row(table, method, text).tobytes(), (method, i)
            assert np.linalg.norm(reps[i]) < 1.0
        assert reps[5].tobytes() == table.vectors["wz"].tobytes(), method


@pytest.mark.parametrize(
    "texts",
    [
        ("", "nope", "zz qq"),
        ("nope", "a b", "c"),
        ("a b c", "z", "b", ""),
        ("", "a", "nope nope", "c b a c", "zz"),
    ],
    ids=["all-empty", "empty-first", "empty-last", "empty-between"],
)
def test_empty_documents_pack_as_the_origin(texts):
    # an all-OOV document is packed as one point at the origin (+0.0) where
    # its points would have started, and every method composes it to the
    # origin; the other rows are each text's own composition
    ball = {"a": [-0.0, 0.4, 0.1], "b": [0.3, -0.0, -0.2], "c": [0.0, -0.5, -0.0]}
    free = {"a": [-0.0, 4.0, 1.0], "b": [3.0, -0.0, -20.0], "c": [0.0, -5.0, -0.0]}
    cases = [
        ("poincare", EmbeddingTable(3, {k: np.array(v) for k, v in ball.items()}), METHODS),
        ("euclidean", EmbeddingTable(3, {k: np.array(v) for k, v in free.items()}), ("emean",)),
    ]
    corpus = corpus_of(*(("x", t) for t in texts))
    empty = [i for i, t in enumerate(texts) if not set(tokenize(t)) & {"a", "b", "c"}]
    for flavor, table, methods in cases:
        points = corpus_points(corpus, table)
        assert points._fields == ("batch", "empty_doc_indices", "total_tokens", "oov_tokens")
        assert points.empty_doc_indices == tuple(empty)
        batch = points.batch
        assert batch.lengths.size == len(texts)
        for i in empty:
            assert batch.lengths[i] == 1
            assert batch.points[batch.starts[i]].tobytes() == np.zeros(3).tobytes()
        for method in methods:
            reps = compose_batch((method,), points.batch)[method]
            assert reps.shape == (len(texts), 3)
            assert reps.tobytes() == represent_corpus(corpus, table, method)[0].tobytes()
            for i, text in enumerate(texts):
                want = np.zeros(3) if i in empty else _text_row(table, method, text)
                assert reps[i].tobytes() == want.tobytes(), (flavor, method, i)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_doc_to_points_packs_a_text_as_corpus_points_does(flavor):
    # one text's points are its row block of the corpus batch, byte for
    # byte, for full, partial-OOV, all-OOV and empty texts alike
    vectors = {"a": [-0.0, 0.4, 0.1], "b": [0.3, -0.0, -0.2], "c": [0.0, -0.5, -0.0]}
    table = EmbeddingTable(3, {k: np.array(v) for k, v in vectors.items()})
    texts = ("a b c", "b zz a", "zz qq", "", "c", "!!!", "a a nope b")
    points = corpus_points(corpus_of(*(("x", t) for t in texts)), table)
    batch = points.batch
    docs = [doc_to_points(tokenize(t), table) for t in texts]
    for i, (text, doc) in enumerate(zip(texts, docs)):
        block = batch.points[batch.starts[i] : batch.starts[i] + batch.lengths[i]]
        assert doc.points.shape == block.shape and doc.points.tobytes() == block.tobytes(), i
        assert doc.oov == sum(token not in vectors for token in tokenize(text)), i
    assert sum(doc.oov for doc in docs) == points.oov_tokens
    empty = tuple(i for i, doc in enumerate(docs) if doc.empty)
    assert empty == points.empty_doc_indices == (2, 3, 5)


def test_corpus_points_warns_about_empty_documents_once(caplog):
    table = make_table()
    corpus = corpus_of(("x", "a b"), ("y", "nope"), ("z", ""))
    with caplog.at_level("WARNING", logger="gyrotext.corpus"):
        points = corpus_points(corpus, table)
        for method in ("emean", "lcf", "fnw"):
            compose_batch((method,), points.batch)
    assert len(caplog.records) == 1
    assert "2 of 3 documents" in caplog.records[0].getMessage()
    # the two empty documents are one point each, at the origin
    assert points.batch.lengths.tolist() == [2, 1, 1]
    assert points.batch.points[2:].tobytes() == np.zeros((2, 2)).tobytes()
