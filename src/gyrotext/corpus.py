"""Embedding tables, tokenization, and document-to-point-sequence mapping.

File formats (both UTF-8 text, one record per line, a leading byte-order
mark ignored):

    embeddings   token SP num_1 SP ... SP num_d     (standard word-vector text)
    corpus       label TAB text

In both files a line ends only at LF, CR LF or CR, as a text-mode file
reads it, so a form feed or a Unicode line separator stays in its line;
between embedding fields it is whitespace. Both loaders ignore lines of
whitespace only (empty, or all str.isspace characters, a TAB included):
such a line is not counted in a report at all. The embeddings file is
read a block of lines at a time, never whole. It may open with the
word2vec count header "V d". The embedding dimension is inferred from the
first parseable line. A number field is what numpy's C text reader accepts:
ASCII decimal or scientific notation with an optional sign ("-0.25",
"1.", ".5", "3E-7"), or an inf/infinity/nan spelling in any case.
Python's float() also reads digit groups ("1_000") and non-ASCII digits;
lines using them are malformed here. Malformed lines are skipped and
counted; more than 1% of them aborts the load. Poincare-flavor vectors
are pulled inside the unit ball by gyroball's clamp; Euclidean-flavor
vectors are stored as-is, except that a line whose squared norm
overflows is malformed.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import NamedTuple

import numpy as np

from .composition import PointBatch, compose_batch
from .gyroball import _clamp_norms

# Not called here: benchmarks/tracing.py looks this name up in this module.
from .composition import compose  # noqa: F401

__all__ = [
    "EmbeddingTable",
    "LoadReport",
    "CorpusLoadReport",
    "LabeledCorpus",
    "DocPoints",
    "CorpusPoints",
    "FLAVORS",
    "load_embeddings",
    "tokenize",
    "load_corpus",
    "doc_to_points",
    "corpus_points",
    "represent_corpus",
]

logger = logging.getLogger(__name__)

FLAVORS = ("euclidean", "poincare")

# fraction of bad lines tolerated before a loader gives up on the file
SKIP_THRESHOLD = 0.01

# embedding lines whose numbers go to numpy's text reader in one call
PARSE_BLOCK_LINES = 4096


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> vector map of uniform dimension; the flavor it was loaded as is the caller's."""

    dimension: int
    vectors: dict


class LoadReport(NamedTuple):
    total: int
    skipped: int
    clamped: int


def _check_flavor(flavor: str) -> None:
    """The flavor rule: one of FLAVORS."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")


def load_embeddings(path, flavor: str):
    """Read a word-vector text file into an EmbeddingTable.

    Returns (table, report); the report counts lines read (total), lines
    skipped and vectors clamped. Lines of whitespace only are ignored, and
    counted nowhere in the report. A first line "V d" of two integers, followed
    by a line of d + 1 fields, is a word2vec count header: it is dropped
    and counted nowhere in the report. Skipped lines are those that fail
    to parse as token + d finite numbers (d fixed by the first parseable
    line), whose squared norm overflows (euclidean flavor only), or that
    repeat an already-seen token, so every other line adds one token and
    the skip count is lines minus tokens; more than 1% skipped aborts. For
    the poincare flavor, vectors with norm >= 1 are pulled just inside the
    unit ball and counted in the report.

    A line ends only at LF, CR LF or CR. The file is read PARSE_BLOCK_LINES
    lines at a time, so a load holds one block's text beside the table,
    never the whole file. Each block's numbers go to numpy's text reader in
    one call, and the checks above run on the block at once; a block that
    fails is parsed again a line per call. The table's vectors are 1-D
    float64 rows, which may be views into their block's array.
    """
    _check_flavor(flavor)
    vectors = {}
    dimension = None
    clamped = 0
    total = 0
    with open(path, encoding="utf-8-sig") as fh:
        lines = _after_count_header(fh)
        while True:
            # only this block's tokens and number strings are held
            tokens = []
            rests = []
            read = blank = 0
            for read, line in enumerate(islice(lines, PARSE_BLOCK_LINES), 1):
                parts = line.split(None, 1)
                if len(parts) == 2:
                    tokens.append(parts[0])
                    rests.append(parts[1])
                elif not parts:
                    blank += 1
            if not read:
                break
            total += read - blank
            if rests:
                dimension, n_clamped = _add_block(vectors, tokens, rests, dimension, flavor)
                clamped += n_clamped
    # every line kept adds one token the table did not have
    skipped = total - len(vectors)
    if dimension is None:
        raise ValueError(f"{path}: no parseable embedding lines")
    if skipped > SKIP_THRESHOLD * total:
        raise ValueError(f"{path}: {skipped} of {total} lines malformed (> 1%)")
    if clamped:
        logger.warning("%s: %d vectors clamped inside the unit ball", path, clamped)
    table = EmbeddingTable(dimension=dimension, vectors=vectors)
    return table, LoadReport(total=total, skipped=skipped, clamped=clamped)


def _after_count_header(fh):
    """The lines of fh, less a "V d" count header; the header test reads the
    first two lines that are not blank, whichever blocks they fall in."""
    head = []
    nonblank = []
    for line in fh:
        head.append(line)
        if not line.isspace():
            nonblank.append(line)
            if len(nonblank) == 2:
                break
    if _is_count_header(nonblank):
        head.remove(nonblank[0])
    return chain(head, fh)


def _add_block(vectors, tokens, rests, dimension, flavor):
    """Parse and check one block's lines, adding its new tokens to vectors.

    Returns the dimension, fixed by the first parseable line, and how many
    of the block's vectors gyroball's clamp pulled back into the ball.
    """
    block = _parse_numbers(rests)
    if block is None:
        # one bad line fails the whole call: parse the block again a line
        # per call, skipping the lines that fail on their own
        lone = [_parse_numbers([rest]) for rest in rests]
        parsed = [i for i, row in enumerate(lone) if row is not None]
        if dimension is None and parsed:
            dimension = lone[parsed[0]].shape[1]
        kept = [i for i in parsed if lone[i].shape[1] == dimension]
        if not kept:
            return dimension, 0
        tokens = [tokens[i] for i in kept]
        block = np.concatenate([lone[i] for i in kept])
    if dimension is None:
        dimension = block.shape[1]
    if block.shape[1] != dimension:
        return dimension, 0
    if flavor == "euclidean":
        # a row whose squared norm overflows would put every Euclidean
        # distance from it at inf
        with np.errstate(over="ignore"):
            usable = np.isfinite(np.vecdot(block, block)).tolist()
    else:
        usable = np.isfinite(block).all(axis=1).tolist()
    # the first usable row of each token no earlier block had; the dict
    # keeps the order of the lines
    first = {}
    for i, token in enumerate(tokens):
        if usable[i] and token not in vectors:
            first.setdefault(token, i)
    rows = block[list(first.values())]
    del block  # freed before the clamp's copy, which sets a load's peak memory
    clamped = 0
    if flavor == "poincare":
        with np.errstate(over="ignore"):
            rows, _, over = _clamp_norms(rows)
        clamped = int(np.count_nonzero(over))
    vectors.update(zip(first, rows))
    return dimension, clamped


def _parse_numbers(rests):
    """Parse strings of numbers as the rows of one (n, k) float64 array.

    One call of numpy's C text reader; None if a field fails to parse or
    the strings differ in field count.
    """
    try:
        rows = np.loadtxt(rests, comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    # the reader drops blank lines, which split(None, 1) never leaves
    return rows if rows.shape[0] == len(rests) else None


def _is_count_header(lines) -> bool:
    head = lines[0].split() if len(lines) > 1 else []
    return (
        len(head) == 2
        and all(part.isdecimal() for part in head)
        and len(lines[1].split()) == int(head[1]) + 1
    )


# maximal runs of str.isalnum characters: L*, Nd, and the Nl and No
# numerals that end a token
_ALNUM_RUN = re.compile(r"[^\W_]+")


def _is_token_char(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat.startswith("L") or cat == "Nd"


def tokenize(text: str):
    """Split text into maximal runs of letter (L*) or decimal-digit (Nd)
    characters, then lowercase each run.

    Runs are taken on the raw text and lowercased afterwards, so case
    mappings that change character category (e.g. dotted capital I
    lowercasing to "i" plus a combining dot) cannot split a token.

    One regular expression finds the maximal runs of alphanumeric
    (str.isalnum) characters, which contain every L* and Nd character. A
    run that is ASCII or all letters is a token as it stands; a run that
    also holds another numeral (Nl or No, such as "²" or "Ⅻ") is split a
    character at a time by the rule above, so the tokens are exactly those
    of a scan that classifies every character.
    """
    tokens = []
    for run in _ALNUM_RUN.findall(text):
        if run.isascii() or run.isalpha():
            tokens.append(run.lower())
        else:
            parts = groupby(run, key=_is_token_char)
            tokens.extend("".join(part).lower() for is_word, part in parts if is_word)
    return tokens


@dataclass(frozen=True)
class LabeledCorpus:
    """Ordered (label, text) records; the labels seen are read from them."""

    records: tuple

    def __len__(self) -> int:
        return len(self.records)


class CorpusLoadReport(NamedTuple):
    total: int
    rejected: int


def load_corpus(path):
    """Read a label-TAB-text file; returns (corpus, report).

    The report counts lines read (total) and lines rejected.
    A line ends only at LF, CR LF or CR, as a text-mode file reads it.
    Lines of whitespace only are ignored, and counted nowhere in the
    report. Other lines without a TAB are rejected and counted; more than
    1% rejected aborts. Duplicate texts are permitted.
    """
    with open(path, encoding="utf-8-sig") as fh:
        fields = [line.removesuffix("\n").partition("\t") for line in fh if not line.isspace()]
    records = [(label, text) for label, sep, text in fields if sep]
    total = len(fields)
    rejected = total - len(records)
    if rejected > SKIP_THRESHOLD * total:
        raise ValueError(f"{path}: {rejected} of {total} lines lack a TAB (> 1%)")
    if not records:
        raise ValueError(f"{path}: no records")
    corpus = LabeledCorpus(records=tuple(records))
    return corpus, CorpusLoadReport(total=total, rejected=rejected)


class DocPoints(NamedTuple):
    """A text's point sequence, its OOV count, and whether it has no in-vocabulary token."""

    points: np.ndarray
    oov: int
    empty: bool


def doc_to_points(tokens, table: EmbeddingTable) -> DocPoints:
    """Map tokens to their embedding points in order, skipping OOV tokens.

    One dict probe per token; every in-vocabulary token contributes one
    point with implicit weight 1, and the points are copied once. A text
    with none, empty or all-OOV, is flagged ``empty`` and packed as one
    point at the origin (+0.0); every scheme composes that one-point
    sequence to the origin. ``corpus_points`` packs each document with it.
    """
    rows = [v for v in map(table.vectors.get, tokens) if v is not None]
    points = np.concatenate(rows or [np.zeros(table.dimension)]).reshape(-1, table.dimension)
    return DocPoints(points=points, oov=len(tokens) - len(rows), empty=not rows)


class CorpusPoints(NamedTuple):
    """Every document's points, tokenized and looked up once, and the counts.

    ``batch`` packs one sequence per document, in corpus order: its
    in-vocabulary points, or one point at the origin for a document with
    none (listed in ``empty_doc_indices``); ``oov_tokens`` of the corpus's
    ``total_tokens`` tokens are out of vocabulary.
    """

    batch: PointBatch
    empty_doc_indices: tuple
    total_tokens: int
    oov_tokens: int


def corpus_points(corpus: LabeledCorpus, table: EmbeddingTable) -> CorpusPoints:
    """Tokenize every document and map it to its points, once per corpus.

    Each document goes through ``doc_to_points``, so an empty or all-OOV
    one is packed as one point at the origin (+0.0); such documents are
    listed in ``empty_doc_indices`` and warned about here, once. The batch
    concatenates the documents' arrays in corpus order.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    tokenized = [tokenize(text) for _, text in corpus.records]
    # doc_to_points is looked up in this module at each call, so that
    # benchmarks/tracing.py's patch of it sees every document
    docs = [doc_to_points(tokens, table) for tokens in tokenized]
    empty_docs = [i for i, doc in enumerate(docs) if doc.empty]
    if empty_docs:
        logger.warning(
            "%d of %d documents had no in-vocabulary tokens; represented by the origin",
            len(empty_docs),
            len(corpus),
        )
    points = np.concatenate([doc.points for doc in docs])
    return CorpusPoints(
        batch=PointBatch(points, [len(doc.points) for doc in docs]),
        empty_doc_indices=tuple(empty_docs),
        total_tokens=sum(map(len, tokenized)),
        oov_tokens=sum(doc.oov for doc in docs),
    )


def represent_corpus(corpus: LabeledCorpus, table: EmbeddingTable, method: str):
    """Compose every document into one point; returns (matrix, labels, points).

    ``points`` is the corpus's ``CorpusPoints``: documents with no
    in-vocabulary tokens are represented by the origin and listed in its
    ``empty_doc_indices`` rather than dropped, so the output row count
    always equals the corpus record count. To compose several methods,
    call ``corpus_points`` once and ``compose_batch`` once on its batch
    with all of them, so that lcf, lcb and lca share one fold.
    """
    points = corpus_points(corpus, table)
    labels = [label for label, _ in corpus.records]
    return compose_batch((method,), points.batch)[method], labels, points
