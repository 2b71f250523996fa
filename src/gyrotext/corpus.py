"""Embedding tables, tokenization, and document-to-point-sequence mapping.

File formats (both UTF-8 text, one record per line):

    embeddings   token SP num_1 SP ... SP num_d     (standard word-vector text)
    corpus       label TAB text

An embeddings file may open with the word2vec count header "V d". The
embedding dimension is inferred from the first parseable line. A number
field is what numpy's C text reader accepts: ASCII decimal or scientific
notation with an optional sign ("-0.25", "1.", ".5", "3E-7"), or an
inf/infinity/nan spelling in any case. Python's float() also reads digit
groups ("1_000") and non-ASCII digits; lines using them are malformed here.
Malformed lines are skipped and counted; more than 1% of them aborts the
load. Poincare-flavor vectors are clamped inside the unit ball at load
time; Euclidean-flavor vectors are stored as-is.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Optional

import numpy as np

from .composition import PointBatch, compose_batch
from .gyroball import _clamp

# Not called here: benchmarks/tracing.py looks this name up in this module.
from .composition import compose  # noqa: F401

__all__ = [
    "EmbeddingTable",
    "LoadReport",
    "CorpusLoadReport",
    "LabeledCorpus",
    "DocPoints",
    "CorpusDiagnostics",
    "CorpusPoints",
    "FLAVORS",
    "load_embeddings",
    "tokenize",
    "load_corpus",
    "doc_to_points",
    "corpus_points",
    "compose_corpus",
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
    """Token -> vector map of uniform dimension, tagged by geometry flavor."""

    dimension: int
    vectors: dict
    flavor: str

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


class LoadReport(NamedTuple):
    total: int
    parsed: int
    skipped: int
    clamped: int


def load_embeddings(path, flavor: str):
    """Read a word-vector text file into an EmbeddingTable.

    Returns (table, report). A first line "V d" of two integers, followed
    by a line of d + 1 fields, is a word2vec count header: it is dropped
    and counted nowhere in the report. Skipped lines are those that fail
    to parse as token + d finite numbers (d fixed by the first parseable
    line) or that repeat an already-seen token; more than 1% skipped
    aborts. For the poincare flavor, vectors with norm >= 1 are pulled
    just inside the unit ball and counted in the report.

    The numbers of PARSE_BLOCK_LINES lines at a time go to numpy's text
    reader in one call, and the checks above run on each block at once; a
    block that fails is parsed again a line per call. The table's vectors
    are 1-D float64 rows, which may be views into their block's array.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if _is_count_header(lines):
        lines = lines[1:]
    vectors = {}
    dimension = None
    skipped = 0
    clamped = 0
    for start in range(0, len(lines), PARSE_BLOCK_LINES):
        tokens = []
        rests = []
        for line in lines[start : start + PARSE_BLOCK_LINES]:
            parts = line.split(None, 1)
            if len(parts) < 2:
                skipped += 1
                continue
            tokens.append(parts[0])
            rests.append(parts[1])
        if not rests:
            continue
        block = _parse_numbers(rests)
        if block is None:
            # one bad line fails the whole call: parse the block again a line
            # per call, skipping the lines that fail on their own
            lone = [_parse_numbers([rest]) for rest in rests]
            parsed = [i for i, row in enumerate(lone) if row is not None]
            if dimension is None and parsed:
                dimension = lone[parsed[0]].shape[1]
            kept = [i for i in parsed if lone[i].shape[1] == dimension]
            skipped += len(rests) - len(kept)
            if not kept:
                continue
            tokens = [tokens[i] for i in kept]
            block = np.concatenate([lone[i] for i in kept])
        if dimension is None:
            dimension = block.shape[1]
        if block.shape[1] != dimension:
            skipped += len(tokens)
            continue
        # the first finite row of each token no earlier block had; the dict
        # keeps the order of the lines
        finite = np.isfinite(block).all(axis=1).tolist()
        first = {}
        for i, token in enumerate(tokens):
            if finite[i] and token not in vectors:
                first.setdefault(token, i)
        skipped += len(tokens) - len(first)
        rows = block[list(first.values())]
        if flavor == "poincare":
            # _clamp takes the same sqrt(vecdot) norm of each row it is given,
            # so it clamps exactly the rows counted here
            with np.errstate(over="ignore"):
                norms = np.sqrt(np.vecdot(rows, rows))
            # only the direction survives the clamp: a row whose norm
            # overflows is first divided by its largest |coordinate|
            inf = np.isinf(norms)
            rows[inf] /= np.abs(rows[inf]).max(axis=1, keepdims=True)
            over = norms >= 1.0
            n_over = int(np.count_nonzero(over))
            if n_over:
                rows[over] = _clamp(rows[over])
                clamped += n_over
        vectors.update(zip(first, rows))
    total = len(lines)
    if dimension is None:
        raise ValueError(f"{path}: no parseable embedding lines")
    if skipped > SKIP_THRESHOLD * total:
        raise ValueError(f"{path}: {skipped} of {total} lines malformed (> 1%)")
    if clamped:
        logger.warning("%s: %d vectors clamped inside the unit ball", path, clamped)
    table = EmbeddingTable(dimension=dimension, vectors=vectors, flavor=flavor)
    return table, LoadReport(total=total, parsed=total - skipped, skipped=skipped, clamped=clamped)


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


def _is_token_char(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat.startswith("L") or cat == "Nd"


def tokenize(text: str):
    """Split text into maximal runs of letter (L*) or decimal-digit (Nd)
    characters, then lowercase each run.

    Runs are taken on the raw text and lowercased afterwards, so case
    mappings that change character category (e.g. dotted capital I
    lowercasing to "i" plus a combining dot) cannot split a token.
    """
    return ["".join(run).lower() for is_word, run in groupby(text, key=_is_token_char) if is_word]


@dataclass(frozen=True)
class LabeledCorpus:
    """Ordered (label, text) records plus the set of labels seen."""

    records: tuple
    label_set: frozenset

    def __len__(self) -> int:
        return len(self.records)


class CorpusLoadReport(NamedTuple):
    total: int
    parsed: int
    rejected: int


def load_corpus(path):
    """Read a label-TAB-text file; returns (corpus, report).

    Lines without a TAB are rejected and counted; more than 1% rejected
    aborts. Duplicate texts are permitted.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records = []
    rejected = 0
    for line in lines:
        label, sep, text = line.partition("\t")
        if not sep:
            rejected += 1
            continue
        records.append((label, text))
    total = len(lines)
    if rejected > SKIP_THRESHOLD * total:
        raise ValueError(f"{path}: {rejected} of {total} lines lack a TAB (> 1%)")
    if not records:
        raise ValueError(f"{path}: no records")
    corpus = LabeledCorpus(
        records=tuple(records),
        label_set=frozenset(label for label, _ in records),
    )
    return corpus, CorpusLoadReport(total=total, parsed=total - rejected, rejected=rejected)


class DocPoints(NamedTuple):
    points: np.ndarray
    oov: int

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


def doc_to_points(tokens, table: EmbeddingTable) -> DocPoints:
    """Map tokens to their embedding points in order, skipping OOV tokens.

    Every in-vocabulary token contributes one point with implicit weight 1.
    Returns the (m, d) point array and the out-of-vocabulary count; m = 0
    flags an empty or all-OOV document.
    """
    rows = [table.vectors[t] for t in tokens if t in table.vectors]
    oov = len(tokens) - len(rows)
    if rows:
        points = np.stack(rows)
    else:
        points = np.empty((0, table.dimension))
    return DocPoints(points=points, oov=oov)


@dataclass(frozen=True)
class CorpusDiagnostics:
    n_docs: int
    empty_doc_indices: tuple
    total_tokens: int
    oov_tokens: int
    oov_rate: float


class CorpusPoints(NamedTuple):
    """Every document's in-vocabulary points, tokenized and looked up once.

    ``batch`` packs the non-empty documents in corpus order (None when
    every document is empty); ``nonempty`` holds their corpus indices.
    """

    batch: Optional[PointBatch]
    nonempty: np.ndarray
    dimension: int
    diagnostics: CorpusDiagnostics


def corpus_points(corpus: LabeledCorpus, table: EmbeddingTable) -> CorpusPoints:
    """Tokenize every document and map it to its points, once per corpus.

    Documents with no in-vocabulary tokens are listed in the diagnostics
    and warned about here, once; ``compose_corpus`` represents them by the
    origin.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    tokenized = [tokenize(text) for _, text in corpus.records]
    total_tokens = sum(len(tokens) for tokens in tokenized)
    # every document's points are copied into one buffer as soon as they are
    # looked up, so the corpus is never held twice
    packed = np.empty((total_tokens, table.dimension))
    n_points = 0
    lengths = []
    nonempty = []
    empty_docs = []
    oov_tokens = 0
    for i, tokens in enumerate(tokenized):
        doc = doc_to_points(tokens, table)
        oov_tokens += doc.oov
        if doc.empty:
            empty_docs.append(i)
            continue
        m = doc.points.shape[0]
        packed[n_points : n_points + m] = doc.points
        n_points += m
        lengths.append(m)
        nonempty.append(i)
    if empty_docs:
        logger.warning(
            "%d of %d documents had no in-vocabulary tokens; represented by the origin",
            len(empty_docs),
            len(corpus),
        )
    diagnostics = CorpusDiagnostics(
        n_docs=len(corpus),
        empty_doc_indices=tuple(empty_docs),
        total_tokens=total_tokens,
        oov_tokens=oov_tokens,
        oov_rate=oov_tokens / total_tokens if total_tokens else 0.0,
    )
    return CorpusPoints(
        batch=PointBatch(packed[:n_points], np.array(lengths)) if lengths else None,
        nonempty=np.array(nonempty, dtype=np.int64),
        dimension=table.dimension,
        diagnostics=diagnostics,
    )


def compose_corpus(points: CorpusPoints, method: str) -> np.ndarray:
    """One composed row per document, in corpus order; empty documents are the origin."""
    reps = np.zeros((points.diagnostics.n_docs, points.dimension))
    if points.batch is not None:
        reps[points.nonempty] = compose_batch(method, points.batch)
    return reps


def represent_corpus(corpus: LabeledCorpus, table: EmbeddingTable, method: str):
    """Compose every document into one point; returns (matrix, labels, diagnostics).

    Documents with no in-vocabulary tokens are represented by the origin
    and listed in the diagnostics rather than dropped, so the output row
    count always equals the corpus record count. To compose several
    methods, call ``corpus_points`` once and ``compose_corpus`` per method.
    """
    points = corpus_points(corpus, table)
    labels = [label for label, _ in corpus.records]
    return compose_corpus(points, method), labels, points.diagnostics
