"""Per-line reference for ``gyrotext.corpus.load_embeddings``.

The package parses an embedding file in blocks with numpy's C text reader
and checks each block at once. This module keeps the loop that blocking
replaced: each line split on whitespace, each field read by Python's
``float()``, then the dimension, finiteness, duplicate, squared-norm and
clamp checks a line at a time. Tests compare the two on files whose
numbers both grammars read alike. The clamp is ``_compose_reference.clamp``,
with the boundary margin written out there rather than read from the
package.
"""

import logging
import math

import numpy as np

from _compose_reference import clamp
from gyrotext.corpus import SKIP_THRESHOLD, EmbeddingTable, LoadReport, _check_flavor, _is_count_header

logger = logging.getLogger(__name__)


def load_embeddings(path, flavor: str):
    _check_flavor(flavor)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if _is_count_header(lines):
        lines = lines[1:]
    vectors = {}
    dimension = None
    skipped = 0
    clamped = 0
    for line in lines:
        parts = line.split()
        if len(parts) < 2:
            skipped += 1
            continue
        token = parts[0]
        try:
            vec = np.array([float(p) for p in parts[1:]])
        except ValueError:
            skipped += 1
            continue
        if dimension is None:
            dimension = vec.shape[0]
        if vec.shape[0] != dimension or not np.all(np.isfinite(vec)) or token in vectors:
            skipped += 1
            continue
        if flavor == "euclidean" and not math.isfinite(sum(x * x for x in vec.tolist())):
            skipped += 1
            continue
        if flavor == "poincare" and float(np.linalg.norm(vec)) >= 1.0:
            vec = clamp(vec)
            clamped += 1
        vectors[token] = vec
    total = len(lines)
    if dimension is None:
        raise ValueError(f"{path}: no parseable embedding lines")
    if skipped > SKIP_THRESHOLD * total:
        raise ValueError(f"{path}: {skipped} of {total} lines malformed (> 1%)")
    if clamped:
        logger.warning("%s: %d vectors clamped inside the unit ball", path, clamped)
    table = EmbeddingTable(dimension=dimension, vectors=vectors)
    return table, LoadReport(total=total, skipped=skipped, clamped=clamped)
