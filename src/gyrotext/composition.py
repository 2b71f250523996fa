"""Centroid schemes composing point sequences into one ball point each.

Seven methods, identified by the names used in the results tables:

    emean  Euclidean mean            (x_1 + ... + x_n) / n
    naive  Mobius sum then scale     (x_1 (+) ... (+) x_n) (*) 1/n
    lcf    linear forward centroid   fold of weighted midpoints, left to right
    lcb    linear backward centroid  lcf on the reversed sequence
    lca    linear average centroid   midpoint of lcf and lcb
    fnw    binary tree centroid      divide and conquer weighted midpoints
    bnw    fnw on the reversed sequence

A sequence is an (n, d) array of ball points, every point counting once,
so the weighted midpoints of the folds and trees step by fractions of
point counts.

Every scheme runs on a ``PointBatch``: many sequences packed back to back
into one (total, d) array, composed in lockstep. The folds take one step
per position over every sequence still long enough, the trees one step
per tree level over every sequence, so a corpus costs about as many
numpy calls as its longest document. ``compose`` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gyroball import MAX_NORM, _add, _clamp, _geodesic, _scale

# Not called here: benchmarks/tracing.py looks these names up in this module.
from .gyroball import mobius_add, mobius_scale, weighted_midpoint  # noqa: F401

__all__ = [
    "METHODS",
    "PointBatch",
    "compose",
    "compose_batch",
    "mobius_sum",
]

METHODS = ("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw")

# the binary-tree schemes compose consecutive sequences with up to this many
# bytes of points at a time, which bounds their working copy and temporaries
STEP_BYTES = 256 * 1024

# the naive scheme's running sum is multiplied by this whenever its norm
# reaches MAX_NORM, so that the next Mobius addition stays defined
OVERFLOW_RESCALE = 1.0 - 1e-5


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Point sequences packed back to back, validated once on construction.

    Sequence i is ``points[starts[i] : starts[i] + lengths[i]]``. Every
    sequence has at least one point.
    """

    points: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        pts, lengths = self.points, self.lengths
        if pts.ndim != 2 or pts.shape[1] == 0 or pts.dtype != np.float64:
            raise ValueError(f"points must be a float64 (total, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point sequence contains non-finite coordinates")
        if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or lengths.size == 0 or lengths.min() < 1:
            raise ValueError("a batch needs one or more sequences, each of positive length")
        if lengths.sum() != pts.shape[0]:
            raise ValueError("sequence lengths must sum to the point count")
        object.__setattr__(self, "starts", np.cumsum(lengths) - lengths)

    @classmethod
    def pack(cls, sequences) -> "PointBatch":
        """Pack (n_i, d) point arrays."""
        if not sequences:
            raise ValueError("no sequences to pack")
        seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
        if any(s.ndim != 2 or s.shape[0] == 0 for s in seqs):
            raise ValueError("every sequence must be a non-empty (n, d) array")
        if len({s.shape[1] for s in seqs}) != 1:
            raise ValueError("sequences differ in dimension")
        lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
        return cls(points=np.concatenate(seqs), lengths=lengths)


def _single(points) -> PointBatch:
    pts = np.asarray(points, dtype=np.float64)
    return PointBatch.pack([pts[None, :] if pts.ndim == 1 else pts])


# The folds below take a batch's raw arrays, so that reversed and doubled
# batches need no second validation and no copy of the points.


def _by_length(lengths: np.ndarray):
    """Longest-first order, and how many sequences are longer than k for k = 1.."""
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths[order[0]])
    active = np.searchsorted(-lengths[order], -np.arange(1, longest), side="left")
    return order, active.tolist()


def _emean(batch: PointBatch) -> np.ndarray:
    """Coordinate mean, every coordinate summed with ``math.fsum`` so that
    it is exactly permutation-invariant. A single point passes through as
    it is (fsum would turn its -0.0 coordinates into 0.0)."""
    out = np.empty((batch.lengths.size, batch.points.shape[1]))
    for i, (s, n) in enumerate(zip(batch.starts.tolist(), batch.lengths.tolist())):
        rows = batch.points[s : s + n]
        out[i] = rows[0] if n == 1 else [math.fsum(col.tolist()) / n for col in rows.T]
    return out


def _sums(batch: PointBatch):
    """Left-folded Mobius sums in lockstep, with per-sequence overflow counts."""
    order, active = _by_length(batch.lengths)
    starts = batch.starts[order]
    acc = batch.points[starts]
    overflows = np.zeros(starts.size, dtype=np.int64)

    def rescale(m):
        head = acc[:m]
        over = np.sqrt(np.vecdot(head, head)) >= MAX_NORM
        if np.count_nonzero(over):
            head[over] *= OVERFLOW_RESCALE
            overflows[:m] += over

    rescale(starts.size)
    for k, m in enumerate(active, start=1):
        acc[:m] = _add(acc[:m], batch.points[starts[:m] + k])
        rescale(m)
    sums = np.empty_like(acc)
    sums[order] = acc
    counts = np.empty_like(overflows)
    counts[order] = overflows
    return sums, counts


def _naive(batch: PointBatch) -> np.ndarray:
    sums, _ = _sums(batch)
    n = batch.lengths
    return np.where((n == 1)[:, None], batch.points[batch.starts], _scale(1.0 / n, sums))


def _fold(points, first, stride, lengths) -> np.ndarray:
    """lcf in lockstep over sequences read from row ``first`` by ``stride``
    (+1 forward, -1 backward): step k moves every sequence longer than k
    from its running centroid c_k to M(c_k, x_(k+1); k, 1), the point
    1/(k+1) of the way to x_(k+1)."""
    order, active = _by_length(lengths)
    first, stride = first[order], stride[order]
    acc = points[first]
    for k, m in enumerate(active, start=1):
        rows = first[:m] + k * stride[:m]
        acc[:m] = _geodesic(acc[:m], points[rows], 1.0 / (k + 1))
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _ends(batch: PointBatch):
    """(first row, stride) reading every sequence forward, and backward."""
    ones = np.ones_like(batch.lengths)
    return (batch.starts, ones), (batch.starts + batch.lengths - 1, -ones)


def _lcf(batch: PointBatch) -> np.ndarray:
    (first, stride), _ = _ends(batch)
    return _fold(batch.points, first, stride, batch.lengths)


def _lcb(batch: PointBatch) -> np.ndarray:
    _, (first, stride) = _ends(batch)
    return _fold(batch.points, first, stride, batch.lengths)


def _lca(batch: PointBatch) -> np.ndarray:
    # the forward and backward folds of every sequence run as one fold
    (f_first, f_stride), (b_first, b_stride) = _ends(batch)
    folds = _fold(
        batch.points,
        np.concatenate([f_first, b_first]),
        np.concatenate([f_stride, b_stride]),
        np.concatenate([batch.lengths, batch.lengths]),
    )
    b = batch.lengths.size
    mid = _geodesic(folds[:b], folds[b:], 0.5)
    return np.where((batch.lengths == 1)[:, None], folds[:b], mid)


def _tree(vals, starts, lengths) -> np.ndarray:
    """fnw in lockstep, one step per tree level across all sequences.

    A node over rows lo..lo+n-1 (n >= 2) splits at half = floor(n/2). It
    steps from its left child's centroid by (n - half) / n, the right
    child's share of its n points, and leaves its centroid in row lo of
    ``vals``, where its parent reads it. The levels are enumerated from the
    roots down and stepped deepest first, so both children of a node are
    done before it.
    """
    lo, size = starts[lengths > 1], lengths[lengths > 1]
    levels = []
    while lo.size:
        levels.append((lo, size))
        half = size // 2
        left, right = half > 1, size - half > 1
        lo = np.concatenate([lo[left], (lo + half)[right]])
        size = np.concatenate([half[left], (size - half)[right]])
    for lo, size in reversed(levels):
        half = size // 2
        vals[lo] = _geodesic(vals[lo], vals[lo + half], (size - half) / size)
    return vals[starts]


def _trees(batch: PointBatch, first, stride) -> np.ndarray:
    """fnw of every sequence read from row ``first`` by ``stride``, over groups
    of consecutive sequences of at most STEP_BYTES of points each (a longer
    sequence is a group of its own): a tree works on a copy of its points,
    so the groups bound that copy and the temporaries of a step."""
    starts, lengths = batch.starts, batch.lengths
    ends = starts + lengths
    budget = max(1, STEP_BYTES // (8 * batch.points.shape[1]))
    out = np.empty((lengths.size, batch.points.shape[1]))
    i = 0
    while i < lengths.size:
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + budget, side="right")))
        seq = np.repeat(np.arange(i, j), lengths[i:j])
        rows = first[seq] + stride[seq] * (np.arange(starts[i], ends[j - 1]) - starts[seq])
        g_starts = starts[i:j] - starts[i]
        out[i:j] = _tree(batch.points[rows], g_starts, lengths[i:j])
        i = j
    return out


def _fnw(batch: PointBatch) -> np.ndarray:
    (first, stride), _ = _ends(batch)
    return _trees(batch, first, stride)


def _bnw(batch: PointBatch) -> np.ndarray:
    _, (first, stride) = _ends(batch)
    return _trees(batch, first, stride)


_SCHEMES = {
    "emean": _emean,
    "naive": _naive,
    "lcf": _lcf,
    "lcb": _lcb,
    "lca": _lca,
    "fnw": _fnw,
    "bnw": _bnw,
}


def compose_batch(method: str, batch: PointBatch) -> np.ndarray:
    """Compose every sequence of the batch; row i of the result is sequence i's point."""
    scheme = _SCHEMES.get(method)
    if scheme is None:
        raise ValueError(f"unknown composition method {method!r}; expected one of {METHODS}")
    out = scheme(batch)
    if method == "emean":
        # convex combination: stays inside any ball containing the inputs,
        # and must pass through unclamped for unconstrained Euclidean vectors
        return out
    return _clamp(out)


def compose(method: str, points) -> np.ndarray:
    """Compose one (n, d) point sequence by table name: the batch of one."""
    return compose_batch(method, _single(points))[0]


def mobius_sum(points):
    """Left-folded Mobius sum with the boundary-overflow rescale.

    Whenever the running sum's norm reaches the clamp norm ``MAX_NORM``
    (1 - 1e-7), it is pulled back by the factor ``OVERFLOW_RESCALE``
    (1 - 1e-5). Returns ``(sum, overflow_count)`` where the count records
    how many times the rescale fired.
    """
    sums, counts = _sums(_single(points))
    return sums[0], int(counts[0])
