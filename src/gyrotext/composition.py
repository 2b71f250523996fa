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
into one (total, d) array, composed in lockstep. ``PointBatch(points,
lengths)`` is its one constructor and the one place where the points pass
the point-row rule; with no lengths the points are one sequence, so
``compose`` and ``mobius_sum`` check each point once. naive and the folds
take one step per position over every sequence still long enough, so a
corpus costs them about as many numpy calls as its longest document. One
sequence, as ``compose`` and ``mobius_sum`` make, steps as a (d,) vector
instead, its norms Python floats from one ``tolist()``, with no sort and
no gather: the same bits as its row of a stack, for under a third of the
per-call cost. The trees take one step per tree level and emean a fixed
number of calls, both over groups of consecutive sequences. One short
sequence takes its tree as n - 1 vector steps instead, and one small
sequence its emean as ``math.fsum`` of each column, below the cuts where
those cost less than a pass's fixed bookkeeping (``_VECTOR_TREE_POINTS``,
``_FSUM_ENTRIES``).
``compose_batch`` composes several methods of one batch: lcf, lcb and
lca share one fold of the readings they need, forward, backward or both,
which in a batch of one are vector folds apart, and lca is the midpoint
of the two. ``compose`` is the batch of one.

The six ball schemes take one squared-norm pass per batch: the points'
np.vecdot squared norms, and the ball check on them, are taken by the
first pass that needs them (``PointBatch.squared_norms``) and read by
every other. From there each scheme carries the squared norm, or
c = 1 - |x|^2, of every running point from step to step: the clamp of
the step that made a point hands it back, and only a point that naive's
rescale moved has it taken anew. In a batch of many, each step of naive
and the folds gathers the rows it reads, with their norms, and writes
its running points back in place: the batch is never copied whole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .gyroball import MAX_NORM, _add, _geodesic, _inside, _rows, _scale

# Not called here: benchmarks/tracing.py looks these names up in this module.
from .gyroball import mobius_add, mobius_scale, weighted_midpoint  # noqa: F401

__all__ = [
    "METHODS",
    "PointBatch",
    "compose",
    "compose_batch",
    "mobius_sum",
]

# emean and the binary-tree schemes compose consecutive sequences with up to
# this many bytes of points at a time, which bounds their temporaries
STEP_BYTES = 256 * 1024

# One sequence of fewer points than this composes by fnw and bnw as a tree
# of (d,) vector steps, a longer one by the lockstep tree. At d = 50 the
# vector tree takes n - 1 steps of about 5.2 us with the recursion; the
# lockstep tree takes one stacked step per level, about 33 us with the
# level's bookkeeping, and 35 us more, so 5.2 (n - 1) < 35 + 33 ceil(log2 n)
# holds for n up to 45. The cut stays below that: at d = 5 the two trees
# are even from about 44 points, and at 20-40 points the vector tree was
# the faster at d = 5, 50 and 300 (a step's per-call cost outweighs its d
# coordinates).
_VECTOR_TREE_POINTS = 41

# One sequence of at most this many coordinates takes emean as math.fsum of
# each column. That costs about 0.035 us a coordinate (the list and the
# sum), where the extraction pass costs about 35 us, nearly all of it its
# ~30 numpy calls' fixed cost: 35 / 0.035 = 1,000 coordinates, which is 20
# points at d = 50 and 3 at d = 300. At d = 300 the two are about even
# below the cut (some 80 us each): fsum's cost per column, and the pass's
# per coordinate, are no longer small there.
_FSUM_ENTRIES = 1000

# the naive scheme's running sum is multiplied by this whenever its norm
# reaches MAX_NORM, so that the next Mobius addition stays defined
OVERFLOW_RESCALE = 1.0 - 1e-5


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Point sequences packed back to back, validated once on construction.

    Sequence i is ``points[starts[i] : starts[i] + lengths[i]]``; the
    points are C-contiguous point rows, and every sequence has at least
    one of them. With no lengths, the points are one sequence. Build a
    batch of many sequences from their ``np.concatenate`` and their
    lengths. The points must not change once the batch is built: they
    are checked once, and their squared norms are kept once taken.
    """

    points: np.ndarray
    lengths: np.ndarray | None = None
    starts: np.ndarray = field(init=False)
    # the points' squared norms, once squared_norms has taken and checked them
    _n2: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        # C order: a row's np.vecdot then sums as the gathered rows' do
        pts = np.ascontiguousarray(_rows(self.points, "point sequence"))
        if self.lengths is None:
            # one sequence of every point, which only an empty array can break
            lengths, positive = np.array([pts.shape[0]]), pts.shape[0] > 0
        else:
            lengths = np.asarray(self.lengths)
            positive = lengths.ndim == 1 and lengths.dtype.kind in "iu" and lengths.size > 0
            if positive:
                # int64, as the schemes' index arithmetic needs: unsigned
                # lengths wrap under negation and subtraction, and a length
                # beyond int64 turns negative, which the test below refuses
                lengths = lengths.astype(np.int64, copy=False)
                positive = lengths.min() > 0
        if not positive:
            raise ValueError("a batch needs one or more sequences, each of positive length")
        if self.lengths is None:
            starts = np.zeros(1, dtype=lengths.dtype)
        elif lengths.max() > pts.shape[0] or lengths.sum() != pts.shape[0]:
            # a length above the point count is refused before the sum can wrap
            raise ValueError("sequence lengths must sum to the point count")
        else:
            starts = np.cumsum(lengths) - lengths
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "starts", starts)

    def squared_norms(self, caller: str) -> np.ndarray:
        """np.vecdot(p, p) of every point, which must lie strictly inside
        the unit ball (``caller`` names who asks, in the error). Taken and
        checked on the first call and kept, so every pass over the batch
        reads the same values."""
        if self._n2 is None:
            object.__setattr__(self, "_n2", _inside(self.points, caller))
        return self._n2


def _groups(batch: PointBatch):
    """Groups of consecutive sequences with at most STEP_BYTES of points
    each, a longer sequence being a group of its own, as (i, j, lo, hi):
    sequences i..j-1, rows lo..hi-1. A scheme that works a group at a time
    bounds its temporaries by the group."""
    starts, lengths = batch.starts, batch.lengths
    ends = starts + lengths
    budget = max(1, STEP_BYTES // (8 * batch.points.shape[1]))
    i = 0
    while i < lengths.size:
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + budget, side="right")))
        yield i, j, int(starts[i]), int(ends[j - 1])
        i = j


def _emean(batch: PointBatch) -> np.ndarray:
    """Coordinate mean: ``math.fsum`` of each coordinate over the sequence,
    divided by its length, bit for bit, so exactly permutation-invariant.
    One sequence of at most _FSUM_ENTRIES coordinates takes ``math.fsum``
    itself, column by column; every other batch, ``_extraction``."""
    if batch.lengths.size == 1 and batch.points.size <= _FSUM_ENTRIES:
        n = len(batch.points)
        return np.array([[math.fsum(col) / n for col in batch.points.T.tolist()]])
    return _extraction(batch)


def _extraction(batch: PointBatch) -> np.ndarray:
    """``_emean`` of every sequence, in one pass per group of ``_groups``,
    column by column, by the extraction of Rump, Ogita & Oishi 2008
    (Accurate floating-point summation, part I, Lemma 3.2). Let u = 2^-53,
    m the group's longest sequence, 2^e above the column's largest |x|, and
    sigma = 2^(ceil(log2(m + 2)) + e).

    - Heads. Each x splits exactly into a head q = (x + sigma) - sigma and
      a tail x - q with |x - q| <= u sigma. Every head is a multiple of
      u sigma (of 2^-1074 where that is larger), and n <= m heads add up
      to at most m (2^e + u sigma) < sigma in magnitude. So every partial
      head sum, in whatever order reduceat takes, is a multiple of u sigma
      below sigma, a float: the head sums tau are exact.
    - Tails. n tails of at most u sigma sum in floating point within
      gamma_(n-1) n u sigma <= n^2 2^-105 sigma of their exact sum (Higham
      2002, sec. 4.2; n < 2^26). The bound holds also where it underflows:
      it is rounded once, and the error is a multiple of 2^-1074 no larger
      than the bound's exact value, so no larger than its rounding.
    - Certificate. With r = fl(tau + tail) and TwoSum's delta = tau + tail
      - r, the exact sum lies within |delta| + bound of r. Below half the
      gap from |r| to the next double towards zero (the smaller gap), r is
      the exact sum correctly rounded, never a tie: fsum's result.
    - Refusals. The test fails at ties, where r is zero (fsum then picks
      the sign of zero), and where sigma overflows to inf, which makes r
      NaN. Every refused entry is summed by ``math.fsum`` itself, which
      raises OverflowError where its partial sums overflow; while sigma is
      finite every sum of |x| stays below 2^1023, so fsum cannot overflow
      on an entry the test keeps.
    """
    out = np.empty((batch.lengths.size, batch.points.shape[1]))
    for i, j, lo, hi in _groups(batch):
        x = batch.points[lo:hi]
        lengths = batch.lengths[i:j]
        cuts = batch.starts[i:j] - lo
        n = lengths[:, None].astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            # 2^e > max|x| by frexp, and ceil(log2(m + 2)) = (m + 1).bit_length()
            top = np.maximum(x.max(axis=0), -x.min(axis=0))
            sigma = np.ldexp(1.0, np.frexp(top)[1] + int(lengths.max() + 1).bit_length())
            head = x + sigma
            head -= sigma
            tau = np.add.reduceat(head, cuts)
            # the tails x - head, exact, take the heads' place
            tail = np.add.reduceat(np.subtract(x, head, out=head), cuts)
            # TwoSum (Knuth): r + delta = tau + tail exactly
            r = tau + tail
            z = r - tau
            delta = (tau - (r - z)) + (tail - z)
            size = np.abs(r)
            half_gap = 0.5 * (size - np.nextafter(size, 0.0))
            sure = np.abs(delta) + np.ldexp(n * n, -105) * sigma < half_gap
            out[i:j] = r / n
        rows, cols = np.nonzero(~sure)
        refused = zip(cuts[rows].tolist(), lengths[rows].tolist(), cols.tolist())
        out[i + rows, cols] = [
            math.fsum(x[start : start + length, col].tolist()) / length
            for start, length, col in refused
        ]
    return out


# The folds below take a batch's raw arrays, so that reversed and doubled
# batches need no second validation and no copy of the points.


def _lockstep(lengths: np.ndarray):
    """How a fold steps through sequences of these lengths: their
    longest-first order, and how many of them take step k, for k = 1, 2,
    ..., which are the first ones in that order, those longer than k."""
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths[order[0]])
    active = np.searchsorted(-lengths[order], -np.arange(1, longest), side="left")
    return order, active.tolist()


def _sums(batch: PointBatch, n2: np.ndarray):
    """Left-folded Mobius sums in lockstep, their squared norms, and
    per-sequence overflow counts; ``n2`` holds the points' squared norms.
    A sum's squared norm is carried from step to step, and taken anew only
    for a sum that the rescale moved."""
    order, active = _lockstep(batch.lengths)
    starts = batch.starts[order]
    acc, acc_n2 = batch.points[starts], n2[starts]
    overflows = np.zeros(starts.size, dtype=np.int64)

    def rescale(m):
        over = np.sqrt(acc_n2[:m]) >= MAX_NORM
        if np.count_nonzero(over):
            acc[:m][over] *= OVERFLOW_RESCALE
            overflows[:m] += over
            moved = acc[:m][over]
            acc_n2[:m][over] = np.vecdot(moved, moved)

    rescale(starts.size)
    for k, m in enumerate(active, start=1):
        rows = starts[:m] + k
        acc[:m], acc_n2[:m] = _add(acc[:m], batch.points[rows], acc_n2[:m], n2[rows])
        rescale(m)
    sums, sums_n2, counts = np.empty_like(acc), np.empty_like(acc_n2), np.empty_like(overflows)
    sums[order], sums_n2[order], counts[order] = acc, acc_n2, overflows
    return sums, sums_n2, counts


def _vector_sum(points, n2):
    """``_sums`` of one sequence, stepped as (d,) vectors on ``n2`` as
    floats: its sum, the sum's squared norm (a float), its overflow count."""
    n2 = n2.tolist()
    # a copy: the rescale works in place, and the first point is the caller's
    acc, acc_n2, count = points[0].copy(), n2[0], 0
    for k in range(len(points)):
        if k:
            acc, acc_n2 = _add(acc, points[k], acc_n2, n2[k])
        if math.sqrt(acc_n2) >= MAX_NORM:
            acc *= OVERFLOW_RESCALE
            acc_n2, count = float(acc.dot(acc)), count + 1
    return acc, acc_n2, count


def _naive(batch: PointBatch, n2: np.ndarray) -> np.ndarray:
    if batch.lengths.size == 1:
        total, total_n2, _ = _vector_sum(batch.points, n2)
        return _scale(1.0 / len(batch.points), total, total_n2)[None]
    sums, sums_n2, _ = _sums(batch, n2)
    return _scale(1.0 / batch.lengths, sums, sums_n2)


def _fold(points, c, first, stride, lengths):
    """lcf in lockstep over sequences read from row ``first`` by ``stride``
    (+1 forward, -1 backward), with the c = 1 - |x|^2 of its rows; ``c``
    holds the points' c. Step k moves every sequence longer than k from
    its running centroid c_k to M(c_k, x_(k+1); k, 1), the point 1/(k+1)
    of the way to x_(k+1), and carries its c from the step's clamp."""
    order, active = _lockstep(lengths)
    first, stride = first[order], stride[order]
    acc, c_acc = points[first], c[first]
    for k, m in enumerate(active, start=1):
        rows = first[:m] + k * stride[:m]
        acc[:m], c_acc[:m] = _geodesic(acc[:m], points[rows], 1.0 / (k + 1), c_acc[:m], c[rows])
    out, c_out = np.empty_like(acc), np.empty_like(c_acc)
    out[order], c_out[order] = acc, c_acc
    return out, c_out


def _vector_fold(points, c):
    """lcf of one sequence, its points in reading order, stepped as (d,)
    vectors on the floats of its ``c``, a list: its point and that c."""
    # a copy: a one-point sequence's point must not be the caller's row
    acc, c_acc = points[0].copy(), c[0]
    for k in range(1, len(points)):
        acc, c_acc = _geodesic(acc, points[k], 1.0 / (k + 1), c_acc, c[k])
    return acc, c_acc


def _reading(batch: PointBatch, backward: bool):
    """(first row, stride) of every sequence, read forward or backward."""
    ones = np.ones_like(batch.lengths)
    if backward:
        return batch.starts + batch.lengths - 1, -ones
    return batch.starts, ones


def _folds(batch: PointBatch, n2: np.ndarray, methods) -> list:
    """The blocks of ``methods``, some of lcf, lcb and lca, from the
    readings they need: forward for lcf, backward for lcb, both for lca,
    the midpoint of the two. A batch of many folds those readings of
    every sequence as one fold over their rows; one sequence folds each
    apart, as vectors, since two vector folds cost less than one fold of
    two rows."""
    c = 1.0 - n2
    names = [m for m in ("lcf", "lcb") if m in methods or "lca" in methods]
    if batch.lengths.size == 1:
        flip = {"lcf": slice(None), "lcb": slice(None, None, -1)}
        c = c.tolist()
        folds = {m: _vector_fold(batch.points[flip[m]], c[flip[m]]) for m in names}
    else:
        n = len(names)
        first, stride = zip(*(_reading(batch, m == "lcb") for m in names))
        out, c_out = _fold(batch.points, c, np.concatenate(first), np.concatenate(stride),
                           np.tile(batch.lengths, n))
        folds = dict(zip(names, zip(np.split(out, n), np.split(c_out, n))))
    if "lca" in methods:
        (f, c_f), (r, c_r) = folds["lcf"], folds["lcb"]
        folds["lca"] = _geodesic(f, r, 0.5, c_f, c_r)
    # a vector's block is its one row
    return [folds[m][0].reshape(-1, batch.points.shape[1]) for m in methods]


def _tree(vals, c, starts, lengths) -> np.ndarray:
    """fnw in lockstep, one step per tree level across all sequences.

    A node over rows lo..lo+n-1 (n >= 2) splits at half = floor(n/2). It
    steps from its left child's centroid by (n - half) / n, the right
    child's share of its n points, and leaves its centroid in row lo of
    ``vals``, and its c = 1 - |x|^2 in row lo of ``c``, where its parent
    reads them. The levels are enumerated from the roots down and stepped
    deepest first, so both children of a node are done before it.
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
        hi = lo + half
        vals[lo], c[lo] = _geodesic(vals[lo], vals[hi], (size - half) / size, c[lo], c[hi])
    return vals[starts]


def _vector_tree(points, c, lo: int, n: int):
    """fnw of the n points from row ``lo`` on, in reading order, stepped as
    (d,) vectors on the floats of their ``c``, a list: its point and that c.
    Each node steps as ``_tree``'s does, from its left child's centroid by
    (n - half) / n, so the bits are those of its row in ``_tree``. A
    module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep the points until the cyclic GC ran."""
    if n == 1:
        return points[lo], c[lo]
    half = n // 2
    a, c_a = _vector_tree(points, c, lo, half)
    b, c_b = _vector_tree(points, c, lo + half, n - half)
    return _geodesic(a, b, (n - half) / n, c_a, c_b)


def _trees(batch: PointBatch, c: np.ndarray, first, stride) -> np.ndarray:
    """fnw of every sequence read from row ``first`` by ``stride``, a group of
    ``_groups`` at a time: a tree works on a copy of its group's points and
    of their c = 1 - |x|^2, which ``c`` holds."""
    starts, lengths = batch.starts, batch.lengths
    out = np.empty((lengths.size, batch.points.shape[1]))
    for i, j, lo, hi in _groups(batch):
        seq = np.repeat(np.arange(i, j), lengths[i:j])
        rows = first[seq] + stride[seq] * (np.arange(lo, hi) - starts[seq])
        out[i:j] = _tree(batch.points[rows], c[rows], starts[i:j] - lo, lengths[i:j])
    return out


def _fnw(batch: PointBatch, n2: np.ndarray, backward: bool) -> np.ndarray:
    """fnw of every sequence, read forward or backward (bnw). One sequence
    shorter than _VECTOR_TREE_POINTS steps as a vector tree."""
    c = 1.0 - n2
    if batch.lengths.size == 1 and len(batch.points) < _VECTOR_TREE_POINTS:
        flip = slice(None, None, -1) if backward else slice(None)
        point, _ = _vector_tree(batch.points[flip], c.tolist()[flip], 0, len(batch.points))
        # a copy: a one-point sequence's point is the caller's row
        return np.array(point, ndmin=2)
    return _trees(batch, c, *_reading(batch, backward))


def _alone(scheme):
    """A scheme that composes one method as a pass: a list of its one block."""
    return lambda batch, n2, methods: [scheme(batch, n2)]


# every method's pass, called as pass(batch, n2, methods) for the methods it
# serves, with the batch's squared norms (None for emean alone); ``_passes``
# groups the methods that name the same one
_SCHEMES = {
    "emean": _alone(lambda batch, n2: _emean(batch)),
    "naive": _alone(_naive),
    "lcf": _folds,
    "lcb": _folds,
    "lca": _folds,
    "fnw": _alone(lambda batch, n2: _fnw(batch, n2, False)),
    "bnw": _alone(lambda batch, n2: _fnw(batch, n2, True)),
}

METHODS = tuple(_SCHEMES)


def _repeated(values) -> list:
    """The values that occur more than once, sorted."""
    return sorted({v for v in values if values.count(v) > 1})


def _check_methods(methods) -> tuple:
    """The method-list rule: a tuple of one or more known composition methods, none repeated."""
    if isinstance(methods, str):
        raise ValueError(f"expected a sequence of composition methods, got the string {methods!r}")
    if len(methods) == 0:
        raise ValueError("at least one composition method is required")
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown composition methods {unknown}; expected from {METHODS}")
    if repeated := _repeated(methods):
        raise ValueError(f"composition methods repeated: {repeated}")
    return tuple(methods)


def _passes(methods) -> list:
    """Known methods as passes, each a tuple of the methods it composes, in
    the order of their first method: the methods of one scheme share its
    pass. lcf, lcb and lca share ``_folds``, and every other method is a
    pass of its own."""
    passes = {}
    for method in methods:
        passes.setdefault(_SCHEMES[method], []).append(method)
    return [tuple(group) for group in passes.values()]


@functools.cache
def _plan(methods) -> tuple:
    """(label of the ball check, None for emean alone; passes) of a method
    tuple that the method-list rule accepts. Cached per tuple, of which
    there are finitely many valid ones (a refused one raises and is not
    kept): ``compose`` asks for the same seven once per text, and this
    bookkeeping would cost it a few microseconds each time."""
    methods = _check_methods(methods)
    ball = [m for m in methods if m != "emean"]
    label = f"composition method {ball[0]!r}" if ball else None
    return label, tuple(_passes(methods))


def compose_batch(methods, batch: PointBatch) -> dict:
    """Compose every sequence of the batch by each of ``methods``, in
    passes as ``_passes`` groups them; returns {method: block}, where row
    i of a block is sequence i's point.

    A row depends only on its own sequence, so a method's block is bitwise
    the same whichever methods it is composed with. Every method but emean
    needs points strictly inside the unit ball; emean also takes
    unconstrained Euclidean vectors, and its rows are never clamped. The
    rows of the six ball schemes need no clamp here: each scheme's last
    step (naive's Mobius scale, the others' geodesic step) clamps, and a
    one-point sequence is its own input point.
    """
    if not isinstance(methods, (str, tuple)):
        # a hashable key for _plan; a string stays one, for the rule to refuse
        methods = tuple(methods)
    try:
        label, passes = _plan(methods)
    except TypeError:
        # an unhashable method name misses the cache; the rule refuses it
        _check_methods(methods)
        raise
    n2 = None if label is None else batch.squared_norms(label)
    blocks = {}
    for group in passes:
        blocks.update(zip(group, _SCHEMES[group[0]](batch, n2, group)))
    # a one-point sequence composes to that point, bit for bit: fsum would
    # turn its -0.0 coordinates into 0.0, and naive's rescale could move it
    single = batch.lengths == 1
    if np.count_nonzero(single):
        for out in blocks.values():
            out[single] = batch.points[batch.starts[single]]
    return blocks


def compose(method: str, points) -> np.ndarray:
    """Compose one (n, d) point sequence by table name: the batch of one."""
    return compose_batch((method,), PointBatch(points))[method][0]


def mobius_sum(points):
    """Left-folded Mobius sum with the boundary-overflow rescale.

    Whenever the running sum's norm reaches the clamp norm ``MAX_NORM``
    (1 - 1e-7), it is pulled back by the factor ``OVERFLOW_RESCALE``
    (1 - 1e-5). Returns ``(sum, overflow_count)`` where the count records
    how many times the rescale fired. The points must lie strictly inside
    the unit ball.
    """
    batch = PointBatch(points)
    total, _, count = _vector_sum(batch.points, batch.squared_norms("mobius_sum"))
    return total, count
