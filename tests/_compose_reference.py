"""Per-document reference for the seven composition schemes.

``gyrotext.composition`` composes whole batches of sequences in lockstep
on row-wise gyrovector kernels. This module keeps the straightforward
code that batching replaced: scalar Mobius operations on one 1-D vector
at a time (1-D ``np.dot``, ``math.tanh``) on the unit ball, and each
scheme as a loop or a recursion over one sequence. Tests compare the two.
The boundary margins are written out here rather than read from the
package, so the comparison also pins them.
"""

import math

import numpy as np

# the clamp norm, and the naive scheme's overflow rescale factor
MAX_NORM = 1 - 1e-7
OVERFLOW_RESCALE = 1 - 1e-5


def clamp(x):
    n = float(np.linalg.norm(x))
    if n >= 1.0:
        return x * (MAX_NORM / n)
    return x


def mobius_add(a, b):
    dot = float(np.dot(a, b))
    na2 = float(np.dot(a, a))
    nb2 = float(np.dot(b, b))
    num = (1.0 + (2.0 * dot + nb2)) * a + (1.0 - na2) * b
    den = 1.0 + 2.0 * dot + na2 * nb2
    return clamp(num / den)


def mobius_scale(r, x):
    n = float(np.linalg.norm(x))
    if n == 0.0:
        return np.zeros_like(x)
    mag = math.tanh(r * math.atanh(min(n, MAX_NORM)))
    return clamp((mag / n) * x)


def weighted_midpoint(a, b, m_a, m_b):
    t = m_b / (m_a + m_b)
    if t == 1.0:
        return b.copy()
    return mobius_add(a, mobius_scale(t, mobius_add(-a, b)))


def emean(pts):
    if pts.shape[0] == 1:
        return pts[0].copy()
    return np.array([math.fsum(pts[:, j]) for j in range(pts.shape[1])]) / pts.shape[0]


def mobius_sum(pts):
    acc = pts[0].copy()
    overflows = 0
    if float(np.linalg.norm(acc)) >= MAX_NORM:
        acc = acc * OVERFLOW_RESCALE
        overflows += 1
    for i in range(1, pts.shape[0]):
        acc = mobius_add(acc, pts[i])
        if float(np.linalg.norm(acc)) >= MAX_NORM:
            acc = acc * OVERFLOW_RESCALE
            overflows += 1
    return acc, overflows


def naive(pts):
    n = pts.shape[0]
    if n == 1:
        return pts[0].copy()
    acc, _ = mobius_sum(pts)
    return mobius_scale(1.0 / n, acc)


def lcf(pts):
    # the running centroid of i points, each of weight 1, meets point i + 1
    acc = pts[0].copy()
    for i in range(1, pts.shape[0]):
        acc = weighted_midpoint(acc, pts[i], float(i), 1.0)
    return acc


def lca(pts):
    if pts.shape[0] == 1:
        return pts[0].copy()
    return weighted_midpoint(lcf(pts), lcf(pts[::-1]), 1.0, 1.0)


def fnw(pts):
    n = pts.shape[0]
    if n == 1:
        return pts[0].copy()
    half = n // 2
    return weighted_midpoint(fnw(pts[:half]), fnw(pts[half:]), float(half), float(n - half))


def compose(method, points):
    """One sequence, one method; the same contract as gyrotext.composition.compose."""
    pts = np.asarray(points, dtype=np.float64)
    if method == "emean":
        return emean(pts)
    out = {
        "naive": lambda: naive(pts),
        "lcf": lambda: lcf(pts),
        "lcb": lambda: lcf(pts[::-1]),
        "lca": lambda: lca(pts),
        "fnw": lambda: fnw(pts),
        "bnw": lambda: fnw(pts[::-1]),
    }[method]()
    return clamp(out)
