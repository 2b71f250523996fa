"""Per-document reference for the seven composition schemes.

``gyrotext.composition`` composes whole batches of sequences in lockstep
on row-wise gyrovector kernels. This module keeps the straightforward
code that batching replaced: scalar Mobius operations on one 1-D vector
at a time (1-D ``np.dot``, ``math.tanh``), and each scheme as a loop or a
recursion over one sequence. Tests compare the two.
"""

import math

import numpy as np

from gyrotext.composition import DEFAULT_COMPOSITION


def clamp(x, ball):
    n = float(np.linalg.norm(x))
    if n >= ball.s:
        return x * (ball.max_norm / n)
    return x


def mobius_add(a, b, ball):
    s2 = ball.s * ball.s
    dot = float(np.dot(a, b))
    na2 = float(np.dot(a, a))
    nb2 = float(np.dot(b, b))
    num = (1.0 + (2.0 * dot + nb2) / s2) * a + (1.0 - na2 / s2) * b
    den = 1.0 + (2.0 * dot) / s2 + (na2 * nb2) / (s2 * s2)
    return clamp(num / den, ball)


def mobius_scale(r, x, ball):
    n = float(np.linalg.norm(x))
    if n == 0.0:
        return np.zeros_like(x)
    ratio = min(n / ball.s, 1.0 - ball.boundary_eps)
    mag = ball.s * math.tanh(r * math.atanh(ratio))
    return clamp((mag / n) * x, ball)


def weighted_midpoint(a, b, m_a, m_b, ball):
    t = m_b / (m_a + m_b)
    if t == 1.0:
        return b.copy()
    return mobius_add(a, mobius_scale(t, mobius_add(-a, b, ball), ball), ball)


def emean(pts, w):
    if pts.shape[0] == 1:
        return pts[0].copy()
    contrib = pts * w[:, None]
    total = math.fsum(w)
    return np.array([math.fsum(contrib[:, j]) for j in range(pts.shape[1])]) / total


def mobius_sum(pts, cfg):
    ball = cfg.ball
    limit = ball.s * (1.0 - ball.boundary_eps)
    acc = pts[0].copy()
    overflows = 0
    if float(np.linalg.norm(acc)) >= limit:
        acc = acc * (1.0 - cfg.overflow_eps)
        overflows += 1
    for i in range(1, pts.shape[0]):
        acc = mobius_add(acc, pts[i], ball)
        if float(np.linalg.norm(acc)) >= limit:
            acc = acc * (1.0 - cfg.overflow_eps)
            overflows += 1
    return acc, overflows


def naive(pts, cfg):
    n = pts.shape[0]
    if n == 1:
        return pts[0].copy()
    acc, _ = mobius_sum(pts, cfg)
    return mobius_scale(1.0 / n, acc, cfg.ball)


def lcf(pts, w, ball):
    acc = pts[0].copy()
    acc_w = float(w[0])
    for i in range(1, pts.shape[0]):
        acc = weighted_midpoint(acc, pts[i], acc_w, float(w[i]), ball)
        acc_w += float(w[i])
    return acc


def lca(pts, w, ball):
    if pts.shape[0] == 1:
        return pts[0].copy()
    return weighted_midpoint(lcf(pts, w, ball), lcf(pts[::-1], w[::-1], ball), 1.0, 1.0, ball)


def fnw(pts, w, ball):
    n = pts.shape[0]
    if n == 1:
        return pts[0].copy()
    half = n // 2
    left = fnw(pts[:half], w[:half], ball)
    right = fnw(pts[half:], w[half:], ball)
    return weighted_midpoint(left, right, float(np.sum(w[:half])), float(np.sum(w[half:])), ball)


def compose(method, points, weights=None, cfg=DEFAULT_COMPOSITION):
    """One sequence, one method; the same contract as gyrotext.composition.compose."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.ones(pts.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    if method == "emean":
        return emean(pts, w)
    ball = cfg.ball
    out = {
        "naive": lambda: naive(pts, cfg),
        "lcf": lambda: lcf(pts, w, ball),
        "lcb": lambda: lcf(pts[::-1], w[::-1], ball),
        "lca": lambda: lca(pts, w, ball),
        "fnw": lambda: fnw(pts, w, ball),
        "bnw": lambda: fnw(pts[::-1], w[::-1], ball),
    }[method]()
    return clamp(out, ball)
