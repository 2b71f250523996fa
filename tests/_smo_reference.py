"""Maximal-violating-pair SMO: the first-order working set rule, kept as
the reference for the second-order selection of ``classify.svm_train_smo``.

Each step updates the pair i = argmax F over the low candidates and
j = argmin F over the up candidates (Keerthi et al. 2001), with the same
pair step, snapping, stall test and stopping test as the package. Tests
compare the package's iteration counts and dual objectives with it.
"""

import numpy as np

KKT_TOL = 1e-3
MAX_PASSES = 1000


def smo(K, y, C=1.0):
    """(alphas, dual objective, pair steps taken, converged) on a Gram K and
    labels y in {-1, +1}."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    alpha = np.zeros(n)
    F = -y.copy()
    up, low = y > 0, y < 0
    scale = C / max(1.0, float(np.abs(np.diagonal(K)).max()))
    snap = 1e-12 * scale

    def _snap(a):
        return 0.0 if a < snap else C if a > C - snap else a

    steps, stalled = 0, False
    while steps < MAX_PASSES * n:
        j = int(np.argmin(np.where(up, F, np.inf)))
        i = int(np.argmax(np.where(low, F, -np.inf)))
        if F[i] - F[j] <= KKT_TOL:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        a_i, a_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            lo, hi = max(0.0, a_j - a_i), min(C, C + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - C), min(C, a_i + a_j)
        a_j_new = _snap(min(max(a_j + y[j] * (F[i] - F[j]) / eta, lo), hi))
        if abs(a_j_new - a_j) < 1e-14 * scale:
            stalled = True
            break
        a_i_new = _snap(min(max(a_i - y[i] * y[j] * (a_j_new - a_j), 0.0), C))
        F += (a_i_new - a_i) * y[i] * K[i] + (a_j_new - a_j) * y[j] * K[j]
        alpha[i], alpha[j] = a_i_new, a_j_new
        for k, a in ((i, a_i_new), (j, a_j_new)):
            up[k], low[k] = (a < C, a > 0.0) if y[k] > 0 else (a > 0.0, a < C)
        steps += 1
    residual = float(F[low].max() - F[up].min())
    # W = sum(alpha) - 1/2 sum_k alpha_k y_k (F_k + y_k)
    dual = float(np.sum(alpha) - 0.5 * np.sum(alpha * y * (F + y)))
    return alpha, dual, steps, residual <= KKT_TOL and not stalled
