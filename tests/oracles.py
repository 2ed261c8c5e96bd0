"""Reference implementations used only by the tests."""

import numpy as np


def filter_rows_reference(Y, R0, k):
    """Per-step filter pass on numpy scalars: one SVD and one update per row.

    The straightforward form of `filtering._filter_rows`, with the same
    arguments and returns; the kernel must reproduce its outputs.
    """
    N, p = Y.shape
    R = R0.copy()
    scales = np.empty((N, p, p))
    u = np.empty((N, p))
    q = np.empty(N)
    logdet_pre = np.empty(N)
    sqrt_k = np.sqrt(k)
    inv_sqrt_k = 1.0 / sqrt_k
    x = np.empty(p)
    for t in range(N):
        y = Y[t]
        _, d, vt = np.linalg.svd(R)
        if d[p - 1] > 0.0:
            z = vt @ np.ascontiguousarray(y)
            ld = 0.0
            qt = 0.0
            for i in range(p):
                ld += np.log(d[i])
                qt += (z[i] / d[i]) ** 2
            logdet_pre[t] = 2.0 * ld
            q[t] = qt
            u[t] = sqrt_k * (vt.T @ (z / d))
        else:
            logdet_pre[t] = np.nan
            q[t] = np.nan
            u[t] = np.nan
        # S <- S/k + y y', carried out on the factor
        for i in range(p):
            for j in range(i, p):
                R[i, j] *= inv_sqrt_k
            x[i] = y[i]
        for j in range(p):
            rjj = R[j, j]
            r = np.hypot(rjj, x[j])
            c = r / rjj
            s = x[j] / rjj
            R[j, j] = r
            for i in range(j + 1, p):
                R[j, i] = (R[j, i] + s * x[i]) / c
                x[i] = c * x[i] - s * R[j, i]
        scales[t] = R.T @ R
    return scales, u, q, logdet_pre, R
