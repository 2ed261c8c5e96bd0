"""Reference values computed without msvol's code, for the output checks.

The filter is re-derived here from the model's recursion

    S_t = S_{t-1}/k + y_t y_t',   k = (d(1-p)+p) / (d(2-p)+p-1)

carried as an upper triangular factor R (R'R = S) for all discount factors
at once, but updated by a Householder QR of the stacked matrix
[R/sqrt(k); y'] (LAPACK) where the program uses a hand-written Givens sweep,
and with q = y'S^{-1}y from a linear solve where the program uses an SVD.
The plug-in log-likelihood and MMSSE are then assembled from the paper's
closed forms:

* MMSSE = mean over components of mean_t u*_t^2.  Since u*'u* = c k q_t with
  c = (3d-2)/(1-d) for any square root, MMSSE = c k mean(q) / p, which does
  not depend on the square root the program uses for u.
* The time-t log-likelihood term uses the single positive eigenvalue
  kq/(1+kq) of the rank-one matrix, log|S_t| from the updated factor's
  diagonal (not from the closed-form update), and the program's flat-day
  floor.

How closely the program can be held to these values depends on
conditioning; see `tolerances`.
"""

import numpy as np
from scipy.special import gammaln

FLAT_EIGENVALUE_TOL = 1e-10
EPS = np.finfo(float).eps


def decay_constant(d, p):
    return (d * (1 - p) + p) / (d * (2 - p) + p - 1)


def default_prior(data, d, window=30):
    """(n-2) * mean burn-in variance * I with n = 1/(1-d)."""
    v = float(np.mean(np.var(data[:window], axis=0, ddof=1)))
    return (1.0 / (1.0 - d) - 2.0) * v * np.eye(data.shape[1])


def factor_filter(data, ks, priors, keep=0):
    """Run the recursion for every (k, prior) pair at once.

    Returns q (n, G), log|S_t| for t = 0..n (n+1, G), the largest
    squared ratio of factor diagonals seen (a lower bound on cond(S)) per
    pair, and the scales of the first `keep` steps (keep, G, p, p).
    """
    n, p = data.shape
    g = len(ks)
    r = np.transpose(np.linalg.cholesky(priors), (0, 2, 1))
    inv_sqrt_k = (1.0 / np.sqrt(np.asarray(ks)))[:, None, None]
    q = np.empty((n, g))
    logdet = np.empty((n + 1, g))
    cond = np.ones(g)
    scales = np.empty((keep, g, p, p))
    stack = np.empty((g, p + 1, p))
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    logdet[0] = 2.0 * np.sum(np.log(diag), axis=1)
    for t in range(n):
        y = data[t]
        z = np.linalg.solve(np.transpose(r, (0, 2, 1)),
                            np.broadcast_to(y, (g, p))[:, :, None])[:, :, 0]
        q[t] = np.sum(z * z, axis=1)
        stack[:, :p] = r * inv_sqrt_k
        stack[:, p] = y
        r = np.linalg.qr(stack, mode="r")
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        logdet[t + 1] = 2.0 * np.sum(np.log(diag), axis=1)
        cond = np.maximum(cond, (diag.max(axis=1) / diag.min(axis=1)) ** 2)
        if t < keep:
            scales[t] = np.transpose(r, (0, 2, 1)) @ r
    return q, logdet, cond, scales


def _log_multigamma(p, a):
    j = np.arange(1, p + 1)
    return p * (p - 1) / 4 * np.log(np.pi) + float(np.sum(gammaln(a - (j - 1) / 2)))


def grid_reference(data, deltas, keep=0):
    """Per delta: LogL, MMSSE, sum |LogL terms| and the cond(S) bound.

    Also returns the posterior-mean volatilities sqrt(diag(coef * S_t)) of
    the first `keep` steps, shape (keep, G, p).
    """
    n, p = data.shape
    ks = [decay_constant(d, p) for d in deltas]
    priors = np.stack([default_prior(data, d) for d in deltas])
    q, logdet, cond, scales = factor_filter(data, ks, priors, keep)
    rows = {}
    sigmas = np.empty((keep, len(deltas), p))
    for i, d in enumerate(deltas):
        k = ks[i]
        coef = (1.0 - d) / (2.0 * d - 1.0)
        a = (2 * d - 1) / (2 * (1 - d))
        b = (3 * d - 2) / (2 * (1 - d))
        const = (-(n * p / 2) * np.log(np.pi) - (n / 2) * np.log(2 * np.pi)
                 - (n * p * a) * np.log(k)
                 + n * (_log_multigamma(p, (d * (1 - p) + p) / (2 * (1 - d)))
                        - _log_multigamma(p, (d * (2 - p) + p - 1) / (2 * (1 - d)))))
        kq = k * q[:, i]
        flat = kq / (1.0 + kq) < FLAT_EIGENVALUE_TOL
        log_lt = np.where(flat, np.log(FLAT_EIGENVALUE_TOL),
                          np.log(np.maximum(kq, 1e-300)) - np.log1p(kq))
        terms = (-0.5 * kq / (1.0 + kq) / coef
                 + a * (p * np.log(coef) + logdet[:-1, i])
                 - (p / 2) * log_lt
                 - b * (p * np.log(coef) + logdet[1:, i]))
        rows[d] = {
            "loglik": float(const + np.sum(terms)),
            "mmsse": (3 * d - 2) / (1 - d) * k * float(np.mean(q[:, i])) / p,
            "abs_terms": float(abs(const) + np.sum(np.abs(terms))),
            "cond": float(cond[i]),
        }
        sigmas[:, i] = np.sqrt(coef * np.diagonal(scales[:, i], axis1=1, axis2=2))
    return rows, sigmas


def tolerances(cond):
    """(LogL tolerance relative to sum |terms|, bound on |log MMSSE ratio|).

    While cond(S) * eps stays far below 1 every step's q = y'S^{-1}y is
    determined to about cond(S) * eps, and the program agrees with this
    module to about 1e-15 (measured on the p=2 workload): hold it to 1e-9.
    Once cond(S) passes 1/eps (the p=8 paths reach it within a few hundred
    steps) two backward-stable factor updates legitimately disagree in the
    small eigendirections that dominate q, so LogL and MMSSE are determined
    only to the spread between such implementations.  Measured between the
    program and this module on the p=8, N=4774 grid over seeds 0-79: LogL
    within 9.9e-3 of sum |terms|, MMSSE within a factor of 2.9 (|log ratio|
    1.07).  The tolerances, 3e-2 and a log ratio of 2, are about twice to
    three times those: they still catch a wrong decay constant, prior or
    flat-day policy, or a dropped likelihood term, while the first 200 steps
    (cond(S) below ~1e8) are held to the printed precision elsewhere.
    """
    if cond * EPS < 1e-6:
        return 1e-9, 1e-9
    return 3e-2, 2.0
