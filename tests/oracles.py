"""Reference implementations used only by the tests.

Each one computes, by a slower or more generic route, something the package
computes in closed form or in factor form, so the two can check each other.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from msvol import matstat
from msvol.errors import DimensionMismatch, DomainError, SingularityError
from msvol.filtering import new_config
from msvol.simulator import SimPath, rng_from_seed, sample_singular_beta


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


def expectation_invariance_check(cfg, state, k=None):
    """Traces of the expected precision before and after the evolution.

    Returns ((n+p-1) tr(S^{-1}), (d*n+p-1) * k * tr(S^{-1})).  With the
    model's k the two agree to machine precision; with the naive k = 1/d and
    p > 1 they differ by (p-1)(1/d - 1) tr(S^{-1}).
    """
    if k is None:
        k = cfg.k
    r_inv = np.linalg.inv(state.scale_chol)
    tr = float(np.sum(r_inv * r_inv))      # tr(S^{-1}) = ||R^{-1}||_F^2
    post = (cfg.n + cfg.p - 1) * tr
    prior = (cfg.delta * cfg.n + cfg.p - 1) * k * tr
    return post, prior


@dataclass
class MsseAccumulator:
    """Running mean of squared standardized forecast errors."""

    p: int
    count: int = 0
    sums: np.ndarray = None

    def __post_init__(self):
        if self.sums is None:
            self.sums = np.zeros(self.p)

    def finalize(self):
        if self.count == 0:
            raise DomainError("no observations accumulated")
        return self.sums / self.count


def msse_update(acc, u_star):
    """Add one standardized error vector to the accumulator (in place)."""
    u_star = np.asarray(u_star, dtype=float)
    if u_star.shape != (acc.p,):
        raise DimensionMismatch(f"expected shape ({acc.p},), got {u_star.shape}")
    acc.sums += u_star * u_star
    acc.count += 1
    return acc


def loglik_term(cfg, sigma_prev_mean, sigma_curr_mean, y):
    """Time-t summand of the plug-in log-likelihood, generic eigenvalue path.

    Both matrices are plug-in posterior means of the volatility.  The
    eigenvalue factor uses the matrix

        I - (1/k) (U')^{-1} C^{-1} U^{-1}

    with U the upper Cholesky factor of the previous plug-in precision and C
    the current plug-in volatility; its positive eigenvalues form L_t.  For
    states generated by the exact recursion this matrix is rank one, which
    the fast path in `loglik_total` exploits; this function stays on the
    generic eigendecomposition so the two routes can check each other.
    """
    sigma_prev_mean = matstat.validate_spd(sigma_prev_mean, "sigma_prev_mean")
    sigma_curr_mean = matstat.validate_spd(sigma_curr_mean, "sigma_curr_mean")
    y = np.asarray(y, dtype=float)
    p, d = cfg.p, cfg.delta
    prev_prec = np.linalg.inv(sigma_prev_mean)
    curr_prec = np.linalg.inv(sigma_curr_mean)
    u = matstat.chol_upper(prev_prec)
    x = solve_triangular(u.T, curr_prec, lower=True)
    inner = solve_triangular(u.T, x.T, lower=True).T
    mat = np.eye(p) - inner / cfg.k
    eig = matstat.positive_eigenvalues(mat)
    if eig.size == 0:
        raise SingularityError("no positive eigenvalue; log|L_t| undefined")
    log_lt = float(np.sum(np.log(eig)))
    a = (2 * d - 1) / (2 * (1 - d))
    b = (3 * d - 2) / (2 * (1 - d))
    return float(
        -0.5 * (y @ curr_prec @ y)
        + a * matstat.log_det(sigma_prev_mean)
        - (p / 2) * log_lt
        - b * matstat.log_det(sigma_curr_mean)
    )


def bayes_factor(u1, n1, u2, n2):
    """Log Bayes factor between two forecast densities of standardized errors.

    Positive prefers the first model, negative the second, zero means
    equivalence.  Computed as the difference of the standardized-t
    log-densities, which equals the log of the gamma-ratio expression in
    closed form.
    """
    return matstat.student_t_logpdf(u1, n1) - matstat.student_t_logpdf(u2, n2)


def evolve_precision(prev_precision, b, k):
    """One precision evolution step: k * U' B U with U'U = prev_precision."""
    prev_precision = matstat.validate_spd(prev_precision, "prev_precision")
    b = np.asarray(b, dtype=float)
    if b.shape != prev_precision.shape:
        raise DimensionMismatch(
            f"beta draw has shape {b.shape}, expected {prev_precision.shape}"
        )
    u = matstat.chol_upper(prev_precision)
    out = k * (u.T @ b @ u)
    return matstat.validate_spd(out, "evolved precision")


def simulate_path_reference(cfg):
    """Matrix-space twin of `simulate_path` built from the public primitives.

    Same draw sequence, same algebra, but evolves the precision explicitly
    through `sample_singular_beta` and `evolve_precision`.  Only suitable for
    short paths (the explicit precision loses positive definiteness once its
    condition number reaches float range); used to cross-check the factored
    path generator.
    """
    model = new_config(cfg.p, cfg.delta, cfg.prior_scale)
    p, k, n, m = cfg.p, model.k, model.n, model.m
    rng = rng_from_seed(cfg.seed)
    sigmas = np.empty((cfg.N, p, p))
    returns = np.empty((cfg.N, p))
    prec = matstat.wishart_sample(n + p - 1, np.linalg.inv(model.prior_scale), rng)
    for t in range(cfg.N):
        b = sample_singular_beta(m, p, rng)
        prec = evolve_precision(prec, b, k)
        root = matstat.sym_inv_sqrt(prec)          # = Sigma^{1/2}
        sigmas[t] = root @ root
        returns[t] = root @ rng.standard_normal(p)
    return SimPath(sigmas=sigmas, returns=returns)
