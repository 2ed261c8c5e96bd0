"""Reference implementations used only by the tests.

Each one computes, by a slower or more generic route, something the package
computes in closed form or in factor form, so the two can check each other.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from msvol import matstat
from msvol.errors import (DimensionMismatch, DomainError, MsvolError,
                          NotPositiveDefinite)
from msvol.filtering import new_config
from msvol.simulator import SimPath, rng_from_seed, sample_singular_beta


def sym_inv_sqrt(a):
    """Symmetric B with B a B = I (spectral inverse square root)."""
    a = np.asarray(a, dtype=float)
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0.0:
        raise NotPositiveDefinite("matrix has a non-positive eigenvalue")
    return (v / np.sqrt(w)) @ v.T


def log_det(a):
    """log-determinant of a positive definite matrix, via Cholesky."""
    u = matstat.chol_upper(a)
    return 2.0 * float(np.sum(np.log(np.diag(u))))


def student_t_logpdf(u, n):
    """Log-density of the standardized multivariate Student-t at the vector u.

    `matstat.student_t_logpdf_from_sq` of u'u, with the dimension taken
    from u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(matstat.student_t_logpdf_from_sq(float(u @ u), n, u.shape[0]))


def positive_eigenvalues(m, tol=None):
    """Eigenvalues of the symmetrized input exceeding `tol`, descending.

    Default tolerance is 1e-10 * max(1, ||m||); it only has to separate
    analytically-zero eigenvalues from floating-point noise.
    """
    m = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return np.sort(w[w > tol])[::-1]


def bartlett_lower(df, p, rng):
    """Lower-triangular Bartlett factor T: T T' ~ Wishart(df, I_p).

    Built entry by entry: the p chi-squares, then the strictly lower
    normals.  `matstat.bartlett_lower` must consume the generator in this
    order, because the simulator's paths depend on it.
    """
    t = np.zeros((p, p))
    for i in range(p):
        t[i, i] = np.sqrt(rng.chisquare(df - i))
    if p > 1:
        il = np.tril_indices(p, -1)
        t[il] = rng.standard_normal(il[0].shape[0])
    return t


def wishart_sample(df, scale, rng, size=None):
    """Draw from Wishart(df, scale) via the Bartlett construction.

    With L the lower Cholesky factor of `scale` and T a Bartlett factor,
    a draw is L T T' L'; the mean over draws is df * scale.  `size=None`
    returns a single (p, p) draw, an integer returns a (size, p, p) stack.
    """
    scale = matstat.validate_spd(scale, "scale")
    p = scale.shape[0]
    if df <= p - 1:
        raise DomainError(f"Wishart df must exceed p-1={p - 1}, got {df}")
    low = np.linalg.cholesky(scale)
    if size is None:
        m = low @ bartlett_lower(df, p, rng)
        return m @ m.T
    m = low[None, :, :] @ matstat.bartlett_lower(df, p, rng, size)
    return m @ np.transpose(m, (0, 2, 1))


def filter_rows_reference(Y, R0, k):
    """Per-step filter pass on numpy scalars: one SVD and one update per row.

    The straightforward form of `filtering._filter_rows`, with the same
    arguments and returns.  The kernel takes its factors from a block QR,
    not from this Givens update, so it matches these outputs within
    rounding bounds, not bit for bit.
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


def forward_substitution_full(factors, Y):
    """w, q and log|S_{t-1}| from a full (N+1, p, p) factor stack.

    The triangular solve R_{t-1}' w_t = y_t of `filtering._filter_rows`, in
    the layout the kernel used before it held the path packed: each column's
    sum of products is an `einsum` over the stack's strided column, so the
    outputs are the bits that layout gave.
    """
    pre = factors[:len(Y)]
    diag = np.diagonal(pre, axis1=1, axis2=2)
    w = np.empty_like(Y)
    for i in range(Y.shape[1]):
        w[:, i] = (Y[:, i] - np.einsum("tj,tj->t", pre[:, :i, i], w[:, :i])) / diag[:, i]
    q = np.einsum("tj,tj->t", w, w)
    logdet = np.abs(diag)
    logdet = 2.0 * np.log(logdet, out=logdet).sum(axis=1)
    return w, q, logdet


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


class SingularityError(MsvolError):
    """A quantity whose logarithm is required degenerated to zero."""


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
    eig = positive_eigenvalues(mat)
    if eig.size == 0:
        raise SingularityError("no positive eigenvalue; log|L_t| undefined")
    log_lt = float(np.sum(np.log(eig)))
    a = (2 * d - 1) / (2 * (1 - d))
    b = (3 * d - 2) / (2 * (1 - d))
    return float(
        -0.5 * (y @ curr_prec @ y)
        + a * log_det(sigma_prev_mean)
        - (p / 2) * log_lt
        - b * log_det(sigma_curr_mean)
    )


def bayes_factor(u1, n1, u2, n2):
    """Log Bayes factor between two forecast densities of standardized errors.

    Positive prefers the first model, negative the second, zero means
    equivalence.  Computed as the difference of the standardized-t
    log-densities, which equals the log of the gamma-ratio expression in
    closed form.
    """
    return student_t_logpdf(u1, n1) - student_t_logpdf(u2, n2)


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


def beta_roots_cholesky(t, x):
    """`simulator._beta_roots` by the direct route, one draw at a time: L the
    lower Cholesky factor of T T' + x x', then F = L^{-1} T by a triangular
    solve.  Agrees with the QR construction to rounding, not to the bit.
    """
    low = np.linalg.cholesky(t @ t.transpose(0, 2, 1) + x[:, :, None] * x[:, None, :])
    return np.stack([solve_triangular(low[j], t[j], lower=True) for j in range(len(t))])


def simulate_path_stepwise(cfg):
    """Per-step factored path generator: one draw, QR and SVD per step.

    The straightforward form of `simulator.simulate_path`, with the same
    argument and result; the block-batched generator must reproduce its
    `sigmas` and `returns` bit for bit wherever this loop stays finite.
    """
    model = new_config(cfg.p, cfg.delta, cfg.prior_scale)   # validates inputs
    if cfg.N < 0:
        raise DomainError(f"path length must be >= 0, got {cfg.N}")
    p, k, n, m = cfg.p, model.k, model.n, model.m
    rng = rng_from_seed(cfg.seed)
    sigmas = np.empty((cfg.N, p, p))
    returns = np.empty((cfg.N, p))
    if cfg.N == 0:
        return SimPath(sigmas=sigmas, returns=returns)
    # precision_0 ~ Wishart(n+p-1, prior_scale^{-1}) by the Bartlett
    # construction, kept in factor form from the start: upper W, W'W = prec
    prior_prec = np.linalg.inv(model.prior_scale)
    low0 = np.linalg.cholesky(0.5 * (prior_prec + prior_prec.T))
    w = (low0 @ matstat.bartlett_lower(n + p - 1, p, rng, 1)[0]).T
    sqrt_k = np.sqrt(k)
    for t in range(cfg.N):
        # same draw sequence as sample_singular_beta(m, p, rng)
        tfac = matstat.bartlett_lower(m, p, rng, 1)[0]
        x = rng.standard_normal(p)
        # beta root F = (Q[:p] D)' from [tfac'; x'] = Q R, D = sign(diag R)
        q, r = np.linalg.qr(np.vstack((tfac.T, x)))
        root = (q[:p] * np.sign(np.diag(r))).T
        # evolved precision k W' B W = M M' with M = sqrt(k) W' F
        w = sqrt_k * (w.T @ root).T
        # symmetric square root of the volatility from the SVD of the factor
        _, sv, vt = np.linalg.svd(w)
        if sv[-1] <= 0.0:
            raise NotPositiveDefinite("precision factor degenerated")
        sigmas[t] = (vt.T / (sv * sv)) @ vt
        eps = rng.standard_normal(p)
        returns[t] = vt.T @ ((vt @ eps) / sv)
    return SimPath(sigmas=sigmas, returns=returns)


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
    prec = wishart_sample(n + p - 1, np.linalg.inv(model.prior_scale), rng)
    for t in range(cfg.N):
        b = sample_singular_beta(m, p, rng)
        prec = evolve_precision(prec, b, k)
        root = sym_inv_sqrt(prec)          # = Sigma^{1/2}
        sigmas[t] = root @ root
        returns[t] = root @ rng.standard_normal(p)
    return SimPath(sigmas=sigmas, returns=returns)
