"""Sequential conjugate recursion for the volatility scale matrix.

The model keeps an inverted-Wishart posterior for the volatility matrix whose
scale S_t evolves by the one-parameter recursion

    S_t = S_{t-1}/k + y_t y_t',        k = (d(1-p)+p) / (d(2-p)+p-1)

for discount factor d in (2/3, 1).  This choice of k preserves the expected
precision from one step to the next; the widely used k = 1/d does so only in
the univariate case and otherwise induces an upward drift (a shrinkage-type
evolution of the precision).

The recursion is run entirely in Cholesky-factor space: the scale matrix is
carried as its upper triangular factor R (R'R = S) and each observation is
absorbed with a Givens-style rank-one update.  This matters: the volatility
path of the model is a multiplicative random walk, so the condition number of
S grows without bound along a path, and forming S explicitly destroys the
small eigendirections once the condition number passes 1/eps.  Working on the
factor keeps the effective condition at its square root.

`run_filter` passes a whole series through the one kernel, `_filter_rows`;
`step` passes a single observation through the same kernel.  Every
factorization is recomputed from the factor at each step, so no incremental
quantity ever degrades, which also subsumes any periodic refresh policy.

The kernel runs the Givens sweep on plain Python floats, taking each
hypotenuse from libm's `hypot` (via `np.hypot`; `math.hypot` rounds
differently), and computes the per-step SVD, u, q and log|S_{t-1}| after
the sweep in block-batched calls; `_filter_rows` says why.  Its outputs
equal, bit for bit (q to one ulp), those of a per-step SVD-and-update loop
on numpy scalars, which the tests keep as the reference.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matstat
from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

DELTA_MIN = 2.0 / 3.0
_BLOCK = 256      # steps per batched SVD call after the update sweep


def compute_k(delta, p):
    """Decay constant that keeps E(precision) unchanged across the evolution.

    Equals (n+p-1)/(d*n+p-1) with n = 1/(1-d); reduces to 1/d at p = 1 and
    tends to 1 as d -> 1.
    """
    if not DELTA_MIN < delta < 1.0:
        raise DomainError(f"discount factor must lie in (2/3, 1), got {delta}")
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    return (delta * (1 - p) + p) / (delta * (2 - p) + p - 1)


@dataclass(frozen=True)
class ModelConfig:
    """Model dimension, discount factor and the constants derived from them."""

    p: int
    delta: float
    k: float
    n: float          # posterior degrees-of-freedom parameter, 1/(1-delta)
    m: float          # matrix-beta parameter, delta/(1-delta) + p - 1
    prior_scale: np.ndarray

    @property
    def forecast_df(self):
        """Degrees of freedom of the one-step forecast t-distribution."""
        return self.delta / (1.0 - self.delta)

    @property
    def posterior_mean_coef(self):
        """E(volatility | data) = coef * S_t; requires delta > 1/2."""
        return (1.0 - self.delta) / (2.0 * self.delta - 1.0)

    @property
    def forecast_scale_coef(self):
        """Var(next return | data) = coef * S_t; requires delta > 2/3."""
        return (1.0 - self.delta) / ((3.0 * self.delta - 2.0) * self.k)


def new_config(p, delta, prior_scale):
    """Validate inputs and populate all derived constants."""
    k = compute_k(delta, p)              # checks delta and p
    prior_scale = matstat.validate_spd(prior_scale, "prior_scale")
    if prior_scale.shape[0] != p:
        raise DimensionMismatch(
            f"prior_scale has dimension {prior_scale.shape[0]}, expected {p}"
        )
    n = 1.0 / (1.0 - delta)
    m = delta / (1.0 - delta) + p - 1
    return ModelConfig(p=p, delta=delta, k=k, n=n, m=m,
                       prior_scale=prior_scale)


@dataclass(frozen=True)
class FilterState:
    """Time index and current scale matrix, carried as its upper factor."""

    t: int
    scale_chol: np.ndarray   # upper triangular R with R'R = S_t

    @property
    def scale(self):
        """The scale matrix S_t itself."""
        return self.scale_chol.T @ self.scale_chol


@dataclass(frozen=True)
class StepOutput:
    """Per-step forecast quantities, computed from the pre-update scale."""

    forecast_scale: np.ndarray
    u: np.ndarray            # sqrt(k) * S^{-1/2} y, symmetric root
    u_star: np.ndarray       # forecast_scale^{-1/2} y, unit-covariance error
    predictive_logdensity: float
    q: float                 # y' S^{-1} y, cached for the likelihood terms


def require_finite(a, name):
    """Raise DomainError naming the first non-finite entry of a 1-d or 2-d array.

    Indices in the message are 0-based.
    """
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        *row, col = bad[0]
        where = f"row {row[0]}, column {col}" if row else f"column {col}"
        raise DomainError(f"{name} has a non-finite value "
                          f"({a[tuple(bad[0])]}) at {where}")


def initial_state(cfg):
    """State at t = 0, holding the prior scale."""
    return FilterState(t=0, scale_chol=matstat.chol_upper(cfg.prior_scale))


def step(cfg, state, y):
    """Absorb one observation; returns the new state and the step output.

    The output is computed from the pre-update scale (the time-t prior): the
    standardized error uses the symmetric inverse square root, and the
    predictive log-density is the forecast-t density of u plus the Jacobian
    of the standardization map, (p/2) log k - (1/2) log|S|, so that values
    are comparable across discount factors on the observation scale.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cfg.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({cfg.p},)")
    require_finite(y, "observation")
    scales, u, q, logdet_pre, r_new = _filter_rows(y[None, :], state.scale_chol, cfg.k)
    if np.isnan(logdet_pre[0]):
        raise NotPositiveDefinite("filter scale matrix lost positive definiteness")
    run = FilterRun(cfg=cfg, scales=scales, u=u, q=q, logdet_pre=logdet_pre)
    new_state = FilterState(t=state.t + 1, scale_chol=r_new)
    out = StepOutput(forecast_scale=prior_mean_next(cfg, state), u=u[0],
                     u_star=run.u_star[0],
                     predictive_logdensity=float(run.predictive_logdensity[0]),
                     q=float(q[0]))
    return new_state, out


def _filter_rows(Y, R0, k):
    """One full filter pass over the rows of Y.

    The pass has two stages.  The first runs the rank-one update
    S <- S/k + y y' on the factor, one step after another, on plain Python
    floats: R is a list of rows and y_t a list, because reading and writing
    numpy scalars one at a time costs several times the arithmetic itself.
    The hypotenuse comes from libm's `hypot` through `np.hypot`:
    `math.hypot` rounds differently, and along an ill-conditioned path a
    last-bit change grows into visibly different forecasts.  Each
    post-update factor R_t is stored in the output buffer.

    The second stage needs only the stored factors, so it runs after the
    loop, in blocks of `_BLOCK` steps from the end backwards: one batched
    SVD of the pre-update factors R_{t-1} gives u, q and log|S_{t-1}| with
    the same products and summation order as a per-step SVD, and the
    block's factors are then turned into R'R in place.  Going backwards
    keeps R_{t-1} in factor form until step t has used it; the blocks keep
    the temporaries small.

    Parameters
    ----------
    Y : (N, p) observations, one row per time step.
    R0 : (p, p) upper triangular factor of the initial scale matrix.
    k : decay constant of the recursion S <- S/k + y y'.

    Returns
    -------
    scales : (N, p, p) post-update scale matrices S_t.
    u : (N, p) standardized errors sqrt(k) * S_{t-1}^{-1/2} y_t
        (symmetric square root).
    q : (N,) quadratic forms y_t' S_{t-1}^{-1} y_t.
    logdet_pre : (N,) log|S_{t-1}| (the pre-update scale).
        A step whose pre-update factor has a zero singular value gets NaN
        u, q and logdet_pre; the state is still advanced.
    R : (p, p) upper triangular factor of the final scale S_N.
    """
    N, p = Y.shape
    scales = np.empty((N, p, p))
    sqrt_k = np.sqrt(k)
    inv_sqrt_k = float(1.0 / sqrt_k)
    hypot = np.hypot
    R = R0.tolist()
    for t in range(N):
        x = Y[t].tolist()
        for j in range(p):
            row = R[j]
            rjj = row[j] * inv_sqrt_k
            xj = x[j]
            r = float(hypot(rjj, xj))
            try:
                c = r / rjj
                s = xj / rjj
            except ZeroDivisionError:
                c, s = _divide_by_zero_pivot(r, xj, rjj)
            row[j] = r
            for i in range(j + 1, p):
                rji = (row[i] * inv_sqrt_k + s * x[i]) / c
                row[i] = rji
                x[i] = c * x[i] - s * rji
        scales[t] = R
    R = np.array(R)

    u = np.empty((N, p))
    q = np.empty(N)
    logdet_pre = np.empty(N)
    for stop in range(N, 0, -_BLOCK):
        start = max(stop - _BLOCK, 0)
        if start > 0:
            pre = scales[start - 1:stop - 1]
        else:
            pre = np.concatenate((R0[None], scales[:stop - 1]))
        _, d, vt = np.linalg.svd(pre)
        z = (vt @ Y[start:stop, :, None])[..., 0]
        ld = np.zeros(stop - start)
        qt = np.zeros(stop - start)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = z / d
            log_d = np.log(d)
            for i in range(p):
                ld += log_d[:, i]
                # pow, as a numpy scalar's ** 2 is; w * w can differ by an ulp
                qt += np.float_power(w[:, i], 2.0)
            ub = sqrt_k * (vt.transpose(0, 2, 1) @ w[..., None])[..., 0]
        singular = ~(d[:, p - 1] > 0.0)
        ld[singular] = qt[singular] = ub[singular] = np.nan
        logdet_pre[start:stop] = 2.0 * ld
        q[start:stop] = qt
        u[start:stop] = ub
        blk = scales[start:stop]
        scales[start:stop] = blk.transpose(0, 2, 1) @ blk
    return scales, u, q, logdet_pre, R


def _divide_by_zero_pivot(r, xj, rjj):
    """c = r/rjj and s = xj/rjj for a zero pivot, with IEEE inf/NaN results.

    Python floats raise on division by zero; the step's outputs are NaN
    either way (its pre-update factor is singular) and the state advances.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(r) / rjj), float(np.float64(xj) / rjj)


def posterior_mean(cfg, state):
    """Posterior mean of the volatility matrix, (1-d)/(2d-1) * S_t."""
    return cfg.posterior_mean_coef * state.scale


def prior_mean_next(cfg, state):
    """Prior mean of the next volatility matrix, (1-d)/(k(3d-2)) * S_t.

    Identical to the one-step forecast variance of the next return.
    """
    return cfg.forecast_scale_coef * state.scale


@dataclass(frozen=True)
class FilterRun:
    """Arrays produced by a full pass of the filter over a series."""

    cfg: ModelConfig
    scales: np.ndarray       # (N, p, p) post-update scale matrices
    u: np.ndarray            # (N, p)
    q: np.ndarray            # (N,)
    logdet_pre: np.ndarray   # (N,) log|S_{t-1}|
    final_state: FilterState = field(repr=False, default=None)

    @property
    def u_star(self):
        return np.sqrt((3 * self.cfg.delta - 2) / (1 - self.cfg.delta)) * self.u

    @property
    def u_sq(self):
        """u'u per step (invariant to the choice of square root)."""
        return np.sum(self.u * self.u, axis=1)

    @property
    def logdet_post(self):
        """log|S_t| of the post-update scales, in closed form."""
        kq = self.cfg.k * self.q
        return self.logdet_pre - self.cfg.p * np.log(self.cfg.k) + np.log1p(kq)

    @property
    def predictive_logdensity(self):
        """Observation-scale forecast log-density per step."""
        cfg = self.cfg
        base = matstat.student_t_logpdf_from_sq(self.u_sq, cfg.forecast_df, cfg.p)
        return base + 0.5 * cfg.p * np.log(cfg.k) - 0.5 * self.logdet_pre


def run_filter(cfg, returns, approximate_prior=False):
    """Run the filter over an (N, p) return matrix.

    With `approximate_prior=True` the prior scale is dropped from the
    recursion (the weighted-sum approximation of S_t): the state starts at
    zero, and the outputs of the warm-up steps, before the accumulated scale
    becomes positive definite, are NaN.

    The run holds the kernel's own arrays: only the warm-up rows of the
    approximate mode are prepended, so the default mode copies nothing.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] != cfg.p:
        raise DimensionMismatch(
            f"returns must have shape (N, {cfg.p}), got {returns.shape}"
        )
    require_finite(returns, "returns")
    r0 = matstat.chol_upper(cfg.prior_scale)
    warm = []
    if approximate_prior and len(returns):
        # the truncated recursion from zero, up to its first full-rank scale
        s = np.zeros((cfg.p, cfg.p))
        for y in returns:
            s = s / cfg.k + np.outer(y, y)
            warm.append(s)
            try:
                r0 = matstat.chol_upper(s)
                break
            except NotPositiveDefinite:
                pass
        else:
            raise NotPositiveDefinite("series never accumulates a full-rank scale")
    start = len(warm)
    scales, u, q, logdet_pre, r_final = _filter_rows(
        np.ascontiguousarray(returns[start:]), r0, cfg.k)
    if not approximate_prior and not np.all(np.isfinite(q)):
        raise NotPositiveDefinite("filter scale matrix lost positive definiteness")
    if warm:
        # warm-up steps keep their truncated scales; their outputs are NaN
        scales = np.concatenate((warm, scales))
        u = np.concatenate((np.full((start, cfg.p), np.nan), u))
        q = np.concatenate((np.full(start, np.nan), q))
        logdet_pre = np.concatenate((np.full(start, np.nan), logdet_pre))
    return FilterRun(cfg=cfg, scales=scales, u=u, q=q, logdet_pre=logdet_pre,
                     final_state=FilterState(t=len(returns), scale_chol=r_final))
