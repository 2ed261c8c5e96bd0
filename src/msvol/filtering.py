"""Sequential conjugate recursion for the volatility scale matrix.

The model keeps an inverted-Wishart posterior for the volatility matrix whose
scale S_t evolves by the one-parameter recursion

    S_t = S_{t-1}/k + y_t y_t',        k = (d(1-p)+p) / (d(2-p)+p-1)

for discount factor d in (2/3, 1).  This choice of k preserves the expected
precision from one step to the next; the widely used k = 1/d does so only in
the univariate case and otherwise induces an upward drift (a shrinkage-type
evolution of the precision).

The recursion is run entirely in Cholesky-factor space: the scale matrix is
carried as its upper triangular factor R (R'R = S), and each block of
observations is absorbed by one batched QR of the previous factor stacked
on the block's weighted observations.  This matters: the volatility path of
the model is a multiplicative random walk, so the condition number of S
grows without bound along a path, and forming S explicitly destroys the
small eigendirections once the condition number passes 1/eps.  Working on
the factor keeps the effective condition at its square root.  It does not
make the forecast quantities exact: once cond(R) passes about 1e15, no
float64 route tried keeps two digits of q = y'S^{-1}y.

`run_filter` (a series, from the prior) and `step` (one observation, from
any `FilterState`) check their input and call the one kernel, `_filter_rows`,
which returns the `FilterRun`; its final_state is where the next pass or step
starts.  Every factorization is recomputed from the factor at each step, so
no incremental quantity ever degrades.  The kernel is the one place that
decides a step failed: it raises at the first step it cannot score, named
from the state's t.  Its outputs match those of a per-step SVD-and-update
loop on numpy scalars, which the tests keep as the reference, to rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matstat
from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

DELTA_MIN = 2.0 / 3.0
_BLOCK = 64       # steps per batched QR and SVD call in _filter_rows


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
    prior_scale = validate_prior(prior_scale, p)
    n = 1.0 / (1.0 - delta)
    m = delta / (1.0 - delta) + p - 1
    return ModelConfig(p=p, delta=delta, k=k, n=n, m=m,
                       prior_scale=prior_scale)


def validate_prior(prior_scale, p):
    """The symmetrized prior scale; raises unless it is a p x p SPD matrix."""
    prior_scale = matstat.validate_spd(prior_scale, "prior_scale")
    if prior_scale.shape[0] != p:
        raise DimensionMismatch(f"prior_scale has dimension "
                                f"{prior_scale.shape[0]}, expected {p}")
    return prior_scale


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

    Raises DimensionMismatch for a wrong shape, DomainError for a non-finite
    y, and the kernel's error, naming step state.t, if the step cannot be
    scored: NotPositiveDefinite for a singular scale, DomainError when k q
    or the new scale leaves float64 range.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cfg.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({cfg.p},)")
    require_finite(y, "observation")
    run = _filter_rows(cfg, state, y[None])
    return run.final_state, StepOutput(
        forecast_scale=prior_mean_next(cfg, state), u=run.u[0], u_star=run.u_star[0],
        predictive_logdensity=float(run.predictive_logdensity[0]), q=float(run.q[0]))


def _filter_rows(cfg, state, Y):
    """One filter pass over the rows of Y, in blocks of `_BLOCK` steps.

    Within a block that starts at row s from the factor R_{s-1} (the state's
    factor for the first block), the recursion unrolls to

        S_{s+j} = k^{-(j+1)} S_{s-1} + sum_{i<=j} k^{-(j-i)} y_{s+i} y_{s+i}',

    so R_{s+j} is the triangular factor of the (p+b) x p stack whose rows
    are k^{-(j+1)/2} R_{s-1}, then k^{-(j-i)/2} y_{s+i}' for i <= j, then
    zeros.  One batched QR gives every factor of the block, and one batched
    SVD of the pre-update factors R_{s-1}, ..., R_{s+b-2} then gives u, q
    and log|S_{t-1}|.  The next block starts from the block's last factor,
    with the rows whose diagonal entry is negative negated (R'R and the
    SVD's u, q and log|S| do not depend on the rows' signs).

    The pass raises at the first step t it cannot score, naming t (0-based):
    NotPositiveDefinite when S_{t-1} is singular (R_{t-1} has a zero
    diagonal entry or a zero singular value; the SVD may give an exactly
    singular triangle a tiny nonzero one); DomainError when S_t or k q_t
    is not finite.

    Parameters
    ----------
    cfg : the model; its k is the decay constant of S <- S/k + y y'.
    state : the step of row 0 of Y (state.t) and the scale before it.
    Y : (N, p) finite observations, one row per time step.

    Returns
    -------
    The FilterRun; its final_state is step state.t + N, with S_N's factor.
    """
    N, p = Y.shape
    scales = np.empty((N, p, p))
    u = np.empty((N, p))
    q = np.empty(N)
    logdet_pre = np.empty(N)
    R = state.scale_chol
    # a value out of float64 range is caught by the checks, not as a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.arange(min(_BLOCK, N))
        lift = cfg.k ** (-0.5 * (e + 1.0))                    # k^{-(j+1)/2}
        decay = np.tril(cfg.k ** (-0.5 * (e[:, None] - e)))   # k^{-(j-i)/2}, i <= j
        for s in range(0, N, _BLOCK):
            b = min(_BLOCK, N - s)
            y = Y[s:s + b]
            stack = np.concatenate((lift[:b, None, None] * R,
                                    decay[:b, :b, None] * y), axis=1)
            fac = np.linalg.qr(stack, mode="r")
            post = scales[s:s + b]
            np.matmul(fac.transpose(0, 2, 1), fac, out=post)
            # the SVD cannot take a non-finite factor; S_t is finite only if
            # R_t is, so the steps up to the first non-finite S_t are scored
            finite = np.isfinite(post).all(axis=(1, 2))
            m = b if finite.all() else int(np.argmin(finite)) + 1
            pre = np.concatenate((R[None], fac[:m - 1]))
            _, d, vt = np.linalg.svd(pre)
            w = (vt @ y[:m, :, None])[..., 0] / d
            qt = np.sum(w * w, axis=1)
            singular = ((np.diagonal(pre, axis1=1, axis2=2) == 0.0).any(axis=1)
                        | ~(d[:, -1] > 0.0))
            bad = singular | ~np.isfinite(cfg.k * qt) | ~finite[:m]
            if bad.any():
                first = int(np.argmax(bad))
                where = f"at step {state.t + s + first} (0-based)"
                if singular[first]:
                    raise NotPositiveDefinite(f"filter scale matrix lost "
                                              f"positive definiteness {where}")
                raise DomainError(f"the filter leaves float64 range {where}")
            q[s:s + b] = qt
            logdet_pre[s:s + b] = 2.0 * np.sum(np.log(d), axis=1)
            u[s:s + b] = np.sqrt(cfg.k) * (vt.transpose(0, 2, 1) @ w[..., None])[..., 0]
            R = np.where(np.diag(fac[-1]) < 0.0, -1.0, 1.0)[:, None] * fac[-1]
    return FilterRun(cfg=cfg, scales=scales, u=u, q=q, logdet_pre=logdet_pre,
                     final_state=FilterState(t=state.t + N, scale_chol=R))


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
        """u'u = k q per step, which the kernel keeps finite."""
        return self.cfg.k * self.q

    @property
    def logdet_post(self):
        """log|S_t| of the post-update scales, in closed form."""
        return self.logdet_pre - self.cfg.p * np.log(self.cfg.k) + np.log1p(self.u_sq)

    @property
    def predictive_logdensity(self):
        """Observation-scale forecast log-density per step."""
        cfg = self.cfg
        base = matstat.student_t_logpdf_from_sq(self.u_sq, cfg.forecast_df, cfg.p)
        return base + 0.5 * cfg.p * np.log(cfg.k) - 0.5 * self.logdet_pre


def run_filter(cfg, returns):
    """Run the filter over an (N, p) return matrix, from the prior scale.

    Raises DimensionMismatch for a wrong shape, DomainError naming the first
    non-finite row and column, and the kernel's error naming the first step
    it cannot score: NotPositiveDefinite for a singular pre-update scale,
    DomainError when k q or the scale leaves float64 range.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] != cfg.p:
        raise DimensionMismatch(
            f"returns must have shape (N, {cfg.p}), got {returns.shape}"
        )
    require_finite(returns, "returns")
    return _filter_rows(cfg, initial_state(cfg), np.ascontiguousarray(returns))
