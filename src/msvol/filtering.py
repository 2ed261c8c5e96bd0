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
starts.  The run holds the factor path packed, p(p+1)/2 numbers a step, and
unpacks it a block at a time for each reader.  The kernel is the one place
that decides a step failed, and there alone it may take an SVD; `FilterRun`
takes one only when u is read.  Its outputs match those of a per-step
SVD-and-update loop on numpy scalars, which the tests keep as the reference,
to rounding.
"""

import ctypes
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import matstat
from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

DELTA_MIN = 2.0 / 3.0
_BLOCK = 32       # steps per batched QR in _filter_rows, SVD in FilterRun
_MMAP_THRESHOLD = 1 << 20   # bytes; see _fix_mmap_threshold


def _fix_mmap_threshold():
    """Fix glibc malloc's mmap threshold at 1 MiB, unless the environment
    already sets it (MALLOC_MMAP_THRESHOLD_).

    glibc starts the threshold at 128 KiB and raises it to the size of each
    mapped block that is freed.  Once a reader frees an (N, p, p) `scales`,
    every smaller array goes to the heap, and the holes that runs of a
    different size leave there stay resident: at p=8, N=20000 a loop of
    passes, each followed by a `scales` read, grew from 41 to 59 MB over
    three passes.  With the threshold fixed, each array of 1 MiB or more has
    its own mapping and returns its pages when it is freed, and the loop
    holds at 50 MB.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if hasattr(libc, "gnu_get_libc_version"):   # glibc, not musl
        libc.mallopt(-3, _MMAP_THRESHOLD)       # -3 is M_MMAP_THRESHOLD


_fix_mmap_threshold()


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

    Raises as `run_filter` does, naming step state.t if it cannot be scored.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cfg.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({cfg.p},)")
    require_finite(y, "observation")
    run = _filter_rows(cfg, state, y[None])
    root = run._root()[0]   # one SVD for u and u_star
    return run.final_state, StepOutput(
        forecast_scale=prior_mean_next(cfg, state), u=np.sqrt(cfg.k) * root,
        u_star=cfg.forecast_scale_coef ** -0.5 * root,
        predictive_logdensity=float(run.predictive_logdensity[0]), q=float(run.q[0]))


def _filter_rows(cfg, state, Y):
    """One filter pass over the finite (N, p) rows of Y from `state`, the step of
    row 0 and the scale before it; returns the FilterRun, ending at state.t + N.

    Within a block that starts at row s from the factor R_{s-1} (the state's
    factor for the first block), the recursion unrolls to

        S_{s+j} = k^{-(j+1)} S_{s-1} + sum_{i<=j} k^{-(j-i)} y_{s+i} y_{s+i}',

    so R_{s+j} is the triangular factor of the (p+b) x p stack whose rows
    are k^{-(j+1)/2} R_{s-1}, then k^{-(j-i)/2} y_{s+i}' for i <= j, then
    zeros.  One batched QR gives every factor of the block, and the path
    keeps them packed (see `pack_upper`); the next block starts from the
    last, with the rows whose diagonal entry is negative negated.  Then one
    p-step forward substitution over the path solves R_{t-1}' w_t = y_t:
    q_t = |w_t|^2, and log|S_{t-1}| = 2 sum log|r_ii|.

    The pass raises at the first step t it cannot score, naming t (0-based):
    NotPositiveDefinite when S_{t-1} is singular (R_{t-1} has a zero
    diagonal entry, or, found by a values-only SVD on this failure path
    only, a singular value that underflows to zero); DomainError when S_t
    or k q_t is not finite.
    """
    N, p = Y.shape
    _, _, starts, diagonal = _packed_index(p)
    path = np.empty((N + 1, p * (p + 1) // 2))   # R_{t-1} at row t, packed
    last = state.scale_chol
    path[0] = pack_upper(last)
    overflow = np.zeros(N, dtype=bool)    # S_t not finite, at row t
    # a value out of float64 range is caught by the checks, not as a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.arange(min(_BLOCK, N))
        lift = cfg.k ** (-0.5 * (e + 1.0))                    # k^{-(j+1)/2}
        decay = np.tril(cfg.k ** (-0.5 * (e[:, None] - e)))   # k^{-(j-i)/2}, i <= j
        for s in range(0, N, _BLOCK):
            b = min(_BLOCK, N - s)
            fac = np.linalg.qr(np.concatenate((lift[:b, None, None] * last,
                                               decay[:b, :b, None] * Y[s:s + b]), axis=1),
                               mode="r")
            last = fac[-1] * np.where(np.diag(fac[-1]) < 0.0, -1.0, 1.0)[:, None]
            fac[-1] = last
            path[s + 1:s + b + 1] = pack_upper(fac)
            # S_t's diagonal holds R_t's squared column norms and bounds the rest
            overflow[s:s + b] = ~np.isfinite(np.einsum("tij,tij->tj", fac, fac)).all(axis=1)
            if overflow[s:s + b].any():   # the pass fails here at the latest,
                Y = Y[:s + b]             # so no later step is scored
                break
        pre = path[:len(Y)]
        w = np.empty_like(Y)
        # R_{t-1}' w_t = y_t, by forward substitution: the products of column i
        # go down the rows of `prod`, so that summing them is a sequential
        # multiply-add, as over a column of the full stack
        prod = np.empty((p - 1, len(Y)))
        for i, lo in enumerate(starts):
            np.multiply(pre[:, lo:lo + i].T, w[:, :i].T, out=prod[:i])
            w[:, i] = (Y[:, i] - np.add.reduce(prod[:i], axis=0, initial=0.0)) / pre[:, lo + i]
        del prod
        q = np.einsum("tj,tj->t", w, w)
        pivots = np.take(pre, diagonal, axis=1)   # C order, as sum(axis=1) reads it
        np.abs(pivots, out=pivots)
        bad = ~np.isfinite(cfg.k * q) | (pivots == 0.0).any(axis=1) | overflow[:len(Y)]
        if bad.any():
            t = int(np.argmax(bad))
            where = f"at step {state.t + t} (0-based)"
            if (pivots[t] == 0.0).any() or \
                    not np.linalg.svd(unpack_upper(pre[t], p), compute_uv=False)[-1] > 0.0:
                raise NotPositiveDefinite(f"filter scale matrix lost "
                                          f"positive definiteness {where}")
            raise DomainError(f"the filter leaves float64 range {where}")
        logdet = 2.0 * np.log(pivots, out=pivots).sum(axis=1)
    return FilterRun(cfg=cfg, factors_packed=path, w=w, q=q, logdet_pre=logdet,
                     final_state=FilterState(t=state.t + N, scale_chol=np.array(last)))


@functools.lru_cache(maxsize=None)
def _packed_index(p):
    """Rows and columns of R's upper triangle in LAPACK's upper packed order
    (column j holds R[0..j, j]), where each column starts, and where its
    diagonal entry is."""
    cols, rows = np.tril_indices(p)
    j = np.arange(p)
    starts = j * (j + 1) // 2
    return rows, cols, starts, starts + j


def pack_upper(r):
    """The (..., p(p+1)/2) upper packed form of a (..., p, p) stack of upper
    triangular matrices: column j of each matrix is entries j(j+1)/2 to
    j(j+1)/2 + j, R[0, j] first.  Entries below the diagonal are dropped."""
    r = np.asarray(r, dtype=float)
    rows, cols, _, _ = _packed_index(r.shape[-1])
    return r[..., rows, cols]


def unpack_upper(packed, p):
    """The (..., p, p) upper triangular stack that `pack_upper` packed."""
    packed = np.asarray(packed, dtype=float)
    rows, cols, _, _ = _packed_index(p)
    out = np.zeros(packed.shape[:-1] + (p, p))
    out[..., rows, cols] = packed
    return out


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
    """A filter pass; `factors`, `scales`, `u` and `u_star` are computed from
    the packed factor path on each read."""

    cfg: ModelConfig
    factors_packed: np.ndarray   # (N+1, p(p+1)/2) R_{-1}, ..., R_{N-1}, see pack_upper
    w: np.ndarray                # (N, p), R_{t-1}' w_t = y_t
    q: np.ndarray                # (N,) |w_t|^2 = y_t' S_{t-1}^{-1} y_t
    logdet_pre: np.ndarray       # (N,) log|S_{t-1}|
    final_state: FilterState = field(repr=False, default=None)

    def factor_rows(self, lo, hi):
        """(hi-lo, p, p) upper factors R_{lo-1}, ..., R_{hi-2}, unpacked."""
        return unpack_upper(self.factors_packed[lo:hi], self.cfg.p)

    @property
    def factors(self):
        """(N+1, p, p) upper factors R_{-1}, ..., R_{N-1}."""
        return self.factor_rows(0, len(self.factors_packed))

    @property
    def scales(self):
        """(N, p, p) post-update scale matrices S_t = R_t'R_t."""
        p = self.cfg.p
        out = np.empty((len(self.q), p, p))
        for lo in range(0, len(out), _BLOCK):
            post = self.factor_rows(lo + 1, lo + _BLOCK + 1)
            np.matmul(post.transpose(0, 2, 1), post, out=out[lo:lo + _BLOCK])
        return out

    def _root(self):
        """(N, p) S_{t-1}^{-1/2} y_t = V U' w_t, R_{t-1} = U D V'."""
        out = np.empty_like(self.w)
        for lo in range(0, len(out), _BLOCK):
            uu, _, vt = np.linalg.svd(self.factor_rows(lo, min(lo + _BLOCK, len(out))))
            x = uu.transpose(0, 2, 1) @ self.w[lo:lo + _BLOCK, :, None]
            out[lo:lo + _BLOCK] = (vt.transpose(0, 2, 1) @ x)[..., 0]
        return out

    @property
    def u(self):
        root = self._root()
        root *= np.sqrt(self.cfg.k)   # see StepOutput
        return root

    @property
    def u_star(self):
        root = self._root()
        root *= self.cfg.forecast_scale_coef ** -0.5
        return root

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
    non-finite row and column, and the kernel's error (see `_filter_rows`)
    naming the first step it cannot score.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] != cfg.p:
        raise DimensionMismatch(f"returns must have shape (N, {cfg.p}), got {returns.shape}")
    require_finite(returns, "returns")
    return _filter_rows(cfg, initial_state(cfg), np.ascontiguousarray(returns))
