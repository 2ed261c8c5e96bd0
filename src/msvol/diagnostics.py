"""Model assessment: plug-in log-likelihood, MSSE, sequential Bayes factors.

Three measures score a discount factor against data:

* the joint log-likelihood of the volatility path, evaluated at the plug-in
  posterior means (closed form; its time-t eigenvalue term collapses to a
  rank-one expression, see `loglik_total`),
* the mean of squared standardized one-step forecast errors (MSSE), ideally
  the all-ones vector,
* per-step log Bayes factors between two discount factors, computed on the
  standardized-error scale.

`grid_search` runs one filter per candidate discount factor and assembles a
report with one row per candidate, compared against a baseline.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import matstat
from .errors import DimensionMismatch, DomainError
from .filtering import compute_k, new_config, require_finite, run_filter, validate_prior

FLAT_EIGENVALUE_TOL = 1e-10
FLAT_DAY_POLICIES = ("floor", "skip")   # see loglik_total


def check_flat_day(flat_day):
    """Raise DomainError unless `flat_day` is one of FLAT_DAY_POLICIES."""
    if flat_day not in FLAT_DAY_POLICIES:
        raise DomainError(f"flat_day must be in {FLAT_DAY_POLICIES}, got {flat_day!r}")


def check_grid(deltas, baseline):
    """The sorted distinct grid; raises DomainError unless it is non-empty,
    in (2/3, 1) and holds the baseline."""
    deltas = sorted(set(float(d) for d in deltas))
    if not deltas:
        raise DomainError("empty discount-factor grid")
    for d in deltas:
        compute_k(d, 1)   # raises for a delta outside (2/3, 1)
    if float(baseline) not in deltas:
        raise DomainError(f"baseline {baseline} not in grid {deltas}")
    return deltas


def check_default_prior(prior_window, n_rows=2):
    """Raise DomainError unless the default prior's burn-in has 2 rows or more.

    It needs `prior_window` >= 2 and data of `n_rows` >= 2 rows; the default
    `n_rows` checks the window alone, before the data is read.
    """
    if prior_window < 2:
        raise DomainError(f"prior window must be >= 2, got {prior_window}")
    if n_rows < 2:
        raise DomainError("need at least 2 observations for the default prior")


def loglik_constant(cfg, N):
    """Data-independent part of the plug-in log-likelihood for N steps."""
    p, d = cfg.p, cfg.delta
    if N == 0:
        return 0.0
    lg_num = matstat.log_multigamma(p, (d * (1 - p) + p) / (2 * (1 - d)))
    lg_den = matstat.log_multigamma(p, (d * (2 - p) + p - 1) / (2 * (1 - d)))
    return float(
        -(N * p / 2) * np.log(np.pi)
        - (N / 2) * np.log(2 * np.pi)
        - (N * p * (2 * d - 1) / (2 * (1 - d))) * np.log(cfg.k)
        + N * (lg_num - lg_den)
    )


class Loglik(NamedTuple):
    """A run's plug-in log-likelihood and its count of flat steps."""

    total: float
    flat_count: int


def loglik_total(run, flat_day="floor"):
    """Plug-in log-likelihood of a filter run, via the rank-one closed form.

    For scales produced by the exact recursion the time-t eigenvalue matrix
    is rank one with eigenvalue q/(1/k + q), q = y' S_{t-1}^{-1} y, so the
    whole likelihood needs no extra factorizations.  Flat observations
    (q below tolerance) make that eigenvalue collapse to zero; `flat_day`
    selects the policy: "floor" clamps the eigenvalue at the tolerance,
    "skip" omits the eigenvalue term for that step.  Either way the affected
    steps are counted.

    Returns a Loglik whose `total` is the log-likelihood.
    """
    check_flat_day(flat_day)
    cfg = run.cfg
    p, d = cfg.p, cfg.delta
    c_coef = cfg.posterior_mean_coef
    a = (2 * d - 1) / (2 * (1 - d))
    b = (3 * d - 2) / (2 * (1 - d))
    kq = run.u_sq
    lam = kq / (1.0 + kq)                 # the single positive eigenvalue
    flat = lam < FLAT_EIGENVALUE_TOL
    log_lt = np.where(flat, np.log(FLAT_EIGENVALUE_TOL) if flat_day == "floor" else 0.0,
                      np.log(np.maximum(kq, 1e-300)) - np.log1p(kq))
    y_quad = kq / (1.0 + kq) / c_coef     # y' Sigma_t^{-1} y at the plug-in mean
    ld_prev = p * np.log(c_coef) + run.logdet_pre
    ld_curr = p * np.log(c_coef) + run.logdet_post
    terms = -0.5 * y_quad + a * ld_prev - (p / 2) * log_lt - b * ld_curr
    return Loglik(loglik_constant(cfg, run.q.shape[0]) + float(np.sum(terms)),
                  int(np.sum(flat)))


def bayes_factor_series(run, baseline_run):
    """Per-step log Bayes factors of `run` vs `baseline_run`, an (N,) array.

    Positive prefers `run`.  Uses the per-u forecast densities, i.e. the
    standardized-error scale.  For an observation-scale comparison
    take the difference of `FilterRun.predictive_logdensity` instead; that
    variant includes the standardization Jacobians.
    """
    if run.q.shape != baseline_run.q.shape:
        raise DimensionMismatch("runs cover different numbers of steps")
    lp1, lp2 = (matstat.student_t_logpdf_from_sq(r.u_sq, r.cfg.forecast_df, r.cfg.p)
                for r in (run, baseline_run))
    return lp1 - lp2


@dataclass
class GridRow:
    """One scored discount factor."""

    delta: float
    mmsse: float = None   # mean of u_star**2: mean(q) / (p forecast_scale_coef)
    msse: np.ndarray = None   # per series; held by the report's best row only
    loglik: float = None
    mean_h: float = None
    h_positive_count: int = None
    flat_count: int = None
    error: str = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class GridReport:
    """Scores for a grid of discount factors against one baseline.

    `rows` is in ascending delta order; `h_series` and `runs` hold only the
    rows that succeeded.
    """

    baseline_delta: float
    rows: list = field(default_factory=list)
    h_series: dict = field(default_factory=dict)   # delta -> ndarray
    runs: dict = field(default_factory=dict, repr=False)   # delta -> FilterRun

    def to_tsv(self):
        lines = ["delta\tMMSSE\tLogL\tH"]
        for row in self.rows:
            if row.ok:
                lines.append("%.10g\t%.10g\t%.10g\t%.10g"
                             % (row.delta, row.mmsse, row.loglik, row.mean_h))
            else:
                lines.append("%.10g\tFAILED\tFAILED\tFAILED" % row.delta)
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "baseline_delta": self.baseline_delta,
            "rows": [dict(asdict(r), msse=None if r.msse is None else r.msse.tolist())
                     for r in self.rows],
        }

    def best_delta(self):
        ok = [r for r in self.rows if r.ok]
        return max(ok, key=lambda r: r.loglik).delta if ok else None


def grid_search(data, deltas, baseline_delta, prior_scale=None, prior_window=30,
                flat_day="floor"):
    """Score every discount factor in `deltas` on an (N, p) return matrix.

    If `prior_scale` is None, each row uses the default prior: the identity
    scaled by the mean sample variance of the first `prior_window`
    observations, normalized so the prior plug-in volatility matches that
    variance.  Empty data, a bad grid, `flat_day`, `prior_window` or
    `prior_scale`, or too few rows for the default prior raise at once; a
    failed row never aborts the others.  The baseline is scored first (its
    Bayes factor is exactly 0); if it fails, every row fails.  MMSSE comes
    from q; only the `best_delta` row reads `u_star`, for `msse`.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"data must be 2-d, got shape {data.shape}")
    if 0 in data.shape:
        raise DomainError(f"data has no rows or no columns: shape {data.shape}")
    require_finite(data, "data")
    deltas, base = check_grid(deltas, baseline_delta), float(baseline_delta)
    check_flat_day(flat_day)
    if prior_scale is None:
        check_default_prior(prior_window, data.shape[0])
    else:
        validate_prior(prior_scale, data.shape[1])
    report = GridReport(baseline_delta=base)
    rows = {}
    for d in sorted(deltas, key=lambda d: d != base):   # the baseline first
        try:
            s0 = prior_scale if prior_scale is not None \
                else default_prior_scale(data, d, prior_window)
            run = run_filter(new_config(data.shape[1], d, s0), data)
            loglik = loglik_total(run, flat_day=flat_day)
        except Exception as exc:  # noqa: BLE001 - row isolation is the contract
            rows[d] = GridRow(d, error=f"{type(exc).__name__}: {exc}")
            continue
        base_run = run if d == base else report.runs.get(base)
        if base_run is None:
            rows[d] = GridRow(d, error="baseline row failed; Bayes factors unavailable")
            continue
        h = bayes_factor_series(run, base_run)
        mmsse = float(np.mean(run.q)) / (run.cfg.forecast_scale_coef * data.shape[1])
        rows[d] = GridRow(d, mmsse=mmsse, loglik=loglik.total, mean_h=float(np.mean(h)),
                          h_positive_count=int(np.sum(h > 0)), flat_count=loglik.flat_count)
        report.runs[d] = run
        report.h_series[d] = h
    report.rows = [rows[d] for d in deltas]
    best = report.best_delta()
    if best is not None:
        rows[best].msse = np.mean(report.runs[best].u_star ** 2, axis=0)
    return report


def default_prior_scale(data, delta, prior_window):
    """Identity prior scale sized from the burn-in sample variance.

    Scaled by (n-2) so the prior plug-in volatility S0/(n-2) equals the
    burn-in variance times the identity.  A variance, or a scale, that
    overflows float64 raises DomainError.
    """
    if data.ndim != 2 or data.shape[1] == 0:
        raise DomainError(f"data has no columns: shape {data.shape}")
    check_default_prior(prior_window, data.shape[0])
    window = data[: min(prior_window, data.shape[0])]
    require_finite(window, "burn-in window")
    with np.errstate(over="ignore"):
        v = float(np.mean(np.var(window, axis=0, ddof=1)))
    n = 1.0 / (1.0 - delta)
    if not math.isfinite((n - 2.0) * v):
        raise DomainError("the burn-in variance overflows float64; "
                          "scale the returns down")
    if v <= 0.0:
        warnings.warn("burn-in window has no variance; using unit prior scale")
        v = 1.0
    return (n - 2.0) * v * np.eye(data.shape[1])
