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

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matstat
from .errors import DimensionMismatch, DomainError
from .filtering import new_config, require_finite, run_filter

FLAT_EIGENVALUE_TOL = 1e-10


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


@dataclass
class LikelihoodAccumulator:
    """Running sums of the data-dependent likelihood terms."""

    constant_c: float
    terms: float = 0.0
    flat_count: int = 0

    @property
    def total(self):
        return self.constant_c + self.terms


def loglik_total(run, flat_day="floor"):
    """Plug-in log-likelihood of a filter run, via the rank-one closed form.

    For scales produced by the exact recursion the time-t eigenvalue matrix
    is rank one with eigenvalue q/(1/k + q), q = y' S_{t-1}^{-1} y, so the
    whole likelihood needs no extra factorizations.  Flat observations
    (q below tolerance) make that eigenvalue collapse to zero; `flat_day`
    selects the policy: "floor" clamps the eigenvalue at the tolerance,
    "skip" omits the eigenvalue term for that step.  Either way the affected
    steps are counted.

    Returns a LikelihoodAccumulator whose `total` is the log-likelihood.
    """
    if flat_day not in ("floor", "skip"):
        raise DomainError(f"flat_day must be 'floor' or 'skip', got {flat_day}")
    cfg = run.cfg
    p, d, k = cfg.p, cfg.delta, cfg.k
    N = run.q.shape[0]
    acc = LikelihoodAccumulator(constant_c=loglik_constant(cfg, N))
    if N == 0:
        return acc
    c_coef = cfg.posterior_mean_coef
    a = (2 * d - 1) / (2 * (1 - d))
    b = (3 * d - 2) / (2 * (1 - d))
    kq = k * run.q
    lam = kq / (1.0 + kq)                 # the single positive eigenvalue
    flat = lam < FLAT_EIGENVALUE_TOL
    acc.flat_count = int(np.sum(flat))
    log_lt = np.where(flat, np.log(FLAT_EIGENVALUE_TOL) if flat_day == "floor" else 0.0,
                      np.log(np.maximum(kq, 1e-300)) - np.log1p(kq))
    y_quad = kq / (1.0 + kq) / c_coef     # y' Sigma_t^{-1} y at the plug-in mean
    ld_prev = p * np.log(c_coef) + run.logdet_pre
    ld_curr = p * np.log(c_coef) + run.logdet_post
    terms = -0.5 * y_quad + a * ld_prev - (p / 2) * log_lt - b * ld_curr
    acc.terms = float(np.sum(terms))
    return acc


def bayes_factor_series(run, baseline_run):
    """Per-step log Bayes factors of `run` vs `baseline_run`, an (N,) array.

    Positive prefers `run`.  Uses the per-u forecast densities, i.e. the
    standardized-error scale.  For an observation-scale comparison
    take the difference of `FilterRun.predictive_logdensity` instead; that
    variant includes the standardization Jacobians.
    """
    if run.q.shape != baseline_run.q.shape:
        raise DimensionMismatch("runs cover different numbers of steps")
    lp1 = matstat.student_t_logpdf_from_sq(run.u_sq, run.cfg.forecast_df, run.cfg.p)
    lp2 = matstat.student_t_logpdf_from_sq(baseline_run.u_sq,
                                           baseline_run.cfg.forecast_df,
                                           baseline_run.cfg.p)
    return lp1 - lp2


@dataclass
class GridRow:
    """One scored discount factor."""

    delta: float
    mmsse: float = None
    msse: np.ndarray = None
    loglik: float = None
    mean_h: float = None
    h_positive_count: int = None
    flat_count: int = 0
    error: str = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class GridReport:
    """Scores for a grid of discount factors against one baseline."""

    baseline_delta: float
    rows: list = field(default_factory=list)
    h_series: dict = field(default_factory=dict)   # delta -> ndarray
    runs: dict = field(default_factory=dict, repr=False)   # delta -> FilterRun

    def to_tsv(self):
        lines = ["delta\tMMSSE\tLogL\tH"]
        for row in sorted(self.rows, key=lambda r: r.delta):
            if row.ok:
                lines.append("%.10g\t%.10g\t%.10g\t%.10g"
                             % (row.delta, row.mmsse, row.loglik, row.mean_h))
            else:
                lines.append("%.10g\tFAILED\tFAILED\tFAILED" % row.delta)
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "baseline_delta": self.baseline_delta,
            "rows": [
                {
                    "delta": r.delta,
                    "mmsse": r.mmsse,
                    "msse": None if r.msse is None else [float(x) for x in r.msse],
                    "loglik": r.loglik,
                    "mean_h": r.mean_h,
                    "h_positive_count": r.h_positive_count,
                    "flat_count": r.flat_count,
                    "error": r.error,
                }
                for r in sorted(self.rows, key=lambda r: r.delta)
            ],
        }

    def best_delta(self):
        ok = [r for r in self.rows if r.ok]
        if not ok:
            return None
        return max(ok, key=lambda r: r.loglik).delta


def grid_search(data, deltas, baseline_delta, prior_scale=None, prior_window=30,
                flat_day="floor"):
    """Score every discount factor in `deltas` on an (N, p) return matrix.

    If `prior_scale` is None, each row uses the default prior: the identity
    scaled by the mean sample variance of the first `prior_window`
    observations, normalized so the prior plug-in volatility matches that
    variance.  Failed rows are marked in the report and never abort the
    others; the baseline row's Bayes factor is exactly zero by construction.
    `report.runs` holds the FilterRun of every row that succeeded.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"data must be 2-d, got shape {data.shape}")
    require_finite(data, "data")
    deltas = sorted(set(float(d) for d in deltas))
    if not deltas:
        raise DomainError("empty discount-factor grid")
    if float(baseline_delta) not in deltas:
        raise DomainError(f"baseline {baseline_delta} not in grid {deltas}")
    report = GridReport(baseline_delta=float(baseline_delta))
    for d in deltas:
        row = GridRow(delta=d)
        try:
            s0 = prior_scale if prior_scale is not None \
                else default_prior_scale(data, d, prior_window)
            cfg = new_config(data.shape[1], d, s0)
            run = run_filter(cfg, data)
            acc = loglik_total(run, flat_day=flat_day)
            msse = np.mean(run.u_star ** 2, axis=0)
            row.msse = msse
            row.mmsse = float(np.mean(msse))
            row.loglik = acc.total
            row.flat_count = acc.flat_count
            report.runs[d] = run
        except Exception as exc:  # noqa: BLE001 - row isolation is the contract
            row.error = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)
    base_run = report.runs.get(float(baseline_delta))
    for row in report.rows:
        if not row.ok:
            continue
        if base_run is None:
            row.error = "baseline row failed; Bayes factors unavailable"
            continue
        h = bayes_factor_series(report.runs[row.delta], base_run)
        report.h_series[row.delta] = h
        row.mean_h = float(np.mean(h)) if h.size else 0.0
        row.h_positive_count = int(np.sum(h > 0))
    return report


def default_prior_scale(data, delta, prior_window):
    """Identity prior scale sized from the burn-in sample variance.

    Scaled by (n-2) so the prior plug-in volatility S0/(n-2) equals the
    burn-in variance times the identity.
    """
    if prior_window < 2:
        raise DomainError(f"prior window must be >= 2, got {prior_window}")
    window = data[: min(prior_window, data.shape[0])]
    if window.shape[0] < 2:
        raise DomainError("need at least 2 observations for the default prior")
    require_finite(window, "burn-in window")
    v = float(np.mean(np.var(window, axis=0, ddof=1)))
    if not np.isfinite(v) or v <= 0.0:
        warnings.warn("burn-in window has no variance; using unit prior scale")
        v = 1.0
    n = 1.0 / (1.0 - delta)
    return (n - 2.0) * v * np.eye(data.shape[1])
