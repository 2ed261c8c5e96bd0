"""Fast sequential estimation of multivariate stochastic volatility.

Maintains a conjugate inverted-Wishart posterior of the volatility matrix of
a stream of log-returns, produces one-step forecast distributions, and scores
competing discount factors via plug-in log-likelihood, MSSE, and sequential
Bayes factors.
"""

__version__ = "0.1.0"

# The filter kernel is plain numpy; the constant stays for readers of the
# manifest's `numba_enabled` field.
NUMBA_ENABLED = False

from . import diagnostics, errors, filtering, matstat, simulator
from .diagnostics import (GridReport, bayes_factor_series, grid_search,
                          loglik_constant, loglik_total)
from .filtering import (FilterRun, FilterState, ModelConfig, StepOutput,
                        compute_k, initial_state, new_config, posterior_mean,
                        prior_mean_next, run_filter, step)
from .simulator import (SimConfig, SimPath, rng_from_seed, sample_singular_beta,
                        simulate_path)

__all__ = [
    "NUMBA_ENABLED",
    "GridReport", "bayes_factor_series", "grid_search",
    "loglik_constant", "loglik_total",
    "FilterRun", "FilterState", "ModelConfig", "StepOutput", "compute_k",
    "initial_state", "new_config", "posterior_mean", "prior_mean_next",
    "run_filter", "step",
    "SimConfig", "SimPath", "rng_from_seed", "sample_singular_beta",
    "simulate_path",
    "diagnostics", "errors", "filtering", "matstat", "simulator",
]
