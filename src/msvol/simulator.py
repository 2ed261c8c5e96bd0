"""Ground-truth path generation from the exact model.

A path draws the initial precision from its Wishart prior and evolves it
multiplicatively: at each step the upper Cholesky factor of the precision is
sandwiched around a singular matrix-beta draw and rescaled by the decay
constant, then a return is emitted as a Gaussian with the current volatility.

The path generator keeps the precision as a triangular factor throughout.
The beta construction maps triangular factors to triangular factors, so a
whole path needs no refactorization and stays accurate even though the
precision's condition number random-walks upward without bound (it routinely
passes 1e15 within a few thousand steps, where a matrix-space evolution
would collapse).

Randomness comes from numpy's Philox counter-based generator, so paths are
reproducible across platforms for a given seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import matstat
from .errors import DomainError, NotPositiveDefinite
from .filtering import new_config


@dataclass(frozen=True)
class SimConfig:
    """Path-generation settings; constraints match the filter's config."""

    p: int
    delta: float
    N: int
    prior_scale: np.ndarray
    seed: int


@dataclass(frozen=True)
class SimPath:
    """A simulated trajectory: true volatilities and the drawn returns."""

    sigmas: np.ndarray    # (N, p, p) true volatility matrices
    returns: np.ndarray   # (N, p)

    def to_csv(self, path, labels=None):
        """Write the returns in the CSV layout the CLI ingests (returns mode).

        Full float precision, so a round trip through `load_csv` is exact.
        """
        p = self.returns.shape[1]
        if labels is None:
            labels = [f"y{i + 1}" for i in range(p)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(labels) + "\n")
            for row in self.returns:
                fh.write(",".join("%.17g" % x for x in row) + "\n")


def rng_from_seed(seed):
    """The package-wide portable generator: Philox, explicitly seeded."""
    return np.random.Generator(np.random.Philox(int(seed)))


def sample_singular_beta(m, p, rng, size=None):
    """Draw from the singular matrix-beta family B_p(m/2, 1/2).

    Constructive sampler: A ~ Wishart(m, I), x ~ N(0, I), U the upper
    Cholesky factor of A + xx'; the draw is (U')^{-1} A U^{-1}.  The result
    is symmetric with eigenvalues in [0, 1] and I - B of rank one almost
    surely.  At p = 1 it reduces to a scalar Beta(m/2, 1/2).
    """
    if m <= p - 1:
        raise DomainError(f"beta parameter m must exceed p-1={p - 1}, got {m}")
    if size is None:
        t = matstat.bartlett_lower(m, p, rng)
        a = t @ t.T
        x = rng.standard_normal(p)
        low = np.linalg.cholesky(a + np.outer(x, x))    # U' with U upper
        w = solve_triangular(low, a, lower=True)
        b = solve_triangular(low, w.T, lower=True)
        return 0.5 * (b + b.T)
    t = matstat._bartlett_lower_batch(m, p, rng, size)
    a = t @ np.transpose(t, (0, 2, 1))
    x = rng.standard_normal((size, p))
    low = np.linalg.cholesky(a + x[:, :, None] * x[:, None, :])
    w = np.linalg.solve(low, a)
    b = np.linalg.solve(low, np.transpose(w, (0, 2, 1)))
    return 0.5 * (b + np.transpose(b, (0, 2, 1)))


def simulate_path(cfg):
    """Generate a SimPath from a SimConfig; deterministic for a fixed seed."""
    model = new_config(cfg.p, cfg.delta, cfg.prior_scale)   # validates inputs
    if cfg.N < 0:
        raise DomainError(f"path length must be >= 0, got {cfg.N}")
    p, k, n, m = cfg.p, model.k, model.n, model.m
    rng = rng_from_seed(cfg.seed)
    sigmas = np.empty((cfg.N, p, p))
    returns = np.empty((cfg.N, p))
    if cfg.N == 0:
        return SimPath(sigmas=sigmas, returns=returns)
    # precision_0 ~ Wishart(n+p-1, prior_scale^{-1}), drawn exactly as
    # matstat.wishart_sample would, but kept in factor form from the start
    prior_prec = np.linalg.inv(model.prior_scale)
    low0 = np.linalg.cholesky(0.5 * (prior_prec + prior_prec.T))
    w = (low0 @ matstat.bartlett_lower(n + p - 1, p, rng)).T   # upper, W'W = prec
    sqrt_k = np.sqrt(k)
    for t in range(cfg.N):
        # same draw sequence as sample_singular_beta(m, p, rng)
        tfac = matstat.bartlett_lower(m, p, rng)
        x = rng.standard_normal(p)
        low_c = np.linalg.cholesky(tfac @ tfac.T + np.outer(x, x))
        # evolved precision k W' B W = M M' with M = sqrt(k) W' low_c^{-1} tfac
        w = sqrt_k * (w.T @ solve_triangular(low_c, tfac, lower=True)).T
        # symmetric square root of the volatility from the SVD of the factor
        _, sv, vt = np.linalg.svd(w)
        if sv[-1] <= 0.0:
            raise NotPositiveDefinite("precision factor degenerated")
        sigmas[t] = (vt.T / (sv * sv)) @ vt
        eps = rng.standard_normal(p)
        returns[t] = vt.T @ ((vt @ eps) / sv)
    return SimPath(sigmas=sigmas, returns=returns)

