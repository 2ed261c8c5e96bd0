"""Ground-truth path generation from the exact model.

A path draws the initial precision from its Wishart prior and evolves it
multiplicatively: at each step the upper Cholesky factor of the precision is
sandwiched around a singular matrix-beta draw and rescaled by the decay
constant, then a return is emitted as a Gaussian with the current volatility.

The path generator keeps the precision as a factor W (W'W = precision)
throughout. The beta construction maps one factor to the next, so a whole
path needs no refactorization and stays accurate even though the
precision's condition number random-walks upward without bound (it routinely
passes 1e15 within a few thousand steps, where a matrix-space evolution
would collapse).  Only two things must go step by step: the random draws,
because the generator is sequential, and the factor recursion, because each
factor needs the last.  Everything else, the beta roots' QR included, runs
in block-batched numpy calls (numpy alone: no scipy); `simulate_path` says
how, and why the bits match a per-step loop.

Randomness comes from numpy's Philox counter-based generator, so paths are
reproducible across platforms for a given seed.
"""

from dataclasses import dataclass

import numpy as np

from . import matstat
from .errors import DomainError, NotPositiveDefinite
from .filtering import new_config

_BLOCK = 64          # steps per block in simulate_path; 256 is no faster, +1 MB at p=8
_CSV_BLOCK = 1024    # rows per write in SimPath.to_csv


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
        row = ",".join(["%.17g"] * p) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(labels) + "\n")
            for start in range(0, len(self.returns), _CSV_BLOCK):
                block = self.returns[start:start + _CSV_BLOCK].tolist()
                fh.write("".join([row % tuple(r) for r in block]))


def rng_from_seed(seed):
    """The package-wide portable generator: Philox, explicitly seeded."""
    return np.random.Generator(np.random.Philox(int(seed)))


def _beta_roots(t, x):
    """F = L^{-1} T per draw, where L L' = T T' + x x': F F' is a singular
    matrix-beta draw, for a (b, p, p) stack `t` of Bartlett factors and a
    (b, p) stack `x` of normals.  The (p+1) x p stack M = [T'; x'] has
    M'M = T T' + x x'; with M = Q R and D = sign(diag R), L = R'D and
    T = R' Q[:p]', so F = L^{-1} T = D Q[:p]' = (Q[:p] D)'.  No triangular
    solve, and T T' + x x', which would square the condition number of
    [T x], is never formed.  Each draw is factored alone, so F has the same
    bits in a stack as alone.
    """
    q, r = np.linalg.qr(np.concatenate((t.transpose(0, 2, 1), x[:, None, :]), axis=1))
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    if not sign.all():
        raise NotPositiveDefinite("beta draw's Cholesky factor is singular")
    return (q[:, :-1] * sign[:, None, :]).transpose(0, 2, 1)


def sample_singular_beta(m, p, rng, size=None):
    """Draw from the singular matrix-beta family B_p(m/2, 1/2).

    Constructive sampler: A = T T' ~ Wishart(m, I), x ~ N(0, I), L the lower
    Cholesky factor of A + xx'; the draw is L^{-1} A L^{-T} = F F', with F
    from `_beta_roots` as in `simulate_path`.  The result is symmetric with
    eigenvalues in [0, 1] and I - B of rank one almost surely.  At p = 1 it
    reduces to a scalar Beta(m/2, 1/2).  `size=None` returns one (p, p)
    draw, the first of a batch of one; an integer a (size, p, p) stack.
    """
    if m <= p - 1:
        raise DomainError(f"beta parameter m must exceed p-1={p - 1}, got {m}")
    batch = 1 if size is None else size
    t = matstat.bartlett_lower(m, p, rng, batch)
    f = _beta_roots(t, rng.standard_normal((batch, p)))
    b = f @ f.transpose(0, 2, 1)
    return b[0] if size is None else b


def simulate_path(cfg):
    """Generate a SimPath from a SimConfig; deterministic for a fixed seed.

    The path is made in blocks of `_BLOCK` steps, in four stages per block:

    1. the random draws, one step after another in the per-step order
       (the Bartlett chi-squares, then one normal call holding the Bartlett
       normals, the beta's x and the return's eps), because the generator
       is sequential;
    2. the block's Bartlett factors T_t in one batched call, and from them
       the beta roots F_t = L_t^{-1} T_t of `_beta_roots`, by one QR;
    3. the factor recursion W_t = sqrt(k) (W_{t-1}' F_t)', the one truly
       sequential stage, step by step;
    4. one batched SVD of the block's factors, which gives the volatilities
       and the returns with the same products as a per-step SVD.

    Every stage computes what a per-step loop computes, in the same order,
    so the path is the same to the bit; the blocks only cut the per-call
    overhead, and keep the temporaries small.

    Raises DomainError naming the first step whose volatility leaves
    float64 range (an eigenvalue overflows, or its reciprocal does): the
    precision is a multiplicative random walk, so a long enough path
    always gets there.
    """
    model = new_config(cfg.p, cfg.delta, cfg.prior_scale)   # validates inputs
    if cfg.N < 0:
        raise DomainError(f"path length must be >= 0, got {cfg.N}")
    if cfg.seed < 0:
        raise DomainError(f"seed must be >= 0, got {cfg.seed}")
    p, k, n, m = cfg.p, model.k, model.n, model.m
    rng = rng_from_seed(cfg.seed)
    sigmas = np.empty((cfg.N, p, p))
    returns = np.empty((cfg.N, p))
    if cfg.N == 0:
        return SimPath(sigmas=sigmas, returns=returns)
    # precision_0 ~ Wishart(n+p-1, prior_scale^{-1}) by the Bartlett
    # construction, kept in factor form from the start: upper W, W'W = prec
    low0 = matstat.chol_upper(np.linalg.inv(model.prior_scale)).T
    w = (low0 @ matstat.bartlett_lower(n + p - 1, p, rng, 1)[0]).T
    sqrt_k = np.sqrt(k)
    dfs = m - np.arange(p)
    n_low = p * (p - 1) // 2
    chi2 = np.empty((_BLOCK, p))
    z = np.empty((_BLOCK, n_low + 2 * p))   # Bartlett normals, x, eps
    for start in range(0, cfg.N, _BLOCK):
        stop = min(start + _BLOCK, cfg.N)
        b = stop - start
        # same draw sequence as sample_singular_beta(m, p, rng), then eps
        for j in range(b):
            chi2[j] = rng.chisquare(dfs)
            z[j] = rng.standard_normal(n_low + 2 * p)
        roots = _beta_roots(matstat.bartlett_from_draws(chi2[:b], z[:b, :n_low]),
                            z[:b, n_low:n_low + p])
        # evolved precision k W' B W = M M' with M = sqrt(k) W' F;
        # the block's factors wait in `sigmas` for stage 4
        for j in range(b):
            w = sqrt_k * (w.T @ roots[j]).T
            sigmas[start + j] = w
        # symmetric square root of the volatility from the SVD of the factor
        _, sv, vt = np.linalg.svd(sigmas[start:stop])
        with np.errstate(over="ignore", divide="ignore"):
            sv2 = sv * sv
            out_of_range = ~(np.isfinite(sv2[:, 0]) & np.isfinite(1.0 / sv2[:, -1]))
        if out_of_range.any():
            first = int(np.argmax(out_of_range))
            if sv[first, -1] <= 0.0:
                raise NotPositiveDefinite("precision factor degenerated")
            raise DomainError(f"the volatility leaves float64 range at step "
                              f"{start + first} (0-based)")
        vts = vt.transpose(0, 2, 1)
        sigmas[start:stop] = (vts / sv2[:, None, :]) @ vt
        eps = z[:b, n_low + p:, None]
        returns[start:stop] = (vts @ ((vt @ eps)[..., 0] / sv)[..., None])[..., 0]
    return SimPath(sigmas=sigmas, returns=returns)
