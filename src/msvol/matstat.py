"""Dense symmetric-matrix kernels and distribution primitives.

Everything here operates on plain float64 ndarrays and is pure: no shared
state, safe to call from multiple threads.
"""

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

SYM_ATOL = 1e-10


def validate_spd(a, name="matrix"):
    """Check that `a` is a square, symmetric, positive definite float array.

    Returns the symmetrized array. Positive definiteness is established by
    attempting a Cholesky factorization.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"{name} must be square and non-empty: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite(f"{name} contains non-finite entries")
    # half the difference against half the tolerance: the same test, and
    # halving first cannot overflow
    if np.max(np.abs(0.5 * a - 0.5 * a.T)) > 0.5 * SYM_ATOL * max(1.0, np.max(np.abs(a))):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    a = 0.5 * a + 0.5 * a.T        # halving first cannot overflow
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite") from None
    return a


def chol_upper(a):
    """Upper-triangular U with positive diagonal such that U'U = a."""
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(0.5 * a + 0.5 * a.T).T.copy()
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky pivot <= 0") from None


def log_multigamma(p, a):
    """Logarithm of the multivariate gamma function of dimension p at a.

    log Gamma_p(a) = p(p-1)/4 * log(pi) + sum_{j=1..p} log Gamma(a-(j-1)/2),
    defined for a > (p-1)/2.
    """
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    if a <= (p - 1) / 2:
        raise DomainError(f"multigamma argument {a} <= (p-1)/2 = {(p - 1) / 2}")
    return p * (p - 1) / 4 * math.log(math.pi) + sum(math.lgamma(a - j / 2)
                                                     for j in range(p))


def student_t_logpdf_from_sq(uu, n, p):
    """Log-density of the standardized multivariate Student-t, from u'u.

    Uses the convention in which the degrees of freedom n enter only through
    the exponent:

        log Gamma((n+p)/2) - log Gamma(n/2) - (p/2) log(pi)
            - ((n+p)/2) log(1 + u'u)

    so the identity scale matrix carries no df normalizer inside the
    quadratic form.  (A df-normalized variant would divide u'u by n; it is
    deliberately not used here.)  `uu` may be an array of u'u values; the
    result has its shape.
    """
    if n <= 0:
        raise DomainError(f"degrees of freedom must be positive, got {n}")
    return (math.lgamma((n + p) / 2)
            - math.lgamma(n / 2)
            - (p / 2) * math.log(math.pi)
            - ((n + p) / 2) * np.log1p(uu))


def bartlett_lower(df, p, rng, size):
    """A (size, p, p) stack of lower-triangular Bartlett factors T.

    Each T T' ~ Wishart(df, I_p).  The chi-squares of the diagonal come
    first, all `size` draws of T[0, 0], then of T[1, 1], and so on; then
    the strictly lower normals, factor by factor, row by row.  With `size`
    = 1 these are the draws of one factor built entry by entry in that
    order, which the simulator's paths depend on.
    """
    chi2 = rng.chisquare(df - np.arange(p)[:, None], (p, size)).T
    return bartlett_from_draws(chi2, rng.standard_normal((size, p * (p - 1) // 2)))


def bartlett_from_draws(chi2, normals):
    """Assemble (size, p, p) Bartlett factors from their draws.

    `chi2` is (size, p), the chi-squares of each factor's diagonal;
    `normals` is (size, p(p-1)/2), its strictly lower entries row by row.
    """
    size, p = chi2.shape
    t = np.zeros((size, p, p))
    i = np.arange(p)
    t[:, i, i] = np.sqrt(chi2)
    t[:, np.tri(p, k=-1, dtype=bool)] = normals
    return t
