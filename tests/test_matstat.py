import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from msvol import matstat
from msvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from oracles import (bartlett_lower, log_det, positive_eigenvalues, student_t_logpdf,
                     sym_inv_sqrt, wishart_sample)


def random_spd(p, rng, jitter=1.0):
    m = rng.standard_normal((p, p))
    return m.T @ m + jitter * np.eye(p)


class TestValidateSpd:
    def test_empty_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="non-empty"):
                matstat.validate_spd(np.eye(0))

    def test_huge_antisymmetric_entries_not_symmetric(self):
        # a - a.T would overflow to inf here; the test must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="not symmetric"):
                matstat.validate_spd([[1.0, 1e308], [-1e308, 1.0]])

    def test_tolerance_boundary(self):
        # tolerance 1e-10 at unit scale: 2**-34 (5.8e-11) of asymmetry
        # passes, 2**-33 (1.2e-10) does not
        a = np.array([[1.0, 0.5], [0.5 + 2.0**-34, 1.0]])
        matstat.validate_spd(a)
        a[1, 0] = 0.5 + 2.0**-33
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            matstat.validate_spd(a)


class TestCholUpper:
    def test_identity(self):
        for p in (1, 3, 6):
            np.testing.assert_allclose(matstat.chol_upper(np.eye(p)), np.eye(p))

    def test_diagonal(self):
        u = matstat.chol_upper(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(u, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        a = m.T @ m + np.eye(3)
        u = matstat.chol_upper(a)
        assert np.all(np.triu(u) == u)
        assert np.linalg.norm(u.T @ u - a) / np.linalg.norm(a) <= 1e-12

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            matstat.chol_upper(np.diag([1.0, -1.0]))

    @settings(deadline=None, max_examples=40)
    @given(p=st.integers(1, 16), seed=st.integers(0, 2**31))
    def test_reconstruction_property(self, p, seed):
        a = random_spd(p, np.random.default_rng(seed))
        u = matstat.chol_upper(a)
        err = np.linalg.norm(u.T @ u - a) / np.linalg.norm(a)
        assert err <= 1e-10


class TestSymInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(sym_inv_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        b = sym_inv_sqrt(np.diag([4.0, 16.0]))
        np.testing.assert_allclose(b, np.diag([0.5, 0.25]))

    @settings(deadline=None, max_examples=40)
    @given(p=st.integers(1, 16), seed=st.integers(0, 2**31))
    def test_bab_identity(self, p, seed):
        a = random_spd(p, np.random.default_rng(seed))
        b = sym_inv_sqrt(a)
        np.testing.assert_allclose(b, b.T, atol=1e-12)
        np.testing.assert_allclose(b @ a @ b, np.eye(p), atol=1e-8)

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            sym_inv_sqrt(np.zeros((2, 2)))


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert math.isclose(log_det(np.diag([2.0, 3.0])), math.log(6.0))

    def test_eigen_oracle(self):
        rng = np.random.default_rng(3)
        for p in (2, 5, 9):
            a = random_spd(p, rng)
            oracle = float(np.sum(np.log(np.linalg.eigvalsh(a))))
            assert math.isclose(log_det(a), oracle, rel_tol=1e-10, abs_tol=1e-10)


class TestLogMultigamma:
    def test_univariate(self):
        assert math.isclose(matstat.log_multigamma(1, 3.0), math.log(2.0))

    def test_univariate_grid(self):
        for a in (0.6, 1.0, 2.5, 10.0):
            assert math.isclose(matstat.log_multigamma(1, a), float(gammaln(a)),
                                rel_tol=1e-14, abs_tol=1e-14)

    def test_p2(self):
        expected = 0.5 * math.log(math.pi) + float(gammaln(1.5)) + float(gammaln(1.0))
        assert math.isclose(matstat.log_multigamma(2, 1.5), expected, rel_tol=1e-13)

    def test_p3_high_precision(self):
        # arbitrary-precision oracle for the product formula
        with mpmath.workdps(50):
            expected = mpmath.mpf(3 * 2) / 4 * mpmath.log(mpmath.pi)
            for j in range(1, 4):
                expected += mpmath.loggamma(mpmath.mpf(5) - mpmath.mpf(j - 1) / 2)
        assert math.isclose(matstat.log_multigamma(3, 5.0), float(expected),
                            rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            matstat.log_multigamma(3, 1.0)


@pytest.mark.parametrize("delta", [0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
@pytest.mark.parametrize("p", range(1, 9))
def test_gamma_terms_at_grid_arguments(p, delta):
    # the only arguments msvol passes to lgamma: both log_multigamma calls of
    # diagnostics.loglik_constant and the constant of the forecast density
    # (u'u = 0), for the CLI's default grid.  Errors are in units of
    # eps * max(1, |value|); measured maxima: 5.0 and 11.5 (scipy's gammaln:
    # 1.0 and 4.7), the second a difference of two larger log-gammas
    def units(got, exact):
        return abs(got - float(exact)) / (np.finfo(float).eps * max(1.0, abs(float(exact))))

    for a in ((delta * (1 - p) + p) / (2 * (1 - delta)),
              (delta * (2 - p) + p - 1) / (2 * (1 - delta))):
        with mpmath.workdps(50):
            exact = mpmath.mpf(p * (p - 1)) / 4 * mpmath.log(mpmath.pi) + mpmath.fsum(
                mpmath.loggamma(mpmath.mpf(a) - mpmath.mpf(j) / 2) for j in range(p))
        assert units(matstat.log_multigamma(p, a), exact) <= 6.0
    n = delta / (1 - delta)              # forecast degrees of freedom
    with mpmath.workdps(50):
        exact = (mpmath.loggamma((mpmath.mpf(n) + p) / 2) - mpmath.loggamma(mpmath.mpf(n) / 2)
                 - mpmath.mpf(p) / 2 * mpmath.log(mpmath.pi))
    assert units(matstat.student_t_logpdf_from_sq(0.0, n, p), exact) <= 12.0


class TestStudentT:
    def test_cauchy_at_zero(self):
        assert math.isclose(student_t_logpdf([0.0], 1.0),
                            math.log(1.0 / math.pi))

    def test_zero_vector(self):
        for p, n in ((1, 5.0), (3, 19.0), (8, 2.5)):
            expected = float(gammaln((n + p) / 2) - gammaln(n / 2)) \
                - (p / 2) * math.log(math.pi)
            got = student_t_logpdf(np.zeros(p), n)
            assert math.isclose(got, expected, rel_tol=1e-14)

    def test_high_precision_point(self):
        with mpmath.workdps(50):
            n, p, uu = mpmath.mpf(19), 2, mpmath.mpf(2)
            expected = (mpmath.loggamma((n + p) / 2) - mpmath.loggamma(n / 2)
                        - p * mpmath.log(mpmath.pi) / 2
                        - (n + p) / 2 * mpmath.log(1 + uu))
        got = student_t_logpdf([1.0, 1.0], 19.0)
        assert math.isclose(got, float(expected), rel_tol=1e-13)
        # the u'u form takes an array and matches its scalar calls
        uu = np.array([0.0, 2.0, 1e6])
        many = matstat.student_t_logpdf_from_sq(uu, 19.0, 2)
        assert many.shape == uu.shape
        np.testing.assert_array_equal(
            many, [matstat.student_t_logpdf_from_sq(x, 19.0, 2) for x in uu])
        assert math.isclose(many[1], float(expected), rel_tol=1e-13)

    def test_integrates_to_one(self):
        # fine trapezoid over the p=1 density; the wide range covers the
        # Cauchy tails (mass beyond 20000 is ~3e-5)
        for n in (1.0, 3.0, 19.0):
            grid = np.linspace(-20000.0, 20000.0, 8_000_001)
            dens = np.exp(gammaln((n + 1) / 2) - gammaln(n / 2)
                          - 0.5 * np.log(np.pi) - ((n + 1) / 2) * np.log1p(grid**2))
            ref = student_t_logpdf([grid[123]], n)
            assert math.isclose(ref, float(np.log(dens[123])), rel_tol=1e-12)
            # the trapezoid rule on the uniform grid (numpy 1.24 has no
            # np.trapezoid)
            area = (grid[1] - grid[0]) * (dens.sum() - 0.5 * (dens[0] + dens[-1]))
            assert abs(area - 1.0) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_logpdf([0.0], 0.0)


class TestPositiveEigenvalues:
    def test_zero_matrix(self):
        assert positive_eigenvalues(np.zeros((4, 4))).size == 0

    def test_rank_one(self):
        v = np.array([1.0, 2.0, -2.0])
        eig = positive_eigenvalues(np.outer(v, v))
        assert eig.shape == (1,)
        assert math.isclose(eig[0], float(v @ v), rel_tol=1e-12)

    def test_rank_r_projection(self):
        rng = np.random.default_rng(5)
        p = 6
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        for r in range(0, p + 1):
            proj = q[:, :r] @ q[:, :r].T
            eig = positive_eigenvalues(proj)
            assert eig.shape == (r,)
            if r:
                np.testing.assert_allclose(eig, 1.0, atol=1e-10)

    def test_descending(self):
        eig = positive_eigenvalues(np.diag([1.0, 3.0, 2.0, -1.0]))
        np.testing.assert_allclose(eig, [3.0, 2.0, 1.0])


class TestWishartSample:
    def test_single_draw_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            draw = wishart_sample(5.0, np.eye(2), rng)
            assert np.all(np.linalg.eigvalsh(draw) > 0)

    def test_moment(self):
        rng = np.random.default_rng(12)
        draws = wishart_sample(5.0, np.eye(2), rng, size=200_000)
        mean = draws.mean(axis=0)
        np.testing.assert_allclose(mean, 5.0 * np.eye(2), atol=0.02 * 5.0)

    def test_variance_identity(self):
        # Var(w_11) = 2 * df * v_11^2
        rng = np.random.default_rng(13)
        draws = wishart_sample(3.0, np.diag([1.0, 4.0]), rng, size=400_000)
        var = draws[:, 0, 0].var()
        assert abs(var - 6.0) / 6.0 < 0.05

    def test_domain(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DomainError):
            wishart_sample(1.0, np.eye(3), rng)


class TestBartlettLower:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_batch_of_one_matches_scalar_draw_order(self, p):
        # the simulator's bits depend on this draw order
        for seed in range(20):
            for df in (p - 0.5, p + 3.0, 27.0):
                rng = np.random.Generator(np.random.Philox(seed))
                ref_rng = np.random.Generator(np.random.Philox(seed))
                got = matstat.bartlett_lower(df, p, rng, 1)
                assert got.shape == (1, p, p)
                np.testing.assert_array_equal(got[0], bartlett_lower(df, p, ref_rng))
                # the generator is left in the same state
                np.testing.assert_array_equal(rng.random(4), ref_rng.random(4))

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_split_keeps_draws_and_generator_state(self, p):
        # the draw-then-assemble split consumes the generator exactly as the
        # one-piece factor did: the chi-squares as a (p, size) array, then
        # the strictly lower normals factor by factor
        def one_piece(df, rng, size):
            t = np.zeros((size, p, p))
            i = np.arange(p)
            t[:, i, i] = np.sqrt(rng.chisquare(df - i[:, None], (p, size))).T
            t[:, np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(
                (size, p * (p - 1) // 2))
            return t

        for seed in range(5):
            for size in (1, 2, 7):
                rng = np.random.Generator(np.random.Philox(seed))
                ref_rng = np.random.Generator(np.random.Philox(seed))
                got = matstat.bartlett_lower(p + 3.5, p, rng, size)
                np.testing.assert_array_equal(got, one_piece(p + 3.5, ref_rng, size))
                np.testing.assert_array_equal(rng.random(4), ref_rng.random(4))

    def test_assembly_layout(self):
        t = matstat.bartlett_from_draws(np.array([[4.0, 9.0, 16.0]]),
                                        np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(
            t, [[[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [2.0, 3.0, 4.0]]])
