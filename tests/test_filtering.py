import math
import tracemalloc
import warnings

import numpy as np
import pytest

from msvol import filtering, matstat, simulator
from msvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from oracles import expectation_invariance_check, filter_rows_reference


def make_state(cfg, scale):
    return filtering.FilterState(t=0, scale_chol=matstat.chol_upper(scale))


class TestComputeK:
    def test_univariate_is_one_over_delta(self):
        assert math.isclose(filtering.compute_k(0.95, 1), 1.0 / 0.95, rel_tol=1e-15)

    def test_p8(self):
        assert math.isclose(filtering.compute_k(0.95, 8), 1.35 / 1.30, rel_tol=1e-15)
        assert math.isclose(filtering.compute_k(0.95, 8), 27.0 / 26.0, rel_tol=1e-14)

    def test_delta_to_one_limit(self):
        for p in (1, 2, 7):
            assert math.isclose(filtering.compute_k(1.0 - 1e-12, p), 1.0,
                                abs_tol=1e-10)

    def test_equivalent_form(self):
        for delta in (0.7, 0.8, 0.9, 0.95):
            for p in (1, 2, 4, 8):
                n = 1.0 / (1.0 - delta)
                alt = (n + p - 1) / (delta * n + p - 1)
                assert math.isclose(filtering.compute_k(delta, p), alt, rel_tol=1e-12)

    def test_k_inverse_in_unit_interval(self):
        for delta in (0.67, 0.7, 0.9, 0.999):
            for p in (1, 3, 50):
                k = filtering.compute_k(delta, p)
                assert 0.0 < 1.0 / k < 1.0 or (p == 1 and math.isclose(1 / k, delta))

    def test_domain(self):
        for bad in (0.5, 2.0 / 3.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                filtering.compute_k(bad, 3)


class TestNewConfig:
    def test_p8(self):
        cfg = filtering.new_config(8, 0.95, np.eye(8))
        assert math.isclose(cfg.n, 20.0, rel_tol=1e-12)
        assert math.isclose(cfg.m, 26.0, rel_tol=1e-12)
        assert math.isclose(cfg.k, 27.0 / 26.0, rel_tol=1e-12)

    def test_p1(self):
        cfg = filtering.new_config(1, 0.9, np.array([[1.0]]))
        assert math.isclose(cfg.n, 10.0, rel_tol=1e-12)
        assert math.isclose(cfg.m, 9.0, rel_tol=1e-12)
        assert math.isclose(cfg.k, 1.0 / 0.9, rel_tol=1e-12)

    def test_delta_rejected(self):
        with pytest.raises(DomainError):
            filtering.new_config(2, 0.5, np.eye(2))

    def test_delta_between_half_and_two_thirds_rejected(self):
        # posterior mean alone would be defined, the forecast one is not
        with pytest.raises(DomainError):
            filtering.new_config(2, 0.6, np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            filtering.new_config(3, 0.9, np.eye(2))

    def test_beta_parameter_is_integer_one(self):
        for delta in (0.7, 0.75, 0.9, 0.95):
            cfg = filtering.new_config(3, delta, np.eye(3))
            assert math.isclose((1 - delta) * cfg.n, 1.0, rel_tol=1e-9)
            assert cfg.m > cfg.p - 1


class TestStep:
    def test_rank_one_update(self):
        cfg = filtering.new_config(2, 0.95, np.eye(2))
        state = filtering.initial_state(cfg)
        y = np.array([1.0, 0.0])
        new, out = filtering.step(cfg, state, y)
        expected = np.eye(2) / cfg.k + np.outer(y, y)
        np.testing.assert_allclose(new.scale, expected, rtol=1e-12)
        assert new.t == 1

    def test_zero_observation(self):
        cfg = filtering.new_config(3, 0.9, 2.0 * np.eye(3))
        state = filtering.initial_state(cfg)
        new, out = filtering.step(cfg, state, np.zeros(3))
        np.testing.assert_allclose(new.scale, 2.0 * np.eye(3) / cfg.k, rtol=1e-12)
        np.testing.assert_allclose(out.u_star, np.zeros(3), atol=1e-15)
        assert out.q == 0.0

    def test_dimension_mismatch(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        with pytest.raises(DimensionMismatch):
            filtering.step(cfg, filtering.initial_state(cfg), np.zeros(3))

    def test_forecast_scale_matches_prior_mean(self):
        rng = np.random.default_rng(2)
        cfg = filtering.new_config(3, 0.85, np.eye(3))
        state = filtering.initial_state(cfg)
        for _ in range(5):
            y = 0.1 * rng.standard_normal(3)
            fs = filtering.prior_mean_next(cfg, state)
            state, out = filtering.step(cfg, state, y)
            np.testing.assert_allclose(out.forecast_scale, fs, rtol=1e-12)

    @pytest.mark.parametrize("y", [[1.0, 2.0], [1.0, 0.0]])
    def test_zero_pivot_raises(self, y):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        state = filtering.FilterState(t=0, scale_chol=np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            filtering.step(cfg, state, np.array(y))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_observation(self, bad):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="column 1"):
                filtering.step(cfg, filtering.initial_state(cfg), [0.5, bad])

    def test_u_star_is_scaled_u(self):
        rng = np.random.default_rng(3)
        cfg = filtering.new_config(4, 0.9, np.eye(4))
        _, out = filtering.step(cfg, filtering.initial_state(cfg),
                                rng.standard_normal(4))
        ratio = math.sqrt((3 * 0.9 - 2) / (1 - 0.9))
        np.testing.assert_allclose(out.u_star, ratio * out.u, rtol=1e-12)


class TestExactExpansion:
    def exact_scale(self, s0, ys, k, t):
        acc = k ** (-(t + 1.0)) * s0
        for j in range(t + 1):
            acc = acc + k ** (j - t - 0.0) * np.outer(ys[j], ys[j])
        return acc

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_expansion_oracle(self, p):
        rng = np.random.default_rng(100 + p)
        cfg = filtering.new_config(p, 0.9, np.eye(p) + 0.1)
        ys = rng.standard_normal((200, p))
        run = filtering.run_filter(cfg, ys)
        for t in (0, 1, 10, 99, 199):
            # closed form uses 1-based time: S_t = k^{-t} S0 + sum k^{j-t} y y'
            expected = self.exact_scale(cfg.prior_scale, ys, cfg.k, t)
            err = np.linalg.norm(run.scales[t] - expected) / np.linalg.norm(expected)
            assert err <= 1e-10

    def test_step_matches_kernel(self):
        rng = np.random.default_rng(8)
        cfg = filtering.new_config(5, 0.8, np.eye(5))
        ys = rng.standard_normal((50, 5))
        run = filtering.run_filter(cfg, ys)
        density = run.predictive_logdensity
        state = filtering.initial_state(cfg)
        for t in range(50):
            state, out = filtering.step(cfg, state, ys[t])
            np.testing.assert_array_equal(out.u, run.u[t])
            np.testing.assert_array_equal(out.u_star, run.u_star[t])
            assert out.q == run.q[t]
            assert out.predictive_logdensity == density[t]
            np.testing.assert_array_equal(state.scale, run.scales[t])
        np.testing.assert_array_equal(state.scale_chol, run.final_state.scale_chol)


class TestFactorInvariants:
    def test_final_factor_reconstructs_scale(self):
        rng = np.random.default_rng(2)
        ys = rng.standard_normal((100, 4))
        cfg = filtering.new_config(4, 0.97, np.eye(4))   # k = 109/106
        run = filtering.run_filter(cfg, ys)
        r = run.final_state.scale_chol
        np.testing.assert_allclose(r.T @ r, run.scales[-1], rtol=1e-12)
        assert np.all(np.diag(r) > 0)
        assert np.allclose(np.triu(r), r)


class TestMeans:
    def test_posterior_mean(self):
        cfg = filtering.new_config(2, 0.95, np.eye(2))
        got = filtering.posterior_mean(cfg, make_state(cfg, np.eye(2)))
        np.testing.assert_allclose(got, (0.05 / 0.90) * np.eye(2), rtol=1e-12)

    def test_posterior_mean_diag(self):
        cfg = filtering.new_config(2, 0.75, np.diag([2.0, 4.0]))
        got = filtering.posterior_mean(cfg, make_state(cfg, np.diag([2.0, 4.0])))
        np.testing.assert_allclose(got, np.diag([1.0, 2.0]), rtol=1e-12)

    def test_prior_mean_next_p1(self):
        cfg = filtering.new_config(1, 0.95, np.array([[1.0]]))
        got = filtering.prior_mean_next(cfg, make_state(cfg, np.array([[1.0]])))
        expected = 0.05 / ((1 / 0.95) * 0.85)
        np.testing.assert_allclose(got, [[expected]], rtol=1e-10)

    def test_prior_mean_next_identity(self):
        p = 4
        cfg = filtering.new_config(p, 0.9, np.eye(p))
        got = filtering.prior_mean_next(cfg, make_state(cfg, np.eye(p)))
        np.testing.assert_allclose(got, (0.1 / (cfg.k * 0.7)) * np.eye(p), rtol=1e-12)

    def test_zero_observation_consistency(self):
        # absorbing y = 0 shrinks the scale by 1/k only
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        state = filtering.initial_state(cfg)
        state2, _ = filtering.step(cfg, state, np.zeros(3))
        np.testing.assert_allclose(filtering.posterior_mean(cfg, state2),
                                   filtering.posterior_mean(cfg, state) / cfg.k,
                                   rtol=1e-12)


class TestExpectationInvariance:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_invariance(self, p):
        rng = np.random.default_rng(40 + p)
        cfg = filtering.new_config(p, 0.95, np.eye(p))
        for _ in range(25):
            m = rng.standard_normal((p, p))
            state = make_state(cfg, m.T @ m + np.eye(p))
            a, b = expectation_invariance_check(cfg, state)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_wrong_k_discrepancy(self):
        p, delta = 8, 0.95
        rng = np.random.default_rng(50)
        cfg = filtering.new_config(p, delta, np.eye(p))
        m = rng.standard_normal((p, p))
        state = make_state(cfg, m.T @ m + np.eye(p))
        a, b = expectation_invariance_check(cfg, state, k=1.0 / delta)
        tr = float(np.trace(np.linalg.inv(state.scale)))
        expected = (p - 1) * (1.0 / delta - 1.0) * tr
        assert abs((b - a) - expected) <= 1e-12 * abs(a)

    def test_wrong_k_exempt_at_p1(self):
        cfg = filtering.new_config(1, 0.9, np.array([[2.0]]))
        state = make_state(cfg, np.array([[2.0]]))
        a, b = expectation_invariance_check(cfg, state, k=1.0 / 0.9)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_elementwise_identity(self):
        # (n+p-1) = (delta n + p - 1) k exactly, so E(precision) matches
        # elementwise across the prior-to-posterior transition
        for p in (2, 5):
            for delta in (0.7, 0.95):
                cfg = filtering.new_config(p, delta, np.eye(p))
                assert math.isclose(cfg.n + p - 1, (delta * cfg.n + p - 1) * cfg.k,
                                    rel_tol=1e-14)
                rng = np.random.default_rng(p)
                m = rng.standard_normal((p, p))
                s_inv = np.linalg.inv(m.T @ m + np.eye(p))
                post = (cfg.n + p - 1) * s_inv
                prior = (cfg.delta * cfg.n + p - 1) * cfg.k * s_inv
                np.testing.assert_allclose(post, prior, rtol=1e-12)


class TestVarianceInflation:
    def test_vecp_variance_grows(self):
        # Wishart variance identity Var(w_ij) = df (v_ij^2 + v_ii v_jj):
        # posterior precision ~ W(n+p-1, S^{-1}); next prior precision
        # ~ W(dn+p-1, k S^{-1}); prior variances dominate elementwise
        rng = np.random.default_rng(77)
        for p, delta in ((2, 0.7), (4, 0.9), (6, 0.95)):
            cfg = filtering.new_config(p, delta, np.eye(p))
            m = rng.standard_normal((p, p))
            v = np.linalg.inv(m.T @ m + np.eye(p))
            base = v**2 + np.outer(np.diag(v), np.diag(v))
            var_post = (cfg.n + p - 1) * base
            var_prior = (cfg.delta * cfg.n + p - 1) * cfg.k**2 * base
            assert np.all(var_prior >= var_post * (1 - 1e-12))


class TestUnivariateReduction:
    def test_matches_scalar_discount_algorithm(self):
        delta = 0.9
        cfg = filtering.new_config(1, delta, np.array([[2.0]]))
        rng = np.random.default_rng(4)
        ys = 0.05 * rng.standard_normal((300, 1))
        run = filtering.run_filter(cfg, ys)
        s = 2.0
        k = 1.0 / delta
        for t in range(300):
            q = ys[t, 0] ** 2 / s
            u = math.sqrt(k / s) * ys[t, 0]
            assert math.isclose(run.q[t], q, rel_tol=1e-12)
            assert math.isclose(run.u[t, 0], u, rel_tol=1e-12)
            s = s / k + ys[t, 0] ** 2
            assert math.isclose(run.scales[t, 0, 0], s, rel_tol=1e-12)


class TestStandardizedErrorsMonteCarlo:
    def test_unit_covariance_under_forecast_law(self):
        # draw 1e5 next-step observations through the model's own evolution
        # (posterior Wishart -> singular-beta step -> Gaussian return) and
        # check the standardized errors have identity second moment
        p, delta, size = 2, 0.9, 100_000
        cfg = filtering.new_config(p, delta, np.eye(p))
        state = make_state(cfg, np.array([[2.0, 0.5], [0.5, 1.0]]))
        rng = simulator.rng_from_seed(123)
        s_inv = np.linalg.inv(state.scale)
        prec = matstat.wishart_sample(cfg.n + p - 1, s_inv, rng, size=size)
        b = simulator.sample_singular_beta(cfg.m, p, rng, size=size)
        uc = np.transpose(np.linalg.cholesky(prec), (0, 2, 1))
        prec_next = cfg.k * np.transpose(uc, (0, 2, 1)) @ b @ uc
        w, v = np.linalg.eigh(prec_next)
        eps = rng.standard_normal((size, p))
        y = np.einsum("nij,nj->ni", v, np.einsum("nji,nj->ni", v, eps) / np.sqrt(w))
        root = matstat.sym_inv_sqrt(filtering.prior_mean_next(cfg, state))
        u_star = y @ root.T
        second_moment = (u_star[:, :, None] * u_star[:, None, :]).mean(axis=0)
        np.testing.assert_allclose(second_moment, np.eye(p), atol=0.03)


class TestRunFilter:
    def test_empty_series(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        for approximate_prior in (False, True):
            run = filtering.run_filter(cfg, np.empty((0, 2)),
                                       approximate_prior=approximate_prior)
            assert run.q.shape == (0,)
            assert run.scales.shape == (0, 2, 2) and run.u.shape == (0, 2)
            assert run.final_state.t == 0
            np.testing.assert_array_equal(run.final_state.scale_chol,
                                          matstat.chol_upper(cfg.prior_scale))

    def test_no_second_scale_buffer(self):
        # the run holds the kernel's arrays; a copy would double the peak
        p, N = 8, 10_000
        cfg = filtering.new_config(p, 0.95, np.eye(p))
        ys = np.random.default_rng(6).standard_normal((N, p))
        tracemalloc.start()
        try:
            run = filtering.run_filter(cfg, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * run.scales.nbytes

    def test_dimension_mismatch(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        with pytest.raises(DimensionMismatch):
            filtering.run_filter(cfg, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_returns(self, bad):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        ys = np.array([[1.0, 2.0], [bad, 0.5], [0.3, 0.1]])
        for approximate_prior in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="row 1, column 0"):
                    filtering.run_filter(cfg, ys, approximate_prior=approximate_prior)

    def test_approximate_prior_mode(self):
        rng = np.random.default_rng(9)
        cfg = filtering.new_config(3, 0.9, 100.0 * np.eye(3))
        ys = rng.standard_normal((400, 3))
        approx = filtering.run_filter(cfg, ys, approximate_prior=True)
        exact = filtering.run_filter(cfg, ys)
        # warm-up outputs are flagged, not fabricated
        assert np.isnan(approx.q[0])
        assert np.all(np.isfinite(approx.q[3:]))
        # the prior's influence deflates: late scales agree closely
        err = np.linalg.norm(approx.scales[-1] - exact.scales[-1]) \
            / np.linalg.norm(exact.scales[-1])
        assert err < 1e-6

    @staticmethod
    def rank_growing(n_rank1, n_after):
        # rows span e1 only, then e1, e2, then all three axes: the truncated
        # scale is exactly singular until the first row with a third component
        rng = np.random.default_rng(10)
        ys = rng.standard_normal((n_rank1 + 1 + n_after, 3))
        ys[:n_rank1, 1:] = 0.0
        ys[n_rank1, 2] = 0.0
        return ys

    def test_approximate_prior_warm_up(self):
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        ys = self.rank_growing(4, 40)
        full_rank = 5                      # first step with a full-rank scale
        run = filtering.run_filter(cfg, ys, approximate_prior=True)
        s = np.zeros((3, 3))
        for t in range(full_rank + 1):
            s = s / cfg.k + np.outer(ys[t], ys[t])
            np.testing.assert_array_equal(run.scales[t], s)
        for out in (run.u, run.q, run.logdet_pre):
            assert np.all(np.isnan(out[:full_rank + 1]))
            assert np.all(np.isfinite(out[full_rank + 1:]))

    def test_approximate_prior_full_rank_at_last_row(self):
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        ys = self.rank_growing(4, 1)       # full rank only at row 5, the last
        run = filtering.run_filter(cfg, ys, approximate_prior=True)
        assert run.final_state.t == 6
        assert np.all(np.isnan(run.q))
        np.testing.assert_array_equal(run.final_state.scale_chol,
                                      matstat.chol_upper(run.scales[-1]))

    def test_approximate_prior_never_full_rank(self):
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        ys = np.random.default_rng(11).standard_normal((20, 3))
        ys[:, 2] = 0.0                     # rows span two of three dimensions
        with pytest.raises(NotPositiveDefinite):
            filtering.run_filter(cfg, ys, approximate_prior=True)


def within_one_ulp(a, b):
    both_nan = np.isnan(a) & np.isnan(b)
    return np.all(both_nan | (a == b) | (np.abs(a - b) <= np.spacing(np.abs(b))))


class TestReferenceKernel:
    """The kernel reproduces the per-step numpy-scalar pass of tests/oracles.py.

    Lengths straddle the kernel's SVD block, so the hand-over of R_{t-1}
    between blocks is covered.  q may differ by one ulp: the reference
    squares numpy scalars with `**`, the kernel arrays with `float_power`,
    and numpy need not take both from the same pow.
    """

    B = filtering._BLOCK

    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("n_blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_run_filter_matches_reference(self, p, n_blocks, extra):
        N = n_blocks * self.B + extra
        rng = np.random.default_rng(1000 * p + N)
        prior = np.eye(p) + 0.2
        cfg = filtering.new_config(p, 0.9, prior)
        ys = rng.standard_normal((N, p)) * np.exp(rng.standard_normal((N, 1)))
        run = filtering.run_filter(cfg, ys)
        scales, u, q, logdet_pre, r = filter_rows_reference(
            ys, matstat.chol_upper(cfg.prior_scale), cfg.k)
        np.testing.assert_array_equal(run.scales, scales)
        np.testing.assert_array_equal(run.u, u)
        np.testing.assert_array_equal(run.logdet_pre, logdet_pre)
        np.testing.assert_array_equal(run.final_state.scale_chol, r)
        assert within_one_ulp(run.q, q)

    def test_singular_start_matches_reference(self):
        # a zero pivot: step 0 is NaN, the state still advances
        rng = np.random.default_rng(5)
        ys = rng.standard_normal((self.B + 2, 2))
        r0 = np.diag([1.0, 0.0])
        scales, u, q, logdet_pre, r = filtering._filter_rows(ys, r0, 1.1)
        with np.errstate(all="ignore"):
            want = filter_rows_reference(ys, r0, 1.1)
        assert np.isnan(q[0]) and np.all(np.isfinite(q[1:]))
        for got, ref in zip((scales, u, logdet_pre, r), want[:2] + want[3:]):
            np.testing.assert_array_equal(got, ref)
        assert within_one_ulp(q, want[2])
