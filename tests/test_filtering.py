import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from msvol import diagnostics, filtering, matstat, simulator
from msvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from oracles import (expectation_invariance_check, filter_rows_reference,
                     forward_substitution_full, sym_inv_sqrt, wishart_sample)


def make_state(cfg, scale):
    return filtering.FilterState(t=0, scale_chol=matstat.chol_upper(scale))


# singular factors by dimension; the SVD gives the 3x3 one's smallest
# singular value as 1.7e-16, not 0, so only its zero diagonal entry shows it
ZERO_PIVOT = {2: np.diag([1.0, 0.0]),
              3: np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])}


def rel_err(a, b):
    """Normwise relative error of a against b."""
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


def worst_step_err(a, b):
    """The largest normwise relative error of a step of a against b."""
    return max(rel_err(x, y) for x, y in zip(a, b))


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

    def test_huge_finite_prior(self):
        # symmetrizing must not overflow: 1e308 + 1e308 is inf
        prior = np.diag([1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = filtering.new_config(2, 0.9, prior)
            factor = matstat.chol_upper(cfg.prior_scale)
        np.testing.assert_array_equal(cfg.prior_scale, prior)
        np.testing.assert_array_equal(factor, np.diag([1e154, 1.0]))

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

    @pytest.mark.parametrize("y", [[1.0, 2.0], [1.0, 0.0], [0.3, -0.2, 0.5]])
    def test_zero_pivot_raises(self, y):
        # the error names the state's step, not the kernel's first row
        p = len(y)
        cfg = filtering.new_config(p, 0.9, np.eye(p))
        state = filtering.FilterState(t=7, scale_chol=ZERO_PIVOT[p])
        with pytest.raises(NotPositiveDefinite, match=r"at step 7 \(0-based\)"):
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


    def test_one_svd_per_step(self, monkeypatch):
        # u and u_star are two scalings of one symmetric root
        cfg = filtering.new_config(4, 0.9, np.eye(4))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        filtering.step(cfg, filtering.initial_state(cfg), np.ones(4))
        assert len(calls) == 1


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
        # step factors a one-row stack, run_filter a block's, so the bits differ
        for t in range(50):
            state, out = filtering.step(cfg, state, ys[t])
            assert rel_err(out.u, run.u[t]) <= 1e-13
            assert rel_err(out.u_star, run.u_star[t]) <= 1e-13
            assert rel_err(out.q, run.q[t]) <= 1e-13
            assert abs(out.predictive_logdensity - density[t]) <= 1e-12
            assert rel_err(state.scale, run.scales[t]) <= 1e-13
        assert rel_err(state.scale_chol, run.final_state.scale_chol) <= 1e-13

    def test_step_continues_a_batch_run(self):
        # the forecasting workflow: a batch run, then one step per new row
        rng = np.random.default_rng(9)
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        ys = rng.standard_normal((150, 3))
        run = filtering.run_filter(cfg, ys)
        density = run.predictive_logdensity
        state = filtering.run_filter(cfg, ys[:100]).final_state
        for t in range(100, 150):
            state, out = filtering.step(cfg, state, ys[t])
            assert rel_err(out.u, run.u[t]) <= 1e-13
            assert rel_err(out.q, run.q[t]) <= 1e-13
            assert abs(out.predictive_logdensity - density[t]) <= 1e-12
            assert rel_err(state.scale, run.scales[t]) <= 1e-13
        assert state.t == 150
        assert rel_err(state.scale_chol, run.final_state.scale_chol) <= 1e-13
        # a step that cannot be scored is named by its place in the series
        ys[120] = 1e200
        state = filtering.run_filter(cfg, ys[:100]).final_state
        with pytest.raises(DomainError, match=r"at step 120 \(0-based\)"):
            for t in range(100, 150):
                state, _ = filtering.step(cfg, state, ys[t])


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


class TestPackedPath:
    """The run holds each R_t as its upper triangle in LAPACK's packed order,
    and its readers give the bits the full (N+1, p, p) stack gave."""

    @pytest.fixture(scope="class")
    def runs(self):
        # the criterion-7 path (p=8, N=4774, seed 42), then short paths at small p
        sim = simulator.SimConfig(p=8, delta=0.9, N=4774, prior_scale=np.eye(8), seed=42)
        ys = simulator.simulate_path(sim).returns
        prior = diagnostics.default_prior_scale(ys, 0.9, 30)
        out = [(filtering.run_filter(filtering.new_config(8, 0.9, prior), ys), ys)]
        for p in (1, 2, 3):
            ys = np.random.default_rng(p).standard_normal((3 * filtering._BLOCK + 7, p))
            out.append((filtering.run_filter(filtering.new_config(p, 0.9, np.eye(p)), ys), ys))
        return out

    def test_packed_order(self):
        r = np.arange(9.0).reshape(3, 3)
        # column j holds R[0..j, j]; the entries below the diagonal are dropped
        np.testing.assert_array_equal(filtering.pack_upper(r), [0, 1, 4, 2, 5, 8])
        np.testing.assert_array_equal(filtering.unpack_upper([0, 1, 4, 2, 5, 8], 3),
                                      np.triu(r))

    def test_round_trip(self, runs):
        for run, _ in runs:
            p = run.cfg.p
            assert run.factors_packed.shape == (len(run.q) + 1, p * (p + 1) // 2)
            factors = run.factors
            assert factors.shape == (len(run.q) + 1, p, p)
            np.testing.assert_array_equal(factors, np.triu(factors))
            np.testing.assert_array_equal(filtering.pack_upper(factors), run.factors_packed)
            np.testing.assert_array_equal(factors[-1], run.final_state.scale_chol)

    def test_solve_matches_full_layout(self, runs):
        for run, ys in runs:
            w, q, logdet = forward_substitution_full(run.factors, ys)
            assert np.array_equal(run.w, w)
            assert np.array_equal(run.q, q)
            assert np.array_equal(run.logdet_pre, logdet)

    def test_scales_are_products_of_factors(self, runs):
        for run, _ in runs:
            post = run.factors[1:]
            assert np.array_equal(run.scales, post.transpose(0, 2, 1) @ post)


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
        prec = wishart_sample(cfg.n + p - 1, s_inv, rng, size=size)
        b = simulator.sample_singular_beta(cfg.m, p, rng, size=size)
        uc = np.transpose(np.linalg.cholesky(prec), (0, 2, 1))
        prec_next = cfg.k * np.transpose(uc, (0, 2, 1)) @ b @ uc
        w, v = np.linalg.eigh(prec_next)
        eps = rng.standard_normal((size, p))
        y = np.einsum("nij,nj->ni", v, np.einsum("nji,nj->ni", v, eps) / np.sqrt(w))
        root = sym_inv_sqrt(filtering.prior_mean_next(cfg, state))
        u_star = y @ root.T
        second_moment = (u_star[:, :, None] * u_star[:, None, :]).mean(axis=0)
        np.testing.assert_allclose(second_moment, np.eye(p), atol=0.03)


class TestRunFilter:
    def test_empty_series(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        run = filtering.run_filter(cfg, np.empty((0, 2)))
        assert run.q.shape == (0,)
        assert run.scales.shape == (0, 2, 2) and run.u.shape == (0, 2)
        assert run.final_state.t == 0
        np.testing.assert_array_equal(run.final_state.scale_chol,
                                      matstat.chol_upper(cfg.prior_scale))

    def test_no_second_scale_buffer(self):
        # the pass holds no (N, p, p) stack: its factor path is packed, and
        # it peaks at 4.4 MB here, against 6.7 MB with a full-layout path
        p, N = 8, 10_000
        cfg = filtering.new_config(p, 0.95, np.eye(p))
        ys = np.random.default_rng(6).standard_normal((N, p))
        tracemalloc.start()
        try:
            run = filtering.run_filter(cfg, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < run.scales.nbytes

    def test_grid_search_holds_packed_runs(self):
        # six runs, each less than one full (N+1, p, p) factor stack:
        # 4.5 MB held here, against 7.2 MB with full-layout paths
        p, N = 8, 2000
        ys = np.random.default_rng(7).standard_normal((N, p))
        tracemalloc.start()
        try:
            report = diagnostics.grid_search(ys, [0.8, 0.85, 0.9, 0.93, 0.95, 0.98], 0.95)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.runs) == 6
        assert held < len(report.runs) * (N + 1) * p * p * 8

    def test_dimension_mismatch(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        with pytest.raises(DimensionMismatch):
            filtering.run_filter(cfg, np.zeros((5, 3)))

    def test_no_svd_on_the_success_path(self, monkeypatch):
        # q, log|S| and the scales come from the factors; only u reads an SVD
        cfg = filtering.new_config(8, 0.9, np.eye(8))
        ys = np.random.default_rng(7).standard_normal((3 * filtering._BLOCK + 5, 8))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        run = filtering.run_filter(cfg, ys)
        _ = run.scales, run.predictive_logdensity, diagnostics.loglik_total(run)
        assert calls == []
        _ = run.u_star
        assert len(calls) == 4   # one call per block of u_star

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_returns(self, bad):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        ys = np.array([[1.0, 2.0], [bad, 0.5], [0.3, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="row 1, column 0"):
                filtering.run_filter(cfg, ys)


class TestReferenceKernel:
    """The kernel matches the per-step numpy-scalar pass of tests/oracles.py.

    Lengths straddle the kernel's block, so the hand-over of R_{t-1}
    between blocks is covered.  The kernel takes a block's factors from one
    QR and the reference from one Givens update a step, so the two agree to
    rounding on these well-conditioned paths, not bit for bit.
    """

    B = filtering._BLOCK

    @staticmethod
    def kernel(k, r0, ys):
        """The kernel from factor r0 at step 0, with decay constant k."""
        p = r0.shape[0]
        cfg = dataclasses.replace(filtering.new_config(p, 0.9, np.eye(p)), k=k)
        return filtering._filter_rows(cfg, filtering.FilterState(0, r0), ys)

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
        assert worst_step_err(run.scales, scales) <= 1e-13
        assert worst_step_err(run.u, u) <= 1e-13
        assert worst_step_err(run.q, q) <= 1e-13
        assert rel_err(run.final_state.scale_chol, r) <= 1e-13
        np.testing.assert_allclose(run.logdet_pre, logdet_pre, rtol=0, atol=1e-12)

    def test_zero_pivot_at_start_names_step_0(self):
        for p, r0 in ZERO_PIVOT.items():
            ys = np.random.default_rng(5).standard_normal((self.B + 2, p))
            with pytest.raises(NotPositiveDefinite, match=r"at step 0 \(0-based\)"):
                self.kernel(1.1, r0, ys)

    def test_zero_singular_value_at_start_names_step_0(self):
        # no zero pivot, but d_min = 1e-400 / 1e150 underflows to 0
        ys = np.random.default_rng(5).standard_normal((3, 2))
        r0 = np.array([[1e-200, 1e150], [0.0, 1e-200]])
        with pytest.raises(NotPositiveDefinite, match=r"at step 0 \(0-based\)"):
            self.kernel(1.1, r0, ys)

    def test_steps_are_counted_from_the_state(self):
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        ys = np.random.default_rng(6).standard_normal((self.B + 10, 2))
        run = filtering._filter_rows(cfg, filtering.FilterState(1000, np.eye(2)), ys)
        assert run.final_state.t == 1000 + len(ys)
        ys[self.B + 5] = 1e200
        with pytest.raises(DomainError, match=rf"at step {1000 + self.B + 5} \(0-based\)"):
            filtering._filter_rows(cfg, filtering.FilterState(1000, np.eye(2)), ys)

    def test_pivot_underflow_names_its_step(self):
        # A pivot never fed by y is scaled by 1/sqrt(k) a step.  With k = 16
        # it is R_t's 0.25^(t+1), exact until it rounds to 0; S_t is then
        # singular, and step t + 1, whose pre-update scale it is, is named.
        # That lies past the kernel's first block.
        pivot, t = 0.25, 0
        while pivot > 0.0:
            pivot *= 0.25
            t += 1
        assert self.B < t
        ys = np.tile([1.0, 0.0], (t + 2, 1))
        with pytest.raises(NotPositiveDefinite, match=rf"at step {t + 1} \(0-based\)"):
            self.kernel(16.0, np.eye(2), ys)
        # an earlier step that cannot be scored is named first
        ys[t - 100, 0] = 1e200
        with pytest.raises(DomainError, match=rf"at step {t - 100} \(0-based\)"):
            self.kernel(16.0, np.eye(2), ys)


class TestOutOfRange:
    """Finite returns whose filter quantities leave float64 range.

    Each raises DomainError naming the first step it cannot score, with no
    numpy warning on the way.
    """

    def test_huge_row_mid_path(self):
        rng = np.random.default_rng(0)
        ys = rng.standard_normal((100, 3))
        ys[60] = 1e160
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 60 \(0-based\)"):
                filtering.run_filter(cfg, ys)
            report = diagnostics.grid_search(ys, (0.8, 0.9), 0.9)
        for row in report.rows:
            assert row.error.startswith("DomainError") and "step 60 " in row.error

    def test_huge_return_in_run_and_step(self):
        # the factor stays finite; q and S_1 overflow
        ys = np.array([[1.0, 2.0], [1e200, 1.0], [1.0, 1.0]])
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        state = filtering.initial_state(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 1 \(0-based\)"):
                filtering.run_filter(cfg, ys)
            state, _ = filtering.step(cfg, state, ys[0])
            with pytest.raises(DomainError, match=r"at step 1 \(0-based\)"):
                filtering.step(cfg, state, ys[1])

    def test_huge_prior_and_returns(self):
        # S_0 = prior/k + y y' overflows at the first step
        ys = 1e155 * np.random.default_rng(1).standard_normal((50, 2))
        cfg = filtering.new_config(2, 0.9, 1e300 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 0 \(0-based\)"):
                filtering.run_filter(cfg, ys)

    def test_k_times_q_overflow(self):
        # q_0 = 1.69e308 is finite, but k q_0 = u'u, which every consumer
        # of the run forms, is not
        ys = np.array([[1.3e4], [1.0]])
        prior = np.array([[1e-300]])
        cfg = filtering.new_config(1, 0.9, prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 0 \(0-based\)"):
                filtering.run_filter(cfg, ys)
            report = diagnostics.grid_search(ys, (0.9,), 0.9, prior_scale=prior)
        (row,) = report.rows
        assert row.error.startswith("DomainError") and "step 0 " in row.error
