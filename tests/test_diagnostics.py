import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from msvol import diagnostics, filtering, matstat
from msvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from oracles import (MsseAccumulator, SingularityError, bayes_factor, loglik_term,
                     msse_update)


def simulate_returns(p, N, seed, scale=0.04):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((N, p))


class TestMsse:
    def test_alternating_unit_vectors(self):
        acc = MsseAccumulator(p=2)
        for t in range(10):
            e = np.zeros(2)
            e[t % 2] = 1.0
            msse_update(acc, e)
        np.testing.assert_allclose(acc.finalize(), [0.5, 0.5])

    def test_single_vector(self):
        acc = MsseAccumulator(p=3)
        msse_update(acc, [1.0, 2.0, -3.0])
        np.testing.assert_allclose(acc.finalize(), [1.0, 4.0, 9.0])

    def test_standard_normal_monte_carlo(self):
        rng = np.random.default_rng(0)
        acc = MsseAccumulator(p=4)
        for row in rng.standard_normal((10_000, 4)):
            msse_update(acc, row)
        np.testing.assert_allclose(acc.finalize(), np.ones(4), atol=0.05)

    def test_empty(self):
        with pytest.raises(DomainError):
            MsseAccumulator(p=2).finalize()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            msse_update(MsseAccumulator(p=2), [1.0])


class TestLoglikConstant:
    def test_zero_steps(self):
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        assert diagnostics.loglik_constant(cfg, 0) == 0.0

    def test_linear_in_steps(self):
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        c1 = diagnostics.loglik_constant(cfg, 1)
        c7 = diagnostics.loglik_constant(cfg, 7)
        assert math.isclose(c7, 7 * c1, rel_tol=1e-12)

    def test_univariate_reduction(self):
        # at p=1 the multivariate gamma ratio is an ordinary gamma ratio
        delta = 0.95
        n = 1.0 / (1 - delta)
        cfg = filtering.new_config(1, delta, np.array([[1.0]]))
        expected = (-0.5 * math.log(math.pi) - 0.5 * math.log(2 * math.pi)
                    - ((2 * delta - 1) / (2 * (1 - delta))) * math.log(1 / delta)
                    + float(gammaln(n / 2) - gammaln((n - 1) / 2)))
        assert math.isclose(diagnostics.loglik_constant(cfg, 1), expected,
                            rel_tol=1e-11)

    def test_high_precision_point(self):
        p, delta = 8, 0.95
        cfg = filtering.new_config(p, delta, np.eye(p))
        with mpmath.workdps(60):
            d = mpmath.mpf(95) / 100
            k = (d * (1 - p) + p) / (d * (2 - p) + p - 1)

            def lmg(a):
                out = mpmath.mpf(p * (p - 1)) / 4 * mpmath.log(mpmath.pi)
                for j in range(1, p + 1):
                    out += mpmath.loggamma(a - mpmath.mpf(j - 1) / 2)
                return out

            expected = (-mpmath.mpf(p) / 2 * mpmath.log(mpmath.pi)
                        - mpmath.log(2 * mpmath.pi) / 2
                        - (p * (2 * d - 1)) / (2 * (1 - d)) * mpmath.log(k)
                        + lmg((d * (1 - p) + p) / (2 * (1 - d)))
                        - lmg((d * (2 - p) + p - 1) / (2 * (1 - d))))
        assert math.isclose(diagnostics.loglik_constant(cfg, 1), float(expected),
                            rel_tol=1e-9)


class TestLoglikTerm:
    def test_zero_observation_is_singular(self):
        # a flat day collapses the eigenvalue matrix to zero rank
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        state = filtering.initial_state(cfg)
        prev = filtering.posterior_mean(cfg, state)
        nxt, _ = filtering.step(cfg, state, np.zeros(2))
        curr = filtering.posterior_mean(cfg, nxt)
        with pytest.raises(SingularityError):
            loglik_term(cfg, prev, curr, np.zeros(2))

    def test_generic_route_matches_closed_form(self):
        # sum of per-step generic eigendecomposition terms against the
        # rank-one fast path over a well conditioned run
        p, delta, N = 3, 0.9, 300
        ys = simulate_returns(p, N, seed=5, scale=1.0)
        cfg = filtering.new_config(p, delta, np.eye(p))
        run = filtering.run_filter(cfg, ys)
        fast = diagnostics.loglik_total(run)
        c = cfg.posterior_mean_coef
        slow = diagnostics.loglik_constant(cfg, N)
        prev = c * cfg.prior_scale
        for t in range(N):
            curr = c * run.scales[t]
            slow += loglik_term(cfg, prev, curr, ys[t])
            prev = curr
        assert math.isclose(fast.total, slow, rel_tol=1e-9)
        assert fast.flat_count == 0

    def test_univariate_symbolic_oracle(self):
        # at p=1 every piece is scalar and can be written out directly
        delta = 0.9
        k = 1.0 / delta
        s0 = 2.0
        ys = np.array([[0.5], [-1.0], [0.2]])
        cfg = filtering.new_config(1, delta, np.array([[s0]]))
        run = filtering.run_filter(cfg, ys)
        c = (1 - delta) / (2 * delta - 1)
        a = (2 * delta - 1) / (2 * (1 - delta))
        b = (3 * delta - 2) / (2 * (1 - delta))
        s_prev, expected = s0, diagnostics.loglik_constant(cfg, 3)
        for y in ys[:, 0]:
            s = s_prev / k + y * y
            lam = (k * y * y / s_prev) / (1 + k * y * y / s_prev)
            expected += (-0.5 * y * y / (c * s) + a * math.log(c * s_prev)
                         - 0.5 * math.log(lam) - b * math.log(c * s))
            s_prev = s
        assert math.isclose(diagnostics.loglik_total(run).total, expected,
                            rel_tol=1e-12)

    def test_flat_day_policies(self):
        p, delta = 2, 0.9
        ys = simulate_returns(p, 50, seed=7)
        ys[10] = 0.0
        ys[30] = 0.0
        cfg = filtering.new_config(p, delta, 0.001 * np.eye(p))
        run = filtering.run_filter(cfg, ys)
        floored = diagnostics.loglik_total(run, flat_day="floor")
        skipped = diagnostics.loglik_total(run, flat_day="skip")
        assert floored.flat_count == 2
        assert skipped.flat_count == 2
        # the flat-day term diverges to +inf as the eigenvalue vanishes;
        # the floor caps it at the tolerance, skipping drops it entirely
        cap = 2 * (-(p / 2) * math.log(diagnostics.FLAT_EIGENVALUE_TOL))
        assert math.isclose(floored.total - skipped.total, cap, rel_tol=1e-9)
        with pytest.raises(DomainError):
            diagnostics.loglik_total(run, flat_day="drop")

    def test_no_flats_policies_agree(self):
        ys = simulate_returns(2, 80, seed=8)
        cfg = filtering.new_config(2, 0.85, np.eye(2))
        run = filtering.run_filter(cfg, ys)
        assert diagnostics.loglik_total(run, "floor").total \
            == diagnostics.loglik_total(run, "skip").total


class TestBayesFactor:
    def test_same_model_is_zero(self):
        assert bayes_factor([0.3, -0.1], 10.0, [0.3, -0.1], 10.0) == 0.0

    def test_antisymmetry(self):
        h = bayes_factor([1.2], 19.0, [1.2], 7 / 3)
        assert math.isclose(h, -bayes_factor([1.2], 7 / 3, [1.2], 19.0),
                            rel_tol=1e-14)

    def test_tail_prefers_heavier_model(self):
        # far in the tails the lower degrees of freedom win
        h_center = bayes_factor([0.0], 19.0, [0.0], 7 / 3)
        h_tail = bayes_factor([8.0], 19.0, [8.0], 7 / 3)
        assert h_center > 0 > h_tail

    def test_high_precision_point(self):
        with mpmath.workdps(50):
            def logpdf(n):
                n = mpmath.mpf(n)
                return (mpmath.loggamma((n + 1) / 2) - mpmath.loggamma(n / 2)
                        - mpmath.log(mpmath.pi) / 2 - (n + 1) / 2 * mpmath.log(2))

            expected = float(logpdf(19) - logpdf(mpmath.mpf(7) / 3))
        got = bayes_factor([1.0], 19.0, [1.0], 7.0 / 3.0)
        assert math.isclose(got, expected, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            bayes_factor([0.0], -1.0, [0.0], 3.0)


class TestBayesFactorSeries:
    def test_run_against_itself(self):
        ys = simulate_returns(2, 60, seed=1)
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        run = filtering.run_filter(cfg, ys)
        series = diagnostics.bayes_factor_series(run, run)
        assert series.mean() == 0.0
        assert np.sum(series > 0) == 0

    def test_matches_pointwise_formula(self):
        ys = simulate_returns(3, 40, seed=2)
        cfg1 = filtering.new_config(3, 0.8, np.eye(3))
        cfg2 = filtering.new_config(3, 0.95, np.eye(3))
        r1 = filtering.run_filter(cfg1, ys)
        r2 = filtering.run_filter(cfg2, ys)
        series = diagnostics.bayes_factor_series(r1, r2)
        for t in (0, 17, 39):
            expected = bayes_factor(r1.u[t], cfg1.forecast_df,
                                                r2.u[t], cfg2.forecast_df)
            assert math.isclose(series[t], expected, rel_tol=1e-12)

    def test_length_mismatch(self):
        ys = simulate_returns(2, 30, seed=3)
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        r1 = filtering.run_filter(cfg, ys)
        r2 = filtering.run_filter(cfg, ys[:-1])
        with pytest.raises(DimensionMismatch):
            diagnostics.bayes_factor_series(r1, r2)


class TestGridSearch:
    deltas = [0.7, 0.8, 0.9, 0.95]

    def test_baseline_row_is_exactly_zero(self):
        ys = simulate_returns(3, 200, seed=10)
        report = diagnostics.grid_search(ys, self.deltas, 0.95)
        base = next(r for r in report.rows if r.delta == 0.95)
        assert base.mean_h == 0.0
        assert base.h_positive_count == 0

    def test_deterministic(self):
        ys = simulate_returns(2, 150, seed=11)
        a = diagnostics.grid_search(ys, self.deltas, 0.9).to_tsv()
        b = diagnostics.grid_search(ys, self.deltas, 0.9).to_tsv()
        assert a == b

    # two moving rows, then flat days: the scale shrinks by 1/k a step, and
    # its pivots underflow to 0 near step 5670 for delta 0.7 (k = 1.3), but
    # not within 6000 steps for delta 0.9 or 0.95
    flat_tail = np.vstack([[[0.1, 0.2], [0.2, 0.1]], np.zeros((6000, 2))])

    def test_failed_row_is_isolated(self):
        report = diagnostics.grid_search(self.flat_tail, [0.7, 0.9, 0.95], 0.95)
        bad = next(r for r in report.rows if r.delta == 0.7)
        good = [r for r in report.rows if r.delta != 0.7]
        assert not bad.ok and "NotPositiveDefinite" in bad.error
        assert all(r.ok for r in good)
        assert "FAILED" in report.to_tsv()

    def test_baseline_failure_marks_all(self):
        report = diagnostics.grid_search(self.flat_tail, [0.7, 0.9], 0.7)
        assert all(not r.ok for r in report.rows)
        assert report.runs == {} and report.h_series == {}
        scored = report.rows[1]
        assert scored.error == "baseline row failed; Bayes factors unavailable"
        assert scored.mmsse is None and scored.msse is None and scored.loglik is None
        assert scored.flat_count is None

    def test_validation(self):
        ys = simulate_returns(2, 50, seed=14)
        with pytest.raises(DomainError):
            diagnostics.grid_search(ys, [], 0.9)
        with pytest.raises(DomainError):
            diagnostics.grid_search(ys, [0.8, 0.9], 0.85)
        with pytest.raises(DomainError, match="got 0.5"):
            diagnostics.grid_search(ys, [0.5, 0.9, 1.2], 0.9)
        with pytest.raises(DimensionMismatch):
            diagnostics.grid_search(ys[:, 0], [0.9], 0.9)

    @pytest.mark.parametrize("rows, cols, kwargs, error", [
        (100, 2, {"flat_day": "drop"}, DomainError),
        (100, 2, {"prior_window": 1}, DomainError),
        (100, 2, {"prior_scale": np.eye(3)}, DimensionMismatch),
        (100, 2, {"prior_scale": [[1.0, 2.0], [2.0, 1.0]]}, NotPositiveDefinite),
        (1, 2, {}, DomainError),
        (0, 2, {"prior_scale": np.eye(2)}, DomainError),
        (5, 0, {}, DomainError),
        (5, 0, {"prior_scale": np.eye(0)}, DomainError),
    ], ids=["flat_day", "prior_window", "prior_dimension", "prior_not_spd",
            "one_row_default_prior", "no_rows", "no_columns_default_prior",
            "no_columns_empty_prior"])
    def test_call_error_raises_before_scoring(self, rows, cols, kwargs, error):
        # the same for every row, so not a failed row each
        ys = simulate_returns(2, 100, seed=17)[:rows, :cols]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                diagnostics.grid_search(ys, self.deltas, 0.95, **kwargs)

    def test_report_shape(self):
        ys = simulate_returns(2, 120, seed=15)
        report = diagnostics.grid_search(ys, self.deltas, 0.95)
        tsv = report.to_tsv()
        assert tsv.splitlines()[0] == "delta\tMMSSE\tLogL\tH"
        assert len(tsv.splitlines()) == 1 + len(self.deltas)
        d = report.to_dict()
        assert [r["delta"] for r in d["rows"]] == self.deltas
        assert report.best_delta() in self.deltas
        assert set(report.runs) == set(self.deltas)
        assert set(report.h_series) == set(self.deltas)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_data_rejected_before_scoring(self, bad):
        data = np.array([[1.0, 2.0], [bad, 0.5], [0.3, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="row 1, column 0"):
                diagnostics.grid_search(data, self.deltas, 0.95)

    def test_check_grid(self):
        assert diagnostics.check_grid([0.9, 0.8, 0.9], 0.8) == [0.8, 0.9]
        for deltas, base in (([], 0.9), ([0.8, 0.9], 0.85), ([0.5, 0.9, 1.2], 0.9),
                             ([0.9, 1.0], 0.9)):
            with pytest.raises(DomainError):
                diagnostics.check_grid(deltas, base)

    def test_mmsse_from_q_matches_u_star(self):
        ys = simulate_returns(3, 300, seed=18)
        report = diagnostics.grid_search(ys, self.deltas, 0.95)
        for row in report.rows:
            msse = np.mean(report.runs[row.delta].u_star ** 2)
            assert abs(row.mmsse - msse) <= 1e-12 * msse

    def test_msse_on_the_best_row_only(self):
        ys = simulate_returns(3, 300, seed=18)
        report = diagnostics.grid_search(ys, self.deltas, 0.95)
        best = report.best_delta()
        for row in report.rows:
            assert (row.msse is not None) == (row.delta == best)
        run = report.runs[best]
        np.testing.assert_allclose(report.rows[self.deltas.index(best)].msse,
                                   np.mean(run.u_star ** 2, axis=0), rtol=1e-15)
        msse = report.to_dict()["rows"]
        assert [r["delta"] for r in msse if r["msse"] is not None] == [best]

    def test_svd_only_for_the_best_rows_u_star(self, monkeypatch):
        ys = simulate_returns(2, 3 * filtering._BLOCK + 5, seed=19)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        report = diagnostics.grid_search(ys, self.deltas, 0.95)
        # one read of u_star takes one SVD call per block
        assert len(calls) == 4 and all(r.ok for r in report.rows)

    def test_explicit_prior_scale(self):
        ys = simulate_returns(2, 100, seed=16)
        report = diagnostics.grid_search(ys, [0.9], 0.9, prior_scale=np.eye(2))
        cfg = filtering.new_config(2, 0.9, np.eye(2))
        run = filtering.run_filter(cfg, ys)
        expected = diagnostics.loglik_total(run).total
        assert math.isclose(report.rows[0].loglik, expected, rel_tol=1e-12)


class TestDefaultPriorScale:
    def test_matches_burn_in_variance(self):
        rng = np.random.default_rng(20)
        data = 3.0 * rng.standard_normal((100, 2))
        delta = 0.9
        s0 = diagnostics.default_prior_scale(data, delta, 30)
        v = float(np.mean(np.var(data[:30], axis=0, ddof=1)))
        n = 1.0 / (1 - delta)
        np.testing.assert_allclose(s0, (n - 2) * v * np.eye(2), rtol=1e-12)

    def test_constant_data_warns(self):
        data = np.ones((50, 2))
        with pytest.warns(UserWarning):
            s0 = diagnostics.default_prior_scale(data, 0.9, 30)
        assert np.all(np.isfinite(s0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_window_rejected(self, bad):
        data = np.array([[1.0, 2.0], [bad, 0.5], [0.3, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="row 1, column 0"):
                diagnostics.default_prior_scale(data, 0.9, 30)

    @pytest.mark.parametrize("data", [
        [[1e154, 1.0], [-1e154, 2.0], [0.5, 0.1]],   # the sum of squares
        [[5e153, 1.0], [-5e153, 2.0]],               # (n-2) v
    ])
    def test_overflowing_variance_rejected(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="burn-in variance overflows"):
                diagnostics.default_prior_scale(np.array(data), 0.9, 30)

    def test_no_columns_rejected_before_the_variance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"shape \(5, 0\)"):
                diagnostics.default_prior_scale(np.empty((5, 0)), 0.9, 30)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            diagnostics.default_prior_scale(np.ones((50, 2)), 0.9, 1)
        with pytest.raises(DomainError):
            diagnostics.default_prior_scale(np.ones((1, 2)), 0.9, 30)
