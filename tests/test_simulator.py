import math
import warnings

import mpmath
import numpy as np
import pytest

from msvol import cli, filtering, matstat, simulator
from msvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from oracles import (MsseAccumulator, beta_roots_cholesky, evolve_precision,
                     msse_update, simulate_path_reference, simulate_path_stepwise,
                     sym_inv_sqrt, wishart_sample)

B = simulator._BLOCK


class TestSingularBeta:
    def test_symmetric_unit_interval(self):
        rng = simulator.rng_from_seed(0)
        for _ in range(50):
            b = simulator.sample_singular_beta(5.0, 3, rng)
            np.testing.assert_allclose(b, b.T, atol=1e-12)
            eig = np.linalg.eigvalsh(b)
            assert np.all(eig > -1e-12) and np.all(eig < 1.0 + 1e-12)

    def test_complement_is_rank_one(self):
        rng = simulator.rng_from_seed(1)
        p = 3
        b = simulator.sample_singular_beta(5.0, p, rng, size=10_000)
        eig = np.linalg.eigvalsh(np.eye(p) - b)
        # one eigenvalue carries all the mass, the rest vanish
        assert np.all(eig[:, -1] > 1e-12)
        assert np.quantile(np.abs(eig[:, :-1]).max(axis=1), 0.999) < 1e-10

    def test_univariate_beta_moment(self):
        # p = 1 reduces to Beta(m/2, 1/2) with mean m/(m+1)
        rng = simulator.rng_from_seed(2)
        m = 9.0
        b = simulator.sample_singular_beta(m, 1, rng, size=100_000)[:, 0, 0]
        assert np.all((b >= 0) & (b <= 1))
        assert abs(b.mean() - m / (m + 1)) < 0.01 * m / (m + 1)

    def test_matrix_mean(self):
        rng = simulator.rng_from_seed(3)
        m, p = 3.0, 2
        b = simulator.sample_singular_beta(m, p, rng, size=100_000)
        np.testing.assert_allclose(b.mean(axis=0), (m / (m + 1)) * np.eye(p),
                                   atol=0.02)

    def test_batched_deterministic(self):
        a = simulator.sample_singular_beta(5.0, 3, simulator.rng_from_seed(4), size=6)
        b = simulator.sample_singular_beta(5.0, 3, simulator.rng_from_seed(4), size=6)
        np.testing.assert_array_equal(a, b)
        for draw in a:
            eig = np.linalg.eigvalsh(np.eye(3) - draw)
            assert eig[-1] > 1e-12 and abs(eig[0]) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            simulator.sample_singular_beta(1.5, 3, simulator.rng_from_seed(0))


def beta_inputs(p, delta, seed, size):
    """A (size, p, p) stack of Bartlett factors and (size, p) normals, drawn
    as the simulator draws them for (p, delta)."""
    m = filtering.new_config(p, delta, np.eye(p)).m
    rng = simulator.rng_from_seed(seed)
    return matstat.bartlett_lower(m, p, rng, size), rng.standard_normal((size, p))


class TestBetaRoots:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    @pytest.mark.parametrize("delta", [0.7, 0.9, 0.98])
    def test_matches_cholesky_construction(self, p, delta):
        # the Cholesky route forms T T' + x x', so its own error grows with
        # cond(T T' + x x'); measured over 10,000 draws per case, the gap
        # per draw stays below 2.5 eps * cond (up to 1490 eps at p=8,
        # delta=0.7, where cond reaches 4e4)
        t, x = beta_inputs(p, delta, seed=p, size=1000)
        got = simulator._beta_roots(t, x)
        cond = np.linalg.cond(t @ t.transpose(0, 2, 1) + x[:, :, None] * x[:, None, :])
        gap = np.max(np.abs(got - beta_roots_cholesky(t, x)), axis=(1, 2))
        assert np.all(gap <= 8 * self.EPS * cond)

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_beta_draw_against_mpmath(self, p):
        # F F' = L^{-1} T T' L^{-T} and F = L^{-1} T in 40 digits; measured
        # worst over 240 draws (p = 1, 2, 3, 8; delta 0.7 and 0.9): 4 eps for
        # F F', 2 eps for F
        t, x = beta_inputs(p, 0.7, seed=100 + p, size=5)
        roots = simulator._beta_roots(t, x)
        with mpmath.workdps(40):
            for j in range(len(t)):
                tm, xm = mpmath.matrix(t[j].tolist()), mpmath.matrix(x[j].tolist())
                root = mpmath.cholesky(tm * tm.T + xm * xm.T) ** -1 * tm
                draw = root * root.T
                got = roots[j] @ roots[j].T
                for a in range(p):
                    for b in range(p):
                        assert abs(float(root[a, b]) - roots[j][a, b]) <= 8 * self.EPS
                        assert abs(float(draw[a, b]) - got[a, b]) <= 16 * self.EPS

    def test_singular_factor_raises(self):
        t, x = beta_inputs(3, 0.9, seed=0, size=4)
        t[2], x[2] = 0.0, 0.0
        with pytest.raises(NotPositiveDefinite):
            simulator._beta_roots(t, x)


class TestEvolvePrecision:
    def test_identity_beta(self):
        prec = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = evolve_precision(prec, np.eye(2), 1.05)
        np.testing.assert_allclose(out, 1.05 * prec, rtol=1e-12)

    def test_scalar_case(self):
        out = evolve_precision(np.array([[4.0]]), np.array([[0.5]]), 1.1)
        np.testing.assert_allclose(out, [[2.2]], rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evolve_precision(np.eye(2), np.eye(3), 1.0)

    def test_wishart_closure_mean(self):
        # precision ~ W(n+p-1, S^{-1}) pushed through a beta step stays
        # Wishart with mean (n+p-1) S^{-1} unchanged
        p, delta = 2, 0.9
        cfg = filtering.new_config(p, delta, np.eye(p))
        s = np.array([[2.0, 0.4], [0.4, 1.0]])
        rng = simulator.rng_from_seed(5)
        size = 100_000
        prec = wishart_sample(cfg.n + p - 1, np.linalg.inv(s), rng, size=size)
        b = simulator.sample_singular_beta(cfg.m, p, rng, size=size)
        uc = np.transpose(np.linalg.cholesky(prec), (0, 2, 1))
        evolved = cfg.k * np.transpose(uc, (0, 2, 1)) @ b @ uc
        expected = (cfg.n + p - 1) * np.linalg.inv(s)
        err = np.linalg.norm(evolved.mean(axis=0) - expected) / np.linalg.norm(expected)
        assert err < 0.02


class TestSimulatePath:
    def cfg(self, **kw):
        base = dict(p=3, delta=0.9, N=50, prior_scale=np.eye(3), seed=7)
        base.update(kw)
        return simulator.SimConfig(**base)

    def test_shapes_and_determinism(self):
        path1 = simulator.simulate_path(self.cfg())
        path2 = simulator.simulate_path(self.cfg())
        assert path1.returns.shape == (50, 3)
        assert path1.sigmas.shape == (50, 3, 3)
        np.testing.assert_array_equal(path1.returns, path2.returns)
        np.testing.assert_array_equal(path1.sigmas, path2.sigmas)

    def test_seed_changes_path(self):
        a = simulator.simulate_path(self.cfg())
        b = simulator.simulate_path(self.cfg(seed=8))
        assert not np.allclose(a.returns, b.returns)

    def test_empty_path(self):
        path = simulator.simulate_path(self.cfg(N=0))
        assert path.returns.shape == (0, 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            simulator.simulate_path(self.cfg(N=-1))
        with pytest.raises(DomainError):
            simulator.simulate_path(self.cfg(delta=0.5))
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            simulator.simulate_path(self.cfg(seed=-1))

    def test_volatilities_spd(self):
        path = simulator.simulate_path(self.cfg(N=200))
        for t in (0, 99, 199):
            assert np.all(np.linalg.eigvalsh(path.sigmas[t]) > 0)
            np.testing.assert_allclose(path.sigmas[t], path.sigmas[t].T, atol=1e-14)

    def test_matches_reference_generator(self):
        cfg = self.cfg(N=50, prior_scale=np.diag([1.0, 4.0, 0.25]))
        fast = simulator.simulate_path(cfg)
        ref = simulate_path_reference(cfg)
        np.testing.assert_allclose(fast.sigmas, ref.sigmas, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fast.returns, ref.returns, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    @pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 3000])
    def test_same_bits_as_stepwise_generator(self, p, N):
        for seed, delta in ((0, 0.9), (3, 0.8), (42, 0.98)):
            cfg = self.cfg(p=p, N=N, delta=delta, prior_scale=np.eye(p), seed=seed)
            got = simulator.simulate_path(cfg)
            ref = simulate_path_stepwise(cfg)
            assert np.all(np.isfinite(ref.sigmas))
            assert np.array_equal(got.sigmas, ref.sigmas)
            assert np.array_equal(got.returns, ref.returns)

    def test_same_bits_with_correlated_prior(self):
        prior = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
        cfg = self.cfg(N=2 * B + 7, prior_scale=prior)
        got = simulator.simulate_path(cfg)
        ref = simulate_path_stepwise(cfg)
        assert np.array_equal(got.sigmas, ref.sigmas)
        assert np.array_equal(got.returns, ref.returns)

    def test_overflowing_volatility_raises_naming_step(self):
        # delta = 0.7 drifts fast: the largest volatility eigenvalue of this
        # path passes float max at step 2066 (its entries at step 2067), and
        # the stepwise generator's matrices go inf there with RuntimeWarnings
        cfg = self.cfg(p=4, delta=0.7, N=3000, prior_scale=np.eye(4), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 2066 \(0-based\)"):
                simulator.simulate_path(cfg)
        # a path that ends just before that step is untouched
        short = simulator.simulate_path(self.cfg(p=4, delta=0.7, N=2066,
                                                 prior_scale=np.eye(4), seed=0))
        assert np.all(np.isfinite(short.sigmas))

    def test_tiny_prior_scale_raises_at_first_step(self):
        # the prior precision 1e308 factors finitely (1e154), but the first
        # precision's eigenvalue already overflows when squared
        cfg = self.cfg(p=2, N=5, prior_scale=np.diag([1e-308, 1.0]), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at step 0 \(0-based\)"):
                simulator.simulate_path(cfg)

    def test_long_path_stays_finite(self):
        path = simulator.simulate_path(self.cfg(p=4, N=5000, prior_scale=np.eye(4)))
        assert np.all(np.isfinite(path.returns))
        assert np.all(np.isfinite(path.sigmas))

    def test_true_volatility_standardizes_returns(self):
        # standardizing each return by its own true volatility gives unit
        # mean squared errors; short paths keep the explicit inverse root
        # well conditioned, so aggregate over many of them
        acc = MsseAccumulator(p=4)
        for seed in range(50):
            path = simulator.simulate_path(
                self.cfg(p=4, N=100, prior_scale=np.eye(4), seed=seed))
            for sigma, y in zip(path.sigmas, path.returns):
                msse_update(acc, sym_inv_sqrt(sigma) @ y)
        np.testing.assert_allclose(acc.finalize(), np.ones(4), atol=0.05)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        cfg = simulator.SimConfig(p=2, delta=0.9, N=40, prior_scale=np.eye(2),
                                  seed=11)
        path = simulator.simulate_path(cfg)
        out = tmp_path / "returns.csv"
        path.to_csv(out)
        frame = cli.load_csv(out, mode="returns")
        assert frame.labels == ["y1", "y2"]
        np.testing.assert_array_equal(frame.values, path.returns)

    def test_custom_labels(self, tmp_path):
        cfg = simulator.SimConfig(p=2, delta=0.9, N=5, prior_scale=np.eye(2),
                                  seed=12)
        out = tmp_path / "r.csv"
        simulator.simulate_path(cfg).to_csv(out, labels=["a", "b"])
        assert cli.load_csv(out, mode="returns").labels == ["a", "b"]

    def test_same_bytes_as_per_cell_format(self, tmp_path):
        # more rows than one write block, values from 1e-300 to 1e60 of both
        # signs, and -0.0
        rng = simulator.rng_from_seed(13)
        n = 2 * simulator._CSV_BLOCK + 5
        mags = 10.0 ** rng.uniform(-300, 60, (n, 3))
        returns = np.where(rng.random((n, 3)) < 0.5, -mags, mags)
        returns[0] = [-0.0, 0.0, 1e-300]
        returns[-1] = [1e60, -1e60, 0.1]
        out = tmp_path / "r.csv"
        simulator.SimPath(sigmas=np.empty((n, 3, 3)), returns=returns).to_csv(out)
        expected = "y1,y2,y3\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in returns)
        assert out.read_bytes() == expected.encode("utf-8")
