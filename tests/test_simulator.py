import math

import numpy as np
import pytest

from msvol import cli, filtering, matstat, simulator
from msvol.errors import DimensionMismatch, DomainError
from oracles import (MsseAccumulator, evolve_precision, msse_update,
                     simulate_path_reference)


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
        prec = matstat.wishart_sample(cfg.n + p - 1, np.linalg.inv(s), rng, size=size)
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
                msse_update(acc, matstat.sym_inv_sqrt(sigma) @ y)
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
