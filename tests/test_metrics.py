from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from gpfractal.gp_sim import CovMatrix, cov_stationary_increments, cov_volterra
from gpfractal.metrics import (
    FromCovariance,
    StationaryGamma,
    commensurability_report,
)
from gpfractal.scale import PowerScale


@pytest.fixture(scope="module")
def brownian_cov():
    grid = np.linspace(0.05, 1.0, 20)
    # make sure the hand-check times are on the grid
    grid = np.unique(np.concatenate([grid, [0.1, 0.35, 0.5]]))
    R = np.minimum.outer(grid, grid)
    return CovMatrix(grid=grid, R=R, label="brownian")


class TestDelta:
    def test_stationary_power(self):
        model = StationaryGamma(PowerScale(0.5))
        assert model.delta(0.1, 0.35) == pytest.approx(0.5)

    def test_zero_on_diagonal(self, brownian_cov):
        for model in (StationaryGamma(PowerScale(0.5)), FromCovariance(brownian_cov)):
            assert model.delta(0.5, 0.5) == pytest.approx(0.0)

    def test_from_covariance_brownian(self, brownian_cov):
        model = FromCovariance(brownian_cov)
        # 0.1 + 0.35 - 2*0.1 = 0.25, sqrt = 0.5
        assert model.delta(0.1, 0.35) == pytest.approx(0.5)

    def test_off_grid_rejected(self, brownian_cov):
        with pytest.raises(KeyError):
            FromCovariance(brownian_cov).delta(0.123456, 0.35)

    def test_symmetry(self, brownian_cov):
        dm = FromCovariance(brownian_cov).delta_matrix()
        assert np.array_equal(dm, dm.T)

    def test_matches_stationary_for_stationary_cov(self):
        f = PowerScale(0.7)
        grid = np.linspace(0.1, 1.0, 32)
        cov = cov_stationary_increments(f, grid)
        d1 = FromCovariance(cov).delta_matrix()
        d2 = StationaryGamma(f).delta_matrix(grid)
        assert np.max(np.abs(d1 - d2)) <= 1e-10


class TestRho:
    """The product metric on points given as rows (t, x_1, ..., x_d)."""

    def test_coincident(self):
        model = StationaryGamma(PowerScale(0.5))
        assert model.rho([0.3, 1.0, 2.0], [0.3, 1.0, 2.0]) == 0.0

    def test_max_semantics(self):
        model = StationaryGamma(PowerScale(0.5))
        # delta = 0.5, spatial = 0.2
        assert model.rho([0.1, 0.0], [0.35, 0.2]) == pytest.approx(0.5)
        # delta = 0.1, spatial = 0.2
        s, t = 0.3, 0.31
        assert model.rho([s, 0.0], [t, 0.2]) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        model = StationaryGamma(PowerScale(0.5))
        with pytest.raises(ValueError):
            model.rho([0.1, 0.0, 1.0], [0.2, 0.0])

    def test_triangle_inequality(self, rng):
        model = StationaryGamma(PowerScale(0.5))
        for _ in range(300):
            u, v, w = np.column_stack([rng.uniform(0.01, 1.0, size=3), rng.normal(size=(3, 2))])
            assert model.rho(u, w) <= model.rho(u, v) + model.rho(v, w) + 1e-12

    def test_rows_match_pairs(self, rng):
        model = StationaryGamma(PowerScale(0.5))
        atoms = np.column_stack([rng.uniform(0.01, 1.0, size=40), rng.normal(size=(40, 3))])
        metric = model.rows(atoms)
        idx = np.arange(0, 40, 3)
        want = [model.rho(atoms[5], atoms[j]) for j in idx]
        assert metric(5, idx) == pytest.approx(want, rel=1e-15)
        times = atoms[:, 0]
        assert np.array_equal(model.rows(times)(5, idx), model.delta(times[5], times[idx]))


class TestTriangleInequalityDelta:
    def test_concave_gamma_subadditive_metric(self, concave_registry, rng):
        for f in concave_registry:
            model = StationaryGamma(f)
            ts = rng.uniform(1e-6, f.x_conc / 2 if f.x_conc else f.x_max / 2, size=(1000, 3))
            d_su = model.delta(ts[:, 0], ts[:, 2])
            d_st = model.delta(ts[:, 0], ts[:, 1])
            d_tu = model.delta(ts[:, 1], ts[:, 2])
            assert np.all(d_su <= d_st + d_tu + 1e-12), f.name


class TestCommensurability:
    def test_fbm_exact(self):
        f = PowerScale(0.6)
        grid = np.linspace(0.1, 1.0, 24)
        cov = cov_stationary_increments(f, grid)
        rep = commensurability_report(cov, f)
        assert rep.l_hat == pytest.approx(1.0, abs=1e-10)

    def test_brownian_volterra(self):
        f = PowerScale(0.5)
        grid = np.linspace(1 / 32, 1.0, 32)
        cov = cov_volterra(f, grid)
        rep = commensurability_report(cov, f)
        assert rep.l_hat == pytest.approx(1.0, abs=1e-8)

    def test_concave_volterra_within_two(self):
        # concave gamma^2 gives commensurability with l = 2
        for h in (0.3, 0.4):
            f = PowerScale(h)
            grid = np.linspace(0.05, 1.0, 20)
            cov = cov_volterra(f, grid)
            rep = commensurability_report(cov, f)
            assert 1.0 <= rep.l_hat <= 2.0 + 0.1, h

    def test_report_serializes(self):
        f = PowerScale(0.5)
        grid = np.linspace(0.1, 1.0, 8)
        rep = commensurability_report(cov_stationary_increments(f, grid), f)
        assert set(asdict(rep)) >= {"l_hat", "ratio_min", "ratio_max", "n_pairs"}
