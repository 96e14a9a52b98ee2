from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from oracles import product_rho, product_rows

from gpfractal.fractal_sets import Target, build_cantor
from gpfractal.gp_sim import CovMatrix, cov_stationary_increments, cov_volterra
from gpfractal.metrics import (
    AtomRows,
    commensurability_report,
    covariance_delta_matrix,
    delta,
)
from gpfractal.scale import LogScale, PowerScale, parse_scale_spec


@pytest.fixture(scope="module")
def brownian_cov():
    grid = np.linspace(0.05, 1.0, 20)
    # make sure the hand-check times are on the grid
    grid = np.unique(np.concatenate([grid, [0.1, 0.35, 0.5]]))
    R = np.minimum.outer(grid, grid)
    return CovMatrix(grid=grid, build=R.copy, label="brownian")


class TestDelta:
    def test_stationary_power(self):
        assert delta(PowerScale(0.5), 0.1, 0.35) == pytest.approx(0.5)

    def test_zero_on_diagonal(self, brownian_cov):
        assert delta(PowerScale(0.5), 0.5, 0.5) == pytest.approx(0.0)
        assert np.all(np.diag(covariance_delta_matrix(brownian_cov)) == 0.0)

    def test_from_covariance_brownian(self, brownian_cov):
        i, j = np.searchsorted(brownian_cov.grid, [0.1, 0.35])
        # 0.1 + 0.35 - 2*0.1 = 0.25, sqrt = 0.5
        assert covariance_delta_matrix(brownian_cov)[i, j] == pytest.approx(0.5)

    def test_symmetry(self, brownian_cov):
        dm = covariance_delta_matrix(brownian_cov)
        assert np.array_equal(dm, dm.T)

    def test_matches_stationary_for_stationary_cov(self):
        f = PowerScale(0.7)
        grid = np.linspace(0.1, 1.0, 32)
        cov = cov_stationary_increments(f, grid)
        d1 = covariance_delta_matrix(cov)
        d2 = delta(f, grid[:, None], grid[None, :])
        assert np.max(np.abs(d1 - d2)) <= 1e-10


class TestRho:
    """The product metric as AtomRows reads it off factored atoms, against the oracle."""

    def test_coincident(self):
        # two copies of the time 0.3 make atoms 0 and 1 the same point
        f = PowerScale(0.5)
        metric = AtomRows(f, [0.3, 0.3], [[1.0, 2.0]])
        assert metric(0, slice(None)).tolist() == [0.0, 0.0]
        assert metric.block([0, 1]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        mat = product_rows([0.3, 0.3], [[1.0, 2.0]])
        assert product_rho(f.gamma, mat[0], mat).tolist() == [0.0, 0.0]

    def test_max_semantics(self):
        f = PowerScale(0.5)
        # atoms 0 = (0.1, 0.0) and 3 = (0.35, 0.2): delta = 0.5, spatial = 0.2
        metric = AtomRows(f, [0.1, 0.35], [[0.0], [0.2]])
        assert metric(0, 3) == pytest.approx(0.5)
        assert metric.block([0, 3])[1, 0] == pytest.approx(0.5)
        # atoms 0 = (0.3, 0.0) and 3 = (0.31, 0.2): delta = 0.1, spatial = 0.2
        times, points = [0.3, 0.31], [[0.0], [0.2]]
        metric = AtomRows(f, times, points)
        assert metric(0, 3) == pytest.approx(0.2)
        mat = product_rows(times, points)
        assert metric(0, 3) == product_rho(f.gamma, mat[0], mat[3])[0]

    def test_dimension_mismatch(self):
        # points of different spatial dimension make no product atom set
        with pytest.raises(ValueError):
            AtomRows(PowerScale(0.5), [0.1, 0.2], [[0.0, 1.0], [0.0]])

    def test_triangle_inequality(self, rng):
        f = PowerScale(0.5)
        for _ in range(300):
            times, points = rng.uniform(0.01, 1.0, size=3), rng.normal(size=(3, 2))
            D = AtomRows(f, times, points).block(np.arange(9))
            mat = product_rows(times, points)
            assert np.array_equal(D, [product_rho(f.gamma, u, mat) for u in mat])
            # D[u, w] <= D[u, v] + D[v, w] over every triple (u, v, w)
            assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :] + 1e-12)

    def test_rows_match_pairs(self, rng):
        f = PowerScale(0.5)
        times, points = rng.uniform(0.01, 1.0, size=8), rng.normal(size=(5, 3))
        metric = AtomRows(f, times, points)
        mat = product_rows(times, points)
        idx = np.arange(0, 40, 3)
        want = [product_rho(f.gamma, mat[5], mat[j])[0] for j in idx]
        assert metric(5, idx) == pytest.approx(want, rel=1e-15)
        times = mat[:, 0]
        assert np.array_equal(AtomRows(f, times)(5, idx), delta(f, times[5], times[idx]))

    def test_rows_reject_materialized_product_arrays(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            AtomRows(PowerScale(0.5), rng.normal(size=(10, 3)))


def _product_cases():
    f = PowerScale(0.5)
    interval = np.linspace(0.2, 1.0, 23)
    ball, _ = Target([{"type": "ball", "center": [0.5, 0.0, 0.0], "radius": 0.3}]).lattice()
    box, _ = Target([{"type": "box", "lo": [0.0, 0.1], "hi": [0.375, 0.475]}]).lattice()
    cantor = build_cantor(f, 0.8, depth=4).atoms
    return {
        "interval x ball lattice": (f, interval, ball),
        "interval x box lattice": (f, interval[::2], box),
        "cantor x box lattice": (f, cantor, box),
        "interval x point, logscale": (LogScale(1.0), interval / 2.5, np.zeros((1, 2))),
    }


class TestFactoredRows:
    """Factored rows and kernel blocks against the rho oracle on materialized atoms."""

    @pytest.mark.parametrize("case", list(_product_cases()))
    def test_product_rows_and_blocks_bit_identical(self, case, rng):
        f, times, points = _product_cases()[case]
        metric = AtomRows(f, times, points)
        mat = product_rows(times, points)
        assert len(metric) == len(mat)
        # 150 atoms: two full strips of the block and a partial one
        idx = np.sort(rng.choice(len(mat), size=min(150, len(mat)), replace=False))
        for i in rng.choice(len(mat), size=12, replace=False):
            assert np.array_equal(metric(i, slice(None)), product_rho(f.gamma, mat[i], mat))
            assert np.array_equal(metric(i, idx), product_rho(f.gamma, mat[i], mat[idx]))
        want = np.array([product_rho(f.gamma, mat[a], mat[idx]) for a in idx])
        assert metric.block(idx).tobytes() == want.tobytes()

    def test_time_rows_and_blocks_bit_identical(self, rng):
        f = PowerScale(0.3)
        times = np.sort(rng.uniform(0.1, 1.0, size=300))
        metric = AtomRows(f, times)
        idx = np.sort(rng.choice(300, size=50, replace=False))
        for i in (0, 17, 299):
            assert np.array_equal(metric(i, slice(None)), delta(f, times[i], times))
        want = np.array([delta(f, times[a], times[idx]) for a in idx])
        assert np.array_equal(metric.block(idx), want)

    @pytest.mark.parametrize("spec, k", [
        (spec, k) for spec in ("power:H=0.5", "power:H=0.3", "logscale:beta=1.0",
                               "explog:alpha=0.3") for k in (1, 17, 40, 150)
    ] + [("power:H=0.5", 3000)])
    def test_time_block_is_the_full_delta_matrix(self, spec, k):
        # each strip is filled left of the diagonal and mirrored: the block
        # must equal delta over every (row, column) pair, bit for bit
        f = parse_scale_spec(spec)
        rng = np.random.default_rng(k)
        times = np.sort(rng.uniform(0.01, 0.45, size=k + 5))
        idx = np.sort(rng.choice(k + 5, size=k, replace=False))
        block = AtomRows(f, times).block(idx)
        t = times[idx]
        assert block.tobytes() == delta(f, t[:, None], t[None, :]).tobytes()
        assert np.array_equal(block, block.T)

    def test_block_reads_one_gamma_table_per_block(self, monkeypatch):
        f = PowerScale(0.5)
        metric = AtomRows(f, np.linspace(0.2, 1.0, 30), np.linspace(0.0, 1.0, 7)[:, None])
        sizes = []
        gamma = f.gamma
        monkeypatch.setattr(f, "gamma", lambda r: sizes.append(np.size(r)) or gamma(r))
        metric.block(np.arange(0, 210, 2))
        metric(5, slice(None))
        # one 30 x 30 table of distinct times for the block (its one strip:
        # the tile and an empty remainder), one 30-time row
        assert sizes == [900, 0, 30]


class TestDiameter:
    """AtomRows.diameter: rho between the corners of the bounding box."""

    @staticmethod
    def _largest_pair(f, times, points):
        mat = product_rows(times, points)
        return max(float(product_rho(f.gamma, u, mat).max()) for u in mat)

    def test_equals_largest_pair_when_corners_are_atoms(self):
        f, times, points = _product_cases()["interval x box lattice"]
        diam = AtomRows(f, times, points).diameter()
        assert diam == self._largest_pair(f, times, points)

    def test_bounds_every_pair_on_a_ball_lattice(self):
        f, times, points = _product_cases()["interval x ball lattice"]
        diam = AtomRows(f, times, points).diameter()
        assert diam >= self._largest_pair(f, times, points)

    def test_single_atom_is_floored(self):
        metric = AtomRows(PowerScale(0.5), [0.5], [[0.0, 0.0]])
        assert metric.diameter() == 1e-12


class TestTriangleInequalityDelta:
    def test_concave_gamma_subadditive_metric(self, concave_registry, rng):
        for f in concave_registry:
            ts = rng.uniform(1e-6, f.x_conc / 2 if f.x_conc else f.x_max / 2, size=(1000, 3))
            d_su = delta(f, ts[:, 0], ts[:, 2])
            d_st = delta(f, ts[:, 0], ts[:, 1])
            d_tu = delta(f, ts[:, 1], ts[:, 2])
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
