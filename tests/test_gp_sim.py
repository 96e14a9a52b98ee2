from __future__ import annotations

import hashlib
import struct
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import all_paths
from oracles import riemann_liouville_cov

from gpfractal import gp_sim, metrics
from gpfractal.fractal_sets import build_cantor
from gpfractal.gp_sim import (
    CovMatrix,
    PathBatch,
    PSDError,
    cov_stationary_increments,
    cov_volterra,
    sample_paths,
)
from gpfractal.metrics import covariance_delta_matrix
from gpfractal.scale import ExpLogScale, LogScale, PowerLogScale, PowerScale, parse_scale_spec


def _drop(p0, block):
    """A consumer that keeps nothing."""


class TestStationaryCov:
    def test_brownian_is_min(self):
        f = PowerScale(0.5)
        grid = np.linspace(0.1, 1.0, 16)
        cov = cov_stationary_increments(f, grid)
        assert np.max(np.abs(cov.R - np.minimum.outer(grid, grid))) <= 1e-14

    def test_diagonal_is_variance(self):
        f = PowerScale(0.75)
        grid = np.linspace(0.1, 1.0, 16)
        cov = cov_stationary_increments(f, grid)
        assert np.max(np.abs(np.diag(cov.R) - f.gamma2(grid))) <= 1e-8

    def test_hand_value(self):
        # H = 0.75: R(0.5, 1.0) = (0.5^1.5 + 1 - 0.5^1.5) / 2 = 0.5
        f = PowerScale(0.75)
        grid = np.array([0.5, 1.0])
        cov = cov_stationary_increments(f, grid)
        assert cov.R[0, 1] == pytest.approx(0.5)

    def test_rejects_zero_in_grid(self):
        with pytest.raises(ValueError):
            cov_stationary_increments(PowerScale(0.5), np.linspace(0.0, 1.0, 8))

    def test_cholesky_residual(self):
        f = PowerScale(0.3)
        grid = np.linspace(0.05, 1.0, 64)
        cov = cov_stationary_increments(f, grid)
        L = cov.cholesky().dense()
        resid = np.max(np.abs(L @ L.T - cov.R))
        assert resid <= 1e-8 * np.max(np.abs(cov.R))

    def test_psd_failure_reported(self):
        grid = np.linspace(0.1, 1.0, 4)
        R = -np.eye(4)
        cov = CovMatrix(grid=grid, build=R.copy, label="bogus")
        with pytest.raises(PSDError):
            cov.cholesky()


class TestVolterraCov:
    def test_brownian_kernel(self):
        f = PowerScale(0.5)
        grid = np.linspace(1 / 64, 1.0, 64)
        cov = cov_volterra(f, grid)
        assert np.max(np.abs(cov.R - np.minimum.outer(grid, grid))) <= 1e-8

    def test_diagonal_identity(self):
        for f in (PowerScale(0.3), PowerScale(0.7)):
            grid = np.linspace(0.1, 1.0, 8)
            cov = cov_volterra(f, grid)
            assert np.max(np.abs(np.diag(cov.R) - f.gamma2(grid))) <= 1e-10

    RL_GRIDS = {
        "uniform64": lambda H: np.linspace(1 / 64, 1.0, 64),
        "geometric128": lambda H: np.geomspace(1e-3, 1.0, 128),
        "cantor_depth6": lambda H: build_cantor(PowerScale(H), 0.5, 6).atoms,
        "near_diagonal": lambda H: np.array([0.05, 0.05 + 1e-7, 0.3, 0.3 + 1e-7, 0.8, 0.8 + 1e-7]),
    }

    @pytest.mark.parametrize("grid_name", sorted(RL_GRIDS))
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.75])
    def test_power_scale_is_riemann_liouville(self, H, grid_name):
        # the kernel sqrt((t^2H)') = sqrt(2H) t^(H - 1/2) makes the model
        # Riemann-Liouville fBm, whose covariance is a 2F1 closed form
        grid = self.RL_GRIDS[grid_name](H)
        R = cov_volterra(PowerScale(H), grid).R
        exact = np.array([[riemann_liouville_cov(H, s, t) for t in grid] for s in grid])
        assert np.max(np.abs(R - exact)) <= 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("spec", ["power:H=0.05", "logscale:beta=0.3", "explog:alpha=0.05",
                                      "powerlog:H=0.05,beta=2.0",
                                      "logcorrected:beta=0.5,alpha=-1.0"])
    @pytest.mark.parametrize("n", [16, 128])
    def test_fixed_order_has_margin(self, spec, n):
        # rough and slow scales certify far below QuadratureError's 1e-6
        f = parse_scale_spec(spec)
        cov = cov_volterra(f, np.linspace(f.x_max / n, f.x_max, n))
        assert cov.quad_rel_change <= 1e-9


class TestSampling:
    def test_bit_identical_repeats(self):
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 32))
        assert np.array_equal(all_paths(cov, 2, 5, 99), all_paths(cov, 2, 5, 99))

    def test_cholesky_paths_independent_of_n_paths(self):
        # the last blocks of 129 and 130 paths hold 1 and 2 of them
        cov = cov_volterra(PowerScale(0.5), np.linspace(1 / 64, 1.0, 64))
        assert cov.sampler == "cholesky"
        want = all_paths(cov, 2, 200, 3)
        for n_paths in (129, 130):
            assert np.array_equal(all_paths(cov, 2, n_paths, 3), want[:n_paths])

    def test_substreams_keyed_by_path_and_component(self):
        from gpfractal.gp_sim import _substream

        z_a = _substream(7, 2, 1).standard_normal(64)
        z_b = _substream(7, 2, 1).standard_normal(64)
        assert np.array_equal(z_a, z_b)
        assert not np.array_equal(z_a, _substream(7, 3, 1).standard_normal(64))
        assert not np.array_equal(z_a, _substream(7, 2, 0).standard_normal(64))
        assert not np.array_equal(z_a, _substream(8, 2, 1).standard_normal(64))

    def test_sample_covariance_matches(self):
        f = PowerScale(0.5)
        grid = np.linspace(0.1, 1.0, 16)
        cov = cov_stationary_increments(f, grid)
        n = 20_000
        X = all_paths(cov, 1, n, 5)[:, :, 0]
        S = X.T @ X / n
        stderr = np.sqrt(
            (np.outer(np.diag(cov.R), np.diag(cov.R)) + cov.R**2) / n
        )
        assert np.max(np.abs(S - cov.R) / stderr) <= 4.0

    def test_sample_mean_centered(self):
        f = PowerScale(0.5)
        grid = np.linspace(0.1, 1.0, 16)
        cov = cov_stationary_increments(f, grid)
        n = 20_000
        mean = all_paths(cov, 1, n, 6)[:, :, 0].mean(axis=0)
        assert np.all(np.abs(mean) <= 4.0 * np.sqrt(np.diag(cov.R) / n))

    def test_empirical_delta_matches_model(self):
        f = PowerScale(0.6)
        grid = np.linspace(0.1, 1.0, 16)
        cov = cov_stationary_increments(f, grid)
        n = 20_000
        X = all_paths(cov, 1, n, 8)[:, :, 0]
        model = covariance_delta_matrix(cov)
        iu = np.triu_indices(16, k=1)
        for i, j in zip(*iu):
            d2 = np.mean((X[:, i] - X[:, j]) ** 2)
            truth = model[i, j] ** 2
            assert abs(d2 - truth) <= 4.0 * truth * np.sqrt(2.0 / n)

    def test_component_independence(self):
        f = PowerScale(0.5)
        grid = np.linspace(0.1, 1.0, 8)
        cov = cov_stationary_increments(f, grid)
        values = all_paths(cov, 2, 20_000, 9)
        a = values[:, 4, 0]
        b = values[:, 4, 1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(20_000)

    def test_validates_args(self):
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 4))
        with pytest.raises(ValueError):
            sample_paths(cov, d=0, n_paths=1, seed=0, consume=_drop)
        with pytest.raises(ValueError):
            sample_paths(cov, d=1, n_paths=1, seed=0, threads=0, consume=_drop)
        with pytest.raises(TypeError, match="consume"):
            sample_paths(cov, d=1, n_paths=1, seed=0)

    def test_rejects_colliding_substream_keys(self):
        # comp >= 2^16 would collide in the key (path << 16) ^ comp; the
        # check comes before any allocation, so a huge batch is never built
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 4))
        with pytest.raises(ValueError, match="substreams"):
            sample_paths(cov, d=65536, n_paths=10**12, seed=0, consume=_drop)


def _dense_stationary_R(f, grid):
    """Independent oracle: (g2(s) + g2(t) - g2(|t-s|)) / 2 entry by entry."""
    g2 = f.gamma2(grid)
    return 0.5 * (g2[:, None] + g2[None, :] - f.gamma2(np.abs(grid[:, None] - grid[None, :])))


class TestCirculantSampler:
    @pytest.mark.parametrize(
        "f, seed",
        [(PowerScale(0.3), 31), (PowerScale(0.75), 32), (PowerScale(0.9), 33), (ExpLogScale(0.3), 34)],
    )
    def test_sample_covariance_matches_dense_R(self, f, seed):
        grid = np.linspace(0.1, 0.5, 17)
        cov = cov_stationary_increments(f, grid)
        assert cov.sampler == "circulant"
        R = _dense_stationary_R(f, grid)
        n = 20_000
        X = all_paths(cov, 1, n, seed)[:, :, 0]
        S = X.T @ X / n
        stderr = np.sqrt((np.outer(np.diag(R), np.diag(R)) + R**2) / n)
        assert np.max(np.abs(S - R) / stderr) <= 4.0

    def test_negative_start_variance_rejected(self):
        # the embedding passes, but Var(B(a) | increments) = -0.249
        with pytest.raises(PSDError, match="increments"):
            cov_stationary_increments(LogScale(1.0), np.linspace(0.2, 0.5, 17))

    def test_paths_independent_of_n_paths_and_chunk(self):
        f = PowerScale(0.75)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 40))
        chunk = gp_sim._PATH_CHUNK
        big = all_paths(cov, 2, 3 * chunk + 1, 17)
        one = all_paths(cov, 2, 1, 17)
        some = all_paths(cov, 2, chunk + 5, 17)
        assert one[0].tobytes() == big[0].tobytes()
        assert some.tobytes() == big[: chunk + 5].tobytes()

    def test_dense_R_never_built(self, monkeypatch):
        def boom(*_):
            raise AssertionError("dense R built on the circulant path")

        monkeypatch.setattr(gp_sim, "_stationary_R", boom)
        cov = cov_stationary_increments(PowerScale(0.5), np.linspace(0.9, 1.0, 512))
        all_paths(cov, 3, 10, 1)
        assert cov.sampler == "circulant" and cov._R is None and cov._chol is None

    def test_selection_rule(self):
        f = PowerScale(0.5)
        assert cov_stationary_increments(f, np.linspace(0.2, 1.0, 64)).sampler == "circulant"
        bent = np.linspace(0.2, 1.0, 64)
        bent[10] += 1e-6
        assert cov_stationary_increments(f, bent).sampler == "cholesky"
        assert cov_stationary_increments(f, np.array([0.2, 1.0])).sampler == "cholesky"
        assert cov_volterra(f, np.linspace(0.2, 1.0, 16)).sampler == "cholesky"

    def test_certificates(self):
        f = PowerScale(0.5)
        circ = cov_stationary_increments(f, np.linspace(0.2, 1.0, 64)).certificate()
        assert set(circ) == {"sampler", "min_embedding_eig", "start_cond_var"}
        # Brownian increments are white, and B(a) is independent of them
        assert circ["min_embedding_eig"] == pytest.approx(1.0)
        assert circ["start_cond_var"] == pytest.approx(0.2)
        chol = cov_volterra(f, np.linspace(0.2, 1.0, 16)).certificate()
        # Brownian kernels are constant, so doubling the order changes
        # R only by round-off
        assert chol == {
            "sampler": "cholesky",
            "jitter_used": 0.0,
            "quad_rel_change": pytest.approx(0.0, abs=1e-14),
        }

    @pytest.mark.parametrize("f", [PowerScale(0.3), PowerScale(0.9), ExpLogScale(0.3)])
    def test_levinson_matches_scipy(self, f):
        from scipy.linalg import solve_toeplitz

        h = 0.4 / 63
        g2 = f.gamma2(h * np.arange(65))
        col = 0.5 * (g2[1:-1] - 2.0 * g2[:-2] + np.concatenate([[g2[1]], g2[:-3]]))
        rhs = np.random.default_rng(3).standard_normal(col.size)
        got = gp_sim._levinson(col, rhs)
        want = solve_toeplitz(col, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestConditionalVariance:
    def test_two_point_lnd_stable_under_refinement(self):
        # min over near pairs of Var(B(t)|B(s)) / gamma^2(|t-s|) stays
        # positive and moves by less than a factor 5 as the grid refines x4;
        # windows are kept narrow enough that the stationary model is PSD
        from gpfractal.scale import ExpLogScale, LogScale, PowerLogScale

        cases = [
            (PowerScale(0.3), 0.2, 1.0),
            (PowerScale(0.5), 0.2, 1.0),
            (PowerScale(0.75), 0.2, 1.0),
            (PowerLogScale(0.3, 1.0), 0.006, 0.028),
            (ExpLogScale(0.3), 0.1, 0.5),
            (ExpLogScale(0.7), 0.1, 0.5),
            (LogScale(1.0), 0.2, 0.3),
        ]
        for f, lo, hi in cases:
            mins = []
            for n in (64, 256):
                grid = np.linspace(lo, hi, n)
                R = cov_stationary_increments(f, grid).R
                # Var(B(t_{i+1}) | B(t_i)) = R[j, j] - R[i, j]^2 / R[i, i], j = i + 1
                i = np.arange(n - 1)
                v = R[i + 1, i + 1] - R[i, i + 1] ** 2 / R[i, i]
                mins.append(float(np.min(v / f.gamma2(grid[i + 1] - grid[i]))))
            assert mins[0] > 0 and mins[1] > 0, f.name
            assert max(mins) / min(mins) < 5.0, f.name

    def test_psd_rejection_for_non_negative_type(self):
        # gamma^2 = r^0.6 / log^2(1/r) is not of negative type on a wide
        # grid: the builder must reject, not silently repair
        from gpfractal.scale import PowerLogScale

        f = PowerLogScale(0.3, -1.0)
        with pytest.raises(PSDError):
            cov_stationary_increments(f, np.linspace(0.1, 0.5, 64))


# a uniform grid (circulant sampler) and a geometric one (Cholesky)
THREAD_GRIDS = {
    "circulant": np.linspace(0.9, 1.0, 300),
    "cholesky": np.geomspace(0.05, 1.0, 300),
}


def _read_gpfb(raw: bytes) -> dict:
    """Independent reader of the GPFB layout: b"GPFB", "<IQQQq" (version,
    n, d, n_paths, seed), the grid, then values[p, i, c] in C order."""
    assert raw[:4] == b"GPFB"
    version, n, d, n_paths, seed = struct.unpack_from("<IQQQq", raw, 4)
    off = 4 + struct.calcsize("<IQQQq")
    assert version == 1 and len(raw) == off + 8 * n * (1 + d * n_paths)
    grid = np.frombuffer(raw, "<f8", n, off)
    values = np.frombuffer(raw, "<f8", n * d * n_paths, off + 8 * n).reshape(n_paths, n, d)
    return {"d": d, "n_paths": n_paths, "seed": seed, "grid": grid, "values": values}


class TestExport:
    """to_binary draws the paths into the GPFB file, and to_csv renders that file."""

    @staticmethod
    def _write(out, cov, d, n_paths, seed, threads=1):
        out.mkdir()
        batch = PathBatch(grid=cov.grid, d=d, n_paths=n_paths, seed=seed)
        bin_path, csv_path = out / "paths.bin", out / "paths.csv"
        batch.to_binary(bin_path, cov, threads)
        batch.to_csv(csv_path, bin_path)
        return bin_path.read_bytes(), csv_path.read_bytes()

    def test_binary_round_trip(self, tmp_path):
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 8))
        raw, _ = self._write(tmp_path / "out", cov, 2, 3, 4)
        back = _read_gpfb(raw)
        assert np.array_equal(back["values"], all_paths(cov, 2, 3, 4))
        assert np.array_equal(back["grid"], cov.grid)
        assert (back["d"], back["n_paths"], back["seed"]) == (2, 3, 4)

    def test_csv_layout(self, tmp_path):
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, np.linspace(0.1, 1.0, 4))
        _, text = self._write(tmp_path / "out", cov, 2, 2, 4)
        lines = text.decode().splitlines()
        assert lines[0] == "path,component,t,value"
        assert len(lines) == 1 + 2 * 2 * 4
        path0, comp0, t0, v0 = lines[1].split(",")
        assert (int(path0), int(comp0)) == (0, 0)
        assert float(v0) == all_paths(cov, 2, 2, 4)[0, 0, 0]

    def test_rejects_another_grid(self, tmp_path):
        cov = cov_stationary_increments(PowerScale(0.5), np.linspace(0.1, 1.0, 4))
        batch = PathBatch(grid=np.linspace(0.2, 1.0, 4), d=1, n_paths=1, seed=0)
        with pytest.raises(ValueError, match="grid"):
            batch.to_binary(tmp_path / "paths.bin", cov)

    @pytest.mark.parametrize("sampler", list(THREAD_GRIDS))
    def test_files_equal_across_threads(self, sampler, tmp_path):
        # 130 paths: 17 circulant chunks of 8 paths, the last of 2, or Cholesky
        # blocks of 64, 64 and 2, written by workers in any order
        cov = cov_stationary_increments(PowerScale(0.5), THREAD_GRIDS[sampler])
        assert cov.sampler == sampler
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            files = [self._write(tmp_path / str(t), cov, 2, 130, 9, t) for t in (1, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert files[0] == files[1]
        raw, text = files[0]
        values = _read_gpfb(raw)["values"]
        assert np.array_equal(values, all_paths(cov, 2, 130, 9))
        # the CSV renders the binary's values, path by path and component by component
        rows = text.decode().splitlines()[1:]
        assert [float(row.rsplit(",", 1)[1]) for row in rows] == (
            values.transpose(0, 2, 1).ravel().tolist())


BLOCK_FAMILIES = [
    PowerScale(0.5),
    PowerScale(0.3),
    PowerLogScale(0.3, 1.0),
    ExpLogScale(0.3),
    LogScale(1.0),
]


def _volterra_reference(f, grid, order):
    """The Volterra R of cov_volterra at one order, written out unblocked:
    the geometric Gauss-Legendre pattern and every pair in one array."""
    x, w = np.polynomial.legendre.leggauss(order)
    pos, wts = [], []
    for j in range(40):
        lo, hi = 2.0 ** -(j + 1), 2.0**-j
        pos.append(lo + 0.5 * (hi - lo) * (x + 1.0))
        wts.append(0.5 * (hi - lo) * w)
    q = 0.5 * (x + 1.0)
    pos.append(2.0**-40 * q**2)
    wts.append(0.5 * w * 2.0**-40 * 2.0 * q)
    p, wts = np.concatenate(pos), np.concatenate(wts)
    n = grid.size
    iu, ju = np.triu_indices(n, k=1)
    m = np.minimum(grid[iu], grid[ju])
    gap = np.abs(grid[iu] - grid[ju])
    X = m[:, None] * p[None, :]
    vals = np.sqrt(f.dgamma2(X)) * np.sqrt(f.dgamma2(gap[:, None] + X))
    R = np.zeros((n, n))
    R[iu, ju] = (m[:, None] * wts[None, :] * vals).sum(axis=1)
    R += R.T
    np.fill_diagonal(R, f.gamma2(grid))
    return R


class TestBlocks:
    """Blocked covariance builds equal unblocked references bit for bit."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("f", BLOCK_FAMILIES, ids=lambda f: f.name)
    def test_stationary_R_matches_unblocked(self, f, block, monkeypatch):
        # None keeps the default strip width, 64; the delta* block and the
        # strips that turn it into R both read metrics._BLOCK_ROWS
        if block is not None:
            monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
        # 2 * 64 + 37 rows: the last strip is partial at either width
        grid = np.sort(np.random.default_rng(5).uniform(0.1, 0.9, 165)) * f.x_max
        assert metrics._BLOCK_ROWS == (block or 64) and grid.size % metrics._BLOCK_ROWS != 0
        assert np.array_equal(gp_sim._stationary_R(f, grid).symmetric(),
                              _dense_stationary_R(f, grid))

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("f", BLOCK_FAMILIES, ids=lambda f: f.name)
    def test_volterra_R_matches_unblocked(self, f, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(gp_sim, "_QUAD_BLOCK", block)
        # 20 points: 190 pairs and rows of up to 19 pairs, neither a
        # multiple of the block
        grid = np.sort(np.random.default_rng(6).uniform(0.1, 0.9, 20)) * f.x_max
        cov = cov_volterra(f, grid)  # checked: R is the doubled order, 16
        assert np.array_equal(cov.R, _volterra_reference(f, grid, 16))
        rel = np.max(np.abs(_volterra_reference(f, grid, 8) - cov.R)) / np.max(np.abs(cov.R))
        assert cov.certificate()["quad_rel_change"] == rel

    def test_volterra_memory_is_bounded(self):
        # unblocked, the 32,640 pairs x 656 nodes temporaries peaked near 1 GB
        grid = np.linspace(1 / 256, 1.0, 256)
        tracemalloc.start()
        try:
            cov_volterra(PowerScale(0.5), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _reference_paths(cov, d, n_paths, seed):
    """Path by path, component by component, from the (seed, p, c) substreams."""
    values = np.empty((n_paths, cov.n, d))
    for c in range(d):
        if cov.sampler == "cholesky":
            Z = np.empty((cov.n, n_paths))
            for p in range(n_paths):
                Z[:, p] = gp_sim._substream(seed, p, c).standard_normal(cov.n)
            values[:, :, c] = (cov.cholesky().dense() @ Z).T
        else:
            circ = cov._circulant
            coef = np.zeros((1, circ.weights.size), dtype=complex)
            for p in range(n_paths):
                z = gp_sim._substream(seed, p, c).standard_normal((1, circ.m + 1))
                circ.paths(z, values[p : p + 1, :, c], coef, np.empty((1, circ.m)))
    return values


class TestThreads:
    """The sampling jobs and their consumers write disjoint slices, so
    no worker count changes a byte."""

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("sampler", list(THREAD_GRIDS))
    def test_sample_paths_equal_across_threads(self, sampler, threads):
        cov = cov_stationary_increments(PowerScale(0.5), THREAD_GRIDS[sampler])
        assert cov.sampler == sampler
        # 97 paths: no chunk size divides them, so the last chunk is partial
        want = _reference_paths(cov, d=3, n_paths=97, seed=23)
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = all_paths(cov, 3, 97, 23, threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_chunk_size_follows_threads(self, monkeypatch):
        jobs, blocks = [], []
        run_jobs = gp_sim._run_jobs

        def counted(job_list, threads):
            jobs.append(len(job_list))
            return run_jobs(job_list, threads)

        def sizes(p0, block):
            blocks.append((p0, len(block)))

        covs = [cov_stationary_increments(PowerScale(0.5), grid) for grid in THREAD_GRIDS.values()]
        monkeypatch.setattr(gp_sim, "_run_jobs", counted)
        for cov in covs:
            size = 8 if cov.sampler == "circulant" else 64
            for threads in (1, 2, 3, 64):
                blocks.clear()
                sample_paths(cov, d=2, n_paths=97, seed=1, threads=threads, consume=sizes)
                # chunks of a fixed size at every worker count, the last one partial
                assert sorted(blocks) == [(p0, min(size, 97 - p0)) for p0 in range(0, 97, size)]
        # one job per worker, min(threads, chunks) of them, each over both
        # components: 13 circulant chunks of 8 paths, 2 Cholesky blocks of 64
        assert jobs == [1, 2, 3, 13] + [1, 2, 2, 2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_circulant_working_set_is_bounded_by_design(self, threads):
        # each worker holds one chunk's block (8, n, d), normals (8, m + 1),
        # rfft coefficients (8, m/2 + 1) complex and irfft output (8, m)
        n, d = 8192, 3
        cov = cov_stationary_increments(PowerScale(0.5), np.linspace(0.9, 1.0, n))
        m = cov._circulant.m
        bound = threads * 8 * 8 * (n * d + 3 * m + 3)
        slack = 2**20
        sample_paths(cov, d=d, n_paths=1, seed=3, consume=_drop)  # NumPy's lazy imports
        peaks = []
        for n_paths in (64, 512):
            tracemalloc.start()
            try:
                sample_paths(cov, d=d, n_paths=n_paths, seed=3, threads=threads, consume=_drop)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound + slack
        # the working set does not grow with the number of paths
        assert abs(peaks[1] - peaks[0]) <= slack

    @pytest.mark.parametrize("sampler", list(THREAD_GRIDS))
    def test_threads_above_cap_rejected_before_any_worker(self, sampler, monkeypatch):
        def boom(*_args, **_kw):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(gp_sim, "ThreadPoolExecutor", boom)
        cov = cov_stationary_increments(PowerScale(0.5), THREAD_GRIDS[sampler])
        with pytest.raises(ValueError, match="threads = 65 exceeds 64"):
            sample_paths(cov, d=2, n_paths=97, seed=1, threads=gp_sim._PATH_CHUNK + 1,
                         consume=_drop)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("sampler", list(THREAD_GRIDS))
    def test_concurrent_consumers_never_exceed_threads(self, sampler, threads):
        cov = cov_stationary_increments(PowerScale(0.5), THREAD_GRIDS[sampler])
        lock = threading.Lock()
        live, peak, seen = [0], [0], []

        def consume(p0, block):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            time.sleep(0.02)  # hold the chunk so that other jobs can start
            seen.append((p0, len(block)))
            with lock:
                live[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sample_paths(cov, d=2, n_paths=97, seed=1, threads=threads, consume=consume)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= peak[0] <= threads
        assert sum(k for _, k in seen) == 97

    def test_path_minima_equal_across_threads(self):
        from gpfractal.fractal_sets import Target
        from gpfractal.hitting import PathMinima

        cov = cov_stationary_increments(PowerScale(0.5), THREAD_GRIDS["circulant"])
        F = Target([{"type": "ball", "center": [0.1, 0.0, 0.0], "radius": 0.2},
                    {"type": "box", "lo": [-0.3, -0.3, 0.0], "hi": [0.0, 0.1, 0.2]}])
        pairs = [(np.arange(300), F), (np.arange(0, 300, 7), F)]
        tables = []
        for threads in (1, 2, 5):
            minima = PathMinima(97, pairs)
            sample_paths(cov, d=3, n_paths=97, seed=4, threads=threads, consume=minima.add)
            tables.append(minima.table)
        assert all(np.array_equal(table, tables[0]) for table in tables[1:])

    def test_job_errors_are_raised(self):
        def boom():
            raise ZeroDivisionError("job failed")

        for threads in (1, 2):
            with pytest.raises(ZeroDivisionError, match="job failed"):
                gp_sim._run_jobs([lambda: 1, boom, lambda: 2], threads)
        assert gp_sim._run_jobs([lambda: 1, lambda: 2, lambda: 3], 2) == [1, 2, 3]


class TestThreadedBuilds:
    """The Volterra rows and the factor's row chunks run as jobs that write
    disjoint entries, so R, L and the certificates never depend on
    ``threads``; the stationary R is built on the calling thread."""

    @staticmethod
    def _builds(threads):
        # a 300-point stationary factor and 96 Volterra rows strided over the jobs
        stationary = cov_stationary_increments(PowerScale(0.4), np.geomspace(0.05, 1.0, 300),
                                               threads)
        volterra = cov_volterra(PowerScale(0.3), np.geomspace(0.01, 1.0, 97), threads=threads)
        return stationary, volterra

    def test_bytes_equal_across_threads(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self._builds(threads) for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0][0].sampler == runs[0][1].sampler == "cholesky"
        for covs in runs[1:]:
            for want, got in zip(runs[0], covs):
                assert np.array_equal(got.cholesky().data, want.cholesky().data)
                assert got.certificate() == want.certificate()
                assert np.array_equal(got.R, want.R)  # rebuilt on the same workers
        assert "quad_rel_change" in runs[0][1].certificate()

    def test_worker_errors_reach_the_caller(self):
        class WorkerBoom(PowerScale):
            def gamma2(self, r):
                if threading.current_thread() is not threading.main_thread():
                    raise ZeroDivisionError("worker failed")
                return super().gamma2(r)

            def dgamma2(self, r):
                return self.gamma2(r)

        f, grid = WorkerBoom(0.5), np.geomspace(0.05, 1.0, 150)
        with pytest.raises(ZeroDivisionError, match="worker failed"):
            cov_volterra(f, grid, threads=2)

    @pytest.mark.parametrize("threads", [0, -1, gp_sim._PATH_CHUNK + 1])
    @pytest.mark.parametrize("grid", [np.linspace(0.1, 1.0, 50), np.geomspace(0.1, 1.0, 50)])
    def test_threads_outside_range_rejected(self, grid, threads):
        with pytest.raises(ValueError, match="threads"):
            cov_stationary_increments(PowerScale(0.5), grid, threads)
        with pytest.raises(ValueError, match="threads"):
            cov_volterra(PowerScale(0.5), grid, threads=threads)

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("spec", ["power:H=0.5", "logscale:beta=1.0", "explog:alpha=0.3"])
    def test_stationary_temporaries_are_bounded_by_design(self, spec, n, monkeypatch):
        def no_jobs(jobs, threads):
            raise AssertionError("the stationary build ran worker jobs")

        monkeypatch.setattr(gp_sim, "_run_jobs", no_jobs)
        f = parse_scale_spec(spec)
        grid = np.geomspace(0.05, 1.0, n) * f.x_max
        tracemalloc.start()
        try:
            R = gp_sim._stationary_R(f, grid)
            extra = tracemalloc.get_traced_memory()[1] - R.data.nbytes
        finally:
            tracemalloc.stop()
        # the delta* strips, gamma's temporaries on them and one strip of
        # g2(s) + g2(t): 1.87-3.79 strips measured, the same on every run
        assert extra <= 5 * metrics._BLOCK_ROWS * n * 8


def _serial_factor(R):
    """The blocked factor with one LU solve per panel and no jobs: L in the
    lower triangle, written out as an accuracy baseline."""
    A, n, b = R.copy(), R.shape[0], gp_sim._CHOL_BLOCK
    for j0 in range(0, n, b):
        j1 = min(j0 + b, n)
        blk, panel = A[j0:j1, j0:j1], A[j1:, j0:j1]
        blk[...] = np.linalg.cholesky(np.tril(blk) + np.tril(blk, -1).T)
        panel[...] = np.linalg.solve(blk, panel.T).T
        for k0 in range(j1, n, b):
            k1 = min(k0 + b, n)
            upd = panel[k0 - j1 :] @ panel[k0 - j1 : k1 - j1].T
            A[k0:k1, k0:k1] -= np.tril(upd[: k1 - k0])
            A[k1:, k0:k1] -= upd[k1 - k0 :]
    return np.tril(A)


def _normalized_residual(L, R):
    """max |L L^T - R|_ij / sqrt(R_ii R_jj) for a lower triangular L, a row block at a time."""
    n, b = R.shape[0], gp_sim._CHOL_BLOCK
    d = np.sqrt(np.diag(R))
    worst = 0.0
    for r0 in range(0, n, b):
        r1 = min(r0 + b, n)
        err = L[r0:r1, :r1] @ L[:, :r1].T - R[r0:r1]
        worst = max(worst, float(np.max(np.abs(err) / np.outer(d[r0:r1], d))))
    return worst


def _copy(P):
    """A second packed store with P's bytes."""
    Q = gp_sim._Packed(P.n)
    Q.data[:] = P.data
    return Q


def _rank40_300():
    X = np.random.default_rng(11).standard_normal((300, 40))
    R = X @ X.T
    return 0.5 * (R + R.T)


def _cantor_atoms(n):
    """The first n atoms of a depth-10 Cantor set of delta-dimension 0.6."""
    return build_cantor(PowerScale(0.5), 0.6, 10).atoms[:n]


class TestInPlaceFactor:
    """The blocked factor overwrites R's one buffer with L."""

    @pytest.mark.parametrize("n", [200, 256])
    def test_small_grid_matches_numpy(self, n):
        f = PowerScale(0.3)
        grid = np.geomspace(0.05, 1.0, n)
        cov = cov_stationary_increments(f, grid)
        assert cov.sampler == "cholesky"
        assert np.array_equal(cov.cholesky().dense(),
                              np.linalg.cholesky(_dense_stationary_R(f, grid)))

    @pytest.mark.parametrize("grid", [np.geomspace(0.05, 1.0, 600), _cantor_atoms(1000)],
                             ids=["geometric600", "cantor1000"])
    def test_factor_residual(self, grid):
        assert grid.size % gp_sim._CHOL_BLOCK != 0  # the last block is partial
        cov = cov_stationary_increments(PowerScale(0.5), grid)
        L = cov.cholesky().dense()
        assert cov.jitter_used == 0.0
        assert not np.any(np.triu(L, 1))
        R = cov.R
        assert np.max(np.abs(L @ L.T - R)) <= 1e-13 * np.max(np.abs(R))

    def test_R_read_after_factor_is_rebuilt(self, monkeypatch):
        f = PowerScale(0.75)
        grid = np.geomspace(0.05, 1.0, 600)
        cov = cov_stationary_increments(f, grid)
        assert cov._R is None and cov._chol is not None
        assert np.array_equal(cov.R, _dense_stationary_R(f, grid))
        assert not np.shares_memory(cov.R, cov.cholesky().data)
        # blocks of 7 make a 20-point Volterra factor blocked too
        monkeypatch.setattr(gp_sim, "_CHOL_BLOCK", 7)
        grid = np.sort(np.random.default_rng(6).uniform(0.1, 0.9, 20))
        cov = cov_volterra(f, grid)
        L = cov.cholesky().dense()
        assert np.array_equal(cov.R, _volterra_reference(f, grid, 16))
        assert np.max(np.abs(L @ L.T - cov.R)) <= 1e-13 * np.max(np.abs(cov.R))

    @pytest.mark.parametrize("R", [np.ones((4, 4)), _rank40_300()],
                             ids=["rank1_4x4", "rank40_300x300"])
    def test_singular_R_raises_and_keeps_bytes(self, R):
        # no jitter is added: a singular R is rejected, and R keeps its bytes
        cov = CovMatrix(grid=np.linspace(0.1, 1.0, R.shape[0]), build=R.copy)
        with pytest.raises(PSDError, match="not positive definite"):
            cov.cholesky()
        assert np.array_equal(cov.R, R)
        assert cov.jitter_used == 0.0

    def test_non_psd_raises(self):
        # indefinite in the second block only: the error names that block
        # column, and R keeps its bytes after failing
        n = 300
        R = np.eye(n)
        R[280, 281] = R[281, 280] = 2.0
        grid = np.linspace(0.1, 1.0, n)
        cov = CovMatrix(grid=grid, build=R.copy, label="bogus")
        with pytest.raises(PSDError, match=rf"bogus: .*n=300.* rows 256\.\.299, "
                                           rf"t in \[{grid[256]:.6g}, 1\]"):
            cov.cholesky()
        assert np.array_equal(cov.R, R)

    @pytest.mark.parametrize("n", [300, 513, 600, 1025, 4097])
    def test_bytes_equal_across_threads(self, n):
        # 300: one 44-row panel chunk and a partial last block; 513, 1025 and
        # 4097: each panel ends in a one-row remainder, solved with the chunk
        # before it; 600: a partial last chunk; 4097: a one-wide last block
        R = gp_sim._stationary_R(PowerScale(0.5), np.geomspace(0.05, 1.0, n))
        want = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3, 5):
                A = _copy(R)
                gp_sim._factor_in_place(A, threads)
                digest = hashlib.sha256(A.data).hexdigest()
                want = want or digest
                assert digest == want, threads
                assert not np.any(np.triu(A.dense(), 1))  # zero above the diagonal
                del A
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.75])
    @pytest.mark.parametrize("kind", ["geometric", "cantor"])
    def test_residual_within_twice_one_solve_per_panel(self, kind, H):
        # the Cantor grid is the depth-10 set adapted to H, 1024 atoms
        # reaching down to t = 1e-17; 1025 points end each panel in one row
        f = PowerScale(H)
        grid = (np.geomspace(0.05, 1.0, 1025) if kind == "geometric"
                else build_cantor(f, 0.6, 10).atoms)
        A = gp_sim._stationary_R(f, grid)
        R = A.symmetric()
        gp_sim._factor_in_place(A)
        assert _normalized_residual(A.dense(), R) <= 2 * _normalized_residual(_serial_factor(R), R)

    def test_residual_on_4096_cantor_atoms(self):
        # the bench's dims_cantor grid; one solve per panel gives 3.7e-13,
        # lost in the rows near t = 0
        f = PowerScale(0.5)
        grid = build_cantor(f, 0.6, 12).atoms
        assert grid.size == 4096
        cov = cov_stationary_increments(f, grid)
        L = cov.cholesky().dense()
        assert cov.jitter_used == 0.0
        assert _normalized_residual(L, cov.R) <= 1e-14

    @pytest.mark.parametrize("H", [0.5, 0.75], ids=["h05_bench_dims_cantor", "h075"])
    def test_finest_sibling_variance_is_delta_squared(self, H):
        # depth-12, zeta = 0.6 sets: Var(B(t') - B(t)) = delta^2(t, t') for
        # the 2048 sibling pairs, whose delta^2 is about 1e-12.  The mean of
        # (increment / delta)^2 over pairs is i.i.d. across the 400 (path,
        # component) draws; z read 0.76 (H = 0.5) and 0.89 (H = 0.75), and
        # 389 and 382 on the zeta = 0.5 sets a jittered factor used to sample
        f = PowerScale(H)
        t = build_cantor(f, 0.6, 12).atoms
        assert t.size == 4096
        X = all_paths(cov_stationary_increments(f, t), 2, 200, 3)
        ratio = (X[:, 1::2] - X[:, 0::2]) ** 2 / f.gamma2(t[1::2] - t[0::2])[:, None]
        m = ratio.mean(axis=1).ravel()
        z = (m.mean() - 1.0) / (m.std(ddof=1) / np.sqrt(m.size))
        assert abs(z) <= 4.42

    @pytest.mark.parametrize("width", [1, 12, 16, 44, 256])
    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_panel_solve_matches_triangular_solve(self, width, rows):
        rng = np.random.default_rng(width * 1000 + rows)
        L = np.tril(rng.uniform(-1.0, 1.0, (width, width)) / width) + np.diag(rng.uniform(1, 2, width))
        P = rng.standard_normal((rows, width))
        w = gp_sim._TRSM_LEAF
        inv = [np.linalg.inv(L[c : c + w, c : c + w]) for c in range(0, width, w)]
        X = P.copy()
        gp_sim._solve_panel(X, L, inv, 0, width)
        assert np.max(np.abs(X @ L.T - P)) <= 1e-13
        assert np.allclose(X, np.linalg.solve(L, P.T).T, rtol=1e-12, atol=1e-13)

    def test_memory_is_one_buffer(self):
        n = 2048
        grid = np.geomspace(0.05, 1.0, n)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                cov = cov_stationary_increments(PowerScale(0.5), grid, threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cov.sampler == "cholesky" and cov._R is None
            assert peak < 1.5 * 8 * n * n, threads
            del cov


def _dense_factor_reference(A, threads=1):
    """The in-place factor on a dense n x n A, as it was before the packed
    store, verbatim: the byte reference of the packed factor."""
    n, b = A.shape[0], gp_sim._CHOL_BLOCK
    lower = np.tri(min(n, b), dtype=bool)
    for j0 in range(0, n, b):
        j1 = min(j0 + b, n)
        blk, low, left = A[j0:j1, j0:j1], lower[: j1 - j0, : j1 - j0], A[j0:j1, :j0]
        np.subtract(blk, left @ left.T, out=blk, where=low)
        # the updated lower triangle, mirrored: the block of R - L L^T so far
        try:
            L11 = np.linalg.cholesky(np.where(low, blk, blk.T))
        except np.linalg.LinAlgError:
            raise gp_sim._BlockError(j0, j1) from None
        blk[:] = L11
        A[j0:j1, j1:] = 0.0
        if j1 == n:
            return
        inv = [np.linalg.inv(L11[c : c + gp_sim._TRSM_LEAF, c : c + gp_sim._TRSM_LEAF])
               for c in range(0, j1 - j0, gp_sim._TRSM_LEAF)]

        def solve(r0, r1):
            rows = A[r0:r1, j0:j1] - A[r0:r1, :j0] @ left.T
            gp_sim._solve_panel(rows, L11, inv, 0, j1 - j0)
            A[r0:r1, j0:j1] = rows

        cuts = [*range(j1, n, b), n]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            del cuts[-2]
        gp_sim._run_jobs([partial(solve, r0, r1) for r0, r1 in zip(cuts, cuts[1:])], threads)


class TestPackedStore:
    """R and L live as packed lower triangles with the bytes of the dense
    n x n arrays they replace, in memory bounded by the packed size."""

    @pytest.mark.parametrize("n", [255, 256, 257, 513, 1025, 2049])
    @pytest.mark.parametrize("H", [0.3, 0.75])
    def test_stationary_factor_matches_dense(self, H, n):
        # 257, 513, 1025 and 2049 end in a one-row tail, merged into the
        # last block row; 256 and 255 are one block row, full and partial
        f = PowerScale(H)
        grid = np.geomspace(0.05, 1.0, n)
        want = _dense_stationary_R(f, grid)
        _dense_factor_reference(want)
        for threads in (1, 2, 3):
            cov = cov_stationary_increments(f, grid, threads)
            assert cov.sampler == "cholesky"
            assert np.array_equal(cov.cholesky().dense(), want), threads

    @pytest.mark.parametrize("n", [300, 513])
    def test_volterra_factor_matches_dense(self, n):
        cov = cov_volterra(PowerScale(0.3), np.linspace(1 / n, 1.0, n), threads=2)
        want = cov.R  # rebuilt, and pinned to the unblocked build by TestBlocks
        _dense_factor_reference(want)
        assert np.array_equal(cov.cholesky().dense(), want)

    def test_cantor_factor_matches_dense(self):
        # the bench's dims_cantor grid: 4096 atoms of a depth-12 zeta = 0.6 set
        f = PowerScale(0.5)
        cov = cov_stationary_increments(f, build_cantor(f, 0.6, 12).atoms, threads=2)
        want = cov.R
        _dense_factor_reference(want, 2)
        assert np.array_equal(cov.cholesky().dense(), want)

    @pytest.mark.parametrize("n_paths", [97, 130])
    @pytest.mark.parametrize("n", [513, 600])
    def test_paths_match_one_dense_product(self, n, n_paths):
        # the panels of the block rows give the bytes of one L @ Z over the dense L
        cov = cov_stationary_increments(PowerScale(0.5), np.geomspace(0.05, 1.0, n))
        want = _reference_paths(cov, d=2, n_paths=n_paths, seed=19)
        for threads in (1, 2):
            assert np.array_equal(all_paths(cov, 2, n_paths, 19, threads), want), threads

    def test_store_layout(self):
        # block rows of _CHOL_BLOCK rows, columns 0:r1, the one-row tail merged
        P = gp_sim._Packed(513)
        assert [(r0, r1, rows.shape) for r0, r1, rows in P.blocks] == [
            (0, 256, (256, 256)), (256, 513, (257, 513))]
        assert P.data.size == 256 * 256 + 257 * 513
        assert np.shares_memory(P.rows(512, 513), P.data)
        R = _dense_stationary_R(PowerScale(0.5), np.geomspace(0.05, 1.0, 513))
        packed = gp_sim._Packed.from_dense(R)
        assert np.array_equal(packed.symmetric(), R)
        assert np.array_equal(packed.dense(), np.tril(R))

    def test_stationary_build_and_factor_are_bounded_by_design(self):
        # the store, n (n + 256) / 2 floats, and at most five 64-row strips
        # beside it: an n x n temporary would need 0.6 n^2 more
        n = 2048
        grid = np.geomspace(0.05, 1.0, n)
        tracemalloc.start()
        try:
            cov = cov_stationary_increments(PowerScale(0.5), grid, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cov.sampler == "cholesky" and cov._R is None
        assert peak <= 8 * (n * (n + 257) // 2 + 5 * 64 * n)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cholesky_working_set_is_bounded_by_design(self, threads):
        # each worker holds one block (64, n, d), the normals Z and L @ Z
        # (n, 64) and one block-row panel (256, n)
        n, d = 2048, 3
        cov = cov_stationary_increments(PowerScale(0.5), np.geomspace(0.05, 1.0, n))
        sample_paths(cov, d=d, n_paths=1, seed=3, consume=_drop)  # NumPy's lazy imports
        for n_paths in (64, 130):
            workers = min(threads, -(-n_paths // 64))
            tracemalloc.start()
            try:
                sample_paths(cov, d=d, n_paths=n_paths, seed=3, threads=threads, consume=_drop)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * workers * (64 * n * d + (2 * 64 + 257) * n) * 8, n_paths
