from __future__ import annotations

import math
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from conftest import all_paths
from oracles import bm_box_hit_1d

from gpfractal.fractal_sets import Target, TimeSet, build_cantor
from gpfractal.gp_sim import cov_stationary_increments, cov_volterra, sample_paths
from gpfractal.hitting import (
    OutOfModelError,
    PathMinima,
    _hit_counts,
    add_sandwich_terms,
    check_hit_instance,
    grid_tolerance_guard,
    hausdorff_content_estimate,
    hit_probability_mc,
    sandwich_report,
    small_ball_sweep,
    wilson_interval,
)
from gpfractal.metrics import AtomRows
from gpfractal.scale import LogScale, PowerScale


BOX = [{"type": "box", "lo": [-1.0], "hi": [1.0]}]


def _hit(scale, cov, E, F, d, tol, n_paths, seed, **kw):
    """The one report of a single checked instance, without the sandwich terms."""
    inst = check_hit_instance(scale, cov.grid, E, F, d, tol)
    (rep,) = hit_probability_mc(cov, [inst], d, n_paths, seed, **kw)
    return rep


def _filled(values, pairs):
    """A PathMinima filled from every path's values in one add."""
    minima = PathMinima(len(values), pairs)
    minima.add(0, values)
    return minima


@pytest.fixture(scope="module")
def brownian_setup():
    scale = PowerScale(0.5)
    grid = np.linspace(0.2, 1.0, 512)
    cov = cov_stationary_increments(scale, grid)
    return scale, grid, cov


class TestWilson:
    def test_basic_shape(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_coverage_on_known_bernoulli(self):
        # 95% interval covers p = 0.3 in at least 90 of 100 seeded reps
        p = 0.3
        n = 500
        covered = 0
        for rep in range(100):
            g = np.random.Generator(np.random.Philox(key=np.array([rep, 77], dtype=np.uint64)))
            k = int(np.sum(g.uniform(size=n) < p))
            lo, hi = wilson_interval(k, n)
            covered += lo <= p <= hi
        assert covered >= 90

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestHitProbability:
    def test_guard_rejects_small_tol(self, brownian_setup):
        scale, grid, cov = brownian_setup
        with pytest.raises(ValueError, match="grid too coarse"):
            check_hit_instance(scale, grid, (0.2, 1.0), BOX, 1, 1e-6)

    def test_E_without_grid_points_rejected(self, brownian_setup):
        scale, grid, cov = brownian_setup
        with pytest.raises(OutOfModelError, match="no grid points"):
            check_hit_instance(scale, grid, (0.05, 0.1), BOX, 1, 1.0)

    def test_cantor_atoms_off_the_grid_rejected(self):
        # depth 8 puts 256 atoms in (0, 1); none may be moved to a grid time
        scale = PowerScale(0.5)
        cs = build_cantor(scale, 0.5, 8)
        grid = np.linspace(0.2, 1.0, 4096)
        with pytest.raises(OutOfModelError, match="atoms off the grid"):
            TimeSet.of(cs, scale).grid_indices(grid)
        with pytest.raises(OutOfModelError, match="atoms off the grid"):
            check_hit_instance(scale, grid, cs, BOX, 1, 10.0)

    def test_cantor_atoms_on_the_grid_map_to_their_indices(self):
        scale = PowerScale(0.5)
        cs = build_cantor(scale, 0.5, 4, eps0=0.8)
        atoms = cs.atoms
        grid = np.unique(np.concatenate([atoms, np.linspace(0.01, 0.8, 50)]))
        want = np.searchsorted(grid, atoms)
        assert np.array_equal(grid[want], atoms)
        assert np.array_equal(TimeSet.of(cs, scale).grid_indices(grid), want)
        inst = check_hit_instance(scale, grid, cs, BOX, 1, 10.0)
        assert np.array_equal(inst.e_idx, want)

    def test_chunked_indicator_matches_per_path_loop(self, brownian_setup):
        scale, grid, cov = brownian_setup
        tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), len(grid), 2)
        values = all_paths(cov, 2, 203, 8)
        members = [
            {"type": "ball", "center": [0.5, -0.3], "radius": 0.2},
            {"type": "box", "lo": [-0.9, 0.4], "hi": [-0.6, 0.8]},
        ]
        e_idx = np.flatnonzero((grid >= 0.3 - 1e-12) & (grid <= 0.7 + 1e-12))
        targets = (members[:1], members[1:], members)
        instances = [check_hit_instance(scale, grid, (0.3, 0.7), F, 2, tol) for F in targets]
        reps = hit_probability_mc(cov, instances, d=2, n_paths=203, seed=8)
        for F, rep in zip(targets, reps):
            want = sum(
                float(np.min(Target(F).distance(values[p][e_idx]))) <= tol
                for p in range(203)
            )
            assert 0 < want < 203
            assert rep.extras["hits"] == want
            assert repr(rep) == repr(_hit(scale, cov, (0.3, 0.7), F, 2, tol, 203, 8))

    def test_everything_window_hits_surely(self, brownian_setup):
        scale, grid, cov = brownian_setup
        tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), len(grid), 1)
        rep = _hit(scale, cov, (0.2, 1.0), [{"type": "box", "lo": [-50.0], "hi": [50.0]}],
                   1, tol, 50, 2)
        assert rep.p_hat == 1.0

    def test_monotone_in_F_and_tol_at_fixed_seed(self, brownian_setup):
        scale, grid, cov = brownian_setup
        tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), len(grid), 1)
        small = {"type": "box", "lo": [1.0], "hi": [1.3]}
        big = {"type": "box", "lo": [0.8], "hi": [1.5]}
        # one pass over the paths of seed 3 serves all three instances
        instances = [check_hit_instance(scale, grid, (0.2, 1.0), [F], 1, t)
                     for F, t in ((small, tol), (big, tol), (small, 2 * tol))]
        p_small, p_big, p_tol = (rep.p_hat for rep in hit_probability_mc(
            cov, instances, d=1, n_paths=400, seed=3))
        assert p_small <= p_big
        assert p_small <= p_tol

    def test_point_target_d1_positive_and_stable(self, brownian_setup):
        # Brownian-like paths hit points in d = 1: p_hat stays positive
        # and roughly stable as tol halves with grid refinement
        scale = PowerScale(0.5)
        estimates = []
        for n in (512, 2048):
            grid = np.linspace(0.2, 1.0, n)
            cov = cov_stationary_increments(scale, grid)
            tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), n, 1)
            rep = _hit(scale, cov, (0.2, 1.0),
                       [{"type": "ball", "center": [0.4], "radius": 1e-9}], 1, tol, 600, 4)
            estimates.append(rep.p_hat)
        assert estimates[0] > 0.3
        assert estimates[1] > 0.3
        assert abs(estimates[0] - estimates[1]) < 0.15


def _members(d, rng):
    c = rng.normal(scale=0.3, size=d)
    lo = rng.normal(scale=0.3, size=d)
    return [
        {"type": "ball", "center": c.tolist(), "radius": 0.2},
        {"type": "ball", "center": c.tolist(), "radius": 0.4},
        {"type": "box", "lo": lo.tolist(), "hi": (lo + 0.3).tolist()},
    ]


def _norm_distance(F_members, pts):
    """Distance to a union of members via np.linalg.norm, written out here."""
    best = np.full(len(pts), np.inf)
    for m in F_members:
        if m["type"] == "ball":
            dist = np.maximum(np.linalg.norm(pts - np.array(m["center"]), axis=1) - m["radius"], 0)
        else:
            lo, hi = np.array(m["lo"]), np.array(m["hi"])
            dist = np.linalg.norm(np.maximum(np.maximum(lo - pts, pts - hi), 0.0), axis=1)
        best = np.minimum(best, dist)
    return best


class TestPathMinima:
    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_minima_equal_per_point_distances(self, brownian_setup, rng, d):
        scale, grid, cov = brownian_setup
        values = all_paths(cov, d, 37, 11)
        members = _members(d, rng)
        e_sets = [np.arange(len(grid)), np.flatnonzero(grid <= 0.5), np.arange(3, 400, 7)]
        targets = [members[:1], members[1:2], members[2:], members]
        pairs = [(e, Target(F)) for e in e_sets for F in targets]
        minima = _filled(values, pairs)
        # two ball radii share one center: one column per (E, core)
        assert minima.table.shape == (37, len(e_sets) * 2)
        for e_idx, F in pairs:
            got = minima.distance(e_idx, F)
            want = [F.distance(values[p][e_idx]).min() for p in range(37)]
            assert np.array_equal(got, want)
            if d <= 7:
                spec = F.spec
                norm = [_norm_distance(spec, values[p][e_idx]).min() for p in range(37)]
                assert np.array_equal(got, norm)

    def test_plan_refuses_a_table_above_the_budget(self, monkeypatch):
        # two E sets and a ball and a box on each: 4 columns of 8 bytes
        import gpfractal.hitting as hitting

        F = Target([{"type": "ball", "center": [0.0], "radius": 0.1},
                    {"type": "box", "lo": [0.2], "hi": [0.3]}])
        pairs = [(np.arange(5), F), (np.arange(3), F), (np.arange(5), F)]
        monkeypatch.setattr(hitting, "_TABLE_BYTES", 32 * 1000)
        column, sets = PathMinima.plan(1000, pairs)
        assert len(column) == 4 and len(sets) == 2
        with pytest.raises(OutOfModelError, match="n_paths = 1001 needs"):
            PathMinima.plan(1001, pairs)
        with pytest.raises(OutOfModelError, match="n_paths = 1001 needs"):
            PathMinima(1001, pairs)

    def test_battery_hits_equal_per_instance_counts(self, brownian_setup, rng):
        scale, grid, cov = brownian_setup
        tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), len(grid), 3)
        values = all_paths(cov, 3, 120, 12)
        instances = [((0.2, 1.0), [{"type": "ball", "center": [0.5, 0, 0], "radius": r}])
                     for r in (0.05, 0.1, 0.3)]
        instances += [((0.3, 0.7), _members(3, rng)), ((0.2, 1.0), _members(3, rng)[2:])]
        checked = [check_hit_instance(scale, grid, E, F, 3, tol) for E, F in instances]
        reps = hit_probability_mc(cov, checked, d=3, n_paths=120, seed=12)
        for (E, F), inst, shared in zip(instances, checked, reps):
            alone = _hit(scale, cov, E, F, 3, tol, 120, 12)
            want = sum(_norm_distance(F, values[p][inst.e_idx]).min() <= tol
                       for p in range(120))
            assert shared.extras["hits"] == alone.extras["hits"] == want


STREAM_GRIDS = {
    "circulant": np.linspace(0.9, 1.0, 300),
    "cholesky": np.geomspace(0.05, 1.0, 300),
}


@lru_cache(maxsize=None)
def _stream_cov(sampler):
    cov = cov_stationary_increments(PowerScale(0.5), STREAM_GRIDS[sampler])
    assert cov.sampler == sampler
    return cov


class TestStreamedMinima:
    """Paths streamed chunk by chunk fill the table a whole batch fills."""

    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("sampler", list(STREAM_GRIDS))
    def test_streamed_table_equals_batch_table(self, sampler, threads, n_paths):
        cov = _stream_cov(sampler)
        F = Target([{"type": "ball", "center": [0.1, 0.0, 0.0], "radius": 0.2},
                    {"type": "box", "lo": [-0.3, -0.3, 0.0], "hi": [0.0, 0.1, 0.2]}])
        pairs = [(np.arange(300), F), (np.arange(0, 300, 7), F)]
        want = _filled(all_paths(cov, 3, n_paths, 31), pairs).table
        minima = PathMinima(n_paths, pairs)
        blocks = []

        def consume(p0, block):
            blocks.append((p0, len(block)))
            minima.add(p0, block)

        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_paths(cov, d=3, n_paths=n_paths, seed=31, threads=threads,
                                 consume=consume)
        finally:
            sys.setswitchinterval(interval)
        assert batch.n_paths == n_paths and not hasattr(batch, "values")
        assert minima.table.tobytes() == want.tobytes()
        # the blocks partition the paths; a circulant chunk holds at most 8
        # paths, a Cholesky block at most 64, at every worker count
        assert sorted(p for p0, k in blocks for p in range(p0, p0 + k)) == list(range(n_paths))
        bound = 8 if sampler == "circulant" else 64
        assert max(k for _, k in blocks) <= bound

    def test_streamed_hit_memory_does_not_grow_with_paths(self):
        # a batch of 256 more paths would hold 256 * 4096 * 3 floats, 25 MB
        scale = PowerScale(0.5)
        cov = cov_stationary_increments(scale, np.linspace(0.9, 1.0, 4096))
        F = [{"type": "ball", "center": [0.5, 0.0, 0.0], "radius": 0.1}]
        peaks = []
        for n_paths in (256, 512):
            tracemalloc.start()
            try:
                _hit(scale, cov, (0.9, 1.0), F, 3, 0.2, n_paths, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1e6

    def test_volterra_hit_memory_does_not_grow_with_paths(self):
        # the Cholesky sampler: 256 more paths held at once would be
        # 256 * 256 * 4 floats, 2.1 MB, and their normals 0.5 MB more
        scale = PowerScale(0.5)
        grid = np.linspace(0.5, 1.0, 256)
        cov = cov_volterra(scale, grid)
        tol = grid_tolerance_guard(scale, float(grid[1] - grid[0]), grid.size, 4)
        F = [{"type": "ball", "center": [0.5, 0.0, 0.0, 0.0], "radius": 0.1}]
        peaks = []
        for n_paths in (256, 512):
            tracemalloc.start()
            try:
                _hit(scale, cov, (0.5, 1.0), F, 4, tol, n_paths, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1e6

    def test_small_ball_sweep_memory_does_not_grow_with_paths(self):
        # a batch of 256 more paths would hold 256 * 4096 * 2 floats, 17 MB
        scale = PowerScale(0.5)
        cov = cov_stationary_increments(scale, np.linspace(0.9, 1.0, 4096))
        peaks = []
        for n_paths in (256, 512):
            tracemalloc.start()
            try:
                small_ball_sweep(cov, 0.95, [0.1, 0.05, 0.02], np.zeros(2), d=2,
                                 n_paths=n_paths, seed=3, scale=scale)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1e6


class TestSmallBall:
    def test_trivial_large_radius(self, brownian_setup):
        scale, grid, cov = brownian_setup
        (rep,) = small_ball_sweep(
            cov, 0.5, [5.0], np.zeros(1), d=1, n_paths=100, seed=5, scale=scale
        )
        assert rep.p_hat == 1.0
        assert rep.ref_r_d == 5.0

    def test_empty_ball_rejected(self):
        scale = PowerScale(0.5)
        grid = np.linspace(0.2, 1.0, 16)
        cov = cov_stationary_increments(scale, grid)
        with pytest.raises(ValueError, match="empty delta-ball"):
            small_ball_sweep(
                cov, 0.53, [0.5, 1e-8], np.zeros(1), d=1, n_paths=10, seed=5, scale=scale
            )

    def test_hits_equal_per_path_loop(self, brownian_setup):
        scale, grid, cov = brownian_setup
        values = all_paths(cov, 2, 300, 7)
        z = np.array([0.1, -0.2])
        radii = (0.1, 0.2, 0.4)
        reps = small_ball_sweep(cov, 0.5, radii, z, d=2, n_paths=300, seed=7, scale=scale)
        for r, rep in zip(radii, reps):
            idx = np.flatnonzero(scale.gamma(np.abs(grid - 0.5)) <= r)
            want = sum(np.min(np.linalg.norm(values[p][idx] - z, axis=1)) <= r
                       for p in range(300))
            assert 0 < want < 300
            assert rep.p_hat == want / 300
            assert rep.n_ball_points == idx.size
            (alone,) = small_ball_sweep(cov, 0.5, [r], z, d=2, n_paths=300, seed=7, scale=scale)
            assert repr(alone) == repr(rep)

    def test_sweep_monotone_in_radius(self, brownian_setup):
        scale, grid, cov = brownian_setup
        reps = small_ball_sweep(
            cov, 0.5, [0.4, 0.2, 0.1], np.zeros(2), d=2, n_paths=2000, seed=6,
            scale=scale,
        )
        ps = [r.p_hat for r in reps]
        assert ps[0] >= ps[1] >= ps[2]
        assert all(r.ref_fgamma_d >= r.ref_r_d for r in reps)

    @pytest.mark.parametrize(
        "scale, grid, r",
        [
            # criterion 5's logscale grid: the ball is |s - t0| <= exp(-1/r)
            (LogScale(1.0), np.linspace(0.2, 0.3, 257), 2.0**-4),
            (PowerScale(0.5), np.linspace(0.05, 1.0, 20), 0.2),
        ],
        ids=["logscale", "power"],
    )
    def test_one_point_ball_matches_exact(self, scale, grid, r):
        # a delta-ball holding one grid point t_k: the event is |B(t_k)| <= r,
        # and |B(t_k)|^2 / gamma^2(t_k) is chi-square with 2 degrees of freedom
        k = grid.size // 2
        t0, n = float(grid[k]), 20_000
        cov = cov_stationary_increments(scale, grid)
        (rep,) = small_ball_sweep(cov, t0, [r], np.zeros(2), d=2, n_paths=n, seed=41,
                                  scale=scale)
        assert rep.n_ball_points == 1
        p = -math.expm1(-(r**2) / (2.0 * float(scale.gamma2(t0))))
        # p lies in the Wilson interval of p_hat at z = 4.42 exactly when
        # the score statistic is at most 4.42
        assert abs(rep.p_hat - p) <= 4.42 * math.sqrt(p * (1.0 - p) / n)


def _content(times, f_pts, s_exponent, scale, menu_depth=8):
    """hausdorff_content_estimate over the atoms times x f_pts."""
    return hausdorff_content_estimate(AtomRows(scale, times, f_pts), s_exponent,
                                      menu_depth=menu_depth)


class TestContent:
    def test_single_ball_cover_bound(self):
        scale = PowerScale(0.5)
        times = np.linspace(0.5, 0.5004, 8)  # delta-diameter 0.02
        f_pts = np.zeros((1, 2))
        content = _content(times, f_pts, 2.0, scale)
        diam = scale.gamma(0.0004)
        assert content <= (2.0 * diam) ** 2 + 1e-12

    def test_menu_refinement_never_increases(self):
        scale = PowerScale(0.5)
        times = np.linspace(0.2, 1.0, 24)
        f_pts, _ = Target([{"type": "box", "lo": [0.0, 0.0], "hi": [0.4, 0.4]}]).lattice()
        vals = [
            _content(times, f_pts, 2.5, scale, menu_depth=d)
            for d in (2, 4, 6)
        ]
        assert vals[0] >= vals[1] >= vals[2]

    def test_vanishes_above_product_dimension(self):
        # s far above dim_rho(E x F): content heads to 0 as the menu refines
        scale = PowerScale(0.5)
        times = np.linspace(0.2, 1.0, 32)
        f_pts = np.zeros((1, 1))
        coarse = _content(times, f_pts, 6.0, scale, menu_depth=2)
        fine = _content(times, f_pts, 6.0, scale, menu_depth=7)
        assert fine < 0.25 * coarse


class TestBrownianOracle:
    """p_hat against the exact hitting probability of Brownian motion,
    power:H=0.5, on E = [0.9, 1] (B(0.9) ~ N(0, 0.9), then 0.1 of time)."""

    GRIDS = {
        "circulant": np.linspace(0.9, 1.0, 8192),
        "cholesky": np.geomspace(0.9, 1.0, 2048),
    }
    BOXES = [(1.0, 1.1), (-1.3, -1.2), (0.5, 0.6), (2.0, 2.05)]
    N_PATHS, Z = 4000, 4.42

    @pytest.mark.parametrize("sampler", sorted(GRIDS))
    def test_box_hits_match_reflection(self, sampler):
        scale, grid = PowerScale(0.5), self.GRIDS[sampler]
        cov = cov_stationary_increments(scale, grid)
        assert cov.sampler == sampler
        n, seed = self.N_PATHS, 21
        tol = grid_tolerance_guard(scale, float(np.max(np.diff(grid))), grid.size, 1)
        targets = [[{"type": "box", "lo": [lo], "hi": [hi]}] for lo, hi in self.BOXES]
        instances = [check_hit_instance(scale, grid, (0.9, 1.0), F, 1, tol) for F in targets]
        reports = hit_probability_mc(cov, instances, 1, n, seed, threads=2)
        hits = _hit_counts(cov, [(inst.e_idx, inst.F, 0.0) for inst in instances], 1, n, seed,
                           threads=2)
        for (lo, hi), rep, k in zip(self.BOXES, reports, hits):
            # at tol = guard the estimate is of the fattened box [lo - tol, hi + tol]
            p = bm_box_hit_1d(0.9, 1.0, lo - tol, hi + tol)
            assert abs(rep.p_hat - p) <= self.Z * math.sqrt(p * (1 - p) / n)
            # at tol = 0 a grid misses the crossings between its points, never adds one
            p = bm_box_hit_1d(0.9, 1.0, lo, hi)
            assert k / n <= p + self.Z * math.sqrt(p * (1 - p) / n)


class TestSandwich:
    def test_terms_increase_with_the_ball(self):
        # capacity and content are monotone set functions, so a term that
        # ignores F (a constant, say) fails here
        scale = PowerScale(0.5)
        grid = np.linspace(0.9, 1.0, 1024)
        tol = grid_tolerance_guard(scale, float(grid[1] - grid[0]), grid.size, 3)
        cov = cov_stationary_increments(scale, grid)
        instances = [
            check_hit_instance(scale, grid, (0.9, 1.0),
                               [{"type": "ball", "center": [0.5, 0.0, 0.0], "radius": r}], 3, tol)
            for r in (0.05, 0.1, 0.3)
        ]
        reps = hit_probability_mc(cov, instances, d=3, n_paths=16, seed=1)
        add_sandwich_terms(reps, scale, grid, instances, d=3)
        for terms in ([r.capacity_term for r in reps], [r.content_term for r in reps]):
            assert all(math.isfinite(t) and t > 0 for t in terms)
            assert terms[0] < terms[1] < terms[2]

    def test_battery_too_small(self):
        with pytest.raises(ValueError):
            sandwich_report([], d=1)

    def test_smoke_with_synthetic_reports(self):
        from gpfractal.hitting import HitProbReport

        def rep(p, cap, content, dim_rho):
            lo, hi = wilson_interval(int(p * 1000), 1000)
            return HitProbReport(
                p_hat=p, ci_low=lo, ci_high=hi, n_paths=1000, tol=0.1,
                grid_n=64, E={}, F=[], capacity_term=cap,
                content_term=content, dim_rho_est=dim_rho,
            )

        reports = [rep(0.1 * k, 0.02 * k, 0.5 * k, 4.0) for k in range(1, 7)]
        out = sandwich_report(reports, d=3)
        assert out["pass"]
        assert out["c1_hat"] > 0
        # a critical instance is excluded, not failed
        reports.append(rep(0.5, 0.1, 0.5, 3.05))
        out = sandwich_report(reports, d=3)
        assert out["rows"][-1]["status"] == "critical - no information"

    def test_dichotomy_failure_detected(self):
        from gpfractal.hitting import HitProbReport

        def rep(p, cap):
            lo, hi = wilson_interval(int(p * 1000), 1000)
            return HitProbReport(
                p_hat=p, ci_low=lo, ci_high=hi, n_paths=1000, tol=0.1,
                grid_n=64, E={}, F=[], capacity_term=cap,
                content_term=1.0, dim_rho_est=5.0,
            )

        reports = [rep(0.2, 0.01) for _ in range(5)] + [rep(0.3, 0.0)]
        out = sandwich_report(reports, d=3)
        assert not out["pass"]
        assert out["rows"][-1]["status"] == "fail-dichotomy"
