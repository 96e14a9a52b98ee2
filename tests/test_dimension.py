from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from conftest import all_paths

from gpfractal.dimension import (
    _SCALES,
    _TRIM,
    box_dimension_euclidean,
    default_dyadic_scales,
    dim_delta_estimate,
    dim_rho_product,
    image_dimension_experiment,
)
from gpfractal.fractal_sets import OutOfModelError, TimeSet, build_cantor, gamma_dyadic_count
from gpfractal.gp_sim import cov_stationary_increments
from gpfractal.scale import LogCorrectedScale, LogScale, PowerScale


class TestBoxDimension:
    def test_line_segment(self, rng):
        t = rng.uniform(0, 1, size=4000)
        pts = np.column_stack([t, 0.3 * t + 0.1])
        est = box_dimension_euclidean(pts, default_dyadic_scales(1, 8))
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_single_point(self):
        est = box_dimension_euclidean(np.array([[0.3, 0.4]]), default_dyadic_scales(1, 6))
        assert est.value == 0.0

    def test_degenerate_cloud(self):
        pts = np.tile([0.2, 0.7], (500, 1))
        est = box_dimension_euclidean(pts, default_dyadic_scales(1, 6))
        assert est.value == 0.0

    def test_filled_square(self, rng):
        pts = rng.uniform(0, 1, size=(200_000, 2))
        est = box_dimension_euclidean(pts, default_dyadic_scales(1, 6))
        assert est.value == pytest.approx(2.0, abs=0.1)

    def test_counts_monotone_in_scale(self, rng):
        pts = rng.uniform(0, 1, size=(5000, 2))
        est = box_dimension_euclidean(pts, default_dyadic_scales(0, 8))
        counts = [c for _, c in est.counts]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_needs_four_scales(self):
        with pytest.raises(ValueError):
            box_dimension_euclidean(np.zeros((10, 2)), [0.5, 0.25, 0.125])

    def test_subset_monotonicity(self, rng):
        pts = rng.uniform(0, 1, size=(4000, 2))
        sub = pts[:400]
        scales = default_dyadic_scales(1, 7)
        e_small = box_dimension_euclidean(sub, scales)
        e_big = box_dimension_euclidean(pts, scales)
        assert e_small.value <= e_big.value + 2 * (e_small.stderr + e_big.stderr) + 1e-9


class TestBoxCounts:
    """Occupied-box counts equal the distinct rows of the cell array."""

    @staticmethod
    def _unique_rows(pts, scales):
        return [float(len(np.unique(np.floor(pts / s), axis=0))) for s in sorted(scales)]

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_counts_match_unique_rows(self, rng, d):
        walk = np.cumsum(rng.standard_normal((3000, d)) * 0.02, axis=0)
        scales = default_dyadic_scales(0, 10)
        got = [c for _, c in box_dimension_euclidean(walk, scales).counts]
        assert got == self._unique_rows(walk, scales)

    @pytest.mark.parametrize("spread", [1e6, 1e15, 1e300])
    def test_wide_spans(self, rng, spread):
        # 1e6: nine axes of ~2^33 cells each; 1e15: one axis spans more
        # than 2^53 cells; 1e300: pts / s overflows to +-inf
        pts = rng.standard_normal((2000, 9)) * spread
        scales = default_dyadic_scales(0, 10)
        got = [c for _, c in box_dimension_euclidean(pts, scales).counts]
        assert got == self._unique_rows(pts, scales)

    def test_repeated_rows(self, rng):
        # many points per cell, in shuffled order, with -0.0 and 0.0 cells
        pts = rng.integers(-3, 3, size=(5000, 3)) * 0.5
        pts[::7] *= -1.0
        scales = [0.5, 1.0, 2.0, 4.0]
        got = [c for _, c in box_dimension_euclidean(pts, scales).counts]
        assert got == self._unique_rows(pts, scales)

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            box_dimension_euclidean(np.zeros((0, 2)), default_dyadic_scales(0, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((10, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            box_dimension_euclidean(pts, default_dyadic_scales(0, 5))


class TestDimDelta:
    def test_interval_inverse_holder(self):
        for h in (0.4, 0.5, 0.8):
            est = dim_delta_estimate([(0.2, 1.0)], PowerScale(h), n_range=range(2, 14))
            assert est.value == pytest.approx(1.0 / h, abs=0.05), h

    def test_cantor_by_construction(self):
        f = PowerScale(0.5)
        for zeta in (0.5, 1.0):
            cs = build_cantor(f, zeta, depth=12)
            est = dim_delta_estimate(cs, f)
            assert est.value == pytest.approx(zeta, abs=0.05)

    @pytest.mark.parametrize("E", [[(0.2, 1.0)], [(0.01, 0.5)], "cantor"])
    @pytest.mark.parametrize("h", [0.3, 0.5])
    def test_counts_are_the_covering_table(self, E, h):
        # each reported count is N_n itself, not 2 ** log2(N_n)
        f = PowerScale(h)
        E = build_cantor(f, 0.6, depth=10) if E == "cantor" else E
        est = dim_delta_estimate(E, f)
        table = gamma_dyadic_count(E, range(2, 2 + len(est.counts)), f)
        assert est.counts == table

    def test_shallow_cantor_is_out_of_model(self):
        # depth / zeta = 0 leaves covering levels 2 ... 4 only
        with pytest.raises(OutOfModelError, match="at least 4 covering levels"):
            dim_delta_estimate(build_cantor(PowerScale(0.5), 0.001, depth=0), PowerScale(0.5))

    def test_logscale_divergence_flag(self):
        est = dim_delta_estimate([(0.01, 0.5)], LogScale(1.0), n_range=range(1, 9))
        assert est.diverged
        assert est.value == math.inf

    def test_logcorrected_diverges(self):
        # tile widths underflow from level 9 on; levels 2 ... 8 grow faster
        # than geometrically, as on the log scale
        f = LogCorrectedScale(1.0, 0.5)
        est = dim_delta_estimate([(0.01, 0.1)], f)
        assert est.diverged and est.value == math.inf
        assert est.window == (2, 8)

    def test_window_stability(self):
        # halving the fit window moves the estimate by <= 2 stderr-ish
        f = PowerScale(0.5)
        full = dim_delta_estimate([(0.2, 1.0)], f, n_range=range(2, 14))
        half = dim_delta_estimate([(0.2, 1.0)], f, n_range=range(2, 8))
        assert abs(full.value - half.value) <= 2 * (full.stderr + half.stderr) + 0.02


class TestDimRhoProduct:
    def test_interval_times_box_sandwich(self):
        # dim_delta(E) + dim(F) <= rho-estimate <= same here (equality for
        # an interval and a solid box)
        f = PowerScale(0.5)
        F = [{"type": "box", "lo": [0.0], "hi": [0.2]}]
        est = dim_rho_product([(0.2, 1.0)], F, f, levels=range(4, 11))
        assert est.value == pytest.approx(1.0 / 0.5 + 1.0, abs=0.15)

    def test_ball_member(self):
        f = PowerScale(0.5)
        F = [{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.1}]
        est = dim_rho_product([(0.9, 1.0)], F, f)
        assert est.value == pytest.approx(2.0 + 3.0, abs=0.6)


class TestIntersectionExperiment:
    def test_image_dim_saturates_at_target_dim(self):
        # dim_delta(E) = 2 > d = 1 and F a solid interval: the image
        # intersection fills F, so its dimension tracks dim(F) = 1
        from gpfractal.dimension import intersection_dimension_experiment
        from gpfractal.hitting import grid_tolerance_guard

        f = PowerScale(0.5)
        grid_n = 2048
        tol = grid_tolerance_guard(f, 0.8 / (grid_n - 1), grid_n, 1)
        rep = intersection_dimension_experiment(
            f, (0.2, 1.0), [{"type": "box", "lo": [0.0], "hi": [0.2]}],
            d=1, n_paths=20, tol=tol, seed=31, grid_n=grid_n,
        )
        assert rep.max_image_dim == pytest.approx(1.0, abs=0.2)
        assert rep.hit_paths > 0

    def test_no_hits_flagged(self):
        from gpfractal.dimension import intersection_dimension_experiment

        f = PowerScale(0.5)
        rep = intersection_dimension_experiment(
            f, (0.2, 1.0), [{"type": "ball", "center": [500.0], "radius": 0.1}],
            d=1, n_paths=5, tol=0.5, seed=31, grid_n=512,
        )
        assert rep.flagged_empty
        assert math.isnan(rep.max_time_dim)


class TestImageExperiment:
    def test_brownian_interval_saturates_at_one(self):
        rep = image_dimension_experiment(
            PowerScale(0.5), (0.2, 1.0), d=1, n_paths=6, grid_n=1024, seed=3
        )
        assert 0.8 <= rep.mean <= 1.0
        assert rep.theory == pytest.approx(1.0)

    def test_reports_theory_min(self):
        rep = image_dimension_experiment(
            PowerScale(0.75), (0.2, 1.0), d=2, n_paths=4, grid_n=512, seed=3
        )
        assert rep.theory == pytest.approx(min(2.0, 1 / 0.75), abs=0.1)

    def test_thread_count_does_not_change_results(self):
        kw = dict(d=1, n_paths=4, grid_n=256, seed=9)
        a = image_dimension_experiment(PowerScale(0.5), (0.2, 1.0), threads=1, **kw)
        b = image_dimension_experiment(PowerScale(0.5), (0.2, 1.0), threads=4, **kw)
        assert a.per_path == b.per_path

    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("sampler", ["circulant", "cholesky"])
    def test_streamed_counts_equal_batch_counts(self, sampler, threads, n_paths):
        # an interval's uniform grid draws by circulant embedding, a
        # Cantor set's atoms by Cholesky
        scale = PowerScale(0.5)
        E = (0.2, 1.0) if sampler == "circulant" else build_cantor(scale, 0.5, 7)
        rep = image_dimension_experiment(scale, E, d=2, n_paths=n_paths, grid_n=256, seed=13,
                                         threads=threads)
        cov = cov_stationary_increments(scale, TimeSet.of(E, scale).sample(256))
        assert rep.params["sampler"] == cov.sampler == sampler
        values = all_paths(cov, 2, n_paths, 13)
        want = [box_dimension_euclidean(values[p], _SCALES, trim=_TRIM).value
                for p in range(n_paths)]
        assert rep.per_path == want

    def test_cantor_memory_does_not_grow_with_paths(self):
        # a Cantor grid draws by Cholesky: 256 more paths held at once would
        # be 256 * 256 * 6 floats, 3.1 MB, and their normals 0.5 MB more
        scale = PowerScale(0.5)
        E = build_cantor(scale, 0.5, 8)
        peaks = []
        for n_paths in (256, 512):
            tracemalloc.start()
            try:
                rep = image_dimension_experiment(scale, E, d=6, n_paths=n_paths, grid_n=256,
                                                 seed=13)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.params["sampler"] == "cholesky"
        assert peaks[1] - peaks[0] <= 1e6
