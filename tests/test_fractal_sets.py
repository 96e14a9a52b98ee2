from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import uniform_ball_mass

from gpfractal.fractal_sets import (
    OutOfModelError,
    RatioOverflowError,
    Target,
    TimeSet,
    build_cantor,
    cantor_lengths,
    gamma_dyadic_count,
    grid_lookup,
)
from gpfractal.scale import LogScale, PowerScale


class TestBuildCantor:
    def test_middle_thirds(self):
        # gamma(r) = r and zeta = log2/log3 give t_k = 3^-k
        zeta = math.log(2) / math.log(3)
        assert np.allclose(cantor_lengths(PowerScale(1.0), zeta, 6), 3.0 ** -np.arange(7),
                           rtol=1e-12)
        lengths = np.diff(build_cantor(PowerScale(1.0), zeta, depth=6, eps0=1.0).intervals, axis=1)
        assert np.allclose(lengths, 3.0**-6, rtol=1e-10)

    def test_depth_zero(self):
        E = build_cantor(PowerScale(0.5), 1.0, depth=0, eps0=0.7)
        assert E.intervals.tolist() == [[0.0, 0.7]] and E.atoms.tolist() == [0.35]

    def test_quarter_scaling(self):
        # H = 1/2, zeta = 1: t_k = (2^-k)^2 = 4^-k
        assert np.allclose(cantor_lengths(PowerScale(0.5), 1.0, 5), 4.0 ** -np.arange(6),
                           rtol=1e-12)
        assert build_cantor(PowerScale(0.5), 1.0, depth=5, eps0=1.0).intervals.shape == (32, 2)

    @pytest.mark.parametrize(
        "scale, zeta, depth",
        [(LogScale(1.0), 0.5, 6), (PowerScale(0.5), 0.001, 2)],
        ids=["logscale", "power"],
    )
    def test_lengths_that_underflow_are_out_of_model(self, scale, zeta, depth):
        with pytest.raises(OutOfModelError, match="underflows to 0.0"):
            build_cantor(scale, zeta, depth)

    @pytest.mark.parametrize("depth", [-1, 14])
    def test_depth_outside_cap_rejected(self, depth):
        # 2^14 deepest intervals is one level past the 8192-atom cap
        with pytest.raises(ValueError, match=r"depth must be in \[0, 13\]"):
            build_cantor(PowerScale(0.5), 0.5, depth)

    def test_ratio_overflow(self):
        # zeta large makes t_k shrink slower than 2^-k: children overflow
        with pytest.raises(RatioOverflowError):
            build_cantor(PowerScale(0.5), 3.0, depth=4, eps0=1.0)

    def test_nesting_and_disjointness(self):
        # level k is the depth-k set
        levels = [build_cantor(PowerScale(0.5), 0.8, depth=k, eps0=1.0).intervals
                  for k in range(9)]
        for k in range(1, 9):
            kids = levels[k]
            parents = levels[k - 1]
            # each child inside exactly one parent
            for lo, hi in kids:
                inside = np.sum((parents[:, 0] <= lo + 1e-15) & (hi <= parents[:, 1] + 1e-15))
                assert inside == 1
            order = np.argsort(kids[:, 0])
            sorted_kids = kids[order]
            assert np.all(sorted_kids[1:, 0] > sorted_kids[:-1, 1] - 1e-15)

    def test_level_count(self):
        for k in range(8):
            assert build_cantor(PowerScale(0.5), 0.7, depth=k).intervals.shape == (2**k, 2)


class TestCantorMeasure:
    # the mass-distribution measure nu puts 2^-depth on each deepest interval's midpoint

    def test_atom_layout(self):
        E = build_cantor(PowerScale(0.5), 1.0, depth=3)
        assert E.atoms.size == 8
        assert np.array_equal(E.atoms, 0.5 * (E.intervals[:, 0] + E.intervals[:, 1]))

    def test_ancestor_mass(self):
        E = build_cantor(PowerScale(0.5), 1.0, depth=6)
        assert E.atoms.size == 2**6
        for lo, hi in build_cantor(PowerScale(0.5), 1.0, depth=1).intervals:
            mass = 2.0**-6 * np.count_nonzero((E.atoms >= lo) & (E.atoms <= hi))
            assert mass == pytest.approx(0.5)

    def test_ball_bound(self, rng):
        # nu(B_{delta*}(t, r)) <= 8 r^zeta on the construction's range
        f = PowerScale(0.5)
        K, eps0 = 12, 1.0
        for zeta in (0.5, 1.0):
            E = build_cantor(f, zeta, depth=K, eps0=eps0)
            assert E.atoms.size == 2**K
            r_lo, r_hi = 2.0 ** (-(K - 1) / zeta), f.gamma(eps0)
            for _ in range(1000):
                t = rng.choice(E.atoms)
                r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                assert uniform_ball_mass(f.gamma, E.atoms, t, r) <= 8.0 * r**zeta + 1e-12

    def test_upper_content_certificate(self):
        # the level-k cover of the built set: each of the 2^k ancestors of
        # the deepest intervals has delta-diameter gamma(its span) =
        # 2^{-k/zeta}, so sum diam^zeta is 1 at every level
        f, zeta = PowerScale(0.5), 0.5
        iv = build_cantor(f, zeta, depth=10).intervals
        assert iv.shape == (2**10, 2)
        for k in range(11):
            groups = iv.reshape(2**k, -1, 2)
            diam = f.gamma(groups[:, -1, 1] - groups[:, 0, 0])
            assert abs(float(np.sum(diam**zeta)) - 1.0) <= 1e-9, k


class TestGammaDyadic:
    def test_single_tile_interval(self):
        # tiles are half-open: [0, w] with w a tile width meets one tile
        f = PowerScale(1.0)
        w = f.inverse(2.0**-3)
        assert gamma_dyadic_count([(0.0, w)], [3], f) == [(w, 1)]

    def test_unit_interval_dyadic(self):
        f = PowerScale(1.0)
        assert gamma_dyadic_count([(0.0, 1.0)], [3], f) == [(0.125, 8)]

    def test_count_matches_cover(self):
        # the merged count equals the size of the union of tile ranges
        f = PowerScale(0.5)
        E = build_cantor(f, 0.8, depth=8)
        table = gamma_dyadic_count(E, (2, 4, 6), f)
        assert len(table) == 3
        for n, (width, count) in zip((2, 4, 6), table):
            w = f.inverse(2.0**-n)
            assert width == w
            tiles = set()
            for a, b in E.intervals:
                first = math.floor(a / w) + 1
                tiles.update(range(first, max(first, math.ceil(b / w)) + 1))
            assert len(tiles) == count

    def test_cantor_slope(self):
        # tiles meeting C_zeta at level n number ~ 2^(n zeta)
        f = PowerScale(0.5)
        zeta = 0.6
        cs = build_cantor(f, zeta, depth=12)
        ns = np.arange(3, 18)
        counts = np.array([c for _, c in gamma_dyadic_count(cs, ns.tolist(), f)])
        slope = np.polyfit(ns, np.log2(counts), 1)[0]
        assert slope == pytest.approx(zeta, abs=0.05)


class TestTimeSet:
    def test_interval_and_cantor_specs(self):
        f = PowerScale(0.5)
        assert TimeSet.of((0.2, 1.0), f).spec == {"type": "interval", "a": 0.2, "b": 1.0}
        E = build_cantor(f, 0.5, 3, eps0=0.5)
        assert isinstance(E, TimeSet)
        assert E.spec == {"type": "cantor", "zeta": 0.5, "depth": 3, "eps0": 0.5}
        assert TimeSet.of(E, f) is E

    @pytest.mark.parametrize("E", [(0.2, 0.9), (-0.1, 0.3), (0.4, 0.2)])
    def test_interval_outside_domain_rejected(self, E):
        with pytest.raises(OutOfModelError, match="x_max = 0.5"):
            TimeSet.of(E, LogScale(1.0))

    def test_cantor_beyond_domain_rejected(self):
        cs = build_cantor(LogScale(1.0), 0.5, 3, eps0=1.0)
        with pytest.raises(OutOfModelError):
            TimeSet.of(cs, LogScale(1.0))

    def test_interval_grid_indices(self):
        grid = np.linspace(0.0, 1.0, 11)
        E = TimeSet.of((0.3, 0.6), PowerScale(0.5))
        assert E.grid_indices(grid).tolist() == [3, 4, 5, 6]

    def test_grid_lookup(self):
        grid = np.array([0.1, 0.2, 0.4, 0.8])
        idx, on_grid = grid_lookup(grid, [0.8, 0.1 + 1e-12, 0.3, 0.05, 0.9])
        assert idx.tolist() == [3, 0, 1, 0, 3]
        assert on_grid.tolist() == [True, True, False, False, False]


class TestTarget:
    BOX = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]}
    BALL = {"type": "ball", "center": [3.0, 0.0], "radius": 0.5}

    def test_distance(self):
        F = Target([self.BOX, self.BALL])
        pts = np.array([[0.5, 1.0], [2.0, 2.0], [3.0, 1.5], [-3.0, -4.0]])
        assert F.distance(pts) == pytest.approx([0.0, 1.0, 1.0, 5.0])

    def test_geometry(self):
        F = Target([self.BOX, self.BALL], d=2)
        assert F.d == 2 and F.feature == 1.0
        pts, pitch = F.lattice()
        assert pitch == pytest.approx(1.0 / 6.0)
        assert np.all(F.distance(pts) <= 1e-12)
        # side-1 boxes: 2 x 3 for the box, 2 x 2 for the ball's bounding box
        assert F.box_count(1.0) == 6 + 4

    def test_spec_in_floats(self):
        F = Target([{"type": "ball", "center": [1, 0], "radius": 2}])
        assert F.spec == [{"type": "ball", "center": [1.0, 0.0], "radius": 2.0}]
        assert Target.of(F) is F

    @pytest.mark.parametrize(
        "members, message",
        [
            ([], "non-empty"),
            ([{"lo": [0.0], "hi": [1.0]}], "'type'"),
            ([{"type": "box", "lo": [1.0, 0.0], "hi": [0.5, 1.0]}], "lo <= hi"),
            ([{"type": "box", "lo": ["x"], "hi": [1.0]}], "finite numbers"),
            ([{"type": "ball", "center": [0.0, 0.0], "radius": 0.0}], "radius > 0"),
            ([{"type": "cube", "lo": [0.0]}], "unknown member type"),
            ([BOX, {"type": "ball", "center": [0.0], "radius": 1.0}], "length d=2"),
            # JSON's true and false are ints in Python, but not numbers here
            ([{"type": "box", "lo": [True], "hi": [1.0]}], "finite numbers"),
            ([{"type": "ball", "center": [0.5, False], "radius": 0.2}], "finite numbers"),
            ([{"type": "ball", "center": [0.5, 0.0], "radius": True}], "radius > 0"),
            # an int beyond float range
            ([{"type": "box", "lo": [0.0], "hi": [10**400]}], "finite numbers"),
        ],
    )
    def test_invalid_members_rejected(self, members, message):
        with pytest.raises(ValueError, match=message):
            Target(members)

    def test_dimension_must_match_d(self):
        with pytest.raises(ValueError, match="length d=3"):
            Target([self.BOX], d=3)


def _lattice_reference(members):
    """Target.lattice written out: each member's whole meshgrid, the ball
    filter, then one stride over the concatenation."""
    boxes, longest = [], []
    for m in members:
        if m["type"] == "box":
            lo, hi = np.array(m["lo"], float), np.array(m["hi"], float)
            longest.append(float(np.max(hi - lo)))
        else:
            c, r = np.array(m["center"], float), float(m["radius"])
            lo, hi = c - r, c + r
            longest.append(2.0 * r)
        boxes.append((lo, hi))
    pitch = min((e for e in longest if e > 0), default=0.0) / 6.0
    pts = []
    for m, (lo, hi) in zip(members, boxes):
        axes = [np.arange(l, u + 1e-12, pitch) if u > l else np.array([l]) for l, u in zip(lo, hi)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
        if m["type"] == "ball":
            c = np.array(m["center"], float)
            mesh = mesh[np.linalg.norm(mesh - c, axis=1) <= m["radius"] + 1e-12]
            if mesh.size == 0:
                mesh = c[None, :]
        pts.append(mesh)
    out = np.vstack(pts)
    if len(out) > 400:
        out = out[:: int(math.ceil(len(out) / 400))]
    return out, pitch


class TestLattice:
    @pytest.mark.parametrize(
        "members",
        [
            [{"type": "box", "lo": [0.1, 0.2], "hi": [0.5, 0.9]}],
            [{"type": "ball", "center": [0.5, 0.0, 0.0], "radius": 0.2}],
            [
                {"type": "ball", "center": [0.5, 0.0, 0.0], "radius": 0.2},
                {"type": "box", "lo": [0.0, 0.0, 0.0], "hi": [0.1, 0.5, 0.05]},
                {"type": "ball", "center": [0.0, 0.7, 0.0], "radius": 0.01},
            ],
            [{"type": "ball", "center": [0.0] * 5, "radius": 0.5}],
            [
                {"type": "ball", "center": [0.1] * 4, "radius": 0.3},
                {"type": "box", "lo": [0.0] * 4, "hi": [0.6, 0.6, 0.0, 0.6]},
            ],
            [{"type": "box", "lo": [0.1], "hi": [0.2]}],
            # a point takes no part in the pitch and adds its one point
            [
                {"type": "box", "lo": [0.3, 0.3], "hi": [0.3, 0.3]},
                {"type": "box", "lo": [0.0, 0.0], "hi": [0.5, 0.5]},
            ],
            [
                {"type": "box", "lo": [0.3, 0.3], "hi": [0.3, 0.3]},
                {"type": "box", "lo": [0.0, 0.0], "hi": [0.0, 0.0]},
            ],
        ],
    )
    @pytest.mark.parametrize("chunk", [None, 37])
    def test_matches_whole_meshgrid(self, members, chunk, monkeypatch):
        from gpfractal import fractal_sets

        if chunk is not None:
            monkeypatch.setattr(fractal_sets, "_LATTICE_CHUNK", chunk)
        pts, pitch = Target(members).lattice()
        want, want_pitch = _lattice_reference(members)
        assert pitch == want_pitch
        assert np.array_equal(pts, want)

    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_ball_walk_matches_whole_mesh(self, d, chunk, monkeypatch):
        from gpfractal import fractal_sets

        if chunk is not None:
            monkeypatch.setattr(fractal_sets, "_LATTICE_CHUNK", chunk)
        rng = np.random.default_rng(d)
        # mesh points on the sphere (center 0, radius 0.5, pitch 1/6, or
        # offsets of 0.3 and 0.4 from a center on the mesh), then random balls
        cases = [(np.zeros(d), 0.5, 1 / 6), (np.full(d, 0.1), 0.5, 0.1)]
        cases += [(rng.normal(scale=0.3, size=d), float(rng.uniform(0.05, 0.6)),
                   float(rng.uniform(0.03, 0.2))) for _ in range(8)]
        for center, radius, pitch in cases:
            axes = [np.arange(c - radius, c + radius + 1e-12, pitch) for c in center]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            want = mesh[np.linalg.norm(mesh - center, axis=1) <= radius + 1e-12]
            # a small ball between mesh points holds none of them
            blocks = list(fractal_sets._ball_chunks(axes, center, radius))
            got = np.vstack([np.empty((0, d))] + blocks)
            assert np.array_equal(got, want)

    def test_high_dimensional_ball_is_fast(self):
        # 7^9 = 40 million mesh points; walking all of them took 20 s
        F = Target([{"type": "ball", "center": [0.0] * 9, "radius": 0.5}])
        t0 = time.perf_counter()
        pts, _ = F.lattice()
        assert time.perf_counter() - t0 < 5.0
        assert len(pts) == 400 and np.all(F.distance(pts) <= 1e-12)

    def test_box_above_64_dimensions(self):
        # 65 axes, more than an ndarray may have; only axis 30 is long
        lo = 0.01 * np.arange(65)
        hi = lo + 0.1
        hi[30] = lo[30] + 1.0
        pts, pitch = Target([{"type": "box", "lo": lo, "hi": hi}]).lattice()
        line, line_pitch = Target([{"type": "box", "lo": [lo[30]], "hi": [hi[30]]}]).lattice()
        assert pitch == line_pitch and len(pts) == len(line) == 7
        assert np.array_equal(pts[:, 30], line[:, 0])
        assert np.array_equal(np.delete(pts, 30, axis=1), np.tile(np.delete(lo, 30), (7, 1)))

    @pytest.mark.parametrize(
        "member",
        [
            {"type": "ball", "center": [0.0] * 8, "radius": 0.5},
            {"type": "box", "lo": [0.0] * 8, "hi": [1.0] * 8},
        ],
        ids=["ball", "box"],
    )
    def test_high_dimensional_memory(self, member):
        # 7^8 = 5.8 million mesh points; the whole meshgrid took 369 MB
        F = Target([member])
        tracemalloc.start()
        try:
            pts, _ = F.lattice()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(pts) <= 400 and np.all(F.distance(pts) <= 1e-12)
        assert peak < 32 * 2**20


class TestFrostmanConsistency:
    def test_exponent_fit_near_zeta(self):
        # log2 sup_t nu(B_delta(t, r)) against log2 r has slope zeta
        f = PowerScale(0.5)
        for zeta in (0.5, 0.8):
            atoms = build_cantor(f, zeta, depth=12).atoms
            assert atoms.size == 2**12
            radii = [2.0 ** (-k / zeta) for k in range(2, 10)]
            mass = [max(uniform_ball_mass(f.gamma, atoms, t, r) for t in atoms[::16])
                    for r in radii]
            slope = np.polyfit(np.log2(radii), np.log2(mass), 1)[0]
            assert slope == pytest.approx(zeta, abs=0.1)
