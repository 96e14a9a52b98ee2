from __future__ import annotations

import warnings

import numpy as np
import pytest

from oracles import (
    exact_min_energy,
    pairwise_fw_reference,
    product_rho,
    product_rows,
    uniform_ball_mass,
)

from gpfractal import energy
from gpfractal.energy import (
    capacity_estimate,
    farthest_point_subsample,
    kernel_matrix,
    minimize_energy,
)
from gpfractal.fractal_sets import OutOfModelError, build_cantor
from gpfractal.metrics import AtomRows, delta
from gpfractal.scale import PowerScale, phi_kernel


def _random_kernel(rng, n, beta=0.8, h=0.05):
    atoms = np.sort(rng.uniform(0.0, 1.0, size=n))
    dists = np.abs(atoms[:, None] - atoms[None, :])
    return kernel_matrix(dists, beta=beta, h=h)


class TestEnergyDiscrete:
    """The energy w^T K w of a measure's weights against kernel_matrix."""

    def test_point_mass_diagonal(self):
        K = kernel_matrix(np.zeros((1, 1)), beta=0.7, h=0.02)
        w = np.array([1.0])
        assert w @ K @ w == pytest.approx(phi_kernel(0.7, 0.02))

    def test_two_atoms_hand_expansion(self):
        r, h, beta = 0.3, 0.01, 1.2
        atoms = np.array([0.2, 0.5])
        dists = np.array([[0.0, r], [r, 0.0]])
        K = kernel_matrix(dists, beta=beta, h=h)
        w = np.array([0.5, 0.5])
        expected = 0.5 * (phi_kernel(beta, h) + phi_kernel(beta, r))
        assert w @ K @ w == pytest.approx(expected)

    def test_negative_beta_constant(self, rng):
        K = _random_kernel(rng, 6, beta=-1.0)
        w = np.full(6, 1 / 6)
        assert w @ K @ w == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [1.5, 1.0, 0.0, -1.0])
    def test_kernel_in_one_buffer_matches_unfused_build(self, rng, beta):
        # 150 rows: two full 64-row strips and a partial one
        dists = rng.uniform(0.0, 1.0, (150, 150))
        dists = np.triu(dists, 1) + np.triu(dists, 1).T
        given = dists.copy()
        a = np.maximum(dists, 0.05)
        if beta > 0:
            ref = a ** (-beta)
        elif beta == 0:
            ref = np.log(np.e / np.minimum(a, 1.0))
        else:
            ref = np.ones_like(a)
        K = kernel_matrix(dists, beta=beta, h=0.05)
        assert K.tobytes() == ref.tobytes()
        assert dists.tobytes() == given.tobytes()
        K = kernel_matrix(dists, beta=beta, h=0.05, out=dists)
        assert K is dists and dists.tobytes() == ref.tobytes()

    def test_phi_of_h_above_half_max_is_out_of_model(self):
        # beta = 2 and h = 9e-155 put phi(h) = 1.23e308 between max/2 and
        # max, where K_vv - 2 K_vs + K_ss overflows; the block is not touched
        x = np.concatenate([[0.0, 2e-155, 5e-155], np.linspace(1e-154, 3e-154, 37)])
        dists = np.abs(x[:, None] - x[None, :])
        given = dists.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfModelError, match="above half the largest double"):
                kernel_matrix(dists, beta=2.0, h=9e-155, out=dists)
            with pytest.raises(OutOfModelError, match="above half the largest double"):
                kernel_matrix(dists, beta=2.0, h=1e-200)
        assert dists.tobytes() == given.tobytes()
        # the largest phi(h) = h^-2 at or below max/2 builds a finite K with that entry
        half = np.finfo(float).max / 2
        h = float(np.sqrt(1.0 / half))
        while phi_kernel(2.0, np.full(1, h))[0] > half:
            h = float(np.nextafter(h, np.inf))
        K = kernel_matrix(dists, beta=2.0, h=h)
        assert np.isfinite(K).all() and K.max() == phi_kernel(2.0, np.full(1, h))[0]
        assert half / 2 < K.max() <= half

    def test_symmetric_strips_take_phi_once(self, monkeypatch):
        # phi sees each 64-row strip right of the diagonal once: 150 rows
        # make strips of 64 x 150, 64 x 86 and 22 x 22
        atoms = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 150))
        dists = np.abs(atoms[:, None] - atoms[None, :])
        sizes = []
        phi = energy.phi_kernel
        monkeypatch.setattr(energy, "phi_kernel",
                            lambda beta, r, out=None: sizes.append(np.size(r)) or phi(beta, r, out))
        K = kernel_matrix(dists, beta=1.5, h=0.05)
        assert sizes == [64 * 150, 64 * 86, 22 * 22]
        ref = 0.5 * (np.maximum(dists, 0.05) ** -1.5 + np.maximum(dists, 0.05).T ** -1.5)
        assert K.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("h", [0.0, -0.05, float("nan")])
    def test_nonpositive_resolution_is_out_of_model(self, h):
        with pytest.raises(OutOfModelError, match="must be positive"):
            kernel_matrix(np.zeros((2, 2)), beta=0.7, h=h)


class TestMinimizeEnergy:
    def test_single_atom(self):
        K = kernel_matrix(np.zeros((1, 1)), beta=0.7, h=0.02)
        w, e, gap = minimize_energy(K)
        assert w.tolist() == [1.0]
        assert e == pytest.approx(phi_kernel(0.7, 0.02))
        assert gap == 0.0

    def test_two_symmetric_atoms(self):
        atoms = np.array([0.2, 0.8])
        dists = np.abs(atoms[:, None] - atoms[None, :])
        K = kernel_matrix(dists, beta=1.0, h=0.05)
        w, e, gap = minimize_energy(K, tol=1e-12, max_iter=100_000)
        assert w == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_matches_three_atom_grid_search(self, rng):
        for _ in range(5):
            K = _random_kernel(rng, 3)
            _, e, gap = minimize_energy(K, tol=1e-10, max_iter=300_000)
            exact = exact_min_energy(K)
            assert abs(e - exact) <= 1e-3
            # the gap bounds e - exact only where K is positive semidefinite
            # on the simplex's tangent space (see minimize_energy), so this
            # is a check on these instances, not a consequence of FW
            assert e - exact <= gap + 1e-9

    def test_gap_certifies_optimality(self, rng):
        # e_min - exact <= gap on random small instances
        for _ in range(20):
            K = _random_kernel(rng, 5, beta=rng.uniform(0.2, 1.5))
            _, e, gap = minimize_energy(K, tol=1e-8, max_iter=100_000)
            exact = exact_min_energy(K)
            assert e - exact <= gap + 1e-9

    def test_matches_exact_where_vanilla_fw_stalled(self):
        # vanilla FW stopped at 30.3199 after 200k iterations here; the
        # kernel is not PSD on the simplex's tangent space
        atoms = np.array([0.137, 0.2167, 0.3254, 0.3724, 0.5589])
        dists = np.abs(atoms[:, None] - atoms[None, :])
        K = kernel_matrix(dists, beta=1.75, h=0.09)
        _, e, _ = minimize_energy(K, tol=1e-10, max_iter=400_000)
        exact = exact_min_energy(K)
        assert abs(e - exact) <= 1e-9 * exact

    def test_trace_ends_at_the_last_iteration(self, rng):
        K = _random_kernel(rng, 40)
        trace = []
        minimize_energy(K, tol=1e-5, max_iter=20_000, trace=trace)
        ks = [k for k, _, _ in trace]
        assert ks[: min(100, len(ks))] == list(range(min(100, len(ks))))
        assert all(k % 100 == 0 for k in ks[100:-1])
        e, gap = trace[-1][1:]
        assert ks[-1] == 19_999 or gap <= 1e-5 * e

    def test_uniform_upper_bound(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            K = _random_kernel(rng, n)
            w = np.full(n, 1.0 / n)
            _, e, _ = minimize_energy(K)
            assert e <= w @ K @ w + 1e-12


def _psd_kernel(rng, n):
    # Gram matrix of positive features plus a ridge: PSD and entrywise positive
    feats = rng.uniform(0.0, 1.0, size=(n, 3))
    return feats @ feats.T + 1e-3 * np.eye(n)


def _run_both(K, tol, max_iter, moves=None):
    ref_trace, trace = [], []
    ref = pairwise_fw_reference(K, tol, max_iter, ref_trace, moves)
    return ref, minimize_energy(K, tol=tol, max_iter=max_iter, trace=trace), ref_trace, trace


class TestMatchesGradientLoopBitwise:
    """minimize_energy's loop on Kw alone gives the bits of the loop that
    kept grad = 2 Kw (tests/oracles.py::pairwise_fw_reference)."""

    def _check(self, K, tol, max_iter, moves=None):
        (w_ref, e_ref, gap_ref), (w, e, gap), ref_trace, trace = _run_both(K, tol, max_iter, moves)
        assert w.tobytes() == w_ref.tobytes()
        assert e == e_ref and gap == gap_ref
        assert trace == ref_trace
        return trace

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 150, 400])
    @pytest.mark.parametrize("kind", ["psd", "truncated"])
    def test_random_kernels(self, n, kind):
        rng = np.random.default_rng(1000 * n + (kind == "psd"))
        if kind == "psd":
            K = _psd_kernel(rng, n)
        else:
            K = _random_kernel(rng, n, beta=rng.uniform(0.2, 2.5), h=rng.uniform(0.005, 0.2))
        self._check(K, tol=1e-5, max_iter=2_000)
        self._check(K, tol=1e-9, max_iter=500)

    def test_stops_on_tol(self):
        # the 5 atoms where vanilla FW stalled; K is not PSD on the tangent space
        atoms = np.array([0.137, 0.2167, 0.3254, 0.3724, 0.5589])
        K = kernel_matrix(np.abs(atoms[:, None] - atoms[None, :]), beta=1.75, h=0.09)
        trace = self._check(K, tol=1e-10, max_iter=400_000)
        k, e, gap = trace[-1]
        assert k < 400_000 - 1 and gap <= 1e-10 * e

    def test_stops_at_max_iter(self):
        K = _random_kernel(np.random.default_rng(7), 400, beta=1.5, h=0.002)
        trace = self._check(K, tol=1e-14, max_iter=3_000)
        assert trace[-1][0] == 3_000 - 1 and trace[-1][2] > 1e-14 * trace[-1][1]

    def test_atom_leaves_and_returns(self):
        # cutting the solve after k steps shows each atom's weight then (the
        # final renormalization keeps zeros at zero); atom 7 drops out at
        # the first step and comes back by the sixth
        atoms = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 12))
        K = kernel_matrix(np.abs(atoms[:, None] - atoms[None, :]), beta=1.75, h=0.09)
        held = []
        for k in range(1, 12):
            (w_ref, _, _), (w, _, _), _, _ = _run_both(K, 1e-12, k)
            assert w.tobytes() == w_ref.tobytes()
            held.append(bool(w[7] > 0))
        assert held[0] is False and True in held

    def test_bench_scale_kernel(self):
        # the finest kernel of the default sweep on 3000 atoms of [0.2, 1]
        # (power:H=0.5, beta = 1.5): after 2000 steps 10 atoms are empty
        times = np.linspace(0.2, 1.0, 3000)
        f = PowerScale(0.5)
        K = AtomRows(f, times).block(np.arange(3000))
        kernel_matrix(K, beta=1.5, h=float(delta(f, 0.2, 1.0)) / 64, out=K)
        moves = []
        (w_ref, _, _), (w, _, _), _, trace = _run_both(K, 1e-5, 2_000, moves)
        assert w.tobytes() == w_ref.tobytes()
        assert trace[-1][0] == 2_000 - 1
        assert np.count_nonzero(w) < 3_000 and any(d for _, _, d in moves)

    def test_atom_away_again_after_it_returns(self):
        # atom 12 leaves the support at step 4, comes back as the FW vertex
        # at step 43 and is the away vertex again at step 152, which it can
        # be only if its entry in the masked copy came back with it
        atoms = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 40))
        K = kernel_matrix(np.abs(atoms[:, None] - atoms[None, :]), beta=2.5, h=0.05)
        moves = []
        self._check(K, 1e-12, 400, moves)
        left = [k for k, (_, s, dropped) in enumerate(moves) if s == 12 and dropped]
        back = [k for k, (v, _, _) in enumerate(moves) if v == 12 and k > left[0]]
        again = [k for k, (_, s, _) in enumerate(moves) if s == 12 and k > back[0]]
        assert (left[0], back[0], again[0]) == (4, 43, 152)

    def test_overflowing_kernel(self):
        # an infinite diagonal makes K w and e infinite and the first gap
        # NaN, which stops the solve at once
        atoms = np.linspace(0.2, 1.0, 16)
        K = kernel_matrix(np.abs(atoms[:, None] - atoms[None, :]), 2.0, 0.01)
        np.fill_diagonal(K, np.inf)
        trace = []
        w, e, gap = minimize_energy(K, tol=1e-5, max_iter=100, trace=trace)
        assert len(trace) == 1 and trace[0][0] == 0 and trace[0][1] == np.inf
        assert np.isnan(trace[0][2])
        assert not np.isfinite(e) and w.tobytes() == np.full(16, 1 / 16).tobytes()


class TestCapacity:
    def test_resolution_monotonicity(self, rng):
        atoms = np.sort(rng.uniform(0.2, 1.0, size=400))
        metric = AtomRows(PowerScale(0.5), atoms)
        diam = PowerScale(0.5).gamma(0.8)
        rep = capacity_estimate(metric, beta=1.5, resolutions=[diam / 2**j for j in range(1, 6)])
        assert all(a <= b + 1e-12 for a, b in zip(rep.e_min, rep.e_min[1:]))

    def test_verdicts_across_critical_order(self):
        # dim_delta([0.2, 1]) = 2 for H = 1/2: beta below is positive,
        # beta above is zero
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 3000)
        metric = AtomRows(f, atoms)
        diam = f.gamma(0.8)
        res = [diam / 2**j for j in range(1, 7)]
        low = capacity_estimate(metric, beta=1.5, resolutions=res)
        high = capacity_estimate(metric, beta=2.5, resolutions=res)
        assert low.verdict == "positive" and low.extrapolated > 0
        assert high.verdict == "zero" and high.capacity_value == 0.0

    def test_saturated_sweep_is_truncated(self):
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 40)  # deliberately coarse
        metric = AtomRows(f, atoms)
        diam = f.gamma(0.8)
        rep = capacity_estimate(metric, beta=1.0, resolutions=[diam / 2**j for j in range(1, 10)])
        assert len(rep.resolutions) < 9

    @pytest.mark.parametrize(
        "resolutions, message",
        [([np.inf, 0.1], "is empty"), ([0.3, 0.2, 1e308], "over- or underflows")],
        ids=["infinite", "underflow"],
    )
    def test_resolutions_the_solver_cannot_carry(self, resolutions, message):
        atoms = np.linspace(0.2, 1.0, 64)
        metric = AtomRows(PowerScale(0.5), atoms)
        with pytest.raises(OutOfModelError, match=message):
            capacity_estimate(metric, beta=1.5, resolutions=resolutions)

    def test_atom_cap_on_product_atoms(self, monkeypatch):
        # 101 times x 100 points: 10,100 atoms, refused before any row is read
        f = PowerScale(0.5)
        times = np.linspace(0.2, 1.0, 101)
        rows = AtomRows(f, times, np.linspace(0.0, 1.0, 100)[:, None])
        assert len(AtomRows(f, times)) == 101
        assert len(rows) == 10_100 > energy._MAX_ATOMS

        def refuse(*args):
            raise AssertionError("a row was read")

        monkeypatch.setattr(AtomRows, "__call__", refuse)
        monkeypatch.setattr(AtomRows, "block", refuse)
        with pytest.raises(OutOfModelError, match="atom count 10100 exceeds cap 10000"):
            capacity_estimate(rows, beta=1.5, resolutions=[0.5, 0.25])

    def test_subsample_spacing(self, rng):
        atoms = np.sort(rng.uniform(0.0, 1.0, size=500))
        metric = AtomRows(PowerScale(1.0), atoms)
        order, radii = farthest_point_subsample(len(atoms), metric, spacing=0.05)
        assert radii[0] == np.inf and np.all(np.diff(radii) <= 0)
        assert np.all(radii[1:] > 0.05)
        sub = atoms[order]
        gaps = np.diff(np.sort(sub))
        assert np.all(gaps > 0.05 - 1e-12)

    def test_one_subsample_pass_per_sweep(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["spacing"])
            return farthest_point_subsample(*args, **kwargs)

        monkeypatch.setattr(energy, "farthest_point_subsample", counted)
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 200)
        metric = AtomRows(f, atoms)
        _, radii = farthest_point_subsample(len(atoms), metric, spacing=0.0)
        # resolutions at insertion radii, where an atom sits exactly at h
        res = [radii[j] for j in (3, 9, 27, 81)]
        rep = capacity_estimate(metric, beta=1.5, resolutions=res)
        assert calls == [min(res)]
        dist = np.array([metric(i, np.arange(200)) for i in range(200)])
        assert rep.n_atoms == [len(_greedy_selection(dist, h)) for h in rep.resolutions]
        assert len(rep.iterations) == len(rep.resolutions) == len(rep.gaps)
        assert all(k > 0 for k in rep.iterations)


def _greedy_selection(dist, spacing):
    """Greedy farthest-point selection from atom 0 on a full distance matrix."""
    selected = [0]
    mind = dist[0].copy()
    while len(selected) < len(dist):
        i = int(np.argmax(mind))
        if mind[i] <= spacing:
            break
        selected.append(i)
        mind = np.minimum(mind, dist[i])
    return sorted(selected)


def _interval_atoms():
    f = PowerScale(0.5)
    return AtomRows(f, np.linspace(0.2, 1.0, 200)), f.gamma(0.8)


def _cantor_box_atoms():
    # 8 Cantor times x a 5 x 5 lattice in a box of side 0.375: rho metric
    f = PowerScale(0.5)
    times = build_cantor(f, 0.8, depth=3).atoms
    side = np.linspace(0.0, 0.375, 5)
    box = np.array([(x, y) for x in side for y in side])
    metric = AtomRows(f, times, box)
    return metric, float(np.max(metric(0, np.arange(len(metric)))))


@pytest.mark.parametrize("make", [_interval_atoms, _cantor_box_atoms])
def test_one_pass_prefix_equals_fresh_greedy_run(make):
    metric, diam = make()
    m = len(metric)
    assert m == 200
    dist = np.array([np.asarray(metric(i, np.arange(m)), dtype=float) for i in range(m)])
    finest = diam / 2**8
    order, radii = farthest_point_subsample(m, metric, spacing=finest)
    # every sweep spacing, and every insertion radius, where ties decide
    spacings = [diam / 2**j for j in range(1, 9)] + sorted(set(radii[1:].tolist()))
    for h in spacings:
        assert np.sort(order[radii > h]).tolist() == _greedy_selection(dist, h), h


def _greedy_order(dist, spacing):
    """Greedy farthest-point order from atom 0 and each pick's insertion radius."""
    order, radii = [0], [np.inf]
    mind = dist[0].copy()
    while len(order) < len(dist):
        i = int(np.argmax(mind))
        if mind[i] <= spacing:
            break
        order.append(i)
        radii.append(mind[i])
        mind = np.minimum(mind, dist[i])
    return np.array(order), np.array(radii)


@pytest.mark.parametrize("lattice", ["box", "ball"])
def test_factored_fps_matches_greedy_on_materialized_rho(lattice):
    f = PowerScale(0.5)
    times = build_cantor(f, 0.8, depth=4).atoms
    if lattice == "box":
        side = np.linspace(0.0, 0.375, 4)
        points = np.array([(x, y) for x in side for y in side])
    else:
        points = np.array([(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.0, 0.1, 0.0),
                           (0.0, 0.0, 0.1), (-0.1, 0.0, 0.0), (0.05, 0.05, 0.05)])
    mat = product_rows(times, points)
    dist = np.array([product_rho(f.gamma, u, mat) for u in mat])
    rows = AtomRows(f, times, points)
    for spacing in (0.0, 0.05, 0.2):
        order, radii = farthest_point_subsample(len(rows), rows, spacing=spacing)
        want_order, want_radii = _greedy_order(dist, spacing)
        assert np.array_equal(order, want_order)
        assert np.array_equal(radii, want_radii)


def _sup_ball_mass(atoms, f, r, stride=16):
    """max over every stride-th atom t of nu(B_delta(t, r)), nu uniform on ``atoms``."""
    return max(uniform_ball_mass(f.gamma, atoms, t, r) for t in atoms[::stride])


class TestFrostman:
    """Ball masses sup_t nu(B_delta(t, r)) of the measures the energies use."""

    def test_uniform_measure_inverse_holder(self):
        # the delta-ball of radius r is |s - t| <= r^2 for H = 1/2: mass ~ r^2
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 4096)
        radii = [2.0**-j for j in range(1, 6)]
        mass = [_sup_ball_mass(atoms, f, r, stride=64) for r in radii]
        slope = np.polyfit(np.log2(radii), np.log2(mass), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_point_mass_zero(self):
        # a point mass fills every ball around its atom: exponent 0
        atoms = np.array([0.4])
        assert all(_sup_ball_mass(atoms, PowerScale(0.5), 2.0**-j) == 1.0 for j in range(12))

    def test_ratio_band_for_regular_set(self):
        f = PowerScale(0.5)
        atoms = build_cantor(f, 0.8, depth=12).atoms
        assert atoms.size == 2**12  # nu: 2^-12 on each deepest interval's midpoint
        ratios = [_sup_ball_mass(atoms, f, r) / r**0.8 for r in (2.0 ** (-k / 0.8) for k in range(2, 10))]
        assert 0 < min(ratios) <= max(ratios) <= 8.0 + 1e-9

    def test_energy_bounded_when_exponent_dominates(self):
        # measures with frostman exponent >= beta + 0.2 keep bounded
        # energy as the truncation refines (the dyadic-shell argument)
        f = PowerScale(0.5)
        atoms = build_cantor(f, 0.8, depth=12).atoms
        assert atoms.size == 2**12
        w = np.full(atoms.size, 2.0**-12)
        beta = 0.5  # exponent ~0.8 >= 0.7
        energies = []
        dists = f.gamma(np.abs(atoms[:, None] - atoms[None, :]))
        for h in [2.0**-j for j in range(2, 9)]:
            K = kernel_matrix(dists, beta=beta, h=h)
            energies.append(w @ K @ w)
        assert energies[-1] <= 2.0 * energies[0] + 5.0
