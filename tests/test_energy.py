from __future__ import annotations

import numpy as np
import pytest

from oracles import exact_min_energy

from gpfractal.energy import (
    capacity_estimate,
    farthest_point_subsample,
    kernel_matrix,
    minimize_energy,
)
from gpfractal.fractal_sets import DiscreteMeasure, build_cantor, cantor_measure
from gpfractal.hitting import delta_metric_fn
from gpfractal.metrics import StationaryGamma
from gpfractal.scale import PowerScale, phi_kernel


def _random_kernel(rng, n, beta=0.8, h=0.05):
    atoms = np.sort(rng.uniform(0.0, 1.0, size=n))
    dists = np.abs(atoms[:, None] - atoms[None, :])
    return kernel_matrix(atoms, dists, beta=beta, h=h)


class TestEnergyDiscrete:
    """The energy w^T K w of a measure's weights against kernel_matrix."""

    def test_point_mass_diagonal(self):
        kern = kernel_matrix([0.5], np.zeros((1, 1)), beta=0.7, h=0.02)
        w = np.array([1.0])
        assert w @ kern.K @ w == pytest.approx(phi_kernel(0.7, 0.02))

    def test_two_atoms_hand_expansion(self):
        r, h, beta = 0.3, 0.01, 1.2
        atoms = np.array([0.2, 0.5])
        dists = np.array([[0.0, r], [r, 0.0]])
        kern = kernel_matrix(atoms, dists, beta=beta, h=h)
        w = np.array([0.5, 0.5])
        expected = 0.5 * (phi_kernel(beta, h) + phi_kernel(beta, r))
        assert w @ kern.K @ w == pytest.approx(expected)

    def test_negative_beta_constant(self, rng):
        kern = _random_kernel(rng, 6, beta=-1.0)
        w = np.full(6, 1 / 6)
        assert w @ kern.K @ w == pytest.approx(1.0)

    def test_mismatch_rejected(self, rng):
        # a measure's weights must align with its atoms, one per kernel row
        kern = _random_kernel(rng, 4)
        with pytest.raises(ValueError, match="align"):
            DiscreteMeasure(kern.atoms, np.array([1.0]))


class TestMinimizeEnergy:
    def test_single_atom(self):
        kern = kernel_matrix([0.5], np.zeros((1, 1)), beta=0.7, h=0.02)
        nu, e, gap = minimize_energy(kern)
        assert nu.weights.tolist() == [1.0]
        assert e == pytest.approx(phi_kernel(0.7, 0.02))
        assert gap == 0.0

    def test_two_symmetric_atoms(self):
        atoms = np.array([0.2, 0.8])
        dists = np.abs(atoms[:, None] - atoms[None, :])
        kern = kernel_matrix(atoms, dists, beta=1.0, h=0.05)
        nu, e, gap = minimize_energy(kern, tol=1e-12, max_iter=100_000)
        assert nu.weights == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_matches_three_atom_grid_search(self, rng):
        for _ in range(5):
            kern = _random_kernel(rng, 3)
            _, e, gap = minimize_energy(kern, tol=1e-10, max_iter=300_000)
            exact = exact_min_energy(kern.K)
            assert abs(e - exact) <= 1e-3
            # the gap bounds e - exact only where K is positive semidefinite
            # on the simplex's tangent space (see minimize_energy), so this
            # is a check on these instances, not a consequence of FW
            assert e - exact <= gap + 1e-9

    def test_gap_certifies_optimality(self, rng):
        # e_min - exact <= gap on random small instances
        for _ in range(20):
            kern = _random_kernel(rng, 5, beta=rng.uniform(0.2, 1.5))
            _, e, gap = minimize_energy(kern, tol=1e-8, max_iter=100_000)
            exact = exact_min_energy(kern.K)
            assert e - exact <= gap + 1e-9

    def test_uniform_upper_bound(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            kern = _random_kernel(rng, n)
            w = np.full(n, 1.0 / n)
            _, e, _ = minimize_energy(kern)
            assert e <= w @ kern.K @ w + 1e-12


class TestCapacity:
    def test_resolution_monotonicity(self, rng):
        atoms = np.sort(rng.uniform(0.2, 1.0, size=400))
        metric = delta_metric_fn(PowerScale(0.5), atoms)
        diam = PowerScale(0.5).gamma(0.8)
        rep = capacity_estimate(
            atoms, metric, beta=1.5, resolutions=[diam / 2**j for j in range(1, 6)]
        )
        assert all(a <= b + 1e-12 for a, b in zip(rep.e_min, rep.e_min[1:]))

    def test_verdicts_across_critical_order(self):
        # dim_delta([0.2, 1]) = 2 for H = 1/2: beta below is positive,
        # beta above is zero
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 3000)
        metric = delta_metric_fn(f, atoms)
        diam = f.gamma(0.8)
        res = [diam / 2**j for j in range(1, 7)]
        low = capacity_estimate(atoms, metric, beta=1.5, resolutions=res)
        high = capacity_estimate(atoms, metric, beta=2.5, resolutions=res)
        assert low.verdict == "positive" and low.extrapolated > 0
        assert high.verdict == "zero" and high.capacity_value == 0.0

    def test_saturated_sweep_is_truncated(self):
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 40)  # deliberately coarse
        metric = delta_metric_fn(f, atoms)
        diam = f.gamma(0.8)
        rep = capacity_estimate(
            atoms, metric, beta=1.0, resolutions=[diam / 2**j for j in range(1, 10)]
        )
        assert len(rep.resolutions) < 9

    def test_subsample_spacing(self, rng):
        atoms = np.sort(rng.uniform(0.0, 1.0, size=500))
        metric = delta_metric_fn(PowerScale(1.0), atoms)
        idx = farthest_point_subsample(atoms, metric, spacing=0.05)
        sub = atoms[idx]
        gaps = np.diff(np.sort(sub))
        assert np.all(gaps > 0.05 - 1e-12)


def _sup_ball_mass(nu, f, r, stride=16):
    """max over every stride-th atom t of nu(B_delta(t, r))."""
    model = StationaryGamma(f)
    return max(nu.ball_mass_time(model, t, r) for t in nu.atoms[::stride])


class TestFrostman:
    """Ball masses sup_t nu(B_delta(t, r)) of the measures the energies use."""

    def test_uniform_measure_inverse_holder(self):
        # the delta-ball of radius r is |s - t| <= r^2 for H = 1/2: mass ~ r^2
        f = PowerScale(0.5)
        atoms = np.linspace(0.2, 1.0, 4096)
        nu = DiscreteMeasure(atoms, np.full(4096, 1 / 4096))
        radii = [2.0**-j for j in range(1, 6)]
        mass = [_sup_ball_mass(nu, f, r, stride=64) for r in radii]
        slope = np.polyfit(np.log2(radii), np.log2(mass), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_point_mass_zero(self):
        # a point mass fills every ball around its atom: exponent 0
        nu = DiscreteMeasure(np.array([0.4]), np.array([1.0]))
        assert all(_sup_ball_mass(nu, PowerScale(0.5), 2.0**-j) == 1.0 for j in range(12))

    def test_ratio_band_for_regular_set(self):
        f = PowerScale(0.5)
        cs = build_cantor(f, 0.8, depth=12)
        nu = cantor_measure(cs)
        ratios = [_sup_ball_mass(nu, f, r) / r**0.8 for r in (2.0 ** (-k / 0.8) for k in range(2, 10))]
        assert 0 < min(ratios) <= max(ratios) <= 8.0 + 1e-9

    def test_energy_bounded_when_exponent_dominates(self):
        # measures with frostman exponent >= beta + 0.2 keep bounded
        # energy as the truncation refines (the dyadic-shell argument)
        f = PowerScale(0.5)
        cs = build_cantor(f, 0.8, depth=12)
        nu = cantor_measure(cs)
        beta = 0.5  # exponent ~0.8 >= 0.7
        energies = []
        dists = f.gamma(np.abs(nu.atoms[:, None] - nu.atoms[None, :]))
        for h in [2.0**-j for j in range(2, 9)]:
            kern = kernel_matrix(nu.atoms, dists, beta=beta, h=h)
            energies.append(nu.weights @ kern.K @ nu.weights)
        assert energies[-1] <= 2.0 * energies[0] + 5.0
