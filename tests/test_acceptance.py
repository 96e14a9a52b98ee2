"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with the measured quantities.

Tolerances are pinned here and nowhere else.  Monte Carlo criteria run
at fixed seeds, so reruns are exactly reproducible.
"""

from __future__ import annotations

import json
import math

import numpy as np

from oracles import exact_min_energy, uniform_ball_mass

from gpfractal.conditions import (
    check_strong_condition,
    check_weak_condition,
    psi_sqrtlog_criterion,
)
from gpfractal.dimension import (
    dim_delta_estimate,
    image_dimension_experiment,
    intersection_dimension_experiment,
)
from gpfractal.energy import capacity_estimate, kernel_matrix, minimize_energy
from gpfractal.fractal_sets import build_cantor
from gpfractal.gp_sim import cov_stationary_increments, cov_volterra
from gpfractal.hitting import (
    add_sandwich_terms,
    check_hit_instance,
    grid_tolerance_guard,
    hit_probability_mc,
    sandwich_report,
    small_ball_sweep,
)
from gpfractal.metrics import AtomRows, commensurability_report
from gpfractal.scale import ExpLogScale, LogScale, PowerLogScale, PowerScale


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    return float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))


def test_criterion_1_brownian_consistency():
    f = PowerScale(0.5)
    grid = np.linspace(1 / 64, 1.0, 64)
    cov = cov_volterra(f, grid)
    err = float(np.max(np.abs(cov.R - np.minimum.outer(grid, grid))))
    rep = commensurability_report(cov, f)
    ok = err <= 1e-8 and abs(rep.l_hat - 1.0) <= 1e-6
    _report(
        "criterion 1 (Brownian consistency)",
        ok,
        f"max |R_volterra - min(s,t)| = {err:.3e} (<= 1e-8), "
        f"l_hat = {rep.l_hat:.9f} (= 1 +- 1e-6)",
    )


def test_criterion_2_image_dimension_formula():
    results = []
    rep_a = image_dimension_experiment(
        PowerScale(0.75), (0.2, 1.0), d=2, n_paths=20, grid_n=4096, seed=11
    )
    results.append(("a", rep_a.mean, 4 / 3 - 0.2, 4 / 3 + 0.2))
    rep_b = image_dimension_experiment(
        PowerScale(0.5), (0.2, 1.0), d=1, n_paths=20, grid_n=4096, seed=12
    )
    results.append(("b", rep_b.mean, 0.85, 1.0))
    cs = build_cantor(PowerScale(0.5), 0.6, depth=12, eps0=1.0)
    rep_c = image_dimension_experiment(
        PowerScale(0.5), cs, d=2, n_paths=20, grid_n=4096, seed=13
    )
    results.append(("c", rep_c.mean, 0.4, 0.8))
    ok = all(lo <= mean <= hi for _, mean, lo, hi in results)
    detail = "; ".join(
        f"({tag}) mean = {mean:.3f} in [{lo:.3f}, {hi:.3f}]"
        for tag, mean, lo, hi in results
    )
    _report("criterion 2 (image-dimension formula)", ok, detail)


def test_criterion_3_cantor_construction(rng):
    f = PowerScale(0.5)
    details = []
    ok = True
    for zeta in (0.5, 1.0):
        depth, eps0 = 12, 1.0
        E = build_cantor(f, zeta, depth=depth, eps0=eps0)
        est = dim_delta_estimate(E, f)
        dim_ok = abs(est.value - zeta) <= 0.05
        # the mass-distribution measure: 2^-depth on each deepest interval's midpoint
        assert E.atoms.size == 2**depth
        r_lo = 2.0 ** (-(depth - 1) / zeta)
        r_hi = f.gamma(eps0)
        violations = 0
        for _ in range(1000):
            t = rng.choice(E.atoms)
            r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
            if uniform_ball_mass(f.gamma, E.atoms, t, r) > 8.0 * r**zeta + 1e-12:
                violations += 1
        ok &= dim_ok and violations == 0
        details.append(
            f"zeta={zeta}: dim_delta = {est.value:.4f} (+-0.05), "
            f"ball-bound violations = {violations}/1000"
        )
    _report("criterion 3 (Cantor construction)", ok, "; ".join(details))


def test_criterion_4_condition_classification_table():
    registry = [
        ("power 0.4", PowerScale(0.4), "Satisfied", "Satisfied", "Violated"),
        ("powerlog(0.3,1)", PowerLogScale(0.3, 1.0), "Satisfied", "Satisfied", "Violated"),
        ("powerlog(0.3,-1)", PowerLogScale(0.3, -1.0), "Satisfied", "Satisfied", "Violated"),
        ("explog 0.3", ExpLogScale(0.3), "Violated", "Satisfied", "Satisfied"),
        ("explog 0.7", ExpLogScale(0.7), None, None, "Violated"),  # paper-open
        ("logscale 1", LogScale(1.0), "Violated", "Violated", "Satisfied"),
    ]
    ok = True
    rows = []
    for name, f, want_strong, want_weak, want_psi in registry:
        strong = check_strong_condition(f)
        weak = check_weak_condition(f, eps=0.1)
        psi = psi_sqrtlog_criterion(f)
        if want_strong is None:
            good = strong.paper_open and weak.paper_open and psi.verdict == want_psi
            rows.append(f"{name}: paper-open (reported {strong.verdict}/{weak.verdict}), "
                        f"psi={psi.verdict}")
        else:
            good = (
                strong.verdict == want_strong
                and weak.verdict == want_weak
                and psi.verdict == want_psi
            )
            rows.append(f"{name}: {strong.verdict}/{weak.verdict}/{psi.verdict}")
        ok &= good
    _report("criterion 4 (condition classification)", ok, "; ".join(rows))


def test_criterion_5_small_ball_exponents():
    d = 2
    n_paths = 20_000
    radii = [2.0**-j for j in range(4, 8)]
    details = []

    f = PowerScale(0.5)
    t0 = 0.25
    halfw = f.inverse(radii[0])
    grid = np.unique(np.concatenate([np.linspace(t0 - halfw, t0 + halfw, 257), [t0]]))
    cov = cov_stationary_increments(f, grid)
    reps = small_ball_sweep(cov, t0, radii, np.zeros(d), d, n_paths, seed=101, scale=f)
    slope_power = _slope(
        [math.log(r) for r in radii], [math.log(max(r.p_hat, 1e-9)) for r in reps]
    )
    details.append(f"power H=0.5: slope = {slope_power:.3f} (>= 1.7)")

    g = LogScale(1.0)
    grid = np.unique(np.concatenate([np.linspace(t0 - 0.05, t0 + 0.05, 257), [t0]]))
    cov = cov_stationary_increments(g, grid)
    reps = small_ball_sweep(cov, t0, radii, np.zeros(d), d, n_paths, seed=102, scale=g)
    slope_log = _slope(
        [math.log(r) for r in radii], [math.log(max(r.p_hat, 1e-9)) for r in reps]
    )
    details.append(f"logscale beta=1: slope = {slope_log:.3f} (>= 0.7)")

    ok = slope_power >= 1.7 and slope_log >= 0.7
    _report("criterion 5 (small-ball exponents)", ok, "; ".join(details))


def test_criterion_6_energy_capacity_oracle(rng):
    worst = 0.0
    undershoot = 0.0
    for _ in range(20):
        atoms = np.sort(rng.uniform(0.0, 1.0, size=5))
        dists = np.abs(atoms[:, None] - atoms[None, :])
        K = kernel_matrix(dists, beta=float(rng.uniform(0.3, 1.5)), h=0.05)
        _, e, gap = minimize_energy(K, tol=1e-10, max_iter=400_000)
        exact = exact_min_energy(K)
        worst = max(worst, abs(e - exact))
        # FW returns the energy of a feasible measure, so exact <= e
        undershoot = max(undershoot, exact - e)
    fw_ok = worst <= 1e-3 and undershoot <= 1e-9

    f = PowerScale(0.5)
    atoms = np.linspace(0.2, 1.0, 3000)
    metric = AtomRows(f, atoms)
    diam = f.gamma(0.8)
    res = [diam / 2**j for j in range(1, 7)]
    low = capacity_estimate(metric, beta=1.5, resolutions=res)
    high = capacity_estimate(metric, beta=2.5, resolutions=res)
    verdict_ok = low.verdict == "positive" and high.verdict == "zero"
    _report(
        "criterion 6 (energy/capacity oracle)",
        fw_ok and verdict_ok,
        f"max |FW - exact| over 20 instances = {worst:.2e} (<= 1e-3), "
        f"max (exact - FW) = {undershoot:.1e} (<= 1e-9); "
        f"capacity verdicts: beta=1.5 -> {low.verdict}, beta=2.5 -> {high.verdict}",
    )


def test_criterion_7_hitting_sandwich_battery():
    f = PowerScale(0.5)
    d = 3
    grid = np.linspace(0.9, 1.0, 8192)
    tol = grid_tolerance_guard(f, float(np.max(np.diff(grid))), len(grid), d)
    cov = cov_stationary_increments(f, grid)
    n_paths = 10_000
    sweep_radii = [0.05, 0.075, 0.1, 0.15, 0.2, 0.3]
    balls = [
        {"type": "ball", "center": [0.5, 0.0, 0.0], "radius": r} for r in sweep_radii
    ] + [
        {"type": "ball", "center": [0.0, 0.7, 0.0], "radius": 0.12},
        {"type": "ball", "center": [0.3, 0.3, 0.3], "radius": 0.1},
    ]
    instances = [check_hit_instance(f, grid, (0.9, 1.0), [b], d, tol) for b in balls]
    reports = hit_probability_mc(cov, instances, d=d, n_paths=n_paths, seed=404)
    add_sandwich_terms(reports, f, grid, instances, d=d)
    verdict = sandwich_report(reports, d=d)
    exponent = _slope(
        [math.log(r) for r in sweep_radii],
        [math.log(max(reports[i].p_hat, 1e-9)) for i in range(len(sweep_radii))],
    )
    ok = verdict["pass"] and 0.7 <= exponent <= 1.3
    statuses = [row["status"] for row in verdict["rows"]]
    _report(
        "criterion 7 (hitting sandwich battery)",
        ok,
        f"joint constants C1 = {verdict['c1_hat']:.3g}, C2 = {verdict['c2_hat']:.3g}, "
        f"statuses = {statuses}; radius-scaling exponent = {exponent:.3f} "
        f"(in [0.7, 1.3], classical d-2 = 1)",
    )


def test_criterion_8_intersection_dimension_sandwich():
    f = PowerScale(0.5)
    grid_n = 4096
    step = 0.8 / (grid_n - 1)
    tol = grid_tolerance_guard(f, step, grid_n, 1)
    rep = intersection_dimension_experiment(
        f, (0.2, 1.0), [{"type": "box", "lo": [0.0], "hi": [0.2]}],
        d=1, n_paths=50, tol=tol, seed=21, grid_n=grid_n,
    )
    lo = rep.lower_bound - 0.2
    hi = rep.upper_bound + 0.2
    ok = lo <= rep.max_time_dim <= hi and rep.hit_paths > 0
    _report(
        "criterion 8 (intersection-dimension sandwich)",
        ok,
        f"max-path dim = {rep.max_time_dim:.3f} in [{lo:.3f}, {hi:.3f}] "
        f"(bounds from the report's own estimates; {rep.hit_paths}/{rep.n_paths} paths hit)",
    )


def test_criterion_9_determinism(tmp_path):
    from gpfractal.cli import main

    sim_cfg = {
        "gamma": "power:H=0.5",
        "grid": {"a": 0.2, "b": 1.0, "n": 64},
        "d": 2,
        "n_paths": 6,
        "seed": 77,
    }
    dims_cfg = {
        "gamma": "power:H=0.5",
        "E": {"type": "interval", "a": 0.2, "b": 1.0},
        "d": 1,
        "n_paths": 4,
        "grid_n": 256,
        "seed": 77,
    }
    battery_cfg = {
        "gamma": "power:H=0.5",
        "grid": {"a": 0.2, "b": 1.0, "n": 64},
        "d": 1,
        "n_paths": 20,
        "tol": 1.0,
        "seed": 77,
        "instances": [
            {
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "F": [{"type": "box", "lo": [lo], "hi": [lo + 0.5]}],
            }
            for lo in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)
        ],
    }
    identical = True
    details = []
    for name, cfg in (("simulate", sim_cfg), ("dims", dims_cfg), ("battery", battery_cfg)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        payloads = []
        for run, threads in (("r1", "1"), ("r2", "4")):
            out = tmp_path / f"{name}_{run}"
            rc = main(
                [name, "--config", str(cfg_path), "--out", str(out), "--threads", threads]
            )
            assert rc == 0
            payloads.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.glob("*"))
                    if not p.name.endswith("manifest.json")
                }
            )
        same = payloads[0] == payloads[1]
        identical &= same
        details.append(f"{name}: byte-identical across --threads 1/4 = {same}")
    _report("criterion 9 (determinism)", identical, "; ".join(details))
