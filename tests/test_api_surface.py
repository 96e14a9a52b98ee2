"""The package's public names resolve, and the benchmark's tracing hooks
still attach to them (bench/tracing.py wraps functions by name and binds
some of their parameters by name)."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import gpfractal
from gpfractal.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    "conditions",
    "dimension",
    "energy",
    "fractal_sets",
    "gp_sim",
    "hitting",
    "metrics",
    "scale",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"gpfractal.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse((ROOT / "src" / "gpfractal" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert imports
    for node in imports:
        source = importlib.import_module(f"gpfractal.{node.module}")
        for alias in node.names:
            assert getattr(gpfractal, alias.name) is getattr(source, alias.name), alias.name


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_installs_runs_and_uninstalls(tracing, tmp_path):
    from gpfractal import energy, hitting

    original = (hitting.hit_probability_mc, energy.farthest_point_subsample)
    tracer, probe = tracing.Tracer(), tracing.MemoryProbe()
    tracer.install()
    probe.install()
    try:
        assert hitting.hit_probability_mc is not original[0]
        hit = {
            "gamma": "power:H=0.5", "grid": {"a": 0.5, "b": 1.0, "n": 64}, "d": 1,
            "E": {"type": "interval", "a": 0.5, "b": 1.0},
            "F": [{"type": "ball", "center": [0.5], "radius": 0.2}],
            "tol": 1.0, "n_paths": 10, "seed": 1,
        }
        capacity = {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
                    "beta": 1.5, "n_atoms": 100, "seed": 0}
        # product atoms: 16 times x a 7 x 7 box lattice
        product = {**capacity, "beta": 2.0, "n_atoms": 16, "d": 2,
                   "F": [{"type": "box", "lo": [0.0, 0.0], "hi": [0.375, 0.375]}]}
        battery = {key: hit[key] for key in ("gamma", "grid", "d", "tol", "n_paths", "seed")}
        battery["instances"] = [
            {"E": hit["E"], "F": [{"type": "ball", "center": [c], "radius": r}]}
            for c in (0.0, 0.5) for r in (0.1, 0.2, 0.4)
        ]
        runs = (("hit", hit), ("capacity", capacity), ("product", product),
                ("battery", battery))
        for name, cfg in runs:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            command = "capacity" if name == "product" else name
            assert main([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert (hitting.hit_probability_mc, energy.farthest_point_subsample) == original
    for span in ("hitting.hit_probability_mc", "hitting.hausdorff_content_estimate",
                 "energy.capacity_estimate", "dimension.dim_rho_product",
                 "fractal_sets.gamma_dyadic_count", "gp_sim.sample_paths"):
        assert tracer.calls[span] > 0, span
    # hit and battery each make one hitting call, which draws its paths once
    assert tracer.calls["hitting.hit_probability_mc"] == 2
    assert tracer.calls["gp_sim.sample_paths"] == 2
    assert tracer.counts["energy.farthest_point_subsample.metric_calls"] > 0
    assert tracer.counts["energy.minimize_energy.solves"] > 0
    # one greedy subsample pass per capacity sweep, and every solve converges
    assert (tracer.calls["energy.farthest_point_subsample"]
            == tracer.calls["energy.capacity_estimate"])
    assert (tracer.counts["energy.minimize_energy.converged"]
            == tracer.counts["energy.minimize_energy.solves"])
    assert tracer.counts["energy.minimize_energy.iterations"] > 0
    # the tracer's counted(i, idx) wrapper sees every row the subsample
    # reads: one metric call per pick, and a sweep's last subsample holds
    # every pick of its pass
    extras = [json.loads((tmp_path / "hit" / "hit_report.json").read_text())["extras"]]
    extras += [rep["extras"] for rep in json.loads(
        (tmp_path / "battery" / "battery_verdict.json").read_text())["reports"]]
    finals = [ex["capacity_n_atoms"][-1] for ex in extras]
    finals += [json.loads((tmp_path / name / "capacity_report.json").read_text())["n_atoms"][-1]
               for name in ("capacity", "product")]
    assert len(finals) == tracer.calls["energy.farthest_point_subsample"] == 9
    assert tracer.counts["energy.farthest_point_subsample.metric_calls"] == sum(finals)


def test_names_the_tracer_binds():
    """The parameters and attributes bench/tracing.py binds by name on calls
    the tracer test above does not reach: the Cholesky factor, the path
    writers and the energy layer."""
    from gpfractal import energy, gp_sim
    from gpfractal.scale import PowerScale

    for fn, names in ((gp_sim.PathBatch.to_binary, {"path"}),
                      (gp_sim.PathBatch.to_csv, {"path"}),
                      (gp_sim.CovMatrix.cholesky, {"self"}),
                      (energy.farthest_point_subsample, {"metric"}),
                      (energy.minimize_energy, {"trace", "tol"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__qualname__
    # a non-uniform grid takes the Cholesky sampler, whose hook reads these
    cov = gp_sim.cov_stationary_increments(PowerScale(0.5), np.geomspace(0.05, 1.0, 40))
    assert cov.sampler == "cholesky"
    assert cov.cholesky() is cov._chol and cov.jitter_used == 0.0
