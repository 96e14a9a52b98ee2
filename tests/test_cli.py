from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gpfractal
from gpfractal import cli
from gpfractal.cli import EXIT_CONFIG, EXIT_OK, main
from gpfractal.fractal_sets import build_cantor
from gpfractal.scale import LogScale


def _write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _read_outputs(out_dir: Path, skip_manifest: bool = True) -> dict:
    payloads = {}
    for p in sorted(out_dir.glob("*")):
        if skip_manifest and p.name.endswith("manifest.json"):
            continue
        payloads[p.name] = p.read_bytes()
    return payloads


SIM_CONFIG = {
    "gamma": "power:H=0.5",
    "grid": {"a": 0.2, "b": 1.0, "n": 32},
    "d": 2,
    "n_paths": 4,
    "seed": 11,
}


class TestSimulate:
    @pytest.mark.parametrize("cov, n, d", [("stationary", 256, 2), ("volterra", 128, 4)])
    def test_memory_does_not_grow_with_paths(self, tmp_path, cov, n, d):
        # a batch of 256 more paths would hold 256 * n * d floats, 1 MB, and
        # writing it whole would copy them once more; a first one-path run
        # keeps one-off allocations out of the two measured peaks
        peaks = []
        for n_paths in (1, 256, 512):
            cfg = _write_config(tmp_path, {**SIM_CONFIG, "cov": cov, "d": d, "n_paths": n_paths,
                                           "grid": {"a": 0.2, "b": 1.0, "n": n}},
                                f"{n_paths}.json")
            tracemalloc.start()
            try:
                code = main(["simulate", "--config", cfg, "--out", str(tmp_path / str(n_paths))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        assert peaks[2] - peaks[1] <= 1e6

    def test_paths_bin_budget_is_its_size(self, tmp_path, monkeypatch):
        from gpfractal import cli

        cfg = _write_config(tmp_path, SIM_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        size = (tmp_path / "a" / "paths.bin").stat().st_size
        assert size == 40 + 8 * 32 * (1 + 2 * 4)
        monkeypatch.setattr(cli, "_BIN_BYTES", size)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        monkeypatch.setattr(cli, "_BIN_BYTES", size - 1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_CONFIG
        assert not (tmp_path / "c").exists()

    def test_happy_path(self, tmp_path):
        cfg = _write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "paths.bin").exists()
        assert (out / "paths.csv").exists()
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert "config_sha256" in manifest

    def test_missing_gamma_names_field(self, tmp_path, capsys):
        bad = {k: v for k, v in SIM_CONFIG.items() if k != "gamma"}
        cfg = _write_config(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "'gamma'" in capsys.readouterr().err

    def test_invalid_d(self, tmp_path):
        bad = dict(SIM_CONFIG, d=0)
        cfg = _write_config(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_idempotent_payloads(self, tmp_path):
        cfg = _write_config(tmp_path, SIM_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert _read_outputs(out1) == _read_outputs(out2)

    def test_manifest_config_round_trip(self, tmp_path):
        cfg = _write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config"] == SIM_CONFIG
        # re-running from the embedded config reproduces the payloads
        cfg2 = _write_config(tmp_path, manifest["config"], name="rt.json")
        out2 = tmp_path / "out2"
        main(["simulate", "--config", cfg2, "--out", str(out2)])
        assert _read_outputs(out) == _read_outputs(out2)

    def test_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path, SIM_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "99"])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert _read_outputs(out1) != _read_outputs(out2)

    def test_numerical_failure_exit_code(self, tmp_path):
        from gpfractal.cli import EXIT_NUMERICAL

        bad = dict(SIM_CONFIG, gamma="powerlog:H=0.3,beta=-1.0",
                   grid={"a": 0.05, "b": 0.5, "n": 64})
        cfg = _write_config(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL


class TestDims:
    def test_report_written(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "d": 1,
                "n_paths": 3,
                "grid_n": 256,
                "seed": 5,
            },
        )
        out = tmp_path / "out"
        assert main(["dims", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "dims_report.json").read_text())
        assert 0.5 <= report["mean"] <= 1.2
        assert (out / "dims_counts.csv").read_text().startswith("scale,count")

    def test_reports_sampler(self, tmp_path):
        base = {"gamma": "power:H=0.5", "d": 1, "n_paths": 2, "grid_n": 64, "seed": 5}
        for E, sampler in (
            ({"type": "interval", "a": 0.2, "b": 1.0}, "circulant"),
            ({"type": "cantor", "zeta": 0.6, "depth": 5}, "cholesky"),
        ):
            out = tmp_path / sampler
            cfg = _write_config(tmp_path, dict(base, E=E), name=f"{sampler}.json")
            assert main(["dims", "--config", cfg, "--out", str(out)]) == EXIT_OK
            params = json.loads((out / "dims_report.json").read_text())["params"]
            assert params["sampler"] == sampler

    def test_threads_do_not_change_payloads(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "d": 1,
                "n_paths": 4,
                "grid_n": 128,
                "seed": 5,
            },
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["dims", "--config", cfg, "--out", str(out1), "--threads", "1"])
        main(["dims", "--config", cfg, "--out", str(out2), "--threads", "4"])
        assert _read_outputs(out1) == _read_outputs(out2)

    def test_block_budget_is_its_size(self, tmp_path, monkeypatch):
        from gpfractal import cli

        for name, E, n_paths, paths in [
            # circulant: 2 workers x 8-path chunks, above the 9 paths themselves
            ("circulant", {"type": "interval", "a": 0.2, "b": 1.0}, 9, 2 * 8),
            # Cholesky on 64 Cantor atoms: 2 workers x 64-path blocks of 70 paths
            ("cholesky", {"type": "cantor", "zeta": 0.5, "depth": 6}, 70, 2 * 64),
            # one worker runs: 5 paths make one chunk and one block
            ("one_worker", {"type": "interval", "a": 0.2, "b": 1.0}, 5, 5),
        ]:
            cfg = _write_config(tmp_path, {"gamma": "power:H=0.5", "d": 3, "n_paths": n_paths,
                                           "E": E, "grid_n": 64, "seed": 5}, f"{name}.json")
            need = 8 * paths * 64 * 3  # floats of the paths in flight x 64 times x d = 3
            monkeypatch.setattr(cli, "_BLOCK_BYTES", need)
            assert main(["dims", "--config", cfg, "--out", str(tmp_path / f"{name}_a"),
                         "--threads", "2"]) == EXIT_OK, name
            monkeypatch.setattr(cli, "_BLOCK_BYTES", need - 1)
            assert main(["dims", "--config", cfg, "--out", str(tmp_path / f"{name}_b"),
                         "--threads", "2"]) == EXIT_CONFIG, name
            assert not (tmp_path / f"{name}_b").exists()

    def test_cantor_that_does_not_factor_exits_3(self, tmp_path, capsys):
        # the finest delta^2 of this set, about 4e-14, is round-off of R's
        # O(1) entries; no jitter rescues the factor
        from gpfractal.cli import EXIT_NUMERICAL

        E = {"type": "cantor", "zeta": 0.5, "depth": 12, "eps0": 1.0}
        cfg = _write_config(tmp_path, {"gamma": "power:H=0.75", "E": E, "d": 2, "n_paths": 3,
                                       "grid_n": 1024, "seed": 5})
        assert main(["dims", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "not positive definite (n=4096) in the block column of rows 2816..3071" in err


class TestBlasThreads:
    """Importing the package pins BLAS to one thread, so no payload byte
    depends on the caller's OPENBLAS_NUM_THREADS."""

    # the payload gate's capacity_interval_ball and simulate_volterra_n600 rows
    CONFIGS = {
        "capacity": {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
                     "beta": 2.5, "seed": 0, "n_atoms": 256, "d": 2,
                     "F": [{"type": "ball", "center": [0.0, 0.0], "radius": 0.3}]},
        "simulate": {**SIM_CONFIG, "cov": "volterra",
                     "grid": {"a": 1 / 600, "b": 1.0, "n": 600}},
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_payloads_equal_across_blas_threads(self, tmp_path, command):
        cfg = _write_config(tmp_path, self.CONFIGS[command])
        src = str(Path(gpfractal.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        payloads = []
        for blas in ("1", "2"):
            out = tmp_path / blas
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas}
            done = subprocess.run([sys.executable, "-m", "gpfractal.cli", command, "--config",
                                   cfg, "--out", str(out)], env=env, capture_output=True)
            assert done.returncode == EXIT_OK, done.stderr.decode()
            payloads.append(_read_outputs(out))
        assert payloads[0] and payloads[0] == payloads[1]

    def test_in_process_blas_runs_one_thread(self):
        # conftest imports gpfractal before NumPy, so the in-process byte
        # tests run the one BLAS thread every CLI call runs
        root = Path(np.__file__).resolve().parent
        libs = sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")])
        names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")
        getters = [getattr(ctypes.CDLL(str(lib)), name, None) for lib in libs for name in names]
        getters = [g for g in getters if g is not None]
        if not getters:
            pytest.skip("this NumPy bundles no OpenBLAS to query")
        assert getters[0]() == 1


class TestCantor:
    def test_depth_zero_single_interval(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "zeta": 1.0, "depth": 0, "seed": 0},
        )
        out = tmp_path / "out"
        assert main(["cantor", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "cantor_set.json").read_text())
        assert payload["deepest_intervals"] == [[0.0, 1.0]]

    def test_atoms_csv(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "zeta": 1.0, "depth": 3, "seed": 0},
        )
        out = tmp_path / "out"
        main(["cantor", "--config", cfg, "--out", str(out)])
        lines = (out / "cantor_atoms.csv").read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_atoms_csv_keeps_one_row_per_interval(self, tmp_path):
        # logscale lengths fall below an ulp of the positions by depth 4, so
        # 16 deepest intervals share 9 distinct midpoints
        cfg = _write_config(tmp_path, {"gamma": "logscale:beta=1.0", "zeta": 0.5, "depth": 4,
                                       "eps0": 0.4})
        out = tmp_path / "out"
        assert main(["cantor", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = _csv_rows(out / "cantor_atoms.csv")
        assert len(rows) == 16 and {w for w, _ in rows} == {"0.0625"}
        assert len({x for _, x in rows}) == 9
        assert build_cantor(LogScale(1.0), 0.5, 4, eps0=0.4).atoms.size == 9


class TestCheckScale:
    def test_power_strong_satisfied_row(self, tmp_path):
        cfg = _write_config(tmp_path, {"gamma": "power:H=0.5", "seed": 0})
        out = tmp_path / "out"
        assert main(["check-scale", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "check_scale.csv").read_text().splitlines()
        strong = [r for r in rows if ",Strong24," in r]
        assert len(strong) == 1 and ",Satisfied," in strong[0]

    def test_trace_flag(self, tmp_path):
        cfg = _write_config(tmp_path, {"families": ["power:H=0.5"], "seed": 0})
        out = tmp_path / "out"
        main(["check-scale", "--config", cfg, "--out", str(out), "--trace"])
        assert (out / "check_scale_traces.csv").exists()


class TestHitAndCapacity:
    def test_hit_report(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "grid": {"a": 0.2, "b": 1.0, "n": 128},
                "d": 1,
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "F": [{"type": "box", "lo": [-5.0], "hi": [5.0]}],
                "tol": 0.8,
                "n_paths": 20,
                "seed": 3,
            },
        )
        out = tmp_path / "out"
        assert main(["hit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "hit_report.json").read_text())
        assert rep["p_hat"] == 1.0

    def test_capacity_report_with_trace(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "beta": 1.5,
                "n_atoms": 300,
                "seed": 0,
            },
        )
        out = tmp_path / "out"
        assert main(["capacity", "--config", cfg, "--out", str(out), "--trace"]) == EXIT_OK
        rep = json.loads((out / "capacity_report.json").read_text())
        assert rep["verdict"] in {"positive", "zero", "inconclusive"}
        # the trace's last row per resolution is the solve's last iteration
        rows = (out / "capacity_trace.csv").read_text().splitlines()[1:]
        last = {}
        for row in rows:
            h, k = row.split(",")[:2]
            last[float(h)] = int(k) + 1
        assert [last[h] for h in rep["resolutions"]] == rep["iterations"]

    def test_hit_short_E_keeps_two_resolutions(self, tmp_path):
        # only diam/2 clears the resolution floor here; the sweep falls back
        # to diam/2 and diam/4 instead of failing with one resolution
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "grid": {"a": 0.2, "b": 1.0, "n": 128},
                "d": 1,
                "E": {"type": "interval", "a": 0.5, "b": 0.55},
                "F": [{"type": "box", "lo": [0.0], "hi": [0.05]}],
                "tol": 0.8,
                "n_paths": 50,
                "seed": 1,
            },
        )
        out = tmp_path / "out"
        assert main(["hit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        extras = json.loads((out / "hit_report.json").read_text())["extras"]
        res = extras["capacity_resolutions"]
        assert len(res) == 2 and res[1] == pytest.approx(res[0] / 2)
        assert len(extras["capacity_iterations"]) == len(extras["capacity_gaps"]) == 2

    def test_capacity_too_few_atoms(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
             "beta": 1.5, "n_atoms": 2, "seed": 0},
        )
        assert main(["capacity", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "atom set too coarse" in err and "Traceback" not in err

    def test_clipped_extrapolation_is_inconclusive(self, tmp_path):
        # the geometric extrapolation of this sweep is negative; clipped to
        # 0, it contradicts a "positive" verdict
        E = {"type": "cantor", "zeta": 0.5, "depth": 4, "eps0": 0.4}
        cfg = _write_config(tmp_path, {"gamma": "logscale:beta=1.0", "E": E, "beta": 0.35,
                                       "seed": 0})
        assert main(["capacity", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "capacity_report.json").read_text())
        assert report["verdict"] == "inconclusive" and report["extrapolated"] == 0.0

    def test_capacity_point_and_box(self, tmp_path):
        # a point member used to set the lattice pitch to 0
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
             "beta": 1.5, "n_atoms": 64, "seed": 0, "d": 2,
             "F": [{"type": "box", "lo": [0.3, 0.3], "hi": [0.3, 0.3]},
                   {"type": "box", "lo": [0.0, 0.0], "hi": [0.5, 0.5]}]},
        )
        out = tmp_path / "out"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "capacity_report.json").read_text())
        assert rep["verdict"] in {"positive", "zero", "inconclusive"}

    def test_capacity_product_thinned_to_the_atom_cap(self, tmp_path, monkeypatch):
        # 343 lattice points x 64 times would be 21,952 atoms; every 18th of
        # the 512 times leaves 29, 9,947 atoms.  Coarse resolutions keep the
        # solves small: the thinning happens before the sweep.
        sizes = []
        atom_rows = cli.AtomRows

        def recorded(scale, times, points=None):
            sizes.append((len(times), 0 if points is None else len(points)))
            return atom_rows(scale, times, points)

        monkeypatch.setattr(cli, "AtomRows", recorded)
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
             "beta": 1.5, "seed": 0, "d": 3, "resolutions": [0.4, 0.2],
             "F": [{"type": "box", "lo": [0.0, 0.0, 0.0], "hi": [0.3, 0.3, 0.3]}]},
        )
        out = tmp_path / "out"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert sizes[-1] == (29, 343)
        rep = json.loads((out / "capacity_report.json").read_text())
        assert rep["resolutions"] == [0.4, 0.2]

    def test_capacity_box_above_64_dimensions(self, tmp_path):
        # 65 axes, more than an ndarray may have; the box's lattice holds 7 points
        cfg = _write_config(
            tmp_path,
            {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
             "beta": 2.0, "n_atoms": 64, "seed": 0, "d": 65,
             "F": [{"type": "box", "lo": [0.0] * 65, "hi": [1.0] + [0.1] * 64}]},
        )
        out = tmp_path / "out"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "capacity_report.json").read_text())
        assert rep["verdict"] == "positive" and rep["n_atoms"] == [10, 53, 448]

    @pytest.mark.parametrize("name", ["missing.csv", ".", "one_column.csv"])
    def test_unreadable_custom_scale(self, tmp_path, capsys, name):
        (tmp_path / "one_column.csv").write_text("0.001,0.01\n0.5\n")
        cfg = _write_config(tmp_path, {"gamma": f"custom:path={tmp_path / name}"})
        assert main(["check-scale", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "custom scale" in err and "Traceback" not in err

    def test_hit_reports_sampler(self, tmp_path):
        base = {
            "gamma": "power:H=0.5",
            "grid": {"a": 0.2, "b": 1.0, "n": 64},
            "d": 1,
            "E": {"type": "interval", "a": 0.2, "b": 1.0},
            "F": [{"type": "box", "lo": [0.5], "hi": [1.0]}],
            "tol": 1.0,
            "n_paths": 10,
            "seed": 3,
        }
        expected = {
            "stationary": ("circulant", {"min_embedding_eig", "start_cond_var"}),
            "volterra": ("cholesky", {"jitter_used", "quad_rel_change"}),
        }
        for model, (sampler, certificate) in expected.items():
            out = tmp_path / model
            cfg = _write_config(tmp_path, dict(base, cov=model), name=f"{model}.json")
            assert main(["hit", "--config", cfg, "--out", str(out)]) == EXIT_OK
            extras = json.loads((out / "hit_report.json").read_text())["extras"]
            assert extras["sampler"] == sampler
            assert certificate <= set(extras)

    def test_bad_F_member(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "grid": {"a": 0.2, "b": 1.0, "n": 64},
                "d": 2,
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "F": [{"type": "ball", "center": [0.0], "radius": 0.1}],
                "tol": 0.8,
                "n_paths": 5,
                "seed": 3,
            },
        )
        assert main(["hit", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


class TestOutOfModel:
    """Inputs outside the hitting model exit 2 before any covariance work."""

    HIT = {
        "gamma": "power:H=0.5",
        "grid": {"a": 0.9, "b": 1.0, "n": 256},
        "d": 2,
        "E": {"type": "interval", "a": 0.9, "b": 1.0},
        "F": [{"type": "ball", "center": [0.5, 0.0], "radius": 0.2}],
        "tol": 1.0,
        "n_paths": 5,
        "seed": 7,
    }

    @pytest.fixture(autouse=True)
    def no_covariance(self, monkeypatch):
        from gpfractal import cli

        def boom(*_):
            raise AssertionError("covariance built for an out-of-model config")

        monkeypatch.setattr(cli, "_build_cov", boom)

    def _run(self, tmp_path, capsys, command, cfg, message):
        path = _write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_tol_below_guard(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "hit", dict(self.HIT, tol=1e-3), "grid too coarse for tol")

    @pytest.mark.parametrize("command", ["hit", "battery"])
    def test_path_minima_table_above_budget(self, tmp_path, capsys, command):
        # 10^10 paths would need a 74.5 GiB table for one ball center, 447 GiB for six
        cfg = dict(self.HIT, grid={"a": 0.2, "b": 1.0, "n": 64}, tol=2.0, n_paths=10**10,
                   E={"type": "interval", "a": 0.2, "b": 1.0})
        if command == "battery":
            cfg["instances"] = [{"E": cfg["E"], "F": [{"type": "ball", "center": [0.5, y],
                                                       "radius": 0.2}]}
                                for y in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        table = "74.5 GiB" if command == "hit" else "447.0 GiB"
        self._run(tmp_path, capsys, command, cfg, f"n_paths = 10000000000 needs a {table}")

    def test_paths_bin_above_budget(self, tmp_path, capsys):
        # 8192 points, d = 3 and 10^6 paths would make a 196.6 GB paths.bin
        cfg = dict(SIM_CONFIG, grid={"a": 0.2, "b": 1.0, "n": 8192}, d=3, n_paths=10**6)
        self._run(tmp_path, capsys, "simulate", cfg,
                  "n_paths = 1000000 needs a 183.1 GiB paths.bin")
        assert not (tmp_path / "out").exists()

    def test_E_outside_grid(self, tmp_path, capsys):
        cfg = dict(self.HIT, E={"type": "interval", "a": 0.2, "b": 0.5})
        self._run(tmp_path, capsys, "hit", cfg, "E contains no grid points")

    def test_battery_checks_every_instance_first(self, tmp_path, capsys):
        inst = {"E": self.HIT["E"], "F": self.HIT["F"]}
        bad = dict(inst, E={"type": "interval", "a": 0.2, "b": 0.5})
        cfg = {k: v for k, v in self.HIT.items() if k not in ("E", "F")}
        cfg["instances"] = [inst] * 5 + [bad]
        self._run(tmp_path, capsys, "battery", cfg, "E contains no grid points")

    def test_cantor_E_off_the_grid(self, tmp_path, capsys):
        cfg = dict(self.HIT, grid={"a": 0.2, "b": 1.0, "n": 4096},
                   E={"type": "cantor", "zeta": 0.5, "depth": 8})
        self._run(tmp_path, capsys, "hit", cfg, "E has atoms off the grid")

    def test_battery_with_cantor_E_off_the_grid(self, tmp_path, capsys):
        inst = {"E": self.HIT["E"], "F": self.HIT["F"]}
        bad = dict(inst, E={"type": "cantor", "zeta": 0.5, "depth": 5})
        cfg = {k: v for k, v in self.HIT.items() if k not in ("E", "F")}
        cfg["instances"] = [inst] * 5 + [bad]
        self._run(tmp_path, capsys, "battery", cfg, "E has atoms off the grid")

    @pytest.mark.parametrize("command", ["hit", "battery"])
    def test_lattice_checked_before_sampling(self, tmp_path, capsys, monkeypatch, command):
        # two boxes 1e12 apart in size: F's lattice would need 6e12 points on one axis
        from gpfractal import hitting

        def boom(*_, **__):
            raise AssertionError("paths drawn for an out-of-model F")

        monkeypatch.setattr(hitting, "sample_paths", boom)
        bad_F = [{"type": "box", "lo": [0.0], "hi": [1e-9]},
                 {"type": "box", "lo": [0.0], "hi": [1000.0]}]
        cfg = dict(self.HIT, d=1, F=bad_F)
        if command == "battery":
            inst = {"E": self.HIT["E"], "F": [{"type": "box", "lo": [0.0], "hi": [1.0]}]}
            cfg = {k: v for k, v in cfg.items() if k not in ("E", "F")}
            cfg["instances"] = [inst] * 5 + [dict(inst, F=bad_F)]
        self._run(tmp_path, capsys, command, cfg, "points on one axis")

    @pytest.mark.parametrize("command", ["hit", "simulate"])
    def test_d_with_colliding_substreams(self, tmp_path, capsys, command):
        cfg = dict(self.HIT, d=65536, n_paths=10**12)
        cfg["F"] = [{"type": "ball", "center": [0.0] * 65536, "radius": 0.2}]
        self._run(tmp_path, capsys, command, cfg, "'d'")


THREAD_CONFIGS = {
    "simulate": SIM_CONFIG | {"d": 3, "n_paths": 97},
    "simulate_volterra": SIM_CONFIG | {"cov": "volterra", "d": 3, "n_paths": 97,
                                       "grid": {"a": 1 / 32, "b": 1.0, "n": 32}},
    "hit": TestOutOfModel.HIT | {"n_paths": 97},
    "battery": {k: v for k, v in TestOutOfModel.HIT.items() if k not in ("E", "F")}
    | {"n_paths": 97, "instances": [
        {"E": TestOutOfModel.HIT["E"],
         "F": [{"type": "ball", "center": [0.5, 0.0], "radius": r}]}
        for r in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)]},
}


@pytest.mark.parametrize("name", list(THREAD_CONFIGS))
def test_threads_keep_payloads_and_enter_the_manifest(tmp_path, name):
    command = name.split("_")[0]
    cfg = _write_config(tmp_path, THREAD_CONFIGS[name])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == EXIT_OK
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["threads"] == int(threads)
        outputs.append(_read_outputs(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = _write_config(tmp_path, THREAD_CONFIGS["hit"])
    out = tmp_path / "out"
    assert main(["hit", "--config", cfg, "--out", str(out), "--threads", threads]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--threads" in err
    assert not out.exists()


def test_threads_above_cap_rejected(tmp_path, capsys, monkeypatch):
    from gpfractal import cli, gp_sim

    def boom(*_args, **_kw):
        raise AssertionError("work started")

    # neither the config nor a worker pool is touched
    monkeypatch.setattr(cli, "_load_config", boom)
    monkeypatch.setattr(gp_sim, "ThreadPoolExecutor", boom)
    cfg = _write_config(tmp_path, THREAD_CONFIGS["hit"])
    out = tmp_path / "out"
    assert main(["hit", "--config", cfg, "--out", str(out), "--threads", "65"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: config field '--threads': must be in [1, 64]\n"
    assert not out.exists()


class TestBattery:
    def test_small_battery_runs(self, tmp_path):
        instances = [
            {
                "E": {"type": "interval", "a": 0.2, "b": 1.0},
                "F": [{"type": "box", "lo": [lo], "hi": [lo + 0.5]}],
            }
            for lo in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)
        ]
        cfg = _write_config(
            tmp_path,
            {
                "gamma": "power:H=0.5",
                "grid": {"a": 0.2, "b": 1.0, "n": 128},
                "d": 1,
                "n_paths": 60,
                "tol": 0.8,
                "seed": 12,
                "instances": instances,
            },
        )
        out = tmp_path / "out"
        assert main(["battery", "--config", cfg, "--out", str(out)]) == EXIT_OK
        verdict = json.loads((out / "battery_verdict.json").read_text())
        assert len(verdict["verdict"]["rows"]) == 6
        csv_text = (out / "battery_verdict.csv").read_text()
        assert csv_text.startswith("instance,p_hat")


LOG = "logscale:beta=1.0"  # x_max = 0.5
CANTOR = {"type": "cantor", "zeta": 0.5, "depth": 4}
DIMS = {"gamma": "power:H=0.5", "d": 1, "n_paths": 2, "grid_n": 64, "seed": 1}
CAPACITY = {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
            "beta": 1.5, "seed": 0}
REJECTED = {
    "dims_interval_beyond_x_max": ("dims", dict(
        DIMS, gamma=LOG, E={"type": "interval", "a": 0.2, "b": 0.9})),
    "dims_cantor_eps0_beyond_x_max": ("dims", dict(DIMS, gamma=LOG, E=dict(CANTOR, eps0=1.0))),
    "cantor_eps0_beyond_x_max": ("cantor", {"gamma": LOG, "zeta": 0.5, "depth": 4, "eps0": 1.0}),
    "capacity_cantor_eps0_beyond_x_max": ("capacity", dict(
        CAPACITY, gamma=LOG, E=dict(CANTOR, eps0=1.0))),
    "capacity_interval_beyond_x_max": ("capacity", dict(
        CAPACITY, gamma=LOG, E={"type": "interval", "a": 0.2, "b": 0.9})),
    "capacity_one_atom": ("capacity", dict(CAPACITY, n_atoms=1)),
    "capacity_atoms_above_cap": ("capacity", dict(CAPACITY, n_atoms=20000)),
    "E_eps0_above_one": ("dims", dict(DIMS, E=dict(CANTOR, eps0=2.0))),
    "E_eps0_not_a_number": ("capacity", dict(CAPACITY, E=dict(CANTOR, eps0="x"))),
    "cantor_eps0_above_one": ("cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 4,
                                         "eps0": 2.0}),
    "cantor_eps0_not_a_number": ("cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 4,
                                            "eps0": "x"}),
    "check_scale_eps_not_a_number": ("check-scale", {"gamma": "power:H=0.5", "eps": "x"}),
    "box_lo_above_hi": ("hit", dict(
        TestOutOfModel.HIT, F=[{"type": "box", "lo": [0.5, 0.0], "hi": [0.2, 0.4]}])),
    # a box flat on one axis has content 0 and feature size 0
    "hit_flat_box": ("hit", dict(
        TestOutOfModel.HIT, grid={"a": 0.2, "b": 1.0, "n": 64},
        E={"type": "interval", "a": 0.2, "b": 1.0}, tol=2.0,
        F=[{"type": "box", "lo": [0.2, 0.0], "hi": [0.5, 0.0]}])),
    "battery_flat_box": ("battery", {
        **{k: v for k, v in TestOutOfModel.HIT.items() if k not in ("E", "F")},
        "instances": [{"E": TestOutOfModel.HIT["E"], "F": TestOutOfModel.HIT["F"]}] * 5
        + [{"E": TestOutOfModel.HIT["E"], "F": [{"type": "box", "lo": [0.2, 0.1], "hi": [0.2, 0.4]}]}],
    }),
    # a bool is not a number, and NaN and the infinities are not finite
    "hit_d_true": ("hit", dict(
        TestOutOfModel.HIT, d=True, F=[{"type": "box", "lo": [0.5], "hi": [1.0]}])),
    "hit_n_paths_true": ("hit", dict(TestOutOfModel.HIT, n_paths=True)),
    "hit_center_false": ("hit", dict(
        TestOutOfModel.HIT, F=[{"type": "ball", "center": [0.5, False], "radius": 0.2}])),
    "hit_radius_true": ("hit", dict(
        TestOutOfModel.HIT, F=[{"type": "ball", "center": [0.5, 0.0], "radius": True}])),
    # an int beyond float range once escaped math.isfinite as an OverflowError
    "hit_center_beyond_float": ("hit", dict(
        TestOutOfModel.HIT, F=[{"type": "ball", "center": [0.5, 10**400], "radius": 0.2}])),
    "capacity_beta_nan": ("capacity", dict(CAPACITY, beta=float("nan"))),
    "capacity_beta_infinity": ("capacity", dict(CAPACITY, beta=float("inf"))),
    "check_scale_eps_nan": ("check-scale", {"gamma": "power:H=0.5", "eps": float("nan")}),
    # gamma(x)^(1 - eps) overflowed a float
    "check_scale_eps_above_one": ("check-scale", {"gamma": "power:H=0.5", "eps": 70}),
    # a table with no rows answers nothing
    "check_scale_no_families": ("check-scale", {"families": []}),
    "capacity_resolutions_infinity": ("capacity", dict(CAPACITY, resolutions=[float("inf"), 0.1])),
    "capacity_resolutions_repeated": ("capacity", dict(CAPACITY, resolutions=[0.5, 0.5])),
    # paths.bin stores the seed as an int64
    "simulate_seed_above_int64": ("simulate", dict(SIM_CONFIG, seed=2**63)),
    # one atom, so every default resolution is 0
    "capacity_cantor_one_atom": ("capacity", dict(
        CAPACITY, E={"type": "cantor", "zeta": 0.001, "depth": 0})),
    # 2^14 atoms, past the 8192-point cap of every command's atom set
    "cantor_depth14": ("cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 14}),
    "dims_cantor_depth14": ("dims", dict(DIMS, E=dict(CANTOR, depth=14))),
    # an infinite r in a knot file once made x_max = inf with a flat last segment
    "custom_scale_inf_knot": ("cantor", {"gamma": "custom:path=$TMP/inf_knot.csv", "zeta": 0.5,
                                         "depth": 4}),
    # a NaN scale parameter once wrote paths that were NaN throughout
    "simulate_scale_nan": ("simulate", dict(SIM_CONFIG, gamma="powerlog:H=0.3,beta=nan",
                                            grid={"a": 0.01, "b": 0.02, "n": 32})),
    # no point of the condition grid lay in (0, x_max]: an IndexError escaped
    "check_scale_x_max_negative": ("check-scale", {"gamma": "power:H=0.5,x_max=-1"}),
    # a per-instance tol was read but set by nothing; the top-level tol applies
    "battery_instance_tol": ("battery", {
        **{k: v for k, v in TestOutOfModel.HIT.items() if k not in ("E", "F")},
        "instances": [{"E": TestOutOfModel.HIT["E"], "F": TestOutOfModel.HIT["F"]}] * 5
        + [{"E": TestOutOfModel.HIT["E"], "F": TestOutOfModel.HIT["F"], "tol": 2.0}],
    }),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_invalid_config_exits_2_at_parse_time(tmp_path, capsys, name):
    command, cfg = REJECTED[name]
    (tmp_path / "inf_knot.csv").write_text("1e-6,0.004\n0.001,0.06\n0.5,0.75\ninf,0.8\n")
    path = _write_config(tmp_path, json.loads(json.dumps(cfg).replace("$TMP", str(tmp_path))))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


@pytest.mark.parametrize("case", ["config_directory", "config_not_utf8", "out_under_a_file"])
def test_unreadable_config_or_out_exits_2(tmp_path, capsys, monkeypatch, case):
    config = _write_config(tmp_path, {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 4})
    out, flag = tmp_path / "out", "--config"
    if case == "config_directory":
        config = str(tmp_path)
    elif case == "config_not_utf8":
        Path(config).write_bytes(b'{"gamma": "power:H=0.5", "zeta": 0.5, "depth": 4, "\xff": 1}')
    else:
        out, flag = Path(config) / "out", "--out"

        def refuse(*args):
            raise AssertionError("the command ran with an --out that cannot be made")

        # the --out check comes before the work
        monkeypatch.setitem(cli._COMMANDS, "cantor", refuse)
    assert main(["cantor", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field '{flag}'") and "Traceback" not in err
    assert not out.exists()


DEEP_CANTOR = {"type": "cantor", "zeta": 0.5, "depth": 40}
DEEP_CANTOR_CONFIGS = {
    "cantor": {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 40},
    "dims": dict(DIMS, E=DEEP_CANTOR),
    "hit": dict(TestOutOfModel.HIT, E=DEEP_CANTOR),
    "capacity": dict(CAPACITY, E=DEEP_CANTOR),
    "battery": THREAD_CONFIGS["battery"] | {
        "instances": THREAD_CONFIGS["battery"]["instances"][:5] + [
            {"E": DEEP_CANTOR, "F": TestOutOfModel.HIT["F"]}]},
}


@pytest.mark.parametrize("command", list(DEEP_CANTOR_CONFIGS))
def test_deep_cantor_rejected_before_it_is_built(tmp_path, capsys, monkeypatch, command):
    # 2^40 intervals at the deepest level: the depth is checked before any is built
    from gpfractal import cli

    def boom(*_args, **_kw):
        raise AssertionError("Cantor set built")

    monkeypatch.setattr(cli, "build_cantor", boom)
    path = _write_config(tmp_path, DEEP_CANTOR_CONFIGS[command])
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "config field 'depth'" in err
    assert not out.exists()


def _csv_rows(path: Path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _battery_twin(out):
    rows = json.loads((out / "battery_verdict.json").read_text())["verdict"]["rows"]
    header = (out / "battery_verdict.csv").read_text().splitlines()[0].split(",")
    return _csv_rows(out / "battery_verdict.csv"), [[r[k] for k in header] for r in rows]


def _dims_twin(out):
    report = json.loads((out / "dims_report.json").read_text())
    return _csv_rows(out / "dims_counts.csv"), report["dim_delta"]["counts"]


def _check_scale_twin(out):
    rows = json.loads((out / "check_scale.json").read_text())["rows"]
    cells = [[row["family"], v["condition"], v["verdict"], v["fitted_constant"], v["paper_open"]]
             for row in rows for v in (row["strong"], row["weak"], row["psi_sqrtlog"])]
    return _csv_rows(out / "check_scale.csv"), cells


def _cantor_twin(out):
    cs = json.loads((out / "cantor_set.json").read_text())
    weight = 2.0 ** -cs["depth"]
    return _csv_rows(out / "cantor_atoms.csv"), [
        [weight, 0.5 * (a + b)] for a, b in cs["deepest_intervals"]]


CSV_TWINS = {
    "battery": (THREAD_CONFIGS["battery"] | {"n_paths": 20}, _battery_twin),
    "dims": (dict(DIMS, E=CANTOR), _dims_twin),
    "check-scale": ({"families": ["power:H=0.4", "logscale:beta=1.0"]}, _check_scale_twin),
    "cantor": ({"gamma": "power:H=0.5", "zeta": 0.6, "depth": 5}, _cantor_twin),
}


@pytest.mark.parametrize("command", list(CSV_TWINS))
def test_csv_cells_equal_their_json_twin(tmp_path, command):
    # a float cell is repr(float), so float(cell) gives the JSON value back exactly
    cfg, twin = CSV_TWINS[command]
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    csv_rows, json_rows = twin(out)
    assert len(csv_rows) == len(json_rows) > 0
    for cells, values in zip(csv_rows, json_rows):
        assert len(cells) == len(values)
        for cell, value in zip(cells, values):
            if isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


def test_failed_command_writes_nothing(tmp_path, capsys):
    # the first family's checks run before the second fails to parse
    cfg = _write_config(tmp_path, {"families": [
        "power:H=0.5", f"custom:path={tmp_path / 'no_such_knots.csv'}"]})
    out = tmp_path / "out"
    assert main(["check-scale", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


OUT_OF_MODEL = {
    # the one-atom subsample at h = 1e308 has an energy that underflows to 0
    "capacity_resolutions_underflow": ("capacity", dict(CAPACITY, resolutions=[0.3, 0.2, 1e308])),
    "cantor_logscale_underflow": ("cantor", {"gamma": LOG, "zeta": 0.5, "depth": 6}),
    "cantor_power_underflow": ("cantor", {"gamma": "power:H=0.5", "zeta": 0.001, "depth": 2}),
    # zeta = 3 exceeds dim_delta [0, 1] = 2: the children outgrow their parent at level 1
    "cantor_ratio_overflow": ("cantor", {"gamma": "power:H=0.5", "zeta": 3.0, "depth": 4}),
    # t_1 = exp(-log(2^100)^200): the power overflows a float, and t_1 underflows to 0
    "cantor_explog_inverse_overflow": ("cantor", {"gamma": "explog:alpha=0.005", "zeta": 0.01,
                                                  "depth": 2}),
    # the gamma-dyadic tiles of dim_rho_product underflow from level 10 on
    "hit_logscale_width_underflow": ("hit", dict(
        TestOutOfModel.HIT, gamma=LOG, grid={"a": 0.025, "b": 0.25, "n": 44}, tol=5.0,
        E={"type": "interval", "a": 0.025, "b": 0.2},
        F=[{"type": "ball", "center": [0.0, 0.3], "radius": 0.05}])),
    # depth / zeta = 0 leaves three covering levels
    "dims_shallow_cantor": ("dims", dict(DIMS, E={"type": "cantor", "zeta": 0.001, "depth": 0})),
    # one path block of 8192 points x 65535 components is 4 GiB, four times the budget
    "dims_block_budget": ("dims", dict(DIMS, d=65535, n_paths=1, grid_n=8192,
                                       E={"type": "interval", "a": 0.2, "b": 1.0})),
    # one pitch for both members: 6e12 lattice points on the wide box's axis
    "capacity_lattice_pitch_spread": ("capacity", dict(CAPACITY, n_atoms=64, d=1, F=[
        {"type": "box", "lo": [0.0], "hi": [1e-9]}, {"type": "box", "lo": [0.0], "hi": [1000.0]}])),
    # 7 points on each of 30 axes: 7^30 mesh points overflow a flat index
    "capacity_lattice_mesh_beyond_index": ("capacity", dict(CAPACITY, n_atoms=64, d=30, F=[
        {"type": "box", "lo": [0.0] * 30, "hi": [1.0] * 30}])),
    # (2r)^60 of the content cover's widest ball overflows a float; the capacity term passes
    "hit_content_overflow_d60": ("hit", dict(
        TestOutOfModel.HIT, d=60, tol=20.0, n_paths=8, seed=1,
        grid={"a": 0.2, "b": 1.0, "n": 64}, E={"type": "interval", "a": 0.2, "b": 1.0},
        F=[{"type": "box", "lo": [0.0] * 60, "hi": [1e5] + [0.5] * 59}])),
    # the condition grid 1e-2 ... 1e-10 has no point within x_max: an IndexError escaped
    "check_scale_x_max_below_grid": ("check-scale", {"gamma": "power:H=0.5,x_max=1e-11"}),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_MODEL))
def test_out_of_model_exits_2(tmp_path, capsys, name):
    command, cfg = OUT_OF_MODEL[name]
    path = _write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("out of model") and "Traceback" not in err
