"""Command-line front end: validated JSON configs in, reports out.

Every command writes deterministic CSV/JSON payloads (identical bytes
for identical configs and seeds, whatever --threads says) plus a
manifest that holds the config hash, the --threads worker count, timings
and library versions - the only place a timestamp appears.  Exit codes:
0 success, 2 config validation error or inputs outside the model, 3
numerical failure.

Each cmd_* maps (cfg, threads, trace) to its payloads in output order,
{file name: writer}, with writers made by _json or _csv (a CSV cell is
repr(float(v)) for a float, str(v) for anything else).  main then
creates the output directory, calls each writer on out_dir / name and
writes the manifest, so a command that fails writes no payload and no
manifest.  simulate is the exception: its writers draw the paths into
paths.bin and render paths.csv from that file, so its writing is its
work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (
    IntegralError,
    check_strong_condition,
    check_weak_condition,
    psi_sqrtlog_criterion,
)
from .dimension import image_dimension_experiment
from .energy import _MAX_ATOMS, capacity_estimate
from .fractal_sets import (
    _MAX_DEPTH,
    OutOfModelError,
    Target,
    TimeSet,
    build_cantor,
    cantor_lengths,
)
from .gp_sim import (
    _CIRC_CHUNK,
    _MAX_D,
    _MAX_N,
    _PATH_CHUNK,
    PathBatch,
    PSDError,
    QuadratureError,
    cov_stationary_increments,
    cov_volterra,
)
from .hitting import (PathMinima, add_sandwich_terms, check_hit_instance, hit_probability_mc,
                      sandwich_report)
from .metrics import AtomRows, delta
from .scale import ScaleDomainError, _is_number, parse_scale_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_BIN_BYTES = 2**30  # budget of simulate's paths.bin
_BLOCK_BYTES = 2**30  # budget of dims' path blocks in flight on the workers that run

_NUMERICAL_ERRORS = (
    PSDError,
    QuadratureError,
    IntegralError,
    ScaleDomainError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"config field {field!r}: {message}")


def _require(cfg: dict, key: str, kind, predicate=None, what: str = ""):
    if key not in cfg:
        raise ConfigError(key, "missing")
    val = cfg[key]
    if kind is float:
        if not _is_number(val):
            raise ConfigError(key, "expected a finite number")
        val = float(val)
    elif isinstance(val, bool) or not isinstance(val, kind):
        raise ConfigError(key, f"expected {kind.__name__}")
    if predicate is not None and not predicate(val):
        raise ConfigError(key, what or "invalid value")
    return val


def _parse_gamma(cfg):
    spec = _require(cfg, "gamma", str)
    try:
        return parse_scale_spec(spec)
    except ValueError as err:
        raise ConfigError("gamma", str(err))


def _parse_grid(cfg, scale):
    grid_cfg = _require(cfg, "grid", dict)
    a = _require(grid_cfg, "a", float, lambda v: v > 0, "must be > 0")
    b = _require(grid_cfg, "b", float, lambda v: v > a, "must exceed a")
    n = _require(grid_cfg, "n", int, lambda v: 2 <= v <= _MAX_N, f"must be in [2, {_MAX_N}]")
    if b > scale.x_max:
        raise ConfigError("grid.b", f"exceeds the scale domain x_max={scale.x_max}")
    return np.linspace(a, b, n)


def _parse_d(cfg) -> int:
    return _require(cfg, "d", int, lambda v: 1 <= v <= _MAX_D, f"must be in [1, {_MAX_D}]")


def _parse_cantor(cfg, scale) -> TimeSet:
    zeta = _require(cfg, "zeta", float, lambda v: v > 0, "must be > 0")
    depth = _require(cfg, "depth", int, lambda v: 0 <= v <= _MAX_DEPTH,
                     f"must be in [0, {_MAX_DEPTH}]")
    # optional keys: a default merged under the config, then the same checks
    eps0 = _require({"eps0": 1.0, **cfg}, "eps0", float, lambda v: 0 < v <= 1, "must be in (0, 1]")
    E = build_cantor(scale, zeta, depth, eps0)
    try:
        return TimeSet.of(E, scale)
    except OutOfModelError as err:  # E spans [0, eps0]
        raise ConfigError("eps0", str(err))


def _parse_E(cfg, scale) -> TimeSet:
    e = _require(cfg, "E", dict)
    etype = _require(e, "type", str)
    if etype == "cantor":
        return _parse_cantor(e, scale)
    if etype != "interval":
        raise ConfigError("E.type", f"unknown set type {etype!r}")
    a = _require(e, "a", float, lambda v: v > 0, "must be > 0")
    b = _require(e, "b", float, lambda v: v > a, "must exceed a")
    try:
        return TimeSet.of((a, b), scale)
    except OutOfModelError as err:
        raise ConfigError("E", str(err))


def _parse_F(cfg, d) -> Target:
    members = _require(cfg, "F", list)
    try:
        return Target(members, d)
    except ValueError as err:
        raise ConfigError("F", str(err))


def _parse_full_F(cfg, d) -> Target:
    """F for hit and battery, whose content term and f_dim = d take every
    member full-dimensional: a box with lo = hi on some axis is rejected."""
    F = _parse_F(cfg, d)
    if F.feature == 0:
        raise ConfigError("F", "a box with lo = hi on some axis has no interior in R^d")
    return F


def _json(obj):
    """A writer of ``obj`` as JSON: sorted keys, 2-space indent, a final newline."""
    return lambda path: path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv(header: str, rows):
    """A writer of ``header`` and ``rows``, one line each.

    A float cell, NumPy floats included, is ``repr(float(v))``, which
    round-trips; any other cell is ``str(v)``.
    """

    def cell(v) -> str:
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    def write(path):
        path.write_text(header + "\n" + "".join(",".join(map(cell, r)) + "\n" for r in rows))

    return write


def _write_manifest(out_dir: Path, name: str, cfg: dict, outputs: list, t0: float, threads: int):
    manifest = {
        "command": name,
        "config": cfg,
        "threads": threads,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "outputs": [str(p) for p in outputs],
        "elapsed_s": round(time.time() - t0, 3),
        "created_unix": int(time.time()),
        "versions": {"gpfractal": __version__, "numpy": np.__version__},
    }
    _json(manifest)(out_dir / f"{name}_manifest.json")


def _load_config(args) -> dict:
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("--config", f"file not found: {args.config}")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError("--config", f"cannot read {args.config}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError("--config", f"invalid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("--config", "top level must be an object")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _check_out(out_dir: Path):
    """ConfigError unless the nearest existing ancestor of ``out_dir`` is a
    writable directory, so a command whose --out cannot be made never runs.
    The directory itself is made only after the work (main)."""
    p = out_dir.absolute()
    while not os.path.exists(p):  # False, not an error, for an unreadable path
        p = p.parent
    if not (p.is_dir() and os.access(p, os.W_OK | os.X_OK)):
        raise ConfigError("--out", f"cannot make the directory {out_dir}: "
                                   f"{p} is not a writable directory")


def _seed(cfg) -> int:
    # paths.bin stores the seed as an int64
    return _require(cfg, "seed", int, lambda v: 0 <= v < 2**63, "must be in [0, 2^63)")


def _build_cov(cfg, scale, grid, threads: int):
    model = cfg.get("cov", "stationary")
    if model == "stationary":
        return cov_stationary_increments(scale, grid, threads)
    if model == "volterra":
        return cov_volterra(scale, grid, threads=threads)
    raise ConfigError("cov", f"unknown covariance model {model!r}")


# -- commands ----------------------------------------------------------------


def cmd_simulate(cfg, threads: int, trace: bool) -> dict:
    scale = _parse_gamma(cfg)
    grid = _parse_grid(cfg, scale)
    d = _parse_d(cfg)
    n_paths = _require(cfg, "n_paths", int, lambda v: v >= 1, "must be >= 1")
    seed = _seed(cfg)
    need = 40 + 8 * grid.size * (1 + d * n_paths)  # header, grid and values of paths.bin
    if need > _BIN_BYTES:
        raise OutOfModelError(f"n_paths = {n_paths} needs a {need / 2**30:.1f} GiB paths.bin, "
                              f"above its {_BIN_BYTES / 2**30:g} GiB budget")
    cov = _build_cov(cfg, scale, grid, threads)
    batch = PathBatch(grid=cov.grid, d=d, n_paths=n_paths, seed=seed)
    # the paths are drawn while paths.bin is written; paths.csv renders that file
    return {
        "paths.bin": partial(batch.to_binary, cov=cov, threads=threads),
        "paths.csv": lambda path: batch.to_csv(path, path.with_name("paths.bin")),
    }


def cmd_dims(cfg, threads: int, trace: bool) -> dict:
    scale = _parse_gamma(cfg)
    E = _parse_E(cfg, scale)
    d = _parse_d(cfg)
    n_paths = _require(cfg, "n_paths", int, lambda v: v >= 1, "must be >= 1")
    grid_n = _require(cfg, "grid_n", int, lambda v: 16 <= v <= _MAX_N,
                      f"must be in [16, {_MAX_N}]")
    seed = _seed(cfg)
    n = len(E.sample(grid_n))
    # the paths in flight on the workers that run, for either sampler, since a
    # uniform grid may fall back from the circulant one to Cholesky
    paths = max(min(threads, -(-n_paths // chunk)) * min(chunk, n_paths)
                for chunk in (_CIRC_CHUNK, _PATH_CHUNK))
    need = 8 * paths * n * d
    if need > _BLOCK_BYTES:
        raise OutOfModelError(f"path blocks of {paths} paths in flight x {n} times x d = {d} "
                              f"need {need / 2**30:.1f} GiB, above their "
                              f"{_BLOCK_BYTES / 2**30:g} GiB budget")
    report = image_dimension_experiment(
        scale, E, d=d, n_paths=n_paths, grid_n=grid_n, seed=seed, threads=threads
    )
    return {
        "dims_report.json": _json(asdict(report)),
        "dims_counts.csv": _csv("scale,count", report.dim_delta.counts),
    }


def _hit_reports(cfg, instances, threads: int) -> list:
    """One hit report, with its sandwich terms, per instance (an object with E and F).

    The grid, d, tol, n_paths, seed and cov keys come from ``cfg``.  Every
    instance is parsed and passes check_hit_instance, and the table of
    per-path minima fits its budget (PathMinima.plan), before any
    covariance work; then hit_probability_mc counts every instance's hits
    in one pass over the paths on ``threads`` workers.
    """
    scale = _parse_gamma(cfg)
    grid = _parse_grid(cfg, scale)
    d = _parse_d(cfg)
    n_paths = _require(cfg, "n_paths", int, lambda v: v >= 1, "must be >= 1")
    tol = _require(cfg, "tol", float, lambda v: v > 0, "must be > 0")
    seed = _seed(cfg)
    parsed = []
    for i, inst in enumerate(instances):
        if not isinstance(inst, dict):
            raise ConfigError(f"instances[{i}]", "expected an object")
        if "tol" in inst:
            raise ConfigError(f"instances[{i}].tol", "the top-level tol applies to every instance")
        E = _parse_E(inst, scale)
        F = _parse_full_F(inst, d)
        parsed.append(check_hit_instance(scale, grid, E, F, d, tol))
    PathMinima.plan(n_paths, [(inst.e_idx, inst.F) for inst in parsed])
    cov = _build_cov(cfg, scale, grid, threads)
    reports = hit_probability_mc(cov, parsed, d, n_paths, seed, threads)
    add_sandwich_terms(reports, scale, grid, parsed, d)
    return reports


def cmd_hit(cfg, threads: int, trace: bool) -> dict:
    (report,) = _hit_reports(cfg, [{k: v for k, v in cfg.items() if k in ("E", "F")}], threads)
    return {"hit_report.json": _json(asdict(report))}


def cmd_capacity(cfg, threads: int, trace: bool) -> dict:
    scale = _parse_gamma(cfg)
    beta = _require(cfg, "beta", float)
    E = _parse_E(cfg, scale)
    n_atoms = _require(
        {"n_atoms": 512, **cfg}, "n_atoms", int, lambda v: 2 <= v <= _MAX_ATOMS,
        f"must be in [2, {_MAX_ATOMS}]",
    )
    times = E.sample(n_atoms)
    if len(times) < 2:
        raise ConfigError("E", "a capacity sweep needs at least 2 atoms")
    rows = AtomRows(scale, times)
    if "F" in cfg:
        F = _parse_F(cfg, _parse_d(cfg))
        lattice = F.lattice()[0]
        # 64-127 times, or the most that keep the product within the atom
        # cap; capacity_estimate refuses a product that 2 times overfill
        fit = max(2, _MAX_ATOMS // len(lattice))
        rows = AtomRows(scale, times[:: max(1, len(times) // 64, -(-len(times) // fit))], lattice)
    # the unthinned span: a thinned product sample may end before times[-1]
    diam_hint = delta(scale, times[0], times[-1])
    resolutions = cfg.get("resolutions")
    if resolutions is None:
        resolutions = [diam_hint / 2.0**j for j in range(1, 7)]
    elif not (
        isinstance(resolutions, list)
        and all(_is_number(v) and v > 0 for v in resolutions)
        and len(set(resolutions)) == len(resolutions)
    ):
        raise ConfigError("resolutions", "must be a list of distinct finite positive numbers")
    fw_trace = [] if trace else None
    report = capacity_estimate(rows, beta=beta, resolutions=resolutions, trace=fw_trace)
    payloads = {"capacity_report.json": _json(asdict(report))}
    if trace:
        payloads["capacity_trace.csv"] = _csv("h,iteration,energy,gap", fw_trace)
    return payloads


def cmd_check_scale(cfg, threads: int, trace: bool) -> dict:
    specs = cfg.get("families")
    if specs is None:
        specs = [_require(cfg, "gamma", str)]
    if not (isinstance(specs, list) and specs and all(isinstance(s, str) for s in specs)):
        raise ConfigError("families", "must be a non-empty list of scale spec strings")
    # 1 - eps is the exponent of gamma(x) in the weak condition
    eps = _require({"eps": 0.1, **cfg}, "eps", float, lambda v: 0 < v < 1, "must be in (0, 1)")
    rows, summary, traces = [], [], []
    for spec in specs:
        try:
            f = parse_scale_spec(spec)
        except ValueError as err:
            raise ConfigError("families", str(err))
        verdicts = {
            "strong": check_strong_condition(f),
            "weak": check_weak_condition(f, eps=eps),
            "psi_sqrtlog": psi_sqrtlog_criterion(f),
        }
        for v in verdicts.values():
            summary.append((spec, v.condition, v.verdict, v.fitted_constant, v.paper_open))
            traces += [(spec, v.condition, x, r) for x, r in zip(v.x_grid, v.ratios)]
        rows.append({"family": spec, **{k: asdict(v) for k, v in verdicts.items()}})
    payloads = {
        "check_scale.json": _json({"eps": eps, "rows": rows}),
        "check_scale.csv": _csv("family,condition,verdict,constant,paper_open", summary),
    }
    if trace:
        payloads["check_scale_traces.csv"] = _csv("family,condition,x,ratio", traces)
    return payloads


def cmd_cantor(cfg, threads: int, trace: bool) -> dict:
    scale = _parse_gamma(cfg)
    E = _parse_cantor(cfg, scale)
    spec = {k: v for k, v in E.spec.items() if k != "type"}
    t = cantor_lengths(scale, spec["zeta"], spec["depth"])
    iv = E.intervals
    # one atom row per deepest interval: E.atoms merges midpoints less than an ulp apart
    mid = 0.5 * (iv[:, 0] + iv[:, 1])
    report = {"scale": scale.spec_string(), **spec, "t_seq": t.tolist(),
              "l_seq": (t[1:] / t[:-1]).tolist(), "deepest_intervals": iv.tolist()}
    return {
        "cantor_set.json": _json(report),
        "cantor_atoms.csv": _csv("weight,x0", [(1.0 / len(iv), x) for x in mid]),
    }


def cmd_battery(cfg, threads: int, trace: bool) -> dict:
    instances = _require(cfg, "instances", list, lambda v: len(v) >= 6, "need >= 6 instances")
    reports = _hit_reports(cfg, instances, threads)
    verdict = sandwich_report(reports, d=cfg["d"])
    header = "instance,p_hat,ci_low,ci_high,capacity,content,dim_rho,status"
    return {
        "battery_verdict.json": _json({"verdict": verdict,
                                       "reports": [asdict(r) for r in reports]}),
        "battery_verdict.csv": _csv(header, [[row[k] for k in header.split(",")]
                                             for row in verdict["rows"]]),
    }


_COMMANDS = {
    "simulate": cmd_simulate,
    "dims": cmd_dims,
    "hit": cmd_hit,
    "capacity": cmd_capacity,
    "check-scale": cmd_check_scale,
    "cantor": cmd_cantor,
    "battery": cmd_battery,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpfractal",
        description="Fractal-geometry experiments for Gaussian processes "
        "with a general variance scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1, help="worker cap (never affects results)")
        p.add_argument("--trace", action="store_true", help="emit per-iteration traces")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    out_dir = Path(args.out)
    try:
        if not 1 <= args.threads <= _PATH_CHUNK:
            raise ConfigError("--threads", f"must be in [1, {_PATH_CHUNK}]")
        cfg = _load_config(args)
        _check_out(out_dir)
        payloads = _COMMANDS[args.command](cfg, args.threads, args.trace)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError("--out", f"cannot make the directory {args.out}: {err}")
        for name, write in payloads.items():
            write(out_dir / name)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OutOfModelError as err:
        print(f"out of model: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    outputs = [out_dir / name for name in payloads]
    _write_manifest(out_dir, args.command.replace("-", "_"), cfg, outputs, t0, args.threads)
    for p in outputs:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
