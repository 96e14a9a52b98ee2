"""gpfractal benchmark: runs one workload through the CLI and prints its metrics.

    python3 bench/run.py --workload hit_battery --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole rounds of the workload's CLI calls, one child
process per call, until the next round would overrun ``--seconds`` (at
least one round).  It reports the end-to-end metrics: wall_s, cpu_s and
setup_s as medians over rounds, peak_rss_mb as the largest child.

``--trace 1`` calls ``gpfractal.cli.main`` in-process on the same configs
in three passes: allocation peaks under tracemalloc, untraced, and traced
with spans and counters around the package's public functions.  It reports
the per-layer metrics and writes every span to
``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import MB, MemoryProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREADS = min(2, os.cpu_count() or 1)
N_PROBES = 10
CALL_TIMEOUT_S = 150  # a hung call is killed and counted as failed

CLI_COMMANDS = ("simulate", "dims", "hit", "capacity", "check-scale", "battery")

# per-layer metric -> (unit, where it is read: span total, span self time,
# span call count, counter, or tracemalloc peak)
PER_LAYER = {
    "gp_sim.cov_stationary.self_s": ("s", "self", "gp_sim.cov_stationary_increments"),
    "gp_sim.cov_volterra.self_s": ("s", "self", "gp_sim.cov_volterra"),
    "gp_sim.cholesky.s": ("s", "total", "gp_sim.cholesky"),
    "gp_sim.cholesky.retries": ("count", "count", "gp_sim.cholesky.retries"),
    "gp_sim.sample_paths.s": ("s", "total", "gp_sim.sample_paths"),
    "gp_sim.sample_paths.draws": ("count", "count", "gp_sim.sample_paths.draws"),
    "gp_sim.sample_paths.peak_mb": ("MB", "peak", "gp_sim.sample_paths.peak_mb"),
    "gp_sim.cov.peak_mb": ("MB", "peak", "gp_sim.cov.peak_mb"),
    "gp_sim.to_csv.s": ("s", "total", "gp_sim.to_csv"),
    "gp_sim.to_binary.s": ("s", "total", "gp_sim.to_binary"),
    "gp_sim.bytes_written": ("bytes", "count", "gp_sim.bytes_written"),
    "hitting.hit_probability_mc.self_s": ("s", "self", "hitting.hit_probability_mc"),
    "hitting.hausdorff_content_estimate.s": ("s", "total", "hitting.hausdorff_content_estimate"),
    "energy.capacity_estimate.self_s": ("s", "self", "energy.capacity_estimate"),
    "energy.farthest_point_subsample.s": ("s", "total", "energy.farthest_point_subsample"),
    "energy.farthest_point_subsample.calls": ("count", "calls", "energy.farthest_point_subsample"),
    "energy.farthest_point_subsample.metric_calls":
        ("count", "count", "energy.farthest_point_subsample.metric_calls"),
    "energy.kernel_matrix.s": ("s", "total", "energy.kernel_matrix"),
    "energy.minimize_energy.s": ("s", "total", "energy.minimize_energy"),
    "energy.minimize_energy.solves": ("count", "count", "energy.minimize_energy.solves"),
    "energy.minimize_energy.iterations": ("count", "count", "energy.minimize_energy.iterations"),
    "energy.minimize_energy.converged": ("count", "count", "energy.minimize_energy.converged"),
    "dimension.box_dimension_euclidean.s": ("s", "total", "dimension.box_dimension_euclidean"),
    "dimension.dim_delta_estimate.s": ("s", "total", "dimension.dim_delta_estimate"),
    "dimension.dim_rho_product.s": ("s", "total", "dimension.dim_rho_product"),
    "fractal_sets.build_cantor.s": ("s", "total", "fractal_sets.build_cantor"),
    "fractal_sets.gamma_dyadic_count.s": ("s", "total", "fractal_sets.gamma_dyadic_count"),
    "conditions.check_strong_condition.s": ("s", "total", "conditions.check_strong_condition"),
    "conditions.check_weak_condition.s": ("s", "total", "conditions.check_weak_condition"),
    "conditions.psi_sqrtlog_criterion.s": ("s", "total", "conditions.psi_sqrtlog_criterion"),
    "scale.gamma.calls": ("count", "count", "scale.gamma.calls"),
    "scale.gamma2.calls": ("count", "count", "scale.gamma2.calls"),
    "scale.gamma.s": ("s", "total", "scale.gamma"),
    **{f"cli.main.{c}.s": ("s", "total", f"cli.main.{c}") for c in CLI_COMMANDS},
}


@dataclass
class Outcome:
    """What one CLI call did."""

    call: workloads.Call
    exit_code: int
    error: str  # last line of the error output, "" if none
    has_traceback: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    elapsed: float | None = None  # the manifest's own elapsed_s

    @property
    def failed(self) -> bool:
        return self.exit_code != self.call.expect_exit or self.has_traceback


def _write_config(call_dir: Path, cfg: dict) -> Path:
    call_dir.mkdir(parents=True, exist_ok=True)
    path = call_dir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _argv(call: workloads.Call, call_dir: Path) -> list:
    cfg = _write_config(call_dir, call.config)
    return [call.command, "--config", str(cfg), "--out", str(call_dir / "out"),
            "--threads", str(THREADS)]


def _manifest_elapsed(call: workloads.Call, call_dir: Path):
    path = call_dir / "out" / f"{call.command.replace('-', '_')}_manifest.json"
    return json.loads(path.read_text())["elapsed_s"] if path.exists() else None


def spawn(call: workloads.Call, call_dir: Path, env: dict) -> Outcome:
    """Run one CLI call in a child process; wall, CPU and peak RSS from wait4."""
    argv = [sys.executable, "-m", "gpfractal.cli"] + _argv(call, call_dir)
    err_path = call_dir / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    text = err_path.read_text(errors="replace")
    lines = text.strip().splitlines()
    return Outcome(call, proc.returncode, lines[-1] if lines else "", "Traceback" in text,
                   wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss * 1024 / MB,
                   elapsed=_manifest_elapsed(call, call_dir))


def run_in_process(call: workloads.Call, call_dir: Path, cli) -> Outcome:
    """``gpfractal.cli.main`` on the call's argv; an escaping exception is exit 1."""
    argv = _argv(call, call_dir)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        lines = sink.getvalue().strip().splitlines()
        return Outcome(call, code, lines[-1] if lines else "", False)
    except Exception:  # the process would die with a traceback and exit 1
        return Outcome(call, 1, traceback.format_exc().strip().splitlines()[-1], True)


def check_outputs(outcome: Outcome, call_dir: Path) -> list:
    if outcome.failed or outcome.call.check is None:
        return []
    try:
        return outcome.call.check(call_dir / "out")
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def report(workload: str, outcomes: list, problems: list):
    failed = [o for o in outcomes if o.failed]
    print(f"{workload}: {len(outcomes)} calls attempted, {len(failed)} failed")
    for o in failed:
        print(f"  failed {o.call.name} ({o.call.command}): expected exit "
              f"{o.call.expect_exit}, got {o.exit_code}"
              f"{' with a traceback' if o.has_traceback else ''}: {o.error}")
    for p in problems:
        print(f"  incorrect output: {p}")


# -- untraced: child processes, end-to-end metrics -----------------------------


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    calls = workloads.build(workload, seed)

    # start-up cost: child wall minus the manifest's own elapsed_s, from
    # tiny probe calls and from every real call that wrote a manifest
    startup = []
    for k in range(N_PROBES):
        probe = workloads.Call("probe", "cantor", workloads.PROBE_CONFIG)
        o = spawn(probe, work / "probe" / str(k), env)
        if o.exit_code != 0 or o.elapsed is None:
            raise RuntimeError(f"start-up probe failed with exit {o.exit_code}: {o.error}")
        startup.append(o.wall - o.elapsed)

    outcomes, problems, walls, cpus = [], [], [], []
    t0 = time.perf_counter()
    while True:
        round_dir = work / f"round{len(walls)}"
        done = []
        for call in calls:
            call_dir = round_dir / call.name
            o = spawn(call, call_dir, env)
            problems += [f"{call.name}: {p}" for p in check_outputs(o, call_dir)]
            done.append(o)
        shutil.rmtree(round_dir, ignore_errors=True)
        outcomes += done
        walls.append(sum(o.wall for o in done))
        cpus.append(sum(o.cpu for o in done))
        spent = time.perf_counter() - t0
        if spent + spent / len(walls) > seconds:
            break
    startup += [o.wall - o.elapsed for o in outcomes if o.elapsed is not None]

    report(workload, outcomes, problems)
    print(f"{workload}: {len(walls)} rounds, {len(startup)} start-up samples")
    for call in calls:
        mine = [o for o in outcomes if o.call is call]
        print(f"  {call.name}: median wall {statistics.median(o.wall for o in mine):.3f} s, "
              f"cpu {statistics.median(o.cpu for o in mine):.3f} s, "
              f"peak rss {max(o.rss_mb for o in mine):.0f} MB")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "setup_s": (statistics.median(startup) * len(calls), "s"),
    }
    return _result(outcomes, problems, metrics)


# -- traced: in-process, per-layer metrics ---------------------------------------


def _import_cli():
    sys.path.insert(0, str(SRC))
    import gpfractal.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"gpfractal imported from {cli.__file__}, not from {SRC}")
    return cli


def _run_pass(calls, work: Path, cli, tracer=None) -> tuple:
    outcomes, problems = [], []
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        call_dir = work / call.name
        if tracer is None:
            outcomes.append(run_in_process(call, call_dir, cli))
        else:
            tracer.request = i
            with tracer.span(f"cli.main.{call.command}"):
                outcomes.append(run_in_process(call, call_dir, cli))
        problems += [f"{call.name}: {p}" for p in check_outputs(outcomes[-1], call_dir)]
    wall = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    return outcomes, problems, wall


def run_traced(workload: str, seed: int, work: Path) -> dict:
    cli = _import_cli()
    calls = workloads.build(workload, seed)

    memory = MemoryProbe()
    memory.install()
    try:
        _run_pass(calls, work / "memory", cli)
    finally:
        memory.uninstall()

    _, _, untraced_wall = _run_pass(calls, work / "untraced", cli)

    tracer = Tracer()
    tracer.install()
    try:
        outcomes, problems, traced_wall = _run_pass(calls, work / "traced", cli, tracer)
    finally:
        tracer.uninstall()

    source = {"total": tracer.total, "self": tracer.self_time, "calls": tracer.calls,
              "count": tracer.counts, "peak": {k: v / MB for k, v in memory.peak.items()}}
    # a span or counter that never fired reads 0: its layer did no work here
    metrics = {name: (source[kind].get(key, 0 if unit in ("count", "bytes") else 0.0), unit)
               for name, (unit, kind, key) in PER_LAYER.items()}
    top = [f"cli.main.{c}" for c in CLI_COMMANDS]
    top_total = sum(tracer.total[k] for k in top)
    top_self = sum(tracer.self_time[k] for k in top)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.coverage"] = (1.0 - top_self / top_total if top_total else 0.0, "ratio")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-{seed}.json"
    dump.write_text(json.dumps({
        "fields": ["request", "name", "parent", "start", "end", "self"],
        "spans": tracer.spans,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }))
    report(workload, outcomes, problems)
    print(f"{workload}: traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"spans cover {metrics['trace.coverage'][0]:.1%} of cli.main; spans in {dump}")
    return _result(outcomes, problems, metrics)


def _result(outcomes, problems, metrics) -> dict:
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpfractal" / "cli.py").is_file():
        print(f"bench: no gpfractal sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, work)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
