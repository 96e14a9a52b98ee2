"""Payload gate: run a fixed set of CLI configs and hash what they write.

A change that claims to keep every payload byte-identical is checked by
running this script against two source trees and comparing the tables:

    python tools/payload_gate.py run --src PARENT/src --out parent.json
    python tools/payload_gate.py run --src src --out change.json --strip NEW_KEY
    python tools/payload_gate.py compare parent.json change.json

``run`` puts ``--src`` first on sys.path, calls ``gpfractal.cli.main`` in
process for each row and records its exit code (or the exception it
raised) and the sha256 of every file it wrote, manifests excluded.  JSON
payloads are hashed after removing every key named by ``--strip`` at any
depth and re-serializing them the way the CLI does; the table records
whether each JSON file re-serializes to its own bytes before stripping,
so a stripped hash still compares bytes.  The ``bench_*`` rows are the
calls of ``bench/workloads.build(workload, 1)`` from this checkout, each
path-sampling call once more at ``--threads 2`` (the ``_threads2`` rows), and
``criterion5`` writes the p_hat lists of acceptance criterion 5's two
small-ball sweeps and ``criterion8`` the report of criterion 8's
intersection experiment.  ``run`` first writes the files of ``FILES`` into its
work directory, and ``$WORK`` in a config or an extra CLI argument stands
for that directory; a payload that names that directory is hashed with
``$WORK`` in its place, so runs into different ``--work`` directories
compare equal.
``compare`` prints a Markdown table, one line per row, and exits 1 when
any row differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARD_BALLS = 0.8  # above 3 gamma(step) sqrt(2 log n) sqrt(d) = 0.79 for the battery_balls grid

SIM = {"gamma": "power:H=0.5", "grid": {"a": 0.2, "b": 1.0, "n": 32}, "d": 2, "n_paths": 4,
       "seed": 11}
HIT = {"gamma": "power:H=0.5", "grid": {"a": 0.2, "b": 1.0, "n": 256}, "d": 2,
       "E": {"type": "interval", "a": 0.2, "b": 1.0},
       "F": [{"type": "ball", "center": [0.5, 0.0], "radius": 0.2}], "tol": 1.0,
       "n_paths": 40, "seed": 7}
DIMS = {"gamma": "power:H=0.5", "d": 2, "n_paths": 3, "grid_n": 1024, "seed": 5}
CAPACITY = {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
            "beta": 1.5, "seed": 0}
CAPACITY_PRODUCT = {**CAPACITY, "beta": 2.0, "d": 2,
                    "E": {"type": "cantor", "zeta": 0.8, "depth": 8},
                    "F": [{"type": "box", "lo": [0.0, 0.0], "hi": [0.375, 0.375]}]}
CANTOR_E = {"type": "cantor", "zeta": 0.5, "depth": 8}
LOG = "logscale:beta=1.0"  # x_max = 0.5
FAMILIES = ["power:H=0.4", "powerlog:H=0.3,beta=1.0", "explog:alpha=0.3", LOG]
POWERLOG = "powerlog:H=0.3,beta=1.0"  # x_max = 0.8 exp(-1/0.3) = 0.0285
LOGCORRECTED = "logcorrected:beta=1.0,alpha=0.5"  # x_max = 0.8 exp(-exp(0.6)) = 0.129
FILES = {
    "one_column_knots.csv": "0.001,0.01\n0.5\n",  # the second row lacks gamma
    "nan_knot.csv": "nan,0.5\n0.001,0.06\n0.5,0.75\n",
    "inf_knot.csv": "1e-6,0.004\n0.001,0.06\n0.5,0.75\ninf,0.8\n",
    # one knot per decade or wider, three segments of distinct slopes
    "sparse_knots.csv": "0.001,0.02\n0.01,0.09\n0.1,0.3\n0.5,0.8\n",
    # gamma = r^0.4 at 40 log-spaced r in [1e-12, 0.5]
    "power_knots.csv": "".join(f"{r!r},{r ** 0.4!r}\n"
                               for r in (1e-12 * 5e11 ** (i / 39) for i in range(40))),
}
POINT_AND_BOX = [{"type": "box", "lo": [0.3, 0.3], "hi": [0.3, 0.3]},
                 {"type": "box", "lo": [0.0, 0.0], "hi": [0.5, 0.5]}]


def _battery(d, instances, **over):
    cfg = {k: v for k, v in HIT.items() if k not in ("E", "F")}
    return {**cfg, "d": d, "instances": instances, **over}


# (name, command, config, extra CLI arguments)
ROWS = [
    ("battery_balls", "battery", _battery(2, [
        {"E": HIT["E"], "F": [{"type": "ball", "center": [0.5, 0.0], "radius": r}]}
        for r in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)], tol=GUARD_BALLS, n_paths=50), []),
    ("battery_threads2", "battery", _battery(2, [
        {"E": HIT["E"], "F": [{"type": "ball", "center": [0.5, 0.0], "radius": r}]}
        for r in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)], tol=GUARD_BALLS, n_paths=97),
     ["--threads", "2"]),
    # 70 paths: nine circulant chunks of 8 on three workers, the last one of 6 paths
    ("battery_n70_threads3", "battery", _battery(2, [
        {"E": HIT["E"], "F": [{"type": "ball", "center": [0.5, 0.0], "radius": r}]}
        for r in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)], tol=GUARD_BALLS, n_paths=70),
     ["--threads", "3"]),
    ("battery_small", "battery", _battery(1, [
        {"E": HIT["E"], "F": [{"type": "box", "lo": [lo], "hi": [lo + 0.5]}]}
        for lo in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)], grid={"a": 0.2, "b": 1.0, "n": 128},
        tol=0.8, n_paths=60, seed=12), []),
    ("cantor_power", "cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 6}, []),
    ("cantor_log_eps", "cantor", {"gamma": LOG, "zeta": 0.5, "depth": 4, "eps0": 0.4}, []),
    ("cantor_log_eps1", "cantor", {"gamma": LOG, "zeta": 0.5, "depth": 4, "eps0": 1.0}, []),
    ("cantor_overflow", "cantor", {"gamma": "power:H=0.5", "zeta": 3.0, "depth": 4}, []),
    # the two families without a closed-form inverse; the default eps0 = 1.0
    # of the first two leaves their domain
    ("cantor_powerlog", "cantor", {"gamma": POWERLOG, "zeta": 0.5, "depth": 6}, []),
    ("cantor_logcorrected", "cantor", {"gamma": LOGCORRECTED, "zeta": 0.5, "depth": 4}, []),
    ("cantor_powerlog_eps", "cantor", {"gamma": POWERLOG, "zeta": 0.5, "depth": 6,
                                       "eps0": 0.028}, []),
    ("cantor_logcorrected_eps", "cantor", {"gamma": LOGCORRECTED, "zeta": 0.5, "depth": 4,
                                           "eps0": 0.125}, []),
    # a given x_max belongs in the report's scale spec
    ("cantor_x_max_spec", "cantor", {"gamma": "logscale:beta=1.0,x_max=0.3", "zeta": 0.5,
                                     "depth": 4}, []),
    # the same within x_max: the default eps0 = 1.0 above leaves the domain
    ("cantor_x_max_spec_eps03", "cantor", {"gamma": "logscale:beta=1.0,x_max=0.3", "zeta": 0.5,
                                           "depth": 4, "eps0": 0.3}, []),
    # 2^14 atoms: one level past the 8192-atom grid cap
    ("cantor_depth14", "cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 14}, []),
    # the phi kernel's log (beta = 0) and constant (beta < 0) branches
    ("capacity_beta0", "capacity", {**CAPACITY, "beta": 0.0, "n_atoms": 128}, []),
    ("capacity_beta_negative", "capacity", {**CAPACITY, "beta": -1.0, "n_atoms": 128}, []),
    # the geometric extrapolation falls below 0
    ("capacity_cantor_log_clipped", "capacity", {**CAPACITY, "gamma": LOG, "beta": 0.35, "E": {
        "type": "cantor", "zeta": 0.5, "depth": 4, "eps0": 0.4}}, []),
    ("capacity_cantor", "capacity", {**CAPACITY, "beta": 0.3,
                                     "E": {"type": "cantor", "zeta": 0.5, "depth": 5}}, []),
    ("capacity_interval_ball", "capacity", {**CAPACITY, "beta": 2.5, "n_atoms": 256, "d": 2,
                                            "F": [{"type": "ball", "center": [0.0, 0.0],
                                                   "radius": 0.3}]}, []),
    ("capacity_interval_default_atoms", "capacity", CAPACITY, []),
    ("capacity_interval_trace", "capacity", {**CAPACITY, "n_atoms": 300}, ["--trace"]),
    # the bench's 3000-atom interval: the finest solve runs all 20,000 iterations
    ("capacity_interval_3000_trace", "capacity", {**CAPACITY, "n_atoms": 3000}, ["--trace"]),
    ("capacity_point_and_box", "capacity", {**CAPACITY, "n_atoms": 64, "d": 2,
                                            "F": POINT_AND_BOX}, []),
    ("capacity_logscale", "capacity", {**CAPACITY, "gamma": LOG, "beta": 0.5, "n_atoms": 400,
                                       "E": {"type": "interval", "a": 0.1, "b": 0.4}}, []),
    ("capacity_product", "capacity", CAPACITY_PRODUCT, []),
    # 343 lattice points x 64 times would pass the atom cap; every 18th time fits it
    ("capacity_product_atom_cap", "capacity", {
        **CAPACITY, "d": 3, "F": [{"type": "box", "lo": [0.0] * 3, "hi": [0.3] * 3}]}, []),
    ("capacity_product_trace", "capacity", CAPACITY_PRODUCT, ["--trace"]),
    ("capacity_resolutions", "capacity", {**CAPACITY, "n_atoms": 500,
                                          "resolutions": [0.4, 0.2, 0.1, 0.05, 0.025]}, []),
    ("check_scale_families", "check-scale", {"families": FAMILIES, "eps": 0.1}, []),
    ("check_scale_families_trace", "check-scale", {"families": FAMILIES, "eps": 0.1},
     ["--trace"]),
    ("check_scale_custom", "check-scale", {"gamma": "custom:path=$WORK/power_knots.csv"}, []),
    ("check_scale_custom_sparse", "check-scale", {"gamma": "custom:path=$WORK/sparse_knots.csv"},
     []),
    ("check_scale_single", "check-scale", {"gamma": "power:H=0.3"}, ["--trace"]),
    ("dims_cantor", "dims", {**DIMS, "E": CANTOR_E, "grid_n": 256}, []),
    ("dims_cantor_threads2", "dims", {**DIMS, "E": CANTOR_E, "grid_n": 256}, ["--threads", "2"]),
    # 256 rows of R in jobs of 21 rows: twelve jobs, the last one partial
    ("dims_cantor_threads3", "dims", {**DIMS, "E": CANTOR_E, "grid_n": 256}, ["--threads", "3"]),
    # a Cholesky sampler over 130 paths: blocks of 64, 64 and 2 paths at every --threads
    ("dims_cantor_p130", "dims", {**DIMS, "E": CANTOR_E, "grid_n": 256, "n_paths": 130}, []),
    ("dims_cantor_p130_threads3", "dims", {**DIMS, "E": CANTOR_E, "grid_n": 256,
                                           "n_paths": 130}, ["--threads", "3"]),
    # 1024 atoms: four block rows of the packed R and L, each but the last
    # multiplied from a zero-padded panel
    ("dims_cantor_d10", "dims", {**DIMS, "E": {"type": "cantor", "zeta": 0.6, "depth": 10}}, []),
    ("dims_cantor_d10_threads3", "dims", {**DIMS, "E": {"type": "cantor", "zeta": 0.6,
                                                        "depth": 10}}, ["--threads", "3"]),
    ("dims_cantor_eps", "dims", {**DIMS, "E": {**CANTOR_E, "eps0": 0.5}, "grid_n": 256}, []),
    ("dims_explog", "dims", {**DIMS, "gamma": "explog:alpha=0.3", "d": 1, "grid_n": 512,
                             "E": {"type": "interval", "a": 0.1, "b": 0.5}}, []),
    ("dims_powerlog", "dims", {**DIMS, "gamma": POWERLOG, "d": 1, "grid_n": 256,
                               "E": {"type": "interval", "a": 0.001, "b": 0.028}}, []),
    ("dims_logcorrected", "dims", {**DIMS, "gamma": LOGCORRECTED, "d": 1, "grid_n": 256,
                                   "E": {"type": "interval", "a": 0.01, "b": 0.1}}, []),
    ("dims_interval", "dims", {**DIMS, "E": {"type": "interval", "a": 0.2, "b": 1.0}}, []),
    ("dims_interval_threads2", "dims", {**DIMS, "E": {"type": "interval", "a": 0.2, "b": 1.0}},
     ["--threads", "2"]),
    # one circulant chunk of 5 paths: one worker at --threads 2
    ("dims_interval_p5_threads2", "dims", {**DIMS, "n_paths": 5,
                                           "E": {"type": "interval", "a": 0.2, "b": 1.0}},
     ["--threads", "2"]),
    ("dims_interval_n70_threads2", "dims", {**DIMS, "n_paths": 70,
                                            "E": {"type": "interval", "a": 0.2, "b": 1.0}},
     ["--threads", "2"]),
    ("dims_interval_h075", "dims", {**DIMS, "gamma": "power:H=0.75",
                                    "E": {"type": "interval", "a": 0.2, "b": 1.0}}, []),
    ("dims_logscale_psd", "dims", {**DIMS, "gamma": LOG, "grid_n": 17,
                                   "E": {"type": "interval", "a": 0.2, "b": 0.5}}, []),
    ("hit_cantor", "hit", {**HIT, "grid": {"a": 0.2, "b": 1.0, "n": 4096},
                           "E": {"type": "cantor", "zeta": 0.5, "depth": 8}}, []),
    ("hit_d1_box", "hit", {**HIT, "d": 1, "grid": {"a": 0.2, "b": 1.0, "n": 64},
                           "F": [{"type": "box", "lo": [0.5], "hi": [1.0]}]}, []),
    ("hit_d6_ball", "hit", {**HIT, "d": 6, "tol": 3.0, "grid": {"a": 0.2, "b": 1.0, "n": 64},
                            "F": [{"type": "ball", "center": [0.2] * 6, "radius": 0.5}]}, []),
    ("hit_d9_box", "hit", {**HIT, "d": 9, "tol": 2.0, "grid": {"a": 0.2, "b": 1.0, "n": 512},
                           "F": [{"type": "box", "lo": [0.2] + [0.0] * 8,
                                  "hi": [0.5] + [0.01] * 8}]}, []),
    ("hit_short_E", "hit", {**HIT, "d": 1, "grid": {"a": 0.2, "b": 1.0, "n": 64},
                            "E": {"type": "interval", "a": 0.9, "b": 1.0},
                            "F": [{"type": "box", "lo": [0.5], "hi": [1.0]}]}, []),
    ("hit_sub_interval", "hit", {**HIT, "E": {"type": "interval", "a": 0.4, "b": 0.8}}, []),
    ("hit_threads2", "hit", {**HIT, "d": 3, "n_paths": 97, "tol": 1.2,
                             "F": [{"type": "ball", "center": [0.5, 0.0, 0.0], "radius": 0.2}]},
     ["--threads", "2"]),
    # 73 paths: ten circulant chunks, the last of one path, on workers of 4, 3 and 3 chunks
    ("hit_p73_threads3", "hit", {**HIT, "n_paths": 73}, ["--threads", "3"]),
    # a Cholesky sampler: 70 paths in blocks of 64 and 6 on two workers, each
    # block's minima filled by its worker
    ("hit_volterra_threads3", "hit", {**HIT, "cov": "volterra", "n_paths": 70}, ["--threads", "3"]),
    ("hit_union", "hit", {**HIT, "F": [{"type": "ball", "center": [0.5, 0.0], "radius": 0.2},
                                       {"type": "box", "lo": [-0.6, -0.6],
                                        "hi": [-0.3, -0.2]}]}, []),
    ("hit_volterra", "hit", {**HIT, "cov": "volterra", "tol": 2.0,
                             "grid": {"a": 0.2, "b": 1.0, "n": 64}}, []),
    ("rej_E_eps0_above_one", "dims", {**DIMS, "E": {**CANTOR_E, "eps0": 2.0}}, []),
    ("rej_E_eps0_not_a_number", "capacity", {**CAPACITY, "E": {**CANTOR_E, "eps0": "x"}}, []),
    ("rej_battery_cantor", "battery", _battery(2, [{"E": HIT["E"], "F": HIT["F"]}] * 5 + [
        {"E": {"type": "cantor", "zeta": 0.5, "depth": 5}, "F": HIT["F"]}]), []),
    ("rej_battery_flat_box", "battery", _battery(2, [{"E": HIT["E"], "F": HIT["F"]}] * 5 + [
        {"E": HIT["E"], "F": [{"type": "box", "lo": [0.2, 0.1], "hi": [0.2, 0.4]}]}]), []),
    ("rej_box_lo_above_hi", "hit", {**HIT, "F": [{"type": "box", "lo": [0.5, 0.0],
                                                  "hi": [0.2, 0.4]}]}, []),
    ("rej_cantor_eps0_above_one", "cantor", {"gamma": "power:H=0.5", "zeta": 0.5, "depth": 4,
                                             "eps0": 2.0}, []),
    ("rej_cantor_eps0_not_a_number", "cantor", {"gamma": "power:H=0.5", "zeta": 0.5,
                                                "depth": 4, "eps0": "x"}, []),
    ("rej_capacity_atoms_above_cap", "capacity", {**CAPACITY, "n_atoms": 20000}, []),
    ("rej_capacity_cantor_eps0_beyond_x_max", "capacity", {**CAPACITY, "gamma": LOG,
                                                           "E": {**CANTOR_E, "eps0": 1.0}}, []),
    ("rej_capacity_interval_beyond_x_max", "capacity", {
        **CAPACITY, "gamma": LOG, "E": {"type": "interval", "a": 0.2, "b": 0.9}}, []),
    ("rej_capacity_one_atom", "capacity", {**CAPACITY, "n_atoms": 1}, []),
    ("rej_capacity_beta_infinity", "capacity", {**CAPACITY, "beta": float("inf")}, []),
    ("rej_capacity_beta_nan", "capacity", {**CAPACITY, "beta": float("nan")}, []),
    ("rej_capacity_resolutions_infinity", "capacity", {
        **CAPACITY, "resolutions": [float("inf"), 0.1]}, []),
    ("rej_capacity_resolutions_repeated", "capacity", {**CAPACITY, "resolutions": [0.5, 0.5]},
     []),
    ("rej_capacity_resolutions_underflow", "capacity", {
        **CAPACITY, "resolutions": [0.3, 0.2, 1e308]}, []),
    # phi(h) = h^-2 overflows to inf at h = 1e-160; the parent ran 20,000 NaN steps
    ("rej_capacity_kernel_overflow", "capacity", {**CAPACITY, "beta": 2.0, "n_atoms": 3000,
                                                  "resolutions": [1e-160, 1e-170]}, []),
    # phi(9e-155) = 1.23e308 lies between half the largest double and the largest
    ("rej_capacity_kernel_half_max", "capacity", {**CAPACITY, "beta": 2.0, "n_atoms": 512,
                                                  "resolutions": [0.1, 9e-155]}, []),
    ("rej_cantor_logscale_underflow", "cantor", {"gamma": LOG, "zeta": 0.5, "depth": 6}, []),
    ("rej_cantor_power_underflow", "cantor", {"gamma": "power:H=0.5", "zeta": 0.001,
                                              "depth": 2}, []),
    ("rej_capacity_cantor_one_atom", "capacity", {
        **CAPACITY, "E": {"type": "cantor", "zeta": 0.001, "depth": 0}}, []),
    ("rej_check_scale_eps_above_one", "check-scale", {"gamma": "power:H=0.5", "eps": 70}, []),
    ("rej_check_scale_no_families", "check-scale", {"families": [], "eps": 0.1}, []),
    # no point of the condition grid 1e-2 ... 1e-10 lies within x_max
    ("rej_check_scale_x_max_below_grid", "check-scale", {"gamma": "power:H=0.5,x_max=1e-11"},
     []),
    # a NaN scale parameter made every path value NaN
    ("rej_simulate_scale_nan", "simulate", {**SIM, "gamma": "powerlog:H=0.3,beta=nan", "d": 1,
                                            "grid": {"a": 0.01, "b": 0.02, "n": 32}}, []),
    # the top-level tol applies to every instance
    ("rej_battery_instance_tol", "battery", _battery(2, [
        {"E": HIT["E"], "F": [{"type": "ball", "center": [0.5, 0.0], "radius": r}]}
        for r in (0.05, 0.1, 0.15, 0.2, 0.3)] + [{"E": HIT["E"], "F": HIT["F"], "tol": 1.0}],
        tol=GUARD_BALLS, n_paths=50), []),
    # depth-12 sets whose finest delta^2 lies near round-off of R: no factor
    ("rej_dims_cantor_h075_z05_d12", "dims", {**DIMS, "gamma": "power:H=0.75", "E": {
        "type": "cantor", "zeta": 0.5, "depth": 12, "eps0": 1.0}}, []),
    ("rej_dims_cantor_h06_z05_d12", "dims", {**DIMS, "gamma": "power:H=0.6", "E": {
        "type": "cantor", "zeta": 0.5, "depth": 12, "eps0": 1.0}}, []),
    ("rej_dims_shallow_cantor", "dims", {**DIMS, "E": {"type": "cantor", "zeta": 0.001,
                                                       "depth": 0}}, []),
    ("rej_hit_logscale_width_underflow", "hit", {
        **HIT, "gamma": LOG, "grid": {"a": 0.025, "b": 0.25, "n": 44}, "tol": 5.0,
        "E": {"type": "interval", "a": 0.025, "b": 0.2},
        "F": [{"type": "ball", "center": [0.0, 0.3], "radius": 0.05}]}, []),
    ("rej_simulate_seed_above_int64", "simulate", {**SIM, "seed": 2**63}, []),
    ("rej_check_scale_eps_nan", "check-scale", {"gamma": "power:H=0.5", "eps": float("nan")},
     []),
    ("rej_custom_scale_directory", "check-scale", {"gamma": "custom:path=$WORK"}, []),
    ("rej_custom_scale_missing_file", "check-scale", {
        "gamma": "custom:path=$WORK/no_such_knots.csv"}, []),
    ("rej_custom_scale_one_column", "check-scale", {
        "gamma": "custom:path=$WORK/one_column_knots.csv"}, []),
    # cantor rows: a check-scale run on the NaN file does not finish without the knot check
    ("rej_custom_scale_nan_knot", "cantor", {"gamma": "custom:path=$WORK/nan_knot.csv",
                                             "zeta": 0.5, "depth": 4}, []),
    ("rej_custom_scale_inf_knot", "cantor", {"gamma": "custom:path=$WORK/inf_knot.csv",
                                             "zeta": 0.5, "depth": 4}, []),
    ("rej_hit_d_true", "hit", {**HIT, "d": True, "grid": {"a": 0.2, "b": 1.0, "n": 64},
                               "F": [{"type": "box", "lo": [0.5], "hi": [1.0]}]}, []),
    ("rej_hit_n_paths_true", "hit", {**HIT, "n_paths": True}, []),
    # 10^10 paths: a 74.5 GiB table of path minima, refused before the covariance
    ("rej_hit_npaths_table", "hit", {**HIT, "grid": {"a": 0.2, "b": 1.0, "n": 64}, "tol": 2.0,
                                     "n_paths": 10**10}, []),
    ("rej_hit_center_false", "hit", {**HIT, "F": [{"type": "ball", "center": [0.5, False],
                                                   "radius": 0.2}]}, []),
    ("rej_hit_radius_true", "hit", {**HIT, "F": [{"type": "ball", "center": [0.5, 0.0],
                                                  "radius": True}]}, []),
    ("rej_check_scale_eps_not_a_number", "check-scale", {"gamma": "power:H=0.5", "eps": "x"},
     []),
    ("rej_dims_cantor_eps0_beyond_x_max", "dims", {**DIMS, "gamma": LOG,
                                                   "E": {**CANTOR_E, "eps0": 1.0}}, []),
    ("rej_dims_interval_beyond_x_max", "dims", {**DIMS, "gamma": LOG,
                                                "E": {"type": "interval", "a": 0.2, "b": 0.9}},
     []),
    ("rej_lattice_pitch_spread", "capacity", {**CAPACITY, "n_atoms": 64, "d": 1, "F": [
        {"type": "box", "lo": [0.0], "hi": [1e-9]}, {"type": "box", "lo": [0.0], "hi": [1000.0]}]},
     []),
    ("rej_lattice_mesh_beyond_index", "capacity", {**CAPACITY, "n_atoms": 64, "d": 30, "F": [
        {"type": "box", "lo": [0.0] * 30, "hi": [1.0] * 30}]}, []),
    # (2r)^60 of the content cover's widest ball overflows a float
    ("rej_hit_content_overflow_d60", "hit", {
        **HIT, "d": 60, "tol": 20.0, "n_paths": 8, "seed": 1,
        "grid": {"a": 0.2, "b": 1.0, "n": 64},
        "F": [{"type": "box", "lo": [0.0] * 60, "hi": [1e5] + [0.5] * 59}]}, []),
    # a 65-dimensional box: more axes than an ndarray may have, 7 lattice points
    ("capacity_box_d65", "capacity", {**CAPACITY, "beta": 2.0, "n_atoms": 64, "d": 65, "F": [
        {"type": "box", "lo": [0.0] * 65, "hi": [1.0] + [0.1] * 64}]}, []),
    ("rej_threads_zero", "hit", HIT, ["--threads", "0"]),
    ("rej_threads_negative", "hit", HIT, ["--threads", "-3"]),
    ("rej_threads_above_cap", "hit", HIT, ["--threads", "65"]),
    ("rej_hit_flat_box", "hit", {**HIT, "grid": {"a": 0.2, "b": 1.0, "n": 64}, "tol": 2.0,
                                 "F": [{"type": "box", "lo": [0.2, 0.0], "hi": [0.5, 0.0]}]},
     []),
    # --out under a regular file: refused before the sweep, nothing written
    ("rej_out_under_file", "capacity", CAPACITY, ["--out", "$WORK/power_knots.csv/out"]),
    # a 196.6 GB paths.bin; run the parent of this row under a file-size limit
    ("rej_simulate_bytes", "simulate", {**SIM, "grid": {"a": 0.2, "b": 1.0, "n": 8192}, "d": 3,
                                        "n_paths": 10**6}, []),
    # a 4 GiB path block (8192 points x 65535 components), refused before the
    # covariance; run the parent of this row under an address-space limit
    ("rej_dims_block_budget", "dims", {**DIMS, "d": 65535, "n_paths": 1, "grid_n": 8192,
                                       "E": {"type": "interval", "a": 0.2, "b": 1.0}}, []),
    ("simulate_stationary", "simulate", SIM, []),
    ("simulate_threads2", "simulate", {**SIM, "d": 3, "n_paths": 97}, ["--threads", "2"]),
    ("simulate_volterra_threads2", "simulate", {**SIM, "cov": "volterra", "d": 3, "n_paths": 97,
                                                "grid": {"a": 1 / 64, "b": 1.0, "n": 64}},
     ["--threads", "2"]),
    ("simulate_volterra", "simulate", {**SIM, "cov": "volterra", "grid": {"a": 1 / 64, "b": 1.0,
                                                                          "n": 64}}, []),
    # the Volterra rows strided over three jobs, whose rows differ in length
    ("simulate_volterra_threads3", "simulate", {**SIM, "cov": "volterra",
                                                "grid": {"a": 1 / 64, "b": 1.0, "n": 64}},
     ["--threads", "3"]),
    # 130 paths in Cholesky blocks of 64, 64 and 2, written by chunk at their offsets
    ("simulate_volterra_p130", "simulate", {**SIM, "cov": "volterra", "n_paths": 130,
                                            "grid": {"a": 1 / 64, "b": 1.0, "n": 64}}, []),
    ("simulate_volterra_p130_threads3", "simulate", {**SIM, "cov": "volterra", "n_paths": 130,
                                                     "grid": {"a": 1 / 64, "b": 1.0, "n": 64}},
     ["--threads", "3"]),
    ("simulate_volterra_powerlog", "simulate", {**SIM, "gamma": POWERLOG, "cov": "volterra",
                                                "grid": {"a": 0.001, "b": 0.028, "n": 32}}, []),
    ("simulate_volterra_h03", "simulate", {**SIM, "gamma": "power:H=0.3", "cov": "volterra"},
     []),
    # the power knot table, inside its x_max = 0.5
    ("simulate_volterra_custom", "simulate", {**SIM, "gamma": "custom:path=$WORK/power_knots.csv",
                                              "cov": "volterra",
                                              "grid": {"a": 0.5 / 32, "b": 0.5, "n": 32}}, []),
    # 600 points: three blocks of the in-place Cholesky factor, the last one partial
    ("simulate_volterra_n600", "simulate", {**SIM, "cov": "volterra", "grid": {"a": 1 / 600,
                                                                               "b": 1.0,
                                                                               "n": 600}},
     []),
    # 300 points: one 44-row panel chunk under a full block, then a 44-wide
    # last block
    ("simulate_volterra_n300", "simulate", {**SIM, "cov": "volterra",
                                            "grid": {"a": 1 / 300, "b": 1.0, "n": 300}}, []),
    # the blocked factor (n > 256) on a Volterra R, its steps split over three workers
    ("simulate_volterra_n300_threads3", "simulate", {**SIM, "cov": "volterra",
                                                     "grid": {"a": 1 / 300, "b": 1.0, "n": 300}},
     ["--threads", "3"]),
    # 257 points: one block row of 257 rows, the one-row tail merged; no panel
    ("simulate_volterra_n257", "simulate", {**SIM, "cov": "volterra",
                                            "grid": {"a": 1 / 257, "b": 1.0, "n": 257}}, []),
    # 513 points: the first panel's 257 rows are solved as one chunk, 256 rows
    # and the one-row remainder joined to them, at every --threads
    ("simulate_volterra_n513", "simulate", {**SIM, "cov": "volterra",
                                            "grid": {"a": 1 / 513, "b": 1.0, "n": 513}}, []),
    ("simulate_volterra_n513_threads3", "simulate", {**SIM, "cov": "volterra",
                                                     "grid": {"a": 1 / 513, "b": 1.0, "n": 513}},
     ["--threads", "3"]),
]


def _bench_rows() -> list:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    rows = [
        (f"bench_{w}_{call.name}", call.command, call.config, [])
        for w in workloads.WORKLOADS
        for call in workloads.build(w, 1)
    ]
    return rows + [
        (f"{name}_threads2", command, cfg, ["--threads", "2"])
        for name, command, cfg, _ in rows
        if command in ("simulate", "dims", "hit", "battery")
    ]


def _write_json(path: Path, payload):
    """Write ``payload`` as the CLI writes JSON; the in-process rows' exit code, 0."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _criterion5(out: Path):
    """p_hat lists of acceptance criterion 5's two small-ball sweeps."""
    import numpy as np

    from gpfractal.gp_sim import cov_stationary_increments
    from gpfractal.hitting import small_ball_sweep
    from gpfractal.scale import LogScale, PowerScale

    t0, d, radii = 0.25, 2, [2.0**-j for j in range(4, 8)]
    payload = {}
    for name, f, halfw, seed in (("power", PowerScale(0.5), None, 101),
                                 ("logscale", LogScale(1.0), 0.05, 102)):
        halfw = f.inverse(radii[0]) if halfw is None else halfw
        grid = np.unique(np.concatenate([np.linspace(t0 - halfw, t0 + halfw, 257), [t0]]))
        cov = cov_stationary_increments(f, grid)
        reps = small_ball_sweep(cov, t0, radii, np.zeros(d), d, 20_000, seed=seed, scale=f)
        payload[name] = [r.p_hat for r in reps]
    return _write_json(out / "p_hats.json", payload)


def _criterion8(out: Path):
    """The report fields of acceptance criterion 8's intersection experiment."""
    from gpfractal.dimension import intersection_dimension_experiment
    from gpfractal.hitting import grid_tolerance_guard
    from gpfractal.scale import PowerScale

    f, grid_n = PowerScale(0.5), 4096
    rep = intersection_dimension_experiment(
        f, (0.2, 1.0), [{"type": "box", "lo": [0.0], "hi": [0.2]}], d=1, n_paths=50,
        tol=grid_tolerance_guard(f, 0.8 / (grid_n - 1), grid_n, 1), seed=21, grid_n=grid_n,
    )
    keys = ("max_time_dim", "max_image_dim", "lower_bound", "upper_bound", "hit_paths",
            "per_path_time_dim", "per_path_image_dim", "params")
    payload = {k: getattr(rep, k) for k in keys}
    payload["dim_rho.value"] = rep.dim_rho.value
    return _write_json(out / "report.json", payload)


IN_PROCESS = {"criterion5": _criterion5, "criterion8": _criterion8}


def _strip(obj, keys):
    if isinstance(obj, dict):
        return {k: _strip(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_strip(v, keys) for v in obj]
    return obj


def _hash_outputs(out: Path, strip: set, work: Path) -> dict:
    files = {}
    for p in sorted(out.iterdir()) if out.exists() else []:
        if p.name.endswith("_manifest.json"):
            continue
        raw = p.read_bytes().replace(str(work).encode(), b"$WORK")
        entry = {}
        if p.suffix == ".json":
            obj = json.loads(raw)
            entry["reserializes"] = json.dumps(obj, sort_keys=True, indent=2) + "\n" == raw.decode()
            raw = (json.dumps(_strip(obj, strip), sort_keys=True, indent=2) + "\n").encode()
        entry["sha256"] = hashlib.sha256(raw).hexdigest()
        files[p.name] = entry
    return files


def run(args) -> int:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from gpfractal.cli import main

    work = Path(args.work).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in FILES.items():
        (work / name).write_text(text)
    rows = ROWS + _bench_rows() + [(name, None, None, []) for name in IN_PROCESS]
    table = {}
    for name, command, cfg, extra in rows:
        out = work / name
        t0 = time.perf_counter()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if command is None:
                    code = IN_PROCESS[name](out)
                else:
                    path = work / f"{name}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(cfg).replace("$WORK", str(work)))
                    extra = [a.replace("$WORK", str(work)) for a in extra]
                    code = main([command, "--config", str(path), "--out", str(out), *extra])
            result = str(code)
        except Exception as exc:  # the parent of a fix may crash
            result = f"raised {type(exc).__name__}"
        table[name] = {"exit": result, "files": _hash_outputs(out, set(args.strip), work)}
        print(f"{name}: {result} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    Path(args.out).write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    return 0


def compare(args) -> int:
    a = json.loads(Path(args.parent).read_text())
    b = json.loads(Path(args.change).read_text())
    print("| config | exit (parent → change) | payload sha256[:12] | payloads |")
    print("|---|---|---|---|")
    differ = 0
    for name in sorted(set(a) | set(b)):
        ra, rb = a.get(name), b.get(name)
        if ra is None or rb is None:
            differ += 1
            print(f"| {name} | {'missing' if ra is None else ra['exit']} → "
                  f"{'missing' if rb is None else rb['exit']} | – | only one side |")
            continue
        fa = {k: v["sha256"] for k, v in ra["files"].items()}
        fb = {k: v["sha256"] for k, v in rb["files"].items()}
        same = fa == fb and ra["exit"] == rb["exit"]
        exact = all(v.get("reserializes", True) for v in ra["files"].values())
        differ += not same
        hashes = "<br>".join(f"{k}:{v[:12]}" for k, v in sorted(fb.items())) or "none written"
        verdict = ("identical" if same else "differ") + ("" if exact else " (JSON not canonical)")
        print(f"| {name} | {ra['exit']} → {rb['exit']} | {hashes} | {verdict} |")
    print(f"\n{len(set(a) | set(b))} rows, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every row against one source tree")
    r.add_argument("--src", default=str(ROOT / "src"), help="directory holding gpfractal/")
    r.add_argument("--out", required=True, help="JSON table to write")
    r.add_argument("--work", default=".gate_work", help="scratch directory for payloads")
    r.add_argument("--strip", nargs="*", default=[], help="JSON keys removed before hashing")
    c = sub.add_parser("compare", help="Markdown table of two run tables")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args(argv)
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
