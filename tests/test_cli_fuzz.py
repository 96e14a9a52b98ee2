"""The CLI's exit-code contract under generated configs.

Every command, on any config, returns 0 (success), 2 (config error or
inputs outside the model) or 3 (numerical failure), and no exception
escapes ``main``.  The configs are tiny: grids of at most 64 points, at
most 8 paths, Cantor depth at most 6, at most 64 atoms and at most 4
threads.  A well-formed config of each command is drawn first, and then
up to two of its fields are deleted or replaced by a value of the wrong
type, out of range or not finite.  ``$TMP`` in a config stands for the
test's scratch directory, which holds a knot file with a one-column row
and one with a NaN knot.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfractal.cli import main
from gpfractal.scale import parse_scale_spec

GAMMAS = [
    "power:H=0.5",
    "power:H=0.25",
    "power:H=0.9",
    "powerlog:H=0.3,beta=1.0",
    "powerlog:H=0.3,beta=-1.0",
    "logscale:beta=1.0",
    "explog:alpha=0.3",
    "logcorrected:beta=1.0,alpha=0.5",
]
BAD_GAMMAS = ["power:H=2", "power", "custom:path=$TMP/missing.csv", "powerlog:H=0.3,beta=nan",
              "logscale:beta=inf", "logcorrected:beta=1.0,alpha=-inf", "explog:alpha=0.3,x_max=nan"]
WILD = st.sampled_from(
    [True, False, None, "x", [], {}, -1, 0, 0.0, 0.5, 70, 1e308, -1e-300,
     float("nan"), float("inf"), float("-inf"), 10**400]
)


@st.composite
def _time_set(draw, x_max, cantor=True):
    if not cantor or draw(st.booleans()):
        a, b = draw(st.sampled_from([0.05, 0.2, 0.3])), draw(st.sampled_from([0.4, 0.5, 1.0]))
        return {"type": "interval", "a": a * x_max, "b": b * x_max}
    E = {"type": "cantor", "zeta": draw(st.sampled_from([0.001, 0.3, 0.5, 0.8, 1.0, 3.0])),
         "depth": draw(st.integers(0, 6))}
    if draw(st.booleans()):
        E["eps0"] = draw(st.sampled_from([1e-3, 0.4, 1.0]))
    return E


@st.composite
def _target(draw, d, flat=True):
    members = []
    for _ in range(draw(st.integers(1, 2))):
        lo = [draw(st.sampled_from([-1.0, 0.0, 0.3])) for _ in range(d)]
        if draw(st.booleans()):
            members.append({"type": "ball", "center": lo,
                            "radius": draw(st.sampled_from([0.05, 0.2, 0.5]))})
        else:
            hi = [x + draw(st.sampled_from([0.0, 0.1, 0.25, 0.5][1 - flat :])) for x in lo]
            members.append({"type": "box", "lo": lo, "hi": hi})
    return members


def _grid(draw, x_max):
    a, b = draw(st.sampled_from([0.05, 0.2])), draw(st.sampled_from([0.5, 1.0]))
    return {"a": a * x_max, "b": b * x_max, "n": draw(st.integers(2, 64))}


@st.composite
def _config(draw, command):
    bad = draw(st.integers(0, 9)) == 0
    cfg = {"gamma": draw(st.sampled_from(BAD_GAMMAS if bad else GAMMAS)),
           "seed": draw(st.integers(0, 3))}
    # times are drawn as fractions of the scale's domain [0, x_max]
    x_max = 1.0 if bad else parse_scale_spec(cfg["gamma"]).x_max
    d = draw(st.integers(1, 3))
    if command in ("simulate", "hit", "battery"):
        cfg.update(grid=_grid(draw, x_max), d=d, n_paths=draw(st.integers(1, 8)))
        cfg["cov"] = draw(st.sampled_from(["stationary", "stationary", "volterra", "other"]))
    if command in ("hit", "battery"):
        cfg["tol"] = draw(st.sampled_from([1e-3, 1.0, 2.0, 3.0, 5.0]))
        if command == "hit":
            cfg.update(E=draw(_time_set(x_max)), F=draw(_target(d)))
        else:  # every instance must be accepted for a battery to run
            cfg["instances"] = [{"E": draw(_time_set(x_max, cantor=False)),
                                 "F": draw(_target(d, flat=False))} for _ in range(6)]
    elif command == "dims":
        cfg.update(E=draw(_time_set(x_max)), d=d, n_paths=draw(st.integers(1, 8)),
                   grid_n=draw(st.integers(16, 64)))
    elif command == "capacity":
        cfg.update(E=draw(_time_set(x_max)), beta=draw(st.floats(-1.0, 3.0)),
                   n_atoms=draw(st.integers(2, 64)))
        if draw(st.booleans()):
            cfg.update(d=d, F=draw(_target(d)))
        if draw(st.booleans()):
            cfg["resolutions"] = draw(st.lists(st.sampled_from([0.5, 0.3, 0.1, 0.02]),
                                               min_size=1, max_size=3))
    elif command == "check-scale":
        if draw(st.booleans()):
            cfg["families"] = [cfg.pop("gamma")]
        cfg["eps"] = draw(st.sampled_from([0.05, 0.1, 0.5]))
    elif command == "cantor":
        cfg.update(zeta=draw(st.sampled_from([0.001, 0.3, 0.5, 0.8, 1.0, 3.0])),
                   depth=draw(st.integers(0, 6)))
        if draw(st.booleans()):
            cfg["eps0"] = draw(st.sampled_from([1e-3, 0.4, 1.0]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        _mutate(draw, cfg)
    return cfg


def _mutate(draw, cfg):
    """Delete one field, or give it a wild value, at the top level or one level down."""
    paths = [(cfg, k) for k in cfg]
    paths += [(v, k) for v in cfg.values() if isinstance(v, dict) for k in v]
    if not paths:
        return
    owner, key = draw(st.sampled_from(paths))
    if draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(WILD)


COMMANDS = ["simulate", "dims", "hit", "capacity", "check-scale", "cantor", "battery"]


@st.composite
def _calls(draw):
    command = draw(st.sampled_from(COMMANDS))
    extra = ["--threads", str(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        extra.append("--trace")
    return command, draw(_config(command)), extra


HIT = {"gamma": "power:H=0.5", "grid": {"a": 0.2, "b": 1.0, "n": 64}, "d": 1,
       "E": {"type": "interval", "a": 0.2, "b": 1.0},
       "F": [{"type": "box", "lo": [0.5], "hi": [1.0]}], "tol": 1.0, "n_paths": 8, "seed": 3}
CAPACITY = {"gamma": "power:H=0.5", "E": {"type": "interval", "a": 0.2, "b": 1.0},
            "beta": 1.5, "n_atoms": 64, "seed": 0}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(call=_calls())
# a point box beside a box with extent: the lattice pitch came from the point
@example(call=("capacity", {**CAPACITY, "d": 2, "F": [
    {"type": "box", "lo": [0.3, 0.3], "hi": [0.3, 0.3]},
    {"type": "box", "lo": [0.0, 0.0], "hi": [0.5, 0.5]}]}, []))
# bools are not numbers, and NaN and the infinities are not finite
@example(call=("hit", {**HIT, "d": True}, []))
@example(call=("hit", {**HIT, "n_paths": True}, []))
@example(call=("capacity", {**CAPACITY, "beta": float("nan")}, []))
@example(call=("capacity", {**CAPACITY, "beta": float("inf")}, []))
@example(call=("check-scale", {"gamma": "power:H=0.5", "eps": float("nan")}, []))
# resolutions that leave an empty subsample, an energy that underflows, no octave gap
@example(call=("capacity", {**CAPACITY, "resolutions": [float("inf"), 0.1]}, []))
@example(call=("capacity", {**CAPACITY, "resolutions": [0.3, 0.2, 1e308]}, []))
@example(call=("capacity", {**CAPACITY, "resolutions": [0.5, 0.5]}, []))
# knot files that cannot be read, and a knot row without gamma
@example(call=("check-scale", {"gamma": "custom:path=$TMP/missing.csv"}, []))
@example(call=("check-scale", {"gamma": "custom:path=$TMP"}, []))
@example(call=("check-scale", {"gamma": "custom:path=$TMP/one_column.csv"}, []))
# a NaN knot made gamma NaN everywhere, and check-scale's quadrature never finished
@example(call=("check-scale", {"gamma": "custom:path=$TMP/nan_knot.csv"}, []))
# so did a NaN scale parameter
@example(call=("check-scale", {"gamma": "powerlog:H=0.3,beta=nan"}, []))
# found by this test: eps beyond 1 overflowed gamma(x)^(1 - eps), a one-atom E
# left only zero resolutions, a shallow Cantor E had 3 covering levels, logscale
# tiles underflowed in dim_rho_product, and paths.bin could not hold the seed
@example(call=("check-scale", {"gamma": "power:H=0.5", "eps": 70}, []))
@example(call=("capacity", {**CAPACITY, "E": {"type": "cantor", "zeta": 0.001, "depth": 0}}, []))
@example(call=("dims", {"gamma": "power:H=0.5", "E": {"type": "cantor", "zeta": 0.001, "depth": 0},
                        "d": 1, "n_paths": 1, "grid_n": 16, "seed": 0}, []))
@example(call=("hit", {**HIT, "gamma": "logscale:beta=1.0", "d": 2, "tol": 5.0,
                       "grid": {"a": 0.025, "b": 0.25, "n": 44},
                       "E": {"type": "interval", "a": 0.025, "b": 0.2},
                       "F": [{"type": "ball", "center": [0.0, 0.3], "radius": 0.05}]}, []))
@example(call=("simulate", {"gamma": "power:H=0.5", "grid": {"a": 0.2, "b": 1.0, "n": 8}, "d": 1,
                            "n_paths": 2, "seed": 2**63}, []))
# Cantor lengths t_k that underflow to 0
@example(call=("cantor", {"gamma": "logscale:beta=1.0", "zeta": 0.5, "depth": 6}, []))
@example(call=("cantor", {"gamma": "power:H=0.5", "zeta": 0.001, "depth": 2}, []))
# members far apart in size: one pitch put 6e12 points on the wide box's axis
@example(call=("capacity", {**CAPACITY, "d": 1, "F": [
    {"type": "box", "lo": [0.0], "hi": [1e-9]}, {"type": "box", "lo": [0.0], "hi": [1000.0]}]}, []))
def test_exit_code_contract(call):
    command, cfg, extra = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "one_column.csv").write_text("0.001,0.01\n0.5\n")
        (tmp / "nan_knot.csv").write_text("nan,0.5\n0.001,0.06\n0.5,0.75\n")
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg).replace("$TMP", str(tmp)))
        code = main([command, "--config", str(path), "--out", str(tmp / "out"), *extra])
    assert code in (0, 2, 3)
