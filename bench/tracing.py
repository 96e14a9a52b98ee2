"""Spans and counters around gpfractal's public functions, installed from outside.

``from .x import y`` copies a function into every module that imports it,
so a wrapper is installed wherever the function is looked up: every
``gpfractal.*`` module attribute that *is* the original object gets
replaced.  Methods (``CovMatrix.cholesky``, ``PathBatch.to_csv``,
``ScaleFunction.gamma``...) are replaced on their class.

A span records its name, the span that caused it, start and end.  Its self
time is its duration minus the part of that interval its child spans
cover; children started in a worker thread attach to the main thread's
innermost open span, and overlapping children count once.  Scale
evaluations are counted and timed but are not spans, so callers' self
times include the gamma evaluations they make.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MB = 1e6


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


class _Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def function(self, original, wrapper):
        """Replace ``original`` wherever a ``gpfractal`` module holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gpfractal" or name.startswith("gpfractal.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.attribute(mod, attr, wrapper)

    def attribute(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory spans, per-name totals and counters."""

    def __init__(self):
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # counter name -> value
        self.spans = []  # (request, name, parent, start, end, self)
        self.request = None
        self._main = []  # open frames of the main thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patcher = _Patcher()

    # -- spans --------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main and stack is not self._main else None
        frame = (name, perf_counter(), [], parent)
        stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            start, children = frame[1], frame[2]
            own = end - start - _union_length(children, start, end)
            with self._lock:
                self.total[name] += end - start
                self.self_time[name] += own
                self.calls[name] += 1
                if parent is not None:
                    parent[2].append((start, end))
                self.spans.append((self.request, name, parent[0] if parent else None,
                                   start, end, own))

    def count(self, name: str, value=1):
        with self._lock:
            self.counts[name] += value

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        """Span around ``fn``; ``before(bound)`` may edit the arguments and
        returns a state that ``after(bound, result, state)`` receives."""
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = state = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    state = before(bound)
                args, kwargs = bound.args, bound.kwargs
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(bound, result, state)
            return result

        return wrapper

    def _timed_counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                with self._lock:
                    self.counts[name + ".calls"] += 1
                    self.total[name] += dt

        return wrapper

    def install(self):
        """Wrap the public functions of the imported ``gpfractal`` package."""
        from gpfractal import conditions, dimension, energy, fractal_sets, gp_sim, hitting, scale

        p = self._patcher

        def fn(mod, attr, **hooks):
            orig = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            p.function(orig, self._wrap(name, orig, **hooks))

        fn(gp_sim, "cov_stationary_increments")
        fn(gp_sim, "cov_volterra")
        fn(gp_sim, "sample_paths", after=self._after_sample)
        cov_cls, batch_cls = gp_sim.CovMatrix, gp_sim.PathBatch
        p.attribute(cov_cls, "cholesky", self._wrap(
            "gp_sim.cholesky", cov_cls.cholesky,
            before=lambda b: b.arguments["self"]._chol is not None, after=self._after_cholesky))
        for attr in ("to_csv", "to_binary"):
            p.attribute(batch_cls, attr, self._wrap(
                f"gp_sim.{attr}", getattr(batch_cls, attr), after=self._after_write))
        fn(hitting, "hit_probability_mc")
        fn(hitting, "hausdorff_content_estimate")
        fn(energy, "capacity_estimate")
        fn(energy, "farthest_point_subsample", before=self._before_fps)
        fn(energy, "kernel_matrix")
        fn(energy, "minimize_energy", before=self._before_fw, after=self._after_fw)
        for attr in ("box_dimension_euclidean", "dim_delta_estimate", "dim_rho_product"):
            fn(dimension, attr)
        for attr in ("build_cantor", "gamma_dyadic_count"):
            fn(fractal_sets, attr)
        for attr in ("check_strong_condition", "check_weak_condition", "psi_sqrtlog_criterion"):
            fn(conditions, attr)
        # scale: counted and timed, not spans
        for attr in ("gamma", "gamma2"):
            p.attribute(scale.ScaleFunction, attr, self._timed_counter(
                f"scale.{attr}", getattr(scale.ScaleFunction, attr)))

    def uninstall(self):
        self._patcher.restore()

    # -- counters read at the boundaries ------------------------------------

    def _after_sample(self, bound, batch, _):
        self.count("gp_sim.sample_paths.draws", batch.n_paths * batch.grid.size * batch.d)

    def _after_cholesky(self, bound, _result, was_cached):
        if was_cached:
            return
        cov = bound.arguments["self"]
        if cov.jitter_used > 0:
            # jitter level k adds 1e-14 * mean(diag R) * 10^k (CovMatrix.cholesky)
            base = 1e-14 * float(cov.R.diagonal().mean())
            self.count("gp_sim.cholesky.retries", round(math.log10(cov.jitter_used / base)))

    def _after_write(self, bound, _result, _state):
        self.count("gp_sim.bytes_written", os.path.getsize(bound.arguments["path"]))

    def _before_fps(self, bound):
        metric = bound.arguments["metric"]

        def counted(i, idx):
            self.count("energy.farthest_point_subsample.metric_calls")
            return metric(i, idx)

        bound.arguments["metric"] = counted

    def _before_fw(self, bound):
        if bound.arguments["trace"] is None:
            bound.arguments["trace"] = []
        return bound.arguments["trace"]

    def _after_fw(self, bound, result, trace):
        _, e, gap = result
        self.count("energy.minimize_energy.solves")
        # the trace holds every iteration below 100, then every 100th
        self.count("energy.minimize_energy.iterations", trace[-1][0] + 1 if trace else 0)
        if gap <= bound.arguments["tol"] * max(e, 1e-300):
            self.count("energy.minimize_energy.converged")


class MemoryProbe:
    """Allocation peaks inside the covariance builders and ``sample_paths``.

    tracemalloc runs only while one of these spans is open, so the rest of
    the pass runs at full speed.  NumPy reports its data buffers to
    tracemalloc; memory that LAPACK allocates internally is not seen.
    """

    def __init__(self):
        self.peak = defaultdict(float)  # metric name -> largest peak, bytes
        self._patcher = _Patcher()

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak[key] = max(self.peak[key], peak)

        return wrapper

    def install(self):
        from gpfractal import gp_sim

        for attr, key in (("cov_stationary_increments", "gp_sim.cov.peak_mb"),
                          ("cov_volterra", "gp_sim.cov.peak_mb"),
                          ("sample_paths", "gp_sim.sample_paths.peak_mb")):
            orig = getattr(gp_sim, attr)
            self._patcher.function(orig, self._wrap(key, orig))

    def uninstall(self):
        self._patcher.restore()
