"""Monte Carlo hitting probabilities and the capacity/content sandwich.

The hitting estimate is a grid under-estimate of the continuous event;
a guard ties the spatial tolerance to the modulus-of-continuity bound
gamma(step) sqrt(2 log n) so the bias stays controlled.  The sandwich
compares p_hat against a capacity term (lower bound) and a Hausdorff
content term (upper bound) of the product set E x F in the metric
rho = max(delta, Euclidean), with instances near the critical product
dimension d excluded as uninformative.  Both terms read one product
sample of E x F: the same AtomRows, diameter and resolution floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .conditions import IntegralError, f_gamma
from .dimension import dim_rho_product
from .energy import capacity_estimate
from .fractal_sets import OutOfModelError, Target, TimeSet, core_sq_distance
from .gp_sim import CovMatrix, sample_paths
from .metrics import AtomRows, delta

__all__ = [
    "OutOfModelError",
    "HitProbReport",
    "SmallBallReport",
    "wilson_interval",
    "grid_tolerance_guard",
    "HitInstance",
    "check_hit_instance",
    "PathMinima",
    "hit_probability_mc",
    "add_sandwich_terms",
    "small_ball_sweep",
    "hausdorff_content_estimate",
    "sandwich_report",
]


_HIT_CHUNK = 8  # paths per indicator block: small enough to stay in cache
_TABLE_BYTES = 2**30  # budget of one PathMinima table, n_paths x columns float64
_Z95 = 1.959964  # two-sided 95% normal quantile of the Wilson interval
#: instances with |dim_rho(E x F) - d| at most this carry no sandwich information
_CRITICAL_BAND = 0.15


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = _Z95
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def grid_tolerance_guard(scale, step: float, grid_n: int, d: int) -> float:
    """Smallest admissible tol: 3 gamma(step) sqrt(2 log n) sqrt(d).

    gamma(step) is used as a modulus of continuity: within one grid step
    a component of B moves by about gamma(step), and sqrt(2 log n) is the
    Gaussian maximum over the n steps.  Three times their product, per
    component, bounds the displacement the discrete minimum can hide.
    """
    return 3.0 * scale.gamma(step) * math.sqrt(2.0 * math.log(max(grid_n, 2))) * math.sqrt(d)


@dataclass
class HitProbReport:
    p_hat: float
    ci_low: float
    ci_high: float
    n_paths: int
    tol: float
    grid_n: int
    E: dict
    F: list
    capacity_term: float
    content_term: float
    dim_rho_est: float = math.nan
    capacity_verdict: str = ""
    extras: dict = field(default_factory=dict)


class HitInstance(NamedTuple):
    """One hitting instance that passed check_hit_instance: E as a
    TimeSet, F as a Target, the tolerance, E's grid indices, the
    tolerance guard, and F's lattice sample and pitch (Target.lattice)."""

    E: TimeSet
    F: Target
    tol: float
    e_idx: np.ndarray
    guard: float
    lattice: tuple


def check_hit_instance(scale, grid, E, F, d: int, tol: float) -> HitInstance:
    """Every check of one hitting instance on ``grid``, or OutOfModelError.

    E must contain grid points, ``tol`` must be at least
    grid_tolerance_guard on this grid, and F's lattice must exist, which
    rejects a target whose members are too far apart in size.  None of
    it needs the covariance, so callers run it before any covariance
    work and hand the instances to hit_probability_mc.
    """
    E = TimeSet.of(E, scale)
    F = Target.of(F)
    e_idx = E.grid_indices(grid)
    step = float(np.max(np.diff(grid))) if len(grid) > 1 else 0.0
    guard = grid_tolerance_guard(scale, step, len(grid), d) if step else 0.0
    if tol < guard * (1.0 - 1e-9):
        raise OutOfModelError(
            f"grid too coarse for tol: tol = {tol:g} < guard {guard:g} "
            f"(3 gamma(step) sqrt(2 log n) sqrt(d))"
        )
    return HitInstance(E, F, tol, e_idx, guard, F.lattice())


class PathMinima:
    """Per-path minima over E of the squared distance to target member cores.

    A path hits a member within tol when max(min_t ||B(t) - c|| - r, 0)
    <= tol for a ball, or min_t ||gap(B(t))|| <= tol for a box.  Correctly
    rounded sqrt and fl(a - r) are monotone, so the minimum over t of the
    squared core distance (fractal_sets.core_sq_distance) decides exactly
    what the per-point distances decide, for every radius and tolerance;
    a union takes the minimum over its members.

    The table has one row per path and one column per distinct (E grid
    indices, core) key of all the (e_idx, Target) pairs given; ``plan``
    lays it out and refuses one above _TABLE_BYTES.  ``add``
    fills the rows of the paths it is handed, reading them in blocks of
    _HIT_CHUNK; as sample_paths(..., consume=add) calls it once per path
    chunk, on that chunk's worker, calls for different paths may run at
    once, and each writes only its own rows.  ``distance`` then reads the
    distance from each path's B(E) to F off that table.
    """

    def __init__(self, n_paths: int, pairs):
        self._column, self._sets = self.plan(n_paths, pairs)
        self.table = np.empty((n_paths, len(self._column)))

    @staticmethod
    def plan(n_paths: int, pairs) -> tuple[dict, dict]:
        """The table's columns, {(E key, core): column}, and {E key: (grid
        indices, [(core, column)])}; OutOfModelError when n_paths rows of
        them take more than _TABLE_BYTES, before anything is allocated."""
        column, sets = {}, {}
        for e_idx, F in pairs:
            e_idx = np.asarray(e_idx, dtype=np.intp)
            e_key = e_idx.tobytes()
            _, cores = sets.setdefault(e_key, (e_idx, []))
            for core in F.cores:
                if (e_key, core) not in column:
                    column[e_key, core] = len(column)
                    cores.append((core, column[e_key, core]))
        need = 8 * n_paths * len(column)
        if need > _TABLE_BYTES:
            raise OutOfModelError(
                f"n_paths = {n_paths} needs a {need / 2**30:.1f} GiB table of path minima "
                f"({len(column)} columns), above its {_TABLE_BYTES / 2**30:g} GiB budget"
            )
        return column, sets

    def add(self, p0: int, values):
        """Fill the table rows of paths p0, p0 + 1, ... from their values (k, n, d)."""
        for r0 in range(0, len(values), _HIT_CHUNK):
            block = values[r0 : r0 + _HIT_CHUNK]
            rows = slice(p0 + r0, p0 + r0 + len(block))
            for e_idx, cores in self._sets.values():
                pts = np.take(block, e_idx, axis=1)
                for core, col in cores:
                    self.table[rows, col] = core_sq_distance(core, pts).min(axis=1)

    def distance(self, e_idx, F: Target) -> np.ndarray:
        """min over the grid times e_idx of each path's distance to F."""
        e_key = np.asarray(e_idx, dtype=np.intp).tobytes()
        cols = [self._column[e_key, core] for core in F.cores]
        return F.distance_from_sq(self.table[:, cols])


def _hit_counts(cov: CovMatrix, triples, d: int, n_paths: int, seed: int,
                threads: int = 1) -> list[int]:
    """How many of n_paths paths hit, one count per (E grid indices, F, tol) triple.

    A path hits a triple when some grid point of its E has its image
    within tol of F.  The paths stream chunk by chunk through one
    PathMinima, filled by the sampling jobs on ``threads`` workers,
    whose table serves every triple, so no batch of values is kept; at a
    fixed seed the per-path indicator is monotone in F and in tol by
    construction.
    """
    minima = PathMinima(n_paths, [(e_idx, F) for e_idx, F, _ in triples])
    sample_paths(cov, d=d, n_paths=n_paths, seed=seed, threads=threads, consume=minima.add)
    return [int(np.count_nonzero(minima.distance(e_idx, F) <= tol)) for e_idx, F, tol in triples]


def hit_probability_mc(cov: CovMatrix, instances: list[HitInstance], d: int, n_paths: int,
                       seed: int, threads: int = 1) -> list[HitProbReport]:
    """P{B(E) intersects F} by Monte Carlo over exact paths, per instance.

    ``instances`` are check_hit_instance results on cov.grid; one pass
    over the paths counts every instance's hits (_hit_counts).  Returns
    one report per instance, in order, with p_hat, its Wilson interval
    and the covariance certificate; the capacity and content terms are
    NaN until add_sandwich_terms fills them.
    """
    counts = _hit_counts(cov, [(inst.e_idx, inst.F, inst.tol) for inst in instances],
                         d, n_paths, seed, threads)
    reports = []
    for inst, hits in zip(instances, counts):
        lo, hi = wilson_interval(hits, n_paths)
        reports.append(HitProbReport(
            p_hat=hits / n_paths,
            ci_low=lo,
            ci_high=hi,
            n_paths=n_paths,
            tol=inst.tol,
            grid_n=len(cov.grid),
            E=inst.E.spec,
            F=inst.F.spec,
            capacity_term=math.nan,
            content_term=math.nan,
            extras={"hits": hits, "seed": seed, "guard": inst.guard, **cov.certificate()},
        ))
    return reports


def add_sandwich_terms(reports: list[HitProbReport], scale, grid, instances: list[HitInstance],
                       d: int):
    """Fill in each report of hit_probability_mc on ``grid`` the capacity and
    content terms of its instance's E x F, and dim_rho(E x F), which
    sandwich_report reads; the capacity sweep's details go into its extras."""
    for rep, inst in zip(reports, instances):
        times = grid[inst.e_idx]
        f_pts, f_pitch = inst.lattice
        t_budget = max(16, 9000 // max(len(f_pts), 1))
        t_sub = times[:: max(1, int(math.ceil(len(times) / t_budget)))]
        # one product sample, its rows, diameter and resolution floor serve
        # both terms.  Below the sampling pitch of either factor the product
        # atoms are isolated and capacity/content see only discreteness
        # artifacts; the closest pair of sampled times sets the time pitch.
        k = int(np.argmin(np.diff(t_sub))) if len(t_sub) > 1 else None
        floor = max(delta(scale, t_sub[k], t_sub[k + 1]) if k is not None else 0.0, f_pitch)
        rows = AtomRows(scale, t_sub, f_pts)
        diam = rows.diameter()
        resolutions = [r for j in range(1, 9) if (r := diam / 2.0**j) >= floor]
        if len(resolutions) < 2:
            resolutions = [diam / 2.0, diam / 4.0]
        cap = capacity_estimate(rows, beta=float(d), resolutions=resolutions)
        rep.capacity_term = cap.capacity_value
        rep.capacity_verdict = cap.verdict
        rep.extras.update(
            capacity_resolutions=cap.resolutions,
            capacity_gaps=cap.gaps,
            capacity_iterations=cap.iterations,
            capacity_n_atoms=cap.n_atoms,
        )
        rep.content_term = hausdorff_content_estimate(rows, s_exponent=float(d), r_floor=floor)
        rep.dim_rho_est = dim_rho_product(inst.E, inst.F, scale).value


# ---------------------------------------------------------------------------
# small-ball probabilities


@dataclass
class SmallBallReport:
    p_hat: float
    n_ball_points: int
    ref_r_d: float
    ref_fgamma_d: float


def small_ball_sweep(cov: CovMatrix, t0: float, radii, z, d: int, n_paths: int, seed: int,
                     scale) -> list[SmallBallReport]:
    """P{ min over the delta-ball B(t0, r) of ||B(s) - z|| <= r } for each r in ``radii``.

    Each ball is measured with the stationary surrogate gamma(|s - t0|),
    which handles arbitrary t0 in [a, b] and can be genuinely empty on a
    coarse grid (ValueError).  The event is a hit of the point z (a box
    lo = hi = z) within tol r by B over the ball, counted by _hit_counts
    with one (ball indices, z, r) triple per radius, so every radius reads
    the same paths and the balls are nested.
    Reference values r^d and (r + f(r))^d are attached (f is the
    entropy-integral majorant).
    """
    dvec = np.asarray(delta(scale, t0, cov.grid))
    z = np.asarray(z, dtype=float).ravel()
    point = Target([{"type": "box", "lo": z, "hi": z}])
    balls = [np.flatnonzero(dvec <= r) for r in radii]
    if any(idx.size == 0 for idx in balls):
        raise ValueError("empty delta-ball on the grid")
    counts = _hit_counts(cov, [(idx, point, r) for r, idx in zip(radii, balls)], d, n_paths, seed)
    reports = []
    for r, idx, hits in zip(radii, balls, counts):
        try:
            ref_f = (r + f_gamma(scale, r)) ** d
        except (ValueError, IntegralError):
            ref_f = math.nan
        reports.append(SmallBallReport(
            p_hat=hits / n_paths,
            n_ball_points=int(idx.size),
            ref_r_d=r**d,
            ref_fgamma_d=ref_f,
        ))
    return reports


# ---------------------------------------------------------------------------
# Hausdorff content


def hausdorff_content_estimate(
    rows, s_exponent: float, r_floor: float = 0.0, menu_depth: int = 8
) -> float:
    """Greedy multi-scale cover of an AtomRows atom set by rho-balls; returns sum (2r)^s.

    Centers are taken at the first uncovered atom; the radius comes from
    a dyadic menu below diam = rows.diameter(), choosing the smallest
    marginal (2r)^s per newly covered atom.  Any greedy cover
    upper-bounds the content, so the returned value is the minimum over
    nested menu truncations, which also makes menu refinement monotone by
    construction.

    ``r_floor`` keeps the menu above the sampling resolution of the
    finite point sets: below it a cover sees isolated atoms, whose
    content vanishes no matter what the underlying set is.  A menu radius
    whose (2r)^s is not a finite float raises OutOfModelError.
    """
    diam, best = rows.diameter(), math.inf
    for depth in range(1, menu_depth + 1):
        menu = [diam / 2.0**j for j in range(depth + 1)]
        menu = [r for r in menu if r >= r_floor] or [max(diam, r_floor)]
        sizes = [_ball_content(r, s_exponent) for r in menu]
        total = 0.0
        covered = np.zeros(len(rows), dtype=bool)
        while not covered.all() and total < best:
            rho = rows(int(np.argmin(covered)), slice(None))
            # the center's own row holds it at rho = 0, so every radius
            # covers it and some cost is finite
            best_cost = math.inf
            for r, size in zip(menu, sizes):
                mask = ~covered & (rho <= r)
                newly = int(np.sum(mask))
                if newly and size / newly < best_cost:
                    best_cost, best_size, best_mask = size / newly, size, mask
            covered |= best_mask
            total += best_size
        best = min(best, total)
    return best


def _ball_content(r: float, s: float) -> float:
    """(2r)^s, the content of one rho-ball of radius r, or OutOfModelError."""
    try:
        size = (2.0 * r) ** s
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise OutOfModelError(f"the content of a rho-ball, (2r)^s at r = {r!r}, s = {s!r}, "
                              "is not a finite float")
    return size


# ---------------------------------------------------------------------------
# sandwich verdicts


def sandwich_report(reports: list[HitProbReport], d: int):
    """Joint-constant consistency check of the two hitting bounds.

    The fitted constants are the battery-wide joint pair: C1_hat is the
    largest constant with C1_hat * capacity <= ci_high on every
    non-critical instance (the min of the per-instance ratios), and
    C2_hat the smallest with p_hat <= C2_hat * content (the max).  PASS
    requires both bounds to hold with that single pair, the capacity
    verdict to agree with the Monte Carlo dichotomy (capacity positive
    iff the CI at the finest tolerance excludes 0), and C1_hat > 0
    whenever some instance genuinely hits.  Instances with
    |dim_rho(E x F) - d| <= _CRITICAL_BAND are excluded and labeled as
    carrying no information.  The max p_hat/capacity ratio is reported
    as a sharpness diagnostic alongside.
    """
    if len(reports) < 6:
        raise ValueError("battery too small: need at least 6 instances")
    rows = []
    ratios_c1, ratios_c2 = [], []
    for idx, rep in enumerate(reports):
        critical = abs(rep.dim_rho_est - d) <= _CRITICAL_BAND
        row = {
            "instance": idx,
            "p_hat": rep.p_hat,
            "ci_low": rep.ci_low,
            "ci_high": rep.ci_high,
            "capacity": rep.capacity_term,
            "content": rep.content_term,
            "dim_rho": rep.dim_rho_est,
            "critical": critical,
            "status": "critical - no information" if critical else "ok",
        }
        rows.append(row)
        if critical:
            continue
        if rep.capacity_term > 0 and rep.p_hat > 0:
            ratios_c1.append(rep.p_hat / rep.capacity_term)
        if rep.content_term > 0:
            ratios_c2.append(rep.p_hat / rep.content_term)
    c1 = min(ratios_c1) if ratios_c1 else 0.0
    c1_sharp = max(ratios_c1) if ratios_c1 else 0.0
    c2 = max(ratios_c2) if ratios_c2 else 0.0
    all_pass = True
    any_noncritical = False
    for row, rep in zip(rows, reports):
        if row["critical"]:
            continue
        any_noncritical = True
        ok_lower = (rep.capacity_term <= 0) or (
            c1 * rep.capacity_term <= rep.ci_high + 1e-12
        )
        ok_upper = (rep.content_term > 0) and (
            rep.p_hat <= c2 * rep.content_term + 1e-12
        )
        dichotomy = (rep.capacity_term > 0) == (rep.ci_low > 0.0) or rep.p_hat == 0.0
        if not ok_lower:
            row["status"] = "fail-lower"
        elif not ok_upper:
            row["status"] = "fail-upper"
        elif not dichotomy:
            row["status"] = "fail-dichotomy"
        all_pass &= row["status"] == "ok"
    if not any_noncritical:
        all_pass = False
    return {
        "c1_hat": c1,
        "c2_hat": c2,
        "c1_sharp": c1_sharp,
        "pass": bool(all_pass),
        "rows": rows,
    }
