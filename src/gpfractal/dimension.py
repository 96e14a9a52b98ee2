"""Slope-fit dimension estimators and the image/intersection experiments.

Box counting stands in for Hausdorff dimension throughout: the two agree
on the self-similar fixtures used for verification, and nothing else is
computable at desk scale.  Divergent regimes (counts growing faster than
geometrically in the level) are reported as such, never silently
identified with a finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fractal_sets import OutOfModelError, Target, TimeSet, gamma_dyadic_count
from .gp_sim import cov_stationary_increments, sample_paths

__all__ = [
    "DimensionEstimate",
    "box_dimension_euclidean",
    "dim_delta_estimate",
    "dim_rho_product",
    "image_dimension_experiment",
    "intersection_dimension_experiment",
    "default_dyadic_scales",
]


@dataclass
class DimensionEstimate:
    value: float
    stderr: float
    window: tuple
    counts: list  # (scale, count) pairs; count may be inf in divergent regimes
    method: str
    diverged: bool = False


def _fit_slope(x, y):
    """Least-squares slope with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    if n > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        se = 0.0
    return slope, se


def _estimate(xs, ys, window, counts, method) -> DimensionEstimate:
    """The least-squares fit of ys on xs as an estimate, its slope floored at 0."""
    slope, se = _fit_slope(xs, ys)
    return DimensionEstimate(
        value=max(slope, 0.0), stderr=se, window=window, counts=counts, method=method
    )


def default_dyadic_scales(j_min: int = 0, j_max: int = 10) -> list[float]:
    return [2.0**-j for j in range(j_min, j_max + 1)]


# box sides 2^0 ... 2^-10 of the per-path fits, two trimmed at each end
_SCALES = default_dyadic_scales()
_TRIM = 2


def _occupied_boxes(cells: np.ndarray) -> int:
    """Number of distinct rows of an (n, m) array: sorted lexicographically,
    equal rows are adjacent, so one plus the row changes counts them."""
    s = cells[np.lexsort(cells.T)]
    return 1 + int(np.count_nonzero((s[1:] != s[:-1]).any(axis=1)))


def box_dimension_euclidean(points, scales, trim: int = 0) -> DimensionEstimate:
    """Box-counting dimension of a finite point set in R^m, an (n, m) array.

    Counts occupied boxes of side s per scale and fits log2(count)
    against -log2(scale).  ``trim`` drops that many scales at each end of
    the menu before fitting (coarse scales have too few boxes, fine ones
    feel the discretization of the point set).  A cloud that fills one box
    at every scale, such as a single point, fits exactly 0 with stderr 0.
    """
    pts = np.asarray(points, dtype=float)
    scales = sorted(float(s) for s in scales)
    if len(scales) - 2 * trim < 4:
        raise ValueError("need at least 4 scales after trimming")
    if pts.size == 0:
        raise ValueError("box counting needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("box counting needs finite points")
    counts = [_occupied_boxes(np.floor(pts / s)) for s in scales]
    fit_scales = scales[trim : len(scales) - trim]
    fit_counts = counts[trim : len(counts) - trim]
    xs = [-math.log2(s) for s in fit_scales]
    ys = [math.log2(c) for c in fit_counts]
    window = (fit_scales[0], fit_scales[-1])
    return _estimate(xs, ys, window, list(zip(scales, map(float, counts))), "BoxEuclidean")


def dim_delta_estimate(E, scale, n_range=None) -> DimensionEstimate:
    """Dimension in the delta metric from gamma-dyadic covering counts.

    Fits log2 N(n) against n, where N(n) is the number of level-n
    gamma-dyadic tiles meeting E, read from E's covering table; ``counts``
    pairs each tile width with its count.  When the per-level increments of
    log2 N(n) themselves keep growing (the tile widths shrink faster than
    geometrically, as in the logarithmic scale) the estimate is flagged
    divergent and the value is +inf.  Fewer than 4 levels, given or
    usable (a Cantor set too shallow for its zeta, or tile widths that
    underflow), raise OutOfModelError.
    """
    E = TimeSet.of(E, scale)
    if n_range is None:
        if E.spec["type"] == "cantor":
            top = max(4, int(E.spec["depth"] / E.spec["zeta"]) - 2)
            n_range = range(2, min(top, 40) + 1)
        else:
            n_range = range(2, 15)
    ns = list(n_range)
    if len(ns) < 4:
        raise OutOfModelError(f"need at least 4 covering levels, got {ns}")
    table = gamma_dyadic_count(E, ns, scale)
    ns = ns[: len(table)]
    if len(ns) < 4:
        raise OutOfModelError(f"fewer than 4 usable covering levels: {ns}")
    lc = np.array([math.log2(c) if c < 1e300 else math.inf for _, c in table])
    increments = np.diff(lc)
    first = increments[: max(2, len(increments) // 3)]
    last = increments[-max(2, len(increments) // 3) :]
    diverged = bool(np.median(last) >= 2.0 * max(np.median(first), 1e-9))
    counts = [(w, c if c < 1e300 else math.inf) for w, c in table]
    if diverged:
        return DimensionEstimate(
            value=math.inf,
            stderr=math.inf,
            window=(ns[0], ns[-1]),
            counts=counts,
            method="GammaDyadic",
            diverged=True,
        )
    return _estimate(ns, lc, (ns[0], ns[-1]), counts, "GammaDyadic")


def dim_rho_product(E, F_members, scale, levels=None) -> DimensionEstimate:
    """Product-metric dimension estimate of E x F.

    Covering numbers in rho = max(delta, Euclidean) factor into a
    gamma-dyadic count for E and a box count for F at matching radii
    2^-m; the estimate is the slope of the combined log2 count.  The
    default levels start below the smallest feature of F (a ball only
    scales three-dimensionally once boxes are smaller than it).  A level
    missing from E's covering table raises OutOfModelError.
    """
    E = TimeSet.of(E, scale)
    F = Target.of(F_members)
    if levels is None:
        start = max(2, int(math.ceil(math.log2(2.0 / F.feature))))
        levels = range(start, start + 6)
    ms = list(levels)
    if len(ms) < 4:
        raise ValueError("need at least 4 levels")
    table = gamma_dyadic_count(E, ms, scale)
    if len(table) < len(ms):
        raise OutOfModelError(f"gamma-dyadic width cannot be formed at level {ms[len(table)]}")
    factors = [(ce, F.box_count(2.0**-m)) for m, (_, ce) in zip(ms, table)]
    ys = [math.log2(ce) + math.log2(cf) for ce, cf in factors]
    counts = [(2.0**-m, ce * cf) for m, (ce, cf) in zip(ms, factors)]
    return _estimate(ms, ys, (ms[0], ms[-1]), counts, "ProductRho")


# ---------------------------------------------------------------------------
# experiment drivers


@dataclass
class ImageDimensionReport:
    per_path: list
    mean: float
    spread: float
    dim_delta: DimensionEstimate
    theory: float
    d: int
    params: dict = field(default_factory=dict)


def image_dimension_experiment(
    scale,
    E,
    d: int,
    n_paths: int,
    grid_n: int,
    seed: int,
    threads: int = 1,
) -> ImageDimensionReport:
    """Estimate dim of the image B(E) per path and compare with
    min(d, dim_delta(E)).

    E is an interval (a, b) or a TimeSet, such as build_cantor's.  A
    Cantor set's atoms are the simulation grid itself, so no atom is moved
    to a nearby grid time; an interval gets ``grid_n`` equispaced times.  The
    covariance is the stationary-increment model for the scale;
    ``params`` records which sampler drew the paths and its certificate.
    The paths stream from sample_paths chunk by chunk, and each chunk's
    job on ``threads`` workers box-counts its own paths.
    """
    E = TimeSet.of(E, scale)
    grid = E.sample(grid_n)
    cov = cov_stationary_increments(scale, grid, threads)
    per_path = [math.nan] * n_paths

    def count(p0, block):
        for p, points in enumerate(block, start=p0):
            per_path[p] = box_dimension_euclidean(points, _SCALES, trim=_TRIM).value

    sample_paths(cov, d=d, n_paths=n_paths, seed=seed, threads=threads, consume=count)
    dd = dim_delta_estimate(E, scale)
    theory = min(float(d), dd.value)
    return ImageDimensionReport(
        per_path=per_path,
        mean=float(np.mean(per_path)),
        spread=float(np.std(per_path)),
        dim_delta=dd,
        theory=theory,
        d=d,
        params={
            "scale": scale.spec_string(),
            "n_paths": n_paths,
            "grid_n": len(grid),
            "seed": seed,
            **cov.certificate(),
        },
    )


@dataclass
class IntersectionDimensionReport:
    per_path_time_dim: list
    per_path_image_dim: list
    hit_paths: int
    n_paths: int
    max_time_dim: float
    max_image_dim: float
    lower_bound: float
    upper_bound: float
    dim_rho: DimensionEstimate
    flagged_empty: bool
    params: dict = field(default_factory=dict)


def intersection_dimension_experiment(
    scale,
    E,
    F_members,
    d: int,
    n_paths: int,
    tol: float,
    seed: int,
    grid_n: int = 4096,
) -> IntersectionDimensionReport:
    """Dimensions of E \\cap B^{-1}(F) and B(E) \\cap F across paths.

    Per path, the preimage surrogate is the set of grid times whose image
    lies within ``tol`` of F, and the image surrogate is the set of those
    image points; each gets a Euclidean box dimension, NaN on a path that
    misses.  The max over paths stands in for the essential-sup norm; the
    reported bounds are the slowly-varying-scale sandwich evaluated from
    the report's own estimates with H taken from the elasticity at
    mid-grid.  The paths stream from sample_paths chunk by chunk, and
    each path's results are written at its index.
    """
    E = TimeSet.of(E, scale)
    F = Target.of(F_members)
    grid = E.sample(grid_n)
    cov = cov_stationary_increments(scale, grid)
    time_dims, image_dims = [math.nan] * n_paths, [math.nan] * n_paths

    def select(p0, block):
        for p, pts in enumerate(block, start=p0):
            sel = F.distance(pts) <= tol
            if np.any(sel):
                t_hat = grid[sel]
                time_dims[p] = box_dimension_euclidean(t_hat[:, None], _SCALES, trim=_TRIM).value
                image_dims[p] = box_dimension_euclidean(pts[sel], _SCALES, trim=_TRIM).value

    sample_paths(cov, d=d, n_paths=n_paths, seed=seed, consume=select)
    # box counting of finite points is finite, so NaN marks exactly the missed paths
    hits = sum(not math.isnan(v) for v in time_dims)
    flagged = hits == 0
    h_eff = float(scale.psi(math.sqrt(grid[0] * grid[-1])))
    e_dim = box_dimension_euclidean(grid[:, None], _SCALES, trim=_TRIM).value
    f_dim = float(d)  # members are full-dimensional boxes/balls
    rho_est = dim_rho_product(E, F, scale)
    lower = e_dim + h_eff * (f_dim - d)
    upper = h_eff * (rho_est.value - d)
    valid_t = [v for v in time_dims if not math.isnan(v)]
    valid_i = [v for v in image_dims if not math.isnan(v)]
    return IntersectionDimensionReport(
        per_path_time_dim=time_dims,
        per_path_image_dim=image_dims,
        hit_paths=hits,
        n_paths=n_paths,
        max_time_dim=max(valid_t) if valid_t else math.nan,
        max_image_dim=max(valid_i) if valid_i else math.nan,
        lower_bound=lower,
        upper_bound=upper,
        dim_rho=rho_est,
        flagged_empty=flagged,
        params={
            "scale": scale.spec_string(),
            "d": d,
            "tol": tol,
            "n_paths": n_paths,
            "grid_n": len(grid),
            "seed": seed,
            "h_eff": h_eff,
            "e_dim": e_dim,
        },
    )
