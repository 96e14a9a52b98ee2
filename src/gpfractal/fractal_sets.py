"""Generalized Cantor sets in the gamma metric, the time set E and target
F of the hitting and dimension experiments, and the gamma-dyadic covering
table of E.

The construction keeps two children of length t_k * eps0 at the extreme
ends of each parent interval, with t_k = gamma^{-1}(2^{-k/zeta}), so the
limit set has dimension zeta with respect to delta*(s,t) = gamma(|t-s|).
build_cantor returns the deepest level as a TimeSet, the one form of E
that every estimator reads.  One call of gamma_dyadic_count gives E's
tile width gamma^{-1}(2^-n) and tile count at every level, and each
dimension estimate reads that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scale import ScaleDomainError, _is_number

__all__ = [
    "OutOfModelError",
    "RatioOverflowError",
    "Target",
    "TimeSet",
    "build_cantor",
    "cantor_lengths",
    "core_sq_distance",
    "gamma_dyadic_count",
    "grid_lookup",
]

# 2^13 deepest Cantor intervals: gp_sim._MAX_N, the largest atom set any command takes
_MAX_DEPTH = 13
_LATTICE_CAP = 400  # points in a target's lattice sample
_LATTICE_CHUNK = 1 << 15  # mesh points generated at a time by Target.lattice
_LATTICE_AXIS_MAX = 1 << 20  # mesh points on one axis of a member's lattice
_BALL_PRUNE_RTOL = 1e-9  # relative slack before a ball's partial sum prunes a prefix


class OutOfModelError(ValueError):
    """Inputs outside the model: E beyond the scale's domain or off the
    simulation grid, a construction the scale cannot carry, or a hitting
    tolerance below the grid guard."""


class RatioOverflowError(OutOfModelError):
    """The two children would not fit disjointly in their parent: zeta is
    too large for the scale at this depth."""


def cantor_lengths(scale, zeta: float, depth: int) -> np.ndarray:
    """t_0 = 1 and t_k = gamma^{-1}(2^{-k/zeta}) for k = 1 ... depth.

    A level-k interval of the Cantor set has length t_k * eps0.  Raises
    OutOfModelError when 2^(-k/zeta) exceeds gamma(x_max) or when t_k
    underflows to 0, so that the level-k intervals would have no length.
    Raises RatioOverflowError when some l_k = t_k / t_{k-1} exceeds 1/2,
    i.e. the two children of combined length 2 t_k eps0 would overflow the
    parent of length t_{k-1} eps0 - the construction is infeasible for
    this (gamma, zeta, depth).
    """
    gxmax = scale.gamma(scale.x_max)
    t = [1.0]
    for k in range(1, depth + 1):
        target = 2.0 ** (-k / zeta)
        if target > gxmax * (1 + 1e-12):
            raise OutOfModelError(
                f"t_{k} not computable: 2^(-k/zeta) = {target:.3e} exceeds "
                f"gamma(x_max) = {gxmax:.3e}"
            )
        t.append(scale.inverse(target))
        if not t[-1] > 0:
            raise OutOfModelError(
                f"t_{k} = gamma^-1(2^(-k/zeta) = {target:.3e}) underflows to {t[-1]!r}"
            )
    t_seq = np.array(t)
    for k, l in enumerate(t_seq[1:] / t_seq[:-1], start=1):
        if l > 0.5 + 1e-12:
            raise RatioOverflowError(
                f"ratio overflow at level {k}: l_{k} = {l:.6f} > 1/2 "
                f"(children of combined length > parent)"
            )
    return t_seq


def build_cantor(scale, zeta: float, depth: int, eps0: float = 1.0) -> TimeSet:
    """The two-children Cantor set adapted to the scale, as a TimeSet.

    Children sit at the extreme ends of their parent (maximal separation)
    and have length t_k * eps0 at level k (cantor_lengths, whose errors
    pass through).  ``intervals`` are the 2^depth deepest intervals from
    left to right, and ``atoms`` their distinct midpoints: midpoints of
    intervals shorter than an ulp coincide.  A depth outside [0,
    _MAX_DEPTH] raises ValueError before any interval is built.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if not 0 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {_MAX_DEPTH}]")
    if not 0 < eps0 <= 1:
        raise ValueError("eps0 must be in (0, 1]")
    iv = np.array([[0.0, eps0]])
    for length in cantor_lengths(scale, zeta, depth)[1:] * eps0:
        children = np.empty((2 * iv.shape[0], 2))
        children[0::2, 0] = iv[:, 0]
        children[0::2, 1] = iv[:, 0] + length
        children[1::2, 0] = iv[:, 1] - length
        children[1::2, 1] = iv[:, 1]
        iv = children
    spec = {"type": "cantor", "zeta": zeta, "depth": depth, "eps0": eps0}
    return TimeSet(iv, np.unique(0.5 * (iv[:, 0] + iv[:, 1])), spec)


# ---------------------------------------------------------------------------
# the time set E and the target F


def grid_lookup(grid, times):
    """Nearest grid index of each time, and whether the time is that point.

    A time is a grid point when it lies within 1e-9 * max(1, |t|) of it;
    ``grid`` must be strictly increasing.  Nothing is snapped: callers
    reject the times that are not grid points.
    """
    grid = np.asarray(grid, dtype=float)
    times = np.asarray(times, dtype=float)
    right = np.minimum(np.searchsorted(grid, times), grid.size - 1)
    left = np.maximum(right - 1, 0)
    idx = np.where(np.abs(grid[left] - times) < np.abs(grid[right] - times), left, right)
    return idx, np.abs(grid[idx] - times) <= 1e-9 * np.maximum(1.0, np.abs(times))


@dataclass(frozen=True, eq=False)
class TimeSet:
    """A time set E in [0, x_max]: one closed interval or a Cantor set.

    ``intervals`` is the (m, 2) array of closed components that coverings
    tile: the interval itself, or build_cantor's deepest intervals.
    ``atoms`` are the times a simulation uses, or None for an interval,
    whose grid the caller chooses.  ``spec`` describes E in reports.
    """

    intervals: np.ndarray
    atoms: np.ndarray | None
    spec: dict

    @classmethod
    def of(cls, E, scale) -> TimeSet:
        """The one conversion of E: a TimeSet (build_cantor's, say) or an interval (a, b).

        Raises OutOfModelError unless E lies in [0, x_max] of ``scale``, so
        no time lag between points of E ever exceeds the scale's domain.
        """
        if not isinstance(E, TimeSet):
            a, b = (float(v) for v in np.asarray(E, dtype=float).reshape(2))
            E = cls(np.array([[a, b]]), None, {"type": "interval", "a": a, "b": b})
        iv = E.intervals
        if not (
            iv.min() >= 0
            and np.all(iv[:, 0] <= iv[:, 1])
            and iv.max() <= scale.x_max * (1 + 1e-12)
        ):
            raise OutOfModelError(
                f"E {E.spec} is not a closed subset of [0, x_max = {scale.x_max:g}]"
            )
        return E

    def sample(self, n: int) -> np.ndarray:
        """The atoms of E, or n equispaced times spanning its interval."""
        if self.atoms is not None:
            return self.atoms
        return np.linspace(self.intervals[0, 0], self.intervals[0, 1], n)

    def grid_indices(self, grid) -> np.ndarray:
        """Indices of the grid times that stand for E.

        An interval takes every grid point inside it.  Each atom must be a
        grid point itself (see grid_lookup); atoms are never moved to a
        neighbouring grid time.  Raises OutOfModelError for an atom off
        the grid or when E holds no grid point.
        """
        grid = np.asarray(grid, dtype=float)
        if self.atoms is None:
            a, b = self.intervals[0]
            idx = np.flatnonzero((grid >= a - 1e-12) & (grid <= b + 1e-12))
        else:
            idx, on_grid = grid_lookup(grid, self.atoms)
            if not np.all(on_grid):
                raise OutOfModelError(
                    f"E has atoms off the grid: {np.count_nonzero(~on_grid)} of "
                    f"{on_grid.size}, the first at t = {float(self.atoms[~on_grid][0])!r}"
                )
        if idx.size == 0:
            raise OutOfModelError("E contains no grid points")
        return idx


def _coords(member: dict, key: str, i: int) -> list:
    v = member.get(key)
    if not (isinstance(v, (list, tuple, np.ndarray)) and len(v) > 0 and all(map(_is_number, v))):
        raise ValueError(f"member {i}: {key} must be a non-empty list of finite numbers")
    return [float(x) for x in v]


def core_sq_distance(core, points) -> np.ndarray:
    """Squared Euclidean distance from points to a member core (Target.cores).

    Coordinates run along the last axis of ``points``, which may carry
    any leading shape (say paths x times).  The squared components are
    summed in axis order, one strided pass per axis, so a value depends
    only on its own point.  For d <= 7 the sum equals np.linalg.norm's
    reduction bit for bit; from d = 8 on NumPy sums pairwise, and the two
    can differ in the last bit.
    """
    kind, a, b = core
    total = None
    for j in range(points.shape[-1]):
        x = points[..., j]
        gap = x - a[j] if kind == "ball" else np.maximum(np.maximum(a[j] - x, x - b[j]), 0.0)
        gap *= gap
        if total is None:
            total = gap
        else:
            total += gap
    return total


def _mesh_points(axes, flat):
    """The points of the C-order mesh of ``axes`` at flat indices ``flat``,
    as a (len(flat), len(axes)) array.  The flat index is split axis by
    axis from the last, so any number of axes works."""
    pts = np.empty((len(flat), len(axes)))
    for j in range(len(axes) - 1, -1, -1):
        flat, i = np.divmod(flat, axes[j].size)
        pts[:, j] = axes[j][i]
    return pts


def _ball_chunks(axes, center, radius):
    """The points of the C-order mesh of ``axes`` within radius + 1e-12 of
    ``center``, in order, in blocks of at most _LATTICE_CHUNK points.

    The mesh is walked axis by axis, depth first.  A prefix of
    coordinates is dropped once its partial sum of squared offsets
    exceeds (radius + 1e-12)^2 by the relative margin _BALL_PRUNE_RTOL,
    far above the rounding of any sum of squares, so no point the final
    test would keep is lost.  That test, np.linalg.norm(pts - center) <=
    radius + 1e-12, runs unchanged on the survivors, so the points and
    their order are those of the whole mesh, and the work grows with the
    points near the ball rather than with its bounding-box mesh.
    """
    bound = (radius + 1e-12) ** 2 * (1.0 + _BALL_PRUNE_RTOL)
    sq = [(a - c) ** 2 for a, c in zip(axes, center)]

    def walk(idx, sums):
        # idx: surviving index prefixes (rows, in C order); sums: their partial sums
        j = idx.shape[1]
        if j == len(axes):
            pts = np.empty(idx.shape)
            for k, a in enumerate(axes):
                pts[:, k] = a[idx[:, k]]
            yield pts[np.linalg.norm(pts - center, axis=1) <= radius + 1e-12]
            return
        step = max(1, _LATTICE_CHUNK // axes[j].size)
        for b0 in range(0, len(idx), step):
            ext = sums[b0 : b0 + step, None] + sq[j]
            rows, cols = np.nonzero(ext <= bound)
            yield from walk(np.column_stack([idx[b0 + rows], cols]), ext[rows, cols])

    yield from walk(np.empty((1, 0), dtype=np.intp), np.zeros(1))


class Target:
    """A target F in R^d: a finite union of closed boxes and balls.

    Members are ``{"type": "box", "lo": [...], "hi": [...]}`` with
    lo <= hi on every axis, or ``{"type": "ball", "center": [...],
    "radius": r}`` with r > 0, all of one length d (``d``, when given).
    Anything else raises ValueError naming the member.  ``spec`` holds
    the members with their numbers as floats, as reports print them.

    ``cores`` holds each member's core as a hashable key: ("ball",
    center, None) or ("box", lo, hi).  The distance to a member is a
    monotone function of the squared distance to its core: its square
    root, less the radius for a ball, floored at 0.  So the minimum of
    the squared core distance over a set of points is all a hit test
    needs (see distance_from_sq).
    """

    def __init__(self, members, d: int | None = None):
        if not isinstance(members, (list, tuple)) or not members:
            raise ValueError("F must be a non-empty list of members")
        self.spec = []
        # (type, lo, hi, extent, center, radius): lo/hi bound the member
        self._parts = []
        self.cores = []
        for i, m in enumerate(members):
            if not isinstance(m, dict) or "type" not in m:
                raise ValueError(f"member {i}: expected an object with a 'type'")
            if m["type"] == "box":
                lo, hi = _coords(m, "lo", i), _coords(m, "hi", i)
                if len(lo) != len(hi) or not all(l <= h for l, h in zip(lo, hi)):
                    raise ValueError(f"member {i}: box needs lo <= hi on every axis")
                self.spec.append({"type": "box", "lo": lo, "hi": hi})
                self.cores.append(("box", tuple(lo), tuple(hi)))
                lo, hi = np.array(lo), np.array(hi)
                self._parts.append(("box", lo, hi, hi - lo, None, None))
            elif m["type"] == "ball":
                c, r = _coords(m, "center", i), m.get("radius")
                if not (_is_number(r) and r > 0):
                    raise ValueError(f"member {i}: ball needs a radius > 0")
                self.spec.append({"type": "ball", "center": c, "radius": float(r)})
                self.cores.append(("ball", tuple(c), None))
                c, r = np.array(c), float(r)
                self._parts.append(("ball", c - r, c + r, np.full(c.size, 2.0 * r), c, r))
            else:
                raise ValueError(f"member {i}: unknown member type {m['type']!r}")
            d = self._parts[0][1].size if d is None else d
            if self._parts[-1][1].size != d:
                raise ValueError(f"member {i}: coordinates must have length d={d}")
        self.d = d

    @classmethod
    def of(cls, F) -> Target:
        """A Target, or one built from a list of members."""
        return F if isinstance(F, Target) else cls(F)

    @property
    def feature(self) -> float:
        """The smallest member extent: a box's shortest side or a diameter."""
        return min(float(np.min(extent)) for _, _, _, extent, _, _ in self._parts)

    def distance(self, points) -> np.ndarray:
        """Euclidean distance from each point (one per row) to F."""
        pts = np.atleast_2d(points)
        return self.distance_from_sq(
            np.stack([core_sq_distance(core, pts) for core in self.cores], axis=-1)
        )

    def distance_from_sq(self, sq) -> np.ndarray:
        """Distance to F from squared core distances, members on the last axis."""
        best = np.full(sq.shape[:-1], np.inf)
        for k, (kind, _, _, _, _, r) in enumerate(self._parts):
            dist = np.sqrt(sq[..., k])
            if kind == "ball":
                dist = np.maximum(dist - r, 0.0)
            best = np.minimum(best, dist)
        return best

    def lattice(self):
        """Deterministic lattice sample of F and its pitch, as (points, pitch).

        The pitch is a sixth of the smallest positive longest extent of a
        member (0 when every member is a point), and downstream estimators
        use it as their resolution floor.  Each member contributes the
        points of its bounding-box mesh, in C order, that lie in it (a ball
        that holds none, its center; a point box, its one point).  A
        sample above _LATTICE_CAP points is thinned by a constant stride.
        A box's kept points are read straight off its mesh by flat index.
        A ball's mesh is walked axis by axis (_ball_chunks), pruning
        prefixes already outside the ball, once to count the points it
        holds and once to keep every stride-th one, so memory is
        O(d _LATTICE_CHUNK + _LATTICE_CAP) points in any dimension and
        time grows with the points near the ball.  A member whose mesh
        would hold more than _LATTICE_AXIS_MAX points on one axis (members
        far apart in size), or more points in all than a flat index can
        count, raises OutOfModelError before any axis is built.
        """
        longest = [float(np.max(extent)) for _, _, _, extent, _, _ in self._parts]
        pitch = min((e for e in longest if e > 0), default=0.0) / 6.0
        members = []
        for i, (kind, lo, hi, _, c, r) in enumerate(self._parts):
            # np.arange(l, u + 1e-12, pitch) holds ceil((u + 1e-12 - l) / pitch) points
            sizes = [(u + 1e-12 - l) / pitch if u > l else 1.0 for l, u in zip(lo, hi)]
            if max(sizes) > _LATTICE_AXIS_MAX:
                raise OutOfModelError(
                    f"F member {i}: its lattice at pitch {pitch:g} needs {max(sizes):.3g} "
                    f"points on one axis, above {_LATTICE_AXIS_MAX}"
                )
            if math.prod(math.ceil(n) for n in sizes) > np.iinfo(np.intp).max:
                raise OutOfModelError(
                    f"F member {i}: its lattice at pitch {pitch:g} has more points "
                    "than a flat index can count"
                )
            axes = [
                np.arange(l, u + 1e-12, pitch) if u > l else np.array([l])
                for l, u in zip(lo, hi)
            ]
            members.append((axes, (c, r) if kind == "ball" else None))
        kept = [
            math.prod(a.size for a in axes)
            if ball is None
            else sum(len(pts) for pts in _ball_chunks(axes, *ball))
            for axes, ball in members
        ]
        total = sum(max(k, 1) for k in kept)
        stride = int(math.ceil(total / _LATTICE_CAP)) if total > _LATTICE_CAP else 1
        out, start = [], 0  # start: index in the unthinned sample of a block's first point
        for (axes, ball), k in zip(members, kept):
            if ball is None:
                out.append(_mesh_points(axes, np.arange((-start) % stride, k, stride)))
                start += k
                continue
            for pts in _ball_chunks(axes, *ball) if k else [ball[0][None, :]]:
                out.append(pts[(-start) % stride :: stride].copy())
                start += len(pts)
        return np.vstack(out), pitch

    def box_count(self, s: float) -> float:
        """Surrogate count of side-s grid boxes meeting F, via bounding boxes.

        Exact only up to a bounded factor, which leaves dimension slopes
        unchanged.
        """
        return sum(
            float(np.prod(np.floor(hi / s) - np.floor(lo / s) + 1))
            for _, lo, hi, _, _, _ in self._parts
        )


# ---------------------------------------------------------------------------
# gamma-dyadic coverings


def gamma_dyadic_count(E, levels, scale) -> list:
    """The gamma-dyadic covering table of E: (w_n, N_n) for each level n in order.

    Level-n tiles have width w_n = gamma^{-1}(2^-n) and are half-open:
    tile j covers [(j-1) w_n, j w_n), and a right endpoint that is an exact
    multiple of w_n joins the next tile only if its component has interior
    there.  A degenerate component meets one tile; only an interval (a, a)
    or a Cantor interval shorter than an ulp of its position (build_cantor
    collapses those) is one.  N_n, the number of tiles meeting E, is
    counted without materializing them, in float64 because deep levels of
    slow scales produce tile counts far beyond int64.  The table ends at
    the first level whose width cannot be formed: 2^-n above
    gamma(x_max), or a width that is not a positive finite float.
    """
    iv = TimeSet.of(E, scale).intervals
    a, b = iv[:, 0], iv[:, 1]
    table = []
    for n in levels:
        try:
            w = scale.inverse(2.0 ** (-n))
        except ScaleDomainError:
            break
        if not 0 < w < math.inf:
            break
        j1 = np.floor(a / w) + 1.0
        j2 = np.maximum(j1, np.where(b > a, np.ceil(b / w), j1))
        order = np.argsort(j1)
        count, cur_end = 0.0, None
        for lo, hi in zip(j1[order], j2[order]):
            if cur_end is None or lo > cur_end:
                count += hi - lo + 1.0
                cur_end = hi
            elif hi > cur_end:
                count += hi - cur_end
                cur_end = hi
        table.append((w, float(count)))
    return table
