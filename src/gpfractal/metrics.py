"""Canonical metrics of the process and the commensurability diagnostic.

Two metrics on the time line: the stationary-increment model
delta*(s, t) = gamma(|t - s|), evaluated only by ``delta`` for set
geometry and the covariance builds, and the covariance-derived
delta(s, t) = sqrt(R(t,t) + R(s,s) - 2 R(s,t)) of a simulated process.
The product metric on time x space is
rho((s, x), (t, y)) = max(delta*(s, t), ||x - y||), evaluated only by
AtomRows, the one handle for an atom set (times, or times x points held
factored): distance rows, distance blocks and the diameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "delta",
    "AtomRows",
    "covariance_delta_matrix",
    "CommensurabilityReport",
    "commensurability_report",
]

# round-off tolerance for delta^2 < 0 coming out of covariance algebra
_NEG_VAR_TOL = 1e-10
_BLOCK_ROWS = 64  # rows of a distance block filled per step


def delta(scale, s, t):
    """delta*(s, t) = gamma(|t - s|), the one place that evaluates it.

    E is validated to lie in [0, x_max] (fractal_sets.TimeSet), so
    |t - s| never leaves the scale's domain and is not clipped.
    """
    return scale.gamma(np.abs(np.asarray(t, dtype=float) - s))


class AtomRows:
    """One atom set and its metric: (m,) times, or every pair of n_t times and n_f points.

    Product atom j is (times[j // n_f], points[j % n_f]), held factored:
    since rho((s, x), (t, y)) = max(delta*(s, t), ||x - y||), a distance
    row needs n_t values of gamma and n_f norms, not m of each.  ``len()``
    is the count, n_t or n_t * n_f.  ``rows(i, idx)`` gives the distances
    from atom i to atoms idx (any index of a 1-D array; ``slice(None)``
    reads a whole row without a copy), ``block(idx)`` those among atoms
    idx and ``diameter()`` a bound on them all: the one evaluation of
    rho, and of delta* between atoms.
    """

    def __init__(self, scale, times, points=None):
        self.scale = scale
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("atom times must be 1-D; product atoms take their points apart")
        self.points = None if points is None else np.atleast_2d(np.asarray(points, dtype=float))

    def __len__(self) -> int:
        return self.times.size * (1 if self.points is None else len(self.points))

    def __call__(self, i, idx) -> np.ndarray:
        if self.points is None:
            return delta(self.scale, self.times[i], self.times[idx])
        ta, fb = divmod(int(i), len(self.points))
        g = delta(self.scale, self.times[ta], self.times)
        norms = np.linalg.norm(self.points - self.points[fb], axis=-1)
        return np.maximum.outer(g, norms).ravel()[idx]

    def lower_rows(self, a: int, b: int, out) -> np.ndarray:
        """Write delta* from time atoms a:b to time atoms 0:b into out, (b - a, b).

        The diagonal tile, whose diagonal is 0, takes one delta* call,
        which gamma evaluates masked, and the positive gaps left of it
        another, whole: the one split of a strip, for block() and the
        covariance builds.  Entries above the diagonal, inside the tile,
        are written too.
        """
        t = self.times
        out[:, a:] = delta(self.scale, t[a:b, None], t[a:b])
        out[:, :a] = delta(self.scale, t[a:b, None], t[:a])
        return out

    def block(self, idx) -> np.ndarray:
        """The (k, k) distance matrix among atoms idx, row a = self(idx[a], idx).

        Product atoms take one delta* table over the distinct times of idx,
        the time-atom block of those times, and one norm table over its
        distinct points, gathered by np.ix_.  Each strip of _BLOCK_ROWS rows
        is filled up to its diagonal tile (``lower_rows`` for time atoms)
        and mirrored above, so temporaries stay small beside the k x k
        result and each pair is evaluated once.  The mirror is exact:
        fl(t - s) is -fl(s - t), so |t - s|, its gamma and ||x - y|| are
        the same bits either way.
        """
        idx = np.asarray(idx)
        out = np.empty((idx.size, idx.size))
        if self.points is None:
            times = AtomRows(self.scale, self.times[idx])
        else:
            ti, fi = np.divmod(idx, len(self.points))
            ut, t_of = np.unique(ti, return_inverse=True)
            uf, f_of = np.unique(fi, return_inverse=True)
            g = AtomRows(self.scale, self.times).block(ut)
            p = self.points[uf]
            norms = np.linalg.norm(p[None, :, :] - p[:, None, :], axis=-1)
        for a in range(0, idx.size, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, idx.size)
            strip = out[a:b, :b]
            if self.points is None:
                times.lower_rows(a, b, strip)
            else:
                np.maximum(g[np.ix_(t_of[a:b], t_of[:b])], norms[np.ix_(f_of[a:b], f_of[:b])],
                           out=strip)
            out[:a, a:b] = strip[:, :a].T
        return out

    def diameter(self) -> float:
        """rho between the low and high corners of the atoms' bounding box, at least 1e-12.

        gamma is increasing and each coordinate gap is at most the box's
        extent, so this bounds every pairwise distance, and equals the
        largest one when both corners are atoms.
        """
        span = delta(self.scale, self.times.min(), self.times.max())
        if self.points is not None:
            span = max(span, np.linalg.norm(self.points.max(axis=0) - self.points.min(axis=0)))
        return max(float(span), 1e-12)


def covariance_delta_matrix(cov) -> np.ndarray:
    """delta(s, t) = sqrt(R(t,t) + R(s,s) - 2 R(s,t)) over every pair of the covariance grid.

    Round-off may leave delta^2 slightly negative; it is clamped to 0, and
    a value below -_NEG_VAR_TOL raises ValueError.
    """
    R = cov.R
    d = np.diag(R)
    d2 = d[:, None] + d[None, :] - 2.0 * R
    if np.any(d2 < -_NEG_VAR_TOL):
        raise ValueError(
            f"covariance metric produced delta^2 = {float(np.min(d2)):.3e} < -{_NEG_VAR_TOL}"
        )
    return np.sqrt(np.maximum(d2, 0.0))


@dataclass
class CommensurabilityReport:
    """Empirical two-sided comparison of delta against gamma(|t-s|).

    l_hat = max(ratio_max, 1/ratio_min)^2 is the smallest constant l >= 1
    with (1/sqrt(l)) gamma <= delta <= sqrt(l) gamma on the sampled pairs.
    """

    l_hat: float
    ratio_min: float
    ratio_max: float
    n_pairs: int


def commensurability_report(cov, scale) -> CommensurabilityReport:
    """Ratio delta(s,t) / gamma(|t-s|) over all distinct grid pairs."""
    grid = cov.grid
    dm = covariance_delta_matrix(cov)
    gm = AtomRows(scale, grid).block(np.arange(grid.size))
    iu = np.triu_indices(grid.size, k=1)
    ratios = dm[iu] / gm[iu]
    rmin = float(np.min(ratios))
    rmax = float(np.max(ratios))
    l_hat = max(rmax, 1.0 / rmin) ** 2
    return CommensurabilityReport(
        l_hat=max(l_hat, 1.0),
        ratio_min=rmin,
        ratio_max=rmax,
        n_pairs=ratios.size,
    )
