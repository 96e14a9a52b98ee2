"""Canonical metrics of the process and the commensurability diagnostic.

Two metrics on the time line: the stationary-increment model
delta*(s, t) = gamma(|t - s|), used for set geometry, and the
covariance-derived delta(s, t) = sqrt(R(t,t) + R(s,s) - 2 R(s,t)) of a
simulated process.  The product metric on time x space is
rho((s, x), (t, y)) = max(delta*(s, t), ||x - y||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StationaryGamma",
    "ProductAtoms",
    "covariance_delta_matrix",
    "CommensurabilityReport",
    "commensurability_report",
]

# round-off tolerance for delta^2 < 0 coming out of covariance algebra
_NEG_VAR_TOL = 1e-10
_BLOCK_ROWS = 16  # rows of a distance block filled per step


class StationaryGamma:
    """delta*(s, t) = gamma(|t - s|) and the product metric rho built on it.

    The one place that evaluates either, together with ``rows`` for the
    distances among a fixed atom set.  E is validated to lie in
    [0, x_max] (fractal_sets.TimeSet), so |t - s| never leaves the
    scale's domain and is not clipped.
    """

    def __init__(self, scale):
        self.scale = scale

    def delta(self, s, t):
        return self.scale.gamma(np.abs(np.asarray(t, dtype=float) - s))

    def delta_matrix(self, times):
        times = np.asarray(times, dtype=float)
        return self.delta(times[:, None], times[None, :])

    def rho(self, u, v):
        """max(delta*(s, t), ||x - y||) for points u = (s, x), v = (t, y).

        Points are rows (t, x_1, ..., x_d), and a block of rows
        broadcasts against one point.  A single pair goes through norm's
        vector path (a dot product) and a block through its row
        reduction; the two can differ in the last bit, and each keeps the
        rounding that recorded outputs of its callers were made with.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape[-1] != v.shape[-1]:
            raise ValueError("rho: spatial dimension mismatch")
        dx = v[..., 1:] - u[..., 1:]
        dx = np.linalg.norm(dx, axis=-1) if dx.ndim > 1 else np.linalg.norm(dx)
        return np.maximum(self.delta(u[..., 0], v[..., 0]), dx)

    def rows(self, atoms) -> AtomRows:
        """Distance rows over ``atoms``: delta* for (m,) times, rho for ProductAtoms."""
        return AtomRows(self, atoms)


@dataclass(frozen=True, eq=False)
class ProductAtoms:
    """Every pair (t, x) of n_t times and n_f points of R^d, held factored.

    Atom j is (times[j // n_f], points[j % n_f]), the row order of the
    (m, 1 + d) array that indexing materializes (``atoms[idx]``).  Since
    rho((s, x), (t, y)) = max(delta*(s, t), ||x - y||), a distance row
    needs n_t values of gamma and n_f norms, not m of each.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float).ravel())
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))

    def __len__(self) -> int:
        return self.times.size * len(self.points)

    def __getitem__(self, idx) -> np.ndarray:
        ti, fi = np.divmod(np.arange(len(self))[idx], len(self.points))
        return np.concatenate([self.times[ti][..., None], self.points[fi]], axis=-1)

    def corners(self):
        """The low and high corners (t, x) of the atoms' bounding box."""
        lo = np.concatenate([[self.times.min()], self.points.min(axis=0)])
        hi = np.concatenate([[self.times.max()], self.points.max(axis=0)])
        return lo, hi


class AtomRows:
    """metric(i, idx): distances from atoms[i] to atoms[idx]; block(idx): among atoms[idx].

    ``idx`` is any index of a 1-D array; ``slice(None)`` reads a whole
    row without a copy.  Each element is the value StationaryGamma.delta,
    or rho on the materialized rows, gives for that pair: the same
    subtraction, the same gamma and the same norm reduction.  Times-only
    atoms keep the bare gamma row.
    """

    def __init__(self, model: StationaryGamma, atoms):
        self.model = model
        if isinstance(atoms, ProductAtoms):
            self.times, self.points = atoms.times, atoms.points
        else:
            self.times, self.points = np.asarray(atoms, dtype=float), None
            if self.times.ndim != 1:
                raise ValueError("atoms must be (m,) times or ProductAtoms")

    def __call__(self, i, idx) -> np.ndarray:
        if self.points is None:
            return self.model.delta(self.times[i], self.times[idx])
        ta, fb = divmod(int(i), len(self.points))
        g = self.model.delta(self.times[ta], self.times)
        norms = np.linalg.norm(self.points - self.points[fb], axis=-1)
        return np.maximum.outer(g, norms).ravel()[idx]

    def block(self, idx) -> np.ndarray:
        """The (k, k) distance matrix among atoms[idx], row a = metric(idx[a], idx).

        Product atoms take one gamma table over the distinct times of idx
        and one norm table over its distinct points, gathered by np.ix_.
        The block is filled _BLOCK_ROWS rows at a time, so temporaries
        stay small beside the k x k result.
        """
        idx = np.asarray(idx)
        out = np.empty((idx.size, idx.size))
        chunks = [slice(a, a + _BLOCK_ROWS) for a in range(0, idx.size, _BLOCK_ROWS)]
        if self.points is None:
            t = self.times[idx]
            for rows in chunks:
                out[rows] = self.model.delta(t[rows, None], t)
            return out
        ti, fi = np.divmod(idx, len(self.points))
        ut, t_of = np.unique(ti, return_inverse=True)
        uf, f_of = np.unique(fi, return_inverse=True)
        g = self.model.delta_matrix(self.times[ut])
        p = self.points[uf]
        norms = np.linalg.norm(p[None, :, :] - p[:, None, :], axis=-1)
        for rows in chunks:
            np.maximum(
                g[np.ix_(t_of[rows], t_of)], norms[np.ix_(f_of[rows], f_of)], out=out[rows]
            )
        return out


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
    grid: np.ndarray


def commensurability_report(cov, scale) -> CommensurabilityReport:
    """Ratio delta(s,t) / gamma(|t-s|) over all distinct grid pairs."""
    grid = cov.grid
    dm = covariance_delta_matrix(cov)
    gm = StationaryGamma(scale).delta_matrix(grid)
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
        grid=grid,
    )
