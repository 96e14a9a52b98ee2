"""Independent oracles used to pin expected values.

These deliberately avoid the code paths they check: the energy oracle
enumerates every support of the probability simplex and solves its KKT
system exactly, and the integral oracle is a plain midpoint Riemann sum
on a geometric grid.  The Frank-Wolfe reference is the solver's earlier
loop, which keeps a gradient array and masks the support on every step;
the current loop must reproduce its bits.  The product-metric oracle
evaluates rho on materialized (t, x) rows, one row per atom, where the
code under test reads factored times and points.  A ball mass of a
uniform measure counts the atoms a delta-ball holds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def exact_min_energy(K: np.ndarray) -> float:
    """Exact min of w^T K w over the probability simplex, for n <= 5 atoms.

    Enumerates every nonempty support S and solves K_S y = 1; each
    solution with y >= 0 gives the candidate w = y / sum(y) on S.  This
    covers the minimum: at a minimizer w* with support S the KKT
    conditions read K_S w*_S = e 1 with e = w*^T K w*, and e > 0 because
    K > 0 entrywise.  If K_S is singular, 1 = K_S w*_S / e lies in its
    range, so every null vector v has 1^T v = 0; the energy is then
    constant along w* + t v, and moving until a weight vanishes gives a
    minimizer on a smaller support.  Repeating ends on a support whose
    K_S is nonsingular (a single atom at worst, K_ii > 0), so supports
    where the solve raises can be skipped.

    The energy is evaluated directly from each feasible w, so the result
    is never below the true minimum.
    """
    n = K.shape[0]
    if n > 5:
        raise ValueError("oracle supports at most 5 atoms")
    best = math.inf
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            idx = list(S)
            try:
                y = np.linalg.solve(K[np.ix_(idx, idx)], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.any(y < 0.0):
                continue
            w = np.zeros(n)
            w[idx] = y / y.sum()
            best = min(best, float(w @ K @ w))
    return best


def pairwise_fw_reference(K: np.ndarray, tol: float, max_iter: int, trace=None, moves=None):
    """Pairwise Frank-Wolfe on w^T K w over the simplex, gradient kept as 2 K w.

    The loop of ``minimize_energy`` before it dropped the gradient array,
    unchanged.  ``moves``, if a list, receives (v, s, dropped) per step:
    the FW vertex, the away vertex and whether the step emptied s.
    Returns (w, e, gap).
    """
    n = K.shape[0]
    if n == 1:
        return np.array([1.0]), float(K[0, 0]), 0.0
    w = np.full(n, 1.0 / n)
    Kw = K @ w
    e = float(w @ Kw)
    for k in range(max_iter):
        grad = 2.0 * Kw
        v = int(np.argmin(grad))
        gap = float(w @ grad - grad[v])
        stop = gap <= tol * max(e, 1e-300)
        if trace is not None and (k < 100 or k % 100 == 0 or stop or k == max_iter - 1):
            trace.append((k, e, gap))
        if stop:
            break
        s = int(np.argmax(np.where(w > 0.0, grad, -math.inf)))
        slope = float(Kw[v] - Kw[s])
        curv = float(K[v, v] - 2.0 * K[v, s] + K[s, s])
        step = w[s] if curv <= 0 else min(-slope / curv, w[s])
        Kw += step * (K[v] - K[s])
        w[v] += step
        w[s] -= step
        if moves is not None:
            moves.append((v, s, not w[s] > 0.0))
        e = float(w @ Kw)
    w = np.maximum(w, 0.0)
    w /= w.sum()
    Kw = K @ w
    e = float(w @ Kw)
    grad = 2.0 * Kw
    gap = float(w @ grad - grad.min())
    return w, e, gap


def product_rows(times, points) -> np.ndarray:
    """Every (t, x_1, ..., x_d) row of times x points, time-major."""
    points = np.atleast_2d(points)
    return np.column_stack([np.repeat(times, len(points)), np.tile(points, (len(times), 1))])


def product_rho(gamma, u, rows) -> np.ndarray:
    """rho(u, v) = max(gamma(|t - s|), ||y - x||) from u = (s, x) to each row v = (t, y).

    ``gamma`` is the scale function, evaluated on the array of time gaps.
    """
    u = np.asarray(u, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.maximum(gamma(np.abs(rows[:, 0] - u[0])),
                      np.linalg.norm(rows[:, 1:] - u[1:], axis=-1))


def uniform_ball_mass(gamma, atoms, t: float, r: float) -> float:
    """nu(B_delta(t, r)) for the uniform probability measure on ``atoms``,
    where delta(s, t) = gamma(|t - s|)."""
    atoms = np.asarray(atoms, dtype=float)
    return np.count_nonzero(gamma(np.abs(atoms - t)) <= r) / atoms.size


def riemann_integral_I(scale, x: float, n_panels: int = 1_000_000) -> float:
    """Midpoint Riemann sum for int_{log 2}^Z gamma(x e^{-z}) z^{-1/2} dz
    on a geometric panel grid, with Z pushed out until the integrand is
    negligible relative to the accumulated value.

    Evaluates gamma through the closed form in u = log(1/r) when the
    family has one (the slow scales have live tails far beyond the
    float64 range of x e^{-z} itself).
    """
    u0 = math.log(1.0 / x)
    try:
        scale.log_gamma_u(u0 + 1.0)

        def g_of(z):
            return np.exp(scale.log_gamma_u(u0 + z))

    except NotImplementedError:

        def g_of(z):
            return scale.gamma(x * np.exp(-np.minimum(z, 700.0)))

    Z = 2.0 * math.log(2.0)
    total_probe = 0.0
    # crude probe to find a truncation point
    while Z < 1e17:
        probe = float(g_of(np.array(Z))) / math.sqrt(Z)
        if probe * Z < 1e-9 * max(total_probe, scale.gamma(x)):
            break
        zs = np.geomspace(Z / 2.0, Z, 64)
        mid = 0.5 * (zs[1:] + zs[:-1])
        total_probe += float(np.sum(g_of(mid) / np.sqrt(mid) * np.diff(zs)))
        Z *= 2.0
    edges = np.geomspace(math.log(2.0), Z, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    vals = g_of(mids) / np.sqrt(mids)
    return float(np.sum(vals * np.diff(edges)))
