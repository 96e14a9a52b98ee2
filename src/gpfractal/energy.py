"""Discrete Bessel-Riesz energies and capacity by simplex minimization.

The continuous energy has no diagonal mass; the discrete kernel restores
one by truncating the metric at a resolution h, K_ij = phi_beta(max(rho,
h)).  Sweeping h downward and extrapolating recovers the direction of
the continuum limit: bounded minimal energies mean positive capacity,
geometric decay of 1/e_min means the capacity verdict is "zero".
Every distance comes from metrics.AtomRows: the kernel is built in place
in the symmetric distance block of the subsample, and the solver works
on that bare, finite (k, k) array and returns the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fractal_sets import OutOfModelError
from .metrics import _BLOCK_ROWS
from .scale import phi_kernel

__all__ = [
    "CapacityReport",
    "kernel_matrix",
    "minimize_energy",
    "farthest_point_subsample",
    "capacity_estimate",
]

_MAX_ATOMS = 10_000  # atom cap of the subsample and of the capacity sweep
_FW_TOL = 1e-5  # relative duality gap at which a solve stops
_FW_MAX_ITER = 20_000  # iteration cap of a solve


def kernel_matrix(dists, beta: float, h: float, out=None) -> np.ndarray:
    """K_ij = phi_beta(max(dist_ij, h)) of a symmetric distance block.

    K is built in one k x k buffer: ``out`` when given, which may be
    ``dists`` itself when the caller owns it, else a new array, so
    ``dists`` is written only when it is ``out``.  Each truncated
    _BLOCK_ROWS-row strip takes phi in place from its diagonal rightward
    and is mirrored below it.  h <= 0 (or NaN) raises OutOfModelError, and
    so does phi(h), K's largest entry, above half the largest double, as
    the solver's curvature K_vv - 2 K_vs + K_ss needs 2 phi(h) finite.
    """
    if not h > 0:
        raise OutOfModelError(f"truncation resolution h = {h!r} must be positive")
    with np.errstate(over="ignore"):  # the strips' power; phi(h) <= log(e / h) for beta <= 0
        phi_h = float(np.array(h) ** -beta) if beta > 0 else 0.0
    if phi_h > np.finfo(float).max / 2:
        raise OutOfModelError(f"phi(h) = {phi_h!r} at h = {h!r}, beta = {beta!r} "
                              "is above half the largest double")
    K = np.maximum(np.asarray(dists, dtype=float), h, out=out)
    for r0 in range(0, len(K), _BLOCK_ROWS):
        upper = K[r0 : r0 + _BLOCK_ROWS, r0:]
        phi_kernel(beta, upper, out=upper)
        K[r0:, r0 : r0 + _BLOCK_ROWS] = upper.T
    return K


def minimize_energy(K, tol: float = _FW_TOL, max_iter: int = _FW_MAX_ITER, trace=None):
    """Pairwise Frank-Wolfe minimization of w^T K w over the probability simplex.

    Starts uniform.  Each step moves mass from the support atom with the
    largest gradient (the away vertex) to the atom with the smallest (the
    FW vertex), by exact line search on the quadratic capped at the away
    weight; reaching the cap drops that atom from the support.  Unlike
    vanilla Frank-Wolfe this does not zig-zag near faces of the simplex
    (it converges linearly on polytopes, Lacoste-Julien & Jaggi 2015).
    It stops once the duality gap w.grad - min grad is not above
    tol * max(e, 1e-300), e the current energy, so a NaN gap (a K that is
    not finite, or a K w that overflows) stops it where it appears.  The
    gap certifies e_min - e_opt <= gap only when K is positive
    semidefinite on the simplex's tangent space.  The truncated kernel
    often is not; then a small gap says only that w is near a stationary
    point, which may sit above e_opt.  ``trace``, if a list, receives
    (iteration, energy, gap) tuples at every iteration below 100, every
    100th after that, and the last one.

    The loop keeps Kw and no gradient array grad = 2 Kw.  On a finite K
    three identities give the bits of reading grad: doubling preserves order
    and ties, so the FW vertex v is the first argmin of Kw and the away
    vertex the first argmax of Kw over the support; and doubling commutes
    with every rounding, so w.grad = 2 e with e = w.Kw, the energy the step
    before computed, and gap = 2 e - 2 Kw[v] = 2 (e - min Kw).  The
    identities fail only when 2 Kw overflows or some w_i Kw_i is subnormal.
    The support is a second copy of Kw, ``top``, with -inf off it: each step
    adds the same update to both, so top's first argmax is the away vertex,
    and an atom that enters or leaves costs one write.  Scalars are read as
    Python floats, which round as the float64 values do.

    Returns (weights, e_min, gap).
    """
    n = len(K)
    if n == 1:
        return np.array([1.0]), float(K[0, 0]), 0.0
    w = np.full(n, 1.0 / n)
    Kw = K @ w
    e = float(w @ Kw)
    top = Kw.copy()
    rows, diag = list(K), K.diagonal().tolist()
    w_at, Kw_at, K_at = w.item, Kw.item, K.item
    buf = np.empty(n)
    for k in range(max_iter):
        v = int(Kw.argmin())
        kv = Kw_at(v)
        gap = 2.0 * e - 2.0 * kv
        stop = not gap > tol * (1e-300 if e < 1e-300 else e)  # max(e, 1e-300)
        if trace is not None and (k < 100 or k % 100 == 0 or stop or k == max_iter - 1):
            trace.append((k, e, gap))
        if stop:
            break
        s = int(top.argmax())
        ws = w_at(s)
        # a positive gap puts Kw[s] above Kw[v], so the slope along e_v - e_s
        # is negative and the step positive.  K is symmetric: the update reads rows.
        slope = kv - Kw_at(s)
        curv = diag[v] - 2.0 * K_at(v, s) + diag[s]
        step = ws if curv <= 0 else -slope / curv
        if ws < step:
            step = ws
        np.subtract(rows[v], rows[s], buf)
        np.multiply(buf, step, buf)
        np.add(Kw, buf, Kw)
        np.add(top, buf, top)
        wv = w_at(v)
        w[v] = wv + step
        w[s] = w_at(s) - step  # exactly 0 when the step reaches the cap
        if not wv > 0.0 and w_at(v) > 0.0:
            top[v] = Kw_at(v)
        if not w_at(s) > 0.0:
            top[s] = -math.inf
        e = float(w.dot(Kw))
    w /= w.sum()
    Kw = K @ w
    e = float(w @ Kw)
    gap = 2.0 * e - 2.0 * float(Kw.min())
    return w, e, gap


def farthest_point_subsample(m: int, metric, spacing: float):
    """Greedy farthest-point order over m atoms down to the given spacing.

    ``metric(i, idx)`` returns distances from atom i to the atoms idx;
    every call here asks for a whole row, with idx = slice(None).  The
    count m is passed apart, so ``metric`` may be any such function, not
    only an AtomRows.  Selection stops when every remaining atom is within
    ``spacing`` of the selected set (or at _MAX_ATOMS points).  Returns
    the selected indices in pick order and each pick's insertion radius,
    its distance to the atoms picked before it (inf for the first).  The
    radii never increase, so ``np.sort(order[radii > h])`` is exactly the
    set a greedy run at spacing h >= ``spacing`` selects.  Stabilizes
    kernel conditioning.
    """
    every = slice(None)
    order, radii = [0], [math.inf]
    mind = np.array(metric(0, every), dtype=float)
    while len(order) < min(m, _MAX_ATOMS):
        i = int(np.argmax(mind))
        if mind[i] <= spacing:
            break
        order.append(i)
        radii.append(float(mind[i]))
        np.minimum(mind, metric(i, every), out=mind)
    return np.array(order), np.array(radii)


@dataclass
class CapacityReport:
    resolutions: list
    e_min: list
    gaps: list
    iterations: list  # solver iterations per resolution
    capacity_estimates: list
    verdict: str  # "positive" | "zero" | "inconclusive"
    extrapolated: float
    slope_per_octave: float
    n_atoms: list = field(default_factory=list)
    beta: float = 0.0

    @property
    def capacity_value(self) -> float:
        return 0.0 if self.verdict == "zero" else self.extrapolated


def capacity_estimate(rows, beta: float, resolutions, trace=None) -> CapacityReport:
    """Capacity 1/inf-energy of the atom set ``rows``, an AtomRows, across a resolution sweep.

    At each h, largest first, the len(rows) atoms are thinned to spacing
    ~h by farthest-point selection (one greedy pass serves the whole
    sweep), the truncated kernel is built inside one distance block
    (rows.block), and the energy is minimized by pairwise Frank-Wolfe,
    whose iteration count per h the report keeps.  The verdict comes
    from the decay rate of the capacity estimates per octave of h: geometric
    decay (slope <= -0.1) reads "zero", a near-flat tail reads "positive"
    with a geometric-series extrapolation, and the band in between is
    "inconclusive" (the critical-order regime that discretization cannot
    settle), as does an extrapolation that falls to 0 or below, which
    is reported as 0.0.  More than _MAX_ATOMS atoms, fewer than 2
    resolutions, atoms too coarse for the second resolution, a resolution
    that keeps no atom (h = inf) or a minimal energy whose inverse is not
    a finite positive number (the kernel over- or underflows at that h
    and beta) raise OutOfModelError.
    """
    m = len(rows)
    if m > _MAX_ATOMS:
        raise OutOfModelError(f"atom count {m} exceeds cap {_MAX_ATOMS}")
    res = sorted((float(h) for h in resolutions), reverse=True)
    if len(res) < 2:
        raise OutOfModelError("need at least 2 resolutions")
    # greedy farthest-point order is nested: one pass at the finest
    # resolution, read at each h as the prefix of picks farther than h
    order, radii = farthest_point_subsample(m, rows, spacing=res[-1])
    e_mins, gaps, iterations, caps_est, n_atoms = [], [], [], [], []
    for h in res:
        idx = np.sort(order[radii > h])
        if idx.size == 0:
            raise OutOfModelError(f"the subsample at resolution h = {h!r} is empty")
        K = rows.block(idx)
        kernel_matrix(K, beta=beta, h=h, out=K)
        fw_trace = []
        _, e, gap = minimize_energy(K, trace=fw_trace)
        del K  # so the next resolution's block is the only k x k array
        if not (e > 0 and math.isfinite(e) and math.isfinite(1.0 / e)):
            raise OutOfModelError(
                f"minimal energy {e!r} at h = {h!r}, beta = {beta!r}: "
                "the kernel over- or underflows"
            )
        if trace is not None:
            trace.extend((h, k, ek, gk) for k, ek, gk in fw_trace)
        e_mins.append(e)
        gaps.append(gap)
        iterations.append(fw_trace[-1][0] + 1 if fw_trace else 0)
        caps_est.append(1.0 / e)
        n_atoms.append(len(idx))
        if len(idx) == m:
            # below the sampling resolution the kernel no longer resolves
            # the set, only the atom discreteness; stop the sweep
            break
    res = res[: len(e_mins)]
    if len(res) < 2:
        raise OutOfModelError(
            "atom set too coarse for the requested resolutions "
            "(subsample saturates immediately)"
        )
    octaves = [math.log2(res[0] / h) for h in res]
    logc = [math.log2(c) for c in caps_est]
    # Tail decay rate per octave.  Positive capacity means the per-octave
    # decrements of log2(capacity) die off geometrically (the energy
    # converges with a power-law correction), while zero capacity means
    # they stabilize at beta - dim > 0.  The coarse octaves carry
    # transients either way, so the verdict reads the final decrement,
    # qualified by whether the decrements are still decelerating.
    d_oct = np.diff(octaves)
    decr = -np.diff(logc) / d_oct
    slope = float(-decr[-1])
    decel = float(decr[-1] / decr[-2]) if len(decr) >= 2 and decr[-2] > 1e-12 else 0.0
    if slope <= -0.1 and decel >= 0.75:
        verdict = "zero"
        extrap = 0.0
    else:
        verdict = "positive" if (slope > -0.1 or decel <= 0.6) else "inconclusive"
        # geometric-series extrapolation from the last increments
        c_last, c_prev = caps_est[-1], caps_est[-2]
        d_last = c_last - c_prev
        if len(caps_est) >= 3 and abs(caps_est[-2] - caps_est[-3]) > 1e-300:
            q = d_last / (caps_est[-2] - caps_est[-3])
            if 0 < q < 0.95:
                extrap = c_last + d_last * q / (1.0 - q)
            else:
                extrap = c_last
        else:
            extrap = c_last
        if extrap <= 0.0:
            verdict, extrap = "inconclusive", 0.0
    return CapacityReport(
        resolutions=res,
        e_min=e_mins,
        gaps=gaps,
        iterations=iterations,
        capacity_estimates=caps_est,
        verdict=verdict,
        extrapolated=extrap,
        slope_per_octave=slope,
        n_atoms=n_atoms,
        beta=beta,
    )

