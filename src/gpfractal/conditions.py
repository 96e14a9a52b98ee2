"""Numerical verification of the integral conditions gating the theorems.

The central object is I(x) = int_0^{1/2} gamma(x y) dy / (y sqrt(log(1/y))),
equivalently int_{log 2}^inf gamma(x e^{-z}) z^{-1/2} dz.  The strong
condition asks I(x) <= c gamma(x) near 0; the weak one allows
gamma(x)^{1-eps} on the right.

Verdicts are trend classifications over finite grids with explicit
thresholds, never limit claims.  Two scales defeat any float64 grid,
though: ratios in the logarithmic and exp-log families drift like
powers of log log, far below the trend thresholds, while their limits
are provably infinite.  For those regimes the checkers consult two
analytic certificates evaluated from log gamma and psi as functions of
u = log(1/r), which every scale provides, a knot table included: the
elasticity criterion psi(r) sqrt(log(1/r)) -> 0 (which forces
I/gamma -> inf), and the Laplace surrogate I/gamma ~ sqrt(pi / psi(r))
for the weak condition.  Overrides are recorded on the verdict.  I
itself is integrated in u too, so every scale takes one path.

The adaptive quadrature uses two Gauss-Legendre rules, of order 16 and
32.  Each is built once per process, on first use (never at import), and
every panel reads the same read-only node and weight arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dimension import _fit_slope
from .fractal_sets import OutOfModelError
from .scale import ExpLogScale, ScaleFunction

__all__ = [
    "ConditionVerdict",
    "IntegralError",
    "integral_I",
    "check_strong_condition",
    "check_weak_condition",
    "psi_sqrtlog_criterion",
    "f_gamma",
]

SATISFIED = "Satisfied"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"

_TOL = 1e-6  # relative error of every I(x) the checkers and f_gamma evaluate
#: the x grid of the trend checks: ten log-spaced points from 1e-2 down to 1e-10
_X_GRID = tuple(float(x) for x in np.geomspace(1e-2, 1e-10, 10))


class IntegralError(RuntimeError):
    """The conditioning integral did not converge."""


@dataclass
class ConditionVerdict:
    condition: str
    x_grid: list
    ratios: list
    verdict: str
    fitted_constant: float
    trend_verdict: str = ""
    override: str | None = None
    paper_open: bool = False
    notes: str = ""


# ---------------------------------------------------------------------------
# the integral I(x)


@functools.cache
def _gauss_legendre(order):
    """Nodes and weights of the order-point rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _window_gl(f, lo, hi, order):
    x, w = _gauss_legendre(order)
    z = lo + 0.5 * (hi - lo) * (x + 1.0)
    return 0.5 * (hi - lo) * float(np.dot(w, f(z)))


def _adaptive_window(f, lo, hi, tol_abs, depth=0):
    coarse = _window_gl(f, lo, hi, 16)
    fine = _window_gl(f, lo, hi, 32)
    # the relative floor stops pointless recursion once the panel agrees
    # to near machine precision
    if abs(fine - coarse) <= max(tol_abs, 1e-13 * abs(fine)) or depth >= 20:
        return fine
    mid = 0.5 * (lo + hi)
    half = 0.5 * tol_abs
    return _adaptive_window(f, lo, mid, half, depth + 1) + _adaptive_window(
        f, mid, hi, half, depth + 1
    )


def _integral_I_u(f: ScaleFunction, u0: float, gamma_x: float, tol: float) -> float:
    """Core of integral_I in the variable u = log(1/r).

    I = int_{log 2}^inf g(u0 + z) z^{-1/2} dz where g(u) = gamma(e^{-u}),
    evaluated as exp(log_gamma_u(u)), so the argument e^{-u} is never
    formed and never underflows.

    Integrates on doubling windows [Z, 2Z] with adaptive Gauss-Legendre
    panels.  A stop needs two certificates: window contributions
    decaying geometrically with ratio q <= 0.8 (remaining tail <=
    contrib * q / (1 - q) <= tol * total) and the integrand level cert
    gamma(x e^{-Z}) <= tol * gamma(x) / sqrt(Z), which guards against a
    spurious collapse of the contributions.
    """
    def g_of(z):
        return np.exp(f.log_gamma_u(u0 + z))

    def integrand(z):
        return g_of(z) / np.sqrt(z)

    lo = math.log(2.0)
    hi = 2.0 * lo
    total = 0.0
    prev = None
    stalled = 0
    for _ in range(120):
        contrib = _adaptive_window(integrand, lo, hi, tol_abs=tol * max(total, 1e-300) / 8)
        total += contrib
        q = contrib / prev if (prev is not None and prev > 0) else 1.0
        if prev is not None and q <= 0.8:
            tail_bound = contrib * q / (1.0 - q)
            level_ok = float(g_of(np.array(hi))) <= tol * gamma_x / math.sqrt(hi)
            if tail_bound <= tol * total and level_ok:
                return total
        if prev is not None and q > 0.8:
            stalled += 1
            if stalled >= 40:
                raise IntegralError(
                    f"tail not converging: window ratio {q:.3f} > 0.8 "
                    f"after {stalled} windows (Z ~ {hi:.3e})"
                )
        else:
            stalled = 0
        prev = contrib
        lo, hi = hi, 2.0 * hi
    raise IntegralError(f"integral did not converge before Z = {hi:.3e}")


def integral_I(f: ScaleFunction, x: float, tol: float = _TOL) -> float:
    """I(x) = int_{log 2}^inf gamma(x e^{-z}) z^{-1/2} dz, relative error ~tol.

    Equals int_0^{1/2} gamma(x y) dy / (y sqrt(log(1/y))) after the
    substitution y = e^{-z}.  See _integral_I_u for the quadrature and
    truncation rules.
    """
    if not 0 < x <= f.x_max * (1 + 1e-12):
        raise ValueError(f"integral_I needs x in (0, x_max], got {x}")
    return _integral_I_u(f, math.log(1.0 / x), f.gamma(x), tol)


def f_gamma(f: ScaleFunction, r: float) -> float:
    """f(r) = r sqrt(log 2) + I(gamma^{-1}(r)).

    This is the entropy-integral majorant of the stationary model, whose
    commensurability constant is 1.  I is integrated from
    u0 = log(1/gamma^{-1}(r)), which ScaleFunction.log_inverse finds in
    u-space, so the slow scales' pre-images far below the float64 range
    never need to be formed.
    """
    if r > f.gamma(f.x_max):
        raise ValueError("r exceeds gamma(x_max)")
    u0 = f.log_inverse(r)
    return r * math.sqrt(math.log(2.0)) + _integral_I_u(f, u0, r, _TOL)


# ---------------------------------------------------------------------------
# trend classification


def _trend_classify(x_grid, ratios):
    """Grid-trend verdict with the fixed thresholds.

    Satisfied: ratio variation <= 1.5x over the last two decades.
    Violated: monotone growth >= 2x per decade over the last two decades.
    """
    x = np.asarray(x_grid, dtype=float)
    r = np.asarray(ratios, dtype=float)
    order = np.argsort(-x)  # decreasing x
    x, r = x[order], r[order]
    window = x <= x[-1] * 100.0
    xw, rw = x[window], r[window]
    variation = float(np.max(rw) / max(np.min(rw), 1e-300))
    monotone_up = bool(np.all(np.diff(rw) > 0))
    decades = math.log10(xw[0] / xw[-1]) if xw[0] > xw[-1] else 0.0
    growth_per_decade = (
        (rw[-1] / rw[0]) ** (1.0 / decades) if decades > 0 and rw[0] > 0 else 1.0
    )
    if monotone_up and growth_per_decade >= 2.0:
        return VIOLATED, variation, growth_per_decade
    if variation <= 1.5:
        return SATISFIED, variation, growth_per_decade
    return INCONCLUSIVE, variation, growth_per_decade


def _paper_open(f: ScaleFunction) -> bool:
    # exp-log scales with alpha in [1/2, 1): no analytic information either way
    return isinstance(f, ExpLogScale) and f.alpha >= 0.5


def psi_sqrtlog_criterion(f: ScaleFunction) -> ConditionVerdict:
    """Does psi(r) sqrt(log(1/r)) tend to 0?

    When it does, the strong condition provably fails (the ratio I/gamma
    blows up).  Primary classifier: the log-log slope of the tabulated
    values against u = log(1/r); the absolute certificate "drops below
    0.05" is kept as a secondary rule.  A float64 r-grid cannot reach the
    0.05 level for some families whose limit is provably 0 (exp-log with
    small alpha approaches it like u^{alpha - 1/2}), hence the slope
    rule.  psi is read off psi_u, so for every scale the grid of 40
    log-spaced r runs from 1e-2 down to 1e-250; a knot table's psi below
    its first knot is its first segment's slope.
    """
    r = np.geomspace(1e-2, 1e-250, 40)
    u = np.log(1.0 / r)
    psi = np.asarray(f.psi_u(u), dtype=float)
    vals = psi * np.sqrt(u)
    slope, _ = _fit_slope(np.log(u), np.log(np.maximum(vals, 1e-300)))
    decreasing = vals[-1] < vals[0]
    if (slope <= -0.05 and decreasing) or (vals[-1] < 0.05 and decreasing):
        verdict = SATISFIED
    elif slope >= 0.05 or (not decreasing and vals[-1] > vals[0] * 1.5):
        verdict = VIOLATED
    else:
        verdict = INCONCLUSIVE
    return ConditionVerdict(
        condition="PsiSqrtLog",
        x_grid=r.tolist(),
        ratios=vals.tolist(),
        verdict=verdict,
        fitted_constant=float(vals[-1]),
        trend_verdict=verdict,
        paper_open=_paper_open(f),
        notes=f"log-log slope {slope:.3f}; final value {vals[-1]:.4g}",
    )


def _weak_surrogate_diverges(f: ScaleFunction, eps: float):
    """Laplace-surrogate divergence test for I/gamma^{1-eps} in u-space.

    Uses I/gamma ~ sqrt(pi / psi) (exact direction for every built-in
    family), i.e. checks whether
    D(u) = eps * log gamma + (1/2) log(1/psi) tends to +inf along
    u = 1e2 .. 1e8.  Returns True/False, or None when psi is not positive
    there or D has no clear trend.
    """
    u = np.geomspace(1e2, 1e8, 13)
    lg = np.asarray(f.log_gamma_u(u), dtype=float)
    psi = np.asarray(f.psi_u(u), dtype=float)
    if np.any(psi <= 0):
        return None
    D = eps * lg + 0.5 * np.log(1.0 / psi)
    increasing = bool(np.all(np.diff(D[-6:]) > 0))
    if increasing and D[-1] > D[0] + 2.0:
        return True
    if D[-1] < D[0] - 2.0:
        return False
    return None


def _growth_condition(f: ScaleFunction, condition: str, exponent: float, override,
                      notes: str) -> ConditionVerdict:
    """Classify I(x) <= c gamma(x)^exponent on the x grid within (0, x_max].

    The grid ratios I(x) / gamma(x)^exponent get the trend thresholds;
    ``override(trend)`` then returns the verdict and the name of the
    certificate that changed it, or None.  ``notes`` heads the verdict's
    notes.  Fewer than 2 grid points within x_max raise OutOfModelError.
    """
    x_grid = [x for x in _X_GRID if x <= f.x_max]
    if len(x_grid) < 2:
        raise OutOfModelError(f"{f.name}: the condition grid 1e-2 ... 1e-10 has {len(x_grid)} "
                              f"points within x_max = {f.x_max:g}, below the 2 a trend needs")
    ratios = [integral_I(f, x) / f.gamma(x) ** exponent for x in x_grid]
    trend, variation, growth = _trend_classify(x_grid, ratios)
    verdict, name = override(trend)
    return ConditionVerdict(
        condition=condition,
        x_grid=x_grid,
        ratios=ratios,
        verdict=verdict,
        fitted_constant=float(np.max(ratios)),
        trend_verdict=trend,
        override=name,
        paper_open=_paper_open(f),
        notes=f"{notes}variation {variation:.3f}, growth/decade {growth:.3f}",
    )


def check_strong_condition(f: ScaleFunction) -> ConditionVerdict:
    """Classify I(x) <= c gamma(x): the gate for the sharp hitting bounds.

    Grid-trend thresholds first; if the elasticity criterion certifies
    psi sqrt(log) -> 0, the verdict is overridden to Violated (that
    limit provably forces I/gamma -> inf).
    """
    def override(trend):
        if psi_sqrtlog_criterion(f).verdict == SATISFIED and trend != VIOLATED:
            return VIOLATED, "psi-sqrtlog"
        return trend, None

    return _growth_condition(f, "Strong24", 1.0, override, "")


def check_weak_condition(f: ScaleFunction, eps: float = 0.1) -> ConditionVerdict:
    """Classify I(x) <= c gamma(x)^{1-eps} at a fixed eps.

    Trend thresholds on the grid ratios, with the u-space Laplace
    surrogate as an override for the poly-log divergences that no
    float64 grid can expose (the log scale drifts like log^{1/2 - eps
    beta}(1/x)).
    """
    def override(trend):
        surrogate = _weak_surrogate_diverges(f, eps)
        if surrogate is True and trend != VIOLATED:
            return VIOLATED, "asymptotic-surrogate"
        if surrogate is False and trend == INCONCLUSIVE:
            return SATISFIED, "asymptotic-surrogate"
        return trend, None

    return _growth_condition(f, "WeakNice", 1.0 - eps, override, f"eps={eps:g}; ")
