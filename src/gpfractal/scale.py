"""Variance-scale functions and their analytic attributes.

A scale function gamma is a continuous increasing function on (0, x_max]
with gamma(0+) = 0.  It drives everything else in the package: the
canonical metric of the process, the covariance builders, the adapted
dyadic coverings and the integral conditions.  Every scale answers in
u = log(1/r): log gamma and the elasticity psi(r) = r * gamma'(r) / gamma(r)
as functions of u, which stay evaluable where r itself underflows.  The
built-in families give them in closed form; a knot table is piecewise
linear in u, so its psi is the slope of the segment that holds r.  The
derivative is closed form too, never a finite difference.  gamma^{-1} is
the family closed form where there is one, else a bisection in u on
log gamma, exact for pre-images far below the float64 range.
A scale's spec string parses back to the same family, parameters and x_max.
"""

from __future__ import annotations

import csv
import math
import sys

import numpy as np

__all__ = [
    "ScaleDomainError",
    "ScaleFunction",
    "PowerScale",
    "PowerLogScale",
    "LogScale",
    "ExpLogScale",
    "LogCorrectedScale",
    "CustomScale",
    "parse_scale_spec",
    "phi_kernel",
]


class ScaleDomainError(ValueError):
    """Argument outside the domain of a scale function."""


#: u = log(1/r) of the smallest positive double, 2^-1074
_U_TINY = 1074 * math.log(2.0)


def _as_array(r):
    a = np.asarray(r, dtype=float)
    return a, (a.ndim == 0)


def _is_number(x) -> bool:
    """A finite real: not a bool, NaN, an infinity or an int beyond float range."""
    return (
        isinstance(x, (int, float, np.integer, np.floating))
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


def _num(x: float) -> str:
    """x with :g when that reads back as x, else its shortest round-trip repr."""
    s = f"{x:g}"
    return s if float(s) == x else repr(x)


class ScaleFunction:
    """Base class for variance-scale functions.

    Instances are immutable after construction and safe to share across
    threads.  Subclasses implement ``_gamma``, ``_dgamma``,
    ``log_gamma_u``, ``psi_u`` and, when a closed form exists,
    ``_inverse_closed``; ``_spec`` pairs each spec key with the attribute
    holding its parameter.  ``log_gamma_u``/``psi_u`` give log gamma and
    psi as functions of u = log(1/r), which stays evaluable far beyond the
    float64 range of r itself.
    """

    family = "abstract"
    _spec = ()
    #: upper end of the domain (times are dimensionless).
    x_max = 1.0
    #: the family's x_max for these parameters, which the spec leaves out
    _x_max_default = 1.0
    #: right end of the declared concavity neighbourhood (0: none declared).
    x_conc = 0.0

    # -- core evaluations -------------------------------------------------

    def gamma(self, r):
        """Evaluate gamma(r) for 0 <= r <= x_max; NaN fails the min/max check.

        An array of positive r goes to ``_gamma`` whole.  Zeros and 0-d r take
        the masked 1-d path: a 0-d ``**`` runs scalar math, which can round apart.
        """
        a, scalar = _as_array(r)
        lo, hi = a.min(initial=np.inf), a.max(initial=-np.inf)
        if not (lo >= 0 and hi <= self.x_max * (1 + 1e-12)):
            raise ScaleDomainError(
                f"{self.name}: argument outside [0, {self.x_max}]"
            )
        if lo > 0 and not scalar:
            return self._gamma(a)
        out = np.zeros_like(a)
        pos = a > 0
        out[pos] = self._gamma(a[pos])
        return float(out) if scalar else out

    def dgamma(self, r):
        """Closed-form derivative gamma'(r), r in (0, x_max]; NaN raises."""
        a, scalar = _as_array(r)
        if not (a.min(initial=np.inf) > 0 and a.max(initial=-np.inf) <= self.x_max * (1 + 1e-12)):
            raise ScaleDomainError(f"{self.name}: derivative needs r in (0, x_max]")
        out = self._dgamma(a)
        return float(out) if scalar else out

    def gamma2(self, r):
        g = self.gamma(r)
        return g * g

    def dgamma2(self, r):
        """(gamma^2)'(r) = 2 gamma(r) gamma'(r)."""
        return 2.0 * self.gamma(r) * self.dgamma(r)

    def psi(self, r):
        """Elasticity psi(r) = r gamma'(r) / gamma(r), read off psi_u(log(1/r))."""
        a, scalar = _as_array(r)
        out = self.psi_u(-np.log(a))
        return float(out) if scalar else out

    def inverse(self, v) -> float:
        """gamma^{-1}(v) for one scalar v in [0, gamma(x_max)].

        The family closed form when there is one, else exp(-log_inverse(v)).
        A pre-image below the smallest positive double comes back as 0.0.
        v is taken as a NumPy float, so a closed form that overflows gives
        inf rather than raising.
        """
        v = np.float64(v)
        vmax = self.gamma(self.x_max)
        if v < 0 or v > vmax * (1 + 1e-9):
            raise ScaleDomainError(f"{self.name}: inverse argument above gamma(x_max)")
        if v <= 0.0:
            return 0.0
        v = min(v, vmax)
        closed = self._inverse_closed(v)
        if closed is not None:
            return float(closed)
        if self.log_gamma_u(_U_TINY) > math.log(v):
            return 0.0
        return math.exp(-self.log_inverse(v))

    def log_inverse(self, v: float) -> float:
        """u = log(1/gamma^{-1}(v)) for 0 < v <= gamma(x_max), bisected in u.

        Runs on log_gamma_u, so it holds where the pre-image lies far below
        the float64 range (the log scale sends v = 1e-3 to exp(-1000)).  The
        bracket doubles from max(2 u(x_max), 4) and raises ScaleDomainError
        beyond u = 1e15; bisection stops at a width of 1e-12 max(u, 1).
        """
        target = math.log(v)
        lo = math.log(1.0 / self.x_max)
        if self.log_gamma_u(lo) <= target:
            return lo
        hi = max(2.0 * lo, 4.0)
        while self.log_gamma_u(hi) > target:
            hi *= 2.0
            if hi > 1e15:
                raise ScaleDomainError(f"{self.name}: u-space inverse bracket exceeded 1e15")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.log_gamma_u(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(hi, 1.0):
                break
        return 0.5 * (lo + hi)

    # -- hooks ------------------------------------------------------------

    def _gamma(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dgamma(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverse_closed(self, v: float):
        return None

    # log gamma and psi as functions of u = log(1/r)

    def log_gamma_u(self, u):
        raise NotImplementedError

    def psi_u(self, u):
        raise NotImplementedError

    # -- the spec ---------------------------------------------------------

    def _set_x_max(self, x_max, default: float):
        """x_max, or the family default when None; ValueError unless x_max > 0."""
        self._x_max_default = float(default)
        self.x_max = float(default if x_max is None else x_max)
        if not self.x_max > 0:
            raise ValueError(f"x_max must be > 0, got {self.x_max}")

    def spec_string(self) -> str:
        """The spec that parse_scale_spec turns back into this scale (x_max if not the default)."""
        params = [(key, getattr(self, attr)) for key, attr in self._spec]
        if self.x_max != self._x_max_default:
            params.append(("x_max", self.x_max))
        return f"{self.family}:" + ",".join(f"{k}={_num(v)}" for k, v in params)

    @property
    def name(self) -> str:
        """The spec written as family(params), for messages and labels."""
        family, sep, params = self.spec_string().partition(":")
        return f"{family}({params})" if sep else family

    def __repr__(self):
        return f"<ScaleFunction {self.spec_string()}>"


class PowerScale(ScaleFunction):
    """gamma(r) = r^H for H in (0, 1]."""

    family = "power"
    _spec = (("H", "h"),)

    def __init__(self, h: float, x_max: float | None = None):
        if not 0 < h <= 1:
            raise ValueError("power scale needs H in (0, 1]")
        self.h = float(h)
        self._set_x_max(x_max, 1.0)
        self.x_conc = self.x_max

    def _gamma(self, a):
        return a**self.h

    def _dgamma(self, a):
        return self.h * a ** (self.h - 1.0)

    def _inverse_closed(self, v):
        return v ** (1.0 / self.h)

    def log_gamma_u(self, u):
        return -self.h * np.asarray(u, dtype=float)

    def psi_u(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.h)


class PowerLogScale(ScaleFunction):
    """gamma(r) = r^H log^beta(1/r); the Holder scale with log corrections.

    Monotonicity near 0 fails above exp(-beta/H) when beta > 0, so the
    default domain is capped accordingly.
    """

    family = "powerlog"
    _spec = (("H", "h"), ("beta", "beta"))

    def __init__(self, h: float, beta: float, x_max: float | None = None):
        if not 0 < h < 1:
            raise ValueError("powerlog scale needs H in (0, 1)")
        self.h = float(h)
        self.beta = float(beta)
        self._set_x_max(x_max, 0.5 if beta <= 0 else min(0.5, 0.8 * math.exp(-beta / h)))
        if self.beta > 0 and self.x_max >= math.exp(-self.beta / self.h):
            raise ValueError("x_max beyond the monotone range of r^H log^beta(1/r)")
        # gamma'' < 0 needs (H - H^2) L^2 > |beta(1-2H)| L + |beta^2 - beta|
        # with L = log(1/r); take the positive root, conservatively
        a = h - h * h
        b = abs(beta * (1.0 - 2.0 * h))
        c = abs(beta * beta - beta)
        l_star = (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a) if a > 0 else 1.0
        self.x_conc = min(0.5 * self.x_max, math.exp(-max(l_star, 1.0)))

    def _gamma(self, a):
        u = -np.log(a)
        return a**self.h * u**self.beta

    def _dgamma(self, a):
        u = -np.log(a)
        return a ** (self.h - 1.0) * u ** (self.beta - 1.0) * (self.h * u - self.beta)

    def log_gamma_u(self, u):
        u = np.asarray(u, dtype=float)
        return -self.h * u + self.beta * np.log(u)

    def psi_u(self, u):
        u = np.asarray(u, dtype=float)
        return self.h - self.beta / u


class LogScale(ScaleFunction):
    """gamma(r) = log^{-beta}(1/r); the logarithmic (roughest) scale."""

    family = "logscale"
    _spec = (("beta", "beta"),)

    def __init__(self, beta: float, x_max: float | None = None):
        if beta <= 0:
            raise ValueError("log scale needs beta > 0")
        self.beta = float(beta)
        self._set_x_max(x_max, 0.5)
        if self.x_max >= 1.0:
            raise ValueError("log scale degenerates at r >= 1")
        self.x_conc = min(self.x_max, 0.9 * math.exp(-(self.beta + 1.0)))

    def _gamma(self, a):
        return (-np.log(a)) ** (-self.beta)

    def _dgamma(self, a):
        u = -np.log(a)
        return self.beta * u ** (-self.beta - 1.0) / a

    def _inverse_closed(self, v):
        return math.exp(-v ** (-1.0 / self.beta))

    def log_gamma_u(self, u):
        return -self.beta * np.log(np.asarray(u, dtype=float))

    def psi_u(self, u):
        return self.beta / np.asarray(u, dtype=float)


class ExpLogScale(ScaleFunction):
    """gamma(r) = exp(-log^alpha(1/r)), alpha in (0, 1).

    Lies strictly between every Holder scale and the logarithmic scale;
    its lower index is zero.
    """

    family = "explog"
    _spec = (("alpha", "alpha"),)

    def __init__(self, alpha: float, x_max: float | None = None):
        if not 0 < alpha < 1:
            raise ValueError("explog scale needs alpha in (0, 1)")
        self.alpha = float(alpha)
        self._set_x_max(x_max, 0.5)
        if self.x_max >= 1.0:
            raise ValueError("explog scale degenerates at r >= 1")
        self.x_conc = min(self.x_max, 0.25)

    def _gamma(self, a):
        u = -np.log(a)
        return np.exp(-(u**self.alpha))

    def _dgamma(self, a):
        u = -np.log(a)
        return self._gamma(a) * self.alpha * u ** (self.alpha - 1.0) / a

    def _inverse_closed(self, v):
        try:
            return math.exp(-math.log(1.0 / v) ** (1.0 / self.alpha))
        except OverflowError:  # log(1/v)^(1/alpha) beyond the float range: exp(-inf) = 0
            return 0.0

    def log_gamma_u(self, u):
        u = np.asarray(u, dtype=float)
        return -(u**self.alpha)

    def psi_u(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * u ** (self.alpha - 1.0)


class LogCorrectedScale(ScaleFunction):
    """gamma(r) = log^{-beta}(1/r) * log^alpha(log(1/r)).

    The iterated-log correction of the logarithmic scale.  For beta = 1/2
    continuity of the process requires alpha < 0.
    """

    family = "logcorrected"
    _spec = (("beta", "beta"), ("alpha", "alpha"))

    def __init__(self, beta: float, alpha: float = 0.0, x_max: float | None = None):
        if beta < 0.5:
            raise ValueError("logcorrected scale needs beta >= 1/2")
        if beta == 0.5 and alpha >= 0:
            raise ValueError("beta = 1/2 needs alpha < 0 for a continuous process")
        self.beta = float(beta)
        self.alpha = float(alpha)
        default = 0.2
        if alpha > 0:
            default = min(default, 0.8 * math.exp(-math.exp(1.2 * alpha / beta)))
        self._set_x_max(x_max, default)
        if self.x_max >= math.exp(-1.0):
            raise ValueError("logcorrected scale needs x_max < 1/e")
        # monotone iff beta*log(log(1/r)) > alpha on the domain
        u0 = math.log(1.0 / self.x_max)
        if self.alpha > 0 and self.beta * math.log(u0) <= self.alpha:
            raise ValueError("x_max beyond the monotone range for these (beta, alpha)")
        self.x_conc = min(self.x_max, 0.5 * math.exp(-(self.beta + 2.0)))

    def _gamma(self, a):
        u = -np.log(a)
        return u ** (-self.beta) * np.log(u) ** self.alpha

    def _dgamma(self, a):
        u = -np.log(a)
        lu = np.log(u)
        return u ** (-self.beta - 1.0) * lu ** (self.alpha - 1.0) * (
            self.beta * lu - self.alpha
        ) / a

    def log_gamma_u(self, u):
        u = np.asarray(u, dtype=float)
        return -self.beta * np.log(u) + self.alpha * np.log(np.log(u))

    def psi_u(self, u):
        u = np.asarray(u, dtype=float)
        return self.beta / u - self.alpha / (u * np.log(u))


class CustomScale(ScaleFunction):
    """Table-backed scale, log-log linear between knots.

    ``knots`` is a sequence of (r, gamma) pairs, finite, positive and
    strictly increasing in both coordinates.  In u = log(1/r) the table is
    piecewise linear: log gamma interpolates the knots, with the first
    segment extended below the first knot so gamma(0+) = 0, and psi is the
    slope of the segment that holds r.  ``path`` is the CSV file the knots
    came from, if any, and makes the spec.
    """

    family = "custom"

    def __init__(self, knots, path=None):
        pts = [(float(r), float(g)) for r, g in knots]
        where = "" if path is None else f" {path}"
        for knot in pts:
            if not all(map(_is_number, knot)):
                raise ValueError(f"custom scale{where}: knot {knot} is not finite")
        pts.sort()
        if len(pts) < 2:
            raise ValueError("custom scale needs at least 2 knots")
        r = np.array([p[0] for p in pts])
        g = np.array([p[1] for p in pts])
        if np.any(r <= 0) or np.any(g <= 0):
            raise ValueError("custom knots must be positive")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(g) <= 0):
            raise ValueError("custom knots must be strictly increasing")
        self.knot_r = r
        self.knot_g = g
        self._log_r = np.log(r)
        self._log_g = np.log(g)
        self._slope = np.diff(self._log_g) / np.diff(self._log_r)
        self.x_max = float(r[-1])
        self.path = path
        self.x_conc = 0.0

    @classmethod
    def from_csv(cls, path):
        """Knots from a CSV file of (r, gamma) rows; ``#`` starts a comment row.

        A file that cannot be read, or a row without two numbers, raises
        ValueError.
        """
        knots = []
        try:
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    if not row or row[0].strip().startswith("#"):
                        continue
                    if len(row) < 2:
                        raise ValueError(f"custom scale {path}: row {row} needs r and gamma")
                    knots.append((float(row[0]), float(row[1])))
        except (OSError, csv.Error) as err:
            raise ValueError(f"custom scale {path}: {err}") from err
        return cls(knots, path=path)

    def _gamma(self, a):
        # -(-log a) is log a exactly
        return np.exp(self.log_gamma_u(-np.log(a)))

    def _dgamma(self, a):
        return self._gamma(a) * self.psi_u(-np.log(a)) / a

    def log_gamma_u(self, u):
        lr = -np.asarray(u, dtype=float)
        below = self._log_g[0] + self._slope[0] * (lr - self._log_r[0])
        return np.where(lr < self._log_r[0], below, np.interp(lr, self._log_r, self._log_g))

    def psi_u(self, u):
        # segment j holds r_j <= r < r_(j+1); x_max belongs to the last one
        j = np.searchsorted(self._log_r, -np.asarray(u, dtype=float), side="right") - 1
        return self._slope[np.clip(j, 0, len(self._slope) - 1)]

    def _inverse_closed(self, v):
        # the log-log interpolant is piecewise linear, hence exactly invertible
        lv = math.log(v)
        lg = self._log_g
        lr = self._log_r
        j = min(max(int(np.searchsorted(lg, lv)) - 1, 0), len(lg) - 2)
        return math.exp(lr[j] + (lv - lg[j]) / self._slope[j])

    def spec_string(self):
        return self.family if self.path is None else f"{self.family}:path={self.path}"


# ---------------------------------------------------------------------------


def phi_kernel(beta: float, r, out=None):
    """Radial potential kernel: r^-beta (beta>0), log(e/(r^1)) (beta=0), 1 (beta<0).

    ``out`` is None, for a new array, or r itself, a float64 array that
    then holds the kernel.
    """
    a, scalar = _as_array(r)
    if np.any(a <= 0):
        raise ValueError("phi_kernel needs r > 0; truncate at a resolution first")
    out = a.copy() if out is None else out
    if beta > 0:
        out **= -beta
    elif beta == 0:
        np.minimum(out, 1.0, out=out)
        np.divide(np.e, out, out=out)
        np.log(out, out=out)
    else:
        out[...] = 1.0
    return float(out) if scalar else out


# ---------------------------------------------------------------------------


def parse_scale_spec(spec: str) -> ScaleFunction:
    """Build a scale function from a spec string.

    Examples: ``power:H=0.5``, ``logscale:beta=1.0``, ``explog:alpha=0.3``,
    ``powerlog:H=0.3,beta=-1.0``, ``logcorrected:beta=1.0,alpha=0.5``,
    ``custom:path=knots.csv``.
    """
    if ":" not in spec:
        raise ValueError(f"malformed scale spec {spec!r}: expected family:params")
    family, _, rest = spec.partition(":")
    family = family.strip().lower()
    params = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"malformed scale parameter {item!r} in {spec!r}")
        params[key.strip().lower()] = val.strip()

    def fget(key, cast=float, default=None):
        if key not in params and default is None:
            raise ValueError(f"scale spec {spec!r} missing parameter {key!r}")
        val = cast(params.pop(key, default))
        if cast is float and not _is_number(val):
            raise ValueError(f"scale parameter {key}={val} in {spec!r} is not a finite number")
        return val

    def x_max():
        return fget("x_max") if "x_max" in params else None

    if family == "power":
        out = PowerScale(fget("h"), x_max())
    elif family == "powerlog":
        out = PowerLogScale(fget("h"), fget("beta"), x_max())
    elif family == "logscale":
        out = LogScale(fget("beta"), x_max())
    elif family == "explog":
        out = ExpLogScale(fget("alpha"), x_max())
    elif family == "logcorrected":
        out = LogCorrectedScale(fget("beta"), fget("alpha", default=0.0), x_max())
    elif family == "custom":
        out = CustomScale.from_csv(fget("path", cast=str))
    else:
        raise ValueError(f"unknown scale family {family!r}")
    if params:
        raise ValueError(f"unused parameters {sorted(params)} in scale spec {spec!r}")
    return out
