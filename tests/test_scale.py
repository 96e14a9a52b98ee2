from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfractal.scale import (
    CustomScale,
    ExpLogScale,
    LogCorrectedScale,
    LogScale,
    PowerLogScale,
    PowerScale,
    ScaleDomainError,
    parse_scale_spec,
    phi_kernel,
)


class TestEval:
    def test_power_sqrt(self):
        f = PowerScale(0.5)
        assert f.gamma(0.25) == pytest.approx(0.5)

    def test_gamma_at_zero(self):
        for f in (PowerScale(0.3), LogScale(1.0), ExpLogScale(0.5)):
            assert f.gamma(0.0) == 0.0

    def test_logscale_value(self):
        f = LogScale(1.0)
        assert f.gamma(math.exp(-2.0)) == pytest.approx(0.5)

    def test_vanishing_at_origin(self, registry):
        # gamma(0+) = 0 for every family, but the slow scales approach it
        # slower than any power, so each family gets a witness point its
        # own decay rate can actually reach within float64
        for f in registry:
            if isinstance(f, (PowerScale, PowerLogScale)):
                witness, bound = 1e-12, 1e-2
            elif isinstance(f, ExpLogScale):
                witness, bound = 1e-300, 1e-3
            else:
                witness, bound = 1e-300, 2e-3
            assert f.gamma(witness) < bound, f.name
            assert f.gamma(witness) < f.gamma(1e-9) < f.gamma(1e-3), f.name

    def test_domain_errors(self):
        f = LogScale(1.0)
        with pytest.raises(ScaleDomainError):
            f.gamma(0.9)
        with pytest.raises(ScaleDomainError):
            f.gamma(-0.1)


def _every_family(registry):
    """The registry plus the families it leaves out."""
    knots = [(1e-3, 0.02), (1e-2, 0.09), (0.1, 0.3), (0.5, 0.8)]
    return registry + [LogCorrectedScale(1.0, 0.5), CustomScale(knots)]


class TestOnePassEvaluation:
    """gamma checks its domain with one min/max pair and hands an array
    of positive arguments to _gamma whole."""

    def test_nan_raises(self, registry):
        for f in _every_family(registry):
            for r in (math.nan, np.array([0.0, f.x_max / 3, math.nan, f.x_max])):
                with pytest.raises(ScaleDomainError):
                    f.gamma(r)
                with pytest.raises(ScaleDomainError):
                    f.dgamma(r)

    def test_positive_array_matches_masked_path(self, registry, rng):
        for f in _every_family(registry):
            a = np.sort(rng.uniform(1e-9, 1.0, 257)) * f.x_max
            assert np.array_equal(f.gamma(a), f.gamma(np.r_[0.0, a])[1:]), f.name
            square = a[:256].reshape(16, 16)
            assert np.array_equal(f.gamma(square), f.gamma(np.r_[0.0, a[:256]])[1:]
                                  .reshape(16, 16)), f.name
            # 0-d inputs keep the masked path: a 0-d ** can round differently
            for x in a[::16]:
                assert f.gamma(x) == f.gamma(np.r_[0.0, x])[1], (f.name, x)
                assert f.gamma(np.float64(x)) == f.gamma(np.r_[0.0, x])[1], (f.name, x)

    def test_empty_array(self, registry):
        for f in _every_family(registry):
            assert f.gamma(np.array([])).shape == (0,)
            assert f.dgamma(np.array([])).shape == (0,)


class TestInverse:
    def test_power(self):
        assert PowerScale(0.5).inverse(0.5) == pytest.approx(0.25)

    def test_logscale(self):
        assert LogScale(1.0).inverse(0.5) == pytest.approx(math.exp(-2.0))

    def test_explog_hand_computed(self):
        # gamma(x) = exp(-log^0.5(1/x)) = e^-2 at log(1/x) = 4
        f = ExpLogScale(0.5)
        assert f.inverse(math.exp(-2.0)) == pytest.approx(math.exp(-4.0))
        assert f.gamma(math.exp(-4.0)) == pytest.approx(math.exp(-2.0))

    def test_above_range_rejected(self):
        with pytest.raises(ScaleDomainError):
            PowerScale(0.5).inverse(1.5)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_round_trip_power(self, v):
        f = PowerScale(0.4)
        assert abs(f.gamma(f.inverse(v)) - v) <= 1e-9

    def test_round_trip_all_families(self, registry, rng):
        # draw v = gamma(r_true) so the pre-image is representable; the
        # slow scales map values below gamma(1e-300) to underflow
        for f in registry:
            vmax = f.gamma(f.x_max)
            r_true = f.x_max * np.exp(rng.uniform(np.log(1e-10), 0.0, size=200))
            for v in f.gamma(r_true):
                r = f.inverse(v)
                assert abs(f.gamma(r) - v) <= 1e-9 * max(1.0, vmax), f.name

    def test_round_trip_down_to_1e300(self, registry, rng):
        # pre-images log-uniform over 300 decades below x_max: the families
        # without a closed form invert by bisection in u = log(1/r)
        for f in _every_family(registry):
            r_true = f.x_max * np.exp(rng.uniform(np.log(1e-300), 0.0, size=200))
            for v in f.gamma(r_true):
                assert f.gamma(f.inverse(v)) == pytest.approx(v, rel=1e-9), f.name

    def test_below_smallest_double_is_zero(self):
        # gamma(5e-324) = 0.0015 for this scale, so 1e-6 has no float pre-image
        f = LogCorrectedScale(1.0, 0.5)
        assert f.inverse(1e-6) == 0.0
        assert f.log_inverse(1e-6) > 1e5
        # a closed form whose intermediate power overflows: log(2^100)^200
        assert ExpLogScale(0.005).inverse(2.0**-100) == 0.0


class TestPsi:
    def test_power_constant(self):
        f = PowerScale(0.3)
        for r in np.geomspace(1e-10, 1.0, 25):
            assert abs(f.psi(r) - 0.3) <= 1e-12

    def test_logscale_hand_value(self):
        assert LogScale(1.0).psi(math.exp(-2.0)) == pytest.approx(0.5)

    def test_explog_hand_value(self):
        # psi(r) = alpha log^{alpha-1}(1/r) = 0.5 * 4^{-0.5} at r = e^-4
        assert ExpLogScale(0.5).psi(math.exp(-4.0)) == pytest.approx(0.25)

    def test_matches_finite_difference(self, registry):
        for f in registry:
            r = f.x_max / 7.0
            h = r * 1e-7
            fd = (f.gamma(r + h) - f.gamma(r - h)) / (2 * h)
            assert f.dgamma(r) == pytest.approx(fd, rel=1e-5), f.name


class TestMonotonicityAndConcavity:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-12, max_value=0.5),
        st.floats(min_value=1.0 + 1e-6, max_value=2.0),
    )
    def test_increasing_pairs(self, r1, factor):
        # strictness needs meaningfully separated arguments: adjacent
        # floats can collide in the rounded output of any increasing map
        for f in (PowerScale(0.5), LogScale(1.0), ExpLogScale(0.3)):
            r2 = min(r1 * factor, f.x_max)
            if r2 >= r1 * (1.0 + 1e-7):
                assert f.gamma(r1) < f.gamma(r2)

    def test_increasing_dense(self, registry, rng):
        for f in registry:
            r = np.sort(rng.uniform(1e-12, f.x_max, size=1000))
            g = f.gamma(r)
            assert np.all(np.diff(g) > 0), f.name

    def test_second_differences_nonpositive(self, concave_registry):
        for f in concave_registry:
            hi = f.x_conc
            r = np.linspace(hi / 300.0, hi, 200)
            g = f.gamma(r)
            d2 = np.diff(g, 2)
            assert np.all(d2 <= 1e-12), f.name

    def test_subadditivity(self, concave_registry, rng):
        for f in concave_registry:
            s = rng.uniform(0, f.x_conc / 2, size=1000)
            t = rng.uniform(0, f.x_conc / 2, size=1000)
            lhs = f.gamma(s + t)
            rhs = f.gamma(s) + f.gamma(t)
            assert np.all(lhs <= rhs + 1e-12), f.name


class TestPhiKernel:
    def test_positive_beta(self):
        assert phi_kernel(2.0, 0.5) == pytest.approx(4.0)

    def test_negative_beta(self):
        assert phi_kernel(-1.0, 0.01) == 1.0

    def test_zero_beta(self):
        assert phi_kernel(0.0, 1.0) == pytest.approx(1.0)
        assert phi_kernel(0.0, 2.0) == pytest.approx(1.0)  # r ^ 1 = 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            phi_kernel(1.0, 0.0)

    def test_monotone(self, rng):
        r = np.sort(rng.uniform(1e-6, 10.0, size=100))
        v = phi_kernel(1.3, r)
        assert np.all(np.diff(v) < 0)


class TestLowerIndexReport:
    """psi tabulated on a deep decreasing grid, as the lower index
    ind(gamma) = liminf psi and the limit of psi(r) sqrt(log(1/r)) read it."""

    @staticmethod
    def _tail(f, grid):
        r = np.sort(grid)[::-1]
        psi = np.array([f.psi(x) for x in r])
        return psi[r <= r[-1] * 10.0], psi[-1] * math.sqrt(math.log(1.0 / r[-1]))

    def test_logscale_psi_sqrtlog_goes_to_zero(self):
        last_decade, limit = self._tail(LogScale(1.0), np.geomspace(1e-2, 1e-200, 30))
        assert np.min(last_decade) == pytest.approx(0.0, abs=1e-2)
        first = LogScale(1.0).psi(1e-2) * math.sqrt(math.log(1e2))
        assert limit < first / 5.0

    def test_explog_dichotomy(self):
        grid = np.geomspace(1e-2, 1e-250, 40)
        _, small = self._tail(ExpLogScale(0.3), grid)
        _, large = self._tail(ExpLogScale(0.7), grid)
        head_small = ExpLogScale(0.3).psi(1e-2) * math.sqrt(math.log(1e2))
        head_large = ExpLogScale(0.7).psi(1e-2) * math.sqrt(math.log(1e2))
        assert small < head_small
        assert large > head_large


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec, cls",
        [
            ("power:H=0.5", PowerScale),
            ("powerlog:H=0.3,beta=-1.0", PowerLogScale),
            ("logscale:beta=1.0", LogScale),
            ("explog:alpha=0.3", ExpLogScale),
            ("logcorrected:beta=1.0,alpha=0.5", LogCorrectedScale),
        ],
    )
    def test_parse(self, spec, cls):
        f = parse_scale_spec(spec)
        assert isinstance(f, cls)
        assert parse_scale_spec(f.spec_string()).spec_string() == f.spec_string()

    @pytest.mark.parametrize("spec", [
        "power:H=0.5", "power:H=0.123456789", "power:H=0.5,x_max=0.3",
        "powerlog:H=0.3,beta=-1.0", "powerlog:H=0.123456789,beta=1.0",
        "powerlog:H=0.3,beta=1.0,x_max=0.01", "logscale:beta=1.0", "logscale:beta=1.0,x_max=0.3",
        "explog:alpha=0.3", "explog:alpha=0.3,x_max=0.25",
        "logcorrected:beta=1.0,alpha=0.5", "logcorrected:beta=1.0,alpha=0.5,x_max=0.1",
    ])
    def test_spec_rebuilds_the_scale(self, spec):
        # the report's spec gives back the family, its parameters and x_max
        f = parse_scale_spec(spec)
        g = parse_scale_spec(f.spec_string())
        assert type(g) is type(f)
        assert vars(g) == vars(f)
        assert f.name == f.spec_string().replace(":", "(", 1) + ")"

    def test_spec_keeps_its_short_form(self):
        assert PowerScale(0.5).spec_string() == "power:H=0.5"
        assert PowerScale(0.123456789).spec_string() == "power:H=0.123456789"
        assert LogScale(1.0, x_max=0.3).spec_string() == "logscale:beta=1,x_max=0.3"
        assert PowerScale(0.5).name == "power(H=0.5)"

    def test_custom_spec_rebuilds_the_scale(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("1e-6,0.004\n0.001,0.06\n0.5,0.75\n")
        f = parse_scale_spec(f"custom:path={path}")
        assert f.spec_string() == f"custom:path={path}"
        g = parse_scale_spec(f.spec_string())
        assert np.array_equal(g.knot_r, f.knot_r) and np.array_equal(g.knot_g, f.knot_g)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_scale_spec("weibull:k=2")

    def test_rejects_leftover_params(self):
        with pytest.raises(ValueError):
            parse_scale_spec("power:H=0.5,junk=1")

    def test_custom_csv(self, tmp_path):
        knots = np.geomspace(1e-6, 1.0, 40)
        path = tmp_path / "knots.csv"
        path.write_text("\n".join(f"{r},{r**0.4}" for r in knots))
        f = parse_scale_spec(f"custom:path={path}")
        assert isinstance(f, CustomScale)
        # log-log linear interpolation is exact for pure powers
        assert f.gamma(3e-3) == pytest.approx((3e-3) ** 0.4, rel=1e-9)
        assert f.inverse(0.25) == pytest.approx(0.25 ** (1 / 0.4), rel=1e-9)
        assert f.psi(1e-3) == pytest.approx(0.4, rel=1e-3)


_FAMILY_PARAMS = {"power": {"H": 0.5}, "powerlog": {"H": 0.3, "beta": 1.0},
                  "logscale": {"beta": 1.0}, "explog": {"alpha": 0.3},
                  "logcorrected": {"beta": 1.0, "alpha": 0.5}}


class TestSpecValues:
    @pytest.mark.parametrize("family, key, value", [
        (family, key, value) for family, params in _FAMILY_PARAMS.items()
        for key in [*params, "x_max"] for value in ("nan", "inf", "-inf")
    ] + [(family, "x_max", value) for family in _FAMILY_PARAMS for value in ("0", "-1")])
    def test_rejects_non_finite_values_and_x_max_at_most_0(self, family, key, value):
        params = {**_FAMILY_PARAMS[family], key: value}
        spec = f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())
        with pytest.raises(ValueError):
            parse_scale_spec(spec)


class TestCustomGuards:
    @pytest.mark.parametrize(
        "name", ["missing.csv", ".", "one_column.csv", "nan_knot.csv", "inf_knot.csv"])
    def test_unreadable_knot_files_raise_value_error(self, tmp_path, name):
        (tmp_path / "one_column.csv").write_text("0.001,0.01\n0.5\n")
        (tmp_path / "nan_knot.csv").write_text("nan,0.5\n0.001,0.06\n0.5,0.75\n")
        (tmp_path / "inf_knot.csv").write_text("1e-6,0.004\n0.001,0.06\n0.5,0.75\ninf,0.8\n")
        with pytest.raises(ValueError, match="custom scale"):
            CustomScale.from_csv(tmp_path / name)

    def test_psi_is_the_segment_slope(self):
        f = CustomScale([(1e-6, 1e-3), (1e-3, 1e-1), (1.0, 1.0)])
        s0 = (math.log(1e-1) - math.log(1e-3)) / (math.log(1e-3) - math.log(1e-6))
        s1 = (math.log(1.0) - math.log(1e-1)) / (math.log(1.0) - math.log(1e-3))
        assert s0 == pytest.approx(2 / 3) and s1 == pytest.approx(1 / 3)
        # below the first knot, inside each segment, at the inner knot, at x_max
        for r, slope in ((1e-9, s0), (1e-4, s0), (1e-3, s1), (0.03, s1), (1.0, s1)):
            assert f.psi(r) == pytest.approx(slope, rel=1e-15, abs=0), r
            assert f.dgamma(r) == pytest.approx(f.gamma(r) * slope / r, rel=1e-15, abs=0), r

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            CustomScale([(0.1, 0.5), (0.2, 0.4)])


class TestPowerTable:
    """A knot table of r^0.4 is power:H=0.4: its u-space forms, gamma,
    condition verdicts and Volterra covariance agree."""

    @pytest.fixture(scope="class")
    def table(self):
        # 40 log-spaced r in [1e-12, 0.5]
        return CustomScale([(r, r**0.4) for r in (1e-12 * 5e11 ** (i / 39) for i in range(40))])

    def test_u_space_forms(self, table):
        u = np.geomspace(0.7, 1e4, 2001)
        assert np.max(np.abs(table.psi_u(u) - 0.4)) <= 1e-14
        assert np.all(np.abs(table.log_gamma_u(u) + 0.4 * u) <= 1e-14 * u)

    def test_gamma_is_the_log_log_interpolation(self, table):
        r = np.geomspace(1e-14, 0.5, 10_000)
        lr, log_r, log_g = np.log(r), np.log(table.knot_r), np.log(table.knot_g)
        slope0 = (log_g[1] - log_g[0]) / (log_r[1] - log_r[0])
        below = log_g[0] + slope0 * (lr - log_r[0])
        want = np.exp(np.where(lr < log_r[0], below, np.interp(lr, log_r, log_g)))
        assert np.array_equal(table.gamma(r), want)

    def test_verdicts_match_power(self, table):
        from gpfractal.conditions import (
            check_strong_condition,
            check_weak_condition,
            psi_sqrtlog_criterion,
        )

        power = PowerScale(0.4)
        for check in (check_strong_condition, check_weak_condition, psi_sqrtlog_criterion):
            assert check(table).verdict == check(power).verdict, check.__name__

    def test_volterra_covariance_matches_power(self, table):
        from gpfractal.gp_sim import cov_volterra

        grid = np.linspace(0.5 / 64, 0.5, 64)
        want = cov_volterra(PowerScale(0.4), grid).R
        got = cov_volterra(table, grid).R
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
