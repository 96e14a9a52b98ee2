from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import riemann_integral_I

import gpfractal
from gpfractal.conditions import (
    _gauss_legendre,
    IntegralError,
    check_strong_condition,
    check_weak_condition,
    f_gamma,
    integral_I,
    psi_sqrtlog_criterion,
)
from gpfractal.scale import (
    ExpLogScale,
    LogCorrectedScale,
    LogScale,
    PowerLogScale,
    PowerScale,
)


class TestIntegralI:
    def test_power_ratio_constant_and_closed_form(self):
        # I(x)/gamma(x) for r^H equals int_{log2}^inf e^{-Hz} z^{-1/2} dz
        # = sqrt(pi/H) erfc(sqrt(H log 2))
        from scipy.special import erfc

        for h in (0.3, 0.5, 0.8):
            f = PowerScale(h)
            closed = math.sqrt(math.pi / h) * erfc(math.sqrt(h * math.log(2.0)))
            ratios = [integral_I(f, x, tol=1e-8) / f.gamma(x) for x in (1e-3, 1e-6, 1e-9)]
            for r in ratios:
                assert r == pytest.approx(closed, rel=1e-6)

    def test_power_homogeneity(self):
        f = PowerScale(0.4)
        i1 = integral_I(f, 1e-3)
        i2 = integral_I(f, 1e-5)
        assert i1 / i2 == pytest.approx((1e-3 / 1e-5) ** 0.4, rel=1e-5)

    def test_logscale_sqrtlog_growth(self):
        # the ratio grows like sqrt(log(1/x)) in the logarithmic scale
        f = LogScale(1.0)
        xs = [1e-2, 1e-4, 1e-8]
        ratios = [integral_I(f, x) / f.gamma(x) for x in xs]
        preds = [math.sqrt(math.log(1.0 / x)) for x in xs]
        scaled = [r / p for r, p in zip(ratios, preds)]
        assert max(scaled) / min(scaled) < 1.6
        assert ratios[-1] > ratios[0]

    def test_matches_riemann_oracle(self, registry, rng):
        pairs = []
        for f in registry:
            xs = f.x_max * 10.0 ** rng.uniform(-6, -1, size=4)
            pairs.extend((f, float(x)) for x in xs)
        assert len(pairs) >= 20
        for f, x in pairs:
            fast = integral_I(f, x, tol=1e-7)
            slow = riemann_integral_I(f, x)
            assert fast == pytest.approx(slow, rel=1e-4), (f.name, x)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            integral_I(PowerScale(0.5), 0.0)


class TestStrongCondition:
    def test_power_satisfied(self):
        v = check_strong_condition(PowerScale(0.4))
        assert v.verdict == "Satisfied"

    def test_powerlog_satisfied_both_signs(self):
        for beta in (1.0, -1.0):
            v = check_strong_condition(PowerLogScale(0.3, beta))
            assert v.verdict == "Satisfied", beta

    def test_explog_small_alpha_violated_via_override(self):
        v = check_strong_condition(ExpLogScale(0.3))
        assert v.verdict == "Violated"
        assert v.override == "psi-sqrtlog"

    def test_logscale_violated(self):
        v = check_strong_condition(LogScale(1.0))
        assert v.verdict == "Violated"

    def test_explog_large_alpha_flagged_paper_open(self):
        v = check_strong_condition(ExpLogScale(0.7))
        assert v.paper_open


class TestWeakCondition:
    def test_power_satisfied(self):
        assert check_weak_condition(PowerScale(0.4), eps=0.1).verdict == "Satisfied"

    def test_explog_small_alpha_satisfied(self):
        assert check_weak_condition(ExpLogScale(0.3), eps=0.1).verdict == "Satisfied"

    def test_logscale_violated(self):
        v = check_weak_condition(LogScale(1.0), eps=0.1)
        assert v.verdict == "Violated"
        assert v.override == "asymptotic-surrogate"

    def test_strong_implies_weak(self, registry):
        for f in registry:
            s = check_strong_condition(f)
            w = check_weak_condition(f, eps=0.1)
            assert not (s.verdict == "Satisfied" and w.verdict == "Violated"), f.name


class TestPsiSqrtLog:
    def test_registry_pattern(self, registry):
        # {Power .4, PL(.3,1), PL(.3,-1), ExpLog .3, ExpLog .7, LogScale 1}
        expected = ["Violated", "Violated", "Violated", "Satisfied", "Violated", "Satisfied"]
        got = [psi_sqrtlog_criterion(f).verdict for f in registry]
        assert got == expected

    def test_logcorrected_holds(self):
        v = psi_sqrtlog_criterion(LogCorrectedScale(1.0, 0.5))
        assert v.verdict == "Satisfied"

    def test_cross_consistency_with_strong(self, registry):
        # Prop.-4.1 direction: criterion Satisfied forces strong Violated
        for f in registry + [LogCorrectedScale(1.0, 0.5)]:
            if psi_sqrtlog_criterion(f).verdict == "Satisfied":
                assert check_strong_condition(f).verdict == "Violated", f.name


class TestFGamma:
    def test_power_linear(self):
        # homogeneity collapses f(r) to (sqrt(log 2) + c_H) * r
        f = PowerScale(0.5)
        c_h = integral_I(f, 1e-4) / f.gamma(1e-4)
        for r in (1e-3, 1e-2):
            expected = r * math.sqrt(math.log(2.0)) + c_h * r
            assert f_gamma(f, r) == pytest.approx(expected, rel=1e-4)

    def test_ratio_bounded_under_strong_condition(self):
        f = PowerScale(0.5)
        vals = [f_gamma(f, r) / r for r in (1e-2, 1e-4, 1e-6)]
        assert max(vals) / min(vals) < 1.5

    def test_logscale_exponent(self):
        # f(r) / r^{1 - 1/(2 beta)} stays bounded in the log scale
        f = LogScale(1.0)
        vals = [f_gamma(f, r) / r**0.5 for r in (1e-2, 1e-3, 1e-4)]
        assert max(vals) / min(vals) < 3.0

    def test_domain_guard(self):
        f = PowerScale(0.5)
        with pytest.raises(ValueError):
            f_gamma(f, 2.0)


class TestNonConvergence:
    def test_nondecaying_tail_raises(self):
        # a table scale that is nearly flat decays too slowly against
        # z^{-1/2}: the tail loop must give up, not spin
        from gpfractal.scale import CustomScale

        knots = [(r, 0.3 + 0.2 * r) for r in np.geomspace(1e-12, 1.0, 50)]
        f = CustomScale(knots)
        with pytest.raises(IntegralError):
            integral_I(f, 0.5, tol=1e-8)


class TestGaussLegendreCache:
    def test_no_rule_built_at_import(self):
        code = (
            "import gpfractal.cli\n"
            "from gpfractal.conditions import _gauss_legendre\n"
            "assert _gauss_legendre.cache_info().currsize == 0\n"
        )
        src = str(Path(gpfractal.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()

    def test_later_calls_never_rebuild_a_rule(self, monkeypatch):
        families = [PowerScale(0.4), LogScale(1.0)]

        def results():
            return [
                (check_strong_condition(f).ratios, check_weak_condition(f).ratios,
                 f_gamma(f, 1e-3))
                for f in families
            ]

        before = results()

        def refuse(order):
            raise AssertionError(f"leggauss({order}) called after the warm-up")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert results() == before

    def test_rules_are_read_only(self):
        for order in (16, 32):
            x, w = _gauss_legendre(order)
            assert not x.flags.writeable and not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
