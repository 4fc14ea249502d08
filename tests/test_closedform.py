import math

import numpy as np
import pytest

from ruinlab import (
    ModelParams,
    NoSolutionError,
    classical_exact,
    lundberg_coefficient,
    riskfree_exact,
    riskfree_tail,
)

CLASSICAL = ModelParams(a=0.0, b=0.0, c=0.1, lam=0.09, m=1.0)
RISKFREE_LOW = ModelParams(a=0.02, b=0.0, c=0.02, lam=0.09, m=1.0)   # a < lam
RISKFREE_HIGH = ModelParams(a=0.1, b=0.0, c=0.02, lam=0.09, m=1.0)   # a > lam


class TestClassicalExact:
    def test_landmarks(self):
        sol = classical_exact(CLASSICAL)
        assert sol.C0 == pytest.approx(0.1, abs=1e-12)
        assert sol.dphi_at_zero == pytest.approx(0.09, abs=1e-12)
        assert lundberg_coefficient(CLASSICAL) == pytest.approx(0.1, rel=1e-12)

    def test_formula(self):
        sol = classical_exact(CLASSICAL)
        us = np.linspace(0.0, 80.0, 41)
        phi, dphi = sol.evaluate(us)
        exact = 1.0 - 0.9 * np.exp(-0.1 * us)
        assert np.max(np.abs(phi - exact)) < 1e-14
        assert np.max(np.abs(dphi - 0.09 * np.exp(-0.1 * us))) < 1e-14

    def test_limits_and_shape(self):
        sol = classical_exact(CLASSICAL)
        us = np.linspace(0.0, 200.0, 101)
        phi, dphi = sol.evaluate(us)
        assert np.all(np.diff(phi) >= 0.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert sol.evaluate(200.0)[0] == pytest.approx(1.0, abs=1e-8)

    def test_nonpositive_loading_refused(self):
        with pytest.raises(NoSolutionError):
            classical_exact(ModelParams(a=0.0, b=0.0, c=0.05, lam=0.09, m=1.0))
        with pytest.raises(NoSolutionError):
            classical_exact(ModelParams(a=0.0, b=0.0, c=0.09, lam=0.09, m=1.0))

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            classical_exact(RISKFREE_HIGH)


class TestRiskFreeExact:
    def test_caption_values(self):
        sol = riskfree_exact(RISKFREE_LOW)
        assert sol.C0 == pytest.approx(0.00704, rel=1e-3)
        assert sol.dphi_at_zero == pytest.approx(0.0317, rel=1e-3)
        sol = riskfree_exact(RISKFREE_HIGH)
        assert sol.C0 == pytest.approx(0.2046, rel=1e-3)
        assert sol.dphi_at_zero == pytest.approx(0.9207, rel=1e-3)

    def test_origin_relation_exact(self):
        # c * phi'(0) = lam * phi(0) is built into the normalization
        for p in (RISKFREE_LOW, RISKFREE_HIGH):
            sol = riskfree_exact(p)
            assert p.c * sol.dphi_at_zero == pytest.approx(p.lam * sol.C0, rel=1e-13)

    def test_monotone_bounded_limits_to_one(self):
        for p in (RISKFREE_LOW, RISKFREE_HIGH):
            sol = riskfree_exact(p)
            us = np.linspace(0.0, 100.0, 201)
            phi, dphi = sol.evaluate(us)
            assert np.all(np.diff(phi) >= 0.0)
            assert np.all((phi >= 0.0) & (phi <= 1.0))
            assert phi[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.all(dphi[np.isfinite(dphi)] >= 0.0)

    def test_no_premium_exponential_case(self):
        # a = lam collapses the solution to 1 - exp(-u/m)
        p = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=1.0)
        sol = riskfree_exact(p)
        assert sol.C0 == 0.0
        assert sol.dphi_at_zero == pytest.approx(1.0, rel=1e-12)
        us = np.linspace(0.0, 30.0, 61)
        phi, _ = sol.evaluate(us)
        assert np.max(np.abs(phi - (1.0 - np.exp(-us)))) < 1e-12

    def test_no_premium_large_shape(self):
        # without premiums phi(u) = P(lam/a, u/m), here with Gamma(150) ~ 3.8e260;
        # the slope's (u + c/a)^(p-1) still overflows beyond u ~ 117
        from scipy.special import gammainc

        p = ModelParams(a=0.001, b=0.0, c=0.0, lam=0.15, m=1.0)
        us = np.linspace(0.0, 50.0, 101)
        phi, _ = riskfree_exact(p).evaluate(us)
        assert np.max(np.abs(phi - gammainc(150.0, us))) < 1e-12

    def test_no_premium_slope_classification(self):
        slow = riskfree_exact(ModelParams(a=0.02, b=0.0, c=0.0, lam=0.09, m=1.0))
        assert slow.C0 == 0.0 and slow.dphi_at_zero == 0.0
        steep = riskfree_exact(ModelParams(a=0.1, b=0.0, c=0.0, lam=0.09, m=1.0))
        assert steep.C0 == 0.0 and steep.dphi_at_zero == math.inf
        # the unbounded slope is still integrable: phi rises immediately
        assert steep.evaluate(0.5)[0] > 0.0

    def test_rejects_wrong_regime(self):
        with pytest.raises(ValueError):
            riskfree_exact(CLASSICAL)
        with pytest.raises(ValueError):
            riskfree_exact(ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0))


class TestRiskFreeTail:
    def test_ratio_tends_to_one(self):
        # beyond u ~ 30 both 1 - phi values underflow double resolution,
        # so the agreement is checked where it is measurable
        sol = riskfree_exact(RISKFREE_HIGH)
        ratios = {}
        for u in (10.0, 20.0, 28.0):
            exact = 1.0 - sol.evaluate(u)[0]
            approx = 1.0 - float(riskfree_tail(RISKFREE_HIGH, u))
            ratios[u] = exact / approx
        assert ratios[20.0] == pytest.approx(1.0, abs=0.05)
        assert abs(ratios[28.0] - 1.0) < abs(ratios[10.0] - 1.0)

    def test_exact_for_exponential_case(self):
        p = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=1.0)
        us = np.linspace(0.5, 40.0, 25)
        tail = riskfree_tail(p, us)
        assert np.max(np.abs(tail - (1.0 - np.exp(-us)))) < 1e-12
