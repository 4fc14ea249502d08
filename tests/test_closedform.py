import math
import warnings

import numpy as np
import pytest

from ruinlab import (
    PRESETS,
    ModelParams,
    NoSolutionError,
    classical_exact,
    lundberg_coefficient,
    riskfree_exact,
    riskfree_tail,
    solve,
)
from ruinlab import closedform

CLASSICAL = ModelParams(a=0.0, b=0.0, c=0.1, lam=0.09, m=1.0)
RISKFREE_LOW = ModelParams(a=0.02, b=0.0, c=0.02, lam=0.09, m=1.0)   # a < lam
RISKFREE_HIGH = ModelParams(a=0.1, b=0.0, c=0.02, lam=0.09, m=1.0)   # a > lam
RISKFREE_PRESETS = ["fig3-I", "fig3-II", "fig4-I", "fig4-II"]
# (a, c, lam) with m = 1 where m^p Gamma(p, z0) overflows, p = lam/a = 200..2500
OVERFLOW_POINTS = [(0.001, 0.0, 0.2), (0.0005, 0.0, 0.2), (0.001, 0.01, 0.5), (0.0002, 0.05, 0.5)]


def _log_norm_reference(a, c, lam, m):
    """(log I_c(u) as a function, log norm) from scipy gammaincc/gammaln."""
    from scipy.special import gammaincc, gammaln

    p = lam / a
    z0 = c / (a * m)

    def log_ic(u):
        with np.errstate(divide="ignore"):  # Q underflows to 0 far out: phi = 1
            return p * math.log(m) + z0 + gammaln(p) + np.log(gammaincc(p, u / m + z0))

    log_q = math.log(a / lam) + p * math.log(c / a) if c > 0.0 else -math.inf
    return log_ic, float(np.logaddexp(log_ic(0.0), log_q))


class TestClassicalExact:
    def test_landmarks(self):
        sol = classical_exact(CLASSICAL)
        assert sol.C0 == pytest.approx(0.1, abs=1e-12)
        assert sol.diagnostics["dphi_at_zero"] == pytest.approx(0.09, abs=1e-12)
        assert lundberg_coefficient(CLASSICAL) == pytest.approx(0.1, rel=1e-12)

    def test_formula(self):
        sol = classical_exact(CLASSICAL)
        us = np.linspace(0.0, 80.0, 41)
        phi, dphi, _ = sol.evaluate(us)
        exact = 1.0 - 0.9 * np.exp(-0.1 * us)
        assert np.max(np.abs(phi - exact)) < 1e-14
        assert np.max(np.abs(dphi - 0.09 * np.exp(-0.1 * us))) < 1e-14

    def test_limits_and_shape(self):
        sol = classical_exact(CLASSICAL)
        us = np.linspace(0.0, 200.0, 101)
        phi, dphi, _ = sol.evaluate(us)
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
        assert sol.diagnostics["dphi_at_zero"] == pytest.approx(0.0317, rel=1e-3)
        sol = riskfree_exact(RISKFREE_HIGH)
        assert sol.C0 == pytest.approx(0.2046, rel=1e-3)
        assert sol.diagnostics["dphi_at_zero"] == pytest.approx(0.9207, rel=1e-3)

    def test_origin_relation_exact(self):
        # c * phi'(0) = lam * phi(0) is built into the normalization
        for p in (RISKFREE_LOW, RISKFREE_HIGH):
            sol = riskfree_exact(p)
            assert p.c * sol.diagnostics["dphi_at_zero"] == pytest.approx(p.lam * sol.C0, rel=1e-13)

    def test_monotone_bounded_limits_to_one(self):
        for p in (RISKFREE_LOW, RISKFREE_HIGH):
            sol = riskfree_exact(p)
            us = np.linspace(0.0, 100.0, 201)
            phi, dphi, _ = sol.evaluate(us)
            assert np.all(np.diff(phi) >= 0.0)
            assert np.all((phi >= 0.0) & (phi <= 1.0))
            assert phi[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.all(dphi[np.isfinite(dphi)] >= 0.0)

    def test_no_premium_exponential_case(self):
        # a = lam collapses the solution to 1 - exp(-u/m)
        p = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=1.0)
        sol = riskfree_exact(p)
        assert sol.C0 == 0.0
        assert sol.diagnostics["dphi_at_zero"] == pytest.approx(1.0, rel=1e-12)
        us = np.linspace(0.0, 30.0, 61)
        phi, _, _ = sol.evaluate(us)
        assert np.max(np.abs(phi - (1.0 - np.exp(-us)))) < 1e-12

    def test_no_premium_large_shape(self):
        # without premiums phi(u) = P(lam/a, u/m), here with Gamma(150) ~ 3.8e260
        from scipy.special import gammainc

        p = ModelParams(a=0.001, b=0.0, c=0.0, lam=0.15, m=1.0)
        us = np.linspace(0.0, 50.0, 101)
        phi, _, _ = riskfree_exact(p).evaluate(us)
        assert np.max(np.abs(phi - gammainc(150.0, us))) < 1e-12

    def test_no_premium_large_shape_slope(self):
        # phi' = u^(p-1) e^(-u) / Gamma(p); u^149 alone overflows from u ~ 117
        from scipy.special import gammaln

        p = ModelParams(a=0.001, b=0.0, c=0.0, lam=0.15, m=1.0)
        us = np.array([100.0, 118.0, 200.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, dphi, _ = riskfree_exact(p).evaluate(us)
        exact = np.exp(149.0 * np.log(us) - us - gammaln(150.0))
        assert np.all(np.isfinite(dphi))
        assert np.max(np.abs(dphi / exact - 1.0)) <= 1e-12

    def test_no_premium_slope_classification(self):
        slow = riskfree_exact(ModelParams(a=0.02, b=0.0, c=0.0, lam=0.09, m=1.0))
        assert slow.C0 == 0.0 and slow.diagnostics["dphi_at_zero"] == 0.0
        steep = riskfree_exact(ModelParams(a=0.1, b=0.0, c=0.0, lam=0.09, m=1.0))
        assert steep.C0 == 0.0 and steep.diagnostics["dphi_at_zero"] == math.inf
        # the unbounded slope is still integrable: phi rises immediately
        assert steep.evaluate(0.5)[0] > 0.0

    @pytest.mark.parametrize("point", OVERFLOW_POINTS)
    def test_large_shape_in_logs(self, point):
        a, c, lam = point
        p = lam / a
        us = np.linspace(0.0, 3.0 * p, 301)
        log_ic, log_norm = _log_norm_reference(a, c, lam, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = riskfree_exact(ModelParams(a=a, b=0.0, c=c, lam=lam, m=1.0))
            phi, dphi, _ = sol.evaluate(us)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.max(np.abs(phi - (1.0 - np.exp(log_ic(us) - log_norm)))) <= 1e-12
        assert np.all(np.isfinite(dphi[1:]))
        assert sol.diagnostics["log_norm"] == pytest.approx(log_norm, rel=1e-14)

    @pytest.mark.parametrize("name", ["fig4-I", "fig4-II"])
    def test_small_phi_without_premiums(self, name):
        # phi = P(p, u/m), the regularized lower incomplete gamma function,
        # to 1e-14 relative where phi is small, on the scalar and array routes
        mpmath = pytest.importorskip("mpmath")
        params = PRESETS[name].params
        us = np.array([0.05, 0.25, 0.5, 1.0, 2.0])
        with mpmath.workdps(30):
            ref = [
                float(mpmath.gammainc(params.lam / params.a, 0, u / params.m, regularized=True))
                for u in us
            ]
        sol = riskfree_exact(params)
        scalar = [sol.evaluate(float(u))[0] for u in us]
        dense = sol.evaluate(np.concatenate((us, np.linspace(3.0, 50.0, 201))))[0][: us.size]
        np.testing.assert_allclose(scalar, ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(dense, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(4, 8), (4, 64)])
    def test_any_shape(self, shape):
        us = np.random.default_rng(5).uniform(0.0, 50.0, shape)
        for sol in (riskfree_exact(RISKFREE_HIGH), riskfree_exact(PRESETS["fig4-II"].params),
                    classical_exact(CLASSICAL)):
            flat = sol.evaluate(us.ravel())
            for got, ref in zip(sol.evaluate(us), flat):
                np.testing.assert_array_equal(got, ref.reshape(shape))

    @pytest.mark.parametrize("name", RISKFREE_PRESETS)
    def test_scalar_equals_array(self, name):
        sol = riskfree_exact(PRESETS[name].params)
        us = np.linspace(0.0, 50.0, 201)
        phi, dphi, _ = sol.evaluate(us)
        scalar = np.array([sol.evaluate(float(u)) for u in us])
        np.testing.assert_allclose(scalar[:, 0], phi, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(scalar[:, 1], dphi, rtol=1e-14, atol=0.0)

    def test_dense_evaluation_is_one_kernel_call(self, monkeypatch):
        calls = []
        scalar = closedform.upper_incomplete_gamma

        def counted(p, z):
            calls.append(z)
            return scalar(p, z)

        monkeypatch.setattr(closedform, "upper_incomplete_gamma", counted)
        for name in RISKFREE_PRESETS:
            sol = riskfree_exact(PRESETS[name].params)
            calls.clear()
            sol.evaluate(np.linspace(0.0, 50.0, 10_001))
            assert len(calls) <= 4, name

    def test_one_log_ic0_per_solve(self, monkeypatch):
        calls = []
        scalar = closedform.upper_incomplete_gamma

        def counted(p, z):
            calls.append(z)
            return scalar(p, z)

        monkeypatch.setattr(closedform, "upper_incomplete_gamma", counted)
        for name in ("fig3-I", "fig3-II"):
            calls.clear()
            sol = riskfree_exact(PRESETS[name].params)
            assert len(calls) == 1, name
            # the diagnostic is the point evaluator's slope at 0
            assert sol.diagnostics["dphi_at_zero"] == sol.evaluate(0.0)[1]

    @pytest.mark.parametrize("name", ["fig1-I", "fig3-II", "fig4-II"])
    def test_point_path_validates_in_floats(self, name):
        params = PRESETS[name].params
        sol = classical_exact(params) if params.a == 0.0 else riskfree_exact(params)
        bad = [math.nan, math.inf, -math.inf, -1.0, -5e-324]
        for u in bad + [-1] + [np.float64(b) for b in bad] + [np.array(b) for b in bad]:
            with pytest.raises(ValueError, match="finite u"):
                sol.evaluate(u)
        for u in (5, np.float64(5.0), np.array(5.0)):
            values = sol.evaluate(u)
            assert len(values) == 3 and all(type(v) is float for v in values)
            assert values == sol.evaluate(5.0)
        # far out Gamma(p, z) underflows; the long array takes the kernel
        far = sol.evaluate(np.full(64, 1e3))
        assert sol.evaluate(1e3) == (far[0][0], far[1][0], far[2][0])

    @pytest.mark.parametrize("point", OVERFLOW_POINTS)
    def test_point_path_agrees_at_large_shape(self, point):
        # phi' = exp((p - 1) log(u + c/a) - u/m - log norm) with p = 200..2500:
        # the factor p - 1 would amplify a last-bit difference of the log
        a, c, lam = point
        sol = riskfree_exact(ModelParams(a=a, b=0.0, c=c, lam=lam, m=1.0))
        p = lam / a
        us = np.linspace(0.05 * p, 3.0 * p, 64)  # the kernel's path
        phi, dphi, _ = sol.evaluate(us)
        scalar = np.array([sol.evaluate(u) for u in us[::7].tolist()])
        np.testing.assert_allclose(scalar[:, 1], dphi[::7], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(scalar[:, 0], phi[::7], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, [1.0, math.nan], math.inf, -math.inf])
    def test_rejects_non_finite_query(self, bad):
        with pytest.raises(ValueError, match="finite"):
            riskfree_exact(RISKFREE_HIGH).evaluate(bad)
        with pytest.raises(ValueError, match="finite"):
            classical_exact(CLASSICAL).evaluate(bad)

    def test_rejects_wrong_regime(self):
        with pytest.raises(ValueError):
            riskfree_exact(CLASSICAL)
        with pytest.raises(ValueError):
            riskfree_exact(ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0))


def _origin_values(sol):
    """(phi, phi', phi'') at u = 0 from the grid row, a 2-point array, a
    64-point array and a scalar query."""
    assert sol.u[0] == 0.0
    short = sol.evaluate(np.array([0.0, 1.0]))
    long = sol.evaluate(np.linspace(0.0, 50.0, 64))
    return [
        (sol.phi[0], sol.dphi[0], sol.ddphi[0]),
        tuple(v[0] for v in short),
        tuple(v[0] for v in long),
        sol.evaluate(0.0),
    ]


class TestOriginLimits:
    """phi'(0+) and phi''(0+) without premiums at the exact exponents p = 1
    and p = 2 of phi' = u^(p-1) exp(-u/m) / norm, and the sign of phi(0)."""

    @pytest.mark.parametrize("name", ["fig4-I", "fig4-II"])
    def test_phi_at_zero_is_positive_zero(self, name):
        sol = riskfree_exact(PRESETS[name].params)
        for phi, _, _ in _origin_values(sol):
            assert phi == 0.0 and math.copysign(1.0, phi) == 1.0

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_exponent_one(self, m):
        params = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=m)
        assert params.lam / params.a == 1.0
        for _, dphi, ddphi in _origin_values(riskfree_exact(params)):
            assert dphi == pytest.approx(1.0 / m, rel=1e-15)
            assert ddphi == pytest.approx(-1.0 / m**2, rel=1e-15)

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_exponent_two(self, m):
        params = ModelParams(a=0.05, b=0.0, c=0.0, lam=0.1, m=m)
        assert params.lam / params.a == 2.0
        for _, dphi, ddphi in _origin_values(riskfree_exact(params)):
            assert dphi == 0.0
            assert ddphi == pytest.approx(1.0 / m**2, rel=1e-15)

    def test_inflection_is_exact_zero(self):
        # fig3-I: phi'' = (p - 1 - w/m) phi'/w with p - 1 = w = 3.5 at u = 2.5
        sol = solve(PRESETS["fig3-I"].params)
        assert sol.evaluate(2.5)[2] == 0.0
        assert sol.ddphi[sol.u == 2.5].tolist() == [0.0]


class TestSecondDerivative:
    """phi'' from the degenerate equation against a central difference of phi'."""

    @pytest.mark.parametrize("path", ["array", "point"])
    @pytest.mark.parametrize("name", ["fig1-I", "fig3-I", "fig3-II", "fig4-I", "fig4-II"])
    def test_matches_difference_of_slope(self, name, path):
        # fig4-II (c = 0, p = 0.9) has phi' ~ u^(p-1)
        params = PRESETS[name].params
        sol = classical_exact(params) if params.a == 0.0 else riskfree_exact(params)
        us = np.geomspace(0.01, 40.0, 64)  # the array takes the kernel
        h = 1e-5 * us
        if path == "array":
            evaluate = sol.evaluate
        else:
            def evaluate(u):
                return np.array([sol.evaluate(float(x)) for x in u]).T
        ddphi = evaluate(us)[2]
        difference = (evaluate(us + h)[1] - evaluate(us - h)[1]) / (2.0 * h)
        np.testing.assert_allclose(ddphi, difference, rtol=1e-6, atol=1e-9 * np.max(np.abs(ddphi)))


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

    @pytest.mark.parametrize("point", OVERFLOW_POINTS[:2])
    def test_large_shape_without_premiums(self, point):
        from scipy.special import gammaln

        a, c, lam = point
        p = lam / a
        us = np.array([0.5 * p, p, 2.0 * p])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = riskfree_tail(ModelParams(a=a, b=0.0, c=c, lam=lam, m=1.0), us)
        exact = 1.0 - np.exp((p - 1.0) * np.log(us) - us - gammaln(p))
        assert np.max(np.abs(tail - exact)) <= 1e-12

    def test_exact_for_exponential_case(self):
        p = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=1.0)
        us = np.linspace(0.5, 40.0, 25)
        tail = riskfree_tail(p, us)
        assert np.max(np.abs(tail - (1.0 - np.exp(-us)))) < 1e-12
