import warnings

import numpy as np
import pytest

from ruinlab import (
    ModelParams,
    NoSolutionError,
    Regime,
    classical_exact,
    eval_series,
    integrate,
    main_ode_field,
    make_grid,
    phi_second_derivative_at_zero,
    riskfree_exact,
    series_coeffs_main,
    solve,
    solve_main,
    solver,
)
from ruinlab.series import series_coeffs_infinity
from conftest import PARAMS

# perfbench/reference.json: scipy DOP853 from the series at u = 0, limit from
# the first-order tail at U = 1e4 m; reference error at most 3.7e-13
REFERENCE_C0 = {
    "fig1-II": 0.29439337595327203,
    "fig2-I": 0.005265543842250953,
    "fig2-II": 0.1936959175903209,
}
# perfbench/sweep.py generate(1), index 0: 2a/b^2 = 1.097
R_1_1 = ModelParams(
    a=0.04459508618618516,
    b=0.28518103103718473,
    c=0.015337063241107916,
    lam=0.044108874786030684,
    m=0.11713471018585699,
)


class TestPhiSecondDerivativeAtZero:
    def test_hand_value(self):
        # (lam - a - c/m) * lam * C0 / c^2 for the low-premium inflection case
        val = phi_second_derivative_at_zero(PARAMS["fig2-I"], 0.00527)
        assert val == pytest.approx(0.05 * 0.09 * 0.00527 / 0.0004, rel=1e-12)
        assert val > 0.0  # convex near the origin

    def test_vanishes_on_boundary(self):
        p = ModelParams(a=0.07, b=0.1, c=0.02, lam=0.09, m=1.0)  # a + c/m = lam
        assert abs(phi_second_derivative_at_zero(p, 0.5)) < 1e-13

    def test_linear_in_c0(self):
        assert phi_second_derivative_at_zero(PARAMS["fig1-II"], 0.0) == 0.0

    def test_requires_premiums(self):
        with pytest.raises(ValueError):
            phi_second_derivative_at_zero(PARAMS["fig5-I"], 0.1)


class TestSolveMain:
    def test_fig1_ii_landmarks(self, solved):
        grid = solved("fig1-II")
        assert grid.C0 == pytest.approx(0.295, abs=0.002)
        assert grid.dphi[0] == pytest.approx(0.265, abs=0.002)

    def test_fig2_landmarks(self, solved):
        assert solved("fig2-I").C0 == pytest.approx(0.00527, rel=0.02)
        assert solved("fig2-II").C0 == pytest.approx(0.194, rel=0.01)

    def test_normalization_equals_rescaled_rerun(self, solved):
        # re-integrating with the normalized C0 from the start must agree
        # with the rescale of the unit-C0 run (linearity of the problem)
        p = PARAMS["fig1-II"]
        grid = solved("fig1-II")
        exp = series_coeffs_main(p)
        state = np.array(eval_series(exp, grid.C0, exp.u0))
        traj = integrate(main_ode_field(p), exp.u0, state, 50.0, rtol=1e-11, atol=1e-13)
        for u in (1.0, 10.0, 50.0):
            direct = traj(u)[0]
            assert grid.evaluate(u)[0] == pytest.approx(direct, rel=1e-8)

    def test_limit_is_one(self, solved):
        grid = solved("fig1-II")
        U = grid.diagnostics["U"]
        assert grid.evaluate(U)[0] == pytest.approx(1.0, rel=1e-6)

    def test_origin_condition_transfer(self, solved):
        # c phi'(u) - lam phi(u) -> 0 linearly as u -> 0
        p = PARAMS["fig1-II"]
        grid = solved("fig1-II")
        gaps = {}
        for u in (1e-6, 1e-4):
            phi, dphi, _ = grid.evaluate(u)
            gaps[u] = abs(p.c * dphi - p.lam * phi)
            assert gaps[u] <= 2.0 * grid.C0 * u + 1e-12
        assert gaps[1e-6] < gaps[1e-4]

    @pytest.mark.parametrize("name", ["fig1-II", "fig2-I"])
    def test_one_integration_from_u0_to_U(self, monkeypatch, name):
        calls = []

        def recording(field, u_start, state0, u_end, **kw):
            calls.append((u_start, u_end))
            return real(field, u_start, state0, u_end, **kw)

        real = solver.integrate
        monkeypatch.setattr(solver, "integrate", recording)
        grid = solve(PARAMS[name])
        assert calls == [(grid.diagnostics["u0"], grid.diagnostics["U"])]

    @pytest.mark.parametrize("name", sorted(REFERENCE_C0))
    def test_c0_matches_reference(self, solved, name):
        assert solved(name).C0 == pytest.approx(REFERENCE_C0[name], rel=1e-10)

    def test_near_borderline_robustness_matches_at_smallest_U(self):
        grid = solve(R_1_1)
        assert grid.diagnostics["U"] == 400.0 * R_1_1.m
        assert grid.diagnostics["A_stability"] <= 1e-9

    @pytest.mark.parametrize("name", ["fig1-II", "fig2-I"])
    def test_slope_follows_series_at_infinity(self, solved, name):
        p = PARAMS[name]
        r = p.robustness()
        e = series_coeffs_infinity(p)

        def law(u):
            return u**-r * np.polyval(e[::-1], 1.0 / u)

        _, dphi, _ = solved(name).evaluate(np.array([25.0, 50.0, 100.0]))
        assert dphi[0] / dphi[1] == pytest.approx(law(25.0) / law(50.0), rel=1e-7)
        assert dphi[1] / dphi[2] == pytest.approx(law(50.0) / law(100.0), rel=1e-7)

    @pytest.mark.parametrize("name", ["fig1-II", "fig5-I"])
    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_tolerance(self, name, key, value):
        with pytest.raises(ValueError, match="rtol and atol"):
            solve(PARAMS[name], **{key: value})

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            solve_main(PARAMS["fig1-I"])


class TestSolveDispatch:
    def test_classical_grid_matches_formula(self, solved):
        grid = solved("fig1-I")
        assert grid.regime.regime is Regime.CLASSICAL_CL
        exact = 1.0 - 0.9 * np.exp(-0.1 * grid.u)
        assert np.max(np.abs(grid.phi - exact)) < 1e-12

    def test_riskfree_grid_matches_closed_form(self, solved):
        grid = solved("fig3-II")
        cf = riskfree_exact(PARAMS["fig3-II"])
        phi, dphi = cf.evaluate(grid.u)
        assert np.max(np.abs(grid.phi - phi)) < 1e-13
        assert grid.C0 == cf.C0

    def test_capital_stock_dispatch(self, solved):
        grid = solved("fig5-I")
        assert grid.regime.regime is Regime.CAPITAL_STOCK
        assert "P1" in grid.diagnostics

    def test_zero_solution_flagged(self):
        p = ModelParams(a=0.001, b=0.1, c=0.1, lam=0.09, m=1.0)  # 2a/b^2 = 0.2
        grid = solve(p, u_max=10.0)
        assert grid.regime.regime is Regime.NO_SOLUTION
        assert np.all(grid.phi == 0.0) and grid.C0 == 0.0
        assert "ruin certain" in grid.diagnostics["reason"]

    def test_classical_nonviable_raises(self):
        with pytest.raises(NoSolutionError, match="c <= lambda\\*m"):
            solve(ModelParams(a=0.0, b=0.0, c=0.05, lam=0.09, m=1.0))

    def test_borderline_refused(self):
        p = ModelParams(a=0.125, b=0.5, c=0.1, lam=0.09, m=1.0)  # 2a/b^2 == 1
        with pytest.raises(NoSolutionError, match="2a/b\\^2 = 1"):
            solve(p)


class TestSolutionProperties:
    NAMES = ["fig1-I", "fig1-II", "fig2-I", "fig2-II", "fig3-I", "fig3-II",
             "fig4-I", "fig4-II", "fig5-I", "fig5-II"]

    @pytest.mark.parametrize("name", NAMES)
    def test_monotone_and_bounded(self, solved, name):
        grid = solved(name)
        assert np.all(grid.phi <= 1.0 + 1e-6)
        assert np.all(grid.phi >= -1e-12)
        assert np.all(np.diff(grid.phi) >= -1e-12)
        finite = np.isfinite(grid.dphi)
        assert np.all(grid.dphi[finite] >= -1e-8)

    def test_concavity_dichotomy_concave(self, solved):
        # m(a - lam) + c >= 0: phi'' <= 0 everywhere
        grid = solved("fig2-II")
        assert np.all(grid.ddphi <= 1e-8)

    def test_concavity_dichotomy_inflection(self, solved):
        # m(a - lam) + c < 0: phi'' changes sign exactly once
        p = PARAMS["fig2-I"]
        grid = solved("fig2-I")
        us = np.linspace(1e-4, 50.0, 4001)
        _, _, dd = grid.evaluate(us)
        signs = np.sign(dd)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0.0))
        assert changes == 1
        assert phi_second_derivative_at_zero(p, grid.C0) > 0.0


    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("bad", [np.nan, [1.0, np.nan], np.inf])
    def test_evaluate_rejects_non_finite(self, solved, name, bad):
        with pytest.raises(ValueError, match="finite u"):
            solved(name).evaluate(bad)

    def test_no_premium_second_derivative_near_origin(self, solved):
        # fig4-II: phi'' = ((p - 1)/u - 1/m) phi' with p = 0.9 falls like
        # u^(p - 2); at u = 1e-300 it is about -9.4e328, beyond double range
        grid = solved("fig4-II")
        a, lam, m = 0.1, 0.09, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid.evaluate(1e-300)[2] == -np.inf
            for u in (1e-200, 1e-30):
                _, dphi, ddphi = grid.evaluate(u)
                direct = -(a - lam + a * u / m) * dphi / (a * u)
                assert ddphi == pytest.approx(direct, rel=1e-13)


class TestMakeGrid:
    def test_uniform(self):
        g = make_grid(10.0, 11, "uniform")
        assert g[0] == 0.0 and g[-1] == 10.0 and len(g) == 11
        assert np.allclose(np.diff(g), 1.0)

    def test_log(self):
        g = make_grid(10.0, 11, "log")
        assert g[0] == 0.0 and g[-1] == pytest.approx(10.0)
        assert np.all(np.diff(g) > 0.0)

    def test_capital_stock_honours_spacing(self):
        grid = solve(PARAMS["fig5-I"], u_max=50.0, spacing="log")
        np.testing.assert_array_equal(grid.u, make_grid(50.0, 201, "log"))

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_grid(10.0, 1)
        with pytest.raises(ValueError):
            make_grid(10.0, 5, "cubic")


class TestGridValidation:
    ROUTES = ["fig1-II", "fig5-I", "fig3-II"]  # main, capital stock, risk-free

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("u_max", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_invalid_u_max(self, name, u_max):
        with pytest.raises(ValueError, match="u_max must be finite"):
            solve(PARAMS[name], u_max=u_max)

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_invalid_grid_entry(self, name, bad):
        with pytest.raises(ValueError, match="u_grid entries"):
            solve(PARAMS[name], u_grid=[0.0, bad, 3.0])
