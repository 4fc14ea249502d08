import functools
import math
import warnings

import numpy as np
import pytest

from ruinlab import (
    ModelParams,
    NoSolutionError,
    PortfolioSpec,
    Regime,
    Trajectory,
    classical_exact,
    effective_params,
    eval_series,
    ide_residual,
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
from conftest import PARAMS, fixed_order_series, solve_recording_trajectory
from test_sweep_references import SWEEP_MAIN_C0

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


# perfbench/sweep.py generate(16), index 21: 2a/b^2 = 22.05, m = 45.5
R_22 = ModelParams(
    a=0.011208678471990783,
    b=0.031887836490038644,
    c=29.920968677457772,
    lam=0.09875972662458603,
    m=45.52237924750843,
)
# solve(R_22, rtol=1e-13, atol=1e-15) with the scalar step-size-controlled integrator
R_22_C0 = 0.8523814899562107


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
        traj = integrate(main_ode_field(p), exp.u0, state, 50.0, rtol=1e-11)
        for u in (1.0, 10.0, 50.0):
            direct = traj(u)[0]
            assert grid.evaluate(u)[0] == pytest.approx(direct, rel=1e-8)

    def test_limit_is_one(self, solved):
        assert solved("fig1-II").evaluate(400.0)[0] == pytest.approx(1.0, rel=1e-6)

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
        assert solved(name).C0 == pytest.approx(REFERENCE_C0[name], rel=1e-12)

    def test_near_borderline_robustness_matches_at_smallest_U(self):
        grid = solve(R_1_1)
        assert grid.diagnostics["U"] == 50.0 * R_1_1.m

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
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            solve(PARAMS[name], rtol=value)

    def test_long_span_stays_within_one(self):
        # U = 800 m here; the integrator's global error once put phi 1e-9 above 1
        grid = solve(R_22)
        assert grid.phi.max() <= 1.0 + 1e-12
        assert grid.C0 == pytest.approx(R_22_C0, rel=1e-11)

    def test_transfer_below_the_first_candidates(self):
        # the 20-term series at u = 0 truncates at none of m 10^[-3, -1]
        # (its coefficients grow about 4,000-fold per term) and hands over
        # at u0 = 5.0e-5 = 5e-4 m; a fallback to u0 = 1e-3 raised with A = -4.5e13
        p = ModelParams(a=25.0, b=1.0, c=0.005, lam=0.1, m=0.1)
        grid = solve(p)
        assert grid.diagnostics["u0"] == pytest.approx(5.01e-5, rel=1e-3)
        assert grid.C0 == pytest.approx(solve(p, rtol=1e-13).C0, rel=1e-13)
        assert grid.C0 == pytest.approx(0.97722829373354, rel=1e-13)
        assert ide_residual(grid, p, np.linspace(0.0, 5.0, 41)).rel_sup <= 1e-10

    def test_stiff_point_with_underflowing_slope(self):
        # fraction 0.01 of ROADMAP item 2's example, 2a/b^2 = 4,622: phi'
        # underflows far out, where rhs(u, y) and M(u) y lose their digits
        grid = solve(ModelParams(a=0.0208, b=0.003, c=0.1, lam=0.09, m=1.0))
        # the scalar step-size-controlled integrator's C0
        assert grid.C0 == pytest.approx(0.3433158915078975, rel=1e-11)
        assert grid.phi.max() <= 1.0 + 1e-12

    def test_tracer_field_wrap_leaves_solve_unchanged(self, monkeypatch):
        # perfbench/tracer.py wraps solver.main_ode_field as below, and its
        # rebuild of the result cannot build a LinearOde: the solve must
        # take its equation elsewhere and come out bit for bit the same
        calls = []
        real = solver.main_ode_field

        def counted_factory(params):
            calls.append(1)
            system = real(params)

            def counted_rhs(u, y):
                return system.rhs(u, y)

            return type(system)(dimension=system.dimension, rhs=counted_rhs, name=system.name)

        before = solve(PARAMS["fig1-II"])
        monkeypatch.setattr(solver, "main_ode_field", counted_factory)
        after = solve(PARAMS["fig1-II"])
        assert not calls
        for name in ("u", "phi", "dphi", "ddphi"):
            np.testing.assert_array_equal(getattr(after, name), getattr(before, name))
        assert (after.C0, after.tail, after.diagnostics) == (before.C0, before.tail, before.diagnostics)

    @pytest.mark.parametrize("name", ["fig1-II", "fig5-I"])
    def test_steps_reported(self, solved, name):
        # Taylor steps on the main route, series terms on the capital stock
        work = solved(name).diagnostics["steps" if name == "fig1-II" else "terms"]
        assert isinstance(work, int) and work > 0

    @pytest.mark.parametrize(("name", "most"), [("fig1-II", 150)])
    def test_few_taylor_steps(self, solved, name, most):
        assert solved(name).diagnostics["steps"] <= most

    def test_few_series_terms(self, solved):
        # fig5-I's sums on its grid, u <= 50 = 50 m, hold 145 terms
        assert solved("fig5-I").diagnostics["terms"] <= 200

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            solve_main(PARAMS["fig1-I"])


def fixed_fraction(alpha, m=1.0):
    """ROADMAP item 2's example: fraction alpha in shares (mu = 0.1,
    sigma = 0.3) and the rest at r_f = 0.02, with c = 0.1, lam = 0.09, m = 1;
    at another m, with c = 0.1 m, the same problem in units of m."""
    spec = PortfolioSpec(mu=0.1, sigma=0.3, r=0.02, alpha=alpha)
    return effective_params(spec, c=0.1 * m, lam=0.09, m=m)


class TestLongerSeries:
    """The series at u = 0 carries the stiff stretch where 20 terms reach
    0.1 m, with its order doubled while its reach grows."""

    def test_stiff_sweep_point(self):
        # main8: 2c/(b^2 m) = 1,290; from u0 = 0.1 m it took 1,301 steps
        params, C0 = SWEEP_MAIN_C0[8]
        grid = solve(ModelParams(**params))
        assert grid.diagnostics["u0"] >= params["m"]
        assert grid.diagnostics["series_order"] > 20
        assert grid.diagnostics["steps"] <= 200
        assert grid.C0 == pytest.approx(C0, rel=1e-12)

    @pytest.mark.parametrize(
        ("alpha", "most", "C0"),
        [
            (0.1, 60, 0.3736036303609106),
            (0.03, 300, 0.3510436015834568),
            (0.01, 2_000, 0.3433158915078227),
        ],
    )
    def test_fixed_fraction(self, alpha, most, C0):
        # C0 as solved from u0 = 0.1 m with 20 terms, in 288, 3,097 and
        # 34,510 steps; U = 50 under the flat-tail rule takes 40, 200 and
        # 1,427
        grid = solve(fixed_fraction(alpha))
        assert grid.diagnostics["steps"] <= most
        assert grid.C0 == pytest.approx(C0, rel=1e-12)

    def test_same_in_units_of_m(self):
        # the series at u = 0 is held in u/m: alpha = 0.03 takes 160 terms
        # and 200 steps at every m, where it once took 80 terms and 214
        # steps at m = 100
        base = solve(fixed_fraction(0.03))
        assert base.diagnostics["series_order"] == 160 and base.diagnostics["steps"] == 200
        for m in (0.01, 100.0):
            grid = solve(fixed_fraction(0.03, m))
            for key in ("series_order", "steps"):
                assert grid.diagnostics[key] == base.diagnostics[key]
            assert grid.diagnostics["u0"] / m == pytest.approx(base.diagnostics["u0"], rel=1e-12)
            assert grid.C0 == pytest.approx(base.C0, rel=1e-12)

    @pytest.mark.parametrize(
        ("name", "u0"), [("fig2-I", 0.08912509381337459), ("fig2-II", 0.039810717055349734)]
    )
    def test_short_reach_keeps_order_and_u0(self, solved, name, u0):
        assert solved(name).diagnostics["series_order"] == 20
        assert solved(name).diagnostics["u0"] == u0

    @pytest.mark.parametrize("i", [2, 8, 9, 16])
    def test_hands_over_the_integrated_state(self, i):
        # (phi, phi', phi'') of the longer series at its u0 against an
        # integration from the 20-term u0, each relative to its largest
        # value between the two
        p = ModelParams(**SWEEP_MAIN_C0[i][0])
        long, short = series_coeffs_main(p), fixed_order_series(p, 20)
        assert long.order > short.order and long.u0 > short.u0
        state = np.array(eval_series(short, 1.0, short.u0))
        traj = integrate(main_ode_field(p), short.u0, state, long.u0, rtol=1e-13)
        scale = np.abs(traj(np.linspace(short.u0, long.u0, 200))).max(axis=0)
        err = np.abs(np.array(eval_series(long, 1.0, long.u0)) - traj(long.u0)) / scale
        assert err.max() <= 1e-13


class TestFarField:
    """Beyond U the main route evaluates the series at infinity matched at U,
    so its span is [0, inf)."""

    MAIN = ["fig1-II", "fig2-I", "fig2-II"]

    @pytest.mark.parametrize("name", MAIN)
    def test_continuous_across_U(self, solved, name):
        grid = solved(name)
        U = grid.diagnostics["U"]
        assert grid.span == (0.0, math.inf)
        at = grid.evaluate(U)
        beyond = grid.evaluate(float(np.nextafter(U, math.inf)))
        # no abs: phi' and phi'' lie far below pytest.approx's default.  The
        # flat-tail rule's leading term leaves e_1/U out of phi'', which
        # jumps by 1.5% on fig2-II
        flat = grid.diagnostics["U_rule"] == "flat"
        for x, y, rel in zip(at, beyond, (1e-12, 1e-12, 0.05 if flat else 1e-12)):
            assert y == pytest.approx(x, rel=rel, abs=0.0)

    @pytest.mark.parametrize("name", ["fig1-II", "fig2-I"])
    def test_matches_longer_integration(self, solved, name):
        # with u_max = 400 these points lie on the trajectory
        grid, far = solved(name), solve(PARAMS[name], u_max=400.0)
        assert grid.diagnostics["U"] < 100.0 <= 400.0 <= far.diagnostics["U"]
        us = np.array([100.0, 200.0, 400.0])
        (phi, dphi, _), (phi_ref, dphi_ref, _) = grid.evaluate(us), far.evaluate(us)
        np.testing.assert_allclose(phi, phi_ref, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(dphi, dphi_ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("name", MAIN)
    def test_scalar_equals_array_beyond_U(self, solved, name):
        grid = solved(name)
        us = grid.diagnostics["U"] * np.array([1.0 + 1e-12, 1.5, 4.0, 1e3, 1e10])
        us = np.append(us, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = grid.evaluate(us)
            scalars = np.array([grid.evaluate(float(u)) for u in us])
        for k in range(3):
            np.testing.assert_allclose(scalars[:, k], arrays[k], rtol=1e-14, atol=0.0)
        assert scalars[-1, 0] == arrays[0][-1] == 1.0
        assert np.all(np.diff(arrays[0]) >= 0.0) and np.all(arrays[0] <= 1.0)

    def test_few_steps_to_the_first_truncating_U(self, solved):
        # the integration ends at the first candidate u_max 2^(k/2) at which
        # the series at infinity truncates; it ran to 400 in 49 steps before
        grid = solved("fig1-II")
        assert grid.diagnostics["U"] == 50.0
        assert grid.diagnostics["steps"] <= 30

    @pytest.mark.parametrize("name", ["fig1-II", "fig2-II", "R_1_1"])
    @pytest.mark.parametrize("u_max", [0.01, 1.0, 50.0, 1000.0])
    def test_ladder_from_any_u_max(self, name, u_max):
        # the candidates climb from u_max to 256 max(200 m, u_max); at
        # u_max = 0.01 m a ladder that stopped at 1024 u_max would raise
        p = R_1_1 if name == "R_1_1" else PARAMS[name]
        grid = solve(p, u_max=u_max * p.m)
        assert grid.diagnostics["U"] >= u_max * p.m
        assert grid.C0 == pytest.approx(solve(p).C0, rel=1e-12)


class TestTailFit:
    """The match at U gives K in logs, and the main route reports it wherever
    phi'(U) holds its digits."""

    NAMES = ["fig1-II", "fig2-I", "fig2-II"]
    POINTS = [PARAMS[n] for n in NAMES] + [ModelParams(**p) for p, _ in SWEEP_MAIN_C0]
    IDS = NAMES + [f"main{i}" for i in range(len(SWEEP_MAIN_C0))]

    @pytest.mark.parametrize("p", POINTS, ids=IDS)
    def test_K_is_resolved(self, p):
        # the two agree to 2.6e-13 or better where the series truncates at
        # U; the leading term of the flat-tail rule does not resolve K
        grid = solve(p)
        if grid.diagnostics["U_rule"] == "truncates":
            assert grid.tail.K == pytest.approx(solve(p, rtol=1e-13).tail.K, rel=1e-11)
        else:
            assert grid.tail is None and grid.diagnostics["log_K"] is None

    @pytest.mark.parametrize("name", NAMES + ["fig5-I", "fig5-II"])
    def test_log_K_reported(self, solved, name):
        # main and capital stock alike: K = exp(log K) where K is finite,
        # and neither under the main route's flat-tail rule (fig2-II)
        grid = solved(name)
        if grid.diagnostics.get("U_rule") == "flat":
            assert grid.tail is None and grid.diagnostics["log_K"] is None
        else:
            assert grid.tail.K == pytest.approx(math.exp(grid.diagnostics["log_K"]), rel=1e-14)

    def test_steep_tail_reported(self, solved):
        # main16 of the sweep: 2a/b^2 = 18.1, and 1 - phi ~ 2.0e24 u^-17.1;
        # far out phi' = K (r-1) u^(-r) (1 + O(1/u))
        p = ModelParams(**SWEEP_MAIN_C0[16][0])
        grid, r = solve(p), p.robustness()
        assert grid.diagnostics["U_rule"] == "truncates"
        assert grid.tail is not None and grid.tail.U == grid.diagnostics["U"] == 100.0 * p.m
        assert grid.tail.exponent == pytest.approx(1.0 - r, rel=1e-15)
        u = 1e8 * p.m
        assert grid.evaluate(u)[1] * u**r / (r - 1.0) == pytest.approx(grid.tail.K, rel=1e-6)
        # fig2-II (2a/b^2 = 20) is flat to rounding at U = 70.7, before the
        # series truncates at 100
        flat = solved("fig2-II")
        assert flat.diagnostics["U_rule"] == "flat" and flat.diagnostics["U"] == 50.0 * 2.0**0.5
        assert flat.tail is None and flat.diagnostics["tail_term"] < 2.0**-53

    def test_K_beyond_double_range_reads_inf(self):
        # fraction 0.05 of ROADMAP item 2's example, 2a/b^2 = 213: from
        # u_max = 800 the series truncates at U = 800, and K passes double
        # range, 1 - phi beyond U does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = solve(fixed_fraction(0.05), u_max=800.0)
            U = grid.diagnostics["U"]
            far = grid.evaluate(2.0 * U)
            flat = solve(fixed_fraction(0.05))
            beyond = flat.evaluate(np.array([50.0, 100.0, 1e4, 1e300]))
        assert grid.diagnostics["U_rule"] == "truncates"
        assert grid.tail.K == math.inf and grid.tail.U == U == 800.0
        assert far[0] == 1.0 and 0.0 < far[1] < grid.evaluate(U)[1]
        # the diagnostics keep log K, which the tail's K cannot hold
        assert grid.diagnostics["log_K"] == pytest.approx(950.98, abs=0.01)
        # from the default u_max, phi is flat at U = 50: the leading term's
        # fit (log K = 785.9) is no K, and phi reads 1 beyond U
        assert flat.diagnostics["U_rule"] == "flat" and flat.diagnostics["U"] == 50.0
        assert flat.tail is None and flat.diagnostics["log_K"] is None
        assert np.all(beyond[0][1:] == 1.0) and np.all(np.diff(beyond[1]) <= 0.0)

    def test_underflowed_slope_reports_no_tail(self):
        # fraction 0.03, 2a/b^2 = 553: from u_max = 1,600 the series
        # truncates at U = 1,600, where phi'(U) reads 0.0, which would give K = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = solve(fixed_fraction(0.03), u_max=1600.0)
            U = grid.diagnostics["U"]
            assert grid.diagnostics["U_rule"] == "truncates" and grid.evaluate(U)[1] == 0.0
            assert grid.tail is None
            assert grid.evaluate(2.0 * U)[0] == 1.0


class TestFarEnd:
    """The main route climbs its ladder of U while it integrates and stops
    at the first rung where the series at infinity truncates or phi is flat
    to rounding, so the points whose series truncates far out, or on no
    rung, stop at U = u_max."""

    FRACTIONS = [(0.01, 2_000), (0.005, 7_000), (0.003, 20_000)]
    # r = 14, b = 0.0049 and 2c/b^2 = 7.7e4, so c/(lam m) = 6.8: the series
    # at infinity truncates at U = 36,204 and 34,816 on the first and the
    # last, and on no rung of the second
    SURVEY = [(0.136, 1.0), (0.5, 0.272), (0.05, 2.72)]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def fraction(alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solve(fixed_fraction(alpha))

    @pytest.mark.parametrize(("alpha", "most"), FRACTIONS)
    def test_small_fractions_solve(self, alpha, most):
        diag = self.fraction(alpha).diagnostics
        assert diag["U"] == 50.0 and diag["U_rule"] == "flat"
        assert 0.0 < diag["tail_term"] < 2.0**-53
        assert diag["steps"] <= most

    @pytest.mark.parametrize("alpha", [alpha for alpha, _ in FRACTIONS])
    def test_monotone_within_one_out_to_1e300(self, alpha):
        grid = self.fraction(alpha)
        us = np.concatenate((grid.u, np.geomspace(51.0, 1e300, 60)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, dphi, ddphi = grid.evaluate(us)
        assert np.isfinite(dphi).all() and np.isfinite(ddphi).all()
        assert np.all(np.diff(phi) >= 0.0) and phi[0] > 0.0 and phi[-1] == 1.0

    def test_approaches_risk_free(self):
        # phi(0) reads 0.3433, 0.3413 and 0.3404 against the risk-free 0.3392
        us = np.array([0.0, 5.0, 20.0])
        rf = riskfree_exact(fixed_fraction(0.0), u_grid=us).phi
        phis = [self.fraction(alpha).evaluate(us)[0] for alpha, _ in self.FRACTIONS]
        for above, below in zip(phis, phis[1:] + [rf]):
            assert np.all(above > below)

    @pytest.mark.parametrize(("lam", "m"), SURVEY)
    def test_survey_points(self, lam, m):
        b = 0.0049
        p = ModelParams(a=7.0 * b * b, b=b, c=3.85e4 * b * b, lam=lam, m=m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = solve(p)
        assert grid.diagnostics["U_rule"] == "flat"
        assert grid.C0 == pytest.approx(solve(p, rtol=1e-12).C0, rel=1e-10)


class TestSolveDispatch:
    def test_classical_grid_matches_formula(self, solved):
        grid = solved("fig1-I")
        assert grid.regime.regime is Regime.CLASSICAL_CL
        exact = 1.0 - 0.9 * np.exp(-0.1 * grid.u)
        assert np.max(np.abs(grid.phi - exact)) < 1e-12

    def test_riskfree_grid_matches_closed_form(self, solved):
        grid = solved("fig3-II")
        cf = riskfree_exact(PARAMS["fig3-II"])
        phi, dphi, _ = cf.evaluate(grid.u)
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
        # a count that is not an integer is refused by name, on every route
        # and spacing; np.linspace and np.geomspace used to raise a raw TypeError
        for name in ("fig1-II", "fig5-I", "fig3-II"):
            for spacing in ("uniform", "log"):
                with pytest.raises(TypeError, match="points must be an integer, got 201.0"):
                    solve(PARAMS[name], points=201.0, spacing=spacing)


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

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("grid", [[3.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
    def test_rejects_grid_not_strictly_increasing(self, name, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            solve(PARAMS[name], u_grid=grid)

    @pytest.mark.parametrize("name", ROUTES)
    def test_grid_need_not_start_at_zero(self, name):
        grid = solve(PARAMS[name], u_grid=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(grid.u, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("name", ROUTES)
    def test_rejects_empty_grid(self, name):
        with pytest.raises(ValueError, match="u_grid .* non-empty"):
            solve(PARAMS[name], u_grid=[])

    @pytest.mark.parametrize("name", ROUTES)
    def test_rejects_grid_of_two_dimensions(self, name):
        with pytest.raises(ValueError, match="1-D"):
            solve(PARAMS[name], u_grid=np.linspace(0.0, 10.0, 6).reshape(2, 3))

    # classical, main, risk-free, capital stock, certain ruin
    ALL_ROUTES = {
        "fig1-I": PARAMS["fig1-I"],
        "fig1-II": PARAMS["fig1-II"],
        "fig3-II": PARAMS["fig3-II"],
        "fig5-I": PARAMS["fig5-I"],
        "zero": ModelParams(a=0.001, b=0.1, c=0.1, lam=0.09, m=1.0),
    }

    @pytest.mark.parametrize("u_grid", [None, [0.0, 1.5, 4.0]], ids=["default", "given"])
    @pytest.mark.parametrize("route", sorted(ALL_ROUTES))
    def test_one_resolve_grid_call_per_solve(self, monkeypatch, route, u_grid):
        from ruinlab import capitalstock, closedform, solution

        calls = []
        real = solution.resolve_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (solver, capitalstock, closedform, solution):
            monkeypatch.setattr(module, "resolve_grid", counted)
        grid = solve(self.ALL_ROUTES[route], u_max=10.0, points=11, u_grid=u_grid)
        assert len(calls) == 1
        expected = make_grid(10.0, 11) if u_grid is None else u_grid
        np.testing.assert_array_equal(grid.u, expected)

    @pytest.mark.parametrize("route", sorted(ALL_ROUTES))
    @pytest.mark.parametrize("rtol", [np.inf, np.nan, -1.0, 0.0])
    def test_every_route_rejects_invalid_tolerances(self, route, rtol):
        # the closed forms, the capital stock and certain ruin do not use it
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            solve(self.ALL_ROUTES[route], rtol=rtol)


class TestEvaluate:
    NAMES = TestSolutionProperties.NAMES
    # classical, main, risk-free with and without premiums, capital stock
    ROUTES = ["fig1-I", "fig1-II", "fig3-II", "fig4-II", "fig5-I"]

    @pytest.mark.parametrize("name", NAMES)
    def test_scalar_equals_array(self, monkeypatch, name):
        # u = 0, u0, every trajectory node, the span end where it is finite,
        # 50 seeded points and a 201-point grid, so the array takes each
        # route's dense path (the incomplete-gamma kernel on the risk-free one)
        grid, traj = solve_recording_trajectory(monkeypatch, PARAMS[name], u_max=50.0)
        hi = grid.span[1]
        rng = np.random.default_rng(11)
        parts = [[0.0], rng.uniform(0.0, min(hi, 50.0), 50), np.linspace(0.0, 50.0, 201)]
        if traj is not None:
            parts += [[grid.diagnostics["u0"]], traj.us]
        if np.isfinite(hi):
            parts.append([hi])
        us = np.concatenate(parts)
        arrays = grid.evaluate(us)
        scalars = np.array([grid.evaluate(float(u)) for u in us])
        for k in range(3):
            np.testing.assert_allclose(scalars[:, k], arrays[k], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", NAMES + ["zero"])
    def test_grid_is_evaluate_on_its_grid(self, solved, name):
        # every route samples its grid with the evaluator it keeps
        zero = ModelParams(a=0.001, b=0.1, c=0.1, lam=0.09, m=1.0)  # 2a/b^2 = 0.2
        grid = solve(zero, u_max=10.0) if name == "zero" else solved(name)
        for sampled, evaluated in zip((grid.phi, grid.dphi, grid.ddphi), grid.evaluate(grid.u)):
            assert sampled.tobytes() == evaluated.tobytes()

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("shape", [(4, 8), (4, 64)])  # 256 points take the kernel
    def test_any_shape(self, solved, name, shape):
        grid = solved(name)
        us = np.random.default_rng(3).uniform(0.0, 50.0, shape)
        flat = grid.evaluate(us.ravel())
        for got, ref in zip(grid.evaluate(us), flat):
            assert got.shape == shape
            np.testing.assert_array_equal(got, ref.reshape(shape))
        assert grid.evaluate(np.full((4, 8), 5.0))[0].shape == (4, 8)
        assert isinstance(grid.evaluate(np.array(5.0))[0], float)

    @pytest.mark.parametrize("name", ROUTES)
    def test_point_path_validates_in_floats(self, solved, name):
        grid = solved(name)
        bad = [math.nan, math.inf, -math.inf, -1.0, float(np.nextafter(grid.span[1], math.inf))]
        for u in bad + [-1] + [np.float64(b) for b in bad] + [np.array(b) for b in bad]:
            with pytest.raises(ValueError, match="finite u in the solution span"):
                grid.evaluate(u)
        for u in (5, np.float64(5.0), np.array(5.0)):
            values = grid.evaluate(u)
            assert len(values) == 3 and all(type(v) is float for v in values)
            assert values == grid.evaluate(5.0)

    @pytest.mark.parametrize("name", ["fig1-II", "fig5-I"])
    def test_point_path_reads_trajectory_once(self, solved, monkeypatch, name):
        # a float query reads one trajectory row on the main route, none on
        # the capital stock, and no array evaluator
        grid = solved(name)
        calls = []
        call, eval3 = Trajectory.__call__, grid._eval3

        def counted_call(self, u):
            calls.append("trajectory")
            return call(self, u)

        def counted_eval3(uq):
            calls.append("eval3")
            return eval3(uq)

        monkeypatch.setattr(Trajectory, "__call__", counted_call)
        monkeypatch.setattr(grid, "_eval3", counted_eval3)
        grid.evaluate(5.0)
        assert calls == (["trajectory"] if name == "fig1-II" else [])

    @pytest.mark.parametrize("p", [3.0, 2.0, 1.5, 1.0, 0.9])
    def test_point_path_near_origin_without_premiums(self, p):
        # c = 0 risk-free: phi'' = ((p - 1)/u - 1/m) phi' in logs tends at
        # u = 0 to 0, exp(-log norm), inf, -exp(-log norm)/m and -inf; at
        # p = 0.9 the log form overflows below u ~ 1e-296, where numpy
        # returns -inf and math.exp raises OverflowError
        lam = 0.09
        grid = solve(ModelParams(a=lam / p, b=0.0, c=0.0, lam=lam, m=1.0), u_max=50.0)
        near = [0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-8, 1e-3]
        us = np.concatenate((near, np.linspace(0.0, 50.0, 201)))  # the kernel's path
        arrays = grid.evaluate(us)
        scalars = np.array([grid.evaluate(u) for u in near])
        for k in range(3):
            np.testing.assert_allclose(scalars[:, k], arrays[k][: len(near)], rtol=1e-14, atol=0.0)
        if p == 0.9:
            assert scalars[2, 2] == arrays[2][2] == -math.inf
