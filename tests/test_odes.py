import math

import numpy as np
import pytest

from ruinlab import (
    IntegrationError,
    ModelParams,
    OdeSystem,
    companion_volterra_field,
    eta_ode_field,
    integrate,
    main_ode_field,
)
from ruinlab import odes

DECAY = OdeSystem(dimension=1, rhs=lambda u, y: (-y[0],), name="decay")


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_fixed_step_order_is_five(self):
        # with error control disabled by huge tolerances, halving the step
        # must shrink the error by ~2^5 (within a factor of two)
        errs = []
        for h in (0.05, 0.025):
            traj = integrate(DECAY, 0.0, [1.0], 2.0, rtol=10.0, atol=10.0, max_step=h)
            errs.append(abs(traj.states[-1, 0] - math.exp(-2.0)))
        ratio = errs[0] / errs[1]
        assert 16.0 <= ratio <= 64.0

    def test_tolerance_proportionality(self):
        e1 = abs(
            integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-6, atol=1e-9).states[-1, 0]
            - math.exp(-1.0)
        )
        e2 = abs(
            integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-8, atol=1e-11).states[-1, 0]
            - math.exp(-1.0)
        )
        assert e2 < e1

    def test_dense_output_matches_nodes(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-8, atol=1e-10)
        for i in range(len(traj.us)):
            assert traj(traj.us[i])[0] == traj.states[i, 0]

    def test_float_path_equals_array_path(self):
        # a float query does the array path's arithmetic in Python floats:
        # off the nodes, at every node, at both ends and just outside them
        osc = OdeSystem(dimension=2, rhs=lambda u, y: (y[1], -y[0]), name="oscillator")
        traj = integrate(osc, 0.0, [1.0, 0.0], 3.0, rtol=1e-10, atol=1e-12)
        rng = np.random.default_rng(2)
        us = np.concatenate((rng.uniform(0.0, 3.0, 50), traj.us, [-1e-10, 3.0 + 1e-10]))
        for u, row in zip(us, traj(us)):
            got = traj(float(u))
            assert type(got) is list and all(type(v) is float for v in got)
            np.testing.assert_array_equal(got, row)
        assert traj(3) == traj.states[-1].tolist()
        for bad in (math.nan, -0.5, 3.5):
            with pytest.raises(ValueError, match="outside trajectory span"):
                traj(bad)

    def test_dense_output_accuracy(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12)
        us = np.linspace(0.0, 1.0, 77)
        vals = traj(us)[:, 0]
        assert np.max(np.abs(vals - np.exp(-us))) < 1e-9

    def test_out_of_span_rejected(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-8, atol=1e-10)
        with pytest.raises(ValueError):
            traj(1.5)
        with pytest.raises(ValueError):
            traj(-0.5)

    def test_backward_span_rejected(self):
        # integration runs forward only; a reversed or empty span is refused
        for u_end in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="must be increasing"):
                integrate(DECAY, 1.0, [1.0], u_end, rtol=1e-10, atol=1e-12)

    def test_blowup_reports_abscissa(self):
        # y' = y/(1-u)^2 is linear, y = exp(u/(1-u)) blows up at u = 1
        system = OdeSystem(dimension=1, rhs=lambda u, y: (y[0] / (1.0 - u) ** 2,), name="blowup")
        with pytest.raises(IntegrationError) as exc:
            integrate(system, 0.0, [1.0], 2.0, rtol=1e-8, atol=1e-10)
        assert exc.value.u is not None
        assert 0.8 <= exc.value.u <= 1.2  # true blow-up time is u = 1

    def test_non_affine_field_rejected(self):
        system = OdeSystem(dimension=1, rhs=lambda u, y: (y[0] * y[0],), name="square")
        with pytest.raises(ValueError, match="not affine"):
            integrate(system, 0.0, [1.0], 0.5, rtol=1e-8, atol=1e-10)

    def test_affine_field_through_zero_state(self):
        # y' = 1 - y with y(0) = 0: y = 1 - exp(-u)
        system = OdeSystem(dimension=1, rhs=lambda u, y: (1.0 - y[0],), name="affine")
        traj = integrate(system, 0.0, [0.0], 3.0, rtol=1e-11, atol=1e-13)
        us = np.linspace(0.0, 3.0, 61)
        assert np.max(np.abs(traj(us)[:, 0] - (1.0 - np.exp(-us)))) < 1e-10

    def test_steps_within_max_step(self):
        traj = integrate(DECAY, 0.0, [1.0], 2.0, rtol=10.0, atol=10.0, max_step=0.05)
        assert np.max(np.diff(traj.us)) <= 0.05 * (1.0 + 1e-9)

    def test_counters(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12)
        assert traj.rounds >= 2  # the pilot and the equidistributed mesh
        assert traj.built >= len(traj.us) - 1

    def test_step_budget(self):
        with pytest.raises(IntegrationError, match="budget") as exc:
            integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10, atol=1e-12, max_steps=5)
        assert 0.0 <= exc.value.u <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0], 1.0, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0, 2.0], 1.0)

    def test_wrong_rhs_dimension_rejected(self):
        # a zip over the components would silently drop the extra one
        system = OdeSystem(dimension=1, rhs=lambda u, y: (-y[0], 0.0), name="wide")
        with pytest.raises(ValueError, match="components"):
            integrate(system, 0.0, [1.0], 1.0)


class TestScan:
    """``odes._scan``, whose prefix products reorder the arithmetic, against
    the step-by-step recursion y_{k+1} = y_k + S_k (y_k, 1) in Python floats."""

    @staticmethod
    def sequential(S, y0):
        ys = [[float(v) for v in y0]]
        for Sk in S.tolist():
            z = ys[-1] + [1.0]
            ys.append([v + sum(s * w for s, w in zip(row, z)) for v, row in zip(ys[-1], Sk)])
        return np.array(ys)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("steps", [1, 2, 255, 256, 1000])
    @pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
    def test_matches_sequential_loop(self, dim, steps, affine):
        rng = np.random.default_rng(100 * steps + 10 * dim + affine)
        S = rng.uniform(-0.02, 0.02, (steps, dim, dim + 1))
        if not affine:
            S[:, :, dim] = 0.0
        y0 = rng.uniform(-1.0, 1.0, dim)
        ours, ref = odes._scan(S, y0), self.sequential(S, y0)
        assert ours.shape == (steps + 1, dim)
        np.testing.assert_array_equal(ours[0], y0)
        # relative to the largest component reached so far: an affine state
        # may pass near zero, where only absolute agreement is possible
        scale = np.maximum.accumulate(np.abs(ref).max(axis=1))[:, None]
        assert np.all(np.abs(ours - ref) <= 1e-13 * scale)


def test_four_component_linear_system():
    # y' = A y with A = V diag(lam) V^-1, so y(u) = V diag(exp(lam u)) V^-1 y0
    lam = np.array([-3.0, -1.0, -0.2, 0.5])
    V = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 2.0, 1.0, 0.0], [0.0, 0.0, 2.0, 1.0], [1.0, 0.0, 0.0, 2.0]])
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    system = OdeSystem(
        dimension=4, rhs=lambda u, y: np.tensordot(A, np.asarray(y, dtype=float), axes=1), name="linear-4"
    )
    y0 = np.array([1.0, -0.5, 0.25, 2.0])
    traj = integrate(system, 0.0, y0, 3.0, rtol=1e-11, atol=1e-13)
    c = np.linalg.solve(V, y0)
    exact = (np.exp(np.outer(traj.us, lam)) * c) @ V.T
    scale = np.abs(exact).max(axis=1)
    assert np.all(np.abs(traj.states - exact).max(axis=1) <= 1e-11 * scale)


class TestMainOdeField:
    PARAMS = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)

    def test_constant_state_is_stationary(self):
        field = main_ode_field(self.PARAMS)
        deriv = np.asarray(field.rhs(1.0, np.array([0.7, 0.0, 0.0])))
        assert np.all(deriv == 0.0)

    def test_hand_evaluated_third_derivative(self):
        field = main_ode_field(self.PARAMS)
        deriv = np.asarray(field.rhs(1.0, np.array([0.0, 0.0, 1.0])))
        # -(c + (b^2 + a) + b^2/(2m)) / (b^2/2) = -0.135/0.005
        assert deriv[2] == pytest.approx(-27.0, rel=1e-12)

    def test_field_linearity(self):
        field = main_ode_field(self.PARAMS)
        y = np.array([0.3, -0.2, 0.9])
        d1 = np.asarray(field.rhs(2.5, y))
        d2 = np.asarray(field.rhs(2.5, 2.0 * y))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-14)

    def test_singular_origin_rejected(self):
        field = main_ode_field(self.PARAMS)
        with pytest.raises(ValueError):
            field.rhs(0.0, np.zeros(3))

    def test_singular_origin_rejected_in_arrays(self):
        field = main_ode_field(self.PARAMS)
        with pytest.raises(ValueError):
            field.rhs(np.array([1.0, 0.0]), np.zeros((3, 2)))

    def test_array_matches_scalar(self):
        field = main_ode_field(self.PARAMS)
        us = np.array([0.5, 2.5, 40.0])
        ys = np.array([[0.3, -0.2, 0.9], [1.0, 0.1, 0.0], [0.7, 1e-3, -2e-4]])
        batch = np.array(field.rhs(us, ys.T))
        for k in range(3):
            assert batch[:, k] == pytest.approx(np.asarray(field.rhs(us[k], ys[k])), rel=1e-15)

    def test_constant_trajectory(self):
        field = main_ode_field(self.PARAMS)
        traj = integrate(field, 0.5, [1.0, 0.0, 0.0], 5.0, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(traj.states[:, 0] - 1.0)) < 1e-12


class TestCompanionVolterraField:
    PARAMS = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)

    def test_zero_input(self):
        field = companion_volterra_field(self.PARAMS, lambda u: 0.0)
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(traj.states[:, 0])) == 0.0

    def test_unit_input(self):
        field = companion_volterra_field(self.PARAMS, lambda u: 1.0)
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-11, atol=1e-13)
        us = np.linspace(0.0, 5.0, 41)
        assert np.max(np.abs(traj(us)[:, 0] - (1.0 - np.exp(-us)))) < 1e-10

    def test_array_input(self):
        field = companion_volterra_field(self.PARAMS, np.sin)
        us = np.array([0.0, 1.0, 2.0])
        (deriv,) = field.rhs(us, [np.full(3, 0.5)])
        assert deriv == pytest.approx((np.sin(us) - 0.5) / self.PARAMS.m, rel=1e-15)

    def test_identity_input(self):
        field = companion_volterra_field(self.PARAMS, lambda u: u)
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-11, atol=1e-13)
        us = np.linspace(0.0, 5.0, 41)
        exact = us - 1.0 + np.exp(-us)
        assert np.max(np.abs(traj(us)[:, 0] - exact)) < 1e-10


class TestEtaOdeField:
    PARAMS = ModelParams(a=0.02, b=0.1, c=0.0, lam=0.09, m=1.0)

    def test_hand_evaluated_second_derivative(self):
        field = eta_ode_field(self.PARAMS)
        deriv = np.asarray(field.rhs(1.0, np.array([1.0, 0.0])))
        # with d2 = 6, m = 1: eta'' = -d2 * eta = -6
        assert deriv[1] == pytest.approx(-6.0, rel=1e-12)

    def test_trivial_solution(self):
        field = eta_ode_field(self.PARAMS)
        assert np.all(np.asarray(field.rhs(2.0, np.zeros(2))) == 0.0)

    def test_linearity(self):
        field = eta_ode_field(self.PARAMS)
        y = np.array([0.4, -0.1])
        assert np.asarray(field.rhs(1.5, 2.0 * y)) == pytest.approx(
            2.0 * np.asarray(field.rhs(1.5, y)), rel=1e-14
        )

    def test_singular_origin_rejected(self):
        field = eta_ode_field(self.PARAMS)
        with pytest.raises(ValueError):
            field.rhs(0.0, np.ones(2))


def test_main_trajectory_increasing_while_slope_positive():
    # sanity monitor: with positive-slope initial data the solution keeps
    # rising as long as its slope stays positive
    from ruinlab import ModelParams, eval_series, series_coeffs_main

    p = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)
    exp = series_coeffs_main(p)
    state = np.array(eval_series(exp, 1.0, exp.u0))
    traj = integrate(main_ode_field(p), exp.u0, state, 50.0, rtol=1e-10, atol=1e-12)
    positive = traj.states[:, 1] > 0.0
    assert np.all(positive)
    assert np.all(np.diff(traj.states[:, 0]) > 0.0)


class TestAgainstDop853:
    """Node states and dense output against scipy's DOP853 at rtol 1e-13.

    Each component is compared relative to its largest magnitude on the
    span: the power-law components fall far below the absolute tolerance.
    """

    @staticmethod
    def main_case(name):
        from ruinlab import PRESETS, eval_series, series_coeffs_main

        p = PRESETS[name].params
        exp = series_coeffs_main(p)
        return main_ode_field(p), exp.u0, np.array(eval_series(exp, 1.0, exp.u0)), 400.0 * p.m

    @staticmethod
    def eta_case(name):
        from ruinlab import PRESETS, solve_eta

        p = PRESETS[name].params
        start = solve_eta(p, 200.0 * p.m)
        return eta_ode_field(p), start.us[0], start.states[0], 200.0 * p.m

    @pytest.mark.parametrize("case", ["fig1-II", "fig2-II", "fig5-I eta"])
    def test_matches_dop853(self, case):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        name = case.split()[0]
        field, u0, y0, u1 = self.eta_case(name) if case.endswith("eta") else self.main_case(name)
        traj = integrate(field, u0, y0, u1)
        ref = solve_ivp(
            lambda u, y: np.array(field.rhs(u, y)), (u0, u1), y0,
            method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True,
        )
        off_node = np.random.default_rng(5).uniform(u0, u1, 1000)
        for us, ours in ((traj.us, traj.states), (off_node, traj(off_node))):
            exact = ref.sol(us).T
            scale = np.abs(exact).max(axis=0)
            assert np.all(np.abs(ours - exact) <= 1e-9 * scale)
