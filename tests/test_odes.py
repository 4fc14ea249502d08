import math

import numpy as np
import pytest

from conftest import PARAMS, solve_recording_trajectory
from ruinlab import (
    IntegrationError,
    LinearOde,
    ModelParams,
    companion_volterra_field,
    eta_ode_field,
    integrate,
    main_ode_field,
    odes,
)

DECAY = LinearOde(e=0, N=((-1.0, 0.0, 0.0),), name="decay")


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_tolerance_proportionality(self):
        # over [0, 1] one step of the series is exact to rounding at either
        # tolerance, so the span is long enough for the step rule to bind
        e1, e2 = (
            abs(integrate(DECAY, 0.0, [1.0], 40.0, rtol=rtol).states[-1, 0] / math.exp(-40.0) - 1.0)
            for rtol in (1e-6, 1e-8)
        )
        assert e2 < e1 <= 1e-6

    def test_dense_output_matches_nodes(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-8)
        for i in range(len(traj.us)):
            assert traj(traj.us[i])[0] == traj.states[i, 0]

    def test_float_path_equals_array_path(self):
        # a float query does the array path's arithmetic in Python floats:
        # off the nodes, at every node, at both ends and just outside them
        osc = LinearOde(e=0, N=((-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)), name="oscillator")
        traj = integrate(osc, 0.0, [1.0, 0.0], 3.0, rtol=1e-10)
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
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-10)
        us = np.linspace(0.0, 1.0, 77)
        vals = traj(us)[:, 0]
        assert np.max(np.abs(vals - np.exp(-us))) < 1e-9

    def test_out_of_span_rejected(self):
        traj = integrate(DECAY, 0.0, [1.0], 1.0, rtol=1e-8)
        with pytest.raises(ValueError):
            traj(1.5)
        with pytest.raises(ValueError):
            traj(-0.5)

    def test_backward_span_rejected(self):
        # integration runs forward only; a reversed or empty span is refused
        for u_end in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="must be increasing"):
                integrate(DECAY, 1.0, [1.0], u_end, rtol=1e-10)

    def test_blowup_reports_abscissa(self):
        # y' = 2 u y, y = exp(u^2) leaves double range at u = sqrt(709.78) = 26.64
        system = LinearOde(e=0, N=((0.0, 2.0, 0.0),), name="blowup")
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate(system, 0.0, [1.0], 40.0, rtol=1e-8)
        assert 26.6 <= exc.value.u <= 27.0

    def test_affine_field_through_zero_state(self):
        # y' = 1 - y with y(0) = 0: y = 1 - exp(-u)
        system = LinearOde(e=0, N=((-1.0, 0.0, 0.0),), f=(1.0, 0.0, 0.0), name="affine")
        traj = integrate(system, 0.0, [0.0], 3.0, rtol=1e-11)
        us = np.linspace(0.0, 3.0, 61)
        assert np.max(np.abs(traj(us)[:, 0] - (1.0 - np.exp(-us)))) < 1e-10

    def test_steps_within_max_step(self):
        traj = integrate(DECAY, 0.0, [1.0], 2.0, rtol=10.0, max_step=0.05)
        assert np.max(np.diff(traj.us)) <= 0.05 * (1.0 + 1e-9)

    def test_step_budget(self):
        # a step of DECAY spans about 4 units at rtol 1e-10
        with pytest.raises(IntegrationError, match="budget") as exc:
            integrate(DECAY, 0.0, [1.0], 100.0, rtol=1e-10, max_steps=5)
        assert 0.0 <= exc.value.u <= 100.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0], 1.0, rtol=0.0)
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            integrate(DECAY, 0.0, [1.0, 2.0], 1.0)


class TestTaylorSteps:
    """The stepper's contract: the equation's form, the scale it carries
    apart from the state, its step budget, and each step's polynomials
    against the equation they came from."""

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"e": 3, "N": ((1.0, 0.0, 0.0),)}, "e must be"),
            ({"e": -1, "N": ((1.0, 0.0, 0.0),)}, "e must be"),
            ({"e": 0, "N": ((1.0, 0.0),)}, "shape"),
            ({"e": 0, "N": ((1.0, 0.0, 0.0, 0.0),)}, "shape"),
            ({"e": 0, "N": ()}, "shape"),
            ({"e": 0, "N": (1.0, 0.0, 0.0)}, "shape"),
            ({"e": 0, "N": ((1.0, 0.0, 0.0),), "f": (1.0, 0.0)}, "shape"),
            ({"e": 0, "N": ((1.0, math.nan, 0.0),)}, "finite"),
            ({"e": 0, "N": ((1.0, 0.0, 0.0),), "f": (0.0, 0.0, math.inf)}, "finite"),
        ],
    )
    def test_malformed_table_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LinearOde(**kwargs)

    @pytest.mark.parametrize("u_start", [0.0, -1.0])
    @pytest.mark.parametrize("e", [1, 2])
    def test_singular_equation_needs_positive_start(self, e, u_start):
        system = LinearOde(e=e, N=((-1.0, 0.0, 0.0),), name="singular")
        with pytest.raises(ValueError, match="u_start > 0"):
            integrate(system, u_start, [1.0], 1.0)

    def test_state_beyond_double_range(self):
        # y' = y from exp(-1000): below double range up to u ~ 255
        grow = LinearOde(e=0, N=((1.0, 0.0, 0.0),), name="grow")
        traj = integrate(grow, 0.0, [1.0], 1005.0, log_scale=-1000.0)
        assert traj.states[0, 0] == 0.0
        assert traj.states[-1, 0] == pytest.approx(math.exp(5.0), rel=1e-9)
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrate(grow, 0.0, [1.0], 1005.0)
        assert 600.0 <= exc.value.u <= 720.0  # exp(u) overflows at u = 709.8

    def test_tiny_budget_on_the_main_field(self):
        from ruinlab import eval_series, series_coeffs_main

        p = PARAMS["fig1-II"]
        exp = series_coeffs_main(p)
        state = np.array(eval_series(exp, 1.0, exp.u0))
        with pytest.raises(IntegrationError, match="budget") as exc:
            integrate(main_ode_field(p), exp.u0, state, 400.0, max_steps=10)
        assert exp.u0 <= exc.value.u <= 400.0

    @pytest.mark.parametrize("name", ["fig1-II", "fig5-I"])
    def test_step_polynomials_satisfy_field(self, monkeypatch, name):
        # at three interior points of every step: the derivatives of the
        # phi and phi' polynomials are the next components, and that of the
        # phi'' polynomial is what main_ode_field gives, within 1e-12 of the
        # size of its terms
        _, traj = solve_recording_trajectory(monkeypatch, PARAMS[name])
        rhs = main_ode_field(PARAMS[name]).rhs
        h = np.diff(traj.us)
        q = np.arange(len(traj.coef))
        for theta in (0.25, 0.5, 0.75):
            value = np.einsum("q,qik->ki", theta**q, traj.coef)
            slope = np.einsum("q,qik->ki", q * theta ** (q - 1.0), traj.coef) / h[:, None]
            u = traj.us[:-1] + theta * h
            zero = np.zeros_like(u)
            field = rhs(u, value.T)[2]
            scale = np.abs(rhs(u, (zero, value[:, 1], zero))[2])
            scale += np.abs(rhs(u, (zero, zero, value[:, 2]))[2])
            np.testing.assert_allclose(slope[:, :2], value[:, 1:], rtol=1e-12, atol=0.0)
            assert np.all(np.abs(slope[:, 2] - field) <= 1e-12 * scale)


class TestScan:
    """``integrate`` over ``steps`` equal steps of one equation of order
    ``dim``, y^(dim) = sum_j N_j(u) y^(j) + f(u) with random quadratics N_j
    and f = 0 (linear) or not (affine), against a step-by-step loop in
    Python floats that writes the Taylor recurrence out term by term."""

    H = 2.0**-8  # so that the step ends fall on the mesh exactly

    @staticmethod
    def sequential(N, f, us, y0):
        n = len(y0)
        ys = [[float(v) for v in y0]]
        for s, h in zip(us[:-1].tolist(), np.diff(us).tolist()):
            # N_0, .., N_(n-1) and f about s: their t^0, t^1, t^2 terms
            loc = [(c0 + s * (c1 + s * c2), c1 + 2.0 * s * c2, c2) for c0, c1, c2 in N + [f]]
            v = [x / math.factorial(l) for l, x in enumerate(ys[-1])]
            # t^k of y^(n) = sum_j N_j y^(j) + f, with t^k of y^(j) = v_(k+j) (k+j)!/k!
            for k in range(odes._TERMS - n):
                acc = loc[n][k] if k < 3 else 0.0
                for j in range(n):
                    for d in range(min(k, 2) + 1):
                        acc += loc[j][d] * v[k - d + j] * math.perm(k - d + j, j)
                v.append(acc / math.perm(k + n, n))
            ys.append([sum(x * math.perm(q, l) * h ** (q - l) for q, x in enumerate(v[l:], l)) for l in range(n)])
        return np.array(ys)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("steps", [1, 2, 255, 256, 1000])
    @pytest.mark.parametrize("affine", [False, True], ids=["linear", "affine"])
    def test_matches_sequential_loop(self, dim, steps, affine):
        rng = np.random.default_rng(100 * steps + 10 * dim + affine)
        N = rng.uniform(-1.0, 1.0, (dim, 3)).tolist()
        f = rng.uniform(-1.0, 1.0, 3).tolist() if affine else [0.0, 0.0, 0.0]
        y0 = rng.uniform(-1.0, 1.0, dim)

        system = LinearOde(e=0, N=N, f=f, name="polynomial")
        traj = integrate(system, 0.0, y0, steps * self.H, max_step=self.H)
        np.testing.assert_array_equal(traj.us, self.H * np.arange(steps + 1))
        ours, ref = traj.states, self.sequential(N, f, traj.us, y0)
        np.testing.assert_array_equal(ours[0], y0)
        # relative to the largest component reached so far: a solution may
        # pass near zero, where only absolute agreement is possible
        scale = np.maximum.accumulate(np.abs(ref).max(axis=1))[:, None]
        assert np.all(np.abs(ours - ref) <= 1e-13 * scale)


def test_four_component_linear_system():
    # y^(4) = a0 y + a1 y' + a2 y'' + a3 y^(3) in first-order form: its
    # companion matrix has eigenvalues lam and eigenvectors the columns of
    # V = (lam^i), so y(u) = V diag(exp(lam u)) V^-1 y0
    lam = np.array([-3.0, -1.0, -0.2, 0.5])
    a = -np.poly(lam)[:0:-1]
    system = LinearOde(e=0, N=[(x, 0.0, 0.0) for x in a], name="linear-4")
    V = np.vander(lam, 4, increasing=True).T
    y0 = np.array([1.0, -0.5, 0.25, 2.0])
    traj = integrate(system, 0.0, y0, 3.0, rtol=1e-11)
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
        traj = integrate(field, 0.5, [1.0, 0.0, 0.0], 5.0, rtol=1e-10)
        assert np.max(np.abs(traj.states[:, 0] - 1.0)) < 1e-12


class TestCompanionVolterraField:
    PARAMS = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)

    def test_zero_input(self):
        field = companion_volterra_field(self.PARAMS, (0.0,))
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-10)
        assert np.max(np.abs(traj.states[:, 0])) == 0.0

    def test_unit_input(self):
        field = companion_volterra_field(self.PARAMS, (1.0,))
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-11)
        us = np.linspace(0.0, 5.0, 41)
        assert np.max(np.abs(traj(us)[:, 0] - (1.0 - np.exp(-us)))) < 1e-10

    def test_array_input(self):
        field = companion_volterra_field(self.PARAMS, (0.5, -1.0, 0.25))
        us = np.array([0.0, 1.0, 2.0])
        (deriv,) = field.rhs(us, [np.full(3, 0.5)])
        assert deriv == pytest.approx((0.5 - us + 0.25 * us**2 - 0.5) / self.PARAMS.m, abs=1e-15)

    @pytest.mark.parametrize("phi", [(), (1.0, 2.0, 3.0, 4.0)])
    def test_phi_needs_one_to_three_coefficients(self, phi):
        with pytest.raises(ValueError, match="1 to 3"):
            companion_volterra_field(self.PARAMS, phi)

    def test_identity_input(self):
        field = companion_volterra_field(self.PARAMS, (0.0, 1.0))
        traj = integrate(field, 0.0, [0.0], 5.0, rtol=1e-11)
        us = np.linspace(0.0, 5.0, 41)
        exact = us - 1.0 + np.exp(-us)
        assert np.max(np.abs(traj(us)[:, 0] - exact)) < 1e-10


class TestBuildersAgainstThePaper:
    """Each builder's equation, through ``rhs``, at seeded (u, y): the
    equation written out by hand vanishes to rounding of its terms."""

    MAIN = [
        ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0),
        ModelParams(a=0.3, b=0.5, c=0.0, lam=1.7, m=0.2),
        ModelParams(a=0.0208, b=0.003, c=0.1, lam=0.09, m=3.0),
    ]

    @staticmethod
    def seeded(seed, dim):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.01, 50.0, 40), rng.uniform(-1.0, 1.0, (dim, 40))

    @pytest.mark.parametrize("k", range(3))
    def test_main(self, k):
        p = self.MAIN[k]
        a, b, c, lam, m = p.a, p.b, p.c, p.lam, p.m
        u, y = self.seeded(k, 3)
        d = main_ode_field(p).rhs(u, y)
        np.testing.assert_array_equal(d[0], y[1])
        np.testing.assert_array_equal(d[1], y[2])
        terms = (
            b * b / 2.0 * u * u * d[2],
            (c + (b * b + a) * u + b * b * u * u / (2.0 * m)) * y[2],
            (a - lam + c / m + a * u / m) * y[1],
        )
        assert np.all(np.abs(sum(terms)) <= 1e-14 * sum(map(np.abs, terms)))

    def test_eta(self):
        from ruinlab import exponents

        p = ModelParams(a=0.3, b=0.5, c=0.0, lam=1.7, m=0.2)
        _, d1, d2 = exponents(p)
        m = p.m
        u, y = self.seeded(3, 2)
        d = eta_ode_field(p).rhs(u, y)
        np.testing.assert_array_equal(d[0], y[1])
        terms = (u * u * d[1], (2.0 * d1 + u / m) * u * y[1], d2 * u / m * y[0])
        assert np.all(np.abs(sum(terms)) <= 1e-14 * sum(map(np.abs, terms)))

    def test_companion(self):
        p = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=0.7)
        u, (y,) = self.seeded(4, 1)
        (d,) = companion_volterra_field(p, (0.3, -0.02, 1e-3)).rhs(u, (y,))
        phi = 0.3 - 0.02 * u + 1e-3 * u * u
        terms = (p.m * d, y, -phi)
        assert np.all(np.abs(sum(terms)) <= 1e-14 * sum(map(np.abs, terms)))

    def test_singular_builders_refuse_the_origin_in_integrate(self):
        p = ModelParams(a=0.3, b=0.5, c=0.0, lam=1.7, m=0.2)
        for field, y0 in ((main_ode_field(p), [0.0, 1.0, 0.0]), (eta_ode_field(p), [1.0, 0.0])):
            with pytest.raises(ValueError, match="u_start > 0"):
                integrate(field, 0.0, y0, 1.0)


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
    traj = integrate(main_ode_field(p), exp.u0, state, 50.0, rtol=1e-10)
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
