import warnings

import numpy as np
import pytest

from ruinlab import (
    ModelParams,
    SolverError,
    eta_series,
    eval_series,
    integrate,
    main_ode_field,
    phi_second_derivative_at_zero,
    series_coeffs_main,
)
from ruinlab import series
from ruinlab.series import (
    _FIRST,
    _LATTICE,
    MAX_ORDER,
    ORDER,
    PHI_TOL,
    _main_poly,
    choose_u0,
    poly3,
    series_coeffs_infinity,
    truncates,
)
from conftest import fixed_order_series

FIG1_II = ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)
FIG2_I = ModelParams(a=0.02, b=0.1, c=0.02, lam=0.09, m=1.0)
FIG5_I = ModelParams(a=0.02, b=0.1, c=0.0, lam=0.09, m=1.0)
# the main expansion's first candidates from 1e-3 m up, in units of m
MAIN_CANDIDATES = np.logspace(-3.0, -1.0, 41)


class TestCoefficients:
    def test_d2_values(self):
        coeffs, _ = _main_poly(FIG1_II, 8)
        assert coeffs[0] == pytest.approx(-0.3, rel=1e-12)
        coeffs, _ = _main_poly(FIG2_I, 8)
        assert coeffs[0] == pytest.approx(2.5, rel=1e-12)

    def test_d2_first_term_vanishes(self):
        # a = lam kills the (a - lam)/c term, leaving -1/m
        p = ModelParams(a=0.09, b=0.1, c=1.0, lam=0.09, m=1.0)
        coeffs, _ = _main_poly(p, 4)
        assert coeffs[0] == pytest.approx(-1.0, rel=1e-14)

    def test_d3_hand_value(self):
        # -(D2*(b^2 + 2a - lam + c/m) + a/m) / (2c) with D2 = -0.3
        coeffs, _ = _main_poly(FIG1_II, 8)
        assert coeffs[1] == pytest.approx(-0.01, rel=1e-10)

    def test_requires_positive_c(self):
        p = ModelParams(a=0.02, b=0.1, c=0.0, lam=0.09, m=1.0)
        with pytest.raises(ValueError):
            series_coeffs_main(p)


class TestSeriesAtInfinity:
    @pytest.mark.parametrize("p", [FIG1_II, FIG2_I], ids=["fig1-II", "fig2-I"])
    def test_leading_coefficients(self, p):
        e = series_coeffs_infinity(p)
        assert len(e) == ORDER + 1 and e[0] == 1.0
        # e_1 = 2 (c - lam m) / b^2
        assert e[1] == pytest.approx(2.0 * (p.c - p.lam * p.m) / p.b**2, rel=1e-14)

    def test_e2_hand_value(self):
        # (2m/(2 b^2)) * {[(b^2/2) r + c/m - lam] e_1 - c r e_0} with r = 4, e_1 = 2
        assert series_coeffs_infinity(FIG1_II)[2] == pytest.approx(-34.0, rel=1e-12)


def truncation_rule(poly, x, tol):
    """The truncation rule one candidate at a time, in Python floats."""
    terms = [abs(float(a)) * float(x) ** k for k, a in enumerate(poly)]
    tail = terms[-max(2, (len(poly) - 1) // 3):]
    return terms[-1] <= tol and all(b <= a for a, b in zip(tail, tail[1:]))


class TestTruncates:
    @pytest.mark.parametrize(
        "poly, xs, tol",
        [
            (series_coeffs_main(FIG1_II).poly, np.logspace(-3.0, 0.0, 32), 1e-14),
            (
                series_coeffs_infinity(ModelParams(a=2.0, b=0.1, c=0.1, lam=0.09, m=1.0)),
                1.0 / (100.0 * 2.0 ** np.arange(10)),
                1e-12,
            ),
        ],
        ids=["phi-at-0", "phi-at-infinity"],
    )
    def test_array_matches_rule(self, poly, xs, tol):
        ok = truncates(poly, xs, tol)
        assert ok.dtype == bool and ok.shape == xs.shape
        assert ok.any() and not ok.all()
        assert ok.tolist() == [truncation_rule(poly, x, tol) for x in xs]
        assert ok.reshape(2, -1).tolist() == truncates(poly, xs.reshape(2, -1), tol).tolist()
        assert all(type(truncates(poly, x, tol)) is bool for x in xs)

    def test_non_finite_coefficients_never_truncate(self):
        # adjacent infinite terms give nan steps; they must not warn
        poly = np.concatenate(([1.0, 0.5], np.full(19, np.inf)))
        assert not truncates(poly, np.array([1e-3, 0.5])).any()
        assert truncates(poly, 1e-3) is False


class TestChooseU0:
    def test_typical_range(self):
        exp = fixed_order_series(FIG1_II, 20, tol=1e-12)
        assert 1e-3 <= exp.u0 <= 1e-1

    def test_zero_tail_picks_largest_candidate(self):
        poly = np.zeros(21)
        poly[:3] = 1.0, 0.9, -0.3 * 0.9 / 2  # 1 + (lam/c)(u + D_2 u^2 / 2) only
        u0 = choose_u0(poly, MAIN_CANDIDATES, tol=1e-12)
        assert u0 == pytest.approx(0.1, rel=1e-12)

    def test_impossible_tolerance_raises(self):
        _, poly = _main_poly(FIG1_II, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="truncates at no u0"):
                choose_u0(poly, FIG1_II.m * _LATTICE[:_FIRST], tol=0.0)

    def test_eta_impossible_tolerance_raises(self):
        # the capital-stock expansion takes the same rule, and raises too
        poly = np.concatenate(([1.0], eta_series(FIG5_I)))
        candidates = FIG5_I.m * np.logspace(-2.0, np.log10(0.6), 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="truncates at no u0"):
                choose_u0(poly, candidates, tol=0.0)

    def test_main_expansion_tries_lower_candidates(self):
        # 4,000-fold growth per coefficient: no u0 in m 10^[-3, -1] truncates
        p = ModelParams(a=25.0, b=1.0, c=0.005, lam=0.1, m=0.1)
        _, poly = _main_poly(p, 20)
        assert not truncates(poly, MAIN_CANDIDATES, PHI_TOL).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u0 = series_coeffs_main(p).u0
        assert u0 == pytest.approx(p.m * 10.0**-3.3, rel=1e-12)
        # where the first candidates truncate, u0 is one of them, as before
        assert series_coeffs_main(FIG2_I).u0 in MAIN_CANDIDATES

    def test_main_expansion_raises_where_none_truncates(self, monkeypatch):
        monkeypatch.setattr(series, "PHI_TOL", 0.0)
        with pytest.raises(SolverError, match="truncates at no u0"):
            series_coeffs_main(FIG1_II)


class TestSeriesOrder:
    def test_long_reach_doubles_order(self):
        # 20 terms reach the top candidate 0.1 m on fig1-II; there the
        # order grows and so does u0
        pinned = fixed_order_series(FIG1_II, 20)
        assert pinned.order == 20 and pinned.u0 == pytest.approx(0.1, rel=1e-12)
        free = series_coeffs_main(FIG1_II)
        assert ORDER < free.order <= MAX_ORDER and pinned.u0 < free.u0 <= 4.0 * FIG1_II.m
        assert len(free.poly) == free.order + 1

    def test_short_reach_keeps_order(self):
        # fig2-I: 20 terms reach only 0.089 m
        exp = series_coeffs_main(FIG2_I)
        assert exp.order == ORDER and exp.u0 < 0.1 * FIG2_I.m

    @pytest.mark.parametrize("m", [0.01, 100.0])
    def test_out_of_range_orders_fail_quietly(self, m):
        # fig1-II in units of m, its series held in x = u/m: the order-160
        # coefficients, which once overflowed at m = 0.01, and the powers
        # (4 m)^k, which did at m = 100, stay in range; nothing may warn
        p = ModelParams(a=0.02, b=0.1, c=0.1 * m, lam=0.09, m=m)
        _, poly = _main_poly(p, 160)
        assert not truncates(poly, np.array([0.5, 2.0, 4.0])).any()
        assert ORDER < series_coeffs_main(p).order < 160


class TestEvalSeries:
    def test_values_at_origin(self):
        exp = fixed_order_series(FIG1_II, 20)
        C0 = 0.7
        phi, dphi, ddphi = eval_series(exp, C0, 0.0)
        assert phi == pytest.approx(C0, rel=1e-15)
        assert dphi == pytest.approx(FIG1_II.lam * C0 / FIG1_II.c, rel=1e-15)
        assert ddphi == pytest.approx(
            phi_second_derivative_at_zero(FIG1_II, C0), rel=1e-13
        )

    def test_eta_values_at_origin(self):
        # eta(0) = 1 and eta'(0) = P_2 = -d2 / (2 m d1) = -0.6 for fig5-I
        poly = np.concatenate(([1.0], eta_series(FIG5_I)))
        eta, deta, ddeta = poly3(poly, np.array([0.0]))
        assert eta[0] == 1.0
        assert deta[0] == pytest.approx(-0.6, rel=1e-12)
        assert ddeta[0] == 2.0 * poly[2]

    def test_matches_power_sums(self):
        # the Horner sums against the termwise power sums of the truncated series
        exp = fixed_order_series(FIG1_II, 20)
        u = np.linspace(0.0, exp.u0, 7)[:, None]
        ks = np.arange(2, 21)
        D, lam_c = exp.coeffs, FIG1_II.lam / FIG1_II.c
        phi = 1.0 + lam_c * (u[:, 0] + np.sum(D * u**ks / ks, axis=1))
        dphi = lam_c * (1.0 + np.sum(D * u ** (ks - 1), axis=1))
        ddphi = lam_c * np.sum(D * (ks - 1) * u ** (ks - 2), axis=1)
        for got, want in zip(eval_series(exp, 1.0, u[:, 0]), (phi, dphi, ddphi)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        P = eta_series(FIG5_I)
        u = np.linspace(0.0, 0.6, 7)[:, None]
        ks = np.arange(1, 20)
        eta, deta, _ = poly3(np.concatenate(([1.0], P)), u[:, 0])
        np.testing.assert_allclose(eta, 1.0 + np.sum(P * u**ks, axis=1), rtol=1e-14)
        np.testing.assert_allclose(deta, np.sum(P * ks * u ** (ks - 1), axis=1), rtol=1e-14)

    def test_zero_c0_gives_zero(self):
        exp = fixed_order_series(FIG1_II, 20)
        assert eval_series(exp, 0.0, exp.u0 / 2) == (0.0, 0.0, 0.0)

    def test_linearity_in_c0(self):
        exp = fixed_order_series(FIG1_II, 20)
        u = exp.u0 * 0.7
        base = eval_series(exp, 1.0, u)
        for alpha in (2.0, 0.3, -1.5):
            scaled = eval_series(exp, alpha, u)
            for s, b in zip(scaled, base):
                assert s == alpha * b  # exact: C0 is the outermost factor

    def test_rejects_beyond_u0(self):
        exp = fixed_order_series(FIG1_II, 20)
        with pytest.raises(ValueError):
            eval_series(exp, 1.0, exp.u0 * 1.5)
        with pytest.raises(ValueError):
            eval_series(exp, 1.0, -0.01)

    def test_vectorized_matches_scalar(self):
        exp = fixed_order_series(FIG1_II, 20)
        us = np.linspace(0.0, exp.u0, 7)
        phi, dphi, ddphi = eval_series(exp, 0.5, us)
        for i, u in enumerate(us):
            p, d, dd = eval_series(exp, 0.5, float(u))
            assert (phi[i], dphi[i], ddphi[i]) == (p, d, dd)


def _series_ode_residual(exp, u):
    """Residual of the third-order equation for the truncated series.

    Computed here from the raw coefficients, independently of eval_series.
    """
    p = exp.params
    a, b, c, lam, m = p.a, p.b, p.c, p.lam, p.m
    ks = np.arange(2, exp.order + 1, dtype=float)
    d = exp.coeffs
    lam_c = lam / c
    dphi = lam_c * (1.0 + np.sum(d * u ** (ks - 1)))
    ddphi = lam_c * np.sum(d * (ks - 1) * u ** (ks - 2))
    dddphi = lam_c * np.sum(d * (ks - 1) * (ks - 2) * u ** (ks - 3))
    return (
        0.5 * b * b * u * u * dddphi
        + (c + (b * b + a) * u + b * b * u * u / (2 * m)) * ddphi
        + (a - lam + c / m + a * u / m) * dphi
    )


class TestSeriesRecurrence:
    @pytest.mark.parametrize("order", [8, 12, 20])
    def test_residual_decays_like_high_power(self, order):
        exp = fixed_order_series(FIG1_II, order)
        r_half = abs(_series_ode_residual(exp, exp.u0 / 2.0))
        r_quarter = abs(_series_ode_residual(exp, exp.u0 / 4.0))
        # above order ~10 the residual sits below double-precision roundoff,
        # where the tenfold-decay signal is unobservable
        assert r_quarter * 10.0 <= r_half or r_quarter < 1e-15

    def test_overlap_with_ode_integration(self):
        # data launched from the series at u0/2 must land on the series at u0
        exp = fixed_order_series(FIG1_II, 20, tol=1e-12)
        u_half = exp.u0 / 2.0
        state = np.array(eval_series(exp, 1.0, u_half))
        traj = integrate(
            main_ode_field(FIG1_II), u_half, state, exp.u0, rtol=1e-12
        )
        target = np.array(eval_series(exp, 1.0, exp.u0))
        diff = np.abs(traj.states[-1] - target)
        assert np.all(diff <= 1e-8 * np.maximum(1.0, np.abs(target)))
