import math
import warnings

import numpy as np
import pytest
from scipy.special import factorial, poch

from ruinlab import (
    ModelParams,
    PortfolioSpec,
    NoSolutionError,
    Trajectory,
    eta_series,
    exponents,
    phi_capital_stock,
    solve_eta,
)
from ruinlab.capitalstock import _log_zm
from ruinlab.model import effective_params
from conftest import log_mellin_normalization, mellin_normalization, solve_recording_trajectory

FIG5_I = ModelParams(a=0.02, b=0.1, c=0.0, lam=0.09, m=1.0)   # a < lam
FIG5_II = ModelParams(a=0.1, b=0.1, c=0.0, lam=0.09, m=1.0)   # a > lam

# Capital-stock points of a seeded parameter sweep on which the earlier
# U-doubling normalization raised, overflowed or missed P1; keyed by mu1.
SWEEP = {
    "mu1=0.32": ModelParams(
        a=2.3520835641654236, b=2.0065691630926192, c=0.0,
        lam=0.3134989249170023, m=0.09558983210439607,
    ),
    "mu1=1.4": ModelParams(
        a=0.006959572763324303, b=0.0916030528873356, c=0.0,
        lam=0.01241583347606694, m=4.137586012974898,
    ),
    "mu1=65": ModelParams(
        a=2.8462191286852023e-05, b=0.002942484640736445, c=0.0,
        lam=0.019600613415923816, m=0.041613259193297225,
    ),
    "mu1=14": ModelParams(
        a=0.0015121230781400398, b=0.01810893493347378, c=0.0,
        lam=0.05046170766564078, m=1.6223656165022429,
    ),
    "mu1=132": ModelParams(
        a=8.002232555787499e-06, b=0.0018542479109288723, c=0.0,
        lam=0.03093795779595703, m=0.01573007669118948,
    ),
    "mu1=6.3": ModelParams(
        a=0.003829291246315087, b=0.05724569078647061, c=0.0,
        lam=0.07929564668832814, m=9.789444901429754,
    ),
    "mu1=29": ModelParams(
        a=0.001829364664309833, b=0.033090673817231984, c=0.0,
        lam=0.4945043353662528, m=0.6151929377502456,
    ),
}


class TestExponents:
    def test_hand_values(self):
        mu1, d1, d2 = exponents(FIG5_I)
        assert mu1 == pytest.approx(3.0, rel=1e-12)
        assert d1 == pytest.approx(5.0, rel=1e-12)
        assert d2 == pytest.approx(6.0, rel=1e-12)

    def test_defining_quadratic(self):
        # mu1^2 - (1 - 2a/b^2) mu1 - 2 lam/b^2 = 0, a cancellation-sensitive
        # identity that exposes any loss of digits in the stable form
        for a in (0.02, 0.1, 1.0, 100.0):
            p = ModelParams(a=a, b=0.1, c=0.0, lam=0.09, m=1.0)
            q = 2.0 * p.a / p.b**2
            mu1, _, _ = exponents(p)
            resid = mu1 * mu1 - (1.0 - q) * mu1 - 2.0 * p.lam / p.b**2
            assert abs(resid) <= 1e-12 * (mu1 * mu1 + 2.0 * p.lam / p.b**2)

    def test_mu1_below_one_iff_lam_exceeds_a(self):
        for lam in np.linspace(0.01, 0.3, 30):
            p = ModelParams(a=0.09, b=0.1, c=0.0, lam=float(lam), m=1.0)
            mu1, _, _ = exponents(p)
            if lam < p.a:
                assert mu1 < 1.0
            elif lam > p.a:
                assert mu1 > 1.0
        p = ModelParams(a=0.09, b=0.1, c=0.0, lam=0.09, m=1.0)
        assert exponents(p)[0] == pytest.approx(1.0, rel=1e-12)

    def test_vanishing_claim_rate_limit(self):
        p = ModelParams(a=0.09, b=0.1, c=0.0, lam=1e-12, m=1.0)
        assert exponents(p)[0] < 1e-10

    def test_requires_volatility(self):
        with pytest.raises(ValueError):
            exponents(ModelParams(a=0.1, b=0.0, c=0.0, lam=0.09, m=1.0))


class TestEtaSeries:
    def test_leading_coefficients(self):
        coeffs = eta_series(FIG5_I, order=10)
        assert coeffs[0] == pytest.approx(-0.6, rel=1e-12)           # P2
        assert coeffs[1] == pytest.approx(0.6 * 7.0 / 22.0, rel=1e-12)  # P3

    @pytest.mark.parametrize("order", [0, 1])
    def test_requires_order_at_least_two(self, order):
        with pytest.raises(ValueError, match="order must be >= 2"):
            eta_series(FIG5_I, order=order)

    def test_signs_alternate(self):
        coeffs = eta_series(FIG5_I, order=15)
        signs = np.sign(coeffs)
        assert np.all(signs[:-1] * signs[1:] == -1.0)

    @pytest.mark.parametrize(
        "params",
        [FIG5_I, FIG5_II, ModelParams(a=0.02, b=0.1, c=0.0, lam=0.09, m=2.5)],
        ids=["fig5-I", "fig5-II", "fig5-I-m2.5"],
    )
    def test_kummer_taylor_coefficients(self, params):
        # eta = M(d2, 2 d1, -u/m): the u^k coefficient is
        # (d2)_k / ((2 d1)_k k!) (-1/m)^k
        _, d1, d2 = exponents(params)
        coeffs = eta_series(params, order=30)
        k = np.arange(1, len(coeffs) + 1)
        taylor = poch(d2, k) / (poch(2.0 * d1, k) * factorial(k)) * (-1.0 / params.m) ** k
        np.testing.assert_allclose(coeffs, taylor, rtol=1e-12, atol=0.0)


class TestSolveEta:
    def test_series_limits_at_origin(self):
        from ruinlab.series import poly3

        coeffs = eta_series(FIG5_I, order=20)
        eta, deta, _ = poly3(np.concatenate(([1.0], coeffs)), np.array([0.0]))
        assert eta[0] == 1.0
        assert deta[0] == pytest.approx(-0.6, rel=1e-12)

    def test_start_matches_series(self):
        from ruinlab.series import poly3

        traj = solve_eta(FIG5_I, 100.0)
        coeffs = eta_series(FIG5_I, order=20)
        eta, deta, _ = poly3(np.concatenate(([1.0], coeffs)), np.array([traj.u_start]))
        assert traj.states[0, 0] == pytest.approx(eta[0], rel=1e-14)
        assert traj.states[0, 1] == pytest.approx(deta[0], rel=1e-14)

    def test_positive_and_decaying(self):
        traj = solve_eta(FIG5_I, 300.0)
        assert np.all(traj.states[:, 0] > 0.0)
        assert traj.states[-1, 0] < traj.states[0, 0]

    def test_far_field_decay_exponent(self):
        # local log-slope near u = 200 approaches -d2
        traj = solve_eta(FIG5_I, 260.0)
        _, _, d2 = exponents(FIG5_I)
        lo, hi = 180.0, 220.0
        slope = (math.log(traj(hi)[0]) - math.log(traj(lo)[0])) / (
            math.log(hi) - math.log(lo)
        )
        assert slope == pytest.approx(-d2, rel=0.05)


class TestMellinNormalization:
    def test_fig5_i_exact_value(self):
        # (mu1, d1, d2) = (3, 5, 6): Gamma(3) Gamma(3) Gamma(10) / (Gamma(6) Gamma(7))
        assert mellin_normalization(FIG5_I) == pytest.approx(16.8, rel=1e-14)

    @pytest.mark.parametrize("params", [FIG5_I, FIG5_II], ids=["fig5-I", "fig5-II"])
    def test_matches_high_precision_quadrature(self, params):
        mpmath = pytest.importorskip("mpmath")
        mu1, d1, d2 = exponents(params)
        with mpmath.workdps(30):
            z = mpmath.quad(
                lambda s: s ** (mpmath.mpf(mu1) - 1) * mpmath.hyp1f1(d2, 2 * d1, -s / params.m),
                [0, 1, 10, 100, mpmath.inf],
            )
        assert mellin_normalization(params) == pytest.approx(float(z), rel=1e-12)


def fixed_fraction(alpha):
    """The fixed-fraction example without premiums: mu = 0.1, sigma = 0.3,
    r_f = 0.02, lam = 0.09, m = 1; r = 2a/b^2 grows like 1/alpha^2."""
    spec = PortfolioSpec(mu=0.1, sigma=0.3, r=0.02, alpha=alpha)
    return effective_params(spec, c=0.0, lam=0.09, m=1.0)


class TestLogNormalization:
    @staticmethod
    def reference(params):
        """log(Z / m^mu1) at 40 digits from the parameters' double values."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b, lam = (mpmath.mpf(v) for v in (params.a, params.b, params.lam))
            q = a / b**2
            s = mpmath.mpf(0.5) - q
            mu1 = s + mpmath.sqrt(s * s + 2 * lam / b**2)
            r = 2 * q
            lg = mpmath.loggamma
            return float(lg(mu1) + lg(r - 1) + lg(2 * mu1 + r) - lg(mu1 + r - 1) - lg(mu1 + r))

    @pytest.mark.parametrize(
        "params",
        [FIG5_I, FIG5_II, *SWEEP.values()]
        + [fixed_fraction(al) for al in (0.3, 0.03, 0.01, 3e-3, 1e-3, 1e-4)]
        + [ModelParams(a=r * 0.005, b=0.1, c=0.0, lam=0.09, m=1.0) for r in (20.5, 21.0, 30.0)],
        ids=["fig5-I", "fig5-II", *SWEEP]
        + [f"alpha={al:g}" for al in (0.3, 0.03, 0.01, 3e-3, 1e-3, 1e-4)]
        + ["r=20.5", "r=21", "r=30"],
    )
    def test_matches_mpmath(self, params):
        # the two log-gamma ratios cancel at large r: up to r = 4.5e7 at
        # alpha = 1e-4, and across the switch to Stirling's series at r = 21;
        # a large log Z (279 at mu1 = 65) holds 4 ulp of itself
        mu1, d1, d2 = exponents(params)
        log_zm = _log_zm(mu1, d1, d2, params.robustness())
        ref = self.reference(params)
        assert abs(log_zm - ref) <= max(1e-13, 4.0 * math.ulp(ref))


class TestPhiCapitalStock:
    @pytest.mark.parametrize("params", [FIG5_I, FIG5_II], ids=["fig5-I", "fig5-II"])
    def test_p1_against_mellin_oracle(self, params):
        grid = phi_capital_stock(params, u_max=50.0)
        assert grid.diagnostics["P1"] == pytest.approx(
            1.0 / mellin_normalization(params), rel=1e-6
        )

    def test_shape_invariants(self):
        grid = phi_capital_stock(FIG5_I, u_max=50.0)
        assert grid.phi[0] == 0.0 and grid.C0 == 0.0
        assert np.all(np.diff(grid.phi) >= 0.0)
        assert np.all((grid.phi >= 0.0) & (grid.phi <= 1.0 + 1e-10))
        assert grid.evaluate(200.0)[0] > 0.999
        assert grid.tail is not None and grid.tail.stability < 1e-3

    def test_slope_at_origin_classification(self):
        low = phi_capital_stock(FIG5_I, u_max=10.0)    # a < lam: mu1 > 1
        assert low.dphi[0] == 0.0
        high = phi_capital_stock(FIG5_II, u_max=10.0)  # a > lam: mu1 < 1
        assert high.dphi[0] == math.inf
        assert high.evaluate(0.2)[0] > 0.0  # the slope is integrable

    def test_concave_when_a_dominates(self):
        grid = phi_capital_stock(FIG5_II, u_max=50.0)
        inner = grid.u > 0.0
        assert np.all(grid.ddphi[inner] <= 1e-10)

    def test_single_inflection_when_lam_dominates(self):
        grid = phi_capital_stock(FIG5_I, u_grid=np.linspace(0.0, 50.0, 2001))
        signs = np.sign(grid.ddphi[1:])
        changes = np.sum(signs[:-1] * signs[1:] < 0.0)
        assert changes == 1

    def test_integrand_positive(self):
        grid = phi_capital_stock(FIG5_I, u_max=50.0)
        us = np.linspace(0.01, 50.0, 200)
        _, dphi, _ = grid.evaluate(us)
        assert np.all(dphi > 0.0)

    def test_nonrobust_shares_diverge(self):
        p = ModelParams(a=0.001, b=0.1, c=0.0, lam=0.09, m=1.0)
        with pytest.raises(NoSolutionError):
            phi_capital_stock(p, u_max=10.0)

    def test_rejects_premiums(self):
        with pytest.raises(ValueError):
            phi_capital_stock(ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0))

    def test_log_p1_reported_when_p1_underflows(self):
        # mu1 = 200, 2a/b^2 = 30, m = 100: log Z is about 1990, so P1 is 0.0
        p = ModelParams(a=0.15, b=0.1, c=0.0, lam=229.0, m=100.0)
        assert exponents(p)[0] == pytest.approx(200.0, rel=1e-12)
        grid = phi_capital_stock(p)
        log_p1 = grid.diagnostics["log_P1"]
        assert math.isfinite(log_p1)
        assert log_p1 == pytest.approx(-log_mellin_normalization(p), rel=1e-12)
        assert np.all(np.diff(grid.phi) >= 0.0)
        assert np.all((grid.phi >= 0.0) & (grid.phi <= 1.0))

    def test_scalar_and_array_evaluate_agree(self):
        grid = phi_capital_stock(FIG5_I, u_max=50.0)
        us = np.concatenate(([0.0, 0.3], np.linspace(0.5, 200.0, 41)))
        arrays = grid.evaluate(us)
        for i, u in enumerate(us):
            for got, ref in zip(grid.evaluate(float(u)), arrays):
                assert got == pytest.approx(ref[i], rel=1e-12, abs=0.0)

    def test_second_derivative_overflows_near_origin(self):
        # fig5-II: mu1 = 0.904, so phi'' ~ u^(mu1 - 2) is beyond double range
        # at u = 1e-300; both paths return -inf, with no overflow warning
        grid = phi_capital_stock(FIG5_II)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid.evaluate(np.array([1e-300, 1.0]))[2][0] == -np.inf
            assert grid.evaluate(1e-300)[2] == -np.inf

    @pytest.mark.parametrize("name", ["mu1=29", "mu1=65", "mu1=132"])
    def test_point_path_agrees_at_large_mu1(self, name):
        # the density P1 u^(mu1-1) eta in logs: the factor mu1 - 1 would
        # amplify a last-bit difference of the log
        grid = phi_capital_stock(SWEEP[name])
        us = np.linspace(0.0, grid.span[1], 201)
        arrays = grid.evaluate(us)
        scalars = np.array([grid.evaluate(u) for u in us.tolist()])
        for k in range(3):
            np.testing.assert_allclose(scalars[:, k], arrays[k], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "params",
        [FIG5_I, FIG5_II, SWEEP["mu1=6.3"], SWEEP["mu1=14"]],
        ids=["fig5-I", "fig5-II", "mu1=6.3", "mu1=14"],
    )
    def test_phi_matches_high_precision_quadrature(self, params):
        # phi(u) = int_0^u s^(mu1-1) M(d2, 2 d1, -s/m) ds / Z at 30 digits,
        # with Z from mpmath's own Gamma
        mpmath = pytest.importorskip("mpmath")
        mu1, d1, d2 = exponents(params)
        grid = phi_capital_stock(params)
        with mpmath.workdps(30):
            mu, a, b, m = (mpmath.mpf(v) for v in (mu1, d2, 2.0 * d1, params.m))
            z = (
                m**mu * mpmath.gamma(mu) * mpmath.gamma(a - mu) * mpmath.gamma(b)
                / (mpmath.gamma(a) * mpmath.gamma(b - mu))
            )
            for x in (0.5, 5.0, 50.0):
                ref = mpmath.quad(
                    lambda s: s ** (mu - 1) * mpmath.hyp1f1(a, b, -s / m),
                    [0, min(x, 1.0) * m, x * m],
                ) / z
                phi = grid.evaluate(x * params.m)[0]
                assert phi == pytest.approx(float(ref), rel=1e-12), f"u/m = {x}"


class TestSweepRegressions:
    @pytest.mark.parametrize("params", list(SWEEP.values()), ids=list(SWEEP))
    def test_solves_cleanly(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = phi_capital_stock(params)
        assert np.all(np.diff(grid.phi) >= 0.0)
        assert np.all((grid.phi >= 0.0) & (grid.phi <= 1.0 + 1e-10))
        assert grid.diagnostics["P1"] == pytest.approx(
            1.0 / mellin_normalization(params), rel=1e-12
        )


class TestOriginLimits:
    """phi'(0+) and phi''(0+) of phi' = P1 u^(mu1-1) (1 + P_2 u + ...) at
    the exact exponents mu1 = 1 and mu1 = 2 (b = 0.5, a = 0.25)."""

    @staticmethod
    def _origin_values(params):
        grid = phi_capital_stock(params, u_max=10.0)
        short = grid.evaluate(np.array([0.0, 0.5]))
        return grid, [
            (grid.dphi[0], grid.ddphi[0]),
            (short[1][0], short[2][0]),
            grid.evaluate(0.0)[1:],
        ]

    def test_exponent_one(self):
        params = ModelParams(a=0.25, b=0.5, c=0.0, lam=0.25, m=1.0)
        assert exponents(params)[0] == 1.0
        grid, values = self._origin_values(params)
        p1 = grid.diagnostics["P1"]
        for dphi, ddphi in values:
            assert dphi == p1
            assert ddphi == p1 * eta_series(params)[0]

    def test_exponent_two(self):
        params = ModelParams(a=0.25, b=0.5, c=0.0, lam=0.75, m=1.0)
        assert exponents(params)[0] == 2.0
        grid, values = self._origin_values(params)
        for dphi, ddphi in values:
            assert dphi == 0.0
            assert ddphi == grid.diagnostics["P1"]


class TestDenseOutput:
    POINTS = {"fig5-I": FIG5_I, "fig5-II": FIG5_II, **SWEEP}

    @pytest.mark.parametrize("params", list(POINTS.values()), ids=list(POINTS))
    def test_antiderivative_contract(self, monkeypatch, params):
        grid, traj = solve_recording_trajectory(monkeypatch, params)
        nodes = traj.us
        phi = grid.evaluate(nodes)[0]
        # continuous across every step end
        left = grid.evaluate(np.nextafter(nodes, 0.0))[0]
        assert np.max(np.abs(phi - left)) <= 1e-15
        dense = grid.evaluate(np.linspace(0.0, grid.span[1], 10_001))[0]
        assert np.all(np.diff(dense) >= 0.0)
        # node values: the series value at u0 plus the integrals of the
        # trajectory's phi' over the steps, by a 16-point Gauss-Legendre rule,
        # exact for its polynomials of degree 29
        x, w = np.polynomial.legendre.leggauss(16)
        half = 0.5 * np.diff(nodes)
        s = (0.5 * (nodes[1:] + nodes[:-1]))[:, None] + half[:, None] * x
        density = traj(s.ravel())[:, 1].reshape(s.shape)
        per_step = half * (density @ w)
        expected = grid.evaluate(nodes[0])[0] + np.concatenate(([0.0], np.cumsum(per_step)))
        np.testing.assert_allclose(phi, expected, rtol=1e-12, atol=1e-15)
        # phi' at the nodes is the density P1 u^(mu1 - 1) eta(u), formed here
        # in logs from the diagnostics, with eta from its own equation
        mu1, log_p1 = grid.diagnostics["mu1"], grid.diagnostics["log_P1"]
        eta = solve_eta(params, nodes[-1])(nodes)[:, 0]
        with np.errstate(under="ignore"):
            density = np.exp(log_p1 + (mu1 - 1.0) * np.log(nodes)) * eta
        np.testing.assert_allclose(traj.states[:, 1], density, rtol=1e-9, atol=1e-300)

    def test_nonpositive_density_raises(self, monkeypatch):
        from ruinlab import SolverError, odes

        integrate = odes.integrate

        def flipped(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            traj.states[5, 1] = -traj.states[5, 1]
            return traj

        monkeypatch.setattr(odes, "integrate", flipped)
        with pytest.raises(SolverError, match="not positive"):
            phi_capital_stock(FIG5_I)

    def test_one_trajectory_call_per_evaluation(self, monkeypatch):
        grid = phi_capital_stock(FIG5_I)
        calls = []
        call = Trajectory.__call__

        def counted(self, u):
            calls.append(np.size(u))
            return call(self, u)

        monkeypatch.setattr(Trajectory, "__call__", counted)
        grid.evaluate(np.linspace(0.0, 50.0, 10_001))
        assert len(calls) == 1  # the series covers u <= u0
