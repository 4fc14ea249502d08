import math
import warnings

import numpy as np
import pytest
from scipy.special import factorial, poch

from ruinlab import (
    ModelParams,
    PortfolioSpec,
    NoSolutionError,
    SolverError,
    Trajectory,
    eta_series,
    exponents,
    phi_capital_stock,
    riskfree_exact,
    solve,
    solve_eta,
)
from ruinlab.capitalstock import _log_w0
from ruinlab.model import effective_params
from conftest import log_mellin_normalization, mellin_normalization

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
        log_zm = math.lgamma(mu1) - _log_w0(mu1, d1, d2, params.robustness())
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
        assert grid.tail is not None and grid.tail.A == pytest.approx(mellin_normalization(FIG5_I))

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
    def test_antiderivative_contract(self, params):
        grid = phi_capital_stock(params)
        m, U = params.m, grid.span[1]
        # continuous at every edge where the sums change band or form, or the
        # series at infinity takes over, to the rounding of u^(mu1-1) (1e-13
        # at mu1 = 132), and monotone over the span
        edges = np.array(grid.diagnostics["edges"])
        assert edges.size >= 1 and edges[-1] <= U
        right = grid.evaluate(np.nextafter(edges, np.inf))
        for a, b in zip(grid.evaluate(edges), right):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-300)
        dense = grid.evaluate(np.linspace(0.0, U, 10_001))
        assert np.all(np.diff(dense[0]) >= 0.0) and dense[0][-1] <= 1.0
        assert np.all(dense[1][1:] >= 0.0)
        # phi at the nodes: its value at the first plus the integrals of phi'
        # over the steps, by a 16-point Gauss-Legendre rule on a geometric
        # mesh that resolves u^(mu1-1) near 0
        nodes = np.geomspace(1e-2 * m, U, 400)
        x, w = np.polynomial.legendre.leggauss(16)
        half = 0.5 * np.diff(nodes)
        s = (0.5 * (nodes[1:] + nodes[:-1]))[:, None] + half[:, None] * x
        per_step = half * (grid.evaluate(s.ravel())[1].reshape(s.shape) @ w)
        phi = grid.evaluate(nodes)[0]
        expected = phi[0] + np.concatenate(([0.0], np.cumsum(per_step)))
        np.testing.assert_allclose(phi, expected, rtol=1e-12, atol=1e-15)
        # phi' at the nodes is the density P1 u^(mu1 - 1) eta(u), formed here
        # in logs from the diagnostics, with eta from its own equation
        mu1, log_p1 = grid.diagnostics["mu1"], grid.diagnostics["log_P1"]
        eta = solve_eta(params, U)(nodes[nodes >= 0.6 * m])[:, 0]
        with np.errstate(under="ignore"):
            density = np.exp(log_p1 + (mu1 - 1.0) * np.log(nodes[nodes >= 0.6 * m])) * eta
        np.testing.assert_allclose(
            grid.evaluate(nodes[nodes >= 0.6 * m])[1], density, rtol=1e-9, atol=1e-300
        )

    def test_never_integrates(self, monkeypatch):
        from ruinlab import odes, solver

        def refuse(*args, **kwargs):
            raise AssertionError("the capital stock integrates nothing")

        for target, name in ((odes, "integrate"), (solver, "integrate"), (Trajectory, "__call__")):
            monkeypatch.setattr(target, name, refuse)
        grid = solve(FIG5_I)
        grid.evaluate(np.linspace(0.0, grid.span[1], 10_001))
        grid.evaluate(5.0)


def mpmath_reference(params, us):
    """(phi, phi', phi'') at ``us`` from 40-digit mpmath, in the alternating
    form phi' = P1 u^(mu1-1) M(d2, 2 d1, -u/m): phi' and phi'' from
    ``hyp1f1``, and phi = P1 u^mu1 2F2(d2, mu1; 2 d1, mu1 + 1; -u/m) / mu1,
    its termwise integral, from ``hyp2f2``."""
    mpmath = pytest.importorskip("mpmath")
    mu1, d1, d2 = exponents(params)
    with mpmath.workdps(40):
        mu, a, b, m = (mpmath.mpf(v) for v in (mu1, d2, 2.0 * d1, params.m))
        z = (
            m**mu * mpmath.gamma(mu) * mpmath.gamma(a - mu) * mpmath.gamma(b)
            / (mpmath.gamma(a) * mpmath.gamma(b - mu))
        )

        def dphi(s):
            return s ** (mu - 1) * mpmath.hyp1f1(a, b, -s / m) / z

        out = []
        for u in map(mpmath.mpf, us):
            ddphi = (
                (mu - 1) * u ** (mu - 2) * mpmath.hyp1f1(a, b, -u / m)
                - u ** (mu - 1) * a / (b * m) * mpmath.hyp1f1(a + 1, b + 1, -u / m)
            ) / z
            phi = u**mu / mu * mpmath.hyp2f2(a, mu, b, mu + 1, -u / m) / z
            out.append((float(phi), float(dphi(u)), float(ddphi)))
    return np.array(out).T


# sweep seed 5, point 14 of ``perfbench/sweep.py``: mu1 = 140
MU1_140 = ModelParams(
    a=7.231753495743007e-06, b=0.0017675174709525098, c=0.0,
    lam=0.031376409604955746, m=0.01611775550864503,
)


class TestClosedForm:
    @pytest.mark.parametrize(
        "params, rtol",
        [(FIG5_I, 2e-14), (FIG5_II, 2e-14), (MU1_140, 2e-13)],
        ids=["fig5-I", "fig5-II", "mu1=140"],
    )
    def test_matches_mpmath(self, params, rtol):
        # at mu1 = 140 the scale (mu1 - 1) log u reaches 670 in magnitude and
        # holds 1.1e-13 of rounding
        grid = phi_capital_stock(params)
        us = params.m * np.array([0.5, 3.0, 12.5, 37.0, 64.0, 120.0, 199.0])
        ref = mpmath_reference(params, us)
        got = grid.evaluate(us)
        live = ref[0] > 1e-300
        np.testing.assert_allclose(got[0][live], ref[0][live], rtol=rtol, atol=0.0)
        np.testing.assert_allclose(got[1][live], ref[1][live], rtol=rtol, atol=0.0)
        assert np.max(np.abs(got[2] - ref[2])) <= rtol * np.max(np.abs(ref[2]))

    @pytest.mark.parametrize(
        "params, xs",
        [
            (FIG5_II, [16.0, 20.0, 40.0, 63.0, 100.0, 150.0]),
            (ModelParams(a=0.02, b=0.1, c=0.0, lam=1e-3, m=1.0), [56.0, 60.0, 63.5]),
            (fixed_fraction(0.03), [22.0, 50.0]),
        ],
        ids=["fig5-II", "r=4", "alpha=0.03"],
    )
    def test_flat_phi_to_the_last_bit(self, params, xs):
        # where 1 - phi < 2^-20 the bands sum 1 - phi itself, from suffix sums
        # of the weights and Q(mu1, x); phi is then within one unit of 2^-53
        # of its 40-digit value.  The weights' tail past the last one is
        # summed in Thomae's form on fig5-II and at r = 4, where leaving it
        # out moves phi by 1.9e-8, and as it stands at alpha = 0.03
        grid = phi_capital_stock(params)
        assert grid.diagnostics["edges"][0] < xs[0] * params.m
        us = params.m * np.array(xs)
        assert np.all(np.abs(grid.evaluate(us)[0] - mpmath_reference(params, us)[0]) <= 2.0**-53)

    @pytest.mark.parametrize("params", [FIG5_I, FIG5_II], ids=["fig5-I", "fig5-II"])
    def test_huge_span_sizes_sums_to_far_field(self, params, monkeypatch):
        # u_max = 1e8 m: the weights stop at the far field (x = 64 or 160),
        # not at U/m
        from ruinlab import capitalstock

        sizes = []
        weights = capitalstock._weights
        monkeypatch.setattr(
            capitalstock, "_weights", lambda *args: sizes.append(args[-1]) or weights(*args)
        )
        grid = phi_capital_stock(params, u_max=1e8 * params.m)
        assert sizes[0] <= 500 and grid.diagnostics["edges"][-1] <= 160.0 * params.m
        phi, dphi, ddphi = grid.evaluate(np.array([1e3, 1e6, 1e8]) * params.m)
        assert np.all(phi <= 1.0) and np.all(dphi > 0.0) and np.all(ddphi < 0.0)

    def test_term_budget(self):
        # alpha = 1e-4 (r = 4.4e7): the series at infinity truncates nowhere
        # below x = 1e8, so the sums would need 1e8 weights
        with pytest.raises(SolverError, match="terms"):
            phi_capital_stock(fixed_fraction(1e-4), u_max=1e8)

    @pytest.mark.parametrize("params", [FIG5_I, FIG5_II], ids=["fig5-I", "fig5-II"])
    def test_long_span(self, params):
        # u_max = 1e4 m: beyond x = 64 (fig5-I) or 160 (fig5-II) the series
        # at infinity takes over from the sums
        self.check_span(params, 1e4, [10.0, 1e3, 1e4])

    @pytest.mark.parametrize("params", [FIG5_I, FIG5_II, fixed_fraction(0.03), *SWEEP.values()],
                             ids=["fig5-I", "fig5-II", "alpha=0.03", *SWEEP])
    def test_band_windows_match_full_scans(self, params, monkeypatch):
        # each band scans a window of the weights around its terms; the
        # first and last term within e^-_TAIL are those of a scan of all
        from ruinlab import capitalstock

        windowed, scans = capitalstock._within, []

        def checked(profile, x, a):
            first, last = windowed(profile, x, a)
            v = profile + np.arange(profile.shape[1]) * math.log(x)
            within = v >= v.max(axis=1, keepdims=True) - capitalstock._TAIL
            np.testing.assert_array_equal(first, np.argmax(within, axis=1))
            np.testing.assert_array_equal(last, capitalstock._last_within(v))
            scans.append(x)
            return first, last

        monkeypatch.setattr(capitalstock, "_within", checked)
        phi_capital_stock(params, u_max=1e3 * params.m)
        assert scans

    def test_long_span_in_bands(self):
        # r = 553 (alpha = 0.03): the series at infinity truncates nowhere
        # in the span, so the bands carry the sums out to x = 800, past
        # x = 750, where a plain density sum underflows
        self.check_span(fixed_fraction(0.03), 800.0, [100.0, 400.0, 790.0])

    @staticmethod
    def check_span(params, x_max, xs):
        grid = phi_capital_stock(params, u_max=x_max * params.m)
        assert grid.span == (0.0, x_max * params.m)
        us = np.linspace(0.0, grid.span[1], 4001)
        phi, dphi, ddphi = grid.evaluate(us)
        assert np.isfinite(phi).all() and np.isfinite(dphi[1:]).all()
        assert np.isfinite(ddphi[1:]).all() and np.all(dphi[1:] >= 0.0)
        assert np.all(np.diff(phi) >= 0.0) and phi[-1] <= 1.0
        pick = us[::67]
        scalars = np.array([grid.evaluate(u) for u in pick.tolist()])
        for k, values in enumerate(grid.evaluate(pick)):
            np.testing.assert_allclose(scalars[:, k], values, rtol=1e-14, atol=0.0)
        ref = mpmath_reference(params, params.m * np.array(xs))
        got = grid.evaluate(params.m * np.array(xs))
        np.testing.assert_allclose(got[0], ref[0], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got[1], ref[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[2], ref[2], rtol=1e-12, atol=0.0)

    def test_fixed_fraction_approaches_risk_free(self):
        # the fixed-fraction example without premiums as alpha falls: r = 2a/b^2
        # grows from 98 to 4.4e7, and phi falls towards the risk-free phi
        rows = []
        for alpha in (3e-2, 1e-2, 3e-3, 1e-3, 1e-4):
            grid = solve(fixed_fraction(alpha))
            assert grid.diagnostics["terms"] <= 200
            rows.append([grid.evaluate(u)[0] for u in (0.5, 5.0, 20.0)])
        limit = riskfree_exact(fixed_fraction(0.0))
        rows.append([limit.evaluate(u)[0] for u in (0.5, 5.0, 20.0)])
        assert np.all(np.diff(np.array(rows), axis=0) < 0.0)
        assert rows[1][1] == pytest.approx(0.67949, abs=1e-5)
        assert rows[-1][1] == pytest.approx(0.64951, abs=1e-5)
