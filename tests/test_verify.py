import math
import warnings

import numpy as np
import pytest

from ruinlab import (
    IntegrationError,
    ModelParams,
    Regime,
    RegimeInfo,
    SolutionGrid,
    classical_exact,
    eval_series,
    ide_residual,
    integrate,
    main_ode_field,
    mc_survival,
    series_coeffs_main,
    solve,
    tail_exponent,
)
from ruinlab import verify
from conftest import PARAMS, classical_survival_to_horizon


class TestIdeResidual:
    def test_classical_closed_form(self, solved):
        rep = ide_residual(solved("fig1-I"), PARAMS["fig1-I"], np.linspace(0, 50, 201))
        assert rep.rel_sup < 1e-9

    def test_main_solution(self, solved):
        rep = ide_residual(solved("fig1-II"), PARAMS["fig1-II"], np.linspace(0, 50, 201))
        assert rep.rel_sup < 1e-6

    def test_zero_solution(self):
        p = ModelParams(a=0.001, b=0.1, c=0.1, lam=0.09, m=1.0)
        grid = solve(p, u_max=50.0)
        rep = ide_residual(grid, p, np.linspace(0, 50, 101))
        assert rep.sup == 0.0

    def test_span_mismatch(self, solved):
        # the capital stock's span ends at U; the main route's reaches
        # infinity, but a grid point there or a NaN is refused before any work
        grid = solved("fig5-I")
        with pytest.raises(ValueError):
            ide_residual(grid, PARAMS["fig5-I"], np.linspace(0, 1e6, 10))
        for bad in ([1.0, math.inf], [1.0, math.nan]):
            with pytest.raises(ValueError, match="not finite"):
                ide_residual(solved("fig1-II"), PARAMS["fig1-II"], bad)

    @pytest.mark.parametrize("grid", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "2-D"])
    def test_rejects_grid_not_1d(self, solved, grid):
        with pytest.raises(ValueError, match="grid must be a non-empty 1-D array"):
            ide_residual(solved("fig1-II"), PARAMS["fig1-II"], grid)

    def test_tighter_tolerances_shrink_residual(self):
        p = PARAMS["fig1-II"]
        loose = solve(p, u_max=50.0, rtol=1e-6)
        tight = solve(p, u_max=50.0, rtol=1e-8)
        grid = np.linspace(0.0, 50.0, 101)
        r_loose = ide_residual(loose, p, grid).rel_sup
        r_tight = ide_residual(tight, p, grid).rel_sup
        assert r_tight * 10.0 <= r_loose

    @pytest.mark.parametrize("name", ["fig1-I", "fig1-II", "fig3-II", "fig4-II", "fig5-I"])
    def test_one_array_evaluation(self, solved, monkeypatch, name):
        # every quadrature node and grid point in one array call; the only
        # scalar call is the u = 0 edge
        calls = []
        evaluate = SolutionGrid.evaluate

        def counted(self, u):
            calls.append(np.ndim(u) == 0)
            return evaluate(self, u)

        monkeypatch.setattr(SolutionGrid, "evaluate", counted)
        ide_residual(solved(name), PARAMS[name], np.linspace(0.0, 50.0, 201))
        assert calls.count(False) == 1
        assert calls.count(True) <= 1

    def test_graded_first_interval(self, solved):
        # phi ~ u^0.9 at 0: only pieces graded toward 0 resolve [0, 1e-8]
        rep = ide_residual(solved("fig4-II"), PARAMS["fig4-II"], [0.0, 1e-8, 1e-4, 1.0, 50.0])
        assert rep.rel_sup <= 1e-12

    @pytest.mark.parametrize("name", ["fig1-II", "fig4-II", "fig5-I"])
    def test_recursion_starts_at_zero(self, solved, name):
        grid = np.linspace(3.3, 40.0, 57)
        off = ide_residual(solved(name), PARAMS[name], grid)
        on = ide_residual(solved(name), PARAMS[name], np.concatenate(([0.0], grid)))
        assert np.max(np.abs(off.residual - on.residual[1:])) <= 1e-14

    def test_unreachable_tolerance_raises(self, solved):
        # on [0, 50] the quadrature misses rtol 1e-16 near u = 35
        with pytest.raises(IntegrationError, match="residual quadrature"):
            ide_residual(
                solved("fig1-II"), PARAMS["fig1-II"], np.linspace(0.0, 50.0, 11),
                rtol=1e-16, atol=1e-30,
            )

    def test_kronrod_table(self):
        # the 15-point rule is exact to degree 22, and its embedded rule is
        # the 7-point Gauss-Legendre rule
        x, w, g = verify._K15_X, verify._K15_W, verify._G7_W
        for k in range(23):
            assert abs(x**k @ w - (1.0 + (-1.0) ** k) / (k + 1)) <= 1e-15
        assert np.allclose(x[1::2], np.polynomial.legendre.leggauss(7)[0], rtol=0.0, atol=1e-15)
        for k in range(14):
            assert abs(x**k @ g - (1.0 + (-1.0) ** k) / (k + 1)) <= 1e-15


class TestGResidualDecay:
    def test_perturbed_initial_data_decays_exponentially(self):
        # a solution of the ODE with inconsistent initial data leaves an
        # equation residual proportional to exp(-u/m)
        p = PARAMS["fig1-II"]
        exp = series_coeffs_main(p)
        u0 = exp.u0
        state = np.array(eval_series(exp, 1.0, u0))
        state[2] += 1e-4
        traj = integrate(main_ode_field(p), u0, state, u0 + 10.0, rtol=1e-12)

        def eval3(uq):
            phi = np.empty_like(uq)
            dphi = np.empty_like(uq)
            ddphi = np.empty_like(uq)
            inner = uq <= u0
            if np.any(inner):
                phi[inner], dphi[inner], ddphi[inner] = eval_series(exp, 1.0, uq[inner])
            if np.any(~inner):
                st = traj(uq[~inner])
                phi[~inner], dphi[~inner], ddphi[~inner] = st[:, 0], st[:, 1], st[:, 2]
            return phi, dphi, ddphi

        grid = SolutionGrid.sample(
            np.array([0.0, u0 + 10.0]),
            eval3,
            lambda x: tuple(float(v[0]) for v in eval3(np.array([x]))),
            C0=1.0,
            regime=RegimeInfo(Regime.MAIN),
            diagnostics={"U": u0 + 10.0},
        )
        us = np.linspace(u0 + 0.25, u0 + 5.0, 60)
        rep = ide_residual(grid, p, us, rtol=1e-13, atol=1e-15)
        slope = np.polyfit(us, np.log(np.abs(rep.residual)), 1)[0]
        assert slope == pytest.approx(-1.0 / p.m, rel=0.02)


def _x_form_block(params, u, T, dt, rng, size):
    """The b > 0 block as it stood before the lanes carried Y = X + c h/2:
    the surplus X itself, with the premium array A = c h (1 + G)/2 formed
    per chunk.  Same law, same pairing and same draw order."""
    a, b, c, lam = params.a, params.b, params.c, params.lam
    n_steps = int(math.ceil(T / dt))
    h = T / n_steps
    drift = (a - 0.5 * b * b) * h
    vol = b * math.sqrt(h)
    mirror = math.exp(2.0 * drift)
    n = (size + 1) // 2
    X = np.full(2 * n, float(u))
    nxt = rng.exponential(1.0 / lam, 2 * n)
    alive = np.ones(2 * n, dtype=bool)
    alive[-1] = size % 2 == 0
    k0 = 0
    while k0 < n_steps and n:
        lanes = 2 * n
        K = max(1, verify._CHUNK // lanes)
        W = min(n_steps - k0, K * max(1, int(verify._CLAIMS / (lanes * lam * h * K))))
        events = verify._claim_window(params, h, nxt, k0 * h, W, rng)
        if events is not None:
            (ck, clane, c_alpha, c_beta), (gk, glane, g_fold, a_fold) = events
        for j0 in range(0, W, K):
            nk = min(K, W - j0)
            Z = rng.standard_normal((nk, n))
            Z *= vol
            Z += drift
            G = np.empty((nk, lanes))
            np.exp(Z, out=G[:, :n])
            np.divide(mirror, G[:, :n], out=G[:, n:])
            A = G + 1.0
            A *= 0.5 * c * h
            if events is not None:
                lo, hi = np.searchsorted(gk, (j0, j0 + nk))
                G[gk[lo:hi] - j0, glane[lo:hi]] = g_fold[lo:hi]
                A[gk[lo:hi] - j0, glane[lo:hi]] = a_fold[lo:hi]
            x = X
            for k in range(nk):
                np.multiply(G[k], x, out=G[k])
                A[k] += G[k]
                x = A[k]
            if events is not None:
                lo, hi = np.searchsorted(ck, (j0, j0 + nk))
                kk, ll = ck[lo:hi] - j0, clane[lo:hi]
                start = np.where(kk == 0, X[ll], A[kk - 1, ll])
                alive[ll[c_alpha[lo:hi] * start + c_beta[lo:hi] < 0.0]] = False
            X = A[-1].copy()
            if not alive.any():
                break
        pair = alive[:n] | alive[n:]
        if not pair.all():
            keep = np.flatnonzero(pair)
            keep = np.concatenate((keep, keep + n))
            X, nxt, alive = X[keep], nxt[keep], alive[keep]
            n = keep.size // 2
        k0 += W
    return int(np.count_nonzero(alive))


class TestGbmBlockYForm:
    """``_mc_block_gbm`` carries Y = X + c h/2; on the same draws it must ruin
    exactly the lanes that the X-form block ruins."""

    FIG1_II = PARAMS["fig1-II"]
    TWO_PER_STEP = 2.0 / FIG1_II.lam

    @pytest.mark.parametrize(
        "u, size, T, dt",
        [
            (5.0, 256, 40.0, 0.01),
            # lam*dt = 2: steps hold several claims and premiums, and c h/2
            # is about 1.1, so both the claim steps' additive and the ruin
            # test's shift matter
            (5.0, 256, 100 * TWO_PER_STEP, TWO_PER_STEP),
            # most pairs are ruined early and leave, so the buffers are
            # viewed at ever fewer lanes
            (0.5, 256, 40.0, 0.01),
            # the last pair's phantom partner
            (5.0, 255, 40.0, 0.01),
        ],
        ids=["dt=0.01", "lam*dt=2", "u=0.5", "odd"],
    )
    def test_matches_x_form(self, u, size, T, dt):
        p = self.FIG1_II
        got, want = [], []
        for seed in range(20):
            got.append(verify._mc_block_gbm(p, u, T, dt, np.random.Generator(np.random.SFC64(seed)), size))
            want.append(_x_form_block(p, u, T, dt, np.random.Generator(np.random.SFC64(seed)), size))
        assert got == want
        assert 0 < sum(want) < 20 * size


class TestMcSurvival:
    CLASSICAL = PARAMS["fig1-I"]

    def test_deterministic_under_seed(self):
        a = mc_survival(self.CLASSICAL, 5.0, 4000, T=400.0, seed=42)
        b = mc_survival(self.CLASSICAL, 5.0, 4000, T=400.0, seed=42)
        assert a == b

    def test_matches_classical_exact_at_long_horizon(self):
        # T large enough that the remaining ruin mass is below resolution
        for u in (2.0, 5.0):
            est = mc_survival(self.CLASSICAL, u, 20000, T=25600.0, seed=7)
            exact = 1.0 - 0.9 * math.exp(-0.1 * u)
            assert abs(est.p_hat - exact) <= 3.0 * est.stderr

    def test_horizon_doubling_detects_remaining_bias(self):
        # the T vs 2T comparison is the documented bias check
        est1 = mc_survival(self.CLASSICAL, 5.0, 20000, T=12800.0, seed=3)
        est2 = mc_survival(self.CLASSICAL, 5.0, 20000, T=25600.0, seed=3)
        gap = abs(est1.p_hat - est2.p_hat)
        assert gap <= 3.0 * math.hypot(est1.stderr, est2.stderr)

    def test_gbm_path_deterministic_under_seed(self):
        p = PARAMS["fig1-II"]
        a = mc_survival(p, 2.0, 3000, T=50.0, dt=0.05, seed=42)
        b = mc_survival(p, 2.0, 3000, T=50.0, dt=0.05, seed=42)
        assert a == b

    @pytest.mark.parametrize("dt", [5.0, 0.25])
    def test_gbm_step_exact_in_law_without_premiums(self, dt):
        # with c = 0 the geometric factor, the bridge to each claim instant
        # and the claims are exact at any dt; at lam*dt = 0.45 about 8% of
        # steps hold two claims or more, so a dropped claim would show
        p = PARAMS["fig5-II"]
        phi = solve(p, u_max=50.0).evaluate(5.0)[0]
        est = mc_survival(p, 5.0, 20_000, T=400.0, dt=dt, seed=11)
        assert abs(est.p_hat - phi) <= 3.0 * est.stderr

    def test_step_exact_in_law_at_two_claims_per_step(self):
        # lam*dt = 2: steps hold two claims on average, which the step
        # composes exactly, so without premiums the estimate stays unbiased;
        # the horizon, 200 steps, leaves its bias below the stderr
        p = PARAMS["fig5-I"]
        dt = 2.0 / p.lam
        T = 200 * dt
        assert p.lam * T / math.ceil(T / dt) == pytest.approx(2.0, rel=1e-12)
        phi = solve(p, u_max=50.0).evaluate(5.0)[0]
        est = mc_survival(p, 5.0, 20_000, T=T, dt=dt, seed=11)
        assert abs(est.p_hat - phi) <= 3.0 * est.stderr

    def test_huge_surplus_survives(self):
        p = PARAMS["fig1-II"]
        est = mc_survival(p, 1e6, 2000, T=400.0, dt=0.05, seed=3)
        assert est.p_hat == 1.0

    def test_odd_path_count_counts_no_phantom_lane(self):
        # an odd block's last pair has a phantom partner that starts ruined
        p = PARAMS["fig1-II"]
        assert mc_survival(p, 1e6, 3, T=400.0, dt=0.05, seed=3).p_hat == 1.0
        est = mc_survival(p, 1e6, 1, T=400.0, dt=0.05, seed=3)
        assert est.p_hat == 1.0 and est.stderr == 0.0

    @staticmethod
    def _spread(p, u, n, T, dt):
        """Sample SD of p_hat over 40 seeds, over the mean reported stderr."""
        est = [mc_survival(p, u, n, T=T, dt=dt, seed=s) for s in range(1, 41)]
        return np.std([e.p_hat for e in est], ddof=1) / np.mean([e.stderr for e in est])

    def test_stderr_bounds_spread_of_pairs(self):
        # survival is nondecreasing in every Brownian increment, so antithetic
        # partners are not positively correlated and stderr stays a bound;
        # here claims decide ruin, and the ratio measures about 1.0
        assert self._spread(PARAMS["fig1-II"], 1.0, 1000, 10.0, 0.05) <= 1.25

    def test_pairs_cut_spread_where_diffusion_decides(self):
        # many small claims (lam m = 1, c = 0) and a = b^2/2: the surplus
        # drifts to ruin unless the Brownian path lifts it past a X = lam m,
        # so that path decides ruin; partners' outcomes correlate about -0.64
        # (2,000 pairs), so the ratio is about 0.6, against 1.0 for
        # independent lanes and 1.3 for pairs sharing +Z; lam dt = 0.05 keeps
        # 95% of steps free of claims, whose log-factors are each lane's own
        p = ModelParams(a=0.5, b=1.0, c=0.0, lam=100.0, m=0.01)
        assert self._spread(p, 1.0, 100, 1.0, 0.0005) <= 0.85

    def test_zero_surplus_no_premium_ruins(self):
        p = ModelParams(a=0.1, b=0.0, c=0.0, lam=0.09, m=1.0)
        est = mc_survival(p, 0.0, 2000, T=400.0, seed=3)
        assert est.p_hat == 0.0

    def test_single_path(self):
        est = mc_survival(self.CLASSICAL, 5.0, 1, T=10.0, seed=5)
        assert est.p_hat in (0.0, 1.0) and est.stderr == 0.0

    def test_exact_mode_records_no_dt(self):
        for dt in (None, 0.01):
            est = mc_survival(self.CLASSICAL, 5.0, 100, T=10.0, dt=dt, seed=5)
            assert est.dt == 0.0

    def test_default_horizon_uses_rate_scale(self):
        est = mc_survival(self.CLASSICAL, 5.0, 10, seed=5)
        assert est.T == pytest.approx(400.0 / 0.09)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mc_survival(self.CLASSICAL, 5.0, 0)
        with pytest.raises(ValueError):
            mc_survival(self.CLASSICAL, -1.0, 10)
        with pytest.raises(ValueError):
            mc_survival(self.CLASSICAL, 5.0, 10, T=-1.0)
        with pytest.raises(ValueError):
            mc_survival(PARAMS["fig1-II"], 5.0, 10, T=10.0, dt=-1.0)
        # counts that are not integers, and a negative seed, are refused by
        # name before any path is drawn; numpy used to raise from the blocks
        with pytest.raises(TypeError, match="n_paths must be an integer, got 10.5"):
            mc_survival(PARAMS["fig1-II"], 1.0, 10.5, T=1.0, seed=1)
        with pytest.raises(TypeError, match="seed must be an integer, got 1.0"):
            mc_survival(PARAMS["fig1-II"], 1.0, 10, T=1.0, seed=1.0)
        with pytest.raises(ValueError, match="need seed >= 0, got -1"):
            mc_survival(PARAMS["fig1-II"], 1.0, 10, T=1.0, seed=-1)

    @pytest.mark.parametrize("dt", [-3.0, 0.0, math.nan, math.inf])
    def test_exact_mode_rejects_invalid_dt(self, dt):
        with pytest.raises(ValueError):
            mc_survival(self.CLASSICAL, 5.0, 10, T=10.0, dt=dt)

    @pytest.mark.parametrize("name", ["fig1-I", "fig1-II"])
    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_invalid_horizon(self, name, T):
        # both the event-driven (b = 0) and the Euler (b > 0) path
        with pytest.raises(ValueError, match="T must be finite"):
            mc_survival(PARAMS[name], 5.0, 10, T=T, seed=5)

    @pytest.mark.parametrize("name", ["fig1-I", "fig1-II"])
    @pytest.mark.parametrize("u", [math.nan, math.inf, -1.0])
    def test_rejects_invalid_surplus(self, name, u):
        with pytest.raises(ValueError, match="initial surplus must be finite"):
            mc_survival(PARAMS[name], u, 10, T=10.0, seed=5)


class TestClassicalSurvivalToHorizon:
    """The finite-horizon reference that criterion 10a compares MC with."""

    CLASSICAL = PARAMS["fig1-I"]
    US = (0.0, 2.0, 5.0, 10.0)

    def test_long_horizon_limit_is_classical_exact(self):
        cf = classical_exact(self.CLASSICAL)
        for u in self.US:
            phi_T = classical_survival_to_horizon(self.CLASSICAL, u, 1e6)
            assert abs(phi_T - cf.evaluate(u)[0]) <= 1e-12

    def test_zero_horizon_survives(self):
        for u in self.US:
            assert abs(classical_survival_to_horizon(self.CLASSICAL, u, 0.0) - 1.0) <= 1e-12

    def test_short_horizon_is_first_claim_ruin(self):
        # ruin by the first claim before T has probability
        # F = int_0^T lam e^(-lam t) e^(-(u + c t)/m) dt; any other ruin needs
        # a second claim before T, so 0 <= psi - F <= (lam T)^2 / 2
        lam, c, m = self.CLASSICAL.lam, self.CLASSICAL.c, self.CLASSICAL.m
        rate = lam + c / m
        for T in (1e-1, 1e-2, 1e-3):
            for u in self.US:
                first = lam * math.exp(-u / m) * -math.expm1(-rate * T) / rate
                psi = 1.0 - classical_survival_to_horizon(self.CLASSICAL, u, T)
                assert -1e-12 <= psi - first <= 0.5 * (lam * T) ** 2


def _synthetic_power_tail(exponent):
    def eval3(uq):
        phi = 1.0 - uq**exponent
        dphi = -exponent * uq ** (exponent - 1.0)
        ddphi = -exponent * (exponent - 1.0) * uq ** (exponent - 2.0)
        return phi, dphi, ddphi

    return SolutionGrid.sample(
        np.linspace(1.0, 100.0, 10),
        eval3,
        lambda x: tuple(float(v[0]) for v in eval3(np.array([x]))),
        C0=0.0,
        regime=RegimeInfo(Regime.MAIN),
        diagnostics={"U": np.inf},
    )


class TestTailExponent:
    def test_synthetic_power_law(self):
        grid = _synthetic_power_tail(-2.0)
        est = tail_exponent(grid, (10.0, 100.0))
        assert est.slope == pytest.approx(-2.0, abs=1e-12)
        assert est.K == pytest.approx(1.0, rel=1e-12)

    def test_main_regime_slope(self, solved):
        est = tail_exponent(solved("fig1-II"), (50.0, 200.0))
        assert est.slope == pytest.approx(-3.0, rel=0.05)
        assert est.K > 0.0

    def test_riskfree_rejected(self, solved):
        with pytest.raises(ValueError, match="not applicable"):
            tail_exponent(solved("fig3-II"), (50.0, 200.0))

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_too_few_points_rejected(self, solved, n_points):
        # one point fits a line only with a RankWarning, and none raises a raw TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_points >= 2"):
                tail_exponent(solved("fig1-II"), (10.0, 40.0), n_points=n_points)

    @pytest.mark.parametrize("n_points", [20.5, 20.0])
    def test_fractional_points_rejected(self, solved, n_points):
        # np.geomspace used to raise a raw TypeError
        with pytest.raises(TypeError, match="n_points must be an integer"):
            tail_exponent(solved("fig1-II"), (10.0, 40.0), n_points=n_points)

    @pytest.mark.parametrize(
        "window", [(0.0, 10.0), (10.0, 5.0), (10.0, math.inf), (math.nan, 10.0)]
    )
    def test_window_outside_span_rejected(self, solved, window):
        # the main route's span reaches infinity, but the window must be finite
        with pytest.raises(ValueError, match="fit window"):
            tail_exponent(solved("fig1-II"), window)

    def test_underflow_rejected(self, solved):
        # for 2a/b^2 = 20 the tail drops below tolerance long before u = 200
        with pytest.raises(ValueError, match="underflow"):
            tail_exponent(solved("fig2-II"), (50.0, 200.0))
