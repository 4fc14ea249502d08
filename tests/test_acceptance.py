"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criteria 7a and 7b check P1 against the exact Mellin
normalization rather than the paper's rounded figures, and criterion 10a
checks survival up to T against the exact finite-horizon probability, since
survival up to T = 400 cannot match the infinite-horizon value.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ruinlab import (
    ModelParams,
    NoSolutionError,
    classical_exact,
    eval_series,
    ide_residual,
    integrate,
    main_ode_field,
    mc_survival,
    riskfree_exact,
    series_coeffs_main,
    solve,
    tail_exponent,
    upper_incomplete_gamma,
)
from ruinlab.cli import main as cli_main
from conftest import PARAMS, classical_survival_to_horizon, mellin_normalization


def _pass(cid, msg):
    print(f"ACCEPTANCE {cid}: PASS  {msg}")


def test_c01_classical_exact_values(solved):
    grid = solved("fig1-I")
    assert abs(grid.C0 - 0.1) < 1e-12
    assert abs(grid.dphi[0] - 0.09) < 1e-12
    _pass(1, f"C0={grid.C0:.15g}, D1={grid.dphi[0]:.15g}")


def test_c02_main_fig1_ii(solved):
    t0 = time.perf_counter()
    grid = solve(PARAMS["fig1-II"], u_max=50.0)
    elapsed = time.perf_counter() - t0
    d1 = grid.dphi[0]
    assert abs(grid.C0 - 0.295) <= 0.002
    assert abs(d1 - 0.265) <= 0.002
    assert elapsed < 5.0
    _pass(2, f"C0={grid.C0:.6f}, D1={d1:.6f}, {elapsed:.2f}s")


def test_c03_main_fig2_i_inflection(solved):
    grid = solved("fig2-I")
    assert abs(grid.C0 - 0.00527) / 0.00527 <= 0.02
    us = np.linspace(1e-4, 50.0, 4001)
    _, _, dd = grid.evaluate(us)
    signs = np.sign(dd)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0.0))
    assert changes == 1
    _pass(3, f"C0={grid.C0:.6f}, one inflection")


def test_c04_main_fig2_ii_concave(solved):
    grid = solved("fig2-II")
    assert abs(grid.C0 - 0.194) / 0.194 <= 0.01
    us = np.linspace(1e-4, 50.0, 4001)
    _, _, dd = grid.evaluate(us)
    assert np.all(dd <= 1e-8)
    _pass(4, f"C0={grid.C0:.6f}, concave everywhere")


def test_c05_riskfree_closed_forms():
    sol_i = riskfree_exact(PARAMS["fig3-I"])
    sol_ii = riskfree_exact(PARAMS["fig3-II"])
    for value, ref in (
        (sol_i.C0, 0.00704),
        (sol_i.diagnostics["dphi_at_zero"], 0.0317),
        (sol_ii.C0, 0.2046),
        (sol_ii.diagnostics["dphi_at_zero"], 0.9207),
    ):
        assert abs(value - ref) / ref <= 1e-3
    d1_i, d1_ii = sol_i.diagnostics["dphi_at_zero"], sol_ii.diagnostics["dphi_at_zero"]
    _pass(5, f"C0={sol_i.C0:.6f}/{sol_ii.C0:.6f}, D1={d1_i:.6f}/{d1_ii:.6f}")


def test_c06_riskfree_no_premium_cases():
    # a = lam: explicit exponential
    p_eq = ModelParams(a=0.09, b=0.0, c=0.0, lam=0.09, m=1.0)
    sol = riskfree_exact(p_eq)
    us = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(sol.evaluate(us)[0] - (1.0 - np.exp(-us)))) < 1e-12

    # a > lam: phi(0) = 0, unbounded but integrable slope
    sol_hi = riskfree_exact(PARAMS["fig4-II"])
    assert sol_hi.C0 == 0.0
    assert sol_hi.diagnostics["dphi_at_zero"] == math.inf
    integral, _ = quad(
        lambda u: sol_hi.evaluate(u)[1], 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    phi1 = sol_hi.evaluate(1.0)[0]
    assert abs(integral - phi1) < 1e-9

    # a < lam: zero slope at the origin
    sol_lo = riskfree_exact(PARAMS["fig4-I"])
    assert sol_lo.C0 == 0.0 and sol_lo.diagnostics["dphi_at_zero"] == 0.0
    _pass(6, f"int phi' = {integral:.12f} vs phi(1) = {phi1:.12f}")


def test_c07a_capital_stock_fig5_i():
    t0 = time.perf_counter()
    grid = solve(PARAMS["fig5-I"], u_max=50.0)
    elapsed = time.perf_counter() - t0
    p1 = grid.diagnostics["P1"]
    assert elapsed < 10.0
    # The paper quotes P1 = 0.059587, 1.06e-3 above the exact 1/16.8: the
    # reference is the closed-form normalization, computed without solve.
    exact = 1.0 / mellin_normalization(PARAMS["fig5-I"])
    rel = abs(p1 - exact) / exact
    assert rel <= 1e-3, f"P1 = {p1:.9f} vs exact {exact:.9f}: {rel:.2e} relative"
    _pass("7a", f"P1={p1:.7f} (exact {exact:.7f}), {elapsed:.2f}s")


def test_c07b_capital_stock_fig5_ii():
    t0 = time.perf_counter()
    grid = solve(PARAMS["fig5-II"], u_max=50.0)
    elapsed = time.perf_counter() - t0
    p1 = grid.diagnostics["P1"]
    # The paper quotes P1 = 0.861816, 9.99e-4 above the exact value.
    exact = 1.0 / mellin_normalization(PARAMS["fig5-II"])
    rel = abs(p1 - exact) / exact
    assert rel <= 1e-3, f"P1 = {p1:.9f} vs exact {exact:.9f}: {rel:.2e} relative"
    assert elapsed < 10.0
    _pass("7b", f"P1={p1:.7f} (exact {exact:.7f}), {elapsed:.2f}s")


def test_c08_residual_oracle_all_regimes(solved):
    grid_pts = np.linspace(0.0, 50.0, 201)
    closed = {"fig1-I": 1e-9, "fig3-II": 1e-9, "fig4-II": 1e-9}
    numeric = {"fig1-II": 1e-6, "fig5-I": 1e-6}
    sups = {}
    for name, bound in {**closed, **numeric}.items():
        rep = ide_residual(solved(name), PARAMS[name], grid_pts)
        sups[name] = rep.rel_sup
        assert rep.rel_sup < bound, f"{name}: rel sup {rep.rel_sup:.2e} >= {bound}"
    _pass(8, "  ".join(f"{k}={v:.1e}" for k, v in sups.items()))


def test_c09_tail_law_fig1_ii(solved):
    est = tail_exponent(solved("fig1-II"), (50.0, 200.0))
    assert abs(est.slope - (-3.0)) <= 0.05 * 3.0
    _pass(9, f"slope={est.slope:.4f} (target -3)")


def test_c10a_mc_classical_at_stated_horizon():
    # as stated: n = 1e5, T = 400, dt = 0.01, fixed seed.  At b = 0 the
    # event-driven scheme is exact and dt = 0.01 is ignored, so the estimate
    # of survival up to T has no discretization bias; it is compared with
    # the exact survival up to the same T.
    p = PARAMS["fig1-I"]
    cf = classical_exact(p)
    failures = []
    for u in (0.0, 2.0, 5.0, 10.0):
        est = mc_survival(p, u, 100_000, T=400.0, dt=0.01, seed=20240801)
        assert est.dt == 0.0
        exact = classical_survival_to_horizon(p, u, 400.0)
        z = (est.p_hat - exact) / est.stderr if est.stderr > 0 else math.inf
        if abs(est.p_hat - exact) > 3.0 * est.stderr:
            failures.append(f"u={u}: p_hat={est.p_hat:.5f} exact={exact:.5f} z={z:+.1f}")
        # survival up to T lies above the infinite-horizon value
        assert est.p_hat >= cf.evaluate(u)[0] - 3.0 * est.stderr
    assert not failures, "; ".join(failures)
    _pass("10a", "classical MC within 3 stderr of exact survival to T=400")


def test_c10b_mc_main_regime():
    t0 = time.perf_counter()
    p = PARAMS["fig1-II"]
    grid = solve(p, u_max=50.0)
    for u in (1.0, 5.0):
        est = mc_survival(p, u, 20_000, T=400.0, dt=0.01, seed=20240802)
        phi = grid.evaluate(u)[0]
        assert abs(est.p_hat - phi) <= 3.0 * est.stderr, (
            f"u={u}: p_hat={est.p_hat:.5f} phi={phi:.5f} stderr={est.stderr:.5f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass("10b", f"main-regime MC within 3 stderr, {elapsed:.0f}s")


def test_c11_property_suite(solved, capsys):
    # monotonicity and bounds, every solved scenario
    for name in PARAMS:
        if name in ("fig1-I", "fig2-I", "fig3-I", "fig4-I", "fig5-I",
                    "fig1-II", "fig2-II", "fig3-II", "fig4-II", "fig5-II"):
            grid = solved(name)
            assert np.all(grid.phi <= 1.0 + 1e-6)
            assert np.all(np.diff(grid.phi) >= -1e-12)
            finite = np.isfinite(grid.dphi)
            assert np.all(grid.dphi[finite] >= -1e-8)

    # series/ODE overlap at u0
    p = PARAMS["fig1-II"]
    exp = series_coeffs_main(p)
    state = np.array(eval_series(exp, 1.0, exp.u0 / 2.0))
    traj = integrate(main_ode_field(p), exp.u0 / 2.0, state, exp.u0, rtol=1e-12)
    target = np.array(eval_series(exp, 1.0, exp.u0))
    assert np.all(np.abs(traj.states[-1] - target) <= 1e-8 * np.maximum(1.0, np.abs(target)))

    # incomplete-gamma recurrence
    for pp in (0.3, 0.9, 1.7):
        for z in (0.1, 1.0, 10.0):
            lhs = upper_incomplete_gamma(pp + 1.0, z)
            rhs = pp * upper_incomplete_gamma(pp, z) + z**pp * math.exp(-z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    # g-residual exponential decay, slope -1/m within 2%
    from ruinlab import Regime, RegimeInfo, SolutionGrid

    u0 = exp.u0
    pert = np.array(eval_series(exp, 1.0, u0))
    pert[2] += 1e-4
    ptraj = integrate(main_ode_field(p), u0, pert, u0 + 10.0, rtol=1e-12)

    def eval3(uq):
        phi = np.empty_like(uq); dphi = np.empty_like(uq); ddphi = np.empty_like(uq)
        inner = uq <= u0
        if np.any(inner):
            phi[inner], dphi[inner], ddphi[inner] = eval_series(exp, 1.0, uq[inner])
        if np.any(~inner):
            st = ptraj(uq[~inner])
            phi[~inner], dphi[~inner], ddphi[~inner] = st[:, 0], st[:, 1], st[:, 2]
        return phi, dphi, ddphi

    sg = SolutionGrid.sample(
        np.array([0.0, u0 + 10.0]), eval3,
        lambda x: tuple(float(v[0]) for v in eval3(np.array([x]))),
        C0=1.0, regime=RegimeInfo(Regime.MAIN),
        diagnostics={"U": u0 + 10.0, "atol": 1e-14},
    )
    us = np.linspace(u0 + 0.25, u0 + 5.0, 60)
    rep = ide_residual(sg, p, us, rtol=1e-13, atol=1e-15)
    slope = np.polyfit(us, np.log(np.abs(rep.residual)), 1)[0]
    assert abs(slope - (-1.0 / p.m)) <= 0.02 / p.m

    # MC determinism: byte-identical CLI output under a fixed seed
    argv = ["mc", "--preset", "fig1-I", "--u", "5", "--n", "2000", "--T", "400", "--seed", "42"]
    assert cli_main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1.encode() == out2.encode()
    _pass(11, f"g-decay slope={slope:.4f}, overlap/bounds/recurrence/determinism ok")


def test_c12_negative_paths():
    with pytest.raises(NoSolutionError):
        solve(ModelParams(a=0.0, b=0.0, c=0.05, lam=0.09, m=1.0))

    grid = solve(ModelParams(a=0.001, b=0.1, c=0.1, lam=0.09, m=1.0), u_max=10.0)
    assert np.all(grid.phi == 0.0)
    assert "ruin certain" in grid.diagnostics["reason"]

    with pytest.raises(NoSolutionError):
        solve(ModelParams(a=0.125, b=0.5, c=0.1, lam=0.09, m=1.0))
    _pass(12, "nonviable raises, certain ruin flagged, boundary refused")
