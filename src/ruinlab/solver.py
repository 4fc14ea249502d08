"""Main-regime pipeline and the uniform solve() dispatcher.

The main regime (b > 0, c > 0, 2a/b^2 > 1) is solved in four moves:

1. expand the solution at the singular point u = 0 with placeholder C0 = 1
   and transfer the initial data to a regular point u0;
2. integrate the third-order equation once, by Taylor steps (``odes``),
   from u0 to a U chosen before the integration as the smallest candidate
   at which the power-law series at infinity,
   phi' ~ K u^(-r) sum_j e_j u^(-j) with r = 2a/b^2, truncates;
3. match that series to phi(U) and phi'(U): the finite limit of the
   unnormalized solution is A = phi(U) + phi'(U) U T(U) / S(U), with
   S = sum_j e_j U^(-j) and T = sum_j e_j U^(-j) / (r + j - 1);
4. rescale by C0 = 1/A, which is exact because the whole Cauchy family is
   proportional to C0 (no shooting iteration is needed).

Degenerate regimes dispatch to their closed forms or to the capital-stock
route; parameter sets with certain ruin yield the explicit zero
solution, and nonviable ones raise.
"""

from __future__ import annotations

import math

import numpy as np

from . import capitalstock
from .closedform import classical_exact, lundberg_coefficient, riskfree_exact
from .errors import NoSolutionError, SolverError, log_info
from .model import (
    REASON_LOADING,
    REASON_NOT_ROBUST,
    ModelParams,
    Regime,
    RegimeInfo,
    classify_regime,
)
from .odes import integrate, main_ode_field
from .series import eval_series, series_coeffs_infinity, series_coeffs_main, truncates
from .solution import SolutionGrid, TailFit, check_tolerances, make_grid, resolve_grid
from .specfun import ext_exp, ext_log

__all__ = ["solve", "solve_main", "phi_second_derivative_at_zero", "make_grid"]

# beyond this, phi'(U) * U^(2a/b^2) amplifies integrator noise, not signal
_TAIL_RESOLUTION_FACTOR = 100.0


def phi_second_derivative_at_zero(params: ModelParams, C0: float) -> float:
    """Limit of phi'' at u -> 0+: (lam - a - c/m) * lam * C0 / c^2.

    Its sign (that of -(m(a - lam) + c)) separates the everywhere-concave
    solutions from those with an inflection point.
    """
    if params.c == 0.0:
        raise ValueError("phi''(0) formula requires c > 0")
    return (params.lam - params.a - params.c / params.m) * params.lam * C0 / params.c**2


def solve_main(
    params: ModelParams,
    u_max: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    points: int = 201,
    spacing: str = "uniform",
    u_grid=None,
) -> SolutionGrid:
    """Solve the main regime; see the module docstring for the pipeline.

    ``rtol`` is the integration's tolerance; ``atol`` decides only whether
    the tail coefficient K is resolved at U."""
    check_tolerances(rtol, atol)
    info = classify_regime(params)
    if info.regime is not Regime.MAIN:
        raise ValueError(f"solve_main expects the main regime, got {info}")
    r = params.robustness()

    exp = series_coeffs_main(params)
    u0 = exp.u0
    state0 = np.array(eval_series(exp, 1.0, u0))

    u_grid, u_max = resolve_grid(params.m, u_grid, u_max, points, spacing)
    e = series_coeffs_infinity(params)
    j = np.arange(len(e))
    candidates = 2.0 * max(200.0 * params.m, u_max) * 2.0 ** np.arange(8)
    # a non-finite coefficient never truncates
    ok = truncates(e, 1.0 / candidates)
    if not ok.any():
        raise SolverError(f"series at infinity does not truncate by U={candidates[-1]:g}")
    U = float(candidates[np.argmax(ok)])
    traj = integrate(main_ode_field(params), u0, state0, U, rtol=rtol)

    def match(u: float):
        """(A, phi'(u), S(u)) from the trajectory and the series at u."""
        phi_u, dphi_u, _ = traj(u)
        terms = e * (1.0 / u) ** j
        S = float(terms.sum())
        return phi_u + dphi_u * u * float(terms @ (1.0 / (r + j - 1.0))) / S, dphi_u, S

    A, dphi_U, S_U = match(U)
    if A <= 0.0:
        raise SolverError(f"nonpositive limit at infinity: A={A:g}")
    stability = abs(A - match(U / 2.0)[0]) / A
    C0 = 1.0 / A
    log_info(__name__, "main solve: u0=%.4g U=%g C0=%.8g stability=%.2e", u0, U, C0, stability)

    # The tail coefficient is meaningful only while phi'(U) still stands
    # above the integrator's error floor.
    tail_term = dphi_U * U / (r - 1.0)
    tail = None
    if tail_term > _TAIL_RESOLUTION_FACTOR * (atol + rtol * abs(A)):
        K = dphi_U * U**r / ((r - 1.0) * A * S_U)
        tail = TailFit(A=A, K=K, exponent=1.0 - r, U=U, stability=stability)

    def eval3(uq: np.ndarray):
        # the trajectory above u0, the series below
        st = traj(np.maximum(uq, u0))
        phi, dphi, ddphi = C0 * st[:, 0], C0 * st[:, 1], C0 * st[:, 2]
        inner = uq <= u0
        if inner.any():
            phi[inner], dphi[inner], ddphi[inner] = eval_series(exp, C0, uq[inner])
        return phi, dphi, ddphi

    def point3(x: float):
        if x <= u0:
            return eval_series(exp, C0, x)
        phi, dphi, ddphi = traj(x)
        return C0 * phi, C0 * dphi, C0 * ddphi

    phi, dphi, ddphi = eval3(u_grid)

    diagnostics = {
        "u0": u0,
        "U": U,
        "rtol": rtol,
        "atol": atol,
        "A": A,
        "A_stability": stability,
        "steps": len(traj.us) - 1,
    }
    if tail is None:
        diagnostics["tail_note"] = "power-law tail below integrator resolution at U"
    return SolutionGrid(
        u=u_grid,
        phi=phi,
        dphi=dphi,
        ddphi=ddphi,
        C0=C0,
        regime=info,
        tail=tail,
        diagnostics=diagnostics,
        _eval3=eval3,
        _point3=point3,
    )


def _closedform_grid(cf, params: ModelParams, u_grid: np.ndarray, info: RegimeInfo) -> SolutionGrid:
    """Sample a closed-form solution, with phi'' from the degenerate equation."""
    a, c, lam, m = params.a, params.c, params.lam, params.m

    def _ddphi_origin_limit() -> float:
        # only reached for c = 0 (risk-free without premiums), where
        # phi' ~ u^(p-1) exp(-u/m) / norm with p = lam/a
        p = lam / a
        if p > 2.0:
            return 0.0
        if p == 2.0:
            return math.exp(-cf.log_norm)
        if p > 1.0:
            return math.inf
        if p == 1.0:
            return -math.exp(-cf.log_norm) / m
        return -math.inf

    def eval3(uq: np.ndarray):
        phi, dphi = cf.evaluator(uq)
        # (a u + c) phi'' + (a - lam + c/m + a u/m) phi' = 0
        if c > 0.0:
            ddphi = -(a - lam + c / m + a * uq / m) * dphi / (a * uq + c)
            return phi, dphi, ddphi
        # c = 0: phi'' = ((p - 1)/u - 1/m) phi' = f phi' / (u m), in logs,
        # since f / (u m) and phi' both grow without bound as u -> 0; beyond
        # double range the value is -inf or inf
        f = (lam / a - 1.0) * m - uq
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ddphi = np.where(
                uq > 0.0,
                np.sign(f) * np.exp(np.log(np.abs(f)) - np.log(uq * m) + np.log(dphi)),
                _ddphi_origin_limit(),
            )
        return phi, dphi, ddphi

    def point3(x: float):
        # eval3's arithmetic in floats
        phi, dphi = cf.point(x)
        if c > 0.0:
            return phi, dphi, -(a - lam + c / m + a * x / m) * dphi / (a * x + c)
        if x == 0.0:
            return phi, dphi, _ddphi_origin_limit()
        f = (lam / a - 1.0) * m - x
        sign = (f > 0.0) - (f < 0.0)
        return phi, dphi, sign * ext_exp(ext_log(abs(f)) - ext_log(x * m) + ext_log(dphi))

    phi, dphi, ddphi = eval3(u_grid)
    diagnostics = {"C0": cf.C0, "dphi_at_zero": cf.dphi_at_zero, "U": np.inf}
    if info.regime is Regime.CLASSICAL_CL:
        diagnostics["lundberg_coefficient"] = lundberg_coefficient(params)
    if cf.log_norm is not None:
        diagnostics["log_ic0"] = cf.log_ic0
        diagnostics["log_norm"] = cf.log_norm
    return SolutionGrid(
        u=u_grid,
        phi=phi,
        dphi=dphi,
        ddphi=ddphi,
        C0=cf.C0,
        regime=info,
        tail=None,
        diagnostics=diagnostics,
        _eval3=eval3,
        _point3=point3,
    )


def _zero_grid(params: ModelParams, u_grid: np.ndarray, info: RegimeInfo) -> SolutionGrid:
    def eval3(uq: np.ndarray):
        z = np.zeros_like(uq)
        return z, z.copy(), z.copy()

    z = np.zeros_like(u_grid)
    return SolutionGrid(
        u=u_grid,
        phi=z,
        dphi=z.copy(),
        ddphi=z.copy(),
        C0=0.0,
        regime=info,
        tail=None,
        diagnostics={"reason": f"ruin certain: {info.reason}", "U": np.inf},
        _eval3=eval3,
        _point3=lambda x: (0.0, 0.0, 0.0),
    )


def solve(
    params: ModelParams,
    u_max: float | None = None,
    points: int = 201,
    spacing: str = "uniform",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    u_grid=None,
) -> SolutionGrid:
    """Solve any regime and return a uniformly shaped SolutionGrid.

    Raises :class:`NoSolutionError` when the problem is nonviable (classical
    regime with nonpositive safety loading) or refused (2a/b^2 exactly 1);
    returns the explicit zero solution, flagged in the diagnostics, when
    ruin is certain under non-robust shares.
    """
    info = classify_regime(params)
    u_grid, u_max = resolve_grid(params.m, u_grid, u_max, points, spacing)

    if info.regime is Regime.MAIN:
        return solve_main(params, u_max=u_max, rtol=rtol, atol=atol, u_grid=u_grid)
    if info.regime is Regime.CLASSICAL_CL:
        return _closedform_grid(classical_exact(params), params, u_grid, info)
    if info.regime is Regime.RISK_FREE:
        return _closedform_grid(riskfree_exact(params), params, u_grid, info)
    if info.regime is Regime.CAPITAL_STOCK:
        return capitalstock.phi_capital_stock(
            params, u_grid=u_grid, u_max=u_max, rtol=rtol, atol=atol
        )
    # NO_SOLUTION
    if info.reason == REASON_NOT_ROBUST:
        return _zero_grid(params, u_grid, info)
    if info.reason == REASON_LOADING:
        raise NoSolutionError(
            f"no solution: c <= lambda*m ({params.c:g} <= {params.lam * params.m:g})"
        )
    raise NoSolutionError(
        f"refusing the boundary case 2a/b^2 = 1 exactly ({info.reason})"
    )
