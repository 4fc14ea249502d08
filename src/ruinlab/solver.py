"""Main-regime pipeline and the uniform solve() dispatcher.

The main regime (b > 0, c > 0, 2a/b^2 > 1) is solved in four moves:

1. expand the solution at the singular point u = 0 with placeholder C0 = 1
   and transfer the initial data to a regular point u0;
2. integrate the third-order equation by Taylor steps (``odes``) up the
   ladder of candidates u_max 2^(k/2), k = 0, 1, .., one ``integrate``
   call per rung, and stop at the first U where either the power-law
   series at infinity, phi' ~ K (r - 1) u^(-r) sum_j e_j u^(-j) with
   r = 2a/b^2, truncates, or phi is flat: the tail term
   t = phi'(U) U / ((r - 1) phi(U)), the share of the limit beyond U to
   leading order, lies below 2^-53;
3. match that series to phi(U) and phi'(U): the finite limit of the
   unnormalized solution is A = phi(U) + phi'(U) U T(U) / S(U), with
   S = sum_j e_j U^(-j) and T = sum_j e_j U^(-j) / (r + j - 1); where phi
   is flat, the leading term e_0 = 1 alone, A = phi(U) + phi'(U) U / (r - 1);
4. rescale by C0 = 1/A, which is exact because the whole Cauchy family is
   proportional to C0 (no shooting iteration is needed).

The match gives the tail coefficient K of 1 - phi ~ K u^(1-r) as well, in
logs: log K = log phi'(U) + r log U - log((r - 1) A S(U)).  Beyond U the
solution is the series at infinity with that K (``series.far_field``), as
the capital stock's is with its exact K, so the main route, like the closed
forms, evaluates on [0, inf).  Where phi'(U) is below the normal float range
it has lost its digits, and K is not reported; nor where phi is flat, as the
leading term's fit is no K (log K = 785.9 at r = 213, U = 50; 950.98 converged).

Degenerate regimes dispatch to their closed forms or to the capital-stock
route; parameter sets with certain ruin yield the explicit zero
solution, and nonviable ones raise.
"""

from __future__ import annotations

import math

import numpy as np

from . import capitalstock, odes
from .closedform import classical_exact, riskfree_exact
from .errors import NoSolutionError, SolverError, log_info
from .model import (
    REASON_LOADING,
    REASON_NOT_ROBUST,
    ModelParams,
    Regime,
    RegimeInfo,
    classify_regime,
)
# perfbench/tracer.py patches integrate and main_ode_field here; its field
# wrap cannot rebuild a LinearOde, so the equation comes from odes
from .odes import integrate, main_ode_field  # noqa: F401
from .series import eval_series, far_field, series_coeffs_infinity, series_coeffs_main, truncates
from .solution import GRID_POINTS, GRID_SPACING, GRID_U_MAX, SolutionGrid, TailFit
from .solution import check_tolerances, check_u_max, make_grid, resolve_grid
from .specfun import ext_exp, ext_log

__all__ = ["solve", "solve_main", "phi_second_derivative_at_zero", "make_grid"]


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
    u_grid=None,
) -> SolutionGrid:
    """Solve the main regime; see the module docstring for the pipeline.

    U climbs from u_max by factors of sqrt(2) up to 256 max(200 m, u_max)
    while the integration follows it.  ``SolverError`` is raised where the
    series at infinity truncates at none of these and phi is flat at none,
    once the integration has reached the top, or where the limit A at U is
    not positive; ``IntegrationError`` passes from ``integrate``.  The
    solution's span is [0, inf): series at u = 0 up to u0, trajectory up to
    U, series at infinity beyond.  ``u_max`` defaults to 50 m and ``u_grid``
    to 201 uniform points on [0, u_max]; ``solve`` builds the other grids.
    ``rtol`` is the integration's tolerance; ValueError is raised unless it
    is positive and finite.

    Where phi is flat at U, phi beyond U is exact to rounding, but phi' and
    phi'' there are the leading term alone, matched to phi'(U): phi'' jumps
    across U, by 1.5% on fig2-II, and at r = 213 (U = 50) the fitted log K
    is 785.9 against the converged 950.98."""
    check_tolerances(rtol=rtol)
    info = classify_regime(params)
    if info.regime is not Regime.MAIN:
        raise ValueError(f"solve_main expects the main regime, got {info}")
    r = params.robustness()

    exp = series_coeffs_main(params)
    u0 = exp.u0
    state0 = np.array(eval_series(exp, 1.0, u0))

    u_grid, u_max = resolve_grid(params.m, u_grid, u_max)
    e = series_coeffs_infinity(params)
    reach = 2.0 * max(200.0 * params.m, u_max)
    top = 128.0 * reach
    candidates = u_max * 2.0 ** (np.arange(1 + math.floor(2.0 * math.log2(top / u_max))) / 2.0)
    # U stays at least 2 u0 from the transfer point
    candidates = candidates[(candidates >= 2.0 * u0) & (candidates <= top)].tolist()
    # a non-finite coefficient never truncates
    ok = truncates(e, 1.0 / np.array(candidates)).tolist()
    # The step rule budgets rtol h / (U - u0) per step, which a short span
    # loosens.  The budget per unit length is held to that of a span from u0
    # to ``reach``, and to rtol/8 over the first rung: the two agree at the
    # default u_max = 50 m, where the first rung is u_max.  Each later rung's
    # integration keeps the first one's budget per unit length.
    eq, start, state, segments = odes.main_ode_field(params), u0, state0, []
    U0 = candidates[0]
    first_rtol = rtol * min(0.125, (U0 - u0) / (reach - u0))
    for U, truncated in zip(candidates, ok):
        span_rtol = first_rtol * (U - start) / (U0 - u0) if segments else first_rtol
        segments.append(integrate(eq, start, state, U, rtol=span_rtol))
        start, state = U, segments[-1].states[-1]
        phi_U, dphi_U, _ = state.tolist()
        # phi is flat where the share of the limit beyond U, to leading
        # order, lies below the rounding of phi(U) near 1
        tail_term = dphi_U * U / ((r - 1.0) * phi_U) if phi_U > 0.0 else math.inf
        if truncated or tail_term < 2.0**-53:
            break
    else:
        raise SolverError(f"series at infinity neither truncates nor is flat by U={top:g}")
    traj = odes.joined(segments)

    # under the flat-tail rule the leading term alone carries the far field
    rule = "truncates" if truncated else "flat"
    e = e if truncated else e[:1]
    j = np.arange(len(e))
    terms = e * (1.0 / U) ** j
    S_U = float(terms.sum())
    A = phi_U + dphi_U * U * float(terms @ (1.0 / (r + j - 1.0))) / S_U
    if not (A > 0.0 and S_U > 0.0 and dphi_U >= 0.0):
        raise SolverError(f"nonpositive limit at infinity: A={A:g}, S(U)={S_U:g}, phi'(U)={dphi_U:g}")
    C0 = 1.0 / A
    log_info(__name__, "main solve: u0=%.4g U=%g (%s) C0=%.8g", u0, U, rule, C0)

    # phi'(U) = K (r - 1) A U^(-r) S(U); where phi'(U) reads 0, phi reads 1 beyond U
    log_K = ext_log(dphi_U) + r * math.log(U) - math.log((r - 1.0) * A * S_U)
    # phi'(U) below the normal range, and K with it, has lost its digits; the
    # leading term's fit where phi is flat does not resolve K
    resolved = truncated and dphi_U >= np.finfo(float).tiny
    tail = TailFit(A, ext_exp(log_K), 1.0 - r, U) if resolved else None
    far3, far_point3 = far_field(e, r, log_K)

    def eval3(uq: np.ndarray):
        # the series at u = 0 up to u0, the trajectory up to U, the series
        # at infinity beyond
        st = traj(np.clip(uq, u0, U))
        phi, dphi, ddphi = C0 * st[:, 0], C0 * st[:, 1], C0 * st[:, 2]
        inner = uq <= u0
        if inner.any():
            phi[inner], dphi[inner], ddphi[inner] = eval_series(exp, C0, uq[inner])
        outer = uq > U
        if outer.any():
            phi[outer], dphi[outer], ddphi[outer] = far3(uq[outer])
        return phi, dphi, ddphi

    def point3(x: float):
        if x <= u0:
            return eval_series(exp, C0, x)
        if x > U:
            return far_point3(x)
        phi, dphi, ddphi = traj(x)
        return C0 * phi, C0 * dphi, C0 * ddphi

    diagnostics = {
        "u0": u0,
        "series_order": exp.order,
        "U": U,
        "rtol": rtol,
        "A": A,
        "U_rule": rule,
        "tail_term": tail_term,
        "log_K": log_K if truncated else None,  # finite where K passes double range
        "steps": len(traj.us) - 1,
    }
    return SolutionGrid.sample(
        u_grid, eval3, point3, C0=C0, regime=info, tail=tail, diagnostics=diagnostics
    )


def _zero_grid(m: float, u_grid, info: RegimeInfo) -> SolutionGrid:
    u_grid, _ = resolve_grid(m, u_grid)

    def eval3(uq: np.ndarray):
        z = np.zeros_like(uq)
        return z, z.copy(), z.copy()

    return SolutionGrid.sample(
        u_grid,
        eval3,
        lambda x: (0.0, 0.0, 0.0),
        C0=0.0,
        regime=info,
        diagnostics={"reason": f"ruin certain: {info.reason}", "U": np.inf},
    )


def solve(
    params: ModelParams,
    u_max: float | None = None,
    points: int = GRID_POINTS,
    spacing: str = GRID_SPACING,
    rtol: float = 1e-10,
    u_grid=None,
) -> SolutionGrid:
    """Solve any regime and return a uniformly shaped SolutionGrid.

    ``rtol`` must be positive and finite on every route; the closed forms
    and the capital stock's exact sums do not use it.
    Raises :class:`NoSolutionError` when the problem is nonviable (classical
    regime with nonpositive safety loading) or refused (2a/b^2 exactly 1);
    returns the explicit zero solution, flagged in the diagnostics, when
    ruin is certain under non-robust shares.
    """
    check_tolerances(rtol=rtol)
    info = classify_regime(params)
    # every route validates the grid it is given, so a grid is only built here
    if u_grid is None:
        u_max = GRID_U_MAX * params.m if u_max is None else u_max
        u_grid = make_grid(u_max, points, spacing)
    elif u_max is not None:
        check_u_max(u_max)

    if info.regime is Regime.MAIN:
        return solve_main(params, u_max=u_max, rtol=rtol, u_grid=u_grid)
    if info.regime is Regime.CLASSICAL_CL:
        return classical_exact(params, u_grid=u_grid)
    if info.regime is Regime.RISK_FREE:
        return riskfree_exact(params, u_grid=u_grid)
    if info.regime is Regime.CAPITAL_STOCK:
        return capitalstock.phi_capital_stock(params, u_grid, u_max)
    # NO_SOLUTION
    if info.reason == REASON_NOT_ROBUST:
        return _zero_grid(params.m, u_grid, info)
    if info.reason == REASON_LOADING:
        raise NoSolutionError(
            f"no solution: c <= lambda*m ({params.c:g} <= {params.lam * params.m:g})"
        )
    raise NoSolutionError(
        f"refusing the boundary case 2a/b^2 = 1 exactly ({info.reason})"
    )
