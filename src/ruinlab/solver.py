"""Main-regime pipeline and the uniform solve() dispatcher.

The main regime (b > 0, c > 0, 2a/b^2 > 1) is solved in four moves:

1. expand the solution at the singular point u = 0 with placeholder C0 = 1
   and transfer the initial data to a regular point u0;
2. integrate the third-order equation once, by Taylor steps (``odes``),
   from u0 to a U chosen before the integration as the smallest candidate
   u_max 2^(k/2), k = 0, 1, .., at which the power-law series at infinity,
   phi' ~ K u^(-r) sum_j e_j u^(-j) with r = 2a/b^2, truncates;
3. match that series to phi(U) and phi'(U): the finite limit of the
   unnormalized solution is A = phi(U) + phi'(U) U T(U) / S(U), with
   S = sum_j e_j U^(-j) and T = sum_j e_j U^(-j) / (r + j - 1);
4. rescale by C0 = 1/A, which is exact because the whole Cauchy family is
   proportional to C0 (no shooting iteration is needed).

Beyond U the solution is the matched series itself, phi = C0 (A - w u T(u))
and phi' = C0 w S(u) with w = phi'(U) (U/u)^r / S(U), so the main route,
like the closed forms, evaluates on [0, inf).

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
from .series import eval_series, horner, series_coeffs_infinity, series_coeffs_main, truncates
from .solution import (
    SolutionGrid,
    TailFit,
    check_tolerances,
    check_u_max,
    make_grid,
    resolve_grid,
)

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

    U climbs from u_max by factors of sqrt(2) up to 256 max(200 m, u_max),
    and ``SolverError`` is raised where the series at infinity truncates at
    none of these.  The solution's span is [0, inf): series at u = 0 up to
    u0, trajectory up to U, series at infinity beyond.  ``rtol`` is the
    integration's tolerance; ``atol`` decides only whether the tail
    coefficient K is resolved at U."""
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
    reach = 2.0 * max(200.0 * params.m, u_max)
    top = 128.0 * reach
    candidates = u_max * 2.0 ** (np.arange(1 + math.floor(2.0 * math.log2(top / u_max))) / 2.0)
    # U/2, where the stability check matches again, lies on the trajectory
    candidates = candidates[(candidates >= 2.0 * u0) & (candidates <= top)]
    # a non-finite coefficient never truncates
    ok = truncates(e, 1.0 / candidates)
    if not ok.any():
        raise SolverError(f"series at infinity does not truncate by U={top:g}")
    U = float(candidates[np.argmax(ok)])
    # The step rule budgets rtol h / (U - u0) per step, which a short span
    # loosens.  The budget per unit length is held to that of a span from u0
    # to ``reach``, and to rtol/8 over this span: the two agree at the
    # default u_max = 50 m where U = u_max, and the second keeps fig2-II's C0
    # (U = 100) within 1.89e-13 of its reference, against 1.92e-13.
    traj = integrate(
        odes.main_ode_field(params), u0, state0, U, rtol=rtol * min(0.125, (U - u0) / (reach - u0))
    )

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

    # Beyond U, the matched series at infinity: with w = phi'(U) (U/u)^r / S(U),
    # phi' = w S(u), phi = A - w u T(u) and phi'' = -w sum_j (r+j) e_j u^(-j) / u,
    # all times C0; U^r is never formed.  phi is written 1 - C0 w u T(u), so
    # that it reads 1 where w underflows.
    scale = C0 * dphi_U / S_U
    desc = [v.tolist() for v in (e[::-1], (e / (r + j - 1.0))[::-1], (e * (r + j))[::-1])]

    def far(x, polyval):
        # at an array x with np.polyval, at a float with its twin in floats
        z = 1.0 / x
        cw = scale * (U * z) ** r
        S, T, D = (polyval(p, z) for p in desc)
        return 1.0 - cw * x * T, cw * S, -cw * D * z

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
            phi[outer], dphi[outer], ddphi[outer] = far(uq[outer], np.polyval)
        return phi, dphi, ddphi

    def point3(x: float):
        if x <= u0:
            return eval_series(exp, C0, x)
        if x > U:
            return far(x, horner)
        phi, dphi, ddphi = traj(x)
        return C0 * phi, C0 * dphi, C0 * ddphi

    diagnostics = {
        "u0": u0,
        "series_order": exp.order,
        "U": U,
        "rtol": rtol,
        "atol": atol,
        "A": A,
        "A_stability": stability,
        "steps": len(traj.us) - 1,
    }
    if tail is None:
        diagnostics["tail_note"] = "power-law tail below integrator resolution at U"
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
    # every route validates the grid it is given, so a grid is only built here
    if u_grid is None:
        u_max = 50.0 * params.m if u_max is None else u_max
        u_grid = make_grid(u_max, points, spacing)
    elif u_max is not None:
        check_u_max(u_max)

    if info.regime is Regime.MAIN:
        return solve_main(params, u_max=u_max, rtol=rtol, atol=atol, u_grid=u_grid)
    if info.regime is Regime.CLASSICAL_CL:
        return classical_exact(params, u_grid=u_grid)
    if info.regime is Regime.RISK_FREE:
        return riskfree_exact(params, u_grid=u_grid)
    if info.regime is Regime.CAPITAL_STOCK:
        return capitalstock.phi_capital_stock(params, u_grid, u_max, rtol=rtol, atol=atol)
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
