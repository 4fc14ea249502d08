"""Survival probability without premiums (c = 0, b > 0): Frobenius series and Taylor steps.

In the capital-stock regime the survival probability factors through an
auxiliary function eta:

    phi(u) = P1 * int_0^u s^(mu1 - 1) eta(s) ds,
    P1 = 1 / int_0^inf s^(mu1 - 1) eta(s) ds,

where mu1 = 1/2 - a/b^2 + sqrt((1/2 - a/b^2)^2 + 2 lam/b^2) and eta solves a
second-order equation with eta(0) = 1 and a convergent power series at 0.
That solution is Kummer's function M(d2, 2 d1, -u/m), so the normalizing
integral is its Mellin transform (DLMF 13.10.10):

    1/P1 = m^mu1 Gamma(mu1) Gamma(d2 - mu1) Gamma(2 d1) / (Gamma(d2) Gamma(2 d1 - mu1)),

finite exactly when d2 - mu1 = 2a/b^2 - 1 > 0.  It is evaluated in logs,
and so is the density P1 s^(mu1 - 1) eta(s) on the series, so no power of
s overflows however large mu1 is.

The series covers [0, u0], integrated termwise, which absorbs the integrable
s^(mu1 - 1) endpoint singularity when mu1 < 1.  Above u0, phi' = P1 s^(mu1 - 1)
eta(s) solves the main regime's equation for phi' with c = 0, so
``odes.integrate`` carries (phi, phi', phi'') from the Frobenius series at
u0 to U, with phi the termwise antiderivative of phi' on every step.  The
start passes the factor P1 (u0/m)^(mu1 - 1) / m in logs, and the
integrator keeps the state's scale apart, so phi' may start far below
double range; P1 stays exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolutionError, SolverError, log_info
from .model import ModelParams, Regime, RegimeInfo
from .series import ORDER, choose_u0, horner, origin_limits, poly3
from .solution import SolutionGrid, TailFit, check_tolerances, resolve_grid
from .specfun import STIRLING_MIN, ext_exp, ext_log, log_gamma_ratio

__all__ = ["exponents", "eta_series", "solve_eta", "phi_capital_stock"]

def exponents(params: ModelParams) -> tuple[float, float, float]:
    """Return (mu1, d1, d2) for b > 0.

    mu1 is computed in rationalized form when 1/2 - a/b^2 is negative, so
    large a/b^2 does not lose digits to cancellation.
    """
    if params.b == 0.0:
        raise ValueError("capital-stock exponents require b > 0")
    q = params.a / params.b**2
    s = 0.5 - q
    rad = np.sqrt(s * s + 2.0 * params.lam / params.b**2)
    mu1 = s + rad if s >= 0.0 else (2.0 * params.lam / params.b**2) / (rad - s)
    return float(mu1), float(mu1 + q), float(mu1 + 2.0 * q - 1.0)


def eta_series(params: ModelParams, order: int = ORDER) -> np.ndarray:
    """Coefficients P_2..P_order of eta's convergent series at u = 0
    (requires order >= 2)."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    _, d1, d2 = exponents(params)
    m = params.m
    P = np.zeros(order + 1)  # P[k] valid for k = 2..order
    P[2] = -d2 / (2.0 * m * d1)
    for k in range(2, order):
        P[k + 1] = -P[k] * (k - 1 + d2) / (m * k * (k - 1 + 2.0 * d1))
    return P[2:]


def _eta_poly(params: ModelParams) -> np.ndarray:
    """Ascending coefficients 1, P_2, .., P_ORDER of eta's truncated series."""
    return np.concatenate(([1.0], eta_series(params)))


def _transfer_point(poly: np.ndarray, m: float) -> float:
    """u0: the largest of 33 candidates in [0.01 m, 0.6 m] where eta's series
    truncates."""
    return choose_u0(poly, m * np.logspace(-2.0, np.log10(0.6), 33), 1e-2 * m)


def _log_zm(mu1: float, d1: float, d2: float, r: float) -> float:
    """log(Z / m^mu1), Z = 1/P1 (module docstring), with d2 - mu1 = r - 1
    and 2 d1 - mu1 = mu1 + r.

    Z holds two log-gamma ratios with shift mu1.  As differences of
    ``math.lgamma`` they lose about ulp(lgamma(2 d1)), 9e-12 at r = 4,622
    and 1e-7 at r = 4.5e7; from r - 1 = ``STIRLING_MIN`` on they come from
    ``log_gamma_ratio``.
    """
    if r - 1.0 < STIRLING_MIN:
        return (
            math.lgamma(mu1) + math.lgamma(r - 1.0) + math.lgamma(2.0 * d1)
            - math.lgamma(d2) - math.lgamma(2.0 * d1 - mu1)
        )
    return math.lgamma(mu1) + log_gamma_ratio(mu1 + r, mu1) - log_gamma_ratio(r - 1.0, mu1)


def solve_eta(params: ModelParams, u_max: float, rtol: float = 1e-10):
    """Integrate eta from its series transfer point out to ``u_max``.

    Returns the trajectory of (eta, eta'); its start node is the transfer
    point u0.  Raises :class:`SolverError` where eta is negative at a node.
    ``phi_capital_stock`` does not use eta's equation: it integrates phi'.
    """
    from .odes import eta_ode_field, integrate

    poly = _eta_poly(params)
    u0 = _transfer_point(poly, params.m)
    eta0, deta0, _ = poly3(poly, u0)
    traj = integrate(eta_ode_field(params), u0, [eta0, deta0], u_max, rtol=rtol)
    # eta falls below double range far out: an underflow reads +0.0, a
    # negative value -0.0
    negative = np.signbit(traj.states[:, 0])
    if negative.any():
        raise SolverError(f"eta crossed zero near u={traj.us[np.argmax(negative)]:.6g}")
    return traj


def phi_capital_stock(
    params: ModelParams,
    u_grid=None,
    u_max: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SolutionGrid:
    """Solve the capital-stock regime and sample it on ``u_grid``.

    P1 is exact (see the module docstring), and phi' is integrated once,
    out to U = max(200 m, u_max), which is the end of the solution's
    ``span``.  ``u_max`` defaults to 50 m and ``u_grid`` to 201 uniform
    points on [0, u_max].  The integration holds phi' to ``rtol``, relative
    to itself, since it may start far below double range; ``atol`` is
    checked like ``rtol`` and otherwise unused.  Raises
    :class:`SolverError` where phi' is negative at a step node.  Requires
    2a/b^2 > 1; otherwise the normalizing integral diverges and ruin is
    certain.
    """
    from . import odes  # at call time, where perfbench/tracer.py patches integrate

    check_tolerances(rtol, atol)
    if params.c != 0.0 or params.b == 0.0:
        raise ValueError(f"capital-stock regime requires c = 0 and b > 0, got {params}")
    r = params.robustness()
    if r <= 1.0:
        raise NoSolutionError(
            f"tail integral diverges: 2a/b^2 = {r:g} <= 1 (shares not robust)"
        )
    mu1, d1, d2 = exponents(params)
    m = params.m
    poly = _eta_poly(params)

    u_grid, u_max = resolve_grid(m, u_grid, u_max)

    log_zm = _log_zm(mu1, d1, d2, r)
    # eta ~ Gamma(2 d1)/Gamma(2 d1 - d2) (u/m)^(-d2) gives 1 - phi ~ K u^(1-r)
    log_K = (
        (r - 1.0) * math.log(m) + math.lgamma(2.0 * d1) - math.lgamma(2.0 * d1 - d2)
        - log_zm - math.log(r - 1.0)
    )
    log_Z = log_zm + mu1 * math.log(m)
    with np.errstate(over="ignore", under="ignore"):
        Z, P1, K = (float(v) for v in np.exp([log_Z, -log_Z, log_K]))

    U = max(200.0 * m, u_max)
    u0 = _transfer_point(poly, m)
    log_info(__name__, "capital stock: mu1=%.6g u0=%.4g U=%g P1=%.8g", mu1, u0, U, P1)

    # termwise series panel: sum_k c_k u^(mu1+k)/(mu1+k), c_0 = 1, c_k = P_{k+1}
    panel = poly / (mu1 + np.arange(len(poly)))
    panel_desc = panel[::-1].tolist()

    def phi_inner(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lead = np.exp(mu1 * np.log(u / m) - log_zm)
        return lead * np.polyval(panel_desc, u)

    def density(s: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """P1 s^(mu1-1) eta at s > 0."""
        return np.exp((mu1 - 1.0) * np.log(s / m) - log_zm) * eta / m

    # (phi, phi', phi'') at u0 over their common factor W = density(u0, 1),
    # which is passed in logs
    eta0, deta0, _ = poly3(poly, u0)
    state0 = [u0 * horner(panel_desc, u0), eta0, ((mu1 - 1.0) * eta0 + u0 * deta0) / u0]
    log_w = (mu1 - 1.0) * math.log(u0 / m) - log_zm - math.log(m)
    traj = odes.integrate(
        odes.main_ode_field(params), u0, state0, U, rtol=rtol, log_scale=log_w
    )
    # phi' falls below double range near u0 for large mu1: an underflow
    # reads +0.0, a negative value -0.0
    negative = np.signbit(traj.states[:, 1])
    if negative.any():
        at = traj.us[np.argmax(negative)]
        raise SolverError(f"capital-stock density is not positive near u={at:.6g}")

    # eta = 1 + P_2 u + ..., so phi' = P1 u^(mu1-1) (1 + P_2 u + ...)
    dphi0, ddphi0 = origin_limits(mu1, P1, float(poly[1]))

    def eval3(uq: np.ndarray):
        # the trajectory above u0, the series below
        phi, dphi, ddphi = traj(np.maximum(uq, u0)).T
        inner = uq <= u0
        if inner.any():
            x = uq[inner]
            eta, deta, _ = poly3(poly, x)
            phi[inner] = phi_inner(x)
            # phi'' ~ u^(mu1-2) overflows near 0 for mu1 < 2; u = 0 is set below
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                dphi[inner] = density(x, eta)
                ddphi[inner] = density(x, (mu1 - 1.0) * eta + x * deta) / x
            at0 = uq == 0.0
            dphi[at0] = dphi0
            ddphi[at0] = ddphi0
        return phi, dphi, ddphi

    def point3(x: float):
        # eval3's arithmetic in floats
        if x > u0:
            return tuple(traj(x))
        phi = ext_exp(mu1 * ext_log(x / m) - log_zm) * horner(panel_desc, x)
        if x == 0.0:
            return phi, dphi0, ddphi0
        eta, deta, _ = poly3(poly, x)
        # density(x, v) = P1 x^(mu1-1) v
        scale = ext_exp((mu1 - 1.0) * ext_log(x / m) - log_zm)
        return phi, scale * eta / m, scale * ((mu1 - 1.0) * eta + x * deta) / m / x

    # Z is exact, so the limit does not move with U: stability is 0
    tail_fit = TailFit(A=Z, K=K, exponent=1.0 - r, U=U, stability=0.0)
    diagnostics = {
        "P1": P1,
        "log_P1": -log_Z,  # finite where P1 underflows to 0 (log Z > 709)
        "mu1": mu1,
        "d1": d1,
        "d2": d2,
        "u0": u0,
        "U": U,
        "steps": len(traj.us) - 1,
        "rtol": rtol,
        "atol": atol,
    }
    return SolutionGrid.sample(
        u_grid,
        eval3,
        point3,
        C0=0.0,
        regime=RegimeInfo(Regime.CAPITAL_STOCK),
        tail=tail_fit,
        diagnostics=diagnostics,
        span=(0.0, U),
    )
