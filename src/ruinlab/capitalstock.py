"""Survival probability without premiums (c = 0, b > 0): quadrature route.

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
and so is every value of the density P1 s^(mu1 - 1) eta(s), so no power of
s overflows however large mu1 is.

The partial integral needs eta only out to the largest abscissa asked for.
The series covers [0, u0], integrated termwise, which absorbs the integrable
s^(mu1 - 1) endpoint singularity when mu1 < 1.  One integration of eta's
equation covers [u0, U], with 10-point Gauss-Legendre quadrature over each
integrator step.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import NoSolutionError, SolverError
from .model import ModelParams, Regime, RegimeInfo
from .series import ORDER, choose_u0, poly3
from .solution import SolutionGrid, TailFit, resolve_grid

__all__ = ["exponents", "eta_series", "solve_eta", "phi_capital_stock"]

logger = logging.getLogger(__name__)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
# intervals per dense-output call in quad; bounds the peak memory of a large evaluation
_EVAL_BLOCK = 512
_TINY = np.finfo(float).tiny


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
    """Coefficients P_2..P_order of eta's convergent series at u = 0."""
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


def solve_eta(
    params: ModelParams,
    u_max: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
):
    """Integrate eta from its series transfer point out to ``u_max``.

    Returns the trajectory; its start node is the transfer point u0.  eta
    must stay positive on the whole span (the quadrature integrand would
    otherwise change sign), which is monitored at the step nodes.
    """
    from .odes import eta_ode_field, integrate

    poly = _eta_poly(params)
    m = params.m
    u0 = choose_u0(poly, m * np.logspace(-2.0, np.log10(0.6), 33), 1e-2 * m)
    eta0, deta0, _ = poly3(poly, np.array([u0]))
    traj = integrate(
        eta_ode_field(params), u0, [eta0[0], deta0[0]], u_max, rtol=rtol, atol=atol
    )
    if np.any(traj.states[:, 0] <= 0.0):
        bad = traj.us[np.argmax(traj.states[:, 0] <= 0.0)]
        raise SolverError(f"eta crossed zero near u={bad:.6g}")
    return traj


def phi_capital_stock(
    params: ModelParams,
    u_grid=None,
    u_max: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> SolutionGrid:
    """Solve the capital-stock regime and sample it on ``u_grid``.

    P1 is exact (see the module docstring), and eta is integrated once, out
    to U = max(200 m, u_max), which is the end of the solution's ``span``.
    ``u_max`` defaults to 50 m and ``u_grid`` to 201 uniform points on
    [0, u_max].  ``atol`` bounds the error of phi, not of eta: eta gets the
    absolute tolerance that keeps phi within it, which leaves its relative
    error under ``rtol`` wherever the density matters.  Requires
    2a/b^2 > 1; otherwise the normalizing integral diverges and ruin is
    certain.
    """
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

    # log(Z / m^mu1), Z = 1/P1, with d2 - mu1 = r - 1
    log_zm = (
        math.lgamma(mu1) + math.lgamma(r - 1.0) + math.lgamma(2.0 * d1)
        - math.lgamma(d2) - math.lgamma(2.0 * d1 - mu1)
    )
    # eta ~ Gamma(2 d1)/Gamma(2 d1 - d2) (u/m)^(-d2) gives 1 - phi ~ K u^(1-r)
    log_K = (
        (r - 1.0) * math.log(m) + math.lgamma(2.0 * d1) - math.lgamma(2.0 * d1 - d2)
        - log_zm - math.log(r - 1.0)
    )
    log_Z = log_zm + mu1 * math.log(m)
    with np.errstate(over="ignore", under="ignore"):
        Z, P1, K = (float(v) for v in np.exp([log_Z, -log_Z, log_K]))

    U = max(200.0 * m, u_max)
    # phi moves by at most P1 * delta * int_0^U s^(mu1-1) ds = delta P1 U^mu1 / mu1
    # when eta is off by delta; eta's absolute tolerance keeps that within atol
    log_weight = mu1 * math.log(U / m) - log_zm - math.log(mu1)
    eta_atol = max(atol * math.exp(-max(log_weight, 0.0)), _TINY)
    traj = solve_eta(params, U, rtol=rtol, atol=eta_atol)
    u0 = traj.u_start
    logger.info("capital stock: mu1=%.6g u0=%.4g U=%g P1=%.8g", mu1, u0, U, P1)

    # termwise series panel: sum_k c_k u^(mu1+k)/(mu1+k), c_0 = 1, c_k = P_{k+1}
    panel = poly / (mu1 + np.arange(len(poly)))

    def phi_inner(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lead = np.exp(mu1 * np.log(u / m) - log_zm)
        return lead * np.polyval(panel[::-1], u)

    def density(s: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """P1 s^(mu1-1) eta at s > 0."""
        return np.exp((mu1 - 1.0) * np.log(s / m) - log_zm) * eta / m

    def quad(lo: np.ndarray, hi: np.ndarray):
        """Integrals of the density over [lo_i, hi_i], each inside one step,
        and (eta, eta') at hi: one dense-output call per block of intervals."""
        part = np.empty_like(hi)
        states = np.empty((hi.size, 2))
        for start in range(0, hi.size, _EVAL_BLOCK):
            blk = slice(start, start + _EVAL_BLOCK)
            half = 0.5 * (hi[blk] - lo[blk])
            nodes = (0.5 * (hi[blk] + lo[blk]))[:, None] + half[:, None] * _GL_NODES
            st = traj(np.concatenate((nodes.ravel(), hi[blk])))
            eta_nodes = st[: nodes.size, 0].reshape(nodes.shape)
            part[blk] = half * (density(nodes, eta_nodes) @ _GL_WEIGHTS)
            states[blk] = st[nodes.size:]
        return part, states

    per_step, _ = quad(traj.us[:-1], traj.us[1:])
    base = phi_inner(np.array([u0]))[0] + np.concatenate(([0.0], np.cumsum(per_step)))

    def lim_dphi0() -> float:
        if mu1 > 1.0:
            return 0.0
        if mu1 == 1.0:
            return P1
        return np.inf

    def lim_ddphi0() -> float:
        if mu1 > 2.0:
            return 0.0
        if mu1 == 2.0:
            return P1
        if mu1 > 1.0:
            return np.inf
        if mu1 == 1.0:
            return P1 * poly[1]
        return -np.inf

    def eval3(uq: np.ndarray):
        phi = np.empty_like(uq)
        eta = np.empty_like(uq)
        deta = np.empty_like(uq)
        inner = uq <= u0
        if inner.any():
            phi[inner] = phi_inner(uq[inner])
            eta[inner], deta[inner], _ = poly3(poly, uq[inner])
        outer = ~inner
        if outer.any():
            x = uq[outer]
            step = np.searchsorted(traj.us, x, side="right") - 1
            np.maximum(step, 0, out=step)
            np.minimum(step, len(traj.us) - 2, out=step)
            part, states = quad(traj.us[step], x)
            phi[outer] = base[step] + part
            eta[outer], deta[outer] = states[:, 0], states[:, 1]
        pos = uq > 0.0
        dphi = np.empty_like(uq)
        ddphi = np.empty_like(uq)
        up = uq[pos]
        dphi[pos] = density(up, eta[pos])
        ddphi[pos] = density(up, (mu1 - 1.0) * eta[pos] + up * deta[pos]) / up
        if not pos.all():
            dphi[~pos] = lim_dphi0()
            ddphi[~pos] = lim_ddphi0()
        return phi, dphi, ddphi

    phi, dphi, ddphi = eval3(u_grid)

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
        "rtol": rtol,
        "atol": atol,
    }
    return SolutionGrid(
        u=u_grid,
        phi=phi,
        dphi=dphi,
        ddphi=ddphi,
        C0=0.0,
        regime=RegimeInfo(Regime.CAPITAL_STOCK),
        tail=tail_fit,
        diagnostics=diagnostics,
        _eval3=eval3,
    )
