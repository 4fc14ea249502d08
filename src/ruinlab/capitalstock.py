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

The series covers [0, u0], integrated termwise, which absorbs the integrable
s^(mu1 - 1) endpoint singularity when mu1 < 1.  One integration of eta's
equation covers [u0, U].  The density is taken once, at solve time, at the
10 Gauss-Legendre nodes of each integrator step; the exact antiderivative
of their degree-9 interpolant, 11 Legendre coefficients per step, equals
the GL sum at the step's end.  So phi at a query is the integral up to its
step plus one Clenshaw evaluation, with no quadrature per query.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolutionError, SolverError, log_info
from .model import ModelParams, Regime, RegimeInfo
from .series import ORDER, choose_u0, horner, poly3
from .solution import SolutionGrid, TailFit, resolve_grid
from .specfun import ext_exp, ext_log

__all__ = ["exponents", "eta_series", "solve_eta", "phi_capital_stock"]

# the 10-point Gauss-Legendre rule on [-1, 1]: the float64 values that
# numpy.polynomial.legendre.leggauss(10) returns, whose weights lie up to 6
# ulp from the exact ones; written out because importing numpy.polynomial
# costs about 0.75 MB of resident memory
_GL_HALF = np.array([
    0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
])
_GL_HALF_W = np.array([
    0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1], _GL_HALF))
_GL_WEIGHTS = np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))


def _legval(c, t):
    """sum_n c[n] P_n(t) by the recurrence of numpy's ``legval``, for a
    sequence ``c`` of floats, or of arrays that broadcast against t."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * t * ((2 * nd - 1) / nd)
    return c0 + c1 * t


def _antiderivative(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Node values g -> Legendre coefficients, 0 at t = -1, of int p dt for
    their interpolant p = sum_n a_n P_n(t), a_n = (n + 1/2) sum_i w_i g_i
    P_n(t_i); the arithmetic of numpy's ``legvander`` and ``legint``."""
    n = x.size
    P = np.empty((n, n))  # P_k(x_i), one row per degree k
    P[0], P[1] = 1.0, x
    for k in range(2, n):
        P[k] = (P[k - 1] * x * (2 * k - 1) - P[k - 2] * (k - 1)) / k
    a = P * w * (np.arange(n) + 0.5)[:, None]
    # int P_0 = P_1, int P_k = (P_(k+1) - P_(k-1)) / (2k + 1), and the
    # constant that puts the zero at t = -1
    F = np.zeros((n + 1, n))
    F[1], F[2] = a[0], a[1] / 3
    for k in range(2, n):
        F[k + 1] = a[k] / (2 * k + 1)
        F[k - 1] -= F[k + 1]
    F[0] = -_legval(F, -1.0)
    return F


_ANTIDERIVATIVE = _antiderivative(_GL_NODES, _GL_WEIGHTS)
# steps per dense-output call of the node pass; bounds its peak memory
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
    log_info(__name__, "capital stock: mu1=%.6g u0=%.4g U=%g P1=%.8g", mu1, u0, U, P1)

    # termwise series panel: sum_k c_k u^(mu1+k)/(mu1+k), c_0 = 1, c_k = P_{k+1}
    panel = poly / (mu1 + np.arange(len(poly)))

    def phi_inner(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lead = np.exp(mu1 * np.log(u / m) - log_zm)
        return lead * np.polyval(panel[::-1], u)

    def density(s: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """P1 s^(mu1-1) eta at s > 0."""
        return np.exp((mu1 - 1.0) * np.log(s / m) - log_zm) * eta / m

    # per step k, from the density at its GL nodes: its integral over the step
    # and the coefficients of its antiderivative F_k(t), t in [-1, 1]
    half = 0.5 * np.diff(traj.us)
    per_step = np.empty_like(half)
    coef = np.empty((_ANTIDERIVATIVE.shape[0], half.size))
    for start in range(0, half.size, _EVAL_BLOCK):
        blk = slice(start, start + _EVAL_BLOCK)
        hb = half[blk]
        nodes = (0.5 * (traj.us[1:][blk] + traj.us[:-1][blk]))[:, None] + hb[:, None] * _GL_NODES
        g = density(nodes, traj(nodes.ravel())[:, 0].reshape(nodes.shape))
        per_step[blk] = hb * (g @ _GL_WEIGHTS)
        coef[:, blk] = (_ANTIDERIVATIVE @ g.T) * hb
    base = phi_inner(np.array([u0]))[0] + np.concatenate(([0.0], np.cumsum(per_step)))

    def phi_outer(x: np.ndarray) -> np.ndarray:
        """phi at u0 <= x <= U: base[k] + F_k(t) in the step k of x, by numpy's
        ``legval`` recurrence with one gathered coefficient alive at a time."""
        step = traj.us[1:-1].searchsorted(x, side="right")
        t = (x - traj.us[step]) / half[step] - 1.0
        c0, c1 = coef[-2][step], coef[-1][step]
        for nd in range(len(coef) - 1, 1, -1):
            c0, c1 = coef[nd - 2][step] - c1 * ((nd - 1) / nd), c0 + c1 * t * ((2 * nd - 1) / nd)
        return base[step] + (c0 + c1 * t)

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
            return float(P1 * poly[1])
        return -np.inf

    def eval3(uq: np.ndarray):
        # the step antiderivatives and the trajectory above u0, the series below
        x = np.maximum(uq, u0)
        phi = phi_outer(x)
        eta, deta = traj(x).T
        inner = uq <= u0
        series = inner.any()
        if series:
            phi[inner] = phi_inner(uq[inner])
            eta[inner], deta[inner], _ = poly3(poly, uq[inner])
        # u = 0 is set below; phi'' ~ u^(mu1-2) overflows near 0 for mu1 < 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dphi = density(uq, eta)
            ddphi = density(uq, (mu1 - 1.0) * eta + uq * deta) / uq
        if series:
            at0 = uq == 0.0
            dphi[at0] = lim_dphi0()
            ddphi[at0] = lim_ddphi0()
        return phi, dphi, ddphi

    panel_desc = panel[::-1].tolist()

    def point3(x: float):
        # eval3's arithmetic in floats: phi_inner and eta's series below u0;
        # above it phi_outer's Clenshaw sum over the step's coefficients,
        # and eta, eta' from the trajectory
        if x <= u0:
            phi = ext_exp(mu1 * ext_log(x / m) - log_zm) * horner(panel_desc, x)
            eta, deta, _ = poly3(poly, x)
        else:
            k = min(int(traj.us.searchsorted(x, side="right")) - 1, half.size - 1)
            t = (x - float(traj.us[k])) / float(half[k]) - 1.0
            phi = float(base[k]) + _legval(coef[:, k].tolist(), t)
            eta, deta = traj(x)
        if x == 0.0:
            return phi, lim_dphi0(), lim_ddphi0()
        # density(x, v) = P1 x^(mu1-1) v
        scale = ext_exp((mu1 - 1.0) * ext_log(x / m) - log_zm)
        return phi, scale * eta / m, scale * ((mu1 - 1.0) * eta + x * deta) / m / x

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
        "steps": len(traj.us) - 1,
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
        _point3=point3,
    )
