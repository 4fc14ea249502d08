"""Exact survival probabilities for the two b = 0 degenerate regimes.

Without risky investment the survival equation drops its second-order term
and admits closed forms:

* classical regime (a = b = 0, c > lam*m):
      phi(u) = 1 - (lam*m/c) * exp(-R_L u),  R_L = (c - lam*m)/(m*c);
* risk-free regime (b = 0, a > 0, c >= 0):
      phi(u) = 1 - I_c(u)/[I_c(0) + q],  q = (a/lam)(c/a)^(lam/a),
  where I_c(u) = m^(lam/a) exp(c/(a m)) * Gamma(lam/a, u/m + c/(a m)).

Both routes return a ``SolutionGrid`` whose span is [0, inf), with phi''
from the degenerate equation (a u + c) phi'' + (a - lam + c/m + a u/m) phi'
= 0: phi'' = -R_L phi' in the classical regime, and, divided by a w with
w = u + c/a, phi'' = (p - 1 - w/m) phi'/w in the risk-free regime for every
c >= 0.  Where w = 0 (u = 0 without premiums) phi' and phi'' are the limits
of phi' ~ u^(p-1) exp(-u/m) / norm (``series.origin_limits``).

The risk-free form is assembled in logs: log I_c(u) = p log m + z0 +
log Gamma(p, z) with p = lam/a and z0 = c/(a m), the normalization
log(I_c(0) + q) by log-sum-exp, phi = 1 - exp(log I_c(u) - log norm) and
phi' = exp((p - 1) log(u + c/a) - u/m - log norm).  So no m^p, Gamma(p) or
norm is formed, and the solution stays finite where they overflow (p of
several hundred).  Without premiums phi = -expm1(log Q(p, u/m)) from the
regularized log Q, which adding and removing log Gamma(p) would round where
phi is small.  Arrays take log Gamma or log Q from the array kernel
``log_upper_incomplete_gamma``.  A single point takes the solution's point
evaluator: the same formulas in Python floats, with log Gamma or log Q from
the scalar routines (``upper_incomplete_gamma`` while p <= ``_SCALAR_P_MAX``,
where Gamma(p, z) is finite).

Both serve as independent oracles for the numerical pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolutionError
from .model import ModelParams, Regime, RegimeInfo, classify_regime
from .series import origin_limits
from .solution import SolutionGrid, resolve_grid
from .specfun import (
    _log_upper_gamma,
    ext_exp,
    ext_log,
    log_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "classical_exact",
    "riskfree_exact",
    "riskfree_tail",
    "lundberg_coefficient",
]

# Gamma(p) and so Gamma(p, z) are finite for p below 171.6
_SCALAR_P_MAX = 171.0


def lundberg_coefficient(params: ModelParams) -> float:
    """Exponential decay rate of the classical ruin probability."""
    if params.c <= params.lam * params.m:
        raise NoSolutionError("Lundberg coefficient requires c > lam*m")
    return (params.c - params.lam * params.m) / (params.m * params.c)


def classical_exact(params: ModelParams, u_grid=None) -> SolutionGrid:
    """Exact solution for a = b = 0; requires positive safety loading.

    Sampled on ``u_grid``, by default 201 points on [0, 50 m]."""
    info = classify_regime(params)
    if info.regime is not Regime.CLASSICAL_CL:
        if params.a == 0.0 and params.b == 0.0:
            raise NoSolutionError(
                f"no solution: c <= lambda*m ({params.c:g} <= {params.lam * params.m:g})"
            )
        raise ValueError(f"classical_exact requires a = b = 0, got {params}")
    c, lam, m = params.c, params.lam, params.m
    rl = lundberg_coefficient(params)
    amp = lam * m / c

    def eval3(u: np.ndarray):
        decay = np.exp(-rl * u)
        dphi = amp * rl * decay
        return 1.0 - amp * decay, dphi, -rl * dphi

    def point3(x: float):
        decay = math.exp(-rl * x)
        dphi = amp * rl * decay
        return 1.0 - amp * decay, dphi, -rl * dphi

    C0 = 1.0 - amp
    diagnostics = {
        "C0": C0,
        "dphi_at_zero": point3(0.0)[1],
        "U": math.inf,
        "lundberg_coefficient": rl,
    }
    u_grid, _ = resolve_grid(m, u_grid)
    return SolutionGrid.sample(u_grid, eval3, point3, C0=C0, regime=info, diagnostics=diagnostics)


def _log_ic_point(p: float, z0: float, m: float, x: float) -> float:
    """log I_c(x) at one x >= 0, for c > 0."""
    z = x / m + z0
    if p <= _SCALAR_P_MAX:  # Gamma(p, z) is finite; it underflows from z ~ 745
        log_g = ext_log(upper_incomplete_gamma(p, z))
    else:
        log_g = _log_upper_gamma(p, z)
    return p * math.log(m) + z0 + log_g


def _log_norm(params: ModelParams) -> tuple[float, float, float]:
    """(log q, log I_c(0), log norm) of the risk-free form, norm = I_c(0) + q."""
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    # q = (a/lam)(c/a)^p vanishes for c = 0, where I_c(0) = m^p Gamma(p)
    log_q, log_ic0 = -math.inf, p * math.log(m) + math.lgamma(p)
    if c > 0.0:
        log_q = math.log(a / lam) + p * math.log(c / a)
        log_ic0 = _log_ic_point(p, c / (a * m), m, 0.0)
    return log_q, log_ic0, float(np.logaddexp(log_ic0, log_q))


def riskfree_exact(params: ModelParams, u_grid=None) -> SolutionGrid:
    """Exact solution for b = 0, a > 0, with or without premiums (c >= 0).

    Sampled on ``u_grid``, by default 201 points on [0, 50 m]."""
    if params.b != 0.0 or params.a <= 0.0:
        raise ValueError(f"riskfree_exact requires b = 0 and a > 0, got {params}")
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    z0 = c / (a * m)
    c_over_a = c / a
    log_q, log_ic0, log_norm = _log_norm(params)
    # phi' and phi'' where w = u + c/a = 0, which only u = 0 without premiums
    # reaches: there phi' = u^(p-1) exp(-u/m) / norm
    dphi_origin, ddphi_origin = origin_limits(p, ext_exp(-log_norm), -1.0 / m)

    def eval3(u: np.ndarray):
        if c > 0.0:
            log_g = log_upper_incomplete_gamma(p, u / m + z0)
            phi = 1.0 - np.exp(p * math.log(m) + z0 + log_g - log_norm)
        else:
            phi = -np.expm1(log_upper_incomplete_gamma(p, u / m, regularized=True))
        w = u + c_over_a
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # in logs: w^(p-1) alone overflows from p ~ 150 at u ~ 117
            dphi = np.where(w > 0.0, np.exp((p - 1.0) * np.log(w) - u / m - log_norm), dphi_origin)
            ddphi = np.where(w > 0.0, ((p - 1.0) - w / m) * (dphi / w), ddphi_origin)
        return phi, dphi, ddphi

    def point3(x: float):
        # eval3's arithmetic in floats
        if c > 0.0:
            phi = 1.0 - ext_exp(_log_ic_point(p, z0, m, x) - log_norm)
        else:
            z = x / m  # phi(0) is 0.0, where -expm1(log Q(p, 0)) reads -0.0
            phi = -math.expm1(_log_upper_gamma(p, z, True)) if z > 0.0 else 0.0
        w = x + c_over_a
        if not w > 0.0:
            return phi, dphi_origin, ddphi_origin
        dphi = ext_exp((p - 1.0) * ext_log(w) - x / m - log_norm)
        return phi, dphi, ((p - 1.0) - w / m) * (dphi / w)

    C0 = math.exp(log_q - log_norm)
    # point3(0.0)[1], without forming log I_c(0) a second time
    dphi0 = ext_exp((p - 1.0) * ext_log(c_over_a) - log_norm) if c > 0.0 else dphi_origin
    diagnostics = {
        "C0": C0,
        "dphi_at_zero": dphi0,
        "U": math.inf,
        "log_ic0": log_ic0,
        "log_norm": log_norm,
    }
    u_grid, _ = resolve_grid(m, u_grid)
    return SolutionGrid.sample(
        u_grid, eval3, point3, C0=C0, regime=RegimeInfo(Regime.RISK_FREE), diagnostics=diagnostics
    )


def riskfree_tail(params: ModelParams, u):
    """Large-u approximant 1 - M u^(lam/a - 1) exp(-u/m) for cross-checks.

    M = m / [(a/lam)(c/a)^(lam/a) + I_c(0)], formed in logs; for c = 0 the
    bracket reduces to the complete-gamma normalization m^(lam/a) Gamma(lam/a).
    """
    if params.b != 0.0 or params.a <= 0.0:
        raise ValueError("riskfree_tail requires b = 0 and a > 0")
    p = params.lam / params.a
    m = params.m
    uq = np.asarray(u, dtype=float)
    expo = math.log(m) - _log_norm(params)[2] - uq / m
    if p != 1.0:  # u^0 = 1 also at u = 0
        with np.errstate(divide="ignore"):
            expo = expo + (p - 1.0) * np.log(uq)
    return 1.0 - np.exp(expo)
