"""Exact survival probabilities for the two b = 0 degenerate regimes.

Without risky investment the survival equation drops its second-order term
and admits closed forms:

* classical regime (a = b = 0, c > lam*m):
      phi(u) = 1 - (lam*m/c) * exp(-R_L u),  R_L = (c - lam*m)/(m*c);
* risk-free regime (b = 0, a > 0, c >= 0):
      phi(u) = 1 - I_c(u)/[I_c(0) + q],  q = (a/lam)(c/a)^(lam/a),
  where I_c(u) = m^(lam/a) exp(c/(a m)) * Gamma(lam/a, u/m + c/(a m)).

The risk-free form is assembled in logs: log I_c(u) = p log m + z0 +
log Gamma(p, z) with p = lam/a and z0 = c/(a m), the normalization
log(I_c(0) + q) by log-sum-exp, phi = 1 - exp(log I_c(u) - log norm) and
phi' = exp((p - 1) log(u + c/a) - u/m - log norm).  So no m^p, Gamma(p) or
norm is formed, and the solution stays finite where they overflow (p of
several hundred).  Arrays of ``_ARRAY_MIN`` points or more take
log Gamma from the array kernel ``log_upper_incomplete_gamma``.  Shorter
queries with p <= ``_SCALAR_P_MAX``, where Gamma(p, z) is finite, call
``upper_incomplete_gamma`` per point, which is faster below that size.

Both serve as independent oracles for the numerical pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoSolutionError
from .model import ModelParams, Regime, classify_regime
from .specfun import log_upper_incomplete_gamma, upper_incomplete_gamma

__all__ = [
    "ClosedFormSolution",
    "classical_exact",
    "riskfree_exact",
    "riskfree_tail",
    "lundberg_coefficient",
]

# Queries below this many points take the scalar routine per point: at
# ~4 us a point it beats the array kernel, whose loops cost 0.15-0.7 ms
# whatever the size, up to 128-256 points (measured on a 2-core x86 VM)
_ARRAY_MIN = 128
# Gamma(p) and so Gamma(p, z) are finite for p below 171.6
_SCALAR_P_MAX = 171.0


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exact solution: phi and phi' evaluable anywhere on [0, inf).

    ``dphi_at_zero`` may be ``inf`` (risk-free, c = 0, a > lam: the slope at
    the origin is unbounded but integrable).  ``log_ic0`` = log I_c(0) and
    ``log_norm`` = log(I_c(0) + q) are populated for the risk-free regime
    only; they stay finite where I_c(0) overflows.
    """

    regime: Regime
    params: ModelParams
    C0: float
    evaluator: Callable[[np.ndarray], tuple]
    dphi_at_zero: float
    log_ic0: float | None = None
    log_norm: float | None = None

    def evaluate(self, u):
        """Return (phi, phi') at scalar or array u >= 0.

        Raises ValueError for a negative, infinite or NaN u."""
        scalar = np.isscalar(u) or np.asarray(u).ndim == 0
        uq = np.atleast_1d(np.asarray(u, dtype=float))
        # written so that NaN fails too
        if uq.size and not (0.0 <= uq.min() and uq.max() < math.inf):
            raise ValueError("u must be finite and nonnegative")
        phi, dphi = self.evaluator(uq)
        if scalar:
            return float(phi[0]), float(dphi[0])
        return phi, dphi


def lundberg_coefficient(params: ModelParams) -> float:
    """Exponential decay rate of the classical ruin probability."""
    if params.c <= params.lam * params.m:
        raise NoSolutionError("Lundberg coefficient requires c > lam*m")
    return (params.c - params.lam * params.m) / (params.m * params.c)


def classical_exact(params: ModelParams) -> ClosedFormSolution:
    """Exact solution for a = b = 0; requires positive safety loading."""
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

    def evaluator(u: np.ndarray):
        decay = np.exp(-rl * u)
        return 1.0 - amp * decay, amp * rl * decay

    return ClosedFormSolution(
        regime=Regime.CLASSICAL_CL,
        params=params,
        C0=1.0 - amp,
        evaluator=evaluator,
        dphi_at_zero=amp * rl,
    )


def _log_ic(p: float, z0: float, m: float, u: np.ndarray) -> np.ndarray:
    """log I_c(u) = p log m + z0 + log Gamma(p, u/m + z0)."""
    z = u / m + z0
    if z.size < _ARRAY_MIN and p <= _SCALAR_P_MAX:
        with np.errstate(divide="ignore"):  # Gamma(p, z) underflows from z ~ 745
            log_g = np.log([upper_incomplete_gamma(p, x) for x in z])
        # the kernel's value at z = 0, so that phi(0) = 0 exactly without
        # premiums on both routes
        log_g[z == 0.0] = math.lgamma(p)
    else:
        log_g = log_upper_incomplete_gamma(p, z)
    return p * math.log(m) + z0 + log_g


def _log_norm(params: ModelParams) -> tuple[float, float, float]:
    """(log q, log I_c(0), log norm) of the risk-free form, norm = I_c(0) + q."""
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    # q = (a/lam)(c/a)^p vanishes for c = 0, which folds the premium-free
    # case into the same normalization
    log_q = math.log(a / lam) + p * math.log(c / a) if c > 0.0 else -math.inf
    log_ic0 = float(_log_ic(p, c / (a * m), m, np.zeros(1))[0])
    return log_q, log_ic0, float(np.logaddexp(log_ic0, log_q))


def riskfree_exact(params: ModelParams) -> ClosedFormSolution:
    """Exact solution for b = 0, a > 0, with or without premiums (c >= 0)."""
    if params.b != 0.0 or params.a <= 0.0:
        raise ValueError(f"riskfree_exact requires b = 0 and a > 0, got {params}")
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    z0 = c / (a * m)
    c_over_a = c / a
    log_q, log_ic0, log_norm = _log_norm(params)

    def evaluator(u: np.ndarray):
        phi = 1.0 - np.exp(_log_ic(p, z0, m, u) - log_norm)
        # in logs: (u + c/a)^(p-1) alone overflows from p ~ 150 at u ~ 117
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(
                (u + c_over_a) > 0.0,
                np.exp((p - 1.0) * np.log(u + c_over_a) - u / m - log_norm),
                math.inf if p < 1.0 else (math.exp(-log_norm) if p == 1.0 else 0.0),
            )
        return phi, dphi

    C0 = math.exp(log_q - log_norm)
    if c > 0.0:
        d1 = lam * C0 / c  # exact by construction
    elif a < lam:
        d1 = 0.0
    elif a == lam:
        d1 = 1.0 / m
    else:
        d1 = math.inf  # integrable endpoint singularity of the slope

    return ClosedFormSolution(
        regime=Regime.RISK_FREE,
        params=params,
        C0=C0,
        evaluator=evaluator,
        dphi_at_zero=d1,
        log_ic0=log_ic0,
        log_norm=log_norm,
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
