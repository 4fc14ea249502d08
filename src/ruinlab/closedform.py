"""Exact survival probabilities for the two b = 0 degenerate regimes.

Without risky investment the survival equation drops its second-order term
and admits closed forms:

* classical regime (a = b = 0, c > lam*m):
      phi(u) = 1 - (lam*m/c) * exp(-R_L u),  R_L = (c - lam*m)/(m*c);
* risk-free regime (b = 0, a > 0, c >= 0):
      phi(u) = 1 - I_c(u)/[I_c(0) + (a/lam)(c/a)^(lam/a)],
  where I_c(u) = m^(lam/a) exp(c/(a m)) * Gamma(lam/a, u/m + c/(a m)).

Both serve as independent oracles for the numerical pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoSolutionError
from .model import ModelParams, Regime, classify_regime
from .specfun import complete_gamma, upper_incomplete_gamma

__all__ = [
    "ClosedFormSolution",
    "classical_exact",
    "riskfree_exact",
    "riskfree_tail",
    "lundberg_coefficient",
]


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exact solution: phi and phi' evaluable anywhere on [0, inf).

    ``dphi_at_zero`` may be ``inf`` (risk-free, c = 0, a > lam: the slope at
    the origin is unbounded but integrable).  ``ic0`` and ``norm_const`` are
    populated for the risk-free regime only.
    """

    regime: Regime
    params: ModelParams
    C0: float
    evaluator: Callable[[np.ndarray], tuple]
    dphi_at_zero: float
    ic0: float | None = None
    norm_const: float | None = None

    def evaluate(self, u):
        """Return (phi, phi') at scalar or array u >= 0."""
        scalar = np.isscalar(u) or np.asarray(u).ndim == 0
        uq = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(uq < 0.0):
            raise ValueError("u must be nonnegative")
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


def _ic(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """I_c(u) via the upper incomplete gamma function."""
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    z0 = c / (a * m)
    pref = m**p * math.exp(z0)
    return pref * np.array([upper_incomplete_gamma(p, ui / m + z0) for ui in np.atleast_1d(u)])


def riskfree_exact(params: ModelParams) -> ClosedFormSolution:
    """Exact solution for b = 0, a > 0, with or without premiums (c >= 0)."""
    if params.b != 0.0 or params.a <= 0.0:
        raise ValueError(f"riskfree_exact requires b = 0 and a > 0, got {params}")
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    # (c/a)^p vanishes for c = 0, which folds the premium-free case into the
    # same normalization.
    q = (a / lam) * (c / a) ** p
    ic0 = float(_ic(params, np.array([0.0]))[0])
    norm = ic0 + q
    c_over_a = c / a
    log_norm = math.log(norm)

    def evaluator(u: np.ndarray):
        phi = 1.0 - _ic(params, u) / norm
        # in logs: (u + c/a)^(p-1) alone overflows from p ~ 150 at u ~ 117
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(
                (u + c_over_a) > 0.0,
                np.exp((p - 1.0) * np.log(u + c_over_a) - u / m - log_norm),
                math.inf if p < 1.0 else (1.0 / norm if p == 1.0 else 0.0),
            )
        return phi, dphi

    if c > 0.0:
        d1 = lam * (q / norm) / c  # = lam*C0/c, exact by construction
    elif a < lam:
        d1 = 0.0
    elif a == lam:
        d1 = 1.0 / m
    else:
        d1 = math.inf  # integrable endpoint singularity of the slope

    return ClosedFormSolution(
        regime=Regime.RISK_FREE,
        params=params,
        C0=q / norm,
        evaluator=evaluator,
        dphi_at_zero=d1,
        ic0=ic0,
        norm_const=norm,
    )


def riskfree_tail(params: ModelParams, u):
    """Large-u approximant 1 - M u^(lam/a - 1) exp(-u/m) for cross-checks.

    M = m / [(a/lam)(c/a)^(lam/a) + I_c(0)]; for c = 0 the bracket reduces to
    the complete-gamma normalization m^(lam/a) Gamma(lam/a).
    """
    if params.b != 0.0 or params.a <= 0.0:
        raise ValueError("riskfree_tail requires b = 0 and a > 0")
    a, c, lam, m = params.a, params.c, params.lam, params.m
    p = lam / a
    if c > 0.0:
        norm = (a / lam) * (c / a) ** p + float(_ic(params, np.array([0.0]))[0])
    else:
        norm = m**p * complete_gamma(p)
    uq = np.asarray(u, dtype=float)
    return 1.0 - (m / norm) * uq ** (p - 1.0) * np.exp(-uq / m)
