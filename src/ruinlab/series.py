"""Power series at the singular point u = 0, and their transfer to u0 > 0.

Both singular problems start from a truncated power series at u = 0,
because their limit initial conditions cannot be handed to a numerical
integrator directly.  In the main regime the survival probability is

    phi(u) = C0 * [1 + (lam/c) * (u + sum_{k>=2} D_k u^k / k)],

whose coefficients D_k follow from a two-term recurrence and do not depend
on C0.  In the capital-stock regime the auxiliary function is

    eta(u) = 1 + sum_{k>=1} P_{k+1} u^k,

the Taylor series of Kummer's function (``capitalstock.eta_series``).
Either series is held as the ascending coefficients ``poly`` of one
polynomial, and the two share this module's machinery:

* ``choose_u0`` picks the transfer abscissa u0 from a candidate grid.  The
  series is treated as asymptotic, not convergent: u0 is accepted only
  where the last retained term is below tolerance *and* the terms still
  decrease in magnitude;
* ``poly3`` evaluates the polynomial and its first two derivatives, which
  gives regular initial data at u0 and the solution on [0, u0].

Both expansions keep ``ORDER`` terms and hold their last term to ``TOL``.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["SeriesExpansion", "series_coeffs_main", "choose_u0", "poly3", "eval_series"]

logger = logging.getLogger(__name__)

ORDER = 20
TOL = 1e-12


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated main-regime expansion at u = 0, and its transfer point.

    ``coeffs[i]`` holds D_{i+2}; ``order`` is N; ``poly`` holds the ascending
    coefficients of phi/C0; ``u0`` is the abscissa to which initial
    conditions are transferred.
    """

    coeffs: np.ndarray
    poly: np.ndarray
    order: int
    u0: float
    params: ModelParams


def _recurrence(params: ModelParams, order: int) -> np.ndarray:
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    b2 = b * b
    D = np.zeros(order + 1)  # D[k] valid for k in 2..order
    D[2] = -((a - lam) / c + 1.0 / m)
    if order >= 3:
        D[3] = -(D[2] * (b2 + 2.0 * a - lam + c / m) + a / m) / (2.0 * c)
    for k in range(4, order + 1):
        t1 = D[k - 1] * ((k - 1) * (k - 2) * b2 / 2.0 + (k - 1) * a - lam + c / m)
        t2 = D[k - 2] * ((k - 3) * b2 / 2.0 + a) / m
        D[k] = -(t1 + t2) / (c * (k - 1))
    return D[2:]


def series_coeffs_main(
    params: ModelParams,
    order: int = ORDER,
    tol: float = TOL,
) -> SeriesExpansion:
    """Build the expansion for the main regime (requires c > 0, order >= 2)."""
    if params.c == 0.0:
        raise ValueError("series recurrence divides by c; c must be positive")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    coeffs = _recurrence(params, order)
    lam_c = params.lam / params.c
    poly = np.concatenate(([1.0, lam_c], lam_c * coeffs / np.arange(2, order + 1)))
    m = params.m
    u0 = choose_u0(poly, m * np.logspace(-3.0, -1.0, 41), min(1e-3, m / 100.0), tol)
    logger.info("series order %d, transfer point u0=%.6g", order, u0)
    return SeriesExpansion(coeffs=coeffs, poly=poly, order=order, u0=u0, params=params)


def choose_u0(poly: np.ndarray, candidates, fallback: float, tol: float = TOL) -> float:
    """Pick the largest trustworthy transfer abscissa from ``candidates``.

    ``poly`` holds the ascending coefficients a_0..a_N of the series.  A
    candidate u qualifies when the last term |a_N u^N| is at most ``tol``
    and the term magnitudes |a_k u^k| are nonincreasing over the final
    third of the series.  Returns ``fallback``, with a warning, when no
    candidate qualifies.
    """
    poly = np.asarray(poly, dtype=float)
    ks = np.arange(len(poly))
    guard_len = max(2, (len(poly) - 1) // 3)
    best = None
    for u in candidates:
        terms = np.abs(poly) * u**ks
        if terms[-1] <= tol and np.all(np.diff(terms[-guard_len:]) <= 0.0):
            best = float(u)
    if best is None:
        best = float(fallback)
        warnings.warn(
            f"no transfer point satisfied the truncation rule (tol={tol:g}); "
            f"falling back to u0={best:g}",
            stacklevel=2,
        )
    return best


def poly3(poly: np.ndarray, u: np.ndarray):
    """Value, first and second derivative of sum_k poly[k] u^k at array ``u``.

    Horner sums of the polynomial and its derivatives: exact at u = 0, where
    they return poly[0], poly[1] and 2 poly[2].
    """
    p = poly[::-1]
    dp = np.polyder(p)
    return np.polyval(p, u), np.polyval(dp, u), np.polyval(np.polyder(dp), u)


def eval_series(exp: SeriesExpansion, C0: float, u):
    """Evaluate (phi, phi', phi'') of the truncated series at 0 <= u <= u0.

    Everything is linear in C0.  Values beyond u0 are refused: the series is
    asymptotic and not trusted past its transfer point.
    """
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    uq = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(uq < 0.0) or np.any(uq > exp.u0 * (1.0 + 1e-12)):
        raise ValueError(f"series evaluation restricted to [0, u0={exp.u0:g}]")
    # C0 stays the outermost factor so scaling C0 rescales the results exactly
    phi, dphi, ddphi = (C0 * v for v in poly3(exp.poly, uq))
    if scalar:
        return float(phi[0]), float(dphi[0]), float(ddphi[0])
    return phi, dphi, ddphi
