"""Power series at the two singular points, u = 0 and u = infinity.

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
  decrease in magnitude (``truncates``);
* ``poly3`` evaluates the polynomial and its first two derivatives, which
  gives regular initial data at u0 and the solution on [0, u0].

At infinity the main-regime slope is a power law times a series in 1/u,
phi' ~ K u^(-r) sum_j e_j u^(-j) with r = 2a/b^2 (Frolova, Kabanov &
Pergamenshchikov 2002); ``series_coeffs_infinity`` gives the e_j, and the
solver matches the series at a U where it ``truncates`` in 1/U.

All expansions keep ``ORDER`` terms and hold their last term to ``TOL``.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "SeriesExpansion",
    "series_coeffs_main",
    "series_coeffs_infinity",
    "truncates",
    "choose_u0",
    "poly3",
    "eval_series",
]

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


def series_coeffs_infinity(params: ModelParams) -> np.ndarray:
    """e_0 = 1, e_1..e_ORDER of phi' ~ K u^(-r) sum_j e_j u^(-j) at infinity.

    Substituting the series into the equation for phi' (a = r b^2 / 2) gives

        e_j = (2m / (b^2 j)) * {[(b^2/2)(r+j-2)(j-1) + c/m - lam] e_(j-1)
                                - c (r+j-2) e_(j-2)}.
    """
    b2, c, lam, m = params.b**2, params.c, params.lam, params.m
    r = params.robustness()
    e = [0.0, 1.0]  # e_(-1) = 0, e_0 = 1
    for j in range(1, ORDER + 1):
        t = (0.5 * b2 * (r + j - 2.0) * (j - 1.0) + c / m - lam) * e[-1] - c * (r + j - 2.0) * e[-2]
        e.append(2.0 * m / (b2 * j) * t)
    return np.array(e[1:])


def truncates(poly: np.ndarray, x: float, tol: float = TOL) -> bool:
    """Whether sum_k poly[k] x^k may be cut after its last term at ``x``.

    The last term |a_N x^N| must be at most ``tol`` and the term magnitudes
    |a_k x^k| nonincreasing over the final third of the series.
    """
    poly = np.asarray(poly, dtype=float)
    terms = np.abs(poly) * x ** np.arange(len(poly))
    guard_len = max(2, (len(poly) - 1) // 3)
    return bool(terms[-1] <= tol and np.all(np.diff(terms[-guard_len:]) <= 0.0))


def choose_u0(poly: np.ndarray, candidates, fallback: float, tol: float = TOL) -> float:
    """Pick the largest candidate u at which ``poly`` ``truncates``.

    ``poly`` holds the ascending coefficients a_0..a_N of the series.
    Returns ``fallback``, with a warning, when no candidate qualifies.
    """
    best = max((float(u) for u in candidates if truncates(poly, u, tol)), default=None)
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
    # written so that NaN fails too
    if uq.size and not (0.0 <= uq.min() and uq.max() <= exp.u0 * (1.0 + 1e-12)):
        raise ValueError(f"series evaluation restricted to [0, u0={exp.u0:g}]")
    # C0 stays the outermost factor so scaling C0 rescales the results exactly
    phi, dphi, ddphi = (C0 * v for v in poly3(exp.poly, uq))
    if scalar:
        return float(phi[0]), float(dphi[0]), float(ddphi[0])
    return phi, dphi, ddphi
