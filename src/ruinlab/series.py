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

All expansions keep ``ORDER`` terms and hold their last term to ``TOL``,
except phi's transfer at u = 0, which holds it to ``PHI_TOL``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import log_info
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

ORDER = 20
TOL = 1e-12
# The truncation error at u0 reaches C0 amplified: with a last term of 1e-12,
# fig2-II's C0 is 1.8e-11 off its converged value, with 1e-14 it is 1.9e-13,
# for 0.5% more Taylor steps over the main points of sweep seeds 1-10.
PHI_TOL = 1e-14


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
    tol: float = PHI_TOL,
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
    log_info(__name__, "series order %d, transfer point u0=%.6g", order, u0)
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


def truncates(poly: np.ndarray, x, tol: float = TOL):
    """Whether sum_k poly[k] x^k may be cut after its last term at ``x``.

    The last term |a_N x^N| must be at most ``tol`` and the term magnitudes
    |a_k x^k| nonincreasing over the final third of the series.  Returns a
    bool for a scalar ``x``, else a bool array of ``x``'s shape.
    """
    poly = np.asarray(poly, dtype=float)
    x = np.asarray(x, dtype=float)
    terms = np.abs(poly) * x[..., None] ** np.arange(len(poly))
    guard_len = max(2, (len(poly) - 1) // 3)
    # two adjacent overflowed terms give a nan step, which fails the test as
    # it should, without a warning
    with np.errstate(invalid="ignore"):
        decreasing = np.all(np.diff(terms[..., -guard_len:], axis=-1) <= 0.0, axis=-1)
    ok = (terms[..., -1] <= tol) & decreasing
    return bool(ok) if ok.ndim == 0 else ok


def choose_u0(poly: np.ndarray, candidates, fallback: float, tol: float = TOL) -> float:
    """Pick the largest candidate u at which ``poly`` ``truncates``.

    ``poly`` holds the ascending coefficients a_0..a_N of the series.
    Returns ``fallback``, with a warning, when no candidate qualifies.
    """
    candidates = np.asarray(candidates, dtype=float)
    ok = truncates(poly, candidates, tol)
    if ok.any():
        return float(candidates[ok].max())
    warnings.warn(
        f"no transfer point satisfied the truncation rule (tol={tol:g}); "
        f"falling back to u0={float(fallback):g}",
        stacklevel=2,
    )
    return float(fallback)


def horner(coeffs, x: float) -> float:
    """sum_k coeffs[k] x^(N-k), highest power first, by the recurrence of
    ``np.polyval`` in Python floats."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def poly3(poly: np.ndarray, u):
    """Value, first and second derivative of sum_k poly[k] u^k at array
    ``u``, or as Python floats at a float ``u``, with the same arithmetic.

    Horner sums of the polynomial and its derivatives: exact at u = 0, where
    they return poly[0], poly[1] and 2 poly[2].
    """
    p = poly[::-1]
    dp = np.polyder(p)
    ddp = np.polyder(dp)
    if isinstance(u, float):
        return tuple(horner(c.tolist(), u) for c in (p, dp, ddp))
    return np.polyval(p, u), np.polyval(dp, u), np.polyval(ddp, u)


def eval_series(exp: SeriesExpansion, C0: float, u):
    """Evaluate (phi, phi', phi'') of the truncated series at 0 <= u <= u0:
    Python floats for a scalar u, arrays of u's shape otherwise.

    Everything is linear in C0.  Values beyond u0 are refused: the series is
    asymptotic and not trusted past its transfer point.
    """
    if np.ndim(u) == 0:
        uq = lo = hi = float(u)
    else:
        uq = np.asarray(u, dtype=float)
        lo, hi = (uq.min(), uq.max()) if uq.size else (0.0, 0.0)
    # written so that NaN fails too
    if not (0.0 <= lo and hi <= exp.u0 * (1.0 + 1e-12)):
        raise ValueError(f"series evaluation restricted to [0, u0={exp.u0:g}]")
    # C0 stays the outermost factor so scaling C0 rescales the results exactly
    phi, dphi, ddphi = (C0 * v for v in poly3(exp.poly, uq))
    return phi, dphi, ddphi
