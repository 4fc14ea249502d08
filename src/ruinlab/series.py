"""Power series at the two singular points, u = 0 and u = infinity.

Both singular problems start from a truncated power series at u = 0,
because their limit initial conditions cannot be handed to a numerical
integrator directly.  In the main regime the survival probability is

    phi(u) = C0 * [1 + (lam/c) * (u + sum_{k>=2} D_k u^k / k)],

whose coefficients D_k follow from a two-term recurrence and do not depend
on C0; it is held in x = u/m (``SeriesExpansion``).  In the capital-stock regime the auxiliary function is

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

Where the slope has a power-law leading term at u = 0 instead,
phi' = A u^(e-1) (1 + s u + ...), ``origin_limits`` reads phi'(0+) and
phi''(0+) off that term: the capital stock (e = mu1) and the risk-free
regime without premiums (e = lam/a) share it.

At infinity 1 - phi ~ K u^(1-r), r = 2a/b^2, and the slope is that power
law times a series in 1/u, phi' ~ K (r-1) u^(-r) sum_j e_j u^(-j) (Frolova,
Kabanov & Pergamenshchikov 2002).  ``series_coeffs_infinity`` gives
the e_j and ``far_field`` the series from log K: the main route reads K off
phi'(U) at a U where the series ``truncates`` in 1/U, the capital stock has
it exact, and both evaluate ``far_field`` beyond.

The expansions keep ``ORDER`` terms, except the main regime's at u = 0:
where 20 terms reach the top of its first candidates, 0.1 m, it doubles
its order, up to ``MAX_ORDER``, while that carries u0 further, up to 4 m
(``series_coeffs_main``).  Just beyond u = 0 the equation is stiff, with a
fast mode of rate about 2c/(b^2 u^2), so Taylor steps there are short
and a longer series saves most of them when b is small.  phi's transfer
at u = 0 holds its last term to ``PHI_TOL`` and eta's to ``TOL``.  The
series at infinity is cut at ``TOL`` on the main route's ladder
(``solver.solve_main``) but at ``PHI_TOL`` where the capital stock hands
over to it (``capitalstock.phi_capital_stock``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, log_info
from .model import ModelParams
from .specfun import ext_exp, ext_log

__all__ = [
    "SeriesExpansion",
    "series_coeffs_main",
    "series_coeffs_infinity",
    "far_field",
    "truncates",
    "choose_u0",
    "poly3",
    "eval_series",
]

ORDER = 20
# the longest main-regime series at u = 0 (``series_coeffs_main``)
MAX_ORDER = 160
TOL = 1e-12
# The truncation error at u0 reaches C0 amplified: with a last term of 1e-12,
# fig2-II's C0 is 1.8e-11 off its converged value, with 1e-14 it is 1.9e-13,
# for 0.5% more Taylor steps over the main points of sweep seeds 1-10.
PHI_TOL = 1e-14
# the transfer candidates of the main series at u = 0, in x = u/m: a
# 0.05-decade lattice on [1e-7, 0.1], whose first ``_FIRST`` entries take
# ``ORDER`` terms, then 32 points on [10^-0.95, 10^0.6] for longer series
_LATTICE = np.concatenate(
    (np.logspace(-7.0, -3.0, 81)[:-1], np.logspace(-3.0, -1.0, 41), np.logspace(-0.95, 0.6, 32))
)
_FIRST = 121


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated main-regime expansion at u = 0, and its transfer point.

    The series is held in x = u/m: ``coeffs[i]`` holds D_{i+2} of
    phi/C0 = 1 + (lam m/c) (x + sum_k D_k x^k / k), and ``poly`` the N + 1
    ascending coefficients of phi/C0 in x; ``order`` is N, ``ORDER`` or a
    doubling of it up to ``MAX_ORDER`` (``series_coeffs_main``); ``u0`` is
    the abscissa, in u, to which initial conditions are transferred.
    """

    coeffs: np.ndarray
    poly: np.ndarray
    order: int
    u0: float
    params: ModelParams


def _recurrence(params: ModelParams, order: int, D: list | None = None) -> list:
    """D_0..D_order (D_0 = D_1 = 0) of the series in x = u/m, the model's
    at m = 1 with premium rate c/m, in Python floats, which overflow to inf
    without a warning; a given list ``D`` of them is extended in place."""
    a, b, c, lam = params.a, params.b, params.c / params.m, params.lam
    b2 = b * b
    D = [] if D is None else D
    if not D:
        D += [0.0, 0.0, -((a - lam) / c + 1.0)]
    if order >= 3 and len(D) == 3:
        D.append(-(D[2] * (b2 + 2.0 * a - lam + c) + a) / (2.0 * c))
    for k in range(len(D), order + 1):
        t1 = D[k - 1] * ((k - 1) * (k - 2) * b2 / 2.0 + (k - 1) * a - lam + c)
        t2 = D[k - 2] * ((k - 3) * b2 / 2.0 + a)
        D.append(-(t1 + t2) / (c * (k - 1)))
    return D


def _main_poly(
    params: ModelParams, order: int, D: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(D_2..D_order, ascending coefficients of phi/C0), both in x = u/m; a
    given list ``D`` of the recurrence's terms is extended, not rebuilt."""
    coeffs = np.array(_recurrence(params, order, D)[2: order + 1])
    lam_c = params.lam / (params.c / params.m)
    # at high order the coefficients may pass double range; an inf or nan
    # coefficient never truncates
    with np.errstate(over="ignore"):
        poly = np.concatenate(([1.0, lam_c], lam_c * coeffs / np.arange(2, order + 1)))
    return coeffs, poly


def series_coeffs_main(params: ModelParams) -> SeriesExpansion:
    """Build the expansion for the main regime (requires c > 0).

    The series is held in x = u/m, so that the choice below does not depend
    on m.  u0 = m x0, x0 the largest of the first ``_FIRST`` candidates
    ``_LATTICE``, up to 0.1, at which ``ORDER`` terms truncate to
    ``PHI_TOL`` (``choose_u0``).  Where that is the top one, 0.1, the
    stretch beyond it, stiff with rate about 2c/(b^2 u^2), is worth carrying
    in a longer series: the order doubles up to ``MAX_ORDER`` over the
    candidates above x0 while the largest x0 at which both phi and its
    second derivative in x truncate keeps growing.  Each doubling extends
    the recurrence of the last.  The integrator starts from phi'' too, whose
    truncation error is about N^2 / x0^2 times phi's.
    """
    if params.c == 0.0:
        raise ValueError("series recurrence divides by c; c must be positive")
    order = ORDER
    D: list = []
    coeffs, poly = _main_poly(params, order, D)
    x0 = choose_u0(poly, _LATTICE[:_FIRST], PHI_TOL)
    while x0 >= _LATTICE[_FIRST - 1] and order < MAX_ORDER:
        longer, lpoly = _main_poly(params, 2 * order, D)
        if (np.abs(lpoly) < np.finfo(float).tiny).any():
            break  # a coefficient near underflow has lost its digits
        x = _LATTICE[_LATTICE > x0]
        x = x[truncates(lpoly, x, PHI_TOL)]
        if x.size:
            k = np.arange(2, len(lpoly))
            with np.errstate(over="ignore"):
                dd = k * (k - 1.0) * lpoly[2:]
            x = x[truncates(dd, x, PHI_TOL)]
        if not x.size:
            break
        order, coeffs, poly, x0 = 2 * order, longer, lpoly, float(x.max())
    u0 = params.m * x0
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


def far_field(e: np.ndarray, r: float, log_K: float):
    """(eval3, point3), at an array u and in Python floats at a float u, of
    1 - phi = K (r-1) u^(1-r) T, phi' = K (r-1) u^(-r) S and phi'' = -K (r-1)
    u^(-r-1) D, with S, T, D the sums over j of e_j u^(-j) times 1, 1/(r+j-1)
    and r+j.  K and u^(1-r) are multiplied in logs, so neither overflows;
    log_K = -inf gives phi = 1."""
    j = np.arange(len(e))
    desc = [v[::-1].tolist() for v in (e / (r + j - 1.0), e, e * (r + j))]
    log_c = log_K + math.log(r - 1.0)

    def far(u, polyval, exp, log):
        z, c = 1.0 / u, exp(log_c + (1.0 - r) * log(u))
        T, S, D = (polyval(p, z) for p in desc)
        return 1.0 - c * T, c * z * S, -c * z * z * D

    return lambda u: far(u, np.polyval, np.exp, np.log), lambda u: far(u, horner, ext_exp, ext_log)


def truncates(poly: np.ndarray, x, tol: float = TOL):
    """Whether sum_k poly[k] x^k may be cut after its last term at ``x``.

    The last term |a_N x^N| must be at most ``tol`` and the term magnitudes
    |a_k x^k| nonincreasing over the final third of the series, and no term
    may be inf or nan.  Returns a bool for a scalar ``x``, else a bool array
    of ``x``'s shape.
    """
    poly = np.asarray(poly, dtype=float)
    x = np.asarray(x, dtype=float)
    guard_len = max(2, (len(poly) - 1) // 3)
    # a power or coefficient beyond double range fails, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(poly) * x[..., None] ** np.arange(len(poly))
        decreasing = np.all(np.diff(terms[..., -guard_len:], axis=-1) <= 0.0, axis=-1)
    ok = (terms[..., -1] <= tol) & decreasing & np.isfinite(terms).all(axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def choose_u0(poly: np.ndarray, candidates, tol: float = TOL) -> float:
    """The largest candidate u at which ``poly``, the ascending coefficients
    a_0..a_N of a series, ``truncates``; ``SolverError`` where none does."""
    candidates = np.asarray(candidates, dtype=float)
    ok = truncates(poly, candidates, tol)
    if not ok.any():
        raise SolverError(
            f"the series truncates at no u0 in [{candidates.min():g}, {candidates.max():g}] "
            f"(tol={tol:g})"
        )
    return float(candidates[ok].max())


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

    The series is summed at x = u/m, and its derivatives in x divided by m
    and m^2.  Everything is linear in C0.  Values beyond u0 are refused: the
    series is asymptotic and not trusted past its transfer point.
    """
    if np.ndim(u) == 0:
        uq = lo = hi = float(u)
    else:
        uq = np.asarray(u, dtype=float)
        lo, hi = (uq.min(), uq.max()) if uq.size else (0.0, 0.0)
    # written so that NaN fails too
    if not (0.0 <= lo and hi <= exp.u0 * (1.0 + 1e-12)):
        raise ValueError(f"series evaluation restricted to [0, u0={exp.u0:g}]")
    m = exp.params.m
    phi, dphi, ddphi = poly3(exp.poly, uq / m)
    # C0 stays the outermost factor so scaling C0 rescales the results exactly
    return C0 * phi, C0 * (dphi / m), C0 * (ddphi / (m * m))


def origin_limits(e: float, A: float, s: float) -> tuple[float, float]:
    """(phi'(0+), phi''(0+)) of phi' = A u^(e-1) (1 + s u + ...), A > 0."""
    if e < 1.0:
        return math.inf, -math.inf
    if e == 1.0:
        return A, A * s
    if e < 2.0:
        return 0.0, math.inf
    return 0.0, A if e == 2.0 else 0.0
