"""Survival probability without premiums (c = 0, b > 0): a series of gamma densities.

phi(u) = P1 int_0^u s^(mu1-1) M(d2, 2 d1, -s/m) ds, M Kummer's function, mu1 =
1/2 - a/b^2 + sqrt((1/2 - a/b^2)^2 + 2 lam/b^2).  The Mellin transform of M
(DLMF 13.10.10) gives 1/P1 = Z exactly, in logs, finite when 2a/b^2 > 1:

    Z = m^mu1 Gamma(mu1) Gamma(d2 - mu1) Gamma(2 d1) / (Gamma(d2) Gamma(2 d1 - mu1)).

Kummer's transformation (DLMF 13.2.39, 2 d1 - d2 = mu1 + 1) makes the slope
positive in x = u/m: phi' = P1 u^(mu1-1) e^(-x) M(mu1 + 1, 2 d1, x), and
phi'' = P1 u^(mu1-2) e^(-x) [(mu1 - 1) M(mu1 + 1, 2 d1, x) - (d2 x/(2 d1))
M(mu1 + 1, 2 d1 + 1, x)].  So with g_a(x) = x^(a-1) e^(-x)/Gamma(a) and w_k =
P1 m^mu1 Gamma(mu1 + k) (mu1 + 1)_k/((2 d1)_k k!), m phi' = sum_k w_k g_(mu1+k),
m^2 phi'' = (mu1 - 1) m phi'/x - sum_k w_k d2/(2 d1 + k) g_(mu1+k), and by
DLMF 8.2.4 phi = sum_(j>=1) W_(j-1) g_(mu1+j), W_n the prefix sums of the w_k,
which add up to 1 (Gauss's sum, DLMF 15.4.20).  No term is negative.  The
terms, cut below e^-``_TAIL`` of the largest, are summed on bands of x as
polynomials in x/X times scales in logs (``_band``), so no power and no
e^(+-x) leaves double range; each band is built in order on first use and
kept.  Where 1 - phi is below 2^-20 they sum 1 - phi = Q(mu1, x) +
sum_(j>=1) R_(j-1) g_(mu1+j) instead, R_n = 1 - W_n the suffix sums of the
w_k (their tail by Thomae's relation, DLMF 16.4.11), so that phi keeps its
last bits and never falls; far out, the series at infinity takes over."""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import islice

import numpy as np

from .errors import NoSolutionError, SolverError, log_info
from .model import ModelParams, Regime, RegimeInfo
from .series import ORDER, PHI_TOL, choose_u0, far_field, origin_limits, poly3
from .series import series_coeffs_infinity, truncates
from .solution import SolutionGrid, TailFit, resolve_grid
from .specfun import STIRLING_MIN, _log_upper_gamma, ext_exp, ext_log, log_gamma_density
from .specfun import log_gamma_ratio, log_upper_incomplete_gamma

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


def _transfer_point(poly: np.ndarray, m: float) -> float:
    """u0: the largest of 33 candidates in [0.01 m, 0.6 m] where eta's series
    truncates."""
    return choose_u0(poly, m * np.logspace(-2.0, np.log10(0.6), 33), 1e-2 * m)


def _log_w0(mu1: float, d1: float, d2: float, r: float) -> float:
    """log w_0 = log(Gamma(mu1) m^mu1 / Z), Z = 1/P1 (module docstring), with
    d2 - mu1 = r - 1 and 2 d1 - mu1 = mu1 + r; log(Z / m^mu1) is log
    Gamma(mu1) - log w_0.

    w_0 holds two log-gamma ratios with shift mu1.  As differences of
    ``math.lgamma`` they lose about ulp(lgamma(2 d1)), 9e-12 at r = 4,622
    and 1e-7 at r = 4.5e7; from r - 1 = ``STIRLING_MIN`` on they come from
    ``log_gamma_ratio``.  log Gamma(mu1), 548 at mu1 = 140, is left out, so
    that its rounding does not enter the weights.
    """
    if r - 1.0 < STIRLING_MIN:
        return (
            math.lgamma(d2) + math.lgamma(2.0 * d1 - mu1)
            - math.lgamma(r - 1.0) - math.lgamma(2.0 * d1)
        )
    return log_gamma_ratio(r - 1.0, mu1) - log_gamma_ratio(mu1 + r, mu1)


def solve_eta(params: ModelParams, u_max: float, rtol: float = 1e-10):
    """Integrate eta from its series transfer point out to ``u_max``.

    Returns the trajectory of (eta, eta'); its start node is the transfer
    point u0.  Raises :class:`SolverError` where eta is negative at a node.
    ``phi_capital_stock`` does not use it: it sums eta's Kummer series.
    """
    from .odes import eta_ode_field, integrate

    poly = np.concatenate(([1.0], eta_series(params)))
    u0 = _transfer_point(poly, params.m)
    eta0, deta0, _ = poly3(poly, u0)
    traj = integrate(eta_ode_field(params), u0, [eta0, deta0], u_max, rtol=rtol)
    # eta falls below double range far out: an underflow reads +0.0, a
    # negative value -0.0
    negative = np.signbit(traj.states[:, 0])
    if negative.any():
        raise SolverError(f"eta crossed zero near u={traj.us[np.argmax(negative)]:.6g}")
    return traj


# a sum's terms below e^-_TAIL (4e-18) of its largest are dropped
_TAIL = 40.0
# where 1 - phi is below _FLAT, the bands sum it (R rows) in place of phi
# (W rows), so that phi keeps its digits as it flattens at 1
_FLAT = 2.0**-20
# the most weights a solve holds; at this many a solve takes about 1 s and 40 MB
_MAX_TERMS = 2**17


def _peaked(rho: np.ndarray):
    """(v, log(max v / v_0)) of the v with v[i+1]/v[i] = rho[i], multiplied out
    both ways from its largest entry, which is 1, so none leaves double range."""
    log_v = np.concatenate(([0.0], np.cumsum(np.log(rho))))
    p = int(np.argmax(log_v))
    v = np.concatenate((np.cumprod(1.0 / rho[:p][::-1])[::-1], [1.0], np.cumprod(rho[p:])))
    return v, log_v[p]


def _tail(mu1: float, d1: float, d2: float, N: float) -> float:
    """sum_(i>=0) w_(N+i)/w_N where the w_k fall from N on: that series, or
    where its terms fall slower, N/(r - 1) sum_i (mu1 + r)_i (d2)_i/((2 d1 +
    N)_i (r)_i) (Thomae's relation, DLMF 16.4.11, with r = 2 d1 - 2 mu1)."""
    r = 2.0 * (d1 - mu1)
    (a, b, c, d), scale = min(
        ((mu1 + N, mu1 + N + 1.0, 2.0 * d1 + N, N + 1.0), 1.0),
        ((mu1 + r, d2, 2.0 * d1 + N, r), N / (r - 1.0)),
        key=lambda s: s[0][0] * s[0][1] / (s[0][2] * s[0][3]))
    term = total = 1.0
    # the term ratios rise towards 1 from below, so the terms fall throughout
    for i in range(_MAX_TERMS):
        term *= (a + i) * (b + i) / ((c + i) * (d + i))
        total += term
        if term <= 2.0**-60 * total:
            return scale * total
    raise SolverError(f"capital-stock tail sum does not converge within {_MAX_TERMS} terms")


def _weights(mu1: float, d1: float, d2: float, log_w0: float, n: int):
    """(coef, profile, omega): rows W_(k-1), w_k, w_k d2/(2 d1 + k) and R_(k-1)
    = 1 - W_(k-1) (0 at k = 0), k < n, times e^-omega, and their logs less log
    Gamma(mu1 + k) to a few digits, which place the terms.  R is W where
    W_(n-1) < 1 - 2 _FLAT, as phi stays below 1 - _FLAT."""
    k, j = np.arange(float(n)), np.arange(n - 1.0)
    w, log_top = _peaked((mu1 + j) * (mu1 + 1.0 + j) / ((2.0 * d1 + j) * (j + 1.0)))
    omega = log_w0 + float(log_top)
    W = np.concatenate(([0.0], np.cumsum(w[:-1])))
    R = W
    # twice _FLAT, so that the rounding of phi's plain sum, which places the
    # switch to R, cannot place it where R is left out
    if (W[-1] + w[-1]) * math.exp(omega) >= 1.0 - 2.0 * _FLAT:
        # suffix sums, exact where 1 - W cancels; the w_k fall from n - 1 on,
        # since R_(n-1) <= 2 _FLAT < 1/n
        R = np.cumsum(np.append(w[:-1], w[-1] * _tail(mu1, d1, d2, n - 1.0))[::-1])[::-1]
        R[0] = 0.0
    coef = np.array([W, w, w * d2 / (2.0 * d1 + k), R])
    lgam = math.lgamma(mu1) + np.concatenate(([0.0], np.cumsum(np.log(mu1 + j))))
    with np.errstate(divide="ignore"):
        return coef, np.log(coef) - lgam, omega


def _band(coef: np.ndarray, profile: np.ndarray, omega: float, mu1: float,
          lo: float, X: float, start: int):
    """((X, K, shift, cols, thr, desc), first) of the band (lo, X] of x: there
    sum c is exp(K[c] + X (1 - y) + shift[c] log y), y = x/X, times the
    polynomial with coefficients cols[q][c] <= 1 (``desc``: floats, highest
    first) from the first term within e^-_TAIL of the largest at lo to the
    last at X; term q enters at y > thr[q], the last of 32 points before it
    comes within e^-_TAIL.  The scans of the weights start at term ``start``,
    before which no term is within e^-_TAIL at lo; ``first`` is the next
    band's ``start``, since a row's first term moves up with x."""
    # at lo = 0, x = 1e-300 keeps just the first nonzero term
    first = _within(profile, lo or 1e-300, start)[0]
    last, n = _within(profile, X, int(first.min()))[1], profile.shape[1]
    if last.max() == n - 1:
        raise SolverError(f"capital-stock series does not truncate within {n} terms")
    rows, K = np.zeros((3, int((last - first).max()) + 1)), []
    for c, (a, b) in enumerate(zip(first.tolist(), last.tolist())):
        # the terms coef_j g_(mu1+j)(X) by their ratios; g's are X/(mu1 + j)
        ratios = coef[c, a + 1: b + 1] / coef[c, a:b] * X / (mu1 + np.arange(a, b))
        rows[c, : b + 1 - a] = _peaked(ratios)[0]
        top = int(np.argmax(rows[c]))
        K.append(omega + math.log(coef[c, a + top]) + log_gamma_density(mu1 + a + top, X))
    y = np.linspace(lo / X, 1.0, 33)
    with np.errstate(divide="ignore"):
        need = _last_within(np.log(rows) + np.arange(rows.shape[1]) * np.log(y[1:, None, None]))
    thr = y[np.searchsorted(need.max(axis=1), np.arange(rows.shape[1]))].tolist()
    cols, desc = list(rows.T[:, :, None].copy()), rows[:, ::-1].T.tolist()
    return (X, K, (mu1 - 1.0 + first).tolist(), cols, thr, desc), int(first.min())


def _last_within(v: np.ndarray) -> np.ndarray:
    """Index of the last of the logs ``v`` within _TAIL of their largest."""
    return v.shape[-1] - 1 - np.argmax((v >= v.max(axis=-1, keepdims=True) - _TAIL)[..., ::-1], -1)


def _within(profile: np.ndarray, x: float, a: int):
    """(first, last) per row of the k whose terms profile[c, k] + k log x are
    within _TAIL of the row's largest, scanning k >= a, before which the
    caller knows none is.  The terms are log-concave in k, so a window of k
    that ends below that on every row holds each row's largest and all its
    terms within it; the window widens until it does."""
    n, width = profile.shape[1], 64 + int(32.0 * math.sqrt(x))
    while True:
        b = min(n, a + width)
        v = profile[:, a:b] + np.arange(a, b) * math.log(x)
        within = v >= v.max(axis=1, keepdims=True) - _TAIL
        if b == n or not within[:, -1].any():
            return a + np.argmax(within, axis=1), a + _last_within(v)
        width *= 4


def phi_capital_stock(
    params: ModelParams,
    u_grid=None,
    u_max: float | None = None,
) -> SolutionGrid:
    """Solve the capital-stock regime and sample it on ``u_grid``.

    P1 is exact and phi, phi', phi'' are sums of gamma densities (see the
    module docstring) on the solution's ``span`` [0, U], U = max(200 m,
    u_max).  ``u_max`` defaults to 50 m and ``u_grid`` to 201 uniform points
    on [0, u_max].  It takes no tolerances: the sums keep every term within
    e^-``_TAIL`` of the largest.  Raises :class:`SolverError` where the sums
    would need more than ``_MAX_TERMS`` weights.  Requires 2a/b^2 > 1;
    otherwise the normalizing integral diverges and ruin is certain.  The
    bands are built in order on first use and kept (a solve builds those to
    its grid's top); ``diagnostics["edges"]`` still lists them all.
    """
    if params.c != 0.0 or params.b == 0.0:
        raise ValueError(f"capital-stock regime requires c = 0 and b > 0, got {params}")
    r = params.robustness()
    if r <= 1.0:
        raise NoSolutionError(
            f"tail integral diverges: 2a/b^2 = {r:g} <= 1 (shares not robust)"
        )
    (mu1, d1, d2), m = exponents(params), params.m
    u_grid, u_max = resolve_grid(m, u_grid, u_max)
    log_w0 = _log_w0(mu1, d1, d2, r)
    log_zm = math.lgamma(mu1) - log_w0
    # eta ~ Gamma(2 d1)/Gamma(2 d1 - d2) (u/m)^(-d2) gives 1 - phi ~ K u^(1-r)
    log_K = (
        (r - 1.0) * math.log(m) + math.lgamma(2.0 * d1) - math.lgamma(2.0 * d1 - d2)
        - log_zm - math.log(r - 1.0)
    )
    log_Z = log_zm + mu1 * math.log(m)
    with np.errstate(over="ignore", under="ignore"):
        Z, P1, K = (float(v) for v in np.exp([log_Z, -log_Z, log_K]))
    U = max(200.0 * m, u_max)
    log_info(__name__, "capital stock: mu1=%.6g U=%g P1=%.8g", mu1, U, P1)
    # bands (16 i (i + 3), 16 (i + 1)(i + 4)] of x, 8 sqrt(x) wide, to U/m or to
    # x_far, the first band top where the series at infinity truncates and M's
    # part in e^-x (DLMF 13.7.2) is below e^-_TAIL: 1 - phi, u phi', -u^2 phi''
    # = K (r-1) u^(1-r) (T, S, D) beyond it
    e = series_coeffs_infinity(params)
    log_e = math.lgamma(mu1 + 1.0) - math.lgamma(mu1 + r - 1.0)
    bounds, x_far = [0.0], math.inf
    while bounds[-1] < U / m and x_far == math.inf:
        X = 16.0 * len(bounds) * (len(bounds) + 3)
        bounds.append(X)
        if -X + (r - 2.0) * math.log(X) + log_e < -_TAIL and truncates(e, 1.0 / (X * m), PHI_TOL):
            x_far = X
    n = int(bounds[-1] + 10.0 * math.sqrt(bounds[-1])) + 60
    if n > _MAX_TERMS:
        raise SolverError(
            f"capital-stock sums need {n} > {_MAX_TERMS} terms to reach x = {bounds[-1]:g}")
    coef, profile, omega = _weights(mu1, d1, d2, log_w0, n)
    ks = np.arange(n)

    def rest(x: float) -> float:
        # 1 - phi from phi's terms summed plainly, to about 1e-13
        with np.errstate(under="ignore"):
            terms = np.exp(omega + profile[0] + (mu1 - 1.0 + ks) * math.log(x) - x)
        return 1.0 - float(terms.sum())

    # the bands sum 1 - phi from x_flat on, where it falls to about _FLAT
    x_flat = math.inf
    if rest(bounds[-1]) <= _FLAT:
        lo, x_flat = 0.0, bounds[-1]
        for _ in range(12):
            mid = 0.5 * (lo + x_flat)
            lo, x_flat = (lo, mid) if rest(mid) <= _FLAT else (mid, x_flat)
    if x_flat < bounds[-1] and x_flat not in bounds:
        bounds.insert(bisect_left(bounds, x_flat), x_flat)
    # the rows the bands sum: phi's, and 1 - phi's from x_flat on
    sums = [(coef[rows], profile[rows]) for rows in ([0, 1, 2], [3, 1, 2])]
    edges = bounds[1:]
    # band i and the scan start it hands on, by index: a repeated build writes the same entry
    bands, scans = [None] * len(edges), [0] * len(bounds)

    def band_at(i: int):
        # builds the missing bands up to i in order, and keeps them
        while bands[i] is None:
            j = bands.index(None)
            lo, X = bounds[j], bounds[j + 1]
            # the R row takes over at x_flat, and its scans start at 0
            start = 0 if lo == x_flat else scans[j]
            bands[j], scans[j + 1] = _band(*sums[lo >= x_flat], omega, mu1, lo, X, start)
        return bands[i]

    # phi' = P1 u^(mu1-1) (1 + P_2 u + ..), P_2 = -d2/(2 m d1)
    dphi0, ddphi0 = origin_limits(mu1, P1, -d2 / (2.0 * m * d1))
    far3, far_point3 = far_field(e, r, log_K)

    def eval3(uq: np.ndarray):
        # sorted, a band is a slice and term q runs over its tail y > thr[q]
        x = uq / m
        order = np.argsort(x, kind="stable")
        xs, out, lo = x[order], np.zeros((3, x.size)), 0
        # x = 0 gives log y = -inf, and phi'' ~ u^(mu1-2) overflows near it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            near = np.searchsorted(xs, edges, side="right").tolist()
            for i, hi in enumerate(near):
                if hi > lo:
                    X, Kc, shift, cols, thr, _ = band_at(i)
                    y, acc = xs[lo:hi] / X, out[:, lo:hi]
                    starts = np.searchsorted(y, thr, side="right").tolist()
                    for col, s in zip(cols[::-1], starts[::-1]):
                        acc[:, s:] *= y[s:]
                        acc[:, s:] += col
                    acc *= np.exp(np.c_[Kc] + X * (1.0 - y) + np.c_[shift] * np.log(y))
                    if X > x_flat:
                        Q = np.exp(log_upper_incomplete_gamma(mu1, xs[lo:hi], regularized=True))
                        acc[0] = 1.0 - (acc[0] + Q)
                lo = hi
            phi, A, C = out[:, np.argsort(order)]
            dphi, ddphi = A / m, ((mu1 - 1.0) * A / x - C) / (m * m)
        at0, outer = x == 0.0, x > x_far
        phi[at0], dphi[at0], ddphi[at0] = 0.0, dphi0, ddphi0
        if outer.any():
            phi[outer], dphi[outer], ddphi[outer] = far3(uq[outer])
        return phi, dphi, ddphi

    def point3(u: float):
        # eval3's arithmetic in floats
        x = u / m
        if x == 0.0 or x > x_far:
            return far_point3(u) if x else (0.0, dphi0, ddphi0)
        X, Kc, shift, _, thr, desc = band_at(bisect_left(edges, x))
        y, ly = x / X, ext_log(x / X)
        s0 = s1 = s2 = 0.0
        for c0, c1, c2 in islice(desc, len(thr) - bisect_left(thr, y), None):
            s0, s1, s2 = s0 * y + c0, s1 * y + c1, s2 * y + c2
        scales = (k + X * (1.0 - y) + h * ly for k, h in zip(Kc, shift))
        phi, A, C = (v * ext_exp(e) for v, e in zip((s0, s1, s2), scales))
        if X > x_flat:
            phi = 1.0 - (phi + ext_exp(_log_upper_gamma(mu1, x, True)))
        return phi, A / m, ((mu1 - 1.0) * A / x - C) / (m * m)

    top = min(bisect_left(edges, u_grid[-1] / m), len(edges) - 1)
    # Z is exact, so the limit does not move with U
    tail_fit = TailFit(A=Z, K=K, exponent=1.0 - r, U=U)
    diagnostics = {
        "P1": P1,
        "log_P1": -log_Z,  # finite where P1 underflows to 0 (log Z > 709)
        "log_K": log_K,  # finite where K passes double range
        "mu1": mu1,
        "d1": d1,
        "d2": d2,
        "U": U,
        # the longest sum on the grid, to its top band (the last where it reaches the far field)
        "terms": max(len(band_at(i)[3]) for i in range(top + 1)),
        # where the sums change band or form, and where the series at infinity takes over
        "edges": tuple(m * X for X in edges if m * X < U),
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
