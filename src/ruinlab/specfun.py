"""Gamma and upper incomplete gamma functions.

* ``complete_gamma`` -- ``math.gamma`` behind an argument check; finite up
  to p of about 171.
* ``log_upper_incomplete_gamma`` -- log Gamma(p, z) over an array z >= 0 in
  one call.  For z < p + 1, log Q = log(1 - P) from a series over the
  array: the ascending series of P (DLMF 8.7.1) in lockstep, or for p < 1
  the split P = e^t (1 + s) of DLMF 8.7.3 (Gautschi, ACM TOMS 5(4), 1979),
  with log Gamma(1 + p) in t from ``_log_gamma1p`` and s nested at a fixed
  depth, whose Q = -(e + s + e s), e = expm1(t), does not cancel as 1 - P
  does just below z = p + 1.  For z >= p + 1 the continued fraction of
  DLMF 8.9.2, evaluated backward at a planned depth: the sorted points fall
  into groups that end where z doubles, a probe of modified Lentz at each
  group's first point (``_lentz``) gives the group's depth with a margin,
  and a level is three in-place ufunc calls, with no convergence test per
  point.  The prefactor p log z - z is added in logs and log Gamma(p) comes
  from ``math.lgamma``, so neither Gamma(p) nor z**p is formed: the result
  is finite for any p > 0 the loops converge for (near z = p the series
  needs more than ``_MAX_ITER`` terms from p of about 4,900, and the probe
  from p of about 2.6e5).  Against 30-digit mpmath the error is at most
  1e-15 times max(1, |log Gamma(p, z)|) for p from 0.05 to 2,500, beyond
  the rounding of p log z - z (3e-14 where log Gamma crosses 0 at p = 150).
* ``upper_incomplete_gamma`` -- Gamma(p, z) at one point, exponentiated from
  ``_log_upper_gamma``: the same series in scalar arithmetic, and the
  continued fraction forward by the probe's Lentz loop to its own
  convergence, up to 5.9e-15 off mpmath at p = 0.05.  Overflows
  (``OverflowError``) where Gamma(p, z) exceeds double range, from p of
  about 171.
* ``log_gamma_ratio`` -- log Gamma(x + s) - log Gamma(x) for x >= 20,
  without the cancellation of two ``math.lgamma``: the difference of two
  Stirling series (DLMF 5.11.1), whose leading logs combine through
  log1p(s/x).
* ``log_gamma_density`` -- log x^(a-1) e^(-x) / Gamma(a) without the cancellation
  of its terms where a is near x and both are large (Loader, 2000).
* ``ext_exp`` and ``ext_log`` -- exp and log at one float, as Python floats
  with numpy's values where ``math`` raises, for the point evaluators that
  repeat an array path in Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["complete_gamma", "log_upper_incomplete_gamma", "upper_incomplete_gamma"]

_MAX_ITER = 600
_EPS = 1e-16
_TINY = 1e-300  # stands in for a zero Lentz denominator
_LOG_HALF = -math.log(2.0)
# B_2k / (2k (2k - 1)), k = 1..5, of Stirling's series for log Gamma; from
# z = 20 on, the first omitted term is below 1e-17
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
STIRLING_MIN = 20.0


def _check_shape(p: float, name: str) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise ValueError(f"{name} requires p > 0, got {p!r}")
    return p


def ext_exp(x: float) -> float:
    """exp(x), inf where it overflows (``math.exp`` raises ``OverflowError``)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ext_log(x: float) -> float:
    """log(x) as numpy's ``log`` computes it: -inf at 0 and nan below, where
    ``math.log`` raises ``ValueError``, and no warning.

    Not ``math.log``: the point evaluators multiply logs by exponents of up
    to thousands (p - 1, mu1), which would turn a last-bit difference from
    numpy's log into a mismatch with the array path.  A last-bit difference
    of exp is not amplified, so ``ext_exp`` keeps ``math.exp``."""
    if x > 0.0:
        return float(np.log(x))
    return -math.inf if x == 0.0 else math.nan


def _zeta_minus_one(k: int, n: int = 64) -> float:
    """zeta(k) - 1 for k >= 2: the sum over j = 2..n-1 and the Euler-Maclaurin
    tail from n (DLMF 2.10.1, to B_6), to 2e-16 relative."""
    tail = [n ** (1 - k) / (k - 1), n**-k / 2, k * n ** (-k - 1) / 12,
            -k * (k + 1) * (k + 2) * n ** (-k - 3) / 720,
            k * (k + 1) * (k + 2) * (k + 3) * (k + 4) * n ** (-k - 5) / 30240]
    return math.fsum([j**-k for j in range(2, n)] + tail)


# (zeta(k) - 1)/k, k = 2..27, of log Gamma(2 + q) = q (1 - gamma) + sum_k (-q)^k
# (zeta(k) - 1)/k (A&S 6.1.33); from k = 28 on the terms are below 4e-18
# |log Gamma(2 + q)| for |q| <= 1/2
_LGAMMA2 = tuple(_zeta_minus_one(k) / k for k in range(27, 1, -1))
_EULER = 0.5772156649015329
# for p < 1 and z < p + 1 < 2, the terms of s (``_log_q``) from k = 27 on are
# below 2^27/27! = 1.2e-20 |s|
_SPLIT_TERMS = 26


def _log_gamma1p(p: float) -> float:
    """log Gamma(1 + p) for 0 < p < 1 to a few ulp relative; ``math.lgamma``
    is only accurate to about 4e-16 absolute near its zeros at 1 and 2."""
    q = p if p <= 0.5 else p - 1.0  # exact
    s = 0.0
    for c in _LGAMMA2:
        s = s * -q + c
    lg2 = q * (1.0 - _EULER) + q * q * s  # log Gamma(2 + q)
    return lg2 - math.log1p(p) if p <= 0.5 else lg2


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2] for z >= 20."""
    w = 1.0 / (z * z)
    t = 0.0
    for c in reversed(_STIRLING):
        t = t * w + c
    return t / z


def log_gamma_ratio(x: float, s: float) -> float:
    """log Gamma(x + s) - log Gamma(x) for x >= ``STIRLING_MIN`` and s > 0.

    The difference of two Stirling series, in which
    (x + s - 1/2) log(x + s) - (x - 1/2) log x = (x - 1/2) log1p(s/x) + s log(x + s),
    so its error is near the rounding of s log(x + s), not of log Gamma(x)
    as with two ``math.lgamma``.
    """
    return (
        (x - 0.5) * math.log1p(s / x) + s * math.log(x + s) - s
        + _stirling_tail(x + s) - _stirling_tail(x)
    )


def log_gamma_density(a: float, x: float) -> float:
    """log x^(a-1) e^(-x) / Gamma(a) at x > 0; from n = a - 1 = ``STIRLING_MIN``
    on n - x - n log1p(n/x - 1) - log(2 pi n)/2 - stirlerr(n)."""
    n = a - 1.0
    if n < STIRLING_MIN:
        return n * math.log(x) - x - math.lgamma(a)
    t = (n - x) / x
    return n - x - n * math.log1p(t) - 0.5 * math.log(2.0 * math.pi * n) - _stirling_tail(n)


def complete_gamma(p: float) -> float:
    """Gamma(p) for real p > 0."""
    return math.gamma(_check_shape(p, "complete_gamma"))


def _log_q(p: float, z: float) -> float:
    """log Q(p, z) = log(1 - P(p, z)) for 0 < z < p + 1: the scalar form of the
    array kernel's series branch."""
    if p < 1.0:
        # P = e^t (1 + s), s = sum_(k>=1) (-z)^k p/(k! (p + k)) (DLMF 8.7.3),
        # nested from k = _SPLIT_TERMS down, which rounds less than the
        # terms summed forward
        r = 1.0 / (p + _SPLIT_TERMS)
        for k in range(_SPLIT_TERMS - 1, 0, -1):
            r = 1.0 / (p + k) - z * r / (k + 1)
        t, s = p * math.log(z) - _log_gamma1p(p), -p * z * r
        log_p = t + math.log1p(s)
    else:
        term = total = 1.0
        for n in range(1, _MAX_ITER):
            term *= z / (p + n)
            total += term
            if term < total * _EPS:
                break
        else:
            raise ConvergenceError(f"lower gamma series failed to converge (p={p}, z={z})")
        # P = z^p e^(-z) total / Gamma(p + 1) (DLMF 8.7.1): t = log P, s = 0
        t = log_p = p * math.log(z) - z - math.lgamma(p + 1.0) + math.log(total)
        s = 0.0
    # log1p(-P) is exact for small P; for P near 1, Q = -(e + s + e s), e =
    # expm1(t), cancels less than 1 - P where s is not 0
    if log_p < _LOG_HALF:
        return math.log1p(-math.exp(log_p))
    e = math.expm1(t)
    return math.log(-(e + s + e * s))


def _lentz(p: float, z: float) -> tuple[float, int]:
    """(h, n): the continued fraction h = e^z z^-p Gamma(p, z) of DLMF 8.9.2
    at one z >= p + 1 by modified Lentz, and the n terms it took."""
    b = z + 1.0 - p
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - p)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = _TINY
        c = b + an / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h, i
    raise ConvergenceError(f"upper gamma continued fraction failed (p={p}, z={z})")


def _log_upper_gamma(p: float, z: float, regularized: bool = False) -> float:
    """log Gamma(p, z), or log Q(p, z) if ``regularized``, for one z > 0: the
    scalar form of the array kernel."""
    if z < p + 1.0:
        log_q = _log_q(p, z)
        return log_q if regularized else math.lgamma(p) + log_q
    log_g = p * math.log(z) - z + math.log(_lentz(p, z)[0])
    return log_g - math.lgamma(p) if regularized else log_g


def upper_incomplete_gamma(p: float, z: float) -> float:
    """Gamma(p, z) = integral_z^inf x**(p-1) exp(-x) dx, for p > 0, z >= 0."""
    p = _check_shape(p, "upper_incomplete_gamma")
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"upper_incomplete_gamma requires z >= 0, got {z!r}")
    if z == 0.0:
        return complete_gamma(p)
    return math.exp(_log_upper_gamma(p, z))


def log_upper_incomplete_gamma(p: float, z, regularized: bool = False) -> np.ndarray:
    """log Gamma(p, z) at every entry of ``z`` (finite, >= 0), for p > 0.

    Returns a float array of the shape of ``z``; log Gamma(p, 0) is
    ``math.lgamma(p)``.  With ``regularized`` it is log Q(p, z) = log
    Gamma(p, z) - log Gamma(p), which the series branch forms without log
    Gamma(p), so that 1 - Q = -expm1(log Q) stays accurate where Q is near 1.
    Raises :class:`ConvergenceError` (an ``ArithmeticError``) if a point has
    not converged after ``_MAX_ITER`` terms.
    """
    p = _check_shape(p, "log_upper_incomplete_gamma")
    z = np.asarray(z, dtype=float)
    # written so that NaN fails too
    if z.size and not (0.0 <= z.min() and z.max() < math.inf):
        raise ValueError("log_upper_incomplete_gamma requires finite z >= 0")
    flat = z.ravel()
    out = np.empty_like(flat)
    series = flat < p + 1.0

    x = flat[series]
    if x.size:
        # the scalar form's sums; the ascending series' terms fall
        # monotonically (z/(p + n) < 1), so a converged point stays converged
        # while the others finish
        with np.errstate(divide="ignore"):  # log 0 = -inf gives P = 0 at z = 0
            if p < 1.0:
                r = np.full_like(x, 1.0 / (p + _SPLIT_TERMS))
                for k in range(_SPLIT_TERMS - 1, 0, -1):
                    r *= x
                    r /= k + 1
                    np.subtract(1.0 / (p + k), r, out=r)
                t, s = p * np.log(x) - _log_gamma1p(p), -p * x * r
                log_p = t + np.log1p(s)
            else:
                term = np.ones_like(x)
                total = np.ones_like(x)
                for n in range(1, _MAX_ITER):
                    term *= x / (p + n)
                    total += term
                    if (term < total * _EPS).all():
                        break
                else:  # the scalar routine's message, at the slowest point
                    raise ConvergenceError(
                        f"lower gamma series failed to converge (p={p}, z={float(x.max())})")
                t = log_p = p * np.log(x) - x - math.lgamma(p + 1.0) + np.log(total)
                s = np.zeros_like(x)
        small = log_p < _LOG_HALF
        log_q = np.empty_like(x)
        log_q[small] = np.log1p(-np.exp(log_p[small]))
        big = ~small
        e, s = np.expm1(t[big]), s[big]
        log_q[big] = np.log(-(e + s + e * s))
        out[series] = log_q if regularized else math.lgamma(p) + log_q

    x = flat[~series]
    if x.size:
        # the continued fraction backward, t <- a_i/(b_i + t) from i = N to 1.
        # The sorted points fall into groups that end where z doubles, and a
        # group needs N levels, the Lentz count at its first point with a
        # margin, as the count is not monotone in z (86 at p = 0.05, z = p +
        # 1, and 98 at z = 1.0605).  Level i runs over the groups up to the
        # last that needs it, a prefix of the points.
        order = np.argsort(x, kind="stable")
        xs = x[order]
        w = xs + (1.0 - p)  # b_0 >= 2
        t = np.zeros_like(xs)
        lo, ends = 0, {}
        while lo < xs.size:
            n = 5 * _lentz(p, float(xs[lo]))[1] // 4 + 4
            lo = ends[n] = int(np.searchsorted(xs, 2.0 * xs[lo]))
        end = 0
        for i in range(max(ends), 0, -1):
            end = max(end, ends.get(i, 0))
            tg = t[:end]
            tg += w[:end]
            tg += 2.0 * i
            np.divide(-i * (i - p), tg, out=tg)
        log_g = np.empty_like(x)
        log_g[order] = p * np.log(xs) - xs - np.log(w + t)
        out[~series] = log_g - math.lgamma(p) if regularized else log_g
    return out.reshape(z.shape)
