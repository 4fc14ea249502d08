"""Gamma and upper incomplete gamma functions.

* ``complete_gamma`` -- ``math.gamma`` behind an argument check; finite up
  to p of about 171.
* ``log_upper_incomplete_gamma`` -- log Gamma(p, z) over an array z >= 0 in
  one call.  The ascending series for z < p + 1 (DLMF 8.7.1, in the
  regularized form log Q = log(1 - P)) and the continued fraction by
  modified Lentz for z >= p + 1 (DLMF 8.9.2) run in lockstep over the
  array until every point has converged; a converged continued-fraction
  point leaves the loop.  The prefactor p log z - z is added in logs and
  log Gamma(p) comes from ``math.lgamma``, so neither Gamma(p) nor z**p is
  formed: the result is finite for any p > 0 the loops converge for (p of
  a few thousand; near z = p the series needs more than ``_MAX_ITER``
  terms from p of about 4,900).  Against mpmath the error is at most
  2.2e-15 times max(1, |log Gamma(p, z)|) for p from 0.9 to 2,500, and
  3.3e-14 at p = 0.05, where 1 - P cancels just below z = p + 1.
* ``upper_incomplete_gamma`` -- Gamma(p, z) at one point: the same two
  branches in scalar arithmetic, exponentiated.  Overflows (``OverflowError``)
  where Gamma(p, z) exceeds double range, from p of about 171.
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


def _log_q(p: float, z: float, total: float) -> float:
    """log Q(p, z) = log(1 - P(p, z)) from the ascending-series sum ``total``,
    with P = z^p e^(-z) total / Gamma(p + 1) formed in logs."""
    log_p = p * math.log(z) - z - math.lgamma(p + 1.0) + math.log(total)
    # log1p(-P) is exact for small P, log(-expm1(log P)) for P near 1
    return math.log1p(-math.exp(log_p)) if log_p < _LOG_HALF else math.log(-math.expm1(log_p))


def _log_upper_gamma(p: float, z: float, regularized: bool = False) -> float:
    """log Gamma(p, z), or log Q(p, z) if ``regularized``, for one z > 0: the
    scalar form of the array kernel."""
    if z < p + 1.0:
        term = total = 1.0
        for n in range(1, _MAX_ITER):
            term *= z / (p + n)
            total += term
            if term < total * _EPS:
                log_q = _log_q(p, z, total)
                return log_q if regularized else math.lgamma(p) + log_q
        raise ConvergenceError(f"lower gamma series failed to converge (p={p}, z={z})")
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
            log_g = p * math.log(z) - z + math.log(h)
            return log_g - math.lgamma(p) if regularized else log_g
    raise ConvergenceError(f"upper gamma continued fraction failed (p={p}, z={z})")


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
        # the terms fall monotonically (z/(p + n) < 1), so a converged point
        # stays converged while the others finish
        term = np.ones_like(x)
        total = np.ones_like(x)
        for n in range(1, _MAX_ITER):
            term *= x / (p + n)
            total += term
            if (term < total * _EPS).all():
                break
        else:
            raise ConvergenceError(f"lower gamma series failed to converge (p={p})")
        with np.errstate(divide="ignore"):  # log 0 = -inf gives P = 0 at z = 0
            log_p = p * np.log(x) - x - math.lgamma(p + 1.0) + np.log(total)
        small = log_p < _LOG_HALF
        log_q = np.empty_like(x)
        log_q[small] = np.log1p(-np.exp(log_p[small]))
        log_q[~small] = np.log(-np.expm1(log_p[~small]))
        out[series] = log_q if regularized else math.lgamma(p) + log_q

    x = flat[~series]
    if x.size:
        b = x + 1.0 - p  # >= 2
        c = np.full_like(x, 1.0 / _TINY)
        d = 1.0 / b
        h = d.copy()
        h_out = np.empty_like(x)
        live = np.arange(x.size)
        for i in range(1, _MAX_ITER):
            an = -i * (i - p)
            b += 2.0
            d *= an
            d += b
            d[d == 0.0] = _TINY
            c = b + an / c
            c[c == 0.0] = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            # converged points leave the loop, as in the scalar form: a
            # further delta need not be 1 again
            conv = np.abs(delta - 1.0) < _EPS
            if conv.any():
                h_out[live[conv]] = h[conv]
                keep = ~conv
                if not keep.any():
                    break
                live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
        else:
            raise ConvergenceError(f"upper gamma continued fraction failed (p={p})")
        log_g = p * np.log(x) - x + np.log(h_out)
        out[~series] = log_g - math.lgamma(p) if regularized else log_g
    return out.reshape(z.shape)
