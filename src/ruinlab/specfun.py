"""Gamma and upper incomplete gamma functions.

* ``complete_gamma`` -- ``math.gamma`` behind an argument check; finite up
  to p of about 171.
* ``upper_incomplete_gamma`` -- lower-series for z < p + 1, continued
  fraction (modified Lentz) for z >= p + 1.  Relative accuracy ~1e-14.
"""

from __future__ import annotations

import math

__all__ = ["complete_gamma", "upper_incomplete_gamma"]

_MAX_ITER = 600
_EPS = 1e-16


def complete_gamma(p: float) -> float:
    """Gamma(p) for real p > 0."""
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise ValueError(f"complete_gamma requires p > 0, got {p!r}")
    return math.gamma(p)


def _gamma_prefactor(p: float, z: float) -> float:
    """z**p * exp(-z) without intermediate overflow."""
    if z == 0.0:
        return 0.0
    return math.exp(p * math.log(z) - z)


def _lower_series(p: float, z: float) -> float:
    """gamma(p, z) (lower) by the ascending series; valid for z < p + 1."""
    term = 1.0 / p
    total = term
    for n in range(1, _MAX_ITER):
        term *= z / (p + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _gamma_prefactor(p, z)
    raise ArithmeticError(f"lower gamma series failed to converge (p={p}, z={z})")


def _upper_cf(p: float, z: float) -> float:
    """Gamma(p, z) by the continued fraction (modified Lentz); z >= p + 1."""
    tiny = 1e-300
    b = z + 1.0 - p
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - p)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * _gamma_prefactor(p, z)
    raise ArithmeticError(f"upper gamma continued fraction failed (p={p}, z={z})")


def upper_incomplete_gamma(p: float, z: float) -> float:
    """Gamma(p, z) = integral_z^inf x**(p-1) exp(-x) dx, for p > 0, z >= 0."""
    p = float(p)
    z = float(z)
    if not math.isfinite(p) or p <= 0.0:
        raise ValueError(f"upper_incomplete_gamma requires p > 0, got {p!r}")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"upper_incomplete_gamma requires z >= 0, got {z!r}")
    if z == 0.0:
        return complete_gamma(p)
    if z < p + 1.0:
        return complete_gamma(p) - _lower_series(p, z)
    return _upper_cf(p, z)
