"""Independent references for the benchmark's correctness checks.

Nothing here imports ``ruinlab``:

* classical and risk-free solutions: their closed forms, with the incomplete
  gamma function taken from ``scipy.special``;
* capital-stock P1: the Mellin transform of Kummer's function (DLMF 13.10),
  Z = m^mu1 G(mu1) G(d2 - mu1) G(2 d1) / (G(d2) G(2 d1 - mu1)), in
  ``math.lgamma``;
* main-regime preset C0: the committed table ``reference.json``, written by
  ``make_reference.py`` with an independent integrator.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import special

TABLE_PATH = Path(__file__).with_name("reference.json")

# C0 or P1 further than this from its reference is a failed operation ...
REL_TOL = 1e-6
# ... and further than this a wrong output: the solvers stop their far-field
# ladders once the normalization changes by less than 1e-4, so no result
# claims more
WRONG_REL = 1e-4
# phi outside [0, 1], or decreasing, by more than the solvers' default rtol
# is a failed operation, and by more than this a wrong output
PHI_SLACK = 1e-10
PHI_WRONG = 1e-6


def load_table() -> dict:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cs_exponents(a: float, b: float, lam: float) -> tuple[float, float, float]:
    """(mu1, d1, d2) of the capital-stock regime, b > 0."""
    q = a / (b * b)
    s = 0.5 - q
    mu1 = s + math.sqrt(s * s + 2.0 * lam / (b * b))
    return mu1, mu1 + q, mu1 + 2.0 * q - 1.0


def cs_P1(a: float, b: float, lam: float, m: float) -> float:
    """Capital-stock normalization P1 = 1/Z from DLMF 13.10."""
    mu1, d1, d2 = cs_exponents(a, b, lam)
    log_z = (
        mu1 * math.log(m)
        + math.lgamma(mu1)
        + math.lgamma(d2 - mu1)
        + math.lgamma(2.0 * d1)
        - math.lgamma(d2)
        - math.lgamma(2.0 * d1 - mu1)
    )
    return math.exp(-log_z)


def classical_phi(c: float, lam: float, m: float, u) -> np.ndarray:
    rate = (c - lam * m) / (m * c)
    return 1.0 - (lam * m / c) * np.exp(-rate * np.asarray(u, dtype=float))


def _log_upper_gamma(p: float, z) -> np.ndarray:
    """log Gamma(p, z), also where Q(p, z) underflows."""
    z = np.asarray(z, dtype=float)
    q = special.gammaincc(p, z)
    with np.errstate(divide="ignore"):
        out = np.log(q) + special.gammaln(p)
    # Q underflows only far in the tail, where Gamma(p, z) ~ z^(p-1) e^(-z)
    tail = q < 1e-300
    if np.any(tail):
        zt = z[tail]
        out[tail] = (p - 1.0) * np.log(zt) - zt + np.log1p((p - 1.0) / zt)
    return out


def riskfree_phi(a: float, c: float, lam: float, m: float, u) -> np.ndarray:
    """phi(u) = 1 - I_c(u) / (I_c(0) + (a/lam)(c/a)^(lam/a)), in log space."""
    p = lam / a
    z0 = c / (a * m)
    u = np.asarray(u, dtype=float)
    log_pref = p * math.log(m) + z0
    log_ic = log_pref + _log_upper_gamma(p, u / m + z0)
    log_ic0 = log_pref + float(_log_upper_gamma(p, np.array([z0]))[0])
    if c > 0.0:
        log_q = math.log(a / lam) + p * math.log(c / a)
        log_norm = float(np.logaddexp(log_ic0, log_q))
    else:
        log_norm = log_ic0
    return 1.0 - np.exp(log_ic - log_norm)


def closed_phi(route: str, a: float, c: float, lam: float, m: float, u) -> np.ndarray:
    if route == "classical":
        return classical_phi(c, lam, m, u)
    return riskfree_phi(a, c, lam, m, u)


def digits(rel: float) -> float:
    """-log10 of a relative error, capped at 16 (double precision)."""
    return -math.log10(max(rel, 1e-16))
