"""Reference C0 for the main-regime points of the benchmark sweep.

Run from the repository root:  python3 tests/make_sweep_references.py

Computes C0 for the 17 main-regime points of ``perfbench/sweep.py``
``generate(1)`` without ``ruinlab``: the series of phi' at u = 0 (derived
afresh, as in ``perfbench/make_reference.py``), scipy's DOP853 at rtol
1e-13 from u0 out to U, and the match A = phi(U) + phi'(U) U T(U) / S(U)
to the power-law series at infinity, with its coefficients e_j derived
afresh too; C0 = 1/A.  The error estimate is the largest change of C0
under rtol 1e-12, a three times smaller u0 and a twice larger U.  Prints
the literals that ``test_sweep_references.py`` holds; it is not collected
by pytest and takes about a minute.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import sweep  # noqa: E402

ORDER = 60


def psi_series(a, b, c, lam, m):
    """p_k of phi' = sum p_k u^k for phi(0) = 1 (c phi'(0) = lam phi(0))."""
    b2 = b * b
    p = np.zeros(ORDER + 1)
    p[0] = lam / c
    for k in range(ORDER):
        t0 = (0.5 * b2 * k * (k - 1) + (b2 + a) * k + a - lam + c / m) * p[k]
        t1 = (0.5 * b2 * (k - 1) / m + a / m) * p[k - 1] if k >= 1 else 0.0
        p[k + 1] = -(t0 + t1) / (c * (k + 1))
    return p


def series_state(p, u0):
    """(phi, phi', phi'') at u0, or None where the smallest term is not
    below 1e-18 of the first."""
    ks = np.arange(len(p), dtype=float)
    terms = np.abs(p) * u0**ks
    stop = int(np.argmin(terms))
    if terms[stop] > 1e-18 * abs(p[0]):
        return None
    p, ks = p[: stop + 1], ks[: stop + 1]
    phi = 1.0 + np.sum(p * u0 ** (ks + 1.0) / (ks + 1.0))
    dphi = np.sum(p * u0**ks)
    ddphi = np.sum(ks[1:] * p[1:] * u0 ** (ks[1:] - 1.0))
    return np.array([phi, dphi, ddphi])


def infinity_series(a, b, c, lam, m, order=20):
    """e_0 = 1, e_1.. of phi' ~ K u^(-r) sum_j e_j u^(-j): substituting into
    the equation for phi' gives e_j = 2m / (b^2 j) {[(b^2/2)(r+j-2)(j-1)
    + c/m - lam] e_(j-1) - c (r+j-2) e_(j-2)}."""
    b2 = b * b
    r = 2.0 * a / b2
    e = [0.0, 1.0]
    for j in range(1, order + 1):
        t = (0.5 * b2 * (r + j - 2.0) * (j - 1.0) + c / m - lam) * e[-1] - c * (r + j - 2.0) * e[-2]
        e.append(2.0 * m / (b2 * j) * t)
    return np.array(e[1:])


def C0(a, b, c, lam, m, u0, U, rtol):
    b2 = b * b
    r = 2.0 * a / b2

    def rhs(u, y):
        coeff2 = c + (b2 + a) * u + b2 * u * u / (2.0 * m)
        coeff1 = a - lam + c / m + a * u / m
        return [y[1], y[2], -(coeff2 * y[2] + coeff1 * y[1]) / (0.5 * b2 * u * u)]

    y0 = series_state(psi_series(a, b, c, lam, m), u0)
    sol = solve_ivp(rhs, (u0, U), y0, method="DOP853", rtol=rtol, atol=1e-300)
    if not sol.success:
        raise RuntimeError(sol.message)
    phi_U, dphi_U, _ = sol.y[:, -1]
    e = infinity_series(a, b, c, lam, m)
    j = np.arange(len(e))
    terms = e * (1.0 / U) ** j
    if abs(terms[-1]) > 1e-16 * abs(terms).max():
        raise RuntimeError(f"series at infinity does not truncate at U={U:g}")
    A = phi_U + dphi_U * U * float(terms @ (1.0 / (r + j - 1.0))) / float(terms.sum())
    return 1.0 / A


def reference(point):
    a, b, c, lam, m = (point[k] for k in ("a", "b", "c", "lam", "m"))
    p = psi_series(a, b, c, lam, m)
    u0 = next(f * m for f in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4) if series_state(p, f * m) is not None)
    U = next(
        f * m for f in 400.0 * 2.0 ** np.arange(12)
        if abs(infinity_series(a, b, c, lam, m)[-1]) * (1.0 / (f * m)) ** 20 < 1e-17
    )
    base = C0(a, b, c, lam, m, u0, U, 1e-13)
    variants = [
        C0(a, b, c, lam, m, u0, U, 1e-12),
        C0(a, b, c, lam, m, u0 / 3.0, U, 1e-13),
        C0(a, b, c, lam, m, u0, 2.0 * U, 1e-13),
    ]
    return base, max(abs(v - base) / base for v in variants)


def main() -> int:
    points = [p for p in sweep.generate(1) if p["route"] == "main"]
    print("SWEEP_MAIN_C0 = [")
    worst = 0.0
    for point in points:
        value, err = reference(point)
        worst = max(worst, err)
        args = ", ".join(f"{k}={float(point[k])!r}" for k in ("a", "b", "c", "lam", "m"))
        print(f"    (dict({args}), {float(value)!r}),  # err {err:.1e}")
        sys.stdout.flush()
    print("]")
    print(f"# worst reference error {worst:.1e}")
    return 0 if math.isfinite(worst) and worst <= 1e-11 else 1


if __name__ == "__main__":
    raise SystemExit(main())
