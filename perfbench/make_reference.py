"""Write ``reference.json``: independent reference values for the ten presets.

Run from the repository root:  python3 perfbench/make_reference.py

* classical and risk-free C0: closed forms with ``scipy.special``;
* capital-stock P1: the DLMF 13.10 normalization in ``math.lgamma``;
* main-regime C0: the series of phi' at u = 0, derived here afresh, then
  ``scipy.integrate.solve_ivp`` (DOP853) out to U, and the limit
  A = phi(U) + phi'(U) U / (r - 1) with C0 = 1/A.  The error estimate is
  the largest change of C0 under a tighter tolerance, another transfer
  point and a ten times larger U.

This does not import ``ruinlab``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import references  # noqa: E402

LAM, M = 0.09, 1.0
# (a, b, c) of the bundled presets; every preset has lam = 0.09, m = 1
PRESETS = {
    "fig1-I": (0.0, 0.0, 0.1),
    "fig1-II": (0.02, 0.1, 0.1),
    "fig2-I": (0.02, 0.1, 0.02),
    "fig2-II": (0.1, 0.1, 0.02),
    "fig3-I": (0.02, 0.0, 0.02),
    "fig3-II": (0.1, 0.0, 0.02),
    "fig4-I": (0.02, 0.0, 0.0),
    "fig4-II": (0.1, 0.0, 0.0),
    "fig5-I": (0.02, 0.1, 0.0),
    "fig5-II": (0.1, 0.1, 0.0),
}


def psi_series(a, b, c, lam, m, order=60):
    """Coefficients p_k of psi = phi' = sum p_k u^k for phi(0) = 1.

    Substituting the series into
      (b^2/2) u^2 psi'' + [c + (b^2 + a) u + b^2 u^2/(2m)] psi'
                       + [a - lam + c/m + a u/m] psi = 0
    and collecting u^k gives a two-term recurrence; p_0 = lam/c comes from
    the equation at u = 0, c phi'(0) = lam phi(0).
    """
    b2 = b * b
    p = np.zeros(order + 1)
    p[0] = lam / c
    for k in range(order):
        t0 = (0.5 * b2 * k * (k - 1) + (b2 + a) * k + a - lam + c / m) * p[k]
        t1 = (0.5 * b2 * (k - 1) / m + a / m) * p[k - 1] if k >= 1 else 0.0
        p[k + 1] = -(t0 + t1) / (c * (k + 1))
    return p


def series_state(p, u0):
    """(phi, phi', phi'') at u0 from the series, truncated at its smallest term."""
    ks = np.arange(len(p), dtype=float)
    terms = np.abs(p) * u0**ks
    stop = int(np.argmin(terms))
    if terms[stop] > 1e-18 * abs(p[0]):
        raise ValueError(f"series not small enough at u0={u0:g}")
    p, ks = p[: stop + 1], ks[: stop + 1]
    phi = 1.0 + np.sum(p * u0 ** (ks + 1.0) / (ks + 1.0))
    dphi = np.sum(p * u0**ks)
    ddphi = np.sum(ks[1:] * p[1:] * u0 ** (ks[1:] - 1.0))
    return np.array([phi, dphi, ddphi])


def main_C0(a, b, c, lam, m, u0, U, rtol):
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
    return 1.0 / (phi_U + dphi_U * U / (r - 1.0))


def main_reference(a, b, c, lam, m):
    base = main_C0(a, b, c, lam, m, u0=0.01 * m, U=1e4 * m, rtol=1e-12)
    variants = [
        main_C0(a, b, c, lam, m, u0=0.01 * m, U=1e4 * m, rtol=1e-13),
        main_C0(a, b, c, lam, m, u0=0.003 * m, U=1e4 * m, rtol=1e-12),
        main_C0(a, b, c, lam, m, u0=0.01 * m, U=1e5 * m, rtol=1e-12),
    ]
    err = max(abs(v - base) / base for v in variants)
    return base, err


def build() -> dict:
    table = {
        "lam": LAM,
        "m": M,
        "rel_tol": references.REL_TOL,
        "presets": {},
    }
    for name, (a, b, c) in PRESETS.items():
        entry = {"a": a, "b": b, "c": c}
        if b > 0.0 and c > 0.0:
            C0, err = main_reference(a, b, c, LAM, M)
            entry.update(route="main", C0=C0, ref_rel_err=err,
                         method="psi series + scipy DOP853")
        elif b > 0.0:
            entry.update(route="capital-stock", P1=references.cs_P1(a, b, LAM, M),
                         method="DLMF 13.10 with math.lgamma")
        else:
            route = "classical" if a == 0.0 else "risk-free"
            C0 = float(references.closed_phi(route, a, c, LAM, M, [0.0])[0])
            entry.update(route=route, C0=C0, method="closed form, scipy.special")
        table["presets"][name] = entry
    return table


def main() -> int:
    table = build()
    worst = max(e.get("ref_rel_err", 0.0) for e in table["presets"].values())
    if worst > references.REL_TOL / 10.0:
        raise SystemExit(
            f"reference error {worst:.2e} is not 10x below the tolerance "
            f"{references.REL_TOL:g} it judges"
        )
    with open(references.TABLE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, e in table["presets"].items():
        value = e.get("C0", e.get("P1"))
        print(f"{name:8s} {e['route']:14s} {value:.15g}  err={e.get('ref_rel_err', 0.0):.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
