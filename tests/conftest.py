import math

import numpy as np
import pytest

from ruinlab import ModelParams, SeriesExpansion, choose_u0, exponents, solve
from ruinlab.series import _FIRST, _LATTICE, PHI_TOL, _main_poly

# the common claim parameters of all bundled scenarios
LAM = 0.09
M = 1.0


def params(a, b, c):
    return ModelParams(a=a, b=b, c=c, lam=LAM, m=M)


PARAMS = {
    "fig1-I": params(0.0, 0.0, 0.1),
    "fig1-II": params(0.02, 0.1, 0.1),
    "fig2-I": params(0.02, 0.1, 0.02),
    "fig2-II": params(0.1, 0.1, 0.02),
    "fig3-I": params(0.02, 0.0, 0.02),
    "fig3-II": params(0.1, 0.0, 0.02),
    "fig4-I": params(0.02, 0.0, 0.0),
    "fig4-II": params(0.1, 0.0, 0.0),
    "fig5-I": params(0.02, 0.1, 0.0),
    "fig5-II": params(0.1, 0.1, 0.0),
}


def mellin_normalization(params):
    """Closed form of int_0^inf s^(mu1-1) eta(s) ds, the capital-stock 1/P1.

    eta is a confluent hypergeometric function M(d2, 2*d1, -u/m), whose
    Mellin transform (DLMF 13.10.10) is Gamma(mu1) Gamma(d2 - mu1)
    Gamma(2 d1) / (Gamma(d2) Gamma(2 d1 - mu1)); it converges exactly when
    2a/b^2 > 1.  Summed in logs, since each Gamma overflows above 171.
    The solver uses the same closed form; ``TestMellinNormalization``
    checks it against high-precision quadrature.
    """
    return math.exp(log_mellin_normalization(params))


def log_mellin_normalization(params):
    """log of ``mellin_normalization``, finite where the value overflows."""
    mu1, d1, d2 = exponents(params)
    return (
        mu1 * math.log(params.m)
        + math.lgamma(mu1)
        + math.lgamma(d2 - mu1)
        + math.lgamma(2.0 * d1)
        - math.lgamma(d2)
        - math.lgamma(2.0 * d1 - mu1)
    )


def classical_survival_to_horizon(params, u, T):
    """Exact probability that the classical surplus (a = b = 0) survives to T.

    Exponential claims, Asmussen & Albrecher, Ruin Probabilities (2nd ed.),
    Ch. V.  In units with premium 1 and Exp(1) claims (rho = lam*m/c,
    u' = u/m, T' = cT/m) the ruin probability before T' is

        psi(u', T') = rho e^(-(1-rho) u') - (1/pi) int_0^pi f1 f2 / f3 dtheta,

        f1 = rho exp(2 sqrt(rho) T' cos(theta) - (1+rho) T'
                     + u' (sqrt(rho) cos(theta) - 1)),
        f2 = cos(u' sqrt(rho) sin(theta)) - cos(u' sqrt(rho) sin(theta) + 2 theta),
        f3 = 1 + rho - 2 sqrt(rho) cos(theta).

    The first term is the infinite-horizon ruin probability; the integral is
    the ruin mass still to come after T.
    """
    from scipy.integrate import quad  # here, so other tests need no scipy

    rho = params.lam * params.m / params.c
    x = u / params.m
    t = params.c * T / params.m
    sr = math.sqrt(rho)

    def integrand(theta):
        cos, sin = math.cos(theta), math.sin(theta)
        f1 = rho * math.exp(2.0 * sr * t * cos - (1.0 + rho) * t + x * (sr * cos - 1.0))
        f2 = math.cos(x * sr * sin) - math.cos(x * sr * sin + 2.0 * theta)
        f3 = 1.0 + rho - 2.0 * sr * cos
        return f1 * f2 / f3

    tail, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 1.0 - (rho * math.exp(-(1.0 - rho) * x) - tail / math.pi)


def solve_recording_trajectory(monkeypatch, params, **kwargs):
    """``solve(params, **kwargs)`` and the trajectory its dense output reads
    (``None`` on a closed-form route): the segments recorded at
    ``integrate``, one per rung of the main route's ladder, joined."""
    from ruinlab import odes, solver

    seen = []
    integrate = solver.integrate

    def recording(*args, **kw):
        seen.append(integrate(*args, **kw))
        return seen[-1]

    with monkeypatch.context() as mp:
        mp.setattr(solver, "integrate", recording)
        grid = solve(params, **kwargs)
    return grid, (odes.joined(seen) if seen else None)


def fixed_order_series(params, order, tol=PHI_TOL):
    """The main series at u = 0 with ``order`` terms, its u0 the largest of
    the first candidates at which it truncates, as ``series_coeffs_main``
    takes before any doubling."""
    coeffs, poly = _main_poly(params, order)
    u0 = params.m * choose_u0(poly, _LATTICE[:_FIRST], tol)
    return SeriesExpansion(coeffs=coeffs, poly=poly, order=order, u0=u0, params=params)


@pytest.fixture(scope="session")
def solved():
    """Session cache of solved scenarios (u_max = 50, default tolerances)."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = solve(PARAMS[name], u_max=50.0, points=201)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def fine_grid():
    return np.linspace(0.0, 50.0, 501)
