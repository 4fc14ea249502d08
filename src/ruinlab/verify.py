"""Independent oracles: residual checking, Monte Carlo, tail estimation.

None of these reuse the solver's algebra.  The residual check reconstructs
the integral term of the survival equation by integrating the companion
equation y' = (phi - y)/m against the solution's own interpolant; Monte
Carlo simulates the surplus process directly; the tail estimator fits the
large-u power law from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, Regime
from .odes import companion_volterra_field, integrate
from .solution import SolutionGrid

__all__ = [
    "ResidualReport",
    "McEstimate",
    "TailEstimate",
    "ide_residual",
    "mc_survival",
    "tail_exponent",
]

_BLOCK = 16384


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual of the survival equation on a grid."""

    u: np.ndarray
    residual: np.ndarray
    sup: float
    rel_sup: float  # sup scaled by the claim intensity


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo survival estimate.

    ``dt`` is 0.0 when the b = 0 exact event-driven scheme was used (no time
    grid).  ``p_hat`` estimates survival up to the finite horizon ``T``; it
    converges to the infinite-horizon probability from above as T grows.
    """

    u: float
    n_paths: int
    T: float
    dt: float
    p_hat: float
    stderr: float
    seed: int


class TailEstimate(NamedTuple):
    slope: float
    K: float


def ide_residual(
    solution: SolutionGrid,
    params: ModelParams,
    grid,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> ResidualReport:
    """Residual r(u) = (b^2/2) u^2 phi'' + (a u + c) phi' - lam phi + lam y.

    y is the convolution term, recovered independently by integrating the
    companion equation against the solution's dense interpolant.  The report
    scales the sup norm by lam so tolerances are comparable across parameter
    sets.
    """
    uq = np.sort(np.asarray(grid, dtype=float))
    if uq[0] < solution.span[0] or uq[-1] > solution.span[1]:
        raise ValueError(
            f"grid [{uq[0]:g}, {uq[-1]:g}] exceeds solution span {solution.span}"
        )
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m

    def phival(x: float) -> float:
        return solution.evaluate(x)[0]

    field = companion_volterra_field(params, phival)
    traj = integrate(field, 0.0, [0.0], uq[-1], rtol=rtol, atol=atol)
    y = traj(uq)[:, 0]

    phi, dphi, ddphi = solution.evaluate(uq)
    with np.errstate(invalid="ignore"):
        r = 0.5 * b * b * uq**2 * ddphi + (a * uq + c) * dphi - lam * phi + lam * y
    # At u = 0 the equation holds as a limit; unbounded derivatives there
    # enter only through vanishing factors.
    edge = (uq == 0.0) | ~np.isfinite(dphi) | ~np.isfinite(ddphi)
    if np.any(edge):
        phi0, dphi0, _ = solution.evaluate(0.0)
        r0 = c * dphi0 - lam * phi0 if (c > 0.0 and math.isfinite(dphi0)) else 0.0
        r[edge] = r0
    sup = float(np.max(np.abs(r)))
    return ResidualReport(u=uq, residual=r, sup=sup, rel_sup=sup / lam)


def _rate_scale(params: ModelParams) -> float:
    return min(params.lam, 1.0 / params.m)


def _mc_block_exact(params, u, T, rng, size):
    """Event-driven paths for b = 0: exact surplus updates between claims."""
    a, c, lam, m = params.a, params.c, params.lam, params.m
    X = np.full(size, float(u))
    t = np.zeros(size)
    alive = np.ones(size, dtype=bool)
    active = alive.copy()
    with np.errstate(over="ignore"):
        while active.any():
            gaps = rng.exponential(1.0 / lam, size)
            sizes = rng.exponential(m, size)
            t_new = t[active] + gaps[active]
            before_T = t_new <= T
            if a > 0.0:
                growth = np.exp(a * gaps[active])
                X_new = X[active] * growth + (c / a) * (growth - 1.0)
            else:
                X_new = X[active] + c * gaps[active]
            X_new = np.where(before_T, X_new - sizes[active], X_new)
            idx = np.flatnonzero(active)
            X[idx] = X_new
            t[idx] = np.where(before_T, t_new, np.inf)
            alive[idx[before_T & (X_new < 0.0)]] = False
            active = alive & (t < T)
    return int(alive.sum())


def _mc_block_euler(params, u, T, dt, rng, size):
    """Euler-Maruyama paths with claims applied at their arrival instants.

    Each grid step carries at most one claim (probability lam*h, the exact
    per-step mean).  Conditional on an arrival, its position inside the step
    is uniform, so the step is split there: diffusion to the claim, claim,
    diffusion over the remainder.  Ruin is checked after every substep and
    claim.
    """
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    n_steps = int(math.ceil(T / dt))
    h = T / n_steps
    p_claim = lam * h
    if p_claim > 0.5:
        raise ValueError(f"dt too coarse: lam*dt = {p_claim:g} (need << 1)")
    sqrt_h = math.sqrt(h)
    X = np.full(size, float(u))
    alive = np.ones(size, dtype=bool)
    for _ in range(n_steps):
        noise = rng.standard_normal(size)
        arrival = rng.random(size)
        X_next = X + (a * X + c) * h + b * X * sqrt_h * noise
        hit = arrival < p_claim
        if hit.any():
            # given arrival < p, arrival/p is uniform: it locates the claim
            # inside the step; the same step noise, rescaled, drives the
            # shortened first substep
            idx = np.flatnonzero(hit)
            delta = arrival[idx] * (h / p_claim)
            xh = X[idx]
            x1 = xh + (a * xh + c) * delta + b * xh * np.sqrt(delta) * noise[idx]
            x1 -= rng.exponential(m, idx.size)
            alive[idx[x1 < 0.0]] = False
            rest = h - delta
            x1 += (a * x1 + c) * rest + b * x1 * np.sqrt(rest) * rng.standard_normal(idx.size)
            X_next[idx] = x1
        X = X_next
        alive &= X >= 0.0
        if not alive.any():
            break
        X[~alive] = 0.0  # keep dead lanes finite
    return int(alive.sum())


def mc_survival(
    params: ModelParams,
    u: float,
    n_paths: int,
    T: float | None = None,
    dt: float | None = None,
    seed: int | None = None,
) -> McEstimate:
    """Estimate survival up to horizon T by direct path simulation.

    Claims arrive as a Poisson process of rate lam with exponential sizes of
    mean m.  Between claims the surplus follows dX = (aX + c) dt + bX dw:
    exactly (exponential integrator) when b = 0, by Euler-Maruyama steps of
    size <= dt when b > 0, with ruin checked at every step and claim.

    Defaults: T = 400 and dt = 0.01, both divided by the rate scale
    min(lam, 1/m).  The finite horizon biases the estimate up relative to
    the infinite-horizon probability; double T until the change is within
    one standard error before comparing against solver output.  A given T
    must be finite and positive, and so must a given dt, even when b = 0,
    where the exact scheme does not use it and the estimate records dt = 0.

    Claims are placed at their exact arrival instants: a step containing an
    arrival is split there, with the claim applied between the substeps.

    Paths are processed in fixed-size blocks, each drawing from a substream
    derived deterministically from (seed, block index), so the estimate is
    reproducible and independent of how blocks are distributed over workers.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not 0.0 <= u < math.inf:
        raise ValueError(f"initial surplus must be finite and >= 0, got {u!r}")
    scale = _rate_scale(params)
    if T is None:
        T = 400.0 / scale
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    if dt is None:
        dt = 0.01 / scale
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    exact = params.b == 0.0
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))

    survivors = 0
    done = 0
    block_index = 0
    while done < n_paths:
        size = min(_BLOCK, n_paths - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
        )
        if exact:
            survivors += _mc_block_exact(params, u, T, rng, size)
        else:
            survivors += _mc_block_euler(params, u, T, dt, rng, size)
        done += size
        block_index += 1

    p_hat = survivors / n_paths
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
    return McEstimate(
        u=float(u),
        n_paths=n_paths,
        T=float(T),
        dt=0.0 if exact else float(dt),
        p_hat=p_hat,
        stderr=stderr,
        seed=seed,
    )


def tail_exponent(
    solution: SolutionGrid,
    fit_window: tuple[float, float],
    n_points: int = 60,
) -> TailEstimate:
    """Least-squares slope of log(1 - phi) against log u over ``fit_window``.

    Only regimes with a genuine power-law tail qualify (risky investment);
    the risk-free and classical tails are exponential and are rejected.  The
    window must keep 1 - phi above ten times the solve tolerance, otherwise
    the fit would read integrator noise.
    """
    if solution.regime.regime not in (Regime.MAIN, Regime.CAPITAL_STOCK):
        raise ValueError(
            f"power-law tail fit not applicable to regime {solution.regime.regime.value!r}"
        )
    lo, hi = fit_window
    if not 0.0 < lo < hi <= solution.span[1]:
        raise ValueError(f"fit window ({lo:g}, {hi:g}) outside solution span")
    uq = np.geomspace(lo, hi, n_points)
    phi, _, _ = solution.evaluate(uq)
    one_minus = 1.0 - phi
    floor = 10.0 * solution.diagnostics.get("atol", 1e-12)
    if np.any(one_minus <= floor):
        raise ValueError(
            f"1 - phi underflows the tolerance floor {floor:g} inside the window"
        )
    slope, intercept = np.polyfit(np.log(uq), np.log(one_minus), 1)
    return TailEstimate(slope=float(slope), K=float(np.exp(intercept)))
