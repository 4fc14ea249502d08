"""Result containers shared by the regime solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import RegimeInfo

__all__ = ["TailFit", "SolutionGrid", "make_grid"]


def make_grid(u_max: float, points: int, spacing: str = "uniform") -> np.ndarray:
    """Output grid from 0 to u_max, uniform or logarithmic."""
    if points < 2 or u_max <= 0.0:
        raise ValueError("need points >= 2 and u_max > 0")
    if spacing == "uniform":
        return np.linspace(0.0, u_max, points)
    if spacing == "log":
        return np.concatenate(([0.0], np.geomspace(u_max * 1e-3, u_max, points - 1)))
    raise ValueError(f"unknown spacing {spacing!r}")


def resolve_grid(m: float, u_grid=None, u_max=None, points=201, spacing="uniform"):
    """(u_grid, u_max) of a solve: a given grid raises u_max to its end,
    u_max defaults to 50 m, and the grid to ``make_grid(u_max, points, spacing)``.

    Raises ValueError for a non-finite or nonpositive ``u_max`` and for a
    ``u_grid`` entry that is non-finite or negative."""
    if u_max is not None and not 0.0 < u_max < math.inf:
        raise ValueError(f"u_max must be finite and > 0, got {u_max!r}")
    if u_grid is not None:
        u_grid = np.asarray(u_grid, dtype=float)
        if not np.all((u_grid >= 0.0) & (u_grid < math.inf)):
            raise ValueError("u_grid entries must be finite and >= 0")
        u_max = max(u_max or 0.0, float(u_grid.max()))
    if u_max is None:
        u_max = 50.0 * m
    if u_grid is None:
        u_grid = make_grid(u_max, points, spacing)
    return u_grid, u_max


@dataclass(frozen=True)
class TailFit:
    """Large-u behaviour 1 - phi(u) ~ K * u**exponent.

    ``A`` is the finite limit of the unnormalized solution: the reciprocal of
    phi(0) in the main regime, the full normalizing integral in the
    capital-stock regime.  ``U`` is the end of the integration.  In the main
    regime ``A`` and ``K`` come from matching the series at infinity to
    phi(U) and phi'(U), and ``stability`` is |A(U) - A(U/2)| / A, both
    matched on the same trajectory.  In the capital-stock regime
    ``A`` and ``K`` are closed forms (a Mellin transform and the asymptotics
    of Kummer's function), so ``stability`` is 0.
    """

    A: float
    K: float
    exponent: float
    U: float
    stability: float


@dataclass
class SolutionGrid:
    """A solved survival probability sampled on a grid.

    ``u`` is strictly increasing from 0; ``phi``, ``dphi``, ``ddphi`` are the
    sampled value and first two derivatives.  The grid is a view of the
    solution, not its full content: ``evaluate`` queries the underlying
    representation (closed form, series + trajectory, or quadrature) anywhere
    in ``span``.  Treat instances as immutable.
    """

    u: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    ddphi: np.ndarray
    C0: float
    regime: RegimeInfo
    tail: TailFit | None = None
    diagnostics: dict = field(default_factory=dict)
    _eval3: Callable | None = field(default=None, repr=False)

    @property
    def span(self) -> tuple[float, float]:
        return (0.0, float(self.diagnostics.get("U", np.inf)))

    def evaluate(self, u):
        """Return (phi, phi', phi'') at scalar or array u within ``span``.

        Raises ValueError for u outside ``span`` and for an infinite or NaN
        u, also where ``span`` reaches to infinity."""
        if self._eval3 is None:
            raise ValueError("this solution carries no dense evaluator")
        scalar = np.isscalar(u) or np.asarray(u).ndim == 0
        uq = np.atleast_1d(np.asarray(u, dtype=float))
        lo, hi = self.span
        # written so that NaN fails too
        if uq.size and not (lo <= uq.min() and uq.max() <= hi and uq.max() < math.inf):
            raise ValueError(f"evaluation needs finite u in the solution span [{lo:g}, {hi:g}]")
        phi, dphi, ddphi = self._eval3(uq)
        if scalar:
            return float(phi[0]), float(dphi[0]), float(ddphi[0])
        return phi, dphi, ddphi
