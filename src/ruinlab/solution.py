"""Result containers shared by the regime solvers."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import RegimeInfo

__all__ = ["TailFit", "SolutionGrid", "make_grid"]

_FLOAT_MAX = float(np.finfo(float).max)
# the default output grid of ``solve`` and ``resolve_grid``: 201 uniform points on [0, 50 m]
GRID_POINTS, GRID_SPACING, GRID_U_MAX = 201, "uniform", 50.0


def make_grid(u_max: float, points: int, spacing: str = GRID_SPACING) -> np.ndarray:
    """Output grid from 0 to u_max, uniform or logarithmic.

    Raises ValueError for a non-finite or nonpositive ``u_max``, fewer than
    two points or an unknown ``spacing``, TypeError for points not an int."""
    check_u_max(u_max)
    check_count("points", points, 2)
    if spacing == "uniform":
        return np.linspace(0.0, u_max, points)
    if spacing == "log":
        return np.concatenate(([0.0], np.geomspace(u_max * 1e-3, u_max, points - 1)))
    raise ValueError(f"unknown spacing {spacing!r}")


def check_tolerances(**tols: float) -> None:
    """Refuse tolerances, given by name, that are not positive and finite."""
    if not all(0.0 < t < math.inf for t in tols.values()):
        got = ", ".join(map(repr, tols.values()))
        raise ValueError(f"{' and '.join(tols)} must be positive and finite, got {got}")


def check_count(name: str, value, least: int) -> int:
    """``value`` through ``operator.index``, at least ``least``; its errors name ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def check_u_max(u_max) -> None:
    """Refuse a ``u_max`` that is not positive and finite."""
    if not 0.0 < u_max < math.inf:
        raise ValueError(f"u_max must be finite and > 0, got {u_max!r}")


def resolve_grid(m: float, u_grid=None, u_max=None):
    """(u_grid, u_max) of a route: a given grid raises u_max to its end,
    u_max defaults to 50 m, and the grid to 201 uniform points on [0, u_max].
    Each route calls it once on the grid it receives.

    Raises ValueError for a non-finite or nonpositive ``u_max``, for a
    ``u_grid`` entry that is non-finite or negative, for a ``u_grid`` that is
    empty or not 1-D, and for one that is not strictly increasing."""
    if u_grid is None:
        u_max = GRID_U_MAX * m if u_max is None else u_max
        return make_grid(u_max, GRID_POINTS), u_max
    if u_max is not None:
        check_u_max(u_max)
    u_grid = np.asarray(u_grid, dtype=float)
    finite = (u_grid >= 0.0) & (u_grid < math.inf)
    if u_grid.ndim != 1 or not u_grid.size or not finite.all():
        raise ValueError("u_grid entries must be finite and >= 0, in a non-empty 1-D array")
    if np.any(u_grid[1:] <= u_grid[:-1]):
        raise ValueError("u_grid must be strictly increasing")
    return u_grid, max(u_max or 0.0, float(u_grid.max()))


@dataclass(frozen=True)
class TailFit:
    """Large-u behaviour 1 - phi(u) ~ K * u**exponent.

    ``A`` is the finite limit of the unnormalized solution: 1/phi(0) in the
    main regime, where ``A`` and ``K`` come from matching the series at
    infinity to phi(U) and phi'(U); no fit is reported where phi is flat at
    U or phi'(U) is below the normal float range.  In the capital-stock
    regime ``A`` = Z and ``K`` are exact (a Mellin transform and Kummer's
    asymptotics), and the span is [0, ``U``].  ``K``, formed in logs, reads
    inf beyond double range; far out, both routes evaluate the series with it (``far_field``).
    """

    A: float
    K: float
    exponent: float
    U: float


@dataclass
class SolutionGrid:
    """A solved survival probability sampled on a grid.

    ``u`` is strictly increasing, from 0 unless the solve was given a
    ``u_grid``; ``phi``, ``dphi``, ``ddphi`` are the sampled value and first
    two derivatives.  The grid is a view of the solution, not its full
    content: ``evaluate`` queries the underlying representation (closed form,
    series, or series + trajectory) anywhere in ``span``: [0, inf) on every
    route but the capital stock, whose span is [0, U]; the main route
    continues its trajectory by the series at infinity matched at U.
    Every route builds its result with ``sample``.  Treat instances as
    immutable.
    """

    u: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    ddphi: np.ndarray
    C0: float
    regime: RegimeInfo
    # (phi, phi', phi'') at a validated 1-D array inside ``span``
    _eval3: Callable = field(repr=False)
    # the same at one validated float inside ``span``, in Python floats
    _point3: Callable = field(repr=False)
    tail: TailFit | None = None
    diagnostics: dict = field(default_factory=dict)
    # where ``evaluate`` answers
    span: tuple[float, float] = (0.0, math.inf)

    @classmethod
    def sample(cls, u: np.ndarray, eval3: Callable, point3: Callable, **fields) -> SolutionGrid:
        """The solution with evaluators ``eval3`` and ``point3``, sampled once
        on the validated grid ``u``; ``fields`` are the remaining fields."""
        phi, dphi, ddphi = eval3(u)
        return cls(u=u, phi=phi, dphi=dphi, ddphi=ddphi, _eval3=eval3, _point3=point3, **fields)

    def evaluate(self, u):
        """Return (phi, phi', phi'') at u within ``span``: Python floats for a
        0-d u (a float, an int, a numpy scalar or a 0-d array), arrays of u's
        shape otherwise.

        A 0-d u takes the solution's point evaluator, which does the array
        path's work in Python floats and ``math``; the two agree to 1e-14
        relative, and return the same infinities.  Raises ValueError for u
        outside ``span`` and for an infinite or NaN u, also where ``span``
        reaches to infinity."""
        if isinstance(u, (float, int)):
            return self._point(float(u))
        uq = np.asarray(u, dtype=float)
        if uq.ndim == 0:
            return self._point(float(uq))
        flat = uq.ravel()
        lo, hi = self.span
        # written so that NaN and inf fail too
        if flat.size and not (lo <= flat.min() and flat.max() <= min(hi, _FLOAT_MAX)):
            raise _outside_span(lo, hi)
        phi, dphi, ddphi = self._eval3(flat)
        return phi.reshape(uq.shape), dphi.reshape(uq.shape), ddphi.reshape(uq.shape)

    def _point(self, x: float) -> tuple[float, float, float]:
        lo, hi = self.span
        if not lo <= x <= min(hi, _FLOAT_MAX):
            raise _outside_span(lo, hi)
        return self._point3(x)


def _outside_span(lo: float, hi: float) -> ValueError:
    return ValueError(f"evaluation needs finite u in the solution span [{lo:g}, {hi:g}]")
