"""Seeded sample of admissible model parameters, and the outcome classifier.

Points are drawn in dimensionless groups, as in ROADMAP item 4:

* r = 2a/b^2, log-uniform in (1, 30];
* k = c/(lam*m), log-uniform in [0.1, 10] (0 on capital-stock points, and
  in (1, 10] on classical points, which need a positive safety loading);
* a third group that sets the investment scale: a/lam, log-uniform in
  [0.1, 10], on main and risk-free points; on capital-stock points the
  exponent mu1 of phi ~ u^mu1 at the origin, log-uniform in [0.1, 200],
  because that exponent decides how hard the normalization is.  Its range
  reaches the ROADMAP's raw ``OverflowError`` from ``U**mu1`` (mu1 about 93),
  and mu1 above about 4, or above about 2 when r is near 1, makes the
  normalization fail to stabilize;
* lam log-uniform in [0.01, 1] and m log-uniform in [0.01, 100].  The
  solutions scale with m, except that the capital-stock ladder's
  ``U**mu1`` overflows sooner for a larger m.

Every route gets a fixed number of points, and within a route the groups are
Latin-hypercube stratified: each of the n points of a route falls in its own
n-th of every group's range.  Which n-ths of the groups share a point (the
design's cells) is fixed, and the seed places each point uniformly within
the middle tenth of its cell.  So every seed draws different points with
the same mix of easy and hard ones: a failure, a slow ladder or an
inaccurate P1 shows on every seed, not on some, which keeps a pass's cost
and accuracy comparable across seeds.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# points per pass and route; about a third capital stock, a few with b = 0
ROUTE_COUNTS = {
    "main": 17,
    "capital-stock": 10,
    "risk-free": 1,
    "risk-free-c0": 1,
    "classical": 1,
}
# the package's regime value for each route
REGIME_OF_ROUTE = {
    "main": "main",
    "capital-stock": "capital-stock",
    "risk-free": "risk-free",
    "risk-free-c0": "risk-free",
    "classical": "classical",
}

OUTCOMES = ("ok", "typed", "raw", "warning")
# fixes which strata of the groups share a point; not the benchmark's seed
DESIGN_SEED = 0x5EE9
# the share of its cell, in every group, within which the seed moves a point
JITTER = 0.1


def _log_uniform(x, lo: float, hi: float):
    return lo * (hi / lo) ** x


def _lhs(cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One point in [0, 1)^d per row of ``cells``, uniform in the middle
    ``JITTER`` of its cell."""
    n, d = cells.shape
    return (cells + 0.5 + JITTER * (rng.random((n, d)) - 0.5)) / n


def _design(route: str, n: int) -> np.ndarray:
    """The fixed cells of the route's n-point Latin hypercube: row i holds
    the n-th of each group's range that point i falls in."""
    rng = np.random.default_rng(DESIGN_SEED + n)
    cells = np.argsort(rng.random((5, n)), axis=1).T
    if route == "capital-stock":
        # mu1 and r decide how hard the normalization is.  Odd mu1 strata
        # take the r strata from r near 1 upwards, even ones from r = 30
        # downwards, so that small mu1 meets both ends of the r range; P1
        # is least accurate, or fails, at small r
        k = cells[:, 3]
        cells[:, 2] = np.where(k % 2 == 1, n - 1 - k // 2, k // 2)
    return cells


def _point(route: str, x: np.ndarray) -> dict:
    lam = _log_uniform(x[0], 0.01, 1.0)
    m = _log_uniform(x[1], 0.01, 100.0)
    if route == "classical":
        k = _log_uniform(x[2], 1.0, 10.0)  # x[2] > 0, so c > lam m
        return dict(route=route, a=0.0, b=0.0, c=k * lam * m, lam=lam, m=m)
    if route in ("risk-free", "risk-free-c0"):
        a = _log_uniform(x[2], 0.1, 10.0) * lam
        k = _log_uniform(x[3], 0.1, 10.0) if route == "risk-free" else 0.0
        return dict(route=route, a=a, b=0.0, c=k * lam * m, lam=lam, m=m)
    r = 30.0 ** (1.0 - x[2])  # (1, 30]
    if route == "main":
        a = _log_uniform(x[3], 0.1, 10.0) * lam
        b = math.sqrt(2.0 * a / r)
        c = _log_uniform(x[4], 0.1, 10.0) * lam * m
        return dict(route=route, a=a, b=b, c=c, lam=lam, m=m)
    # capital stock: 2 lam / b^2 = mu1 (mu1 - 1 + r) inverts the exponent
    mu1 = _log_uniform(x[3], 0.1, 200.0)
    b = math.sqrt(2.0 * lam / (mu1 * (mu1 - 1.0 + r)))
    return dict(route=route, a=0.5 * r * b * b, b=b, c=0.0, lam=lam, m=m)


def generate(seed: int) -> list[dict]:
    """The sweep's parameter list for ``seed``: a list of dicts with keys
    route, a, b, c, lam, m.  The same seed gives the same list."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EE9]))
    points = []
    for route, n in ROUTE_COUNTS.items():
        xs = _lhs(_design(route, n), rng)
        points.extend(_point(route, x) for x in xs)
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def route_shares(points: list[dict]) -> dict[str, float]:
    counts = Counter(REGIME_OF_ROUTE[p["route"]] for p in points)
    return {route: counts[route] / len(points) for route in sorted(counts)}


def classify(exc: BaseException | None, n_warnings: int, typed_base: type) -> str:
    """Outcome of one operation: ok, typed (a ``typed_base`` raise), raw
    (any other raise) or warning (returned, but warned)."""
    if exc is not None:
        return "typed" if isinstance(exc, typed_base) else "raw"
    return "warning" if n_warnings else "ok"

