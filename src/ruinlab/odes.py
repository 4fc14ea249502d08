"""Taylor-series integration of one linear equation with polynomial coefficients.

Both singular problems of the package share one linear equation for
w = phi':

    (b^2/2) u^2 w'' + [c + (b^2+a) u + b^2 u^2/(2m)] w' + [a - lam + c/m + a u/m] w = 0,

the main regime for c > 0 and the capital stock for c = 0.  Its
coefficients are polynomials and its only finite singular point is u = 0,
so about any s > 0 the Taylor coefficients of a solution follow exactly
from a recurrence, and converge for |u - s| < s.  ``integrate`` steps with
these series, a high-order Taylor method (Jorba & Zou, Experimental
Mathematics 14(1), 2005): no stages, no step rejections and no mesh rounds.

It steps a ``LinearOde``: one such equation of order n, given by its
coefficients, in the first-order form

    y_i' = y_(i+1)  (i < n - 1),    u^e y_(n-1)' = sum_j N_j(u) y_j + f(u),

with e in {0, 1, 2} and N_j, f polynomials of degree at most 2, each held
as its three monomial coefficients.  About s the coefficients of N_j(s + t)
and f(s + t) in t are exact shifts of these, c0 + s c1 + s^2 c2, c1 + 2 s c2
and c2, so the equation is never sampled.  ``LinearOde.rhs`` evaluates the
first-order form for scipy and the tests; ``integrate`` does not call it.

If y_0 does not enter the equation (phi in the main equation), it is carried
as the antiderivative of y_1, and the series is that of v = y_1: phi is
the termwise antiderivative of w.  Otherwise v = y_0.  At s the
coefficients v_q of v(s + t) = sum_q v_q t^q come from substituting the
series into the equation; for the w equation above, with P = b^2/2,

    v_(k+2) = -[(2P s k + q0)(k+1) v_(k+1) + (P k(k-1) + q1 k + r0) v_k
                + (P (k-1)/m + a/m) v_(k-1)] / (P s^2 (k+2)(k+1)),

q0 = c + (b^2+a) s + b^2 s^2/(2m), q1 = b^2 + a + b^2 s/m and
r0 = a - lam + c/m + a s/m.  A step keeps ``_TERMS`` of them and takes
the largest h, up to s/2 where e > 0, at which the last two terms of v
and of each of its derivatives in the state fall below rtol * h / L of
that component, L the length of the span: the truncation errors of all
steps add up to about rtol of each component at most.  A component is
held to its smaller value at the step's two ends, so a decaying one keeps
its relative accuracy, and to no less than rounding of the state.

The state v, v', .. is carried as 2^E times a vector whose largest entry
lies in [1/2, 1), so a solution may pass far outside double range on the
way (the capital-stock density P1 u^(mu1-1) eta starts below it for large
mu1).  The trajectory keeps each step's coefficients scaled back, in
powers of theta = (u - s) / h; where a value lies below double range it
reads 0.

Also built here, from ``ModelParams``, are the three equations of the
package: the third-order equation satisfied by the survival probability
(the w equation with phi added), the second-order equation of the
capital-stock auxiliary function eta, and the one-dimensional companion
equation that reproduces the exponential Volterra convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .errors import IntegrationError
from .model import ModelParams

__all__ = [
    "LinearOde", "Trajectory", "integrate",
    "main_ode_field", "companion_volterra_field", "eta_ode_field",
]

# Taylor coefficients of v per step
_TERMS = 30
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LinearOde:
    """u^e y^(n) = sum_j N_j(u) y^(j) + f(u): one linear equation of order
    n = len(N), stepped by ``integrate`` in the first-order form of the
    module docstring, with state (y, y', .., y^(n-1)).

    ``e`` is 0, 1 or 2, and ``N`` holds N_0, .., N_(n-1) and ``f`` the
    forcing, each as the monomial coefficients (c0, c1, c2) of
    c0 + c1 u + c2 u^2.  Raises ``ValueError`` for another e, another shape
    or a non-finite coefficient.
    """

    e: int
    N: tuple
    f: tuple = (0.0, 0.0, 0.0)
    name: str = ""

    def __post_init__(self):
        if self.e not in (0, 1, 2):
            raise ValueError(f"e must be 0, 1 or 2, got {self.e!r}")
        N, f = np.asarray(self.N, dtype=float), np.asarray(self.f, dtype=float)
        if N.ndim != 2 or N.shape[0] < 1 or N.shape[1] != 3 or f.shape != (3,):
            raise ValueError(
                f"need N of shape (n, 3) and f of shape (3,), got {N.shape} and {f.shape}"
            )
        if not (np.isfinite(N).all() and np.isfinite(f).all()):
            raise ValueError("equation coefficients must be finite")
        object.__setattr__(self, "N", tuple(map(tuple, N.tolist())))
        object.__setattr__(self, "f", tuple(f.tolist()))

    @property
    def dimension(self) -> int:
        return len(self.N)

    def rhs(self, u, y):
        """d(state)/du at a float or 1-D array ``u``, for ``dimension`` state
        components that broadcast against it, computed elementwise.  Raises
        ``ValueError`` at u <= 0 where e > 0."""
        if self.e and np.min(u) <= 0.0:
            raise ValueError(f"{self.name or 'equation'} is singular at u={np.min(u):g}; need u > 0")

        def poly(c):
            return c[0] + u * (c[1] + u * c[2])

        top = sum(poly(c) * yj for c, yj in zip(self.N, y)) + poly(self.f)
        return (*y[1:], top / u**self.e)


@dataclass
class Trajectory:
    """Steps of one integration and their series.

    ``us`` are the strictly increasing step ends and ``states`` the state
    vectors there.  On step k, component i is the polynomial
    sum_q coef[q, i, k] theta^q with theta = (u - us[k]) / (us[k+1] - us[k]),
    which equals ``states[k, i]`` at theta = 0.
    """

    us: np.ndarray
    states: np.ndarray
    coef: np.ndarray
    name: str = ""

    @property
    def u_start(self) -> float:
        return float(self.us[0])

    @property
    def u_end(self) -> float:
        return float(self.us[-1])

    def __call__(self, u):
        """The dense output: a list of the state's components at a 0-d
        ``u`` (a float, an int, a numpy scalar or a 0-d array), one row per
        entry of an array ``u`` otherwise.

        A 0-d u takes the step's coefficients as Python floats and does the
        array path's arithmetic on them in the same order, so the two paths
        agree bit for bit."""
        if isinstance(u, (float, int)):
            return self._point(float(u))
        uq = np.asarray(u, dtype=float)
        if uq.ndim == 0:
            return self._point(float(uq))
        uq = uq.ravel()
        us = self.us
        lo, hi = us[0], us[-1]
        bottom, top = (uq.min(), uq.max()) if uq.size else (lo, lo)
        slack = 1e-9 * max(hi - lo, abs(hi), 1.0)
        # written so that NaN fails too
        if not (lo - slack <= bottom and top <= hi + slack):
            raise ValueError(f"query outside trajectory span [{lo:g}, {hi:g}]")
        # the step of each query, the first or the last one outside the span
        idx = us[1:-1].searchsorted(uq, side="right")
        left = us[idx]
        theta = uq - left
        theta /= us[1:][idx] - left
        if bottom < lo or top > hi:  # theta lies in [0, 1] inside the span
            np.clip(theta, 0.0, 1.0, out=theta)
        # Horner's rule with one gathered coefficient alive at a time and the
        # query along rows
        coef = self.coef
        out = coef[-1].take(idx, axis=1)
        for q in range(len(coef) - 2, -1, -1):
            out *= theta
            out += coef[q].take(idx, axis=1)
        # the span's end reproduces the last state bit for bit
        if top >= hi:
            out[:, uq == hi] = self.states[-1][:, None]
        return out.T

    def _point(self, x: float) -> list:
        us = self.us
        lo, hi = float(us[0]), float(us[-1])
        slack = 1e-9 * max(hi - lo, abs(hi), 1.0)
        # written so that NaN fails too
        if not (lo - slack <= x <= hi + slack):
            raise ValueError(f"query outside trajectory span [{lo:g}, {hi:g}]")
        if x == hi:
            return self.states[-1].tolist()
        # the step of x, the first or the last one outside the span
        k = min(max(int(us.searchsorted(x, side="right")) - 1, 0), us.size - 2)
        left, right = us[k: k + 2].tolist()
        theta = min(max((x - left) / (right - left), 0.0), 1.0)
        out = []
        for column in self.coef[:, :, k].T.tolist():
            acc = column[-1]
            for c in column[-2::-1]:
                acc = acc * theta + c
            out.append(acc)
        return out


def _falling(x, j: int):
    """x (x - 1) .. (x - j + 1)."""
    out = np.ones_like(x)
    for i in range(j):
        out = out * (x - i)
    return out


def _weights(order: int) -> np.ndarray:
    """G with sum_c a_c G[c] the recurrence's coefficients of the
    ``width = max(order + 2, 4)`` terms v_(k+order-width), .., v_(k+order-1)
    before v_(k+order), for every k, given the step's constants a_c (see
    ``integrate``): shape (3 order + 2, width, _TERMS - order)."""
    width = max(order + 2, 4)
    k = np.arange(_TERMS - order, dtype=float)
    den = _falling(k + order, order)
    G = np.zeros((3 * order + 2, width, k.size))
    # N_j(s + t) v^(j): t^d of N_j meets v_(k-d+j) with weight ff(k-d+j, j)
    for j in range(order):
        for d in range(3):
            G[3 * j + d, width - order + j - d] = _falling(k - d + j, j) / den
    # (u^e)(s + t) v^(order): its t^d meets v_(k-d+order), d = 1, 2
    for d in (1, 2):
        G[3 * order + d - 1, width - d] = _falling(k - d + order, order) / den
    return G


def _step_size(series: list, h: float, tols: list) -> float:
    """The largest step up to h at which the last two terms of each power
    series, given highest power first, are at most tols[i] * t."""
    for coefs, tol in zip(series, tols):
        top = len(coefs) - 1
        for j in (0, 1):
            if coefs[j]:
                h = min(h, (tol / abs(coefs[j])) ** (1.0 / (top - j - 1)))
    return h


def _values(series: list, h: float) -> list:
    """The value at t = h of each power series, given highest power first,
    by Horner's rule."""
    out = []
    for coefs in series:
        acc = 0.0
        for x in coefs:
            acc = acc * h + x
        out.append(acc)
    return out


def integrate(
    eq: LinearOde,
    u_start: float,
    state0,
    u_end: float,
    rtol: float = 1e-10,
    max_step: float = math.inf,
    max_steps: int = 2_000_000,
    log_scale: float = 0.0,
) -> Trajectory:
    """Integrate the equation ``eq`` forward from ``u_start`` to ``u_end > u_start``.

    The initial state is ``state0 * exp(log_scale)``; ``log_scale`` lets it
    lie outside double range.  Steps are at most ``max_step`` long; see the
    module docstring for the step rule.  Raises :class:`IntegrationError`,
    with the abscissa of the failure, on equation coefficients or a state
    beyond double range, step-size underflow, or more than ``max_steps``
    steps; raises ``ValueError`` for ``u_start <= 0`` where e > 0.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    dim = eq.dimension
    state = np.asarray(state0, dtype=float)
    if state.shape != (dim,):
        raise ValueError(f"state0 must have shape ({dim},), got {state.shape}")
    if not (np.isfinite(state).all() and math.isfinite(log_scale)):
        raise ValueError(f"state0 and log_scale must be finite, got {state}, {log_scale!r}")
    u0, u1 = float(u_start), float(u_end)
    if not u1 > u0:
        raise ValueError(f"integration span must be increasing, got [{u0:g}, {u1:g}]")
    if eq.e and not u0 > 0.0:
        raise ValueError(f"equation is singular at u = 0; need u_start > 0, got {u0:g}")

    # y_0 left out of the equation is carried as the antiderivative of y_1:
    # v = y_lo
    lo = int(dim > 1 and not any(eq.N[0]))
    table = (*eq.N, eq.f)
    order = dim - lo
    G = _weights(order)
    width = G.shape[1]
    G = G.reshape(G.shape[0], -1)
    # l! and, highest power first, the factors q (q - 1) .. (q - l + 1) that
    # take v's coefficients to those of its l-th derivative
    fact = [float(math.factorial(l)) for l in range(order)]
    falling = [_falling(np.arange(_TERMS - 1.0, l - 1.0, -1.0), l).tolist() for l in range(order)]
    forcing_den = (1.0 / _falling(np.arange(3.0) + order, order)).tolist()
    span = u1 - u0
    affine = any(eq.f)

    # E and the normalized state, from exp(log_scale) = 2^E * 2^frac
    E0 = E = math.floor(log_scale / math.log(2.0))
    start = state * 2.0 ** (log_scale / math.log(2.0) - E)
    y = start[lo:].tolist()
    s = u0
    us, hs, Es, starts, series = [u0], [], [], [], []
    while True:
        sigma = max(map(abs, y))
        if affine:
            sigma = max(sigma, math.ldexp(1.0, -E))
        if sigma > 0.0:
            shift = math.frexp(sigma)[1]
            E += shift
            y = [math.ldexp(v, -shift) for v in y]
            sigma = math.ldexp(sigma, -shift)
        if E > 1024:
            raise IntegrationError(f"non-finite state at u={s:.6g}", u=s)
        if s >= u1:
            break
        if len(hs) >= max_steps:
            raise IntegrationError(f"step budget exhausted at u={s:.6g}", u=s)

        # the Taylor coefficients in t of u^e and of N_0, .., N_(n-1) and f
        # at u = s + t; c[j][d] is that of t^d.  s^e is 0.0 only below
        # double range, and a sum that is not finite holds an inf or a NaN
        p0, p1, p2 = ((1.0, 0.0, 0.0), (s, 1.0, 0.0), (s * s, 2.0 * s, 1.0))[eq.e]
        c = [(c0 + s * (c1 + s * c2), c1 + 2.0 * s * c2, c2) for c0, c1, c2 in table]
        a = [x / p0 for row in c[lo:dim] for x in row] + [-p1 / p0, -p2 / p0] if p0 else [math.inf]
        if not math.isfinite(sum(a)):
            raise IntegrationError(f"non-finite equation coefficients at u={s:.6g}", u=s)
        # the series of v at s: its first ``order`` terms from the state,
        # then the recurrence, whose coefficients of the ``width`` terms
        # before v_(k+order) are rows[k], plus f's term while k <= 2
        rows = np.dot(a, G).reshape(width, -1).T.tolist()
        force = [0.0] * len(rows)
        if affine:
            gamma = math.ldexp(1.0, -E) / p0
            for k in range(min(3, len(rows))):
                force[k] = gamma * c[dim][k] * forcing_den[k]
        v = [0.0] * (width - order) + [y[l] / fact[l] for l in range(order)]
        if width == 4:
            # equations of order <= 2, the package's own: unrolled, about
            # five times faster than the sum below
            x0, x1, x2, x3 = v
            for (r0, r1, r2, r3), fk in zip(rows, force):
                x0, x1, x2, x3 = x1, x2, x3, r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + fk
                v.append(x3)
        else:
            for k, (row, fk) in enumerate(zip(rows, force)):
                v.append(sum(map(mul, row, v[k: k + width])) + fk)
        v = v[width - order:]

        h = min(u1 - s, max_step)
        if eq.e:
            h = min(h, 0.5 * s)
        # each component is held to rtol * h / L of its value at the step's
        # start, then of its end if that is smaller; never below rounding
        floor = _EPS * sigma
        tols = [rtol / span * max(abs(x), floor) for x in y]
        # the series of v and its derivatives, highest power first
        desc = [v[::-1]] + [[x * f for x, f in zip(reversed(v), ff)] for ff in falling[1:]]
        h = _step_size(desc, h, tols)
        nxt = _values(desc, h)
        ends = [rtol / span * max(abs(x), floor) for x in nxt]
        if any(e < t for e, t in zip(ends, tols)):
            h = _step_size(desc, h, list(map(min, tols, ends)))
            nxt = _values(desc, h)
        if h <= 16.0 * _EPS * max(abs(s), 1e-30):
            raise IntegrationError(f"step size underflow at u={s:.6g}", u=s)
        # v's coefficients in powers of theta = t / h
        starts.append(y)
        powers = accumulate(repeat(h, _TERMS - 1), mul, initial=1.0)
        series.append([x * hq for x, hq in zip(v, powers)])
        hs.append(h)
        Es.append(E)
        s = u1 if h >= u1 - s else s + h
        us.append(s)
        y = nxt

    phi0 = (start[0], E0) if lo else None
    return _trajectory(eq.name, np.array(us), np.array(hs), starts, series, Es, (y, E), phi0)


def _trajectory(name, us, hs, starts, series, Es, end, phi0) -> Trajectory:
    """The Trajectory of steps ``hs`` with normalized series ``series`` (in
    powers of theta), start states ``starts`` and exponents ``Es``; ``end``
    and ``phi0`` are the last state and the antiderivative component's
    start value (None without one), each as (value, exponent)."""
    lo = 0 if phi0 is None else 1
    V = np.array(series)  # (steps, _TERMS)
    E = np.array(Es)[:, None]
    h = hs[:, None]
    start = np.array(starts)
    order = start.shape[1]
    coef = np.zeros((_TERMS + lo, order + lo, h.size))
    states = np.empty((us.size, order + lo))
    with np.errstate(over="ignore"):
        for l in range(order):
            col = V[:, l:] * _falling(np.arange(l, _TERMS, dtype=float), l) / h**l
            col[:, 0] = start[:, l]
            coef[: _TERMS - l, lo + l] = np.ldexp(col, E).T
        states[:-1, lo:] = coef[0, lo:].T
        states[-1, lo:] = np.ldexp(*end)
        if lo:
            # phi(s + theta h) - phi(s) = sum_q v_q h^(q+1) theta^(q+1) / (q + 1),
            # summed at theta = 1 as Trajectory does, so phi is continuous
            coef[1:, 0] = np.ldexp((V * h) / np.arange(1.0, _TERMS + 1.0), E).T
            inc = np.zeros(h.size)
            for q in range(_TERMS, 0, -1):
                inc += coef[q, 0]
            states[:, 0] = np.cumsum(np.concatenate(([np.ldexp(*phi0)], inc)))
            coef[0, 0] = states[:-1, 0]
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        at = float(us[np.argmin(finite)])
        raise IntegrationError(f"non-finite state at u={at:.6g}", u=at)
    return Trajectory(us=us, states=states, coef=coef, name=name)


def main_ode_field(params: ModelParams) -> LinearOde:
    """The main regime's third-order equation, state (phi, phi', phi''):

    (b^2/2) u^2 phi''' + [c + (b^2+a) u + b^2 u^2/(2m)] phi''
                       + [a - lam + c/m + a u/m] phi' = 0,  u > 0,

    divided by b^2/2.  The leading coefficient vanishes at u = 0, so
    initial data must be transferred to some u0 > 0 first.
    """
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    P = 0.5 * b * b
    N1 = (-(a - lam + c / m) / P, -a / (m * P), 0.0)
    N2 = (-c / P, -(b * b + a) / P, -1.0 / m)
    return LinearOde(e=2, N=((0.0, 0.0, 0.0), N1, N2), name="main-phi")


def companion_volterra_field(params: ModelParams, phi) -> LinearOde:
    """y' = (phi(u) - y) / m, which reproduces the exponential convolution.

    With y(0) = 0 the solution equals (1/m) * int_0^u phi(s) exp(-(u-s)/m) ds,
    so this equation turns the integral term of the survival equation into
    one extra ODE component.  ``phi`` holds one to three coefficients
    (p0, p1, p2) of the polynomial phi(u) = p0 + p1 u + p2 u^2.
    """
    m = params.m
    p = tuple(map(float, phi))
    if not 1 <= len(p) <= 3:
        raise ValueError(f"phi needs 1 to 3 polynomial coefficients, got {len(p)}")
    f = tuple(x / m for x in p + (0.0,) * (3 - len(p)))
    return LinearOde(e=0, N=((-1.0 / m, 0.0, 0.0),), f=f, name="volterra-companion")


def eta_ode_field(params: ModelParams) -> LinearOde:
    """The second-order equation of the capital-stock auxiliary function eta,

    u^2 eta'' + (2 d1 + u/m) u eta' + (d2 u / m) eta = 0,  u > 0,

    divided by u, with the exponents d1, d2 derived from ``params``.  State
    is (eta, eta').
    """
    from .capitalstock import exponents  # local import, avoids module cycle

    _, d1, d2 = exponents(params)
    m = params.m
    return LinearOde(
        e=1, N=((-d2 / m, 0.0, 0.0), (-2.0 * d1, -1.0 / m, 0.0)), name="capital-stock-eta"
    )
