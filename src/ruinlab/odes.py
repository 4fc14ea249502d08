"""Integration of one linear equation with polynomial coefficients.

Both singular problems of the package share one linear equation for
w = phi':

    (b^2/2) u^2 w'' + [c + (b^2+a) u + b^2 u^2/(2m)] w' + [a - lam + c/m + a u/m] w = 0,

the main regime for c > 0 and the capital stock for c = 0.  Its
coefficients are polynomials and its only finite singular point is u = 0.

``integrate`` steps a ``LinearOde``: one such equation, given by its
coefficients, in the first-order form

    y_i' = y_(i+1)  (i < n - 1),    u^e y_(n-1)' = sum_j N_j(u) y_j + f(u),

with e in {0, 1, 2} and N_j, f polynomials of degree at most 2, each held
as its three monomial coefficients.  If y_0 does not enter the equation
(phi in the main equation), it is carried as the antiderivative of y_1.
``LinearOde.rhs`` evaluates the first-order form for scipy and the tests;
``integrate`` does not call it.

**Collocation patches** step the main equation's form: e = 2, phi carried
as the antiderivative of w = y_1, w of order 2 and no forcing.  On a patch
[l, l + h], u = l + (1 + x) h/2 with x in [-1, 1], and x_j = -cos(j pi/N),
j = 0, .., N = ``_N`` = 32, are its Chebyshev-Lobatto points.  The unknowns
sigma_j = (h/2)^2 w''(x_j), j >= 1, are the values of a polynomial of
degree N - 1; (h/2) w' and w are its first and second integrals from the
patch start's (w, w'), which they meet exactly, and the equation, divided
by (2u/h)^2, holds at x_1, .., x_N: one dense N x N system per attempt,
the identity less two integration operators, so well conditioned (Greengard,
SIAM J. Numer. Anal. 28(4), 1991).  phi gains the Clenshaw-Curtis integral
of w.  The right end is a collocation point, so on y' = lam y a patch's
factor tends to 0 as lam h -> -inf (it is below 1.7e-4 for lam h/2 <= -1e3):
the fast mode, of rate about 2c/(b^2 u^2), which bounds an explicit step,
costs nothing here.  Collocating at the interior points alone instead gives
a factor tending to (-1)^(N-1), and the fast mode's rounding then builds up
until it sets the patch length.

A patch is accepted when the tail of w, its three top Chebyshev
coefficients, is at most max(``_TAIL`` rtol, ``_NOISE``) of the sum of
their magnitudes, a bound on |w| over the patch, and w grows at most
``_GROWTH``-fold and falls at most F-fold across it.  The end of w is good
to about eps of the patch's largest |w|, so where w falls F-fold, to about
eps F of its value: F = rtol / (``_FALL`` eps), held to [``_GROWTH``,
``_GROWTH``^4], which is 3,518 at the default rtol 1e-10 and ``_GROWTH``
from rtol 9.1e-13 down.  The next length reads the coefficients' decay
rate rho as a singular point d = (rho + 1/rho - 2) h/4 before the patch
start, and takes the length that puts the tail at ``_SAFETY`` of the bound
from the next start (or from this one, shorter, after a rejection), at
most ``_STRETCH`` times this one; the first patch is 3 u0 long.  The tail
bound reaches its floor ``_NOISE`` at rtol 1.4e-10, and F its floor at
9.1e-13: below that every rtol gives the same patches.

The state (phi, w, w') is carried as 2^E times a vector whose largest
entry lies in [1/2, 1), with E per patch, so the solution may pass far
outside double range; w and w' below 2^-1000 of it read 0.  The
trajectory holds each patch's polynomials in powers of the centred
t = (2u - l - r)/h, where the sum of their coefficients' magnitudes stays
near the polynomial's largest value, over 2^exp, with exp = 0 unless the
solution passes 2^960; values below double range read 0.  Each patch's
constant term of phi is the least float at which phi at t = -1 is at least
the last patch's phi at t = 1, so phi never steps down between patches.

**Taylor steps** step every other equation: the capital stock's eta and
the Volterra companion.  About any s > 0 the Taylor coefficients of a
solution follow exactly from a recurrence, and converge for |u - s| < s
where e > 0; a step takes these series, a high-order Taylor method (Jorba &
Zou, Experimental Mathematics 14(1), 2005): no stages, no step rejections
and no mesh rounds.  The series is that of v = y_1 where y_0 is carried as
an antiderivative, else v = y_0, of order 1 or 2.  About s the
coefficients of N_j(s + t) and f(s + t) in t are exact shifts,
c0 + s c1 + s^2 c2, c1 + 2 s c2 and c2, so the equation is never sampled.
At s the coefficients v_q of v(s + t) = sum_q v_q t^q come from
substituting the series into the equation; for the w equation above, with
P = b^2/2,

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
The recurrence's tables are built once for each of the two orders and
cached; the recurrence, the step rule and the end values are written out
over v and v'.  The state v, v', .. is carried as 2^E times a vector whose
largest entry lies in [1/2, 1); the trajectory keeps each step's
coefficients scaled back, in powers of theta = (u - s) / h, and a value
below double range reads 0.

Also built here, from ``ModelParams``, are the three equations of the
package: the third-order equation satisfied by the survival probability
(the w equation with phi added), the second-order equation of the
capital-stock auxiliary function eta, and the one-dimensional companion
equation that reproduces the exponential Volterra convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import lt

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
# for v of order 1 or 2: the step rule's powers for the top two terms of v
# and of v', and v_q's factor q in v'
_POWERS = [1.0 / (_TERMS - q) for q in (2, 3, 4)]
_DOWN = [float(q) for q in range(_TERMS - 1, 0, -1)]
# the dense output's: q, 1 <= q < _TERMS, and q + 1, 0 <= q < _TERMS
_Q, _Q1 = np.arange(1.0, _TERMS), np.arange(1.0, _TERMS + 1.0)


@dataclass(frozen=True)
class LinearOde:
    """u^e y^(n) = sum_j N_j(u) y^(j) + f(u): one linear equation of order
    n = len(N), stepped by ``integrate`` in the first-order form of the
    module docstring, with state (y, y', .., y^(n-1)).

    ``e`` is 0, 1 or 2, and ``N`` holds N_0, .., N_(n-1) and ``f`` the
    forcing, each as the monomial coefficients (c0, c1, c2) of
    c0 + c1 u + c2 u^2.  The series v that ``integrate`` steps is of order
    1 or 2: n is 1 or 2, or 3 with N_0 = 0, where y_0 is carried as an
    antiderivative.  Raises ``ValueError`` for another e, another shape,
    v of a higher order or a non-finite coefficient.
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
        n = N.shape[0]
        if n > 3 or (n == 3 and N[0].any()):
            raise ValueError(f"v must be of order 1 or 2: {n} rows of N, N_0 = {N[0].tolist()}")
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
    sum_q coef[q, i, k] theta^q: with theta = (u - us[k]) / (us[k+1] - us[k])
    on Taylor steps, where it equals ``states[k, i]`` at theta = 0, and with
    the centred theta = (2u - us[k] - us[k+1]) / (us[k+1] - us[k]) on
    collocation patches (``centred``).  The solution is 2^``exp`` times
    these values.
    """

    us: np.ndarray
    states: np.ndarray
    coef: np.ndarray
    name: str = ""
    centred: bool = False
    exp: int = 0

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
        left, right = us[idx], us[1:][idx]
        theta = uq - left
        if self.centred:
            theta -= right - uq
        theta /= right - left
        if bottom < lo or top > hi:  # theta lies in [0, 1] or [-1, 1] inside the span
            np.clip(theta, -1.0 if self.centred else 0.0, 1.0, out=theta)
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
        if self.centred:
            theta = min(max(((x - left) - (right - x)) / (right - left), -1.0), 1.0)
        else:
            theta = min(max((x - left) / (right - left), 0.0), 1.0)
        out = []
        for column in self.coef[:, :, k].T.tolist():
            acc = column[-1]
            for c in column[-2::-1]:
                acc = acc * theta + c
            out.append(acc)
        return out


def joined(trajs: list) -> Trajectory:
    """One Trajectory of ``trajs``, each starting where the one before ends,
    over the largest of their 2^exp."""
    if len(trajs) == 1:
        return trajs[0]
    exp = max(t.exp for t in trajs)

    def scaled(t, x):
        return x if t.exp == exp else np.ldexp(x, t.exp - exp)

    return Trajectory(
        us=np.concatenate([trajs[0].us] + [t.us[1:] for t in trajs[1:]]),
        states=np.concatenate(
            [scaled(trajs[0], trajs[0].states)] + [scaled(t, t.states[1:]) for t in trajs[1:]]
        ),
        coef=np.concatenate([scaled(t, t.coef) for t in trajs], axis=2),
        name=trajs[0].name,
        centred=trajs[0].centred,
        exp=exp,
    )


def _falling(x, j: int):
    """x (x - 1) .. (x - j + 1)."""
    out = np.ones_like(x)
    for i in range(j):
        out = out * (x - i)
    return out


# Chebyshev-Lobatto collocation of the main equation: _N + 1 points on
# [-1, 1], ascending; the equation holds at all but the first
_N = 32
_X = -np.cos(np.pi * np.arange(_N + 1) / _N)


def _integral(c):
    """The Chebyshev coefficients of the integral from -1 of the series
    with coefficients ``c``, one series per column."""
    n = len(c)
    k = np.arange(1.0, n + 1.0)
    lower = np.zeros((n + 2, c.shape[1]))
    lower[:n] = c
    lower[0] *= 2.0
    out = np.empty((n + 1, c.shape[1]))
    out[1:] = (lower[:-2] - lower[2:]) / (2.0 * k[:, None])
    out[0] = -((-1.0) ** k) @ out[1:]
    return out


def _patch_tables():
    """For sigma, the values at the collocation points _X[1:] of a
    polynomial of degree _N - 1: ONCE @ sigma and TWICE @ sigma are the
    Chebyshev coefficients of its first and second integrals from -1,
    J1 @ sigma and J2 @ sigma their values at the collocation points and
    Z_END @ sigma the first's at x = 1; C2M takes Chebyshev coefficients to
    monomial ones, and CC holds the integrals of T_k over [-1, 1]."""
    k = np.arange(_N + 2)
    # T_k(x_j) = cos(k theta_j), x_j = cos(theta_j)
    T = np.cos(np.outer(np.pi * (_N - k[:-1]) / _N, k))
    once = _integral(np.linalg.inv(T[1:, :_N]))
    twice = _integral(once)
    I1, I2 = T[1:, : _N + 1] @ once, T[1:] @ twice
    C2M = np.zeros((_N + 1, _N + 1))
    C2M[0, 0] = C2M[1, 1] = 1.0
    for j in range(2, _N + 1):
        C2M[1:, j] = 2.0 * C2M[:-1, j - 1]
        C2M[:, j] -= C2M[:, j - 2]
    CC = np.zeros(_N + 2)
    CC[::2] = 2.0 / (1.0 - k[::2] ** 2)
    tables = once, twice, I1, I2, I1[-1], C2M, CC
    for t in tables:
        t.flags.writeable = False
    return tables


_ONCE, _TWICE, _J1, _J2, _Z_END, _C2M, _CC = _patch_tables()
# the dense output's: q + 1 and (-1)^(q+1), 0 <= q <= _N, and (-1)^n for
# the _N + 2 rows of phi above its constant
_PK = np.arange(1.0, _N + 3)
_PALT = (-1.0) ** _PK[:-1]
_PSIGN = (-1.0) ** np.arange(_N + 2)[:, None]
# the patch rule of the module docstring; coefficients above _RESOLVED of
# the bound on |w| set the decay rate, and w below _FLOOR of the state
# does not count
_TAIL, _NOISE, _GROWTH, _STRETCH, _SAFETY = 1e-4, 64.0 * _EPS, 32.0, 64.0, 0.25
_RESOLVED, _FLOOR, _FALL = 256.0 * _EPS, 2.0**-1000, 128.0


@lru_cache(maxsize=None)
def _tables(order: int):
    """G, flat, with sum_c a_c G[c, k, i] the recurrence's coefficients of the
    four terms v_(k+order-4+i) before v_(k+order), given the step's constants
    a_c (see ``integrate``), step-major (k, i); f's denominators."""
    k = np.arange(_TERMS - order, dtype=float)
    den = _falling(k + order, order)
    G = np.zeros((3 * order + 2, 4, k.size))
    # N_j(s + t) v^(j): t^d of N_j meets v_(k-d+j) with weight ff(k-d+j, j)
    for j in range(order):
        for d in range(3):
            G[3 * j + d, 4 - order + j - d] = _falling(k - d + j, j) / den
    # (u^e)(s + t) v^(order): its t^d meets v_(k-d+order), d = 1, 2
    for d in (1, 2):
        G[3 * order + d - 1, 4 - d] = _falling(k - d + order, order) / den
    G = G.transpose(0, 2, 1).reshape(3 * order + 2, -1)
    G.flags.writeable = False  # shared by every call of this order
    forcing_den = tuple((1.0 / _falling(np.arange(3.0) + order, order)).tolist())
    return G, forcing_den


def integrate(
    eq: LinearOde,
    u_start: float,
    state0,
    u_end: float,
    rtol: float = 1e-10,
    max_step: float = math.inf,
    max_steps: int = 2_000_000,
    exp0: int = 0,
) -> Trajectory:
    """Integrate the equation ``eq`` forward from ``u_start`` to ``u_end > u_start``.

    The main equation's form is stepped in collocation patches, from
    2^``exp0`` times ``state0``; every other form in Taylor steps, from
    ``state0`` with ``exp0`` = 0.  See the module docstring for both rules;
    on the patches, every rtol at or below 9.1e-13 gives the same ones.
    Steps and patches are at most ``max_step`` long.  Raises
    :class:`IntegrationError`, with the abscissa of the failure, on equation
    coefficients or a Taylor step's state beyond double range, step-size
    underflow, or more than ``max_steps`` steps or accepted patches; raises
    ``ValueError`` for ``u_start <= 0`` where e > 0, a NaN or nonpositive
    ``max_step``, ``max_steps < 1`` or a nonzero ``exp0`` on Taylor steps.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    if not (max_step > 0.0 and max_steps >= 1):
        raise ValueError(f"need max_step > 0 and max_steps >= 1, got {max_step!r}, {max_steps!r}")
    dim = eq.dimension
    state = np.asarray(state0, dtype=float)
    if state.shape != (dim,):
        raise ValueError(f"state0 must have shape ({dim},), got {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError(f"state0 must be finite, got {state}")
    u0, u1 = float(u_start), float(u_end)
    if not u1 > u0:
        raise ValueError(f"integration span must be increasing, got [{u0:g}, {u1:g}]")
    if eq.e and not u0 > 0.0:
        raise ValueError(f"equation is singular at u = 0; need u_start > 0, got {u0:g}")

    # y_0 left out of the equation is carried as the antiderivative of y_1:
    # v = y_lo
    lo = int(dim > 1 and not any(eq.N[0]))
    order = dim - lo
    if eq.e == 2 and lo and order == 2 and not any(eq.f):
        return _collocate(eq, u0, state, u1, rtol, max_step, max_steps, exp0)
    if exp0:
        raise ValueError(f"exp0 applies to the main equation's form only, got {exp0!r}")
    G, forcing_den = _tables(order)
    table, affine = eq.N[lo:], any(eq.f)
    pad, scale = [0.0] * (4 - order), rtol / (u1 - u0)

    E, y, s = 0, state[lo:].tolist(), u0
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

        # the Taylor coefficients in t of u^e, and those of N_lo, .., N_(n-1)
        # at u = s + t over u^e's constant term.  s^e is 0.0 only below
        # double range, and a sum that is not finite holds an inf or a NaN
        p0, p1, p2 = ((1.0, 0.0, 0.0), (s, 1.0, 0.0), (s * s, 2.0 * s, 1.0))[eq.e]
        a = [
            x / p0 for c0, c1, c2 in table for x in (c0 + s * (c1 + s * c2), c1 + 2.0 * s * c2, c2)
        ] + [-p1 / p0, -p2 / p0] if p0 else [math.inf]
        if not math.isfinite(sum(a)):
            raise IntegrationError(f"non-finite equation coefficients at u={s:.6g}", u=s)
        # the series of v at s: its first ``order`` terms from the state, then
        # the recurrence, unrolled, whose coefficients of the four terms before
        # v_(k+order) are row k of np.dot(a, G), plus f's term force[k]
        force = [0.0] * 3
        if affine:
            gamma, (c0, c1, c2) = math.ldexp(1.0, -E) / p0, eq.f
            f = (c0 + s * (c1 + s * c2), c1 + 2.0 * s * c2, c2)
            force = [gamma * x * d for x, d in zip(f, forcing_den)]
        h = min(u1 - s, max_step)
        if eq.e:
            h = min(h, 0.5 * s)
        # each component is held to rtol * h / L of its value at the step's
        # start, then of its end if that is smaller; never below rounding
        floor = _EPS * sigma
        tols = [scale * max(abs(x), floor) for x in y]
        v = y[:]  # v_l = y_l / l! for l <= 1
        x0, x1, x2, x3 = pad + v
        quads = zip(*[iter(np.dot(a, G).tolist())] * 4)
        for fk, (r0, r1, r2, r3) in zip(force, quads):
            x0, x1, x2, x3 = x1, x2, x3, r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + fk
            v.append(x3)
        for r0, r1, r2, r3 in quads:
            x0, x1, x2, x3 = x1, x2, x3, r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3
            v.append(x3)
        v1, v2 = v[-1], v[-2]
        d1, d2 = v1 * (_TERMS - 1), v2 * (_TERMS - 2)
        # the largest h at which the last two terms of v and of v' meet tols,
        # and the end values by Horner's rule; once more with the end's tols
        for retry in (False, True):
            if v1:
                h = min(h, (tols[0] / abs(v1)) ** _POWERS[0])
            if v2:
                h = min(h, (tols[0] / abs(v2)) ** _POWERS[1])
            if order == 2:
                if d1:
                    h = min(h, (tols[1] / abs(d1)) ** _POWERS[1])
                if d2:
                    h = min(h, (tols[1] / abs(d2)) ** _POWERS[2])
            x = dx = 0.0
            for vq, q in zip(v[:0:-1], _DOWN):
                x = x * h + vq
                dx = dx * h + vq * q
            nxt = [x * h + v[0], dx][:order]
            if retry:
                break
            ends = [scale * max(abs(x), floor) for x in nxt]
            if not any(map(lt, ends, tols)):
                break
            tols = list(map(min, tols, ends))
        if h <= 16.0 * _EPS * max(abs(s), 1e-30):
            raise IntegrationError(f"step size underflow at u={s:.6g}", u=s)
        starts.append(y)
        series += v
        hs.append(h)
        Es.append(E)
        s = u1 if h >= u1 - s else s + h
        us.append(s)
        y = nxt

    phi0 = float(state[0]) if lo else None
    return _trajectory(eq.name, np.array(us), np.array(hs), starts, series, Es, (y, E), phi0)


def _collocate(eq, u0, state, u1, rtol, max_step, max_steps, E) -> Trajectory:
    """The main equation from ``u0`` to ``u1`` in collocation patches; see
    the module docstring.  ``state`` is the start state over 2^E."""
    (n10, n11, n12), (n20, n21, n22) = eq.N[1:]
    thr = max(_TAIL * rtol, _NOISE)
    # where w falls, its end is good to about rtol / _FALL of its value
    fall = min(max(rtol / (_FALL * _EPS), _GROWTH), _GROWTH**4)
    root = math.log(_GROWTH) / math.log(fall)
    xi, eye = 1.0 + _X[1:], np.eye(_N)
    phi, w, dw = state.tolist()
    # the first patch three times as long as its distance from u = 0, what
    # the length rule below asks for at the default tolerance
    s, h = u0, 3.0 * u0
    us, hs, Es, starts, sigmas = [u0], [], [], [], []
    while True:
        sigma = max(abs(phi), abs(w), abs(dw))
        if sigma > 0.0:
            shift = math.frexp(sigma)[1]
            E += shift
            phi, w, dw = (math.ldexp(v, -shift) for v in (phi, w, dw))
        if s >= u1:
            break
        if len(hs) >= max_steps:
            raise IntegrationError(f"patch budget exhausted at u={s:.6g}", u=s)
        h = min(h, u1 - s, max_step)
        while True:
            # x in [-1, 1] is u = s + half (1 + x); sigma holds half^2 w''
            # at the collocation points, w and half w' its integrals from
            # (w, half w') at x = -1
            half = 0.5 * h
            u = s + half * xi
            q = half / (u * u)
            al = q * (n20 + u * (n21 + u * n22))
            be = half * q * (n10 + u * (n11 + u * n12))
            slope = half * dw
            sig = np.linalg.solve(eye - al[:, None] * _J1 - be[:, None] * _J2, be * (w + slope * xi) + al * slope)
            cheb = _TWICE @ sig
            cheb[0] += w + slope
            cheb[1] += slope
            a = np.abs(cheb)
            # the sum of |T_k| terms bounds |w| on the patch
            big = float(a.sum())
            tail = float(a[-3:].max())
            if not math.isfinite(big + tail):
                raise IntegrationError(f"non-finite state at u={s:.6g}", u=s)
            # The next length: w's Chebyshev coefficients decay as rho^-k,
            # as those of a function with a singular point at x = -(rho +
            # 1/rho)/2, dist = (x - 1) h/2 before the patch start; the length
            # at which that point, seen from this start or from the next,
            # gives the decay want^-k that puts the tail at _SAFETY of the
            # bound.  w below _FLOOR of the state does not count.
            bound = thr * big + _FLOOR
            env = np.maximum(a[1:-1], a[2:])
            top = np.flatnonzero(env > _RESOLVED * big)
            top = int(top[-1]) if top.size else 0
            if top >= 4:
                rho = float(env[0] / env[top]) ** (1.0 / top)
                want = (float(env[0]) * rho / (_SAFETY * bound)) ** (1.0 / (_N - 1))
                dist = 0.25 * (rho + 1.0 / rho - 2.0) * h
                gap = 0.5 * (want + 1.0 / want) - 1.0
                factor = 2.0 * (dist + (h if tail <= bound else 0.0)) / (gap * h)
            else:
                factor = _STRETCH
            # w may grow _GROWTH-fold and fall fall-fold across a patch, as
            # (size/end)^root <= _GROWTH
            size = max(abs(w), abs(slope), _FLOOR)
            end = float(cheb.sum())
            grow = max(big / size, (size / max(abs(end), _FLOOR)) ** root)
            if grow > 2.0:
                factor = min(factor, 0.9 * math.log(_GROWTH) / math.log(grow))
            factor = min(factor, _STRETCH)
            if tail <= bound and grow <= _GROWTH:
                break
            h *= min(factor, 0.5)
            if h <= 16.0 * _EPS * s:
                raise IntegrationError(f"patch length underflow at u={s:.6g}", u=s)
        starts.append((phi, w, dw))
        sigmas.append(sig)
        hs.append(h)
        Es.append(E)
        phi += half * float(_CC @ cheb)
        w, dw = end, dw + float(_Z_END @ sig) / half
        if max(abs(w), abs(dw)) < _FLOOR:
            w = dw = 0.0
        s = u1 if h >= u1 - s else s + h
        us.append(s)
        h *= factor
    return _patch_trajectory(eq.name, np.array(us), np.array(hs), starts, sigmas, Es, ((phi, w, dw), E))


def _patch_trajectory(name, us, hs, starts, sigmas, Es, end) -> Trajectory:
    """The Trajectory of patches ``hs`` with start states ``starts``, their
    half^2 w'' at the interior points ``sigmas`` and exponents ``Es``, all
    normalized; ``end`` is the last state as (value, exponent).  Its values
    over 2^exp lie in double range, with exp = 0 where they do."""
    exp = max(0, max(Es + [end[1]]) - 960)
    half = 0.5 * hs[:, None]
    start, S = np.array(starts), np.array(sigmas)
    # half w', a polynomial of degree _N in t, and its termwise integrals
    # w = w(s) + sum_j p_j (t^(j+1) - (-1)^(j+1)) / (j + 1), p_j its
    # coefficients, and phi likewise
    Z = S @ _ONCE.T
    Z[:, 0] += half[:, 0] * start[:, 2]
    P = Z @ _C2M.T
    coef = np.zeros((_N + 3, 3, hs.size))
    coef[: _N + 1, 2] = (P / half).T
    W = P / _PK[:-1]
    coef[1 : _N + 2, 1] = W.T
    coef[0, 1] = start[:, 1] - W @ _PALT
    coef[1:, 0] = (coef[:-1, 1].T * half / _PK).T
    shift = np.array(Es) - exp
    coef = np.ldexp(coef, shift)
    states = np.empty((us.size, 3))
    states[:-1] = np.ldexp(start, shift[:, None])
    states[-1] = np.ldexp(end[0], end[1] - exp)
    # phi(t) by Horner's rule as Trajectory sums it: at t = -1 and t = 1 the
    # terms above the constant sum to -down and up; each patch's constant
    # is the least float at which phi at t = -1 is at least the last
    # patch's phi at t = 1, so that phi never steps down between patches
    # with x_n the nth row from the top, Horner's acc_n = +-acc_(n-1) + x_n
    # is (-1)^n times the running sum of (-1)^n x_n, to the bit
    rows = coef[:0:-1, 0]
    up = np.add.accumulate(rows)[-1]
    down = np.add.accumulate(rows * _PSIGN)[-1] * _PSIGN[-1]
    S = float(states[0, 0])
    for j, (dn, upj) in enumerate(zip(down.tolist(), up.tolist())):
        c = S + dn
        for c in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)):
            if c - dn >= S:
                break
        coef[0, 0, j] = c
        S = upj + c
        states[j + 1, 0] = S
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        at = float(us[np.argmin(finite)])
        raise IntegrationError(f"non-finite state at u={at:.6g}", u=at)
    return Trajectory(us=us, states=states, coef=coef, name=name, centred=True, exp=exp)


def _trajectory(name, us, hs, starts, series, Es, end, phi0) -> Trajectory:
    """The Trajectory of steps ``hs`` with normalized series ``series`` (in
    powers of t, one step after the other), start states ``starts`` and
    exponents ``Es``; ``end`` is the last state as (value, exponent), and
    ``phi0`` the antiderivative component's start value (None without one)."""
    lo = 0 if phi0 is None else 1
    V = np.fromiter(series, float, len(series)).reshape(hs.size, _TERMS)
    E = np.array(Es)[:, None]
    h = hs[:, None]
    start = np.array(starts)
    order = start.shape[1]
    coef = np.zeros((_TERMS + lo, order + lo, h.size))
    states = np.empty((us.size, order + lo))
    with np.errstate(over="ignore"):
        # in powers of theta = t / h: h^q as the sequential products 1, h, h h, ..
        V *= np.cumprod(np.hstack([np.ones_like(h), np.repeat(h, _TERMS - 1, axis=1)]), axis=1)
        for l in range(order):
            # v, and v' = sum_q q v_q h^q theta^(q-1) / h
            col = V[:, 1:] * _Q / h if l else V.copy()
            col[:, 0] = start[:, l]
            coef[: _TERMS - l, lo + l] = np.ldexp(col, E).T
        states[:-1, lo:] = coef[0, lo:].T
        states[-1, lo:] = np.ldexp(*end)
        if lo:
            # phi(s + theta h) - phi(s) = sum_q v_q h^(q+1) theta^(q+1) / (q + 1),
            # summed at theta = 1 as Trajectory does, so phi is continuous
            coef[1:, 0] = np.ldexp((V * h) / _Q1, E).T
            inc = np.cumsum(coef[:0:-1, 0], axis=0)[-1]
            states[:, 0] = np.cumsum(np.concatenate(([phi0], inc)))
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
