"""Dormand-Prince 5(4) integration of affine fields, with dense output.

The solver pipeline needs tight tolerances (the normalization at infinity
reads off a first derivative that decays like a power of u) and continuous
access to the computed solution (the capital-stock quadrature integrates
against it), so the integrator keeps the standard quartic interpolant of the
Dormand-Prince pair for every step.

Every field the package integrates is affine in the state, y' = M(u) y +
g(u), and the two singular equations are linear (g = 0).  One
Dormand-Prince step is then an affine map y_{k+1} = P_k y_k + q_k, and its
embedded error estimate and dense-output vector are affine in y_k too; none
of these maps depends on the state (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.6).  ``integrate`` forms them for blocks of up to
``_BLOCK`` steps at once in numpy, and takes a block's states from the
prefix products of its step maps, also in numpy, so no Python code runs
per step.  A field's ``rhs(u, y)`` is
therefore called on arrays: ``u`` is a float or a 1-D array of abscissae,
``y`` a sequence of ``dimension`` components that broadcast against ``u``,
and it returns ``dimension`` components, each broadcast from ``u`` and the
state.  M(u) and g(u) come from one call on the unit states and the zero
state, stacked along a leading axis.

The mesh is chosen in rounds, not by a step-size controller:

1. a pilot mesh whose steps keep h * rho(M(u)) <= 3, rho the spectral
   radius of the field matrix on a log-spaced grid of the span, so that
   every step is stable;
2. one equidistribution: the pilot's error estimates, scaled by
   err_k^(-1/5), give a step density whose integral places the new mesh;
3. splitting of any step that still fails, until every step passes.

A step is accepted when the RMS of its embedded error against ``atol +
rtol * max(|y_k|, |y_{k+1}|)`` is at most one.

Also defined here are the three vector fields used by the package: the
third-order equation satisfied by the survival probability in the main
regime, the second-order equation for the capital-stock auxiliary function,
and the one-dimensional companion equation that reproduces the exponential
Volterra convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .model import ModelParams

__all__ = [
    "OdeSystem", "Trajectory", "integrate",
    "main_ode_field", "companion_volterra_field", "eta_ode_field",
]

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2); stages 6 and 7 sit at u + h, the seventh at the fifth-order
# solution.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9])
_A = [
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense-output weights of the quartic interpolant
_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# steps per block of the batched build; bounds its temporaries
_BLOCK = 256
# pilot mesh: h * rho(M) <= _STABLE on a grid of _GRID offsets, log-spaced
# from _GRID_MIN of the span
_STABLE = 3.0
_GRID = 241
_GRID_MIN = 1e-12
# equidistribution aims every step at this error; a failing step is cut
# into at most _MAX_SPLIT parts per round
_TARGET = 0.8
_MAX_SPLIT = 10
# relative mismatch of rhs(u, y) and M(u) y + g(u) that marks a field as not affine
_AFFINE_TOL = 1e-9


@dataclass(frozen=True)
class OdeSystem:
    """An affine first-order system u -> d(state)/du.

    ``rhs(u, y)`` takes a float or 1-D array ``u`` and ``dimension`` state
    components that broadcast against it, and returns as many components,
    computed elementwise.
    """

    dimension: int
    rhs: Callable[[object, Sequence], Sequence]
    name: str = ""


@dataclass
class Trajectory:
    """Steps of one integration plus per-step dense output.

    ``us`` are the strictly increasing step endpoints, ``states`` the state
    vectors there, and ``cont[j]`` the j-th of the five interpolation vectors
    of every step, one column per step.
    Off-node queries evaluate the quartic interpolant, which matches the step
    endpoints exactly and carries the accuracy of the local error control.
    ``rounds`` counts the mesh passes and ``built`` the steps whose
    propagators were formed, over all passes.
    """

    us: np.ndarray
    states: np.ndarray
    cont: tuple[np.ndarray, ...]
    name: str = ""
    rounds: int = 0
    built: int = 0

    @property
    def u_start(self) -> float:
        return float(self.us[0])

    @property
    def u_end(self) -> float:
        return float(self.us[-1])

    def __call__(self, u):
        """The dense interpolant: a list of the state's components at a 0-d
        ``u`` (a float, an int, a numpy scalar or a 0-d array), one row per
        entry of an array ``u`` otherwise.

        A 0-d u takes the step's five interpolation vectors as Python floats
        and does the array path's arithmetic on them in the same order, so
        the two paths agree bit for bit."""
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
        rest = 1.0 - theta
        # r1 + theta*(r2 + rest*(r3 + theta*(r4 + rest*r5))) with r_j the
        # interpolation vectors, one gathered at a time, in place, with the
        # query along rows: no inner loop over the state's few components
        out = self.cont[4].take(idx, axis=1)
        out *= rest
        for j, w in ((3, theta), (2, rest), (1, theta)):
            out += self.cont[j].take(idx, axis=1)
            out *= w
        out += self.cont[0].take(idx, axis=1)
        # step endpoints must reproduce the states bit for bit
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
        rest = 1.0 - theta
        return [
            r1 + theta * (r2 + rest * (r3 + theta * (r4 + rest * r5)))
            for r1, r2, r3, r4, r5 in zip(*(c[:, k].tolist() for c in self.cont))
        ]


def _field_matrices(rhs, dim: int, u: np.ndarray) -> np.ndarray:
    """The field matrix at every abscissa of ``u``, from one ``rhs`` call on
    the unit states and the zero state: M(u) for a linear field (g = 0 at
    every abscissa), else [[M(u), g(u)], [0, 0]], which acts on (y, 1) and
    makes the affine field linear in one more component that stays 1.
    """
    n = dim + 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # component i of state j at row j: states broadcast against u
        f = rhs(u, np.eye(dim, n)[:, :, None])
    if len(f) != dim:
        raise ValueError(f"rhs returned {len(f)} components, expected {dim}")
    f = [np.broadcast_to(fi, (n, u.size)) for fi in f]  # state, abscissa
    if any(fi[dim].any() for fi in f):
        out = np.zeros((u.size, n, n))
        for i, fi in enumerate(f):
            out[:, i, :] = fi.T
            out[:, i, :dim] -= fi[dim, :, None]  # rhs(e_j) - rhs(0) = M e_j
    else:
        out = np.empty((u.size, dim, dim))
        for i, fi in enumerate(f):
            out[:, i, :] = fi[:dim].T
    if not np.isfinite(out).all():
        at = float(u[np.argmax(~np.isfinite(out).all(axis=(1, 2)))])
        raise IntegrationError(f"non-finite field at u={at:.6g}", u=at)
    return out


def _combine(weights: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_i weights[i] K[i], as one matrix-vector product."""
    return np.dot(weights, K[: weights.size].reshape(weights.size, -1)).reshape(K.shape[1:])


def _build(rhs, dim: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Matrices of the steps [lo_k, hi_k], in blocks of at most ``_BLOCK``.

    Returns W of shape (5, steps, dim, dim + 1): the first ``dim`` rows
    (the last row is zero) of the field matrices at lo_k and hi_k, of the
    increment S_k = P_k - I, of the embedded error E_k and of the
    dense-output matrix D_k, all acting on z_k = (y_k, 1).
    """
    W = np.zeros((5, lo.size, dim, dim + 1))  # a linear field leaves the last column 0
    for start in range(0, lo.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        left, right = lo[blk], hi[blk]
        h = right - left
        us = np.concatenate([left + c * h for c in _C] + [right])
        F = _field_matrices(rhs, dim, us)
        n = F.shape[-1]
        F = F.reshape(6, left.size, n, n)
        eye = np.eye(n)
        hh = h[:, None, None]
        K = np.empty((7, left.size, n, n))
        K[0] = F[0]
        for i in range(1, 6):
            Y = _combine(_A[i], K)
            Y *= hh
            Y += eye
            np.matmul(F[i], Y, out=K[i])
        S = _combine(_B, K)
        S *= hh
        np.matmul(F[5], S + eye, out=K[6])
        W[0, blk, :, :n] = F[0, :, :dim]
        W[1, blk, :, :n] = F[5, :, :dim]
        W[2, blk, :, :n] = S[:, :dim]
        W[3, blk, :, :n] = (_combine(_E, K) * hh)[:, :dim]
        W[4, blk, :, :n] = (_combine(_D, K) * hh)[:, :dim]
    return W


def _scan(S: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """States y_0, .., y_N from y_{k+1} = y_k + S_k (y_k, 1), as the prefix
    products of the step maps P_k = [[I + S_k], [0 .. 0 1]] applied to
    (y_0, 1): doubling P[k] <- P[k] P[k - d], d = 1, 2, 4, .., leaves
    P[k] = P_k .. P_0 (Hillis & Steele, Comm. ACM 29(12), 1986).  A blow-up
    leaves inf or nan rows."""
    n, dim = len(S), y0.size
    P = np.zeros((n, dim + 1, dim + 1))
    P[:, :dim] = S
    P += np.eye(dim + 1)
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while d < n:
            P[d:] = P[d:] @ P[:-d]
            d *= 2
        Y = P[:, :dim] @ np.append(y0, 1.0)
    return np.concatenate((y0[None], Y))


def _apply(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """M_k (y_k, 1) for every k."""
    return np.matmul(M[:, :, :-1], Y[:, :, None])[:, :, 0] + M[:, :, -1]


def _check_affine(rhs, us: np.ndarray, Y: np.ndarray, F: np.ndarray) -> None:
    """Refuse a field whose rhs at the nodes is not M(u) y + g(u)."""
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.stack([np.broadcast_to(fi, us.shape) for fi in rhs(us, Y.T)], axis=1)
        scale = _apply(np.abs(F), np.abs(Y))
        diff = np.abs(direct - _apply(F, Y))
        # values near underflow have lost their relative precision, and a
        # state near overflow may overflow in either form
        bad = (diff > _AFFINE_TOL * scale + _TINY) | (np.isnan(diff) & np.isfinite(scale))
    if bad.any():
        at = float(us[np.argmax(bad.any(axis=1))])
        raise ValueError(f"field is not affine in the state (checked at u={at:.6g})")


def _advance(rhs, x, fresh, W_kept, y0, rtol, atol):
    """One pass over mesh ``x``: build its ``fresh`` steps (all of them if
    ``W_kept`` is None; the others keep the matrices ``W_kept``, in order),
    scan the whole mesh from its first state ``y0``, and return (W, Y, err)
    with err the scaled RMS error of every step."""
    dim = y0.size
    if W_kept is None:
        W = _build(rhs, dim, x[:-1], x[1:])
    else:
        W = np.empty((5, x.size - 1, dim, dim + 1))
        W[:, fresh] = _build(rhs, dim, x[:-1][fresh], x[1:][fresh])
        W[:, ~fresh] = W_kept
    Y = _scan(W[2], y0)
    finite = np.isfinite(Y).all(axis=1)
    if not finite.all():
        # a field that is not affine is refused before its states are blamed
        k = int(np.argmin(finite))
        if k > 1:
            _check_affine(rhs, x[1:k], Y[1:k], W[1, : k - 1])
        raise IntegrationError(f"non-finite state at u={x[k]:.6g}", u=float(x[k - 1]))
    scale = atol + rtol * np.maximum(np.abs(Y[:-1]), np.abs(Y[1:]))
    err = np.sqrt(np.mean((_apply(W[3], Y[:-1]) / scale) ** 2, axis=1))
    return W, Y, err


def _pilot(rhs, dim: int, u0: float, u1: float, max_step: float, max_steps: int):
    """Pilot mesh with h * rho(M(u)) <= _STABLE and h <= max_step, and the
    step cap of each of its steps."""
    span = u1 - u0
    grid = u0 + span * np.concatenate(([0.0], _GRID_MIN ** np.linspace(1.0, 0.0, _GRID)))
    grid[-1] = u1
    grid = grid[np.concatenate(([True], np.diff(grid) > 0.0))]  # offsets below ulp(u0) coincide
    rho = np.abs(np.linalg.eigvals(_field_matrices(rhs, dim, grid))).max(axis=1)
    with np.errstate(divide="ignore"):
        cap = np.minimum(_STABLE / np.maximum(rho[:-1], rho[1:]), max_step)
    width = np.diff(grid)
    # a pilot step may exceed its cap by rounding only
    count = np.maximum(np.ceil(width / cap * (1.0 - 1e-12)), 1.0)
    total = np.cumsum(count)
    if not total[-1] <= max_steps:
        at = float(grid[np.argmax(~(total <= max_steps))])
        raise IntegrationError(f"step budget exhausted at u={at:.6g}", u=at)
    count = count.astype(np.int64)
    return _subdivide(grid, count), np.repeat(cap, count)


def _subdivide(x: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Mesh x with step k cut into ``parts[k]`` equal pieces."""
    k = np.repeat(np.arange(parts.size), parts)
    j = np.arange(k.size) - np.repeat(np.cumsum(parts) - parts, parts)
    out = np.empty(k.size + 1)
    out[:-1] = x[k] + (x[k + 1] - x[k]) * (j / parts[k])
    out[-1] = x[-1]
    return out


def _equidistribute(x: np.ndarray, err: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """New mesh whose steps would each have error _TARGET under err ~ h^5,
    and stay within the caps of the steps of ``x`` they cover."""
    h = np.diff(x)
    count = np.maximum(np.maximum((err / _TARGET) ** 0.2, h / cap), h / (x[-1] - x[0]))
    cum = np.concatenate(([0.0], np.cumsum(count)))
    n = max(1, math.ceil(cum[-1] * (1.0 - 1e-12)))
    out = np.interp(np.linspace(0.0, cum[-1], n + 1), cum, x)
    out[0], out[-1] = x[0], x[-1]
    return out


def _check_mesh(x: np.ndarray, before: int, max_steps: int) -> None:
    """Refuse mesh x, which follows ``before`` other steps, if the steps
    run past ``max_steps`` or one of them underflows."""
    if before + x.size - 1 > max_steps:
        at = float(x[max(max_steps - before, 0)])
        raise IntegrationError(f"step budget exhausted at u={at:.6g}", u=at)
    tiny = np.diff(x) <= 16.0 * _EPS * np.maximum(np.abs(x[:-1]), 1e-30)
    if tiny.any():
        at = float(x[np.argmax(tiny)])
        raise IntegrationError(f"step size underflow at u={at:.6g}", u=at)


def integrate(
    sys: OdeSystem,
    u_start: float,
    state0,
    u_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = math.inf,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the affine field ``sys`` forward from ``u_start`` to ``u_end > u_start``.

    Meshes in rounds (see the module docstring) until every step passes
    the error test; steps are at most ``max_step`` long, to rounding.
    Raises :class:`IntegrationError`, with the abscissa of the failure, on
    a non-finite field or state, step-size underflow, or more than
    ``max_steps`` steps; raises ``ValueError`` for a field that is not
    affine in the state.
    """
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be positive and finite, got {rtol!r}, {atol!r}")
    dim = sys.dimension
    state = np.asarray(state0, dtype=float)
    if state.shape != (dim,):
        raise ValueError(f"state0 must have shape ({dim},), got {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError(f"state0 must be finite, got {state}")
    u0, u1 = float(u_start), float(u_end)
    if not u1 > u0:
        raise ValueError(f"integration span must be increasing, got [{u0:g}, {u1:g}]")
    rhs = sys.rhs

    # round 1: the pilot, for its error estimates only
    x, cap = _pilot(rhs, dim, u0, u1, max_step, max_steps)
    errs, y = [], state
    for lo in range(0, x.size - 1, _BLOCK):
        _, Y, err = _advance(rhs, x[lo: lo + _BLOCK + 1], None, None, y, rtol, atol)
        errs.append(err)
        y = Y[-1]
    built = x.size - 1

    # round 2: the equidistributed mesh, block by block; a block's failing
    # steps are split and it is passed again from its first state
    x = _equidistribute(x, np.concatenate(errs), cap)
    _check_mesh(x, 0, max_steps)
    n_steps = x.size - 1  # steps of the final mesh, splits included
    us, states, cont, y = [x[:1]], [state[None]], [], state
    splits = 0
    for lo in range(0, x.size - 1, _BLOCK):
        xb = x[lo: lo + _BLOCK + 1]
        W, Y, err = _advance(rhs, xb, None, None, y, rtol, atol)
        built += xb.size - 1
        passes = 0
        while (failed := ~(err <= 1.0)).any():
            parts = np.where(
                failed, np.clip(np.ceil((err / _TARGET) ** 0.2), 2, _MAX_SPLIT), 1
            ).astype(np.int64)
            n_steps += int(parts.sum()) - parts.size
            xb = _subdivide(xb, parts)
            _check_mesh(xb, n_steps - (xb.size - 1), max_steps)
            fresh = np.repeat(failed, parts)
            built += int(fresh.sum())
            W, Y, err = _advance(rhs, xb, fresh, W[:, ~failed], y, rtol, atol)
            passes += 1
        splits = max(splits, passes)
        _check_affine(rhs, xb[1:], Y[1:], W[1])
        h = np.diff(xb)[:, None]
        f_lo, f_hi = _apply(W[0], Y[:-1]), _apply(W[1], Y[1:])
        dy = Y[1:] - Y[:-1]
        b = h * f_lo - dy
        cont.append((Y[:-1], dy, b, dy - h * f_hi - b, _apply(W[4], Y[:-1])))
        us.append(xb[1:])
        states.append(Y[1:])
        y = Y[-1]

    return Trajectory(
        us=np.concatenate(us),
        states=np.concatenate(states),
        cont=tuple(np.concatenate(c).T.copy() for c in zip(*cont)),  # one column per step
        name=sys.name,
        rounds=2 + splits,
        built=built,
    )


def main_ode_field(params: ModelParams) -> OdeSystem:
    """Third-order field for the main regime, state (phi, phi', phi'').

    (b^2/2) u^2 phi''' + [c + (b^2+a) u + b^2 u^2/(2m)] phi''
                       + [a - lam + c/m + a u/m] phi' = 0,  u > 0.

    The leading coefficient vanishes at u = 0, so evaluation there is
    rejected; initial data must be transferred to some u0 > 0 first.
    """
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    b2 = b * b

    def rhs(u, y):
        if np.min(u) <= 0.0:
            raise ValueError(f"main ODE field is singular at u={np.min(u):g}; need u > 0")
        coeff2 = c + (b2 + a) * u + b2 * u * u / (2.0 * m)
        coeff1 = a - lam + c / m + a * u / m
        return y[1], y[2], -(coeff2 * y[2] + coeff1 * y[1]) / (0.5 * b2 * u * u)

    return OdeSystem(dimension=3, rhs=rhs, name="main-phi")


def companion_volterra_field(params: ModelParams, phi_interp) -> OdeSystem:
    """y' = (phi(u) - y) / m, which reproduces the exponential convolution.

    With y(0) = 0 the solution equals (1/m) * int_0^u phi(s) exp(-(u-s)/m) ds,
    so this field turns the integral term of the survival equation into one
    extra ODE component.  ``phi_interp`` maps an array of u to phi(u);
    queries outside its span propagate that interpolant's error.
    """
    m = params.m

    def rhs(u, y):
        return ((phi_interp(u) - y[0]) / m,)

    return OdeSystem(dimension=1, rhs=rhs, name="volterra-companion")


def eta_ode_field(params: ModelParams) -> OdeSystem:
    """Second-order field for the capital-stock auxiliary function eta.

    u^2 eta'' + (2 d1 + u/m) u eta' + (d2 u / m) eta = 0, u > 0, with the
    exponents d1, d2 derived from ``params``.  State is (eta, eta').
    """
    from .capitalstock import exponents  # local import, avoids module cycle

    _, d1, d2 = exponents(params)
    m = params.m

    def rhs(u, y):
        if np.min(u) <= 0.0:
            raise ValueError(f"eta field is singular at u={np.min(u):g}; need u > 0")
        return y[1], -((2.0 * d1 + u / m) * u * y[1] + (d2 * u / m) * y[0]) / (u * u)

    return OdeSystem(dimension=2, rhs=rhs, name="capital-stock-eta")
