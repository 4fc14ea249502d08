"""Adaptive Dormand-Prince 5(4) integration with dense output.

The solver pipeline needs tight tolerances (the normalization at infinity
reads off a first derivative that decays like a power of u) and continuous
access to the computed solution (the Volterra residual check integrates
against it), so the integrator keeps the standard quartic interpolant of the
Dormand-Prince pair for every accepted step.

The states have one to three components, where a numpy call costs more than
its arithmetic, so a step runs on Python floats with scalar tableau constants
and fills flat ``array('d')`` buffers, turned into arrays once at the end.
A field's ``rhs(u, y)`` therefore takes the state as a sequence of floats and
returns a tuple of floats, one per component.

Also defined here are the three vector fields used by the package: the
third-order equation satisfied by the survival probability in the main
regime, the second-order equation for the capital-stock auxiliary function,
and the one-dimensional companion equation that reproduces the exponential
Volterra convolution.
"""

from __future__ import annotations

import math
from array import array
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
# Table II.5.2); the seventh stage is evaluated at the fifth-order solution.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
# dense-output weights of the quartic interpolant
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - _BETA * 0.75
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OdeSystem:
    """A first-order system u -> d(state)/du: ``rhs(u, y)`` takes the state as
    a sequence of ``dimension`` floats and returns a tuple of as many."""

    dimension: int
    rhs: Callable[[float, Sequence[float]], tuple[float, ...]]
    name: str = ""


@dataclass
class Trajectory:
    """Accepted steps of one integration plus per-step dense output.

    ``us`` are the strictly increasing step endpoints, ``states`` the accepted
    state vectors, and ``cont[i]`` the five interpolation vectors of step i.
    Off-node queries evaluate the quartic interpolant, which matches the step
    endpoints exactly and carries the accuracy of the local error control.
    """

    us: np.ndarray
    states: np.ndarray
    cont: np.ndarray
    name: str = ""

    @property
    def u_start(self) -> float:
        return float(self.us[0])

    @property
    def u_end(self) -> float:
        return float(self.us[-1])

    def __call__(self, u):
        """Evaluate the dense interpolant at scalar or array ``u``."""
        scalar = np.isscalar(u) or np.asarray(u).ndim == 0
        uq = np.atleast_1d(np.asarray(u, dtype=float))
        lo, hi = self.u_start, self.u_end
        slack = 1e-9 * max(hi - lo, abs(hi), 1.0)
        if np.any(uq < lo - slack) or np.any(uq > hi + slack):
            raise ValueError(f"query outside trajectory span [{lo:g}, {hi:g}]")
        idx = np.clip(np.searchsorted(self.us, uq, side="right") - 1, 0, len(self.us) - 2)
        h = self.us[idx + 1] - self.us[idx]
        theta = np.clip((uq - self.us[idx]) / h, 0.0, 1.0)[:, None]
        r1, r2, r3, r4, r5 = (self.cont[idx, j, :] for j in range(5))
        out = r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))
        # step endpoints must reproduce the accepted states bit for bit
        at_end = uq == self.us[-1]
        if np.any(at_end):
            out[at_end] = self.states[-1]
        return out[0] if scalar else out


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v) / len(v))


def _initial_step(rhs, u0, y0, f0, rtol, atol, span):
    scale = [atol + rtol * abs(y) for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = [y + h0 * f for y, f in zip(y0, f0)]
    f1 = rhs(u0 + h0, y1)
    d2 = _rms([(g - f) / s for g, f, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


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
    """Integrate ``sys`` forward from ``u_start`` to ``u_end > u_start`` adaptively.

    Embedded 5(4) pair with PI step control; a step is accepted when the
    RMS of the local error against ``atol + rtol * |state|`` is at most one.
    Raises :class:`IntegrationError` on step-size underflow or non-finite
    state, reporting the abscissa of the failure.
    """
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be positive and finite, got {rtol!r}, {atol!r}")
    dim = sys.dimension
    state = np.asarray(state0, dtype=float)
    if state.shape != (dim,):
        raise ValueError(f"state0 must have shape ({dim},), got {state.shape}")
    y = state.tolist()
    u = float(u_start)
    u_final = float(u_end)
    if not u_final > u:
        raise ValueError(f"integration span must be increasing, got [{u:g}, {u_final:g}]")
    span = u_final - u

    rhs = sys.rhs
    f = rhs(u, y)
    if len(f) != dim:
        raise ValueError(f"rhs returned {len(f)} components, expected {dim}")
    h = min(_initial_step(rhs, u, y, f, rtol, atol, span), max_step)

    # per step: one node, one state, five interpolation coefficients per component
    us = array("d", (u,))
    states = array("d", y)
    cont = array("d")
    facold = 1e-4
    was_rejected = False

    for _ in range(max_steps):
        remaining = u_final - u
        if remaining <= 16.0 * _EPS * max(abs(u), abs(u_final), 1e-30):
            break
        h = min(h, max_step)
        if h <= 16.0 * _EPS * max(abs(u), 1e-30):
            raise IntegrationError(f"step size underflow at u={u:.6g}", u=u)
        last = h >= remaining
        if last:
            h = remaining

        k1 = f
        k2 = rhs(u + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
        k3 = rhs(u + _C3 * h, [v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)])
        k4 = rhs(u + _C4 * h, [
            v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)
        ])
        k5 = rhs(u + _C5 * h, [
            v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        ])
        k6 = rhs(u + h, [
            v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ])
        y_new = [
            v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
            for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
        ]
        if not all(map(math.isfinite, y_new)):
            raise IntegrationError(f"non-finite state at u={u + h:.6g}", u=u)
        k7 = rhs(u + h, y_new)

        err = 0.0
        coeffs = []  # the step's interpolation coefficients, kept if it is accepted
        for v, w, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            q = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
            q /= atol + rtol * max(abs(v), abs(w))
            err += q * q
            dy = w - v
            b = h * a - dy
            dense = h * (_D1 * a + _D3 * c + _D4 * d + _D5 * e + _D6 * g + _D7 * k)
            coeffs += (v, dy, b, dy - h * k - b, dense)
        err = math.sqrt(err / dim)

        if err <= 1.0:
            u_new = u_final if last else u + h
            cont.extend(coeffs)
            us.append(u_new)
            states.extend(y_new)
            f = k7  # FSAL
            u, y = u_new, y_new

            fac11 = err**_EXPO if err > 0.0 else 0.0
            fac = fac11 / facold**_BETA if err > 0.0 else 1.0 / _FAC_MAX
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
            h_new = h / fac
            if was_rejected:
                h_new = min(h_new, h)
            was_rejected = False
            facold = max(err, 1e-4)
            h = h_new
        else:
            h = h / min(1.0 / _FAC_MIN, err**_EXPO / _SAFETY)
            was_rejected = True
    else:
        raise IntegrationError(f"step budget exhausted at u={u:.6g}", u=u)

    return Trajectory(
        us=np.frombuffer(us),
        states=np.frombuffer(states).reshape(-1, dim),
        cont=np.frombuffer(cont).reshape(-1, dim, 5).transpose(0, 2, 1),
        name=sys.name,
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

    def rhs(u: float, y) -> tuple[float, float, float]:
        if u <= 0.0:
            raise ValueError(f"main ODE field is singular at u={u:g}; need u > 0")
        coeff2 = c + (b2 + a) * u + b2 * u * u / (2.0 * m)
        coeff1 = a - lam + c / m + a * u / m
        return y[1], y[2], -(coeff2 * y[2] + coeff1 * y[1]) / (0.5 * b2 * u * u)

    return OdeSystem(dimension=3, rhs=rhs, name="main-phi")


def companion_volterra_field(params: ModelParams, phi_interp) -> OdeSystem:
    """y' = (phi(u) - y) / m, which reproduces the exponential convolution.

    With y(0) = 0 the solution equals (1/m) * int_0^u phi(s) exp(-(u-s)/m) ds,
    so this field turns the integral term of the survival equation into one
    extra ODE component.  ``phi_interp`` maps u to phi(u); queries outside its
    span propagate that interpolant's error.
    """
    m = params.m

    def rhs(u: float, y) -> tuple[float]:
        return ((float(phi_interp(u)) - y[0]) / m,)

    return OdeSystem(dimension=1, rhs=rhs, name="volterra-companion")


def eta_ode_field(params: ModelParams) -> OdeSystem:
    """Second-order field for the capital-stock auxiliary function eta.

    u^2 eta'' + (2 d1 + u/m) u eta' + (d2 u / m) eta = 0, u > 0, with the
    exponents d1, d2 derived from ``params``.  State is (eta, eta').
    """
    from .capitalstock import exponents  # local import, avoids module cycle

    _, d1, d2 = exponents(params)
    m = params.m

    def rhs(u: float, y) -> tuple[float, float]:
        if u <= 0.0:
            raise ValueError(f"eta field is singular at u={u:g}; need u > 0")
        return y[1], -((2.0 * d1 + u / m) * u * y[1] + (d2 * u / m) * y[0]) / (u * u)

    return OdeSystem(dimension=2, rhs=rhs, name="capital-stock-eta")
