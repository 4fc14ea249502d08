"""A calibration kernel that tells how fast the host runs, sampled all along.

A shared host changes speed in phases of a few seconds: the same call can
take twice as long from one second to the next, while the process is never
descheduled (CPU time equals wall time).  Inside ``sampling()`` a timer
signal runs the kernel every ``INTERVAL_S`` seconds, in the middle of
whatever ``ruinlab`` call is running.  ``clock()`` leaves the kernel's own
time out, and ``scale(start, end)`` gives ``NOMINAL_S`` over the mean kernel
time of the samples taken around that interval.  A time multiplied by it
reads as if the host had run at the speed at which the kernel takes
``NOMINAL_S`` throughout.

The kernel does the kinds of work ``ruinlab`` does, in about equal parts:
an embedded Runge-Kutta loop over a three-element numpy state, vector
arithmetic and random draws on 2,048-element arrays, and scalar Python
arithmetic.  It never imports ``ruinlab``, so a change to the program
cannot change the kernel's time.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# kernel seconds that a scaled time refers to: about the kernel's median
# (0.0100 s over 1,222 samples) on a shared 2-core x86-64 virtual machine
# with Python 3.11 and numpy 2.4
NOMINAL_S = 0.010
INTERVAL_S = 0.25
SETUP_SAMPLES = 5

_RK_STEPS = 60
_VECTOR_STEPS = 25
_SCALAR_STEPS = 20_000
_VECTOR_SIZE = 2048
_A = np.tril(np.full((7, 7), 1.0 / 7.0), -1)
_B = np.full(7, 1.0 / 7.0)
_M = np.array([[-0.5, 0.2, 0.0], [0.1, -0.3, 0.05], [0.0, 0.02, -0.1]])

_samples: list[tuple[float, float]] = []  # (perf_counter at start, kernel seconds)
_paused_s = 0.0  # kernel seconds spent inside the timer signal so far


def _rk() -> float:
    y = np.array([1.0, 0.5, 0.25])
    k = np.empty((7, 3))
    h = 1e-3
    for _ in range(_RK_STEPS):
        k[0] = _M @ y
        for i in range(1, 7):
            k[i] = _M @ (y + h * (k[:i].T @ _A[i, :i]))
        y = y + h * (k.T @ _B)
        if not np.all(np.isfinite(y)):
            break
    return float(y[0])


def _vector() -> float:
    rng = np.random.default_rng(12345)
    x = np.ones(_VECTOR_SIZE)
    alive = np.ones(_VECTOR_SIZE, dtype=bool)
    for _ in range(_VECTOR_STEPS):
        noise = rng.standard_normal(_VECTOR_SIZE)
        hit = rng.random(_VECTOR_SIZE) < 0.01
        x = x + 0.001 * x + 0.03 * x * noise
        x[hit] -= 0.5
        alive &= x >= 0.0
        x[~alive] = 0.0
    return float(x.sum())


def _scalar() -> float:
    s, t = 0.0, 1.0
    for i in range(_SCALAR_STEPS):
        t = 0.5 * t + 1.0 / (i + 1.0)
        s += t if t < 2.0 else -t
    return s


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _rk()
    _vector()
    _scalar()
    return time.perf_counter() - t0


def speed_now() -> float:
    """``NOMINAL_S`` over the mean of a few kernel runs, after one that
    warms numpy's caches."""
    kernel_seconds()
    return NOMINAL_S / statistics.fmean(kernel_seconds() for _ in range(SETUP_SAMPLES))


def clock() -> float:
    """``time.perf_counter`` without the time the sampled kernel took."""
    return time.perf_counter() - _paused_s


def _tick(signum, frame) -> None:
    global _paused_s
    t0 = time.perf_counter()
    seconds = kernel_seconds()
    _samples.append((t0, seconds))
    _paused_s += time.perf_counter() - t0


@contextlib.contextmanager
def sampling():
    """Run the kernel on a timer signal every ``INTERVAL_S`` seconds."""
    previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def scale(start: float, end: float) -> float:
    """``NOMINAL_S`` over the mean kernel time of the samples started from
    one interval before ``start`` to one after ``end`` (``perf_counter``
    readings); the nearest sample when none is that close."""
    if not _samples:
        return speed_now()
    starts = [s for s, _ in _samples]
    lo = bisect.bisect_left(starts, start - INTERVAL_S)
    hi = bisect.bisect_right(starts, end + INTERVAL_S)
    if lo == hi:
        near = min(_samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
        return NOMINAL_S / near[1]
    return NOMINAL_S / statistics.fmean(seconds for _, seconds in _samples[lo:hi])


def summary() -> str:
    """The samples taken so far, for people."""
    seconds = [k for _, k in _samples]
    median = statistics.median(seconds) if seconds else float("nan")
    return f"{len(seconds)} samples, median {median:.4f} s, nominal {NOMINAL_S:g} s"
