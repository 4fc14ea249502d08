"""Independent oracles: residual checking, Monte Carlo, tail estimation.

None of these reuse the solver's algebra.  The residual check rebuilds the
integral term of the survival equation from the solution's values alone:
Gauss-Kronrod quadrature over pieces of [0, u], joined by the exact
recursion of the exponential convolution.  Monte Carlo simulates the
surplus process directly, with claims as events; for b > 0 it steps the
diffusion with the exact geometric Brownian factor, in antithetic pairs of
paths, carrying the surplus shifted by half a step's premium so that a step
without claims is one multiply-add, and checks ruin at the claim instants.
Survival is nondecreasing in every Brownian increment, so partners are not
positively correlated and the reported standard error sqrt(p (1 - p) / n) is
an upper bound.  Each block of paths draws from its own SFC64 substream; for
b > 0 the block's step normals come from a second substream spawned from
it, which a helper thread draws ahead, where a second CPU is free for it,
while the calling thread steps the paths and draws the claims.  The estimate depends on the seed alone, not on
how the draws are batched or timed.  The tail estimator fits the large-u
power law from samples.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError
from .model import ModelParams, Regime
# perfbench/tracer.py patches integrate and companion_volterra_field here
from .odes import companion_volterra_field, integrate  # noqa: F401
from .solution import SolutionGrid, check_count, check_tolerances

__all__ = [
    "ResidualReport",
    "McEstimate",
    "TailEstimate",
    "ide_residual",
    "mc_survival",
    "tail_exponent",
]

_BLOCK = 16384
# doubles per array of one Monte Carlo time chunk (steps x live lanes), and
# expected claims per window of chunks; both keep the arrays within cache,
# while a chunk of many steps pays its fixed numpy calls less often
_CHUNK = 2**15
_CLAIMS = 2**9
# the b > 0 step normals are drawn ahead on a helper thread, _FILL at a time,
# into a ring of _DEPTH reused buffers (3 x 256 KiB); a fill is two chunks'
# normals, and three buffers let one be read while the next is drawn
_FILL = 2**15
_DEPTH = 3
# residual quadrature: the 15-point Gauss-Kronrod rule and its embedded
# 7-point Gauss rule on [-1, 1] (QUADPACK qk15); pieces at most _PIECE * m
# long; at most _MAX_DEPTH bisections of one piece and _MAX_SPLITS in all;
# at most _BATCH pieces per evaluate call
_K15_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_K15_HALF_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_K15_X = np.concatenate((-_K15_HALF[:-1], _K15_HALF[::-1]))
_K15_W = np.concatenate((_K15_HALF_W[:-1], _K15_HALF_W[::-1]))
_G7_HALF_W = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_G7_W = np.zeros(15)
_G7_W[1::2] = np.concatenate((_G7_HALF_W, _G7_HALF_W[-2::-1]))  # at the odd Kronrod nodes
_PIECE = 0.5
_MAX_DEPTH = 40
_MAX_SPLITS = 4096
_BATCH = 512


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


def _gk_pieces(solution: SolutionGrid, pieces: np.ndarray, extra: np.ndarray, m: float):
    """Kronrod and Gauss sums of (1/m) int_l^r phi(s) e^(-(r-s)/m) ds for
    each row (l, r) of ``pieces``, and (phi, phi', phi'') at ``extra``, from
    one array evaluation."""
    lo, hi = pieces[:, :1], pieces[:, 1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * _K15_X
    vals = solution.evaluate(np.concatenate((extra, nodes.ravel())))
    k = extra.size
    f = vals[0][k:].reshape(nodes.shape) * np.exp(-(hi - nodes) / m)
    scale = half[:, 0] / m
    return scale * (f @ _K15_W), scale * (f @ _G7_W), tuple(v[:k] for v in vals)


def _convolution(solution: SolutionGrid, uq: np.ndarray, m: float, rtol: float, atol: float):
    """y(u) = (1/m) int_0^u phi(s) e^(-(u-s)/m) ds at the sorted points ``uq``,
    and (phi, phi', phi'') there, by the exact recursion over pieces."""
    top = float(uq[-1])
    # graded toward 0, where phi ~ u^p: a piece [l, 2l] keeps the branch
    # point one piece length away; beyond _PIECE * m, pieces of that length
    floor = atol * m
    grade = floor * 2.0 ** np.arange(int(math.ceil(math.log2(_PIECE * m / floor))) + 1)
    knots = np.sort(np.concatenate(([0.0], uq, grade[grade < top])))
    knots = knots[np.append(True, knots[1:] > knots[:-1])]  # np.unique imports numpy.ma
    width = np.diff(knots)
    split = np.maximum(np.ceil(width / (_PIECE * m)), 1.0).astype(np.intp)
    first = np.repeat(np.cumsum(split) - split, split)
    step = np.arange(first.size) - first
    edges = np.append(np.repeat(knots[:-1], split) + step * np.repeat(width / split, split), top)
    # rows (l, r, bisections so far); each evaluate call takes one batch
    queue = np.column_stack((edges[:-1], edges[1:], np.zeros(edges.size - 1)))
    done_pieces, done_vals = [], []
    grid_vals = None
    splits = 0
    while grid_vals is None or queue.size:
        batch, queue = queue[:_BATCH], queue[_BATCH:]
        extra = uq if grid_vals is None else uq[:0]  # the grid rides with the first batch
        fine, coarse, vals = _gk_pieces(solution, batch[:, :2], extra, m)
        grid_vals = vals if grid_vals is None else grid_vals
        ok = np.abs(fine - coarse) <= atol + rtol * np.abs(fine)
        done_pieces.append(batch[ok, :2])
        done_vals.append(fine[ok])
        bad = batch[~ok]
        if bad.size == 0:
            continue
        splits += len(bad)
        if splits > _MAX_SPLITS or bad[:, 2].max() >= _MAX_DEPTH:
            u = float(bad[np.argmax(bad[:, 2]), 0])
            raise IntegrationError(
                f"residual quadrature misses rtol={rtol:g}, atol={atol:g} at u={u:.6g}", u=u
            )
        mid = 0.5 * (bad[:, 0] + bad[:, 1])
        depth = bad[:, 2] + 1.0
        queue = np.concatenate((
            queue,
            np.column_stack((bad[:, 0], mid, depth)),
            np.column_stack((mid, bad[:, 1], depth)),
        ))
    pieces = np.concatenate(done_pieces)
    order = np.argsort(pieces[:, 0])
    right = pieces[order, 1]
    decay = np.exp(-(right - pieces[order, 0]) / m).tolist()
    parts = np.concatenate(done_vals)[order].tolist()
    y = [0.0]
    for d, v in zip(decay, parts):
        y.append(d * y[-1] + v)
    knots = np.concatenate(([0.0], right))
    return np.array(y)[np.searchsorted(knots, uq)], grid_vals


def ide_residual(
    solution: SolutionGrid,
    params: ModelParams,
    grid,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> ResidualReport:
    """Residual r(u) = (b^2/2) u^2 phi'' + (a u + c) phi' - lam phi + lam y.

    y(u) = (1/m) int_0^u phi(s) e^(-(u-s)/m) ds is the convolution term.  It
    is rebuilt from the solution's values alone by the exact recursion
    y(r) = e^(-(r-l)/m) y(l) + (1/m) int_l^r phi(s) e^(-(r-s)/m) ds over
    pieces [l, r] from 0 to the last grid point; the recursion starts at 0
    whatever the grid's first point.  Pieces end at every grid point, are
    at most m/2 long, and are graded geometrically toward 0 (each [l, 2l],
    down to atol * m), where phi may behave like u^p.

    Each piece's integral takes the 15-point Gauss-Kronrod value once it
    agrees with the embedded 7-point Gauss value within
    ``atol + rtol * |piece|``; a piece that misses is bisected.  So ``rtol``
    bounds the relative error of every piece, and with it of y, and
    ``atol`` the absolute error of every piece.  :class:`IntegrationError`
    is raised when one piece needs more than 40 bisections or all pieces
    more than 4,096.  The grid and the nodes of up to 512 pieces go through
    one array ``evaluate`` call, so a grid of a few hundred points costs one
    call; the one scalar call is at u = 0, where the equation holds as a
    limit.

    The report scales the sup norm by lam so tolerances are comparable
    across parameter sets.
    """
    check_tolerances(rtol=rtol, atol=atol)
    uq = np.sort(np.asarray(grid, dtype=float))
    if uq.ndim != 1 or uq.size == 0:
        raise ValueError(f"grid must be a non-empty 1-D array, got shape {uq.shape}")
    # written so that NaN, which sorts last, and inf fail too, as in
    # SolutionGrid.evaluate
    lo, hi = solution.span
    if not (lo <= uq[0] and uq[-1] <= hi and math.isfinite(uq[-1])):
        raise ValueError(
            f"grid [{uq[0]:g}, {uq[-1]:g}] exceeds solution span {solution.span} "
            "or is not finite"
        )
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    y, (phi, dphi, ddphi) = _convolution(solution, uq, m, rtol, atol)
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
    """Event-driven paths for b = 0: exact surplus updates between claims.

    Each round draws one gap and one claim size for every running lane, one
    that is neither ruined nor past T, and drops the lanes that stop."""
    a, c, lam, m = params.a, params.c, params.lam, params.m
    X = np.full(size, float(u))
    t = np.zeros(size)
    survivors = 0
    with np.errstate(over="ignore"):
        while X.size:
            gaps = rng.exponential(1.0 / lam, X.size)
            sizes = rng.exponential(m, X.size)
            if a > 0.0:
                growth = np.exp(a * gaps)
                X = X * growth + (c / a) * (growth - 1.0) - sizes
            else:
                X = X + c * gaps - sizes
            t += gaps
            # a claim after T does not happen
            ruined = (t <= T) & (X < 0.0)
            running = (t < T) & ~ruined
            survivors += int(np.count_nonzero(~ruined & ~running))
            X, t = X[running], t[running]
    return survivors


def _claim_window(params, h, nxt, t0, W, rng):
    """Claims of the W steps from t0 as events, folded into their steps.

    ``nxt`` holds each lane's next claim instant and is advanced past the
    window by exponential inter-arrival times.  The log-factor of a step with
    claims is drawn here, and the step splits at each claim instant on a
    Brownian bridge of it.  Returns None without claims, else two tuples,
    each sorted by step: the step, lane and (alpha, beta) of every claim,
    such that the surplus just after the claim is alpha * X + beta for the
    surplus X at the step's start; and the step, lane, factor g and additive
    term A of every step with claims, over which X -> g X + A exactly
    composes the premium pieces and the claims.
    """
    a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
    t_end = t0 + W * h
    lanes, times = [], []
    idx = np.flatnonzero(nxt < t_end)
    while idx.size:
        lanes.append(idx)
        times.append(nxt[idx])
        nxt[idx] += rng.exponential(1.0 / lam, idx.size)
        idx = idx[nxt[idx] < t_end]
    if not lanes:
        return None
    lane = np.concatenate(lanes)
    order = np.argsort(lane, kind="stable")  # by lane, then in time
    lane = lane[order]
    t = np.concatenate(times)[order] - t0
    k = np.minimum((t / h).astype(np.intp), W - 1)
    off = np.clip(t - k * h, 0.0, h)
    size = rng.exponential(m, lane.size)

    # one group per (step, lane); rank orders the claims inside a group
    first = np.ones(lane.size, dtype=bool)
    first[1:] = (lane[1:] != lane[:-1]) | (k[1:] != k[:-1])
    gid = np.cumsum(first) - 1
    rank = np.arange(lane.size) - np.flatnonzero(first)[gid]
    gk, glane = k[first], lane[first]
    l_end = (a - 0.5 * b * b) * h + b * math.sqrt(h) * rng.standard_normal(gk.size)
    s = np.zeros(gk.size)  # time of the group's last bridge point in the step
    ls = np.zeros(gk.size)  # log-factor from the step's start to s
    alpha = np.ones(gk.size)
    beta = np.zeros(gk.size)
    c_alpha = np.empty(lane.size)
    c_beta = np.empty(lane.size)
    for r in range(int(rank.max()) + 1):
        sel = np.flatnonzero(rank == r)
        g = gid[sel]
        seg = off[sel] - s[g]
        w = seg / np.maximum(h - s[g], 1e-300)
        # Brownian bridge from (s, ls) to (h, l_end) at the claim instant
        lnew = ls[g] + w * (l_end[g] - ls[g])
        lnew += b * np.sqrt(seg * (1.0 - w)) * rng.standard_normal(sel.size)
        f = np.exp(lnew - ls[g])
        alpha[g] *= f
        beta[g] = beta[g] * f + 0.5 * c * seg * (1.0 + f) - size[sel]
        c_alpha[sel] = alpha[g]
        c_beta[sel] = beta[g]
        s[g] = off[sel]
        ls[g] = lnew
    f = np.exp(l_end - ls)
    fold = beta * f + 0.5 * c * (h - s) * (1.0 + f)
    by_k = np.argsort(k, kind="stable")
    by_gk = np.argsort(gk, kind="stable")
    return (
        (k[by_k], lane[by_k], c_alpha[by_k], c_beta[by_k]),
        (gk[by_gk], glane[by_gk], np.exp(l_end[by_gk]), fold[by_gk]),
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class _NormalRing:
    """The first ``need`` standard normals of ``gen``, drawn ahead on a thread.

    A helper thread draws them in order, at most _FILL at a time, into a ring
    of _DEPTH reused buffers, and :meth:`read` hands them on in the same
    order; so what is read depends on ``gen`` alone, not on the fill size,
    the depth or the threads' timing.  Only the helper thread uses ``gen``,
    and the draw releases the interpreter lock, so it runs beside the
    reader's work on another core.  An error in a fill is raised again by
    :meth:`read`.  Leaving the ``with`` block stops and joins the thread.
    Where the process may run on one CPU only, a thread would only take
    turns with the reader; there is none, and :meth:`read` draws the same
    stream itself, straight into ``out``.
    """

    def __init__(self, gen, need):
        self._gen = gen
        self._thread = None
        if _cpus() < 2:
            return
        self._bufs = [np.empty(min(_FILL, need)) for _ in range(_DEPTH)]
        self._free = queue.SimpleQueue()  # slots to fill; None stops the thread
        self._full = queue.SimpleQueue()  # (slot, count) in stream order, or an error
        for slot in range(_DEPTH):
            self._free.put(slot)
        self._slot = None  # the slot being read, from _at up to _end
        self._at = self._end = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._produce, args=(need,), name="ruinlab-normals", daemon=True
        )
        self._thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._closed = True
            self._free.put(None)
            self._thread.join()

    def _fill(self, out):
        self._gen.standard_normal(out=out)

    def _produce(self, need):
        try:
            while need:
                slot = self._free.get()
                if slot is None or self._closed:
                    return
                out = self._bufs[slot][:need]
                self._fill(out)
                need -= out.size
                self._full.put((slot, out.size))
        except Exception as exc:  # raised again by read, in the reader's thread
            self._full.put(exc)

    def read(self, out, scale):
        """Write the next ``out.size`` normals, times ``scale``, into the flat ``out``."""
        if self._thread is None:
            self._fill(out)
            out *= scale
            return
        at = 0
        while at < out.size:
            if self._slot is None:
                item = self._full.get()
                if isinstance(item, Exception):
                    raise item
                self._slot, self._end = item
                self._at = 0
            k = min(out.size - at, self._end - self._at)
            np.multiply(self._bufs[self._slot][self._at : self._at + k], scale, out=out[at : at + k])
            at += k
            self._at += k
            if self._at == self._end:
                self._free.put(self._slot)
                self._slot = None


def _mc_block_gbm(params, u, T, dt, rng, steps, size):
    """Paths for b > 0 in antithetic pairs and time chunks, with claims as events.

    The step grid is h = T/ceil(T/dt).  Over a step the surplus moves as
    X -> g X + c h (1 + g)/2, with the exact geometric Brownian factor
    g = exp((a - b^2/2) h + b sqrt(h) Z) and the premium by trapezoid.  The
    lanes carry Y = X + c h/2 instead, for which that step is Y -> g Y + c h:
    one multiply-add.  With n pairs, lane i takes the step normals Z and
    lane i + n takes -Z, whose factor exp(2 (a - b^2/2) h) / g costs a
    division, not a draw.  Claims, their sizes and their bridge normals stay
    each lane's own: ``_claim_window`` draws them and gives each step holding
    them its exact map X -> g X + A, which for Y reads
    Y -> g Y + A + (c h/2)(1 - g).  The step normals come from ``steps``
    alone, which a helper thread draws ahead (``_NormalRing``), and ``rng``
    draws everything else in the calling thread.  Each chunk of K steps
    (K * lanes <= _CHUNK) reads its normals at once and sweeps the lanes one
    in-place multiply-add per step; ruin is then read off at the chunk's claim
    instants from X = Y - c h/2 at the start of each claim's step.  The
    normals, factors and additive terms live in flat buffers allocated once
    per block and viewed as (K, lanes) per window; the additive buffer holds
    c h except at a chunk's claim steps, which are reset after the chunk.  A
    ruined lane keeps moving beside its partner but is never counted again;
    a pair leaves at the end of a window once both its lanes are ruined, and
    the block ends early when no lane is left.  An odd block's last pair has
    a phantom partner that starts ruined.
    """
    a, b, c, lam = params.a, params.b, params.c, params.lam
    n_steps = int(math.ceil(T / dt))
    h = T / n_steps
    drift = (a - 0.5 * b * b) * h
    vol = b * math.sqrt(h)
    mirror = math.exp(2.0 * drift)
    ch = c * h
    n = (size + 1) // 2
    Y = np.full(2 * n, float(u) + 0.5 * ch)
    nxt = rng.exponential(1.0 / lam, 2 * n)
    alive = np.ones(2 * n, dtype=bool)
    alive[-1] = size % 2 == 0
    # a chunk of nk steps on `lanes` lanes never needs more than this
    cap = min(max(_CHUNK, 2 * n), n_steps * 2 * n)
    z_buf = np.empty(cap // 2)
    g_buf = np.empty(cap)
    a_buf = np.full(cap, ch)
    with _NormalRing(steps, n_steps * n) as normals:
        k0 = 0
        while k0 < n_steps and n:
            lanes = 2 * n
            K = max(1, _CHUNK // lanes)
            W = min(n_steps - k0, K * max(1, int(_CLAIMS / (lanes * lam * h * K))))
            events = _claim_window(params, h, nxt, k0 * h, W, rng)
            if events is not None:
                (ck, clane, c_alpha, c_beta), (gk, glane, g_fold, a_fold) = events
                a_fold += 0.5 * ch * (1.0 - g_fold)
            for j0 in range(0, W, K):
                nk = min(K, W - j0)
                Z = z_buf[: nk * n].reshape(nk, n)
                G = g_buf[: nk * lanes].reshape(nk, lanes)
                A = a_buf[: nk * lanes].reshape(nk, lanes)
                normals.read(z_buf[: nk * n], vol)
                Z += drift
                np.exp(Z, out=G[:, :n])
                np.divide(mirror, G[:, :n], out=G[:, n:])
                if events is not None:
                    lo, hi = np.searchsorted(gk, (j0, j0 + nk))
                    rows, cols = gk[lo:hi] - j0, glane[lo:hi]
                    G[rows, cols] = g_fold[lo:hi]
                    A[rows, cols] = a_fold[lo:hi]
                # row k of G becomes Y at the end of step j0 + k
                y = Y
                for k in range(nk):
                    row = G[k]
                    np.multiply(row, y, out=row)
                    np.add(row, A[k], out=row)
                    y = row
                if events is not None:
                    A[rows, cols] = ch
                    lo, hi = np.searchsorted(ck, (j0, j0 + nk))
                    kk, ll = ck[lo:hi] - j0, clane[lo:hi]
                    start = np.where(kk == 0, Y[ll], G[kk - 1, ll]) - 0.5 * ch
                    # g > 0 and c >= 0: between claims the surplus cannot fall
                    alive[ll[c_alpha[lo:hi] * start + c_beta[lo:hi] < 0.0]] = False
                Y[:] = G[-1]
                if not alive.any():
                    break
            pair = alive[:n] | alive[n:]
            if not pair.all():
                keep = np.flatnonzero(pair)
                keep = np.concatenate((keep, keep + n))
                Y, nxt, alive = Y[keep], nxt[keep], alive[keep]
                n = keep.size // 2
            k0 += W
    return int(np.count_nonzero(alive))


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
    mean m.  Between claims the surplus follows dX = (aX + c) dt + bX dw.

    * b = 0: event-driven and exact (exponential integrator between claims).
    * b > 0: on the step grid h = T/ceil(T/dt) <= dt, a step multiplies the
      surplus by the exact geometric Brownian factor
      g = exp((a - b^2/2) h + b sqrt(h) Z) and adds the premium c h (1 + g)/2
      (trapezoid).  Claim instants come from exponential inter-arrival times
      on each path.  A step holding claims splits at each instant on a
      Brownian bridge of its log-factor, and two or more claims in one step
      are composed exactly.  With c = 0 the step is exact in law at any dt;
      otherwise the premium's trapezoid is the only discretization error.

    Ruin is checked at the claim instants and nowhere else, which is exact
    for c >= 0: from a surplus X_s >= 0 the diffusion gives
    X_t = G_t (X_s + c int_s^t dr / G_r) >= 0 with G > 0, so only a claim
    can take the surplus below 0.

    For b > 0 the paths come in antithetic pairs: the partner of a path
    takes -Z wherever the path takes the step normal Z, while claims, claim
    sizes and the normals of steps holding claims are each path's own.  Each
    path keeps its law, so ``p_hat`` is unbiased.  Survival is nondecreasing
    in every Brownian increment: before ruin X >= 0, and each step map
    X -> f X + B has f > 0 and B nondecreasing in f.  So Cov(h(Z), h(-Z)) <= 0
    (Harris' inequality; Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 4.2), and ``stderr`` = sqrt(p_hat (1 - p_hat) / n_paths),
    the value for independent paths, is an upper bound on the standard
    error.  Where claims decide ruin, as on the presets, the partners are
    nearly uncorrelated and the bound is close; the pairs save draws there,
    not variance.  An odd ``n_paths`` leaves one path without a partner.

    Defaults: T = 400 and dt = 0.01, both divided by the rate scale
    min(lam, 1/m).  The finite horizon biases the estimate up relative to
    the infinite-horizon probability; double T until the change is within
    one standard error before comparing against solver output.  A given T
    must be finite and positive, and so must a given dt, even when b = 0,
    where the exact scheme does not use it and the estimate records dt = 0.

    The b > 0 lanes carry Y = X + c h/2, over which a step without claims
    is Y -> g Y + c h, one in-place multiply-add; a step with claims keeps
    its exact map, and ruin is read from X = Y - c h/2.  The normals,
    factors and additive terms of a chunk of steps live in buffers
    allocated once per block.

    Paths are processed in fixed-size blocks, each drawing from an SFC64
    generator seeded by ``SeedSequence(entropy=seed, spawn_key=(block,))``,
    so the estimate is reproducible and independent of how blocks are
    distributed over workers.  For b > 0 a block draws from two streams:
    its step normals come from a second SFC64 generator, seeded by the
    block's ``SeedSequence`` spawned once (spawn key ``(block, 0)``), and
    its claim instants, claim sizes and the bridge normals of steps holding
    claims from the block's own generator.  A helper thread draws the step
    normals ahead, in order, into a ring of three reused buffers of 2^15
    doubles, while the calling thread steps the paths; the normal draw
    releases the interpreter lock, so the two overlap on a second core.
    Where the process may run on one CPU only, there is no thread and the
    calling thread draws the same stream.  Each generator is used by one
    thread only, and the paths read the step normals in stream order, so
    the estimate depends on the seed alone, not on the fill size, the
    ring's depth or the threads' timing.  The thread is joined before the
    block returns or raises, and an error in it is raised here.  SFC64
    (256-bit state, a 64-bit counter that keeps distinct seeds apart for at
    least 2^64 draws) draws normals about a fifth faster than PCG64, numpy's
    default.  Both schemes draw different streams than earlier versions
    (the b > 0 scheme once stepped by Euler-Maruyama, then without pairs,
    then with its step normals on the block's own generator; the b = 0
    scheme drew for stopped paths too; and both drew from PCG64), so an
    estimate under a given seed differs from theirs; the law of every path
    is unchanged.  The b = 0 scheme draws as it did before the second
    stream, bit for bit.
    """
    check_count("n_paths", n_paths, 1)
    seed = np.random.SeedSequence().entropy % 2**63 if seed is None else check_count("seed", seed, 0)
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

    survivors = 0
    for block_index, done in enumerate(range(0, n_paths, _BLOCK)):
        size = min(_BLOCK, n_paths - done)
        block_seed = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
        rng = np.random.Generator(np.random.SFC64(block_seed))
        if exact:
            survivors += _mc_block_exact(params, u, T, rng, size)
        else:
            steps = np.random.Generator(np.random.SFC64(block_seed.spawn(1)[0]))
            survivors += _mc_block_gbm(params, u, T, dt, rng, steps, size)

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
    window must keep 1 - phi above 1e-11, otherwise the fit would read
    integration error.
    """
    if solution.regime.regime not in (Regime.MAIN, Regime.CAPITAL_STOCK):
        raise ValueError(
            f"power-law tail fit not applicable to regime {solution.regime.regime.value!r}"
        )
    check_count("n_points", n_points, 2)
    lo, hi = fit_window
    if not (0.0 < lo < hi <= solution.span[1] and math.isfinite(hi)):
        raise ValueError(f"fit window ({lo:g}, {hi:g}) outside solution span or not finite")
    uq = np.geomspace(lo, hi, n_points)
    phi, _, _ = solution.evaluate(uq)
    one_minus = 1.0 - phi
    if np.any(one_minus <= 1e-11):
        raise ValueError("1 - phi underflows the tolerance floor 1e-11 inside the window")
    slope, intercept = np.polyfit(np.log(uq), np.log(one_minus), 1)
    return TailEstimate(slope=float(slope), K=float(np.exp(intercept)))
