"""Spans around the public functions of each ``ruinlab`` module.

The tracer patches names where their callers look them up, so the program
itself is not modified:

* ``solver`` binds ``integrate``, ``main_ode_field``, ``series_coeffs_main``
  and ``eval_series`` at import, and ``verify`` binds ``integrate`` and
  ``companion_volterra_field``; those bindings are replaced in place;
* ``capitalstock.solve_eta`` imports ``integrate`` and ``eta_ode_field``
  from ``odes`` at call time, so the ``odes`` attributes are replaced too;
* ``closedform`` binds ``upper_incomplete_gamma``;
* ``Trajectory.__call__`` and ``SolutionGrid.evaluate`` are patched on
  their classes.

A span is (name, start, end, parent, op, extra): ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` the benchmark operation it
belongs to (-1 outside the timed operations) and ``extra`` a small tuple
the wrapper records, such as the accepted steps of an integration.  Spans stay in
memory; ``write`` stores them as CSV when the run ends.  RHS evaluations
are counted, not spanned, by wrapping the ``*_field`` factories.

The wrappers add work around each call but never touch its arguments or
results, so traced and untraced runs compute bit-identical outputs.
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
from collections import Counter
from pathlib import Path

import calibrate

# the calibration kernel's samples stay out of every span
_clock = calibrate.clock


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.rhs_evals = 0
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _clock(), None, parent, self.op, None))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        end = _clock()
        self._stack.pop()
        name, start, _, parent, op, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op, extra)

    def wrap(self, name: str, fn, extra=None):
        """``fn`` inside a span; ``extra(args, kwargs, result)`` tags it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            tag = None
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    tag = extra(args, kwargs, result)
                return result
            finally:
                self.close(idx, tag)

        return traced

    def _wrap_integrate(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open("odes.integrate")
            rhs0 = self.rhs_evals
            steps = None
            try:
                traj = fn(*args, **kwargs)
                steps = len(traj.us) - 1
                return traj
            finally:
                self.close(idx, (steps, self.rhs_evals - rhs0))

        return traced

    def _wrap_field(self, factory):
        @functools.wraps(factory)
        def counted_factory(*args, **kwargs):
            system = factory(*args, **kwargs)
            rhs = system.rhs

            def counted_rhs(u, y):
                self.rhs_evals += 1
                return rhs(u, y)

            return type(system)(dimension=system.dimension, rhs=counted_rhs, name=system.name)

        return counted_factory

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, rl) -> None:
        """Patch the package ``rl`` (``ruinlab``) and its modules."""
        from ruinlab import capitalstock, cli, closedform, odes, solution, solver, verify

        solve = self.wrap("solver.solve", solver.solve)
        residual = self.wrap("verify.ide_residual", verify.ide_residual)
        mc = self.wrap("verify.mc_survival", verify.mc_survival, _mc_tag)
        for owner in (rl, cli):
            self._patch(owner, "solve", solve)
            self._patch(owner, "ide_residual", residual)
            self._patch(owner, "mc_survival", mc)
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

        integrate = self._wrap_integrate(odes.integrate)
        self._patch(solver, "integrate", integrate)
        self._patch(verify, "integrate", integrate)
        self._patch(odes, "integrate", integrate)
        self._patch(solver, "main_ode_field", self._wrap_field(solver.main_ode_field))
        self._patch(odes, "eta_ode_field", self._wrap_field(odes.eta_ode_field))
        self._patch(
            verify,
            "companion_volterra_field",
            self._wrap_field(verify.companion_volterra_field),
        )
        self._patch(solver, "solve_main", self.wrap("solver.solve_main", solver.solve_main))
        self._patch(
            solver,
            "series_coeffs_main",
            self.wrap("series.series_coeffs_main", solver.series_coeffs_main),
        )
        self._patch(solver, "eval_series", self.wrap("series.eval_series", solver.eval_series))
        self._patch(
            solver, "classical_exact", self.wrap("closedform.classical_exact", solver.classical_exact)
        )
        self._patch(
            solver, "riskfree_exact", self.wrap("closedform.riskfree_exact", solver.riskfree_exact)
        )
        self._patch(
            capitalstock,
            "phi_capital_stock",
            self.wrap("capitalstock.phi_capital_stock", capitalstock.phi_capital_stock),
        )
        self._patch(
            capitalstock, "solve_eta", self.wrap("capitalstock.solve_eta", capitalstock.solve_eta)
        )
        self._patch(
            closedform,
            "upper_incomplete_gamma",
            self.wrap("specfun.upper_incomplete_gamma", closedform.upper_incomplete_gamma),
        )
        self._patch(
            solution.SolutionGrid,
            "evaluate",
            self.wrap("solution.evaluate", solution.SolutionGrid.evaluate, _evaluate_tag),
        )
        self._patch(
            odes.Trajectory,
            "__call__",
            self.wrap("odes.Trajectory.__call__", odes.Trajectory.__call__),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start,end,parent,op,extra\n")
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                tag = "" if extra is None else ";".join(map(str, extra))
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{tag}\n")


def _evaluate_tag(args, kwargs, result):
    scalar = not hasattr(result[0], "shape")
    return (args[0].regime.regime.value, 1 if scalar else len(result[0]), scalar)


def _mc_tag(args, kwargs, result):
    params = args[0]
    if params.b == 0.0:
        return ("exact", 0)
    return ("euler", result.n_paths * math.ceil(result.T / result.dt))


# -- per-layer metrics -------------------------------------------------------


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def layer_metrics(tracer: Tracer, ops: list[int], notes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the timed operations ``ops``.

    ``notes`` carries what the workload read off the results: ``u0_over_m``
    and ``U_over_m`` of the main solves and the u0 ``fallbacks``.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    op_set = set(ops)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        # the CLI is called outside the timed operations, as a probe
        if s[4] in op_set or s[0] == "cli.main":
            by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return p
            p = spans[p][3]
        return -1

    n_solve = len(idx("solver.solve"))
    n_main = len(idx("solver.solve_main"))
    n_cs = len(idx("capitalstock.phi_capital_stock"))
    n_int_solves = n_main + n_cs
    solve_names = {"solver.solve_main", "capitalstock.phi_capital_stock"}
    solve_int = [i for i in idx("odes.integrate") if ancestor(i, solve_names) >= 0]
    accepted = sum(spans[i][5][0] or 0 for i in solve_int)
    rhs = sum(spans[i][5][1] for i in solve_int)
    attempted = sum((spans[i][5][1] - 2) / 6.0 for i in solve_int)

    rung_steps_all = 0
    rung_steps_last = 0
    rungs_main = 0
    for sm in idx("solver.solve_main"):
        steps = [spans[i][5][0] or 0 for i in idx("odes.integrate") if spans[i][3] == sm]
        rungs_main += len(steps)
        if steps:
            rung_steps_all += sum(steps)
            rung_steps_last += steps[-1]

    out = {
        "series.ms": (1e3 * _div(sum(self_t[i] for i in idx("series.series_coeffs_main")), n_main), "ms"),
        "series.u0_over_m": (statistics.median(notes["u0_over_m"]) if notes["u0_over_m"] else 0.0, "ratio"),
        "series.fallbacks": (_div(notes["fallbacks"], n_main), "count"),
        "odes.integrate_calls": (_div(len(solve_int), n_int_solves), "count"),
        "odes.steps_accepted": (_div(accepted, n_int_solves), "count"),
        "odes.steps_rejected": (_div(attempted - accepted, n_int_solves), "count"),
        "odes.rhs_evals": (_div(rhs, n_int_solves), "count"),
        "odes.us_per_step": (1e6 * _div(sum(self_t[i] for i in solve_int), attempted), "us"),
        "solver.rungs": (_div(rungs_main, n_main), "count"),
        "solver.useful_step_ratio": (_div(rung_steps_last, rung_steps_all), "ratio"),
        "solver.U_over_m_p90": (p90(notes["U_over_m"]), "ratio"),
        "solver.self_ms": (
            1e3 * _div(sum(self_t[i] for i in idx("solver.solve") + idx("solver.solve_main")), n_solve),
            "ms",
        ),
        "capitalstock.rungs": (_div(len(idx("capitalstock.solve_eta")), n_cs), "count"),
        "capitalstock.solve_eta_ms": (1e3 * _div(sum(dur[i] for i in idx("capitalstock.solve_eta")), n_cs), "ms"),
        "capitalstock.self_ms": (
            1e3 * _div(sum(self_t[i] for i in idx("capitalstock.phi_capital_stock")), n_cs),
            "ms",
        ),
    }

    evals = idx("solution.evaluate")
    for route in ("main", "capital-stock", "risk-free", "classical"):
        arr = [i for i in evals if spans[i][5] and spans[i][5][0] == route and not spans[i][5][2]]
        key = {"capital-stock": "cs", "risk-free": "riskfree"}.get(route, route)
        out[f"solution.eval_us_per_pt.{key}"] = (
            1e6 * _div(sum(dur[i] for i in arr), sum(spans[i][5][1] for i in arr)),
            "us",
        )
    scalar = [i for i in evals if spans[i][5] and spans[i][5][2]]
    out["solution.scalar_eval_us"] = (1e6 * _div(sum(dur[i] for i in scalar), len(scalar)), "us")
    integrated = {i for i in evals if spans[i][5] and spans[i][5][0] in ("main", "capital-stock")}
    traj_calls = sum(1 for i in idx("odes.Trajectory.__call__") if spans[i][3] in integrated)
    out["solution.traj_calls_per_eval"] = (_div(traj_calls, len(integrated)), "count")

    gam = idx("specfun.upper_incomplete_gamma")
    out["specfun.calls"] = (_div(len(gam), len(ops)), "count")
    out["specfun.us_per_call"] = (1e6 * _div(sum(dur[i] for i in gam), len(gam)), "us")

    residuals = idx("verify.ide_residual")
    res_set = {"verify.ide_residual"}
    res_scalar = sum(1 for i in scalar if ancestor(i, res_set) >= 0)
    res_rhs = sum(spans[i][5][1] for i in idx("odes.integrate") if ancestor(i, res_set) >= 0)
    out["verify.residual_rhs_evals"] = (_div(res_rhs, len(residuals)), "count")
    out["verify.residual_scalar_evals"] = (_div(res_scalar, len(residuals)), "count")
    euler = [i for i in idx("verify.mc_survival") if spans[i][5] and spans[i][5][0] == "euler"]
    path_steps = sum(spans[i][5][1] for i in euler)
    out["verify.mc_path_steps"] = (_div(path_steps, len(euler)), "count")
    out["verify.mc_ns_per_path_step"] = (1e9 * _div(sum(dur[i] for i in euler), path_steps), "ns")

    cli_calls = idx("cli.main")
    cli_child = sum(child[i] for i in cli_calls)
    out["cli.overhead_ms"] = (
        1e3 * _div(sum(dur[i] for i in cli_calls) - cli_child, len(cli_calls)),
        "ms",
    )
    return out


def span_counts(tracer: Tracer) -> Counter:
    """Number of spans per layer (the part of the name before the first dot)."""
    return Counter(s[0].split(".", 1)[0] for s in tracer.spans)
