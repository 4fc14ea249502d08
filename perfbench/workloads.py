"""The benchmark's three workloads: ``presets``, ``sweep`` and ``oracles``.

Each workload is closed-loop: one client issues its operations one after
another.  The constructor does the set-up (inputs from the seed, a warm-up,
and for ``oracles`` the solves its oracles need); ``ops`` is the fixed
operation list of one pass.  An operation times its own calls into
``ruinlab`` by part, so checks and bookkeeping stay out of every timing.

Only the inputs made from the seed reach ``ruinlab``; references and checks
come from ``references`` and never call the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import calibrate
import sweep as sweep_gen

U_MAX = 50.0
POINTS = 201
DENSE_POINTS = 10_001
SCALAR_POINTS = 200
# preset routes that also get scalar evaluations, and the oracles' presets
ORACLE_PRESETS = ("fig1-I", "fig1-II", "fig3-II", "fig4-II", "fig5-I")
# the c08 bounds on the scaled residual sup
RESIDUAL_BOUND = {"fig1-I": 1e-9, "fig3-II": 1e-9, "fig4-II": 1e-9, "fig1-II": 1e-6, "fig5-I": 1e-6}
MC_EULER = dict(preset="fig1-II", u=(5.0,), n_paths=2048, T=400.0, dt=0.01)
MC_EXACT = dict(preset="fig3-II", u=(0.0, 5.0), n_paths=4096, T=400.0)
# an MC estimate this many stderr off is a failed operation ...
MC_FAIL_SIGMA = 3.0
# ... and this many is a wrong output, not a chance excursion
MC_WRONG_SIGMA = 5.0
# closed-form phi against its reference, absolute
PHI_TOL = 1e-9
WARMUP_PRESETS = ("fig1-I", "fig3-II", "fig5-II", "fig1-II")


@dataclass
class Check:
    """What the checks found for one operation."""

    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # a returned output is incorrect
    digits: float | None = None  # accuracy against an independent reference
    diag: dict = field(default_factory=dict)

    def fail(self, message: str, wrong: bool = True) -> None:
        self.problems.append(message)
        self.wrong = self.wrong or wrong


@dataclass
class Op:
    """One operation: ``run(parts)`` calls ``ruinlab`` and adds the seconds
    of each timed part to ``parts``; ``check(result)`` judges its output and
    ``fingerprint(result)`` hashes it."""

    kind: str
    route: str
    label: str
    run: Callable
    check: Callable
    fingerprint: Callable


def _timed(parts: dict, key: str, fn, *args, **kwargs):
    t0 = calibrate.clock()
    try:
        return fn(*args, **kwargs)
    finally:
        parts[key] = parts.get(key, 0.0) + calibrate.clock() - t0


def _digest(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(np.ascontiguousarray(np.asarray(item, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _check_phi(chk: Check, phi: np.ndarray, what: str) -> None:
    import references as ref

    if not np.all(np.isfinite(phi)):
        chk.fail(f"{what}: non-finite phi")
        return
    below, above = -phi.min(), phi.max() - 1.0
    drop = -np.diff(phi).min() if len(phi) > 1 else 0.0
    if max(below, above) > ref.PHI_SLACK:
        chk.fail(f"{what}: phi outside [0, 1] by {max(below, above):.1e}", max(below, above) > ref.PHI_WRONG)
    if drop > ref.PHI_SLACK:
        chk.fail(f"{what}: phi decreases by {drop:.1e}", drop > ref.PHI_WRONG)


def _check_reference(chk: Check, value: float, reference: float, what: str) -> None:
    import references as ref

    if reference == 0.0:
        if abs(value) > ref.PHI_SLACK:
            chk.fail(f"{what} = {value:.12g}, reference 0", abs(value) > ref.PHI_WRONG)
        return
    rel = abs(value - reference) / abs(reference)
    chk.digits = ref.digits(rel)
    if rel > ref.REL_TOL:
        chk.fail(f"{what} = {value:.12g}, reference {reference:.12g} (rel {rel:.1e})", rel > ref.WRONG_REL)


def _route(grid) -> str:
    return grid.regime.regime.value


def _normalization(grid) -> float:
    return grid.diagnostics["P1"] if _route(grid) == "capital-stock" else grid.C0


def _warm_up(rl) -> None:
    for name in WARMUP_PRESETS:
        grid = rl.solve(rl.PRESETS[name].params, u_max=U_MAX, points=POINTS)
        grid.evaluate(np.linspace(0.0, U_MAX, 11))
        grid.evaluate(1.0)


class Presets:
    """Each pass solves the ten bundled presets at the paper's size, then
    evaluates every solution on a 10,001-point array and five of them at
    200 scalar points.  The seed sets the order and the evaluation points."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        rng = _rng(seed, 1)
        names = [str(n) for n in rng.permutation(list(rl.PRESETS))]
        self.inputs = {}
        for name in names:
            # the dense array holds u = 0 and the scalar points, so the
            # scalar results can be compared with the array results
            scalar = None
            if name in ORACLE_PRESETS:
                scalar = np.sort(rng.uniform(0.0, U_MAX, SCALAR_POINTS))
            given = [[0.0]] + ([scalar] if scalar is not None else [])
            n_rand = DENSE_POINTS - sum(len(g) for g in given)
            dense = np.sort(np.concatenate(given + [rng.uniform(0.0, U_MAX, n_rand)]))
            self.inputs[name] = (dense, scalar)
        self.ops = [self._op(name) for name in names]
        _warm_up(rl)

    def prepare_checks(self) -> None:
        import references as ref

        self.table = ref.load_table()

    def _op(self, name: str) -> Op:
        rl = self.rl
        scenario = rl.PRESETS[name]
        dense, scalar = self.inputs[name]

        def run(parts):
            grid = _timed(parts, "solve", rl.solve, scenario.params, u_max=U_MAX, points=POINTS)
            dense_out = _timed(parts, "dense", grid.evaluate, dense)
            values = None
            if scalar is not None:
                values = _timed(parts, "scalar", lambda: [grid.evaluate(float(x)) for x in scalar])
            return grid, dense_out, values

        def check(result):
            import references as ref

            grid, (phi, _, _), values = result
            chk = Check()
            entry = self.table["presets"][name]
            p = scenario.params
            if (p.a, p.b, p.c, p.lam, p.m) != (entry["a"], entry["b"], entry["c"], self.table["lam"], self.table["m"]):
                chk.fail(f"{name}: preset parameters differ from the reference table")
            _check_phi(chk, grid.phi, f"{name} grid")
            _check_phi(chk, phi, f"{name} dense")
            value = _normalization(grid)
            _check_reference(chk, value, entry.get("P1", entry.get("C0")), f"{name} {'P1' if 'P1' in entry else 'C0'}")
            route = entry["route"]
            if route in ("classical", "risk-free"):
                exact = ref.closed_phi(route, p.a, p.c, p.lam, p.m, dense)
                err = float(np.max(np.abs(phi - exact)))
                if err > PHI_TOL:
                    chk.fail(f"{name}: dense phi off its closed form by {err:.1e}")
            if values is not None:
                scalar_phi = np.array([v[0] for v in values])
                at = np.searchsorted(dense, scalar)
                if not np.allclose(scalar_phi, phi[at], rtol=1e-12, atol=1e-15):
                    chk.fail(f"{name}: scalar evaluate disagrees with the array evaluate")
            if route == "main":
                chk.diag = {"u0_over_m": grid.diagnostics["u0"] / p.m, "U_over_m": grid.diagnostics["U"] / p.m}
            return chk

        def fingerprint(result):
            grid, dense_out, values = result
            return _digest([_normalization(grid)], grid.phi, dense_out[0], [v[0] for v in values or []])

        route = rl.classify_regime(scenario.params).regime.value
        return Op("preset", route, name, run, check, fingerprint)


class Sweep:
    """Each pass solves a seeded sample of 30 admissible parameter sets
    (see ``sweep.py``) with ``solve(params)`` defaults."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        self.points = sweep_gen.generate(seed)
        self.ops = [self._op(i, p) for i, p in enumerate(self.points)]
        _warm_up(rl)

    def prepare_checks(self) -> None:
        import references  # noqa: F401  (scipy loads here, after the passes)

    def _op(self, i: int, point: dict) -> Op:
        rl = self.rl
        params = rl.ModelParams(**{k: point[k] for k in ("a", "b", "c", "lam", "m")})
        route = sweep_gen.REGIME_OF_ROUTE[point["route"]]

        def run(parts):
            return _timed(parts, "solve", rl.solve, params)

        def check(grid):
            import references as ref

            chk = Check()
            label = f"sweep[{i}] {point['route']}"
            if _route(grid) != route:
                chk.fail(f"{label}: solved as {_route(grid)}")
                return chk
            _check_phi(chk, grid.phi, label)
            a, b, c, lam, m = params.a, params.b, params.c, params.lam, params.m
            if route == "capital-stock":
                _check_reference(chk, grid.diagnostics["P1"], ref.cs_P1(a, b, lam, m), f"{label} P1")
            elif route in ("classical", "risk-free"):
                exact = float(ref.closed_phi(route, a, c, lam, m, [0.0])[0])
                _check_reference(chk, grid.C0, exact, f"{label} C0")
            else:
                chk.diag = {"u0_over_m": grid.diagnostics["u0"] / m, "U_over_m": grid.diagnostics["U"] / m}
            return chk

        def fingerprint(grid):
            return _digest([_normalization(grid)], grid.phi)

        return Op("solve", route, f"sweep[{i}]", run, check, fingerprint)


class Oracles:
    """Each pass runs the residual oracle on five presets, one per solution
    route, and Monte Carlo on an Euler path (fig1-II) and on the b = 0
    event-driven path (fig3-II).  The solves they need are set-up."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        rng = _rng(seed, 3)
        self.solutions = {}
        for name in ORACLE_PRESETS:
            self.solutions[name] = rl.solve(rl.PRESETS[name].params, u_max=U_MAX, points=POINTS)
        ops = []
        for name in ORACLE_PRESETS:
            grid = np.sort(np.concatenate(([0.0, U_MAX], rng.uniform(0.0, U_MAX, POINTS - 2))))
            ops.append(self._residual_op(name, grid))
        mc_seeds = np.random.SeedSequence([int(seed), 4]).generate_state(3)
        ops.append(self._mc_op(MC_EULER, MC_EULER["u"][0], int(mc_seeds[0])))
        for u, s in zip(MC_EXACT["u"], mc_seeds[1:]):
            ops.append(self._mc_op(MC_EXACT, u, int(s)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.phi_at = {
            (cfg["preset"], u): self.solutions[cfg["preset"]].evaluate(u)[0]
            for cfg in (MC_EULER, MC_EXACT)
            for u in cfg["u"]
        }
        # warm-up: one short residual and both MC paths at a few paths
        rl.ide_residual(self.solutions["fig1-I"], rl.PRESETS["fig1-I"].params, np.linspace(0.0, 1.0, 5))
        for cfg in (MC_EULER, MC_EXACT):
            rl.mc_survival(rl.PRESETS[cfg["preset"]].params, 1.0, 8, T=1.0, dt=cfg.get("dt"), seed=0)

    def prepare_checks(self) -> None:
        import references as ref

        table = ref.load_table()["presets"]
        self.setup_checks = []
        for name, grid in self.solutions.items():
            entry = table[name]
            chk = Check()
            _check_phi(chk, grid.phi, f"{name} grid")
            _check_reference(chk, _normalization(grid), entry.get("P1", entry.get("C0")), name)
            self.setup_checks.append(chk)

    def _residual_op(self, name: str, grid_pts: np.ndarray) -> Op:
        rl = self.rl
        params = rl.PRESETS[name].params
        solution = self.solutions[name]

        def run(parts):
            return _timed(parts, "residual", rl.ide_residual, solution, params, grid_pts)

        def check(report):
            chk = Check()
            if not report.rel_sup < RESIDUAL_BOUND[name]:
                chk.fail(f"residual {name}: rel sup {report.rel_sup:.2e} >= {RESIDUAL_BOUND[name]:g}")
            return chk

        return Op("residual", _route(solution), f"residual {name}", run, check,
                  lambda report: _digest(report.residual))

    def _mc_op(self, cfg: dict, u: float, seed: int) -> Op:
        rl = self.rl
        name = cfg["preset"]
        params = rl.PRESETS[name].params
        label = f"mc {name} u={u:g}"

        def run(parts):
            return _timed(
                parts, "mc", rl.mc_survival, params, u, cfg["n_paths"], T=cfg["T"], dt=cfg.get("dt"), seed=seed
            )

        def check(est):
            chk = Check()
            phi = self.phi_at[(name, u)]
            off = abs(est.p_hat - phi)
            if off > MC_FAIL_SIGMA * est.stderr:
                wrong = not off <= MC_WRONG_SIGMA * est.stderr
                chk.fail(f"{label}: p_hat {est.p_hat:.5f}, phi {phi:.5f}, stderr {est.stderr:.5f}", wrong)
            return chk

        return Op("mc", "euler" if "dt" in cfg else "exact", label, run, check,
                  lambda est: _digest([est.p_hat]))


WORKLOADS = {"presets": Presets, "sweep": Sweep, "oracles": Oracles}


def cli_probe(rl) -> None:
    """``ruinlab solve --preset <name>`` for every preset, output captured."""
    import contextlib
    import io

    from ruinlab import cli

    for name in rl.PRESETS:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["solve", "--preset", name])
