"""Tests of the benchmark itself: references, sweep generator, tracer, runner.

    python3 -m pytest -q perfbench

These are not part of the package's test suite (``tests/``); the traced
workload tests take about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.dont_write_bytecode = True  # leave no bytecode under src/
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import references as ref  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_counts  # noqa: E402

# the layer each workload is meant to exercise, with the span-name prefix
LAYERS = {
    "presets": ("series", "odes", "solver", "capitalstock", "closedform", "specfun", "solution", "cli"),
    "sweep": ("series", "odes", "solver", "capitalstock", "closedform", "specfun"),
    "oracles": ("verify", "solution", "odes", "specfun"),
}


@pytest.fixture(scope="module")
def rl():
    return child.import_ruinlab()


# -- references --------------------------------------------------------------


def test_capital_stock_closed_form_landmarks():
    table = ref.load_table()["presets"]
    assert ref.cs_P1(0.02, 0.1, 0.09, 1.0) == pytest.approx(1.0 / 16.8, rel=1e-12)
    assert table["fig5-I"]["P1"] == pytest.approx(1.0 / 16.8, rel=1e-12)
    # the paper's 0.059587 for fig5-I is the known spec conflict c07a; the
    # exact value is 1/16.8, so it is not compared here
    assert abs(table["fig5-II"]["P1"] - 0.861816) / 0.861816 <= 1e-3


def test_main_regime_landmarks():
    table = ref.load_table()["presets"]
    assert abs(table["fig1-II"]["C0"] - 0.295) <= 0.002  # c02
    assert abs(table["fig2-I"]["C0"] - 0.00527) / 0.00527 <= 0.02  # c03
    assert abs(table["fig2-II"]["C0"] - 0.194) / 0.194 <= 0.01  # c04
    for name in ("fig1-II", "fig2-I", "fig2-II"):
        assert table[name]["ref_rel_err"] <= ref.REL_TOL / 10.0


def test_closed_form_landmarks():
    table = ref.load_table()["presets"]
    assert table["fig1-I"]["C0"] == pytest.approx(0.1, rel=1e-14)
    assert abs(table["fig3-I"]["C0"] - 0.00704) / 0.00704 <= 1e-3  # c05
    assert abs(table["fig3-II"]["C0"] - 0.2046) / 0.2046 <= 1e-3
    # a = lam, c = 0: phi(u) = 1 - exp(-u/m) exactly (c06)
    u = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(ref.riskfree_phi(0.09, 0.0, 0.09, 1.0, u) - (1.0 - np.exp(-u)))) < 1e-13


def test_table_matches_its_formulas():
    import make_reference

    table = ref.load_table()["presets"]
    for name, (a, b, c) in make_reference.PRESETS.items():
        entry = table[name]
        if entry["route"] == "capital-stock":
            assert entry["P1"] == ref.cs_P1(a, b, 0.09, 1.0)
        elif entry["route"] != "main":
            assert entry["C0"] == float(ref.closed_phi(entry["route"], a, c, 0.09, 1.0, [0.0])[0])


# -- sweep generator and classifier -------------------------------------------


def test_sweep_is_seeded():
    assert sweep.generate(7) == sweep.generate(7)
    assert sweep.generate(7) != sweep.generate(8)


def test_sweep_mix_and_admissibility(rl):
    for seed in range(5):
        points = sweep.generate(seed)
        assert len(points) == sum(sweep.ROUTE_COUNTS.values())
        shares = sweep.route_shares(points)
        assert shares["capital-stock"] == pytest.approx(1.0 / 3.0, abs=0.01)
        for p in points:
            params = rl.ModelParams(**{k: p[k] for k in ("a", "b", "c", "lam", "m")})
            assert rl.classify_regime(params).regime.value == sweep.REGIME_OF_ROUTE[p["route"]]
            if p["b"] > 0.0:
                assert 1.0 < 2.0 * p["a"] / p["b"] ** 2 <= 30.0 * (1.0 + 1e-12)
            k = p["c"] / (p["lam"] * p["m"])
            assert k == 0.0 or 0.1 * (1 - 1e-12) <= k <= 10.0 * (1 + 1e-12)


def test_classify_outcomes(rl):
    assert sweep.classify(None, 0, rl.RuinlabError) == "ok"
    assert sweep.classify(None, 2, rl.RuinlabError) == "warning"
    assert sweep.classify(rl.SolverError("x"), 0, rl.RuinlabError) == "typed"
    assert sweep.classify(OverflowError("x"), 0, rl.RuinlabError) == "raw"


# -- tracer ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_tracer_covers_layers_and_keeps_outputs(rl, workload):
    wl = workloads.WORKLOADS[workload](rl, 5)
    untraced = child.run_passes(rl, wl, 0.0, None, 0, False)
    tracer, traced = child.traced_passes(rl, wl, workload, untraced, 0.0)
    counts = span_counts(tracer)
    for layer in LAYERS[workload]:
        assert counts[layer] > 0, f"no {layer} spans on {workload}"
    assert [r.fingerprint for r in traced[0]] == [r.fingerprint for r in untraced[0]]
    # every patch is undone
    from ruinlab import odes, solution, solver

    assert solver.integrate is odes.integrate
    assert "traced" not in solution.SolutionGrid.evaluate.__code__.co_name


def test_errors_are_counted_from_outcomes(rl):
    """The errors layer counts what ``execute`` classified, whatever the
    workloads happen to raise today."""
    import warnings

    def op(label, run):
        return workloads.Op("solve", "classical", label, run, lambda _: workloads.Check(), str)

    # classical with c below lam*m has no solution: a typed raise
    inadmissible = rl.ModelParams(a=0.0, b=0.0, c=0.05, lam=0.09, m=1.0)

    def warns(parts):
        warnings.warn("one")
        warnings.warn("two")
        return 1.0

    ops = [
        op("typed", lambda parts: rl.solve(inadmissible)),
        op("raw", lambda parts: 10.0**400),
        op("warning", warns),
        op("ok", lambda parts: 1.0),
    ]
    records = [child.execute(rl, o, i, i, None, False) for i, o in enumerate(ops)]
    assert [r.outcome for r in records] == ["typed", "raw", "warning", "ok"]
    counts = child.error_metrics([records, records])
    assert {k: v for k, (v, _) in counts.items()} == {
        "errors.typed": 1.0,
        "errors.raw": 1.0,
        "errors.warnings": 2.0,
    }


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("a.outer")
    inner = tracer.open("a.inner")
    tracer.close(inner)
    tracer.close(outer)
    (_, s0, e0, p0, _, _), (_, s1, e1, p1, _, _) = tracer.spans
    assert p0 == -1 and p1 == outer
    assert s0 <= s1 <= e1 <= e0


# -- calibration -------------------------------------------------------------


def test_sampled_kernel_stays_out_of_the_clock():
    first = len(calibrate._samples)
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.sampling():
        t0, c0 = time.perf_counter(), calibrate.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        t1, c1 = time.perf_counter(), calibrate.clock()
    assert signal.getsignal(signal.SIGALRM) is previous
    taken = calibrate._samples[first:]
    assert len(taken) >= 3
    kernel = sum(seconds for _, seconds in taken)
    assert (t1 - t0) - (c1 - c0) == pytest.approx(kernel, abs=2e-3)
    # the window [t0, t1] holds this test's samples and no earlier ones
    window = (t0 + calibrate.INTERVAL_S, t1 - calibrate.INTERVAL_S)
    assert calibrate.scale(*window) == pytest.approx(calibrate.NOMINAL_S * len(taken) / kernel)


# -- runner ------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_declared_metrics(trace):
    proc = _run(ROOT, "--workload", "presets", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
