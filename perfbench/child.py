"""One workload in one fresh process; ``run.py`` starts it.

Set-up time runs from the first line of this file, so it covers importing
numpy and ``ruinlab`` and the workload's one-time preparation.  With
``--trace 1`` the untraced passes fill the first half of the time and traced
passes the second half; the ratio of their pass times is the tracing
overhead.  While passes run, the calibration kernel samples the host's
speed; ``pass_s`` and ``setup_s`` are scaled by it to a fixed host speed
(see ``calibrate.py``).  Peak memory is read when the passes end, before the
checks load their references; the checks judge the first pass's outputs,
and every later pass must reproduce them bit for bit.  The last line of standard
output is a JSON object for ``run.py``; the lines before it are for people.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, p90, span_counts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
FALLBACK_TEXT = "no transfer point"
# a main solve with U above 400 m climbed more than two ladder rungs
TWO_RUNG_U_OVER_M = 400.0 * (1.0 + 1e-9)


class SetupError(Exception):
    pass


def import_ruinlab():
    init = SRC / "ruinlab" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no ruinlab sources at {init}")
    sys.path.insert(0, str(SRC))
    import ruinlab

    if Path(ruinlab.__file__).resolve() != init.resolve():
        raise SetupError(f"imported ruinlab from {ruinlab.__file__}, not from {SRC}")
    return ruinlab


@dataclass
class Record:
    op: workloads.Op
    index: int  # position of ``op`` in the pass
    parts: dict
    outcome: str
    warnings: list[str]
    fingerprint: str | None
    result: object = None  # kept on the first pass only, for the checks
    error: str = ""
    check: workloads.Check | None = None
    start: float = 0.0  # perf_counter readings around the operation
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * calibrate.scale(self.start, self.end)

    @property
    def failed(self) -> bool:
        return self.outcome != "ok" or bool(self.check and self.check.problems)

    @property
    def messages(self) -> list[str]:
        found = [self.error] if self.error else []
        found += self.check.problems if self.check else []
        return found + [f"{self.op.label}: warning: {w}" for w in self.warnings]


def execute(rl, op, index: int, op_id: int, tracer: Tracer | None, keep: bool) -> Record:
    parts: dict = {}
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open("bench.op")
    exc = result = None
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = op.run(parts)
        except Exception as e:  # every raise is an outcome to classify
            exc = e
    end = time.perf_counter()
    if tracer is not None:
        tracer.close(span, (op.kind,))
        tracer.op = -1
    outcome = sweep.classify(exc, len(caught), rl.RuinlabError)
    messages = [str(w.message) for w in caught]
    if exc is not None:
        return Record(op, index, parts, outcome, messages, None,
                      error=f"{op.label}: {type(exc).__name__}: {exc}", start=start, end=end)
    return Record(op, index, parts, outcome, messages, op.fingerprint(result), result if keep else None,
                  start=start, end=end)


def run_passes(rl, wl, budget_s: float, tracer, first_id: int, keep_first: bool) -> list[list[Record]]:
    """Whole passes while the next one is expected to end within the budget.
    With ``keep_first`` the first pass keeps its outputs for the checks.
    The calibration kernel samples the host's speed all the while."""
    passes: list[list[Record]] = []
    start = time.perf_counter()
    op_id = first_id
    with calibrate.sampling():
        while True:
            keep = keep_first and not passes
            records = []
            for index, op in enumerate(wl.ops):
                records.append(execute(rl, op, index, op_id, tracer, keep))
                op_id += 1
            passes.append(records)
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > budget_s:
                return passes


def check_passes(all_passes) -> None:
    """Judge the first pass's outputs and give each check to every record of
    the same operation; later passes must reproduce the first bit for bit,
    which ``main`` verifies from the fingerprints."""
    checks = [r.op.check(r.result) if r.result is not None else None for r in all_passes[0]]
    for records in all_passes:
        for r in records:
            r.check = checks[r.index]
            r.result = None


# -- summaries -----------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pass_seconds(passes) -> list[float]:
    return [sum(r.seconds for r in records) for records in passes]


def scaled_pass_seconds(passes) -> list[float]:
    return [sum(r.scaled_seconds for r in records) for records in passes]


def class_metrics(passes) -> dict[str, tuple[float, str]]:
    """The per-class breakdown: solve latency by route, and per-pass totals."""
    records = [r for records in passes for r in records]
    solves = [r for r in records if "solve" in r.parts]

    def solve_ms(routes):
        return [1e3 * r.parts["solve"] for r in solves if r.op.route in routes]

    def per_pass(part):
        return _median([sum(r.parts.get(part, 0.0) for r in records) for records in passes])

    main_diag = [r.check.diag for r in records if r.check and "U_over_m" in r.check.diag]
    gt2 = sum(d["U_over_m"] > TWO_RUNG_U_OVER_M for d in main_diag)
    failed = sum(r.failed for r in records)
    return {
        "op_ms_p50": (_median([1e3 * r.seconds for r in records]), "ms"),
        "main_solve_ms_p50": (_median(solve_ms({"main"})), "ms"),
        "cs_solve_ms_p50": (_median(solve_ms({"capital-stock"})), "ms"),
        "closed_solve_ms_p50": (_median(solve_ms({"classical", "risk-free"})), "ms"),
        "solve_ms_p90": (p90([1e3 * r.parts["solve"] for r in solves]), "ms"),
        "dense_eval_s": (per_pass("dense"), "s"),
        "residual_s": (per_pass("residual"), "s"),
        "mc_s": (per_pass("mc"), "s"),
        "fail_frac": (failed / len(records), "ratio"),
        "solver.main_gt2_rungs_frac": (gt2 / len(main_diag) if main_diag else 0.0, "ratio"),
    }


def end_to_end(passes, extra_digits, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    records = [r for records in passes for r in records]
    digits = [r.check.digits for r in records if r.check and r.check.digits is not None]
    digits += extra_digits
    return {
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_s": (_median(scaled_pass_seconds(passes)), "s"),
        "accuracy_digits_min": (min(digits) if digits else 0.0, "digits"),
    }


def error_metrics(passes) -> dict[str, tuple[float, str]]:
    """Raises by kind and warnings per pass, from the records' outcomes."""
    records = [r for records in passes for r in records]
    return {
        "errors.typed": (sum(r.outcome == "typed" for r in records) / len(passes), "count"),
        "errors.raw": (sum(r.outcome == "raw" for r in records) / len(passes), "count"),
        "errors.warnings": (sum(len(r.warnings) for r in records) / len(passes), "count"),
    }


def report_lines(workload: str, passes, metrics: dict) -> list[str]:
    records = [r for records in passes for r in records]
    lines = [f"{workload}: {len(passes)} pass(es), {len(records)} operations"]
    lines.append("  pass seconds: " + " ".join(f"{t:.4f}" for t in pass_seconds(passes)))
    lines.append("  scaled pass seconds: " + " ".join(f"{t:.4f}" for t in scaled_pass_seconds(passes)))
    lines.append("  calibration kernel: " + calibrate.summary())
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name} = {value:.6g} {unit}")
    counts = {k: sum(r.outcome == k for r in records) for k in sweep.OUTCOMES}
    lines.append("  outcomes: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for message in dict.fromkeys(m for r in records for m in r.messages):
        lines.append(f"  failed: {message}")
    return lines


def traced_passes(rl, wl, workload: str, untraced, budget: float):
    """Traced passes after the untraced ones; returns (tracer, passes)."""
    tracer = Tracer()
    tracer.install(rl)
    try:
        traced = run_passes(rl, wl, budget, tracer, len(wl.ops) * len(untraced), False)
        if workload == "presets":
            workloads.cli_probe(rl)
    finally:
        tracer.uninstall()
    return tracer, traced


def traced_metrics(tracer, wl, workload: str, seed: int, untraced, traced):
    """Per-layer metrics of checked traced passes; returns (metrics, info)."""
    records = [r for records in traced for r in records]
    main_diag = [r.check.diag for r in records if r.check and "u0_over_m" in r.check.diag]
    notes = {
        "fallbacks": sum(FALLBACK_TEXT in w for r in records for w in r.warnings),
        "u0_over_m": [d["u0_over_m"] for d in main_diag],
        "U_over_m": [d["U_over_m"] for d in main_diag],
    }
    first = len(wl.ops) * len(untraced)
    metrics = layer_metrics(tracer, list(range(first, first + len(records))), notes)
    metrics.update(error_metrics(traced))
    metrics.update(class_metrics(untraced))
    overhead = _median(scaled_pass_seconds(traced)) / _median(scaled_pass_seconds(untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    tracer.write(SPAN_DIR / f"spans-{workload}-seed{seed}.csv.gz")
    info = report_lines(workload, traced, metrics)
    layers = sorted(span_counts(tracer).items())
    info.append("  spans per layer: " + ", ".join(f"{k} {v}" for k, v in layers))
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        rl = import_ruinlab()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](rl, args.seed)
    setup_s = time.perf_counter() - T0
    setup_scaled_s = setup_s * calibrate.speed_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_scaled_s, "setup_raw_s": setup_s}))
        return 0

    budget = args.seconds / 2.0 if args.trace else args.seconds
    passes = run_passes(rl, wl, budget, None, 0, True)
    traced = []
    if args.trace:
        tracer, traced = traced_passes(rl, wl, args.workload, passes, budget)
    # read before the checks load their own libraries (scipy)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.prepare_checks()
    all_passes = passes + traced
    check_passes(all_passes)
    setup_checks = getattr(wl, "setup_checks", [])
    if args.trace:
        metrics, info = traced_metrics(tracer, wl, args.workload, args.seed, passes, traced)
    else:
        digits = [c.digits for c in setup_checks if c.digits is not None]
        metrics = end_to_end(passes, digits, peak_rss_mb)
        info = report_lines(args.workload, passes, {**metrics, **class_metrics(passes)})
    if args.workload == "sweep":
        shares = sweep.route_shares(wl.points)
        info.append("  route shares: " + ", ".join(f"{k} {v:.4f}" for k, v in shares.items()))

    problems = [p for c in setup_checks for p in c.problems]
    records = [r for records in all_passes for r in records]
    wrong = any(c.wrong for c in setup_checks) or any(r.check.wrong for r in records if r.check)
    # every pass, traced or not, must reproduce the first one bit for bit
    first = [r.fingerprint for r in all_passes[0]]
    if any([r.fingerprint for r in records] != first for records in all_passes[1:]):
        problems.append("outputs differ between passes")
        wrong = True
    for line in info + [f"  problem: {p}" for p in problems]:
        print(line)
    result = {
        "setup_s": setup_scaled_s,
        "setup_raw_s": setup_s,
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
