"""Benchmark of ``ruinlab``: one workload, measured from outside.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The workload runs in a fresh
single-threaded process (``child.py``) that imports ``ruinlab`` from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.  Set-up
time is the median of five fresh processes.  Set-up and pass times are
scaled to a fixed host speed by the calibration kernel in ``calibrate.py``.
Spans of a traced run are written to ``.perfbench_out/``.  The exit code is
0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# every run, set-up samples included, ends within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args, extra: list[str], deadline: float) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable,
        "-B",
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the run limit ({RUN_LIMIT_S:g} s)") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1]), lines[:-1]


def _declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    declared = _declared_metrics(args.trace)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, _ = _run_child(args, ["--setup-only"], deadline)
            setups.append((res["setup_s"], res["setup_raw_s"]))
    res, info = _run_child(args, [], deadline)
    for line in info:
        print(line)
    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append((res["setup_s"], res["setup_raw_s"]))
        scaled, raw = zip(*setups)
        print("  setup seconds: " + " ".join(f"{t:.4f}" for t in raw))
        print("  scaled setup seconds: " + " ".join(f"{t:.4f}" for t in scaled))
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
