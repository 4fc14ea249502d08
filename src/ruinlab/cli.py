"""Command-line interface: solve / residual / mc / presets.

CSV output uses 12 significant digits, '.' decimal separator, LF line
endings.  Exit codes: 0 success, 2 usage error, 3 numerical failure.
Settings may also come from a key=value config file (--config); explicit
flags override file values, which override preset values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import RuinlabError
from .model import ModelParams, Regime
from .presets import PRESETS
from .solver import solve
from .verify import ide_residual, mc_survival

__all__ = ["main"]

_FLOAT_KEYS = {"a", "b", "c", "lambda", "m", "umax", "rtol", "atol", "T", "dt"}
_INT_KEYS = {"points", "n", "seed"}


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _read_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


def _resolve(args, key: str, flag_value, default=None):
    """flag > config file > preset > default."""
    if flag_value is not None:
        return flag_value
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        raw = cfg[key]
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    preset = getattr(args, "_preset", None)
    if preset is not None and key in ("a", "b", "c", "lambda", "m"):
        return getattr(preset.params, "lam" if key == "lambda" else key)
    return default


def _build_params(args) -> ModelParams:
    vals = {}
    for key in ("a", "b", "c", "lambda", "m"):
        flag = getattr(args, "lam" if key == "lambda" else key)
        v = _resolve(args, key, flag)
        if v is None:
            raise UsageError(f"missing parameter --{key} (no preset/config supplies it)")
        vals["lam" if key == "lambda" else key] = float(v)
    return ModelParams(**vals)


class UsageError(Exception):
    pass


def _prepare(args):
    args._config_values = _read_config(args.config) if args.config else {}
    preset_name = args.preset or args._config_values.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise UsageError(
                f"unknown preset {preset_name!r}; available: {', '.join(PRESETS)}"
            )
        args._preset = PRESETS[preset_name]
    else:
        args._preset = None


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _solution_lines(grid) -> list[str]:
    lines = ["u,phi,dphi,ddphi"]
    for i in range(len(grid.u)):
        lines.append(
            f"{_fmt(grid.u[i])},{_fmt(grid.phi[i])},{_fmt(grid.dphi[i])},{_fmt(grid.ddphi[i])}"
        )
    lines.append(f"# regime = {grid.regime.regime.value}")
    if grid.regime.regime is Regime.CAPITAL_STOCK:
        lines.append(f"# P1 = {_fmt(grid.diagnostics['P1'])}")
        lines.append(f"# log_P1 = {_fmt(grid.diagnostics['log_P1'])}")
    lines.append(f"# C0 = {_fmt(grid.C0)}")
    if grid.tail is not None:
        lines.append(f"# K = {_fmt(grid.tail.K)}")
        lines.append(f"# exponent = {_fmt(grid.tail.exponent)}")
    for key in ("reason", "u0", "U", "rtol", "atol", "tail_note"):
        if key in grid.diagnostics:
            val = grid.diagnostics[key]
            val = _fmt(val) if isinstance(val, (int, float)) else val
            lines.append(f"# {key} = {val}")
    return lines


def _gnuplot_script(csv_path: str) -> str:
    return "\n".join(
        [
            "set datafile separator ','",
            "set xlabel 'u'",
            "set ylabel 'phi(u)'",
            "set key left bottom",
            f"plot '{csv_path}' using 1:2 with lines title 'survival probability'",
        ]
    )


def cmd_solve(args) -> int:
    params = _build_params(args)
    u_max = float(_resolve(args, "umax", args.umax, 50.0 * params.m))
    points = int(_resolve(args, "points", args.points, 201))
    spacing = _resolve(args, "spacing", args.spacing, "uniform")
    rtol = float(_resolve(args, "rtol", args.rtol, 1e-10))
    atol = float(_resolve(args, "atol", args.atol, 1e-12))
    grid = solve(params, u_max=u_max, points=points, spacing=spacing, rtol=rtol, atol=atol)
    _emit(_solution_lines(grid), args.out)
    if args.gnuplot:
        if args.out is None:
            raise UsageError("--gnuplot requires --out (the script must reference a file)")
        script = os.path.splitext(args.out)[0] + ".gp"
        with open(script, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_gnuplot_script(args.out) + "\n")
    return 0


def cmd_residual(args) -> int:
    params = _build_params(args)
    u_max = float(_resolve(args, "umax", args.umax, 50.0 * params.m))
    points = int(_resolve(args, "points", args.points, 201))
    rtol = float(_resolve(args, "rtol", args.rtol, 1e-10))
    atol = float(_resolve(args, "atol", args.atol, 1e-12))
    grid = solve(params, u_max=u_max, points=points, rtol=rtol, atol=atol)
    report = ide_residual(grid, params, np.linspace(0.0, u_max, points))
    lines = ["u,residual"]
    for i in range(len(report.u)):
        lines.append(f"{_fmt(report.u[i])},{_fmt(report.residual[i])}")
    lines.append(f"# sup_rel_residual = {_fmt(report.rel_sup)}")
    _emit(lines, args.out)
    return 0


def cmd_mc(args) -> int:
    params = _build_params(args)
    u_raw = _resolve(args, "u", args.u)
    if u_raw is None:
        raise UsageError("mc requires --u (one value or a comma-separated list)")
    try:
        u_values = [float(tok) for tok in str(u_raw).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --u value: {exc}") from exc
    n = int(_resolve(args, "n", args.n, 10000))
    T = _resolve(args, "T", args.T)
    dt = _resolve(args, "dt", args.dt)
    seed = _resolve(args, "seed", args.seed)
    if seed is None and "RUINLAB_SEED" in os.environ:
        seed = int(os.environ["RUINLAB_SEED"])
    lines = ["u,p_hat,stderr,n,T,dt,seed"]
    for u in u_values:
        est = mc_survival(
            params,
            u,
            n_paths=n,
            T=float(T) if T is not None else None,
            dt=float(dt) if dt is not None else None,
            seed=int(seed) if seed is not None else None,
        )
        lines.append(
            f"{_fmt(est.u)},{_fmt(est.p_hat)},{_fmt(est.stderr)},"
            f"{est.n_paths},{_fmt(est.T)},{_fmt(est.dt)},{est.seed}"
        )
    _emit(lines, args.out)
    return 0


def cmd_presets(args) -> int:
    rows = [("name", "a", "b", "c", "lambda", "m", "landmark")]
    for s in PRESETS.values():
        p = s.params
        rows.append(
            (s.name, _fmt(p.a), _fmt(p.b), _fmt(p.c), _fmt(p.lam), _fmt(p.m), s.landmark)
        )
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    for r in rows:
        head = "  ".join(r[i].ljust(widths[i]) for i in range(6))
        sys.stdout.write(f"{head}  {r[6]}\n")
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named scenario (see the presets command)")
    p.add_argument("--config", help="key=value file; flags override it")
    p.add_argument("--a", type=float, help="expected risky return")
    p.add_argument("--b", type=float, help="volatility")
    p.add_argument("--c", type=float, help="premium rate")
    p.add_argument("--lambda", dest="lam", type=float, help="claim intensity")
    p.add_argument("--m", type=float, help="mean claim size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinlab",
        description="Survival probabilities for the Cramer-Lundberg model with investment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and emit the solution as CSV")
    _add_param_flags(p_solve)
    p_solve.add_argument("--umax", type=float, help="grid endpoint")
    p_solve.add_argument("--points", type=int, help="grid size")
    p_solve.add_argument("--spacing", choices=("uniform", "log"))
    p_solve.add_argument("--rtol", type=float)
    p_solve.add_argument("--atol", type=float)
    p_solve.add_argument("--out", help="write CSV here instead of stdout")
    p_solve.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    p_solve.set_defaults(func=cmd_solve)

    p_res = sub.add_parser("residual", help="solve, then check the equation residual")
    _add_param_flags(p_res)
    p_res.add_argument("--umax", type=float)
    p_res.add_argument("--points", type=int)
    p_res.add_argument("--rtol", type=float)
    p_res.add_argument("--atol", type=float)
    p_res.add_argument("--out")
    p_res.set_defaults(func=cmd_residual)

    p_mc = sub.add_parser("mc", help="Monte Carlo survival estimate")
    _add_param_flags(p_mc)
    p_mc.add_argument("--u", help="initial surplus (comma-separated list allowed)")
    p_mc.add_argument("--n", type=int, help="number of paths")
    p_mc.add_argument("--T", type=float, help="time horizon")
    p_mc.add_argument("--dt", type=float, help="time step bound (b > 0 only)")
    p_mc.add_argument("--seed", type=int, help="RNG seed (default: RUINLAB_SEED env)")
    p_mc.add_argument("--out")
    p_mc.set_defaults(func=cmd_mc)

    p_list = sub.add_parser("presets", help="list built-in scenarios")
    p_list.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is not cmd_presets:
            _prepare(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except RuinlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
