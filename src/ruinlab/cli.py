"""Command-line interface: solve / residual / mc / presets.

CSV output uses 12 significant digits, '.' decimal separator, LF line
endings.  Exit codes: 0 success, 2 usage error, 3 numerical failure.
A setting comes from, in order of precedence, its flag, a key=value
config file (--config), the preset (--preset, or the config's ``preset``
key) and the library's default: flag > config > preset > library default.
argparse layers them: the preset's parameters and then the config's values
become the command's defaults, converted by each flag's type; a config key
that names no flag of the command is ignored.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import RuinlabError
from .model import ModelParams, Regime
from .presets import PRESETS
from .solver import solve
from .verify import ide_residual, mc_survival

__all__ = ["main"]

_PARAMS = ("a", "b", "c", "lambda", "m")
# the library's keyword where it is not the flag's name
_KEYWORD = {"lambda": "lam", "umax": "u_max"}
# entries of a command's namespace that a config key may not set: argparse's
# own, and the switch --gnuplot, which no config string could turn off
_NOT_SETTINGS = ("command", "func", "gnuplot")


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


def _given(args, *keys) -> dict:
    """The values of ``keys`` that a flag, the config or the preset set, by
    the library's keyword."""
    return {_KEYWORD.get(k, k): v for k in keys if (v := vars(args)[k]) is not None}


def _build_params(args) -> ModelParams:
    for key in _PARAMS:
        if vars(args)[key] is None:
            raise UsageError(f"missing parameter --{key} (no preset/config supplies it)")
    return ModelParams(**_given(args, *_PARAMS))


class UsageError(Exception):
    pass


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
        lines.append(f"# log_K = {_fmt(grid.diagnostics['log_K'])}")
        lines.append(f"# exponent = {_fmt(grid.tail.exponent)}")
    for key in ("reason", "u0", "U", "U_rule", "tail_term", "rtol"):
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
    if args.gnuplot and args.out is None:
        raise UsageError("--gnuplot requires --out (the script must reference a file)")
    grid = solve(params, **_given(args, "umax", "points", "spacing", "rtol"))
    _emit(_solution_lines(grid), args.out)
    if args.gnuplot:
        script = os.path.splitext(args.out)[0] + ".gp"
        with open(script, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_gnuplot_script(args.out) + "\n")
    return 0


def cmd_residual(args) -> int:
    params = _build_params(args)
    grid = solve(params, **_given(args, "umax", "points", "rtol"))
    report = ide_residual(grid, params, grid.u)
    lines = ["u,residual"]
    for i in range(len(report.u)):
        lines.append(f"{_fmt(report.u[i])},{_fmt(report.residual[i])}")
    lines.append(f"# sup_rel_residual = {_fmt(report.rel_sup)}")
    _emit(lines, args.out)
    return 0


def cmd_mc(args) -> int:
    params = _build_params(args)
    if args.u is None:
        raise UsageError("mc requires --u (one value or a comma-separated list)")
    try:
        u_values = [float(tok) for tok in args.u.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --u value: {exc}") from exc
    lines = ["u,p_hat,stderr,n,T,dt,seed"]
    for u in u_values:
        est = mc_survival(params, u, n_paths=args.n, **_given(args, "T", "dt", "seed"))
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its commands' parsers by name, built per call: a
    command's ``set_defaults`` changes the flags it shares with the others."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="named scenario (see the presets command)")
    common.add_argument("--config", help="key=value file; flags override it")
    common.add_argument("--a", type=float, help="expected risky return")
    common.add_argument("--b", type=float, help="volatility")
    common.add_argument("--c", type=float, help="premium rate")
    common.add_argument("--lambda", type=float, help="claim intensity")
    common.add_argument("--m", type=float, help="mean claim size")
    common.add_argument("--out", help="write CSV here instead of stdout")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--umax", type=float, help="grid endpoint")
    grid.add_argument("--points", type=int, help="grid size")
    grid.add_argument("--rtol", type=float)

    parser = argparse.ArgumentParser(
        prog="ruinlab",
        description="Survival probabilities for the Cramer-Lundberg model with investment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[common, grid], help="solve and emit the solution as CSV"
    )
    p_solve.add_argument("--spacing", choices=("uniform", "log"))
    p_solve.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    p_solve.set_defaults(func=cmd_solve)

    p_res = sub.add_parser(
        "residual", parents=[common, grid], help="solve, then check the equation residual"
    )
    p_res.set_defaults(func=cmd_residual)

    p_mc = sub.add_parser("mc", parents=[common], help="Monte Carlo survival estimate")
    p_mc.add_argument("--u", help="initial surplus (comma-separated list allowed)")
    p_mc.add_argument("--n", type=int, default=10000, help="number of paths")
    p_mc.add_argument("--T", type=float, help="time horizon")
    p_mc.add_argument("--dt", type=float, help="time step bound (b > 0 only)")
    p_mc.add_argument("--seed", type=int, default=os.environ.get("RUINLAB_SEED"),
                      help="RNG seed (default: RUINLAB_SEED env)")
    p_mc.set_defaults(func=cmd_mc)

    p_list = sub.add_parser("presets", help="list built-in scenarios")
    p_list.set_defaults(func=cmd_presets)

    return parser, sub.choices


def _parse(argv):
    """Parse ``argv`` with the preset's parameters and then the config's
    values as the command's defaults."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "presets":
        return args
    config = _read_config(args.config) if args.config else {}
    name = args.preset or config.get("preset")
    command = commands[args.command]
    if name is not None:
        if name not in PRESETS:
            raise UsageError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
        p = PRESETS[name].params
        command.set_defaults(**dict(zip(_PARAMS, (p.a, p.b, p.c, p.lam, p.m))))
    settings = set(vars(args)).difference(_NOT_SETTINGS)
    command.set_defaults(**{k: v for k, v in config.items() if k in settings})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except RuinlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
