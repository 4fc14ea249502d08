"""One digest of every Taylor trajectory the package's solves produce.

Run from the repository root:  python3 tests/trajectory_digest.py [--list] [--root DIR]

Solves the ten presets and the points of ``perfbench/sweep.py``
``generate(1)`` to ``generate(5)`` with ``solve`` defaults, integrates eta
with ``solve_eta`` on fig5-I and fig5-II out to u = 50, and steps the
Volterra companion for three inputs.  Prints the number of solves,
integrations and steps, and one sha256 over every trajectory's ``us``,
``states`` and ``coef``, phi, C0 and (on the capital stock) P1 of each
solve, and the type and message of each solve that raises.  Each
capital-stock solve is also evaluated beyond its grid, which reads bands
the grid does not: as an array on 257 points of its span and on its band
edges, then as scalars on the edges from the last down.  Two commits that
print the same line on the same machine step every equation and evaluate
every solution to the same bits.  It is not collected by pytest and takes
about a second.

``--list`` also prints one line per solve, before the digest: its label,
U, the rule that set U (main route), its Taylor steps and a sha256 over
its trajectories, phi, C0 and P1 (and, on the capital stock, its values
beyond the grid).  ``--root DIR`` imports ``ruinlab`` and the sweep from
the checkout at DIR instead of this one, so that a diff of two listings
names the solves that two commits compute differently.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ARGS = argparse.ArgumentParser(description=__doc__.split("\n")[0])
ARGS.add_argument("--list", action="store_true", help="one line per solve before the digest")
ARGS.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
OPTIONS = ARGS.parse_args()
sys.path.insert(0, str(OPTIONS.root / "src"))
sys.path.insert(0, str(OPTIONS.root / "perfbench"))
import ruinlab  # noqa: E402
import sweep  # noqa: E402
from ruinlab import capitalstock, odes, solver  # noqa: E402

SEEDS = range(1, 6)
ETA_PRESETS = ("fig5-I", "fig5-II")
# phi's polynomial coefficients for the companion, as in tests/test_odes.py
COMPANION_INPUTS = ((0.0,), (1.0,), (0.0, 1.0))
COMPANION_PARAMS = ruinlab.ModelParams(a=0.02, b=0.1, c=0.1, lam=0.09, m=1.0)


class Digest:
    def __init__(self):
        self._integrate = odes.integrate
        self.sha = hashlib.sha256()
        self.solves = self.integrations = self.steps = 0
        # the solve under way: its own sha256 and steps
        self.one, self.one_steps = hashlib.sha256(), 0

    def add(self, tag: str, *arrays) -> None:
        for sha in (self.sha, self.one):
            sha.update(tag.encode())
            for x in arrays:
                x = np.ascontiguousarray(x, dtype=float)
                sha.update(repr(x.shape).encode())
                sha.update(x.tobytes())

    def integrate(self, *args, **kwargs):
        traj = self._integrate(*args, **kwargs)
        self.integrations += 1
        self.steps += len(traj.us) - 1
        self.one_steps += len(traj.us) - 1
        self.add(f"trajectory {traj.name}", traj.us, traj.states, traj.coef)
        return traj

    def solve(self, label: str, params) -> None:
        self.solves += 1
        self.one, self.one_steps = hashlib.sha256(), 0
        try:
            grid = ruinlab.solve(params)
        except ruinlab.RuinlabError as exc:
            self.add(f"{label} {type(exc).__name__}: {exc}")
            self.line(label, f"{type(exc).__name__}: {exc}")
            return
        diag = grid.diagnostics
        norm = [grid.C0, diag.get("P1", np.nan)]
        self.add(f"{label} {grid.regime.regime.value}", grid.u, grid.phi, norm)
        if grid.regime.regime is ruinlab.Regime.CAPITAL_STOCK:
            # past the grid too: points that cross every band out to the span's end
            edges = np.array(diag["edges"])
            us = np.concatenate((np.linspace(0.0, grid.span[1], 257), edges))
            self.add(f"{label} beyond the grid", *grid.evaluate(us))
            self.add(f"{label} edges", [grid.evaluate(u) for u in edges[::-1].tolist()])
        # a commit without the flat-tail rule set each main U where the series truncates
        main = grid.regime.regime is ruinlab.Regime.MAIN
        rule = diag.get("U_rule", "truncates" if main else "-")
        self.line(label, f"U={diag.get('U', np.nan):.17g} rule={rule}")

    def line(self, label: str, what: str) -> None:
        if OPTIONS.list:
            print(f"{label} {what} steps={self.one_steps} sha256={self.one.hexdigest()}")


def main() -> None:
    digest = Digest()
    # the solver imports integrate by name; capitalstock and this script
    # read it from odes at call time
    solver.integrate = odes.integrate = digest.integrate
    for name, scenario in ruinlab.PRESETS.items():
        digest.solve(name, scenario.params)
    for seed in SEEDS:
        for i, point in enumerate(sweep.generate(seed)):
            params = ruinlab.ModelParams(**{k: point[k] for k in ("a", "b", "c", "lam", "m")})
            digest.solve(f"sweep {seed}[{i}]", params)
    for name in ETA_PRESETS:
        capitalstock.solve_eta(ruinlab.PRESETS[name].params, 50.0)
    for phi in COMPANION_INPUTS:
        field = odes.companion_volterra_field(COMPANION_PARAMS, phi)
        odes.integrate(field, 0.0, [0.0], 5.0, rtol=1e-11)
    print(
        f"{digest.solves} solves, {digest.integrations} integrations, {digest.steps} steps, "
        f"sha256 {digest.sha.hexdigest()}"
    )


if __name__ == "__main__":
    main()
