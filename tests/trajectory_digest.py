"""One digest of every Taylor trajectory the package's solves produce.

Run from the repository root:  python3 tests/trajectory_digest.py

Solves the ten presets and the points of ``perfbench/sweep.py``
``generate(1)`` to ``generate(5)`` with ``solve`` defaults, integrates eta
with ``solve_eta`` on fig5-I and fig5-II out to u = 50, and steps the
Volterra companion for three inputs.  Prints the number of solves,
integrations and steps, and one sha256 over every trajectory's ``us``,
``states`` and ``coef``, phi, C0 and (on the capital stock) P1 of each
solve, and the type and message of each solve that raises.  Two commits
that print the same line on the same machine step every equation to the
same bits.  It is not collected by pytest and takes about a second.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
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

    def add(self, tag: str, *arrays) -> None:
        self.sha.update(tag.encode())
        for x in arrays:
            x = np.ascontiguousarray(x, dtype=float)
            self.sha.update(repr(x.shape).encode())
            self.sha.update(x.tobytes())

    def integrate(self, *args, **kwargs):
        traj = self._integrate(*args, **kwargs)
        self.integrations += 1
        self.steps += len(traj.us) - 1
        self.add(f"trajectory {traj.name}", traj.us, traj.states, traj.coef)
        return traj

    def solve(self, label: str, params) -> None:
        self.solves += 1
        try:
            grid = ruinlab.solve(params)
        except ruinlab.RuinlabError as exc:
            self.add(f"{label} {type(exc).__name__}: {exc}")
            return
        norm = [grid.C0, grid.diagnostics.get("P1", np.nan)]
        self.add(f"{label} {grid.regime.regime.value}", grid.u, grid.phi, norm)


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
