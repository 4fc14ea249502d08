import importlib
import logging
import os
import subprocess
import sys
from pathlib import Path

import ruinlab
from ruinlab.odes import Trajectory
from ruinlab.solution import SolutionGrid

# solve every preset with scipy and mpmath made unimportable
_SCRIPT = """
import sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
import ruinlab
for name, scenario in ruinlab.PRESETS.items():
    grid = ruinlab.solve(scenario.params)
    assert 0.0 <= grid.phi[-1] <= 1.0 + 1e-10, name
# its quadrature tables are written out and it logs only once logging is
# loaded: numpy.polynomial and logging cost 0.75 and 0.5 MB
assert "numpy.polynomial" not in sys.modules and "logging" not in sys.modules
print(len(ruinlab.PRESETS))
"""


def test_presets_solve_with_numpy_only():
    src = str(Path(ruinlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(len(ruinlab.PRESETS))


def test_solves_log_once_logging_is_loaded(caplog):
    with caplog.at_level(logging.INFO, logger="ruinlab"):
        ruinlab.solve(ruinlab.PRESETS["fig1-II"].params)
        ruinlab.solve(ruinlab.PRESETS["fig5-I"].params)
    names = {record.name for record in caplog.records}
    assert {"ruinlab.series", "ruinlab.solver", "ruinlab.capitalstock"} <= names


# the attributes perfbench/tracer.py ``Tracer.install`` replaces in place; a
# renamed or removed binding would otherwise show only in the benchmark's tests
_PATCH_POINTS = {
    "ruinlab": ("solve", "ide_residual", "mc_survival"),
    "ruinlab.cli": ("solve", "ide_residual", "mc_survival", "main"),
    "ruinlab.solver": (
        "integrate",
        "main_ode_field",
        "solve_main",
        "series_coeffs_main",
        "eval_series",
        "classical_exact",
        "riskfree_exact",
    ),
    "ruinlab.verify": ("integrate", "companion_volterra_field"),
    "ruinlab.odes": ("integrate", "eta_ode_field"),
    "ruinlab.capitalstock": ("phi_capital_stock", "solve_eta"),
    "ruinlab.closedform": ("upper_incomplete_gamma",),
}


def test_benchmark_patch_points_exist():
    for module, names in _PATCH_POINTS.items():
        namespace = vars(importlib.import_module(module))
        missing = [name for name in names if name not in namespace]
        assert not missing, (module, missing)
    assert "evaluate" in vars(SolutionGrid)
    assert "__call__" in vars(Trajectory)
