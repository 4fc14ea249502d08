import os
import subprocess
import sys
from pathlib import Path

import ruinlab

# solve every preset with scipy and mpmath made unimportable
_SCRIPT = """
import sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
import ruinlab
for name, scenario in ruinlab.PRESETS.items():
    grid = ruinlab.solve(scenario.params)
    assert 0.0 <= grid.phi[-1] <= 1.0 + 1e-10, name
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
