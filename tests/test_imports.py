"""Which scipy modules a fresh interpreter loads.

scipy is imported on first use only: ``scipy.optimize`` by the scans'
Nelder-Mead restarts and ``scipy.integrate`` by RK45.  Importing the package
and the CLI paths in closed form or linear algebra load no scipy at all, and
no path loads ``scipy.stats``.  Each check runs in a new isolated
interpreter, because this test process has scipy loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PRELUDE = """
import json, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
import nhlgi, nhlgi.cli
"""

_REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(body, tmp_path):
    code = _PRELUDE + body + _REPORT
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_and_closed_form_commands_load_no_scipy(tmp_path):
    body = """
nhlgi.CorrelatorEngine(nhlgi.NHHamiltonian.canonical(1.2), 0.1)
for args in (
    ["lgi", "--theta", "0.9", "--tmax", "1.2", "--step", "0.2"],
    ["noise", "--theta", "1.1", "--kappa", "0,0.3", "--tmax", "0.6", "--step", "0.2"],
    ["embed", "--delta", "0.3", "--tmax", "1.5", "--step", "0.5"],
    ["speed", "--theta", "0.8", "--tmax", "1.0", "--step", "0.25"],
    ["distance", "--theta", "0,1.2", "--tmax", "1.5708", "--step", "0.5"],
):
    assert nhlgi.cli.main(args + ["--out", f"{out}/{args[0]}.csv"]) == 0, args
"""
    assert _scipy_modules_after(body, tmp_path) == set()


def test_scan_and_rk45_do_not_load_scipy_stats(tmp_path):
    body = """
nhlgi.maximize_k3(1.0, budget=576)
assert nhlgi.cli.main(["trajectory", "--theta", "1.2", "--tmax", "1.0", "--step", "0.1",
                       "--out", f"{out}/trajectory.csv"]) == 0
"""
    loaded = _scipy_modules_after(body, tmp_path)
    # The two paths that need scipy did load it, so the check is not vacuous.
    assert {"scipy.optimize", "scipy.integrate"} <= loaded
    assert "scipy.stats" not in loaded
