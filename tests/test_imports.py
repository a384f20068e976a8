"""No path of the library loads scipy, which is a test-only dependency.

Importing the package, the CLI paths in closed form or linear algebra, every
scan (whose hypercube and Nelder-Mead simplex are in-house) and the RK45
routes (whose Dormand-Prince integrator is in-house) load no scipy module.
Importing the package and building an engine load no numpy either, until the
first array, and compile no simplex step loop.  Each check runs in a new
isolated interpreter, because this test process has scipy and numpy loaded
already; one runs with scipy made unimportable.  The last two tests check,
in process, that every exported name resolves and that the library itself
reads it.
"""

import ast
import importlib
import json
import pkgutil
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


def _run(body, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _PRELUDE + body, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_modules_after(body, tmp_path):
    return set(json.loads(_run(body + _REPORT, tmp_path).splitlines()[-1]))


def test_numpy_loads_at_the_first_array(tmp_path):
    # importing, building a Hamiltonian or an engine, the closed form,
    # theta_from_delta and --version load no numpy; the first array rebinds
    # every module's np
    body = """
def no_numpy(step):
    assert "numpy" not in sys.modules, f"{step} loaded numpy"

no_numpy("import nhlgi, nhlgi.cli")
h = nhlgi.NHHamiltonian.canonical(1.2)
no_numpy("NHHamiltonian.canonical")
nhlgi.CorrelatorEngine(h)
no_numpy("CorrelatorEngine(h)")
nhlgi.CorrelatorEngine(h, 0.1)
no_numpy("CorrelatorEngine(h, 0.1)")
# the simplex's step loop is compiled at the first search, not at import
assert nhlgi.scan._step_loop.cache_info().currsize == 0
nhlgi.k3_closed_form(1.2, 0.5)
no_numpy("k3_closed_form")
nhlgi.theta_from_delta(1e-3)
no_numpy("theta_from_delta")
try:
    nhlgi.cli.main(["--version"])
except SystemExit as exit:
    assert exit.code == 0, exit.code
else:
    raise AssertionError("--version did not exit")
no_numpy("--version")

nhlgi.up_y()
import numpy
stale = [
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "nhlgi" and hasattr(module, "np") and module.np is not numpy
]
assert stale == [], stale
assert nhlgi.SIGMA_X is nhlgi.qmat.SIGMA_X
"""
    _run(body, tmp_path)


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


def test_scans_load_no_scipy(tmp_path):
    body = """
nhlgi.maximize_k3(1.0, budget=576)
nhlgi.maximize_k3(1.0, kappa=0.3, budget=576)
nhlgi.maximize_speed(1.0, budget=576)
nhlgi.k3max_vs_noise(1.2, kappa_grid=(1e-3, 1e-1), budget=576)
for args in (
    ["scan", "--theta", "0.5", "--budget", "576"],
    ["noisescan", "--theta", "1.2", "--kappa", "0,0.1", "--budget", "576"],
):
    assert nhlgi.cli.main(args + ["--out", f"{out}/{args[0]}.csv"]) == 0, args
"""
    assert _scipy_modules_after(body, tmp_path) == set()


def test_rk45_does_not_load_scipy_stats(tmp_path):
    # The RK45 route, the noisy density flow and ``nhlgi trajectory`` load no
    # scipy module at all, scipy.stats included.
    body = """
assert nhlgi.cli.main(["trajectory", "--theta", "1.2", "--tmax", "1.0", "--step", "0.1",
                       "--out", f"{out}/trajectory.csv"]) == 0
h = nhlgi.NHHamiltonian.canonical(0.9)
nhlgi.integrate_bloch(nhlgi.bloch_of_pure(nhlgi.up_y()), h, 0.1, [0.0, 1.0])
nhlgi.evolve_density_noisy(h, nhlgi.projector(nhlgi.up_y()), 0.1, 1.0)
"""
    assert _scipy_modules_after(body, tmp_path) == set()


def test_rk45_routes_run_without_scipy(tmp_path):
    # With scipy unimportable, ``nhlgi trajectory`` (exact propagators) and
    # the criteria of ``nhlgi check`` that run RK45 on the Bloch flow (6 and
    # 7, and 8 against the noisy lift) still run and pass.
    code = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import nhlgi.cli
out = sys.argv[2]
assert nhlgi.cli.main(["trajectory", "--theta", "1.2", "--kappa", "0.01",
                       "--out", f"{out}/trajectory.csv"]) == 0
assert nhlgi.cli.main(["check", "--only", "6,7,8"]) == 0
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 3, proc.stdout


def test_every_exported_name_resolves():
    # each name in the package's and every submodule's ``__all__`` is bound
    import nhlgi

    names = [m.name for m in pkgutil.iter_modules(nhlgi.__path__)]
    submodules = [importlib.import_module(f"nhlgi.{name}") for name in names]
    assert len(submodules) >= 8
    for module in (nhlgi, *submodules):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


# Exported names that no library module reads, each with the reason it stays.
_UNREAD_EXPORTS = {
    "LUDER_BOUND": "the paper's Hermitian bound on K3, which README and the tests read",
}


def test_every_exported_name_is_read_by_the_library():
    # each name in the package's and every submodule's ``__all__`` is read,
    # as a name or an attribute, by some module of the package other than
    # ``__init__``; an export the library never calls must be removed or
    # listed above with its reason
    import nhlgi

    names = [m.name for m in pkgutil.iter_modules(nhlgi.__path__)]
    modules = [importlib.import_module(f"nhlgi.{name}") for name in names]
    read = set()
    for module in modules:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    exported = {name for module in (nhlgi, *modules) for name in module.__all__}
    assert sorted(exported - read) == sorted(_UNREAD_EXPORTS)
