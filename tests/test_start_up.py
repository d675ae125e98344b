"""The program runs without scipy: numpy is its only runtime dependency.

Every command runs in one fresh interpreter in which every import of scipy or
of a scipy submodule fails, so neither a module imported by an earlier test
nor a function-local import can hide a dependency.  With scipy importable, no
module imports it when loaded, and the spectral commands load none of it, so a
fallback that uses scipy only where it is installed would show too.  scipy
serves the tests only, as an oracle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sampstab as st

from conftest import random_stable_system

PACKAGE = Path(st.__file__).resolve().parent


def _import_time_nodes(tree: ast.Module):
    """The nodes a module executes when it is imported: function bodies excluded."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _scipy_imports(source: str) -> list[str]:
    """Module-level imports of scipy or a scipy submodule, as source lines."""
    found = []
    for node in _import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            names = [node.args[0].value]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy_at_import_time(module):
    assert _scipy_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,caught", [
    ("import scipy", True),
    ("import numpy, scipy.linalg as sl", True),
    ("from scipy.linalg import expm", True),
    ("try:\n    from scipy import linalg\nexcept ImportError:\n    pass", True),
    ("class K:\n    import scipy", True),
    ("import importlib\nlinalg = importlib.import_module('scipy.linalg')", True),
    ("def f():\n    from scipy.linalg import expm", False),
    ("f = lambda: __import__('scipy')", False),
    ("import scipyx\nfrom . import scipy", False),
])
def test_the_import_scan_sees_module_level_imports(source, caught):
    assert bool(_scipy_imports(source)) is caught


def _fresh(code: str) -> str:
    """Last stdout line of code run by a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_LOADED = "sorted(m for m in sys.modules if m == {0!r} or m.startswith({0!r} + '.'))"


@pytest.mark.parametrize("package", ["sampstab", "sampstab.cli"])
def test_import_loads_no_scipy(package):
    assert _fresh(f"import sys, {package}; print({_LOADED.format('scipy')})") == "[]"


@pytest.mark.parametrize("argv", [
    "analyze --example frac-heat --modes 16 --T 1",
    "analyze --example schrodinger --modes 16 --T 1",
    "synthesize --example frac-heat --modes 16 --T 1",
    "simulate --example frac-heat --modes 8 --T 1 --horizon 4 --loop dp",
    # Under the sampled LQ gain only the dc loop of a Schroedinger truncation is
    # stable; its cc loop exits 4 on its spectral radius.
    "simulate --example schrodinger --modes 8 --T 1 --horizon 4 --loop dc",
    "witness --T 1 --N 2 --epsilon 0.01 --support-points 64",
    "sweep --example frac-heat --modes 64 --sweep 0.5:2:0.5",
    "sweep --example schrodinger --modes 16 --sweep 0.5:2:0.5",
])
def test_spectral_commands_leave_scipy_linalg_unloaded(argv, tmp_path):
    # No module reads scipy's version, so not even the bare package may be
    # loaded.
    code = ("import sys; from sampstab.cli import main; "
            f"assert main({argv.split() + ['--out', str(tmp_path)]!r}) == 0; "
            f"print({_LOADED.format('scipy')})")
    assert _fresh(code) == "[]"

# A None entry in sys.modules makes `import scipy`, `import scipy.linalg` and
# `from scipy.x import y` raise ImportError.
_RUN_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from sampstab.cli import main
codes = {}
for argv in json.loads(sys.argv[1]):
    try:
        codes[" ".join(argv)] = main(argv)
    except ImportError as exc:
        codes[" ".join(argv)] = repr(exc)
print(json.dumps(codes))
"""

_LOOPS = ("dc", "dp", "cp", "cc")
# Dense systems: the oscillator, and a system whose rank-one Gramian at
# N = 1, T = 1 has a two-dimensional kernel, so the closed-form constant
# takes the generalized eigenvalue step.  Spectral: frac-heat and schrodinger.
COMMANDS = [
    "analyze --example oscillator --T 1",
    "analyze --system {thin} --T 1",
    "synthesize --example oscillator --T 1",
    "synthesize --system {thin} --T 1",
    *(f"simulate --example oscillator --T 1 --horizon 4 --loop {loop}" for loop in _LOOPS),
    "sweep --example oscillator --sweep 0.5:2:0.5",
    "sweep --system {thin} --sweep 0.5:2:0.5",
    "example oscillator",
    "analyze --example frac-heat --modes 16 --T 1",
    "analyze --example schrodinger --modes 16 --T 1",
    "synthesize --example frac-heat --modes 16 --T 1",
    *(f"simulate --example frac-heat --modes 8 --T 1 --horizon 4 --loop {loop}"
      for loop in _LOOPS),
    "sweep --example frac-heat --modes 64 --sweep 0.5:2:0.5",
    "sweep --example schrodinger --modes 16 --sweep 0.5:2:0.5",
    "witness --T 1 --N 2 --epsilon 0.01 --support-points 64",
    "example frac-heat --modes 8",
]


def test_every_command_runs_without_scipy(tmp_path):
    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps(st.system_to_json(random_stable_system(3, n=3, m=1))))
    argvs = [[*c.format(thin=thin).split(), "--out", str(tmp_path / "out")] for c in COMMANDS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {" ".join(argv): 0 for argv in argvs}
