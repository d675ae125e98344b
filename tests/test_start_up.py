"""Start-up cost: scipy.linalg is imported by the first dense operator, not by the CLI.

Importing it takes about 0.3 s, more than half of a CLI call's start-up, and
no spectral command uses it.  The subprocess tests run each command in a fresh
interpreter, so a module imported by any earlier test cannot hide a regression.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sampstab as st

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
    """stdout of code run by a fresh interpreter with the package on its path."""
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
    "simulate --example schrodinger --modes 8 --T 1 --horizon 4 --loop cc",
    "witness --T 1 --N 2 --epsilon 0.01 --support-points 64",
    # A stacked sweep of a spectral system: its generalized eigenvalue step
    # serves only a non-trivial dense kernel.
    "sweep --example frac-heat --modes 64 --sweep 0.5:2:0.5",
    "sweep --example schrodinger --modes 16 --sweep 0.5:2:0.5",
])
def test_spectral_commands_leave_scipy_linalg_unloaded(argv, tmp_path):
    # The report reads scipy's version, so the bare package may be loaded.
    code = ("import sys; from sampstab.cli import main; "
            f"assert main({argv.split() + ['--out', str(tmp_path)]!r}) == 0; "
            f"print({_LOADED.format('scipy.linalg')})")
    assert _fresh(code) == "[]"


def test_a_dense_operator_loads_scipy_expm(tmp_path):
    code = ("import sys; from sampstab import cli, closedloop, linsys; "
            f"assert cli.main(['analyze', '--example', 'oscillator', '--T', '1', "
            f"'--out', {str(tmp_path)!r}]) == 0; "
            "loaded = 'scipy.linalg' in sys.modules; import scipy.linalg; "
            "print(loaded, 'expm' in vars(linsys), "
            "linsys.expm is scipy.linalg.expm, closedloop.expm is scipy.linalg.expm)")
    assert _fresh(code) == "True True True True"
