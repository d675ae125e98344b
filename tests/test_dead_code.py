"""No orphans in src/sampstab: every import is used, and every module-level
private function, class or constant is referenced by some other line of the
package.  No orphans in tests/conftest.py either: every top-level helper is
used by a test module or another helper, every fixture is a test's parameter.
A deletion that leaves a helper, an oracle, a constant or an import behind
fails here."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sampstab"
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _exports(tree) -> list[tuple[str, int]]:
    """(name, line) of each entry of the module's __all__."""
    return [(elt.value, node.lineno) for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts]


def _references(tree) -> list[tuple[str, int]]:
    """(name, line) of every name a module reads, takes as an attribute, imports or exports."""
    out = _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def _private_definitions(tree):
    """(name, first line, last line) of each module-level private def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for name, _ in _exports(tree)}  # a package's re-exports
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    references = {module: _references(tree) for module, tree in MODULES.items()}
    orphans = []
    for module, tree in MODULES.items():
        for name, first, last in _private_definitions(tree):
            if not any(ref == name and not (other == module and first <= line <= last)
                       for other, refs in references.items() for ref, line in refs):
                orphans.append(f"{module}:{first} {name}")
    assert orphans == []


def _is_fixture(node) -> bool:
    """True for a def decorated with pytest.fixture, called or not."""
    return any(isinstance(d, ast.Attribute) and d.attr == "fixture"
               for d in (getattr(dec, "func", dec) for dec in node.decorator_list))


def test_every_conftest_helper_is_used():
    conftest = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    tests = [ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(TESTS.glob("test_*.py"))]
    read = {name for tree in tests for name, _ in _references(tree)}
    parameters = {node.arg for tree in (*tests, conftest) for node in ast.walk(tree)
                  if isinstance(node, ast.arg)}
    in_conftest = _references(conftest)
    orphans = []
    for node in conftest.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _is_fixture(node):
            used = node.name in parameters
        else:
            used = node.name in read or any(
                ref == node.name and not node.lineno <= line <= node.end_lineno
                for ref, line in in_conftest)
        if not used:
            orphans.append(f"conftest.py:{node.lineno} {node.name}")
    assert orphans == []
