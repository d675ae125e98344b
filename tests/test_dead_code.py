"""No orphans in src/sampstab: every import is used, and every module-level
private function, class or constant is referenced by some other line of the
package.  No orphans in tests/conftest.py either: every top-level helper is
used by a test module or another helper, every fixture is a test's parameter.
No stale names either: every private name that a src docstring or comment
names, and every module._name in README.md, is defined in src.  A deletion
that leaves a helper, an oracle, a constant, an import or a mention behind
fails here.  Only the search and the GramianBundle constructor decompose a
Gramian."""

import ast
import io
import re
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sampstab"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
MODULES = {name: ast.parse(text, name) for name, text in SOURCES.items()}
# A private name, _name or module._name.  A name glued to a word or to a norm's
# bars (G_r, ||A||_inf) and a subscript such as _1 are not names.
PRIVATE = re.compile(r"(?<![\w|])(?:(\w+)\.)?(_[A-Za-z]\w*)")


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


def _defined_anywhere(tree) -> set[str]:
    """Names a module defines at any depth: defs, classes, assigned names,
    arguments and import aliases."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias) and node.asname:
            out.add(node.asname)
    return out


def _stale(text: str, where: str, anywhere: set[str], qualified_only: bool) -> list[str]:
    """'where name' for each private name of text that src does not define
    (anywhere holds its names): a module._name must be a module-level private
    name of that src module."""
    out = []
    for match in PRIVATE.finditer(text):
        module, name = match.groups()
        if name.startswith("__"):
            continue
        if f"{module}.py" in MODULES:
            ok = name in {d for d, _, _ in _private_definitions(MODULES[f"{module}.py"])}
        elif qualified_only:
            continue
        else:
            ok = name in anywhere
        if not ok:
            out.append(f"{where} {match.group(0)}")
    return out


def test_every_named_private_name_is_defined():
    texts = []
    for module, text in SOURCES.items():
        texts += [(module, ast.get_docstring(node, clean=False))
                  for node in ast.walk(MODULES[module]) if isinstance(
                      node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
        texts += [(module, tok.string)
                  for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                  if tok.type == tokenize.COMMENT]
    anywhere = set().union(*map(_defined_anywhere, MODULES.values()))
    stale = [entry for module, text in texts if text
             for entry in _stale(text, module, anywhere, qualified_only=False)]
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    assert stale + _stale(readme, "README.md", anywhere, qualified_only=True) == []


def _call_sites(node, callee: str, scope: str) -> list[str]:
    """The qualified name of the def or class around each call of callee under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        func = getattr(child, "func", None)
        if isinstance(child, ast.Call) and getattr(func, "id", getattr(func, "attr", "")) == callee:
            out.append(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        out += _call_sites(child, callee, f"{scope}.{child.name}" if named else scope)
    return out


def test_gramians_are_decomposed_in_two_places():
    # Horizon sources yield raw (R, G): _search decomposes a stacked horizon,
    # the GramianBundle constructor a one-period bundle, and nothing else does.
    sites = [site for module, tree in MODULES.items()
             for site in _call_sites(tree, "_decompose", module.removesuffix(".py"))]
    assert sorted(sites) == ["obscheck.GramianBundle.__post_init__", "obscheck._search"]
