"""Every module-level private name of a library module is referenced.

A private function, class or constant (`_name`, not a dunder) defined at the
top level of `src/pqsys/*.py` must be read somewhere in the library or the
tests: as a name, as an attribute or in a `from ... import`.  A helper left
behind by a refactor fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pqsys"
MODULES = sorted(SRC.glob("*.py"))


def defined_private_names(tree: ast.Module) -> dict[str, int]:
    """The private names bound by the module's top-level definitions and
    assignments, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def referenced_names(trees) -> set[str]:
    """Every name read, every attribute taken and every name imported by
    `from ... import` in the given modules."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


@pytest.fixture(scope="module")
def references():
    paths = [*MODULES, *sorted((ROOT / "tests").glob("*.py"))]
    return referenced_names(ast.parse(p.read_text(encoding="utf-8")) for p in paths)


def test_referenced_names_skip_assignment_targets():
    tree = ast.parse("_A = 1\n_B = _A\n")
    assert defined_private_names(tree) == {"_A": 1, "_B": 2}
    assert referenced_names([tree]) == {"_A"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_private_name_is_referenced(path, references):
    defined = defined_private_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = {name: line for name, line in defined.items() if name not in references}
    assert not unused, f"{path.name}: unreferenced private names {unused}"
