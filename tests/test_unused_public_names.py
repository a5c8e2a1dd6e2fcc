"""Every name the package exports is used.

A name of `pqsys.__all__` must be read somewhere outside the package's
`__init__`: in another library module, a test, a demo or the benchmark, as a
name, as an attribute or in a `from ... import` (the rule of
`test_unused_private_names`).  Its own definition is no use; an export that
only a deleted code path needed fails here."""

import ast
from pathlib import Path

import pytest

import pqsys
from test_unused_private_names import referenced_names

ROOT = Path(__file__).resolve().parent.parent
USERS = [p for p in sorted((ROOT / "src" / "pqsys").glob("*.py")) if p.name != "__init__.py"]
USERS += [p for d in ("tests", "demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]


@pytest.fixture(scope="module")
def references():
    return referenced_names(ast.parse(p.read_text(encoding="utf-8")) for p in USERS)


def test_a_definition_alone_is_no_use():
    assert referenced_names([ast.parse("class Unused(Exception):\n    pass\n")]) == {"Exception"}


def test_every_exported_name_is_used(references):
    unused = sorted(name for name in pqsys.__all__ if name not in references)
    assert not unused, f"exported names used nowhere outside pqsys/__init__.py: {unused}"
