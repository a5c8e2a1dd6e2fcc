"""The library takes a spectral norm in one place: every np.linalg.norm call
with ord 2 in src/pqsys lies inside `opcore.operator_norm`, which the
recorded-residual rule `opcore.gap` and the verdict `opcore.norm_at_most`
call only where a Frobenius bracket leaves the answer open."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pqsys"


def _is_linalg_norm(func: ast.expr) -> bool:
    """np.linalg.norm, numpy.linalg.norm or linalg.norm."""
    return (isinstance(func, ast.Attribute) and func.attr == "norm"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg")


def _ord(call: ast.Call) -> ast.expr | None:
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "ord"), None)


def _may_be_two(node: ast.expr | None) -> bool:
    """Whether an ord argument can be 2: a literal 2, or anything not a literal."""
    if node is None:
        return False
    return not isinstance(node, ast.Constant) or node.value == 2


def spectral_norm_calls(path: Path) -> list[tuple[str, int]]:
    """(enclosing function, line) of every np.linalg.norm call whose ord may be 2."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call) and _is_linalg_norm(child.func) and _may_be_two(_ord(child)):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_spectral_norms_are_taken_only_by_operator_norm():
    calls = {f"{path.name}:{line} in {scope}": scope
             for path in sorted(SRC.glob("*.py")) for scope, line in spectral_norm_calls(path)}
    assert list(calls.values()) == ["operator_norm"], calls


def test_the_rule_sees_positional_keyword_and_computed_ord(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "def f(M, k):\n"
                   "    a = np.linalg.norm(M, 2)\n"
                   "    b = np.linalg.norm(M, ord=2, axis=(1, 2))\n"
                   "    c = np.linalg.norm(M, k)\n"
                   "    d = np.linalg.norm(M) + np.linalg.norm(M, 'fro') + np.linalg.norm(M, ord=1)\n"
                   "    return a, b, c, d\n")
    assert spectral_norm_calls(src) == [("f", 3), ("f", 4), ("f", 5)]
