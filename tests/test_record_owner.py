"""One owner for each of a system's records.

Every key of `PartitionedContraction.cached` in the library (a string, or
the literal prefix of an f-string) is written by exactly one module.  The
constructions that hold a factorization (`param.assemble`,
`realize.biinner_dilation`) hand it to `sysmodel.seed_records`, so they name
no `sysmodel` key and import neither of its record formats
(`_spectral_parts`, `KrylovRecord`).  Each channel parameter has one implementation,
`sysmodel.channel_M` and `sysmodel.channel_K`, which `parametrize`,
`check_minimality_normal` and `inner_canonical_form` (K only) call."""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pqsys
from pqsys import param, realize, sysmodel

from helpers import pqs_from_spectrum

SRC = Path(pqsys.__file__).parent
FORMATS = {"_spectral_parts", "KrylovRecord"}


def cache_keys(tree: ast.Module) -> list[str | None]:
    """The key of every `.cached(...)` call: a string, the literal prefix of
    an f-string, or None for any other first argument."""
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cached":
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                keys.append(arg.value)
            elif isinstance(arg, ast.JoinedStr) and arg.values and isinstance(arg.values[0], ast.Constant):
                keys.append(arg.values[0].value)
            else:
                keys.append(None)
    return keys


@pytest.fixture(scope="module")
def writers() -> dict[str, set[str]]:
    found = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for key in cache_keys(ast.parse(path.read_text(encoding="utf-8"))):
            found[key].add(path.stem)
    return found


def test_the_key_reader_takes_strings_and_f_string_prefixes():
    tree = ast.parse('tau.cached("a", t, f)\ntau.cached(f"b:{g!r}", t, f)\ntau.cached(name, t, f)\n')
    assert cache_keys(tree) == ["a", "b:", None]


def test_every_cache_key_is_written_by_one_module(writers):
    assert None not in writers, f"a cache key that is no literal, in {writers.get(None)}"
    shared = {key: sorted(mods) for key, mods in writers.items() if len(mods) != 1}
    assert not shared, f"cache keys written by more than one module: {shared}"
    assert {"spectral", "defects", "krylov"} <= {key for key, mods in writers.items() if mods == {"sysmodel"}}


@pytest.mark.parametrize("name", ["param", "realize"])
def test_constructions_name_no_sysmodel_key_and_import_no_record_format(writers, name):
    keys = {key for key, mods in writers.items() if mods == {"sysmodel"}}
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert node.value not in keys, f"{name}.py names the sysmodel key {node.value!r}"
        elif isinstance(node, ast.ImportFrom):
            assert not FORMATS & {alias.name for alias in node.names}, f"{name}.py imports a record format"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in FORMATS, f"{name}.py reads sysmodel.{node.attr}"


def test_seeded_constructions_share_their_source_records():
    rng = np.random.default_rng(70)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 12), 2), 2, 2, 12)
    p = param.parametrize(tau)
    twin = param.assemble(p)
    # the assembled system takes the parameters' factorization and defect data
    assert sysmodel.main_defect_data(twin) is p.defects
    assert np.array_equal(sysmodel.spectral_data(twin).V, p.defects.E_A)
    big = realize.biinner_dilation(tau).system
    assert sysmodel.main_defect_data(big) is sysmodel.main_defect_data(tau)
    assert sysmodel.spectral_data(big).t is sysmodel.spectral_data(tau).t
    assert sysmodel.krylov_record(big)[:3] == (big.state_dim,) * 3


def test_the_channel_parameters_have_one_implementation(monkeypatch):
    rng = np.random.default_rng(71)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 10), 2), 2, 2, 10)
    big = realize.biinner_dilation(tau).system
    dd = sysmodel.main_defect_data(tau)
    M, K = sysmodel.channel_M(tau, dd), sysmodel.channel_K(tau, dd)
    # B = D_{A*} M and C = K D_A in the defect bases
    assert np.allclose(dd.E_As @ (dd.d_As[:, None] * M), tau.B, atol=1e-12)
    assert np.allclose((K * dd.d_A) @ dd.E_A.conj().T, tau.C, atol=1e-12)
    calls = []
    for name in ("channel_M", "channel_K"):
        real = getattr(sysmodel, name)
        monkeypatch.setattr(sysmodel, name, lambda t, d, _r=real, _n=name: calls.append((_n, t)) or _r(t, d))
        monkeypatch.setattr(param, name, getattr(sysmodel, name))
    fresh = pqsys.PartitionedContraction(tau.T, 2, 2, 10)
    p = param.parametrize(fresh)
    sysmodel.check_minimality_normal(fresh)
    realize.inner_canonical_form(big)
    want = [("channel_M", fresh), ("channel_K", fresh)] * 2 + [("channel_K", big)]
    assert [n for n, _ in calls] == [n for n, _ in want]
    assert all(t is w for (_, t), (_, w) in zip(calls, want))
    assert np.array_equal(p.M, M) and np.array_equal(p.K, K)
    assert not (p.M.flags.writeable or p.K.flags.writeable)
