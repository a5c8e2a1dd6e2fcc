"""A system's defect record holds the factors of D_A and D_{A*} alone.

`opcore.defect_data` is the one place the library forms the two operators;
`sysmodel.main_defect_data`, `parametrize` and the records seeded from them
keep E_A, E_As, d_A, d_As and t, with DA = DAs = None.  An empty main
operator gets one record on both paths, and `pqsys eval` classifies the
system only for --func theta, whose Schur bound reads a class flag."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize, sysmodel, transfer
from pqsys.cli import main

from helpers import (ARCSINE_SYSTEM, GENERAL_SYSTEM, assert_same_factors, formed_defect, pqs_from_spectrum,
                     rand_passive_T)


def _system(kind, s=12, n=2, seed=4):
    rng = np.random.default_rng(seed)
    if kind == "general":
        T = rand_passive_T(rng, n, n, s)
    else:
        T = pqs_from_spectrum(rng, np.linspace(-0.9, 0.8, s), n, diagonal=kind == "diagonal")
    return pqsys.PartitionedContraction(T, n, n, s)


def _no_operators(dd):
    return dd.DA is None and dd.DAs is None


@pytest.mark.parametrize("kind", ["dense", "diagonal", "general"])
def test_a_systems_defect_record_holds_the_factors_alone(kind):
    tau = _system(kind)
    dd = sysmodel.main_defect_data(tau)
    assert _no_operators(dd)
    assert (sysmodel.spectral_data(tau) is None) == (kind == "general")
    assert (dd.t is None) == (kind == "general")
    # the factors are those of the bare matrix's data, and form its operators
    ref = opcore.defect_data(tau.A.copy())
    assert_same_factors(dd, ref)
    for E, d, D in ((dd.E_A, dd.d_A, ref.DA), (dd.E_As, dd.d_As, ref.DAs)):
        assert np.linalg.norm(formed_defect(E, d) - D, 2) <= 1e-13
    p = pqsys.parametrize(tau)
    assert p.defects is dd
    assert _no_operators(sysmodel.main_defect_data(pqsys.assemble(p)))


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_the_dilations_seeded_record_holds_the_factors_alone(kind):
    tau = _system(kind)
    big = realize.biinner_dilation(tau).system
    dd = sysmodel.main_defect_data(big)
    assert _no_operators(dd)
    assert_same_factors(dd, sysmodel.main_defect_data(tau))


def test_no_module_but_opcore_reads_the_operators():
    for path in sorted(Path(pqsys.__file__).parent.glob("*.py")):
        if path.stem != "opcore":
            attrs = {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute)}
            assert not attrs & {"DA", "DAs"}, path.name


def test_make_params_keeps_what_defect_data_returns():
    tau = _system("general")
    p = pqsys.parametrize(tau)
    q = pqsys.make_params(p.A, p.M, p.K, p.X)
    ref = opcore.defect_data(p.A)
    assert q.defects is ref and q.defects.DA is not None


def test_a_dense_selfadjoint_record_allocates_no_s_by_s_array():
    # with the factorization cached, the record is a view of its eigenvectors
    # and O(s) values: the former dense D_A cost two s x s complex arrays
    s = 400
    tau = _system("dense", s=s, n=1)
    assert sysmodel.spectral_data(tau) is not None
    tracemalloc.start()
    try:
        dd = sysmodel.main_defect_data(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _no_operators(dd) and dd.E_A.shape == (s, s)
    assert peak < s * s * 16


def test_an_empty_main_operator_has_one_record_on_both_paths():
    # the empty matrix is its own factorization (`_real_diagonal_eig`), for a
    # bare matrix and for a system without state alike
    A = np.zeros((0, 0))
    tau = pqsys.PartitionedContraction(np.array([[0.3 + 0.1j]]), 1, 1, 0)
    bare, record = opcore.defect_data(A), sysmodel.main_defect_data(tau)
    assert bare.t is not None and bare.t.shape == (0,)
    assert_same_factors(record, bare)
    assert _no_operators(record) and bare.DA.shape == (0, 0)
    for z in (0.3 + 0.2j, np.exp(0.7j)):
        got, want = transfer.char_func(tau, z), transfer.char_func(A, z)
        assert got.shape == want.shape == (0, 0) and got.dtype == want.dtype


# --func q classifies once inside `q_eval`, which takes only pqs systems
@pytest.mark.parametrize("func, args, classified", [
    ("char", ["--grid", "circle:8"], 0),
    ("q", ["--lambda", "2,0.5"], 1),
    ("theta", ["--grid", "disk:8"], 1),
])
@pytest.mark.parametrize("path", [GENERAL_SYSTEM, ARCSINE_SYSTEM], ids=["general", "arcsine"])
def test_eval_classifies_only_for_theta(monkeypatch, path, func, args, classified):
    calls = []
    classify = sysmodel.classify
    monkeypatch.setattr(sysmodel, "classify", lambda *a, **kw: calls.append(1) or classify(*a, **kw))
    main(["eval", str(path), "--func", func, *args])
    assert len(calls) == classified
