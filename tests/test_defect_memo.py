"""The one-slot memo of `opcore.defect_data`: a bare matrix is factored once
across `defect_data`, `char_func` and `char_defect_residuals`, an array
changed in place or other tolerances are factored again, results are
read-only, and nothing outlives the caller's array."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import pqsys
from pqsys import opcore, sysmodel, transfer

from helpers import linalg_calls, rand_contraction, rand_hermitian_contraction, rand_passive_T

S = 60
POINTS = (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j)


def non_normal(seed=41):
    A = rand_contraction(np.random.default_rng(seed), S, S, 0.9)
    assert not opcore.is_normal(A)
    return A


def hermitian(seed=42):
    A = rand_hermitian_contraction(np.random.default_rng(seed), S)
    return (A + A.conj().T) / 2


def grid_eval_calls(fresh):
    """grid_eval's sequence on one matrix: defect_data, char_func at two
    points, char_defect_residuals at a third; fresh() gives the argument of
    each call."""
    z1, z2, z3 = POINTS
    return (opcore.defect_data(fresh()), transfer.char_func(fresh(), z1),
            transfer.char_func(fresh(), z2), transfer.char_defect_residuals(fresh(), z3))


def assert_same_defects(got, want):
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


@pytest.mark.parametrize("kind, factor", [(non_normal, "svd"), (hermitian, "eigh")])
def test_grid_eval_sequence_factors_once(monkeypatch, kind, factor):
    A = kind()
    ref = grid_eval_calls(A.copy)   # a fresh copy for every call
    calls = linalg_calls(monkeypatch, factor, (S, S))
    got = grid_eval_calls(lambda: A)
    assert len(calls) == 1
    assert_same_defects(got[0], ref[0])
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
    assert got[3] == ref[3]
    assert opcore.defect_data(A) is got[0]
    assert len(calls) == 1


def test_an_array_changed_in_place_is_factored_again(monkeypatch):
    A = non_normal()
    first = opcore.defect_data(A)
    A[0, 0] *= 0.5   # still a contraction
    svds = linalg_calls(monkeypatch, "svd", (S, S))
    dd = opcore.defect_data(A)
    assert len(svds) == 1 and dd is not first
    assert_same_defects(dd, opcore.defect_data(A.copy()))
    assert np.array_equal(transfer.char_func(A, POINTS[0]), transfer.char_func(A.copy(), POINTS[0]))


def test_other_tolerances_are_factored_again(monkeypatch):
    A = non_normal()
    dd = opcore.defect_data(A)
    svds = linalg_calls(monkeypatch, "svd", (S, S))
    assert opcore.defect_data(A, pqsys.Tolerances()) is dd   # equal to DEFAULT_TOL
    assert svds == []
    other = opcore.defect_data(A, pqsys.Tolerances(eq_tol=1e-8))
    assert len(svds) == 1 and other is not dd
    assert opcore.defect_data(A) is not dd   # the slot holds the last result only
    assert len(svds) == 2


@pytest.mark.parametrize("kind", [non_normal, hermitian])
def test_returned_arrays_are_read_only(kind):
    for A in (kind(), kind().tolist()):
        dd = opcore.defect_data(A)
        for arr in dd:
            if arr is not None:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0


def test_list_and_one_dimensional_inputs(monkeypatch):
    A = non_normal()
    ref = opcore.defect_data(A.copy())
    svds = linalg_calls(monkeypatch, "svd", (S, S))
    rows = A.tolist()
    assert_same_defects(opcore.defect_data(rows), ref)
    assert_same_defects(opcore.defect_data(rows), ref)
    assert len(svds) == 2   # a list cannot be referenced weakly: no memo
    col = np.array([0.3, 0.4j, -0.2])
    dd = opcore.defect_data(col)
    assert dd.DA.shape == (1, 1) and dd.DAs.shape == (3, 3)
    assert abs(dd.DA[0, 0] - np.sqrt(1 - np.vdot(col, col).real)) < 1e-15
    assert opcore.defect_data(col) is dd
    assert_same_defects(dd, opcore.defect_data(col.reshape(-1, 1).copy()))


def test_nothing_outlives_the_callers_array():
    A = non_normal()
    dd = opcore.defect_data(A)
    da = weakref.ref(dd.DA)
    del A
    gc.collect()
    assert opcore._defect_slot is None
    assert da() is not None   # the caller still holds its DefectData
    del dd
    gc.collect()
    assert da() is None


def test_defect_data_of_a_temporary_view_leaves_no_memory_behind():
    # the shape of the benchmark's check on a realized 1000-state pqs system:
    # defect_data(tau.A) on the view the property returns, result then dropped
    s = 1000
    T = np.zeros((s + 1, s + 1), dtype=complex)
    T[1:, 1:] = 0.5 * (np.eye(s, k=1) + np.eye(s, k=-1))   # arcsine Jacobi matrix
    tau = pqsys.PartitionedContraction(T, 1, 1, s)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dd = opcore.defect_data(tau.A)
        assert dd.DA.shape == (s, s)
        del dd
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # a slot that outlived the view would hold D_A and the eigenvectors: >= 24 MB
    assert left < 1 << 20


def test_a_systems_defects_leave_the_callers_entry_in_the_slot(monkeypatch):
    # a system factors its own non-selfadjoint A for its cache, with no digest
    # of the view tau.A and without clearing the slot of the caller's array
    tau = pqsys.PartitionedContraction(rand_passive_T(np.random.default_rng(43), 2, 2, S), 2, 2, S)
    ref = opcore.defect_data(tau.A.copy())
    A = non_normal()
    opcore.defect_data(A)
    digests = []
    content_digest = opcore._content_digest
    monkeypatch.setattr(opcore, "_content_digest", lambda M: digests.append(1) or content_digest(M))
    dd = sysmodel.main_defect_data(tau)
    assert digests == []
    assert_same_defects(dd, ref)
    svds = linalg_calls(monkeypatch, "svd", (S, S))
    opcore.defect_data(A)
    assert svds == []
