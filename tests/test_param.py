"""Parametrization of passive systems over a fixed main operator."""

import numpy as np
import pytest

import pqsys
from pqsys import param
from pqsys.errors import DimensionMismatch, NotAContraction

from helpers import (
    rand_complex,
    rand_contraction,
    rand_hermitian_contraction,
    rand_passive_T,
    rand_pqs_T,
)


def make_system(T, in_dim, out_dim, state_dim):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), in_dim, out_dim, state_dim)


def random_params(rng, m=2, n=2, s=3):
    """Params built from scratch (not extracted), exercising make_params."""
    A = rand_contraction(rng, s, s, smax=0.85)
    dd = pqsys.defect_data(A)
    dA = dd.E_A.shape[1]
    dAs = dd.E_As.shape[1]
    M = rand_contraction(rng, dAs, m, smax=0.9)
    K = rand_contraction(rng, n, dA, smax=0.9)
    # X maps the M-defect into the K*-defect; build after M, K exist
    p_tmp = param.make_params(A, M, K, np.zeros((n, m), dtype=complex))
    dM = p_tmp.E_DM.shape[1]
    dKs = p_tmp.E_DKs.shape[1]
    X = rand_contraction(rng, dKs, dM, smax=0.9)
    return param.make_params(A, M, K, X)


def test_roundtrip_parametrize_assemble():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dims = rng.integers(1, 4, size=2)
        s = int(rng.integers(1, 6))
        T = rand_passive_T(rng, int(dims[0]), int(dims[1]), s)
        tau = make_system(T, int(dims[0]), int(dims[1]), s)
        p = pqsys.parametrize(tau)
        T2 = pqsys.assemble(p).T
        assert np.linalg.norm(T2 - T) < 1e-9


def test_roundtrip_assemble_parametrize():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_params(rng)
        tau = pqsys.assemble(p)
        q = pqsys.parametrize(tau)
        # the two parameter sets may use different bases; compare assembled
        assert np.linalg.norm(pqsys.assemble(q).T - tau.T) < 1e-9


def test_assembled_block_structure():
    rng = np.random.default_rng(2)
    p = random_params(rng)
    tau = pqsys.assemble(p)
    # bottom-right is A, bottom-left is D_{A*} M, top-right is K D_A
    assert np.linalg.norm(tau.A - p.A) < 1e-12
    assert np.linalg.norm(tau.B - p.DAs @ p.M_ambient) < 1e-10
    assert np.linalg.norm(tau.C - p.K_ambient @ p.DA) < 1e-10


def test_parametrize_rejects_expansive():
    with pytest.raises(NotAContraction):
        pqsys.parametrize(make_system(1.3 * np.eye(3), 1, 1, 2))


def test_make_params_rejects_expansive_factor():
    rng = np.random.default_rng(3)
    A = rand_contraction(rng, 3, 3, smax=0.8)
    dd = pqsys.defect_data(A)
    M_big = 1.5 * np.eye(dd.E_As.shape[1], 2)
    with pytest.raises(NotAContraction):
        param.make_params(A, M_big, np.zeros((2, dd.E_A.shape[1])), np.zeros((2, 2)))


def test_make_params_rejects_wrong_shapes():
    rng = np.random.default_rng(4)
    A = rand_contraction(rng, 3, 3, smax=0.8)
    with pytest.raises(DimensionMismatch):
        param.make_params(A, np.zeros((17, 2)), np.zeros((2, 17)), np.zeros((2, 2)))


def test_defect_balance_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_params(rng)
        h = rand_complex(rng, p.in_dim, 1)[:, 0]
        f = rand_complex(rng, p.A.shape[0], 1)[:, 0]
        lhs, rhs = pqsys.defect_balance(p, h, f)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-9


def test_defect_balance_zero_for_conservative():
    # unitary T: both sides of the balance are zero for every input
    rng = np.random.default_rng(6)
    from helpers import rand_unitary

    U = rand_unitary(rng, 4)
    tau = make_system(U, 2, 2, 2)
    p = pqsys.parametrize(tau)
    for _ in range(5):
        h = rand_complex(rng, 2, 1)[:, 0]
        f = rand_complex(rng, 2, 1)[:, 0]
        lhs, rhs = pqsys.defect_balance(p, h, f)
        assert abs(lhs) < 1e-9 and abs(rhs) < 1e-9


def test_isometry_conditions_for_unitary_and_strict():
    rng = np.random.default_rng(7)
    from helpers import rand_unitary

    U = rand_unitary(rng, 4)
    p = pqsys.parametrize(make_system(U, 2, 2, 2))
    iso, coiso = pqsys.isometry_conditions(p)
    assert iso and coiso

    T = rand_passive_T(rng, 2, 2, 2, smax=0.8)
    p2 = pqsys.parametrize(make_system(T, 2, 2, 2))
    iso2, coiso2 = pqsys.isometry_conditions(p2)
    assert not iso2 and not coiso2


def test_pqs_params_have_hermitian_coherence():
    # for pqs systems the extraction returns M = K^H on shared bases
    rng = np.random.default_rng(8)
    for _ in range(5):
        tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
        p = pqsys.parametrize(tau)
        assert np.linalg.norm(p.M - p.K.conj().T) < 1e-9
        assert np.array_equal(p.E_DA, p.E_DAs)


def test_parametrize_selfadjoint_A_keeps_selfadjointness():
    rng = np.random.default_rng(9)
    A = rand_hermitian_contraction(rng, 3)
    tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
    p = pqsys.parametrize(tau)
    assert np.linalg.norm(p.A - p.A.conj().T) < 1e-12


def test_zero_state_system():
    # state dim 0: T = D, parametrization trivial
    D = np.array([[0.5 + 0.1j]], dtype=complex)
    tau = make_system(D, 1, 1, 0)
    p = pqsys.parametrize(tau)
    T2 = pqsys.assemble(p).T
    assert np.linalg.norm(T2 - D) < 1e-12


def test_unitary_A_forces_zero_coupling():
    # if A is unitary its defects vanish, so B = C = 0 and T = D + A
    rng = np.random.default_rng(10)
    from helpers import rand_unitary

    A = rand_unitary(rng, 2)
    T = np.zeros((3, 3), dtype=complex)
    T[0, 0] = 0.4
    T[1:, 1:] = A
    tau = make_system(T, 1, 1, 2)
    p = pqsys.parametrize(tau)
    assert p.E_DA.shape[1] == 0
    assert p.K.shape == (1, 0)
    assert np.linalg.norm(pqsys.assemble(p).T - T) < 1e-10


@pytest.mark.parametrize("m", [1, 4])
def test_complete_takes_the_small_bases_from_the_defect_svds(monkeypatch, m):
    # m = 4 inputs over a 3-dim defect of A* gives M more columns than rows
    from pqsys import opcore
    rng = np.random.default_rng(44)
    A = rand_contraction(rng, 3, 3, smax=0.85)
    dd = pqsys.defect_data(A)
    M = rand_contraction(rng, dd.E_As.shape[1], m, smax=0.9)
    K = rand_contraction(rng, 2, dd.E_A.shape[1], smax=0.9)
    range_basis = opcore.range_basis
    monkeypatch.setattr(opcore, "range_basis", lambda *a: pytest.fail("range_basis called"))
    p = param.make_params(A, M, K, None)
    tau = pqsys.assemble(p)
    q = param.parametrize(tau)
    monkeypatch.setattr(opcore, "range_basis", range_basis)
    for r in (p, q):
        for D, E in ((r.DM, r.E_DM), (r.DKs, r.E_DKs)):
            assert np.linalg.norm(E.conj().T @ E - np.eye(E.shape[1])) < 1e-13
            assert np.linalg.norm(E @ (E.conj().T @ D) - D) < 1e-12
            assert E.shape[1] == opcore.range_basis(D).dim
    assert np.linalg.norm(pqsys.assemble(q).T - tau.T) < 1e-10
