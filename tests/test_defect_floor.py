"""The one rule for a zero defect: a defect square below the rounding floor
`opcore._rounding(n)` of the factorization it came from is zero, every other
one is kept.  The parametrization, minimality, the dilation and both
strong-stability verdicts read it."""

import json

import numpy as np
import pytest

import pqsys
from pqsys import _json, opcore, param, sysmodel

from helpers import GENERAL_SYSTEM, NEAR_UNIT_SYSTEM, rand_unitary


def _near_unit_system():
    t = np.array([-0.5, 0.2, 1 - 1e-11])
    B = np.sqrt((1 - t ** 2) * 0.25).reshape(-1, 1).astype(complex)
    D = np.array([[-0.25 * t.sum()]], dtype=complex)
    return sysmodel._diagonal_pqs(D, B, t)


def test_the_data_file_is_the_near_unit_system():
    tau = _json.system_from_json(json.loads(NEAR_UNIT_SYSTEM.read_text()))
    assert np.array_equal(tau.T, _near_unit_system().T)


def test_a_defect_square_above_the_floor_parametrizes_and_dilates():
    # 1 - t^2 = 2e-11 for the eigenvalue 1 - 1e-11: below the former psd_tol
    # clamp, which dropped the direction B leans on, above 10 * 3 * eps
    tau = _near_unit_system()
    flags = pqsys.classify(tau)
    assert flags.pqs and flags.passive
    p = param.parametrize(tau)
    assert p.defects.E_A.shape[1] == 3
    assert np.linalg.norm(param.assemble(p).T - tau.T, 2) < 1e-13
    dil = pqsys.biinner_dilation(tau)
    assert np.linalg.norm(dil.system.A[:3, :3] - tau.A, 2) < 1e-13
    rep = sysmodel.check_minimality_normal(tau)
    assert rep.minimal and rep.agree


def _main(A):
    s = A.shape[0]
    T = np.zeros((s + 1, s + 1), dtype=complex)
    T[1:, 1:] = A
    return sysmodel.PartitionedContraction(T, 1, 1, s)


def _normal(seed):
    # a dense normal contraction with a unimodular, a near-unimodular
    # (1 - |mu|^2 = 2e-12, far above the floor) and three inner eigenvalues
    rng = np.random.default_rng(seed)
    radii = np.array([1.0, 1 - 1e-12, 0.9, 0.5, 0.1])[: 3 + seed % 3]
    mu = rng.permutation(radii) * np.exp(2j * np.pi * rng.random(radii.size))
    U = rand_unitary(rng, mu.size)
    return (U * mu) @ U.conj().T


@pytest.mark.parametrize("A", [np.diag([1 - eps, 0.5]) for eps in (3e-10, 5e-11, 1e-13, 1.1e-16)]
                         + [_normal(seed) for seed in range(6)])
def test_strong_stability_and_the_strong_limit_agree(A):
    # at eps = 3e-10 the former psd_tol clamp put 1 - 3e-10 in the unitary
    # part (a rank-1 strong limit) while 1 - rank_tol called A strongly stable
    stable = sysmodel.is_strongly_stable(_main(A))
    assert stable == (not pqsys.strong_limit_SA(A).any())


def test_a_general_systems_main_operator_is_tested_for_selfadjointness_once(monkeypatch):
    tau = _json.system_from_json(json.loads(GENERAL_SYSTEM.read_text()))
    skew = opcore._skew_fro
    calls = []
    monkeypatch.setattr(opcore, "_skew_fro", lambda A: calls.append(A.shape) or skew(A))
    assert not pqsys.classify(tau).selfadjoint_main
    dd = sysmodel.main_defect_data(tau)
    assert len(calls) == 1
    ref = opcore.defect_data(tau.A.copy())
    for got, want in zip(dd[:6], ref[:6]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-7, 1e-6])
def test_the_strong_limit_separates_a_unimodular_from_a_near_unimodular_eigenvalue(gap):
    # the singular values 1 and 1 - gap of a dense normal A have singular
    # vectors mixed to about eps / gap, which put the unimodular eigenvector
    # into the Krylov spans of the defects (the former split found no unitary
    # part); the eigenvalues lie apart in the plane, and so do their vectors
    rng = np.random.default_rng(7)
    U = rand_unitary(rng, 3)
    A = (U * np.array([np.exp(0.4j), (1 - gap) * np.exp(2.1j), 0.5])) @ U.conj().T
    assert sysmodel.is_strongly_stable(_main(A)) is False
    lim = pqsys.strong_limit_SA(A)
    assert np.linalg.norm(lim - np.outer(U[:, 0], U[:, 0].conj()), 2) < 1e-12
