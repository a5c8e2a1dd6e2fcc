"""System model: classification, simulation, subspaces, minimality, stability."""

import numpy as np
import pytest

import pqsys
from pqsys import sysmodel
from pqsys.errors import DimensionMismatch, NotNormal, NotPqs

import oracles
from helpers import (
    linalg_calls,
    rand_contraction,
    rand_hermitian_contraction,
    rand_passive_T,
    rand_pqs_T,
    rand_unitary,
)


def make_system(T, in_dim, out_dim, state_dim):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), in_dim, out_dim, state_dim)


def test_partition_blocks():
    T = np.arange(20, dtype=float).reshape(4, 5).astype(complex)
    tau = make_system(T, 2, 1, 3)
    assert tau.D.shape == (1, 2)
    assert tau.C.shape == (1, 3)
    assert tau.B.shape == (3, 2)
    assert tau.A.shape == (3, 3)
    assert np.array_equal(np.block([[tau.D, tau.C], [tau.B, tau.A]]), T)


def test_partition_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        make_system(np.zeros((3, 3)), 2, 2, 2)


def test_classify_passive_and_pqs():
    rng = np.random.default_rng(0)
    tau = make_system(rand_passive_T(rng, 2, 3, 2), 2, 3, 2)
    flags = pqsys.classify(tau)
    assert flags.passive and not flags.pqs

    tauq = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
    fq = pqsys.classify(tauq)
    assert fq.passive and fq.pqs and fq.selfadjoint_main


def test_classify_conservative_unitary():
    rng = np.random.default_rng(1)
    U = rand_unitary(rng, 4)
    tau = make_system(U, 2, 2, 2)
    flags = pqsys.classify(tau)
    assert flags.isometric and flags.coisometric and flags.conservative


def test_classify_reports_expansive_as_not_passive():
    flags = pqsys.classify(make_system(1.2 * np.eye(3), 1, 1, 2))
    assert not flags.passive and not flags.pqs


def test_simulate_against_oracle():
    rng = np.random.default_rng(2)
    tau = make_system(rand_passive_T(rng, 2, 2, 3), 2, 2, 3)
    inputs = (rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))) * 0.4
    h0 = rng.standard_normal(3)
    states, outs = pqsys.simulate(tau, inputs, h0)
    assert states.shape == (21, 3) and outs.shape == (20, 2)
    gaps = np.array([
        np.linalg.norm(states[k]) ** 2 + np.linalg.norm(inputs[k]) ** 2
        - np.linalg.norm(states[k + 1]) ** 2 - np.linalg.norm(outs[k]) ** 2
        for k in range(20)
    ])
    ref = oracles.step_energies(tau.T, 2, 2, inputs, h0)
    assert np.max(np.abs(gaps - ref)) < 1e-12
    assert gaps.min() > -1e-12  # passivity


def test_simulate_rejects_wrong_dims():
    rng = np.random.default_rng(3)
    tau = make_system(rand_passive_T(rng, 2, 2, 3), 2, 2, 3)
    with pytest.raises(DimensionMismatch):
        pqsys.simulate(tau, [np.zeros(3)], np.zeros(3))
    with pytest.raises(DimensionMismatch):
        pqsys.simulate(tau, [np.zeros(2)], np.zeros(2))


def test_controllable_subspace_eigenvector_case():
    # A = diag(0.1, 0.2), B = e1: the span never leaves e1
    T = np.zeros((3, 3), dtype=complex)
    T[1, 0] = 1.0   # B = e1
    T[1, 1] = 0.1
    T[2, 2] = 0.2
    T[0, 1] = 0.3   # some output coupling
    tau = make_system(0.9 * T, 1, 1, 2)
    S = pqsys.controllable_subspace(tau)
    assert S.dim == 1
    assert abs(abs(S.basis[0, 0]) - 1.0) < 1e-10


def test_zero_B_not_controllable():
    A = np.diag([0.3, 0.4]).astype(complex)
    T = np.zeros((3, 3), dtype=complex)
    T[1:, 1:] = A
    tau = make_system(T, 1, 1, 2)
    assert pqsys.controllable_subspace(tau).dim == 0
    assert not pqsys.is_controllable(tau)
    assert not pqsys.is_minimal(tau)


def test_controllable_equals_observable_for_pqs():
    rng = np.random.default_rng(4)
    for _ in range(5):
        tau = make_system(rand_pqs_T(rng, 2, 4), 2, 2, 4)
        hc = pqsys.controllable_subspace(tau)
        ho = pqsys.observable_subspace(tau)
        assert hc.dim == ho.dim
        # principal angles: projectors must agree
        assert np.linalg.norm(hc.projector() - ho.projector()) < 1e-7


def test_pqs_krylov_subspace_matches_krylov_of_B():
    rng = np.random.default_rng(5)
    for _ in range(5):
        tau = make_system(rand_pqs_T(rng, 2, 4), 2, 2, 4)
        Hs = pqsys.pqs_krylov_subspace(tau)
        hc = pqsys.controllable_subspace(tau)
        assert Hs.dim == hc.dim
        assert np.linalg.norm(Hs.projector() - hc.projector()) < 1e-7


def test_pqs_krylov_subspace_rejects_non_pqs():
    rng = np.random.default_rng(6)
    tau = make_system(rand_passive_T(rng, 2, 3, 2), 2, 3, 2)
    with pytest.raises(NotPqs):
        pqsys.pqs_krylov_subspace(tau)


def test_pqs_krylov_repeated_eigenvalue():
    # A = diag(0.3, 0.3), K* = e1: one-dimensional span despite multiplicity
    A = np.diag([0.3, 0.3]).astype(complex)
    DA = np.sqrt(1 - 0.09) * np.eye(2, dtype=complex)
    Ks = np.array([[1.0], [0.0]], dtype=complex)
    B = DA @ Ks
    T = np.block([[np.array([[-0.3 + 0j]]), B.conj().T], [B, A]])
    tau = make_system(T, 1, 1, 2)
    S = pqsys.pqs_krylov_subspace(tau)
    assert S.dim == 1
    assert abs(abs(S.basis[0, 0]) - 1.0) < 1e-10


def test_minimal_pqs_reduction_drops_decoupled_state():
    rng = np.random.default_rng(7)
    tau = pqsys.minimal_pqs_reduction(make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3))
    s = tau.state_dim
    # direct sum with a decoupled selfadjoint direction
    Tp = np.zeros((2 + s + 1, 2 + s + 1), dtype=complex)
    Tp[:2 + s, :2 + s] = tau.T
    Tp[2 + s, 2 + s] = 0.37
    taup = make_system(Tp, 2, 2, s + 1)
    red = pqsys.minimal_pqs_reduction(taup)
    assert red.state_dim == s
    assert pqsys.classify(red).pqs
    assert pqsys.is_minimal(red)
    for lam in (0.3, -0.2 + 0.4j):
        assert np.linalg.norm(
            pqsys.theta_eval(red, lam) - pqsys.theta_eval(taup, lam)) < 1e-10


def test_minimal_pqs_reduction_identity_when_minimal():
    rng = np.random.default_rng(8)
    tau = pqsys.minimal_pqs_reduction(make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3))
    again = pqsys.minimal_pqs_reduction(tau)
    assert again.state_dim == tau.state_dim
    assert np.array_equal(again.T, tau.T)


def test_minimal_pqs_reduction_zero_channel():
    # K = 0: transfer is constant, state collapses entirely
    A = np.diag([0.2, -0.4]).astype(complex)
    T = np.zeros((3, 3), dtype=complex)
    T[0, 0] = 0.5
    T[1:, 1:] = A
    tau = make_system(T, 1, 1, 2)
    red = pqsys.minimal_pqs_reduction(tau)
    assert red.state_dim == 0
    assert np.linalg.norm(pqsys.theta_eval(red, 0.3) - np.array([[0.5]])) < 1e-12


def test_check_minimality_normal_agrees_with_krylov():
    rng = np.random.default_rng(9)
    for _ in range(4):
        tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
        rep = pqsys.check_minimality_normal(tau)
        assert rep.agree
        assert rep.controllable == pqsys.is_controllable(tau)
        assert rep.observable == pqsys.is_observable(tau)


def test_check_minimality_normal_on_a_zero_padded_pqs_system():
    # two decoupled zero states appended to a minimal pqs system: D_A is the
    # identity on them, so ran D_A meets the complement of both Krylov spans
    rng = np.random.default_rng(91)
    T0 = rand_pqs_T(rng, 2, 5)
    assert pqsys.check_minimality_normal(make_system(T0, 2, 2, 5)).minimal
    T = np.zeros((9, 9), dtype=complex)
    T[:7, :7] = T0
    rep = pqsys.check_minimality_normal(make_system(T, 2, 2, 7))
    assert rep.agree
    assert not (rep.controllable or rep.observable or rep.simple or rep.minimal)


def test_check_minimality_normal_with_a_normal_non_selfadjoint_main_operator():
    rng = np.random.default_rng(93)
    s, n = 40, 3
    U = rand_unitary(rng, s)
    z = 0.8 * np.sqrt(rng.uniform(size=s)) * np.exp(2j * np.pi * rng.uniform(size=s))
    A = (U * z) @ U.conj().T
    p = pqsys.make_params(A, rand_contraction(rng, s, n, 0.9), rand_contraction(rng, n, s, 0.9), None)
    tau = pqsys.assemble(p)
    flags = sysmodel.classify(tau)
    assert flags.normal_main and not flags.selfadjoint_main
    rep = pqsys.check_minimality_normal(tau)
    assert rep.agree and rep.minimal and rep.simple


def test_check_minimality_normal_rejects_nonnormal():
    T = np.zeros((3, 3), dtype=complex)
    T[1:, 1:] = np.array([[0.0, 0.5], [0.0, 0.0]])  # nilpotent, not normal
    tau = make_system(T, 1, 1, 2)
    with pytest.raises(NotNormal):
        pqsys.check_minimality_normal(tau)


def test_strong_stability_strict_contraction():
    rng = np.random.default_rng(10)
    tau = make_system(rand_passive_T(rng, 2, 2, 3, smax=0.85), 2, 2, 3)
    assert pqsys.is_strongly_stable(tau) is True


def test_strong_stability_unitary_state_fails():
    # A itself unitary: no decay at all
    rng = np.random.default_rng(11)
    U = rand_unitary(rng, 2)
    T = np.zeros((3, 3), dtype=complex)
    T[1:, 1:] = U
    tau = make_system(T, 1, 1, 2)
    assert pqsys.is_strongly_stable(tau) is False


def _system_with_main(A):
    """A system of one channel, zero channel blocks and main operator A."""
    s = A.shape[0]
    T = np.zeros((s + 1, s + 1), dtype=complex)
    T[1:, 1:] = A
    return make_system(T, 1, 1, s)


def test_strong_stability_of_a_non_normal_contraction_is_read_off_the_spectrum():
    # rho(A) ~ 0.999 with ||A|| = 0.99999: A^n -> 0, slowly
    J = 0.999 * np.eye(6) + np.diag(np.full(5, 0.0005), 1)
    A = 0.99999 * J / np.linalg.norm(J, 2)
    assert not pqsys.is_normal(A)
    assert pqsys.is_strongly_stable(_system_with_main(A)) is True


def test_strong_stability_of_unitary_plus_nilpotent_fails():
    A = np.zeros((3, 3), dtype=complex)
    A[0, 0] = 1.0
    A[1, 2] = 0.5
    assert pqsys.is_strongly_stable(_system_with_main(A)) is False


def test_strong_stability_needs_no_contraction():
    A = np.array([[0.5, 10.0], [0.0, 0.5]])
    assert pqsys.is_strongly_stable(_system_with_main(A)) is True


def test_transfer_eval_matches_series_oracle():
    rng = np.random.default_rng(12)
    tau = make_system(rand_passive_T(rng, 2, 3, 4), 2, 3, 4)
    for lam in (0.3, -0.55 + 0.2j, 0.1 - 0.6j):
        ref = oracles.theta_series(tau.T, 2, 3, lam)
        assert np.linalg.norm(pqsys.theta_eval(tau, lam) - ref) < 1e-11


@pytest.mark.parametrize("kind", ["pqs", "passive"])
def test_one_norm_svd_per_system(monkeypatch, kind):
    rng = np.random.default_rng(31)
    T = rand_pqs_T(rng, 2, 30) if kind == "pqs" else rand_passive_T(rng, 2, 2, 30)
    tau = make_system(T, 2, 2, 30)
    calls = linalg_calls(monkeypatch, "svd", T.shape, internal=True)
    sysmodel.classify(tau)
    pqsys.parametrize(tau)
    sysmodel.classify(tau, pqsys.Tolerances(eq_tol=1e-8))  # another tolerance set
    # a pqs system is decided from its parameters, any other from one SVD of T
    assert len(calls) == (0 if kind == "pqs" else 1)
    assert tau.norm() == np.linalg.norm(T, 2)


def test_realize_takes_no_norm_svd(monkeypatch):
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 40)
    calls = linalg_calls(monkeypatch, "svd", (41, 41), internal=True)
    tau = pqsys.realize_from_data(data)
    assert tau.state_dim == 40
    assert len(calls) == 0


def test_strong_stability_uses_the_spectral_radius():
    rng = np.random.default_rng(32)
    t = np.linspace(-0.95, 0.9, 12)
    U = rand_unitary(rng, 12)
    T = np.zeros((14, 14), dtype=complex)
    T[2:, 2:] = (U * t) @ U.conj().T
    tau = make_system(T, 2, 2, 12)
    assert sysmodel.spectral_data(tau) is not None
    assert sysmodel.is_strongly_stable(tau) is True
    T[2:, 2:] = (U * np.append(t[:-1], 1.0)) @ U.conj().T
    assert sysmodel.is_strongly_stable(make_system(T, 2, 2, 12)) is False


def _system_with_singular_values(rng, rows, cols, s, n=2):
    """Block system T = U diag(s) W* of shape rows x cols (n I/O channels
    on the output side, rows - cols more on the input side)."""
    U = rand_unitary(rng, rows)[:, :s.size]
    W = rand_unitary(rng, cols)[:, :s.size]
    T = (U * s) @ W.conj().T
    state = rows - n
    return make_system(T, cols - state, n, state)


def _flags_by_products(tau, tol=pqsys.DEFAULT_TOL):
    """isometric, coisometric and normal_main from the products T*T, TT*
    and A*A, AA*, with exact spectral norms."""
    T, A = tau.T, tau.A
    scale = tol.eq_tol * max(1.0, np.linalg.norm(T, 2))
    iso = np.linalg.norm(T.conj().T @ T - np.eye(T.shape[1]), 2) <= scale
    coiso = np.linalg.norm(T @ T.conj().T - np.eye(T.shape[0]), 2) <= scale
    return iso, coiso, pqsys.is_normal(A)


def test_classify_flags_from_singular_values_match_the_products():
    rng = np.random.default_rng(33)
    one = np.ones(8)
    near = lambda f: np.sqrt(1.0 - f * 1e-9) * one
    cases = [
        _system_with_singular_values(rng, 8, 8, rng.uniform(0.2, 0.9, 8)),   # strict contraction
        _system_with_singular_values(rng, 8, 8, one),                        # unitary
        _system_with_singular_values(rng, 10, 8, one),                       # isometric, not coisometric
        _system_with_singular_values(rng, 8, 10, one),                       # coisometric, not isometric
        _system_with_singular_values(rng, 9, 7, rng.uniform(0.5, 1.0, 7)),   # non-square
        _system_with_singular_values(rng, 8, 8, near(0.99)),                 # just inside eq_tol
        _system_with_singular_values(rng, 8, 8, near(1.01)),                 # just outside eq_tol
        make_system(rand_passive_T(rng, 2, 3, 4), 2, 3, 4),
        make_system(rand_pqs_T(rng, 2, 5), 2, 2, 5),
    ]
    seen = set()
    for tau in cases:
        flags = sysmodel.classify(tau)
        iso, coiso, normal = _flags_by_products(tau)
        assert (flags.isometric, flags.coisometric, flags.normal_main) == (iso, coiso, normal)
        assert flags.conservative == (iso and coiso)
        seen.add((iso, coiso))
    assert seen == {(False, False), (True, True), (True, False), (False, True)}
    assert sysmodel.classify(cases[5]).conservative and not sysmodel.classify(cases[6]).conservative
