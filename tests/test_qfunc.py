"""Resolvent compressions and their structural kernel conditions."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, qfunc
from pqsys.errors import DegenerateGrid, NotPqs, SingularResolvent

import oracles
from helpers import rand_atoms, rand_complex, rand_contraction, rand_passive_T, rand_pqs_T


def make_system(T, in_dim, out_dim, state_dim):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), in_dim, out_dim, state_dim)


def member_data(rng, m=3, n=2):
    atoms = rand_atoms(rng, m, n)
    center = -sum(t * s for t, s in atoms)
    total = sum(s for _, s in atoms)
    Rh = pqsys.psd_sqrt(np.eye(n) - total)
    X = rand_contraction(rng, n, n, smax=0.9)
    return pqsys.SqsFunctionData(center + Rh @ X @ Rh, tuple(atoms))


def pqs_system(rng, n=2, s=3):
    return make_system(rand_pqs_T(rng, n, s), n, n, s)


def test_q_eval_matches_resolvent_series():
    rng = np.random.default_rng(0)
    tau = pqs_system(rng)
    for z in (3.0, -2.5 + 1.0j, 1.8j):
        lhs = pqsys.q_eval(tau, z)
        rhs = oracles.q_series(tau.T, tau.out_dim, z)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_q_eval_rejects_non_pqs():
    rng = np.random.default_rng(1)
    tau = make_system(rand_passive_T(rng, 2, 2, 3), 2, 2, 3)
    with pytest.raises(NotPqs):
        pqsys.q_eval(tau, 2.0)


def test_q_theta_roundtrip_both_directions():
    rng = np.random.default_rng(2)
    for _ in range(5):
        tau = pqs_system(rng)
        for z in (2.0, -1.7 + 0.8j, 3.2 - 1.1j):
            r1, r2 = pqsys.q_theta_roundtrip(tau, z)
            assert r1 < 1e-9 and r2 < 1e-9


def test_q_theta_roundtrip_rejects_origin():
    rng = np.random.default_rng(3)
    with pytest.raises(SingularResolvent):
        pqsys.q_theta_roundtrip(pqs_system(rng), 0.0)


def test_asymptotic_coefficient_is_minus_D():
    rng = np.random.default_rng(4)
    for _ in range(5):
        tau = pqs_system(rng)
        F = pqsys.q_asymptotic_F(tau)
        assert np.linalg.norm(F + tau.D) < 1e-6


def test_kernel_check_passes_for_genuine_q():
    rng = np.random.default_rng(5)
    tau = pqs_system(rng)
    F = -tau.D
    grid = [2.0 + 0.5j, -1.9 + 0.8j, 1.4 - 1.2j, 3.0 + 0.1j, 2.0 - 0.04j]
    rep = pqsys.q_class_kernel_check(tau, F, grid)
    assert rep.s2_min_eig > -1e-8
    assert rep.s3_min_eig > -1e-8
    assert rep.s4_witness


def test_kernel_check_samples_q_with_the_given_tolerances():
    # A with a 1e-7 skew part is selfadjoint under eq_tol = 1e-5 only
    rng = np.random.default_rng(17)
    T = 0.95 * rand_pqs_T(rng, 2, 3)
    S = rand_complex(rng, 3, 3)
    T[2:, 2:] += 1e-7j * (S + S.conj().T) / np.linalg.norm(S + S.conj().T, 2)
    tau = make_system(T, 2, 2, 3)
    tol = pqsys.Tolerances(eq_tol=1e-5)
    assert pqsys.classify(tau, tol).pqs and not pqsys.classify(tau).pqs
    rep = pqsys.q_class_kernel_check(tau, -tau.D, [2.0 + 0.5j, -1.9 + 0.8j, 3.0 + 0.1j], tol)
    assert rep.s2_min_eig > -1e-6
    assert rep.s3_min_eig > -1e-6


def test_kernel_check_handles_real_confluent_points():
    rng = np.random.default_rng(6)
    tau = pqs_system(rng)
    rep = pqsys.q_class_kernel_check(tau, -tau.D, [2.0, -3.0, 1.5 + 1.0j])
    assert rep.s2_min_eig > -1e-8
    assert rep.s3_min_eig > -1e-8


def test_kernel_check_fails_for_scaled_sampler():
    rng = np.random.default_rng(7)
    tau = pqs_system(rng)
    bad = lambda z: 1.1 * pqsys.q_eval(tau, z)
    rep = pqsys.q_class_kernel_check(bad, -tau.D, [2.0 + 0.5j, -1.9 + 0.8j, 1.4 - 1.2j])
    assert rep.s2_min_eig < -1e-4 or rep.s3_min_eig < -1e-4


def test_kernel_check_no_witness_for_stateless_function():
    # Q(z) = -1/(z - d) with real d comes from a system with no state;
    # the probe identity K2(z0, z0) = Q(z0)* Q(z0) then holds exactly
    d = 0.3

    def q(z):
        return np.array([[-1.0 / (z - d)]], dtype=complex)

    rep = pqsys.q_class_kernel_check(q, np.array([[-d]]), [2.0 + 0.5j, -1.8 + 0.6j])
    assert not rep.s4_witness
    assert rep.s4_point is None


def test_kernel_check_degenerate_grids():
    rng = np.random.default_rng(8)
    tau = pqs_system(rng)
    F = -tau.D
    with pytest.raises(DegenerateGrid):
        pqsys.q_class_kernel_check(tau, F, [])
    with pytest.raises(DegenerateGrid):
        pqsys.q_class_kernel_check(tau, F, [0.5 + 0.5j])
    with pytest.raises(DegenerateGrid):
        pqsys.q_class_kernel_check(tau, F, [2.0 + 1j, 2.0 + 1j])
    with pytest.raises(DegenerateGrid):
        pqsys.q_class_kernel_check(tau, F, [2.0 + 1j, 2.0 - 1j])


def test_q_scalar_closed_form_for_arcsine_family():
    # for the arcsine-weight function the inversion identity reduces to
    # Q(z) = 1 / (d - 2^{-1}(z - sqrt(z^2-1))... checked via the closed form
    data, tau = pqsys.chebyshev_example(0.2, 200)
    for z in (2.0, 3.0 - 0.7j):
        q = complex(pqsys.q_eval(tau, z)[0, 0])
        theta = pqsys.chebyshev_theta_closed(0.2, 1.0 / z)
        assert abs(q * (theta - z) - 1.0) < 1e-7


def test_q_of_difference_quotient_sampler():
    # q_sampler accepts plain callables and q_asymptotic_F works on them
    rng = np.random.default_rng(9)
    tau = pqs_system(rng)
    sample = pqsys.q_sampler(lambda z: pqsys.q_eval(tau, z))
    F = pqsys.q_asymptotic_F(sample)
    assert np.linalg.norm(F + tau.D) < 1e-6
    with pytest.raises(TypeError):
        pqsys.q_sampler("not a sampler")


def test_q_from_realized_data_matches_data_theta():
    rng = np.random.default_rng(10)
    f = member_data(rng)
    tau = pqsys.realize_from_data(f)
    z = 2.4 - 0.9j
    Q = pqsys.q_eval(tau, z)
    th = pqsys.theta_from_data(f, 1.0 / z)
    n = f.dim
    assert np.linalg.norm(Q @ (th - z * np.eye(n)) - np.eye(n)) < 1e-9


@pytest.mark.parametrize("stateless", [False, True])
def test_the_witness_search_takes_no_operator_norm_when_its_brackets_settle(monkeypatch, stateless):
    # the S4 witness is `norm_at_most` of K2(z0, z0) - Q*Q against
    # 100 psd_tol max(1, ||Q*Q||): its Frobenius brackets settle both a
    # genuine Q (a witness at the first probe) and a stateless one (none at
    # any probe), so no probe takes a spectral norm
    rng = np.random.default_rng(9)
    tau = pqs_system(rng)
    if stateless:
        q = lambda z: np.array([[-1.0 / (z - 0.3)]], dtype=complex)
        F = np.array([[-0.3]])
    else:
        q = lambda z: pqsys.q_eval(tau, z)
        F = -tau.D
    grid = [2.0 + 0.5j, -1.8 + 0.6j]
    # the samples are taken up front, so the count sees the kernel check alone
    table = {complex(z): q(z) for z in [*grid, *qfunc._S4_PROBES]}
    calls = []
    norm = opcore.operator_norm
    counted = lambda M: calls.append(1) or norm(M)
    monkeypatch.setattr(opcore, "operator_norm", counted)
    monkeypatch.setattr(qfunc, "operator_norm", counted)
    rep = pqsys.q_class_kernel_check(lambda z: table[complex(z)], F, grid)
    assert calls == []
    assert rep.s4_witness is not stateless
    assert rep.s4_point == (None if stateless else qfunc._S4_PROBES[0])
