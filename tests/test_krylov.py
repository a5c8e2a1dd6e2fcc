"""Krylov spans by band Arnoldi, the cached Krylov record behind the
minimality verdicts, and unitary similarity built on both."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize, sysmodel
from pqsys.errors import MomentMismatch

import oracles
from helpers import pqs_from_spectrum, rand_complex, rand_contraction, rand_unitary


def system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def projector(basis):
    return basis @ basis.conj().T


# ---------------------------------------------------------------------------
# band Arnoldi
# ---------------------------------------------------------------------------

def test_krylov_span_deflates_dependent_columns():
    A = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    e = np.eye(4, dtype=complex)
    b = e[:, 0] + e[:, 1]
    B = np.column_stack([b, 2 * b, e[:, 2]])
    # degree 0: the repeated column adds nothing
    assert opcore.krylov_span(A, B, 0).dim == 2
    S = opcore.krylov_span(A, B, 4)
    assert S.dim == 3
    assert np.linalg.norm(S.basis.conj().T @ S.basis - np.eye(3)) < 1e-14
    assert np.linalg.norm(projector(S.basis) - np.diag([1, 1, 1, 0])) < 1e-14


def test_krylov_span_keeps_close_diagonal_directions_apart():
    # three eigenvalues 1e-10 apart, each direction fed by its own column
    A = np.diag([0.3, 0.3 + 1e-10, 0.3 + 2e-10, 0.6]).astype(complex)
    e = np.eye(4, dtype=complex)
    S = opcore.krylov_span(A, e[:, :3], 4)
    assert S.dim == 3
    assert np.linalg.norm(projector(S.basis) - np.diag([1, 1, 1, 0])) < 1e-14
    S = opcore.krylov_span(A, np.column_stack([e[:, 0] + e[:, 3], e[:, 1], e[:, 2]]), 4)
    assert S.dim == 4
    # one column across the split: a residual of 5e-11 lies below the rank
    # rule rank_tol * max(||B||, ||candidate||) = 1.4e-10, one of 1e-8 above
    assert opcore.krylov_span(A, e[:, :1] + e[:, 1:2], 4).dim == 1
    A[1, 1] = 0.3 + 2e-8
    assert opcore.krylov_span(A, e[:, :1] + e[:, 1:2], 4).dim == 2


def test_krylov_span_is_unitarily_covariant():
    rng = np.random.default_rng(71)
    s, m = 14, 2
    A1 = rand_contraction(rng, s, s, 0.9)
    B1 = rand_complex(rng, s, m)
    U = rand_unitary(rng, s)
    Q1 = opcore.krylov_span(A1, B1, s).basis
    Q2 = opcore.krylov_span(U @ A1 @ U.conj().T, U @ B1, s).basis
    assert Q1.shape == Q2.shape == (s, s)
    assert np.linalg.norm(Q2 - U @ Q1, 2) < 1e-12


def test_krylov_span_reaches_full_dimension_where_powers_do_not():
    # the monomial matrix [b, Ab, ..., A^n b] of this arcsine model has
    # numerical rank 28 of 200
    _, tau = pqsys.chebyshev_example(0.1 + 0.2j, 200)
    Q = opcore.krylov_span(tau.A, tau.B, 200).basis
    assert Q.shape == (200, 200)
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(200), 2) < 1e-13


# ---------------------------------------------------------------------------
# the Krylov record and the minimality verdicts
# ---------------------------------------------------------------------------

def test_eigen_clusters_chain_on_the_gap():
    t = np.array([0.0, 5e-9, 9e-9, 0.1, 0.1 + 2e-8, 0.3])
    spans = [(c.start, c.stop) for c in opcore.eigen_clusters(t)]
    assert spans == [(0, 3), (3, 4), (4, 5), (5, 6)]
    assert opcore.eigen_clusters(np.zeros(0)) == []


@pytest.mark.parametrize("s", [40, 100, 200])
def test_minimal_reduction_is_minimal(s):
    rng = np.random.default_rng(s)
    tau = system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, s), 3), 3, s)
    red = sysmodel.minimal_pqs_reduction(tau)
    assert red.state_dim == s
    assert sysmodel.is_minimal(red) and sysmodel.is_simple(red)
    assert sysmodel.controllable_subspace(red).dim == s
    assert sysmodel.observable_subspace(red).dim == s
    assert opcore.krylov_span(red.A, red.B, s).dim == s


def test_realized_arcsine_system_is_minimal():
    data, _ = pqsys.chebyshev_example(0.3 + 0.2j, 200)
    tau = pqsys.realize_from_data(data)
    assert tau.state_dim == 200
    assert sysmodel.krylov_record(tau) == (200, 200, 200, None, None)
    assert sysmodel.is_minimal(tau)
    assert sysmodel.controllable_subspace(tau).dim == 200


def test_spectral_record_matches_arnoldi_dimensions():
    # clusters of multiplicity 3 and 2 channels: rank 2 per cluster
    rng = np.random.default_rng(72)
    t = np.repeat(np.linspace(-0.8, 0.8, 9), 3)
    tau = system(pqs_from_spectrum(rng, t, 2), 2, 27)
    rec = sysmodel.krylov_record(tau)
    # neither span is full: the record counts the joint span from the cluster
    # coordinates and holds no basis; the subspaces are built on request
    assert sysmodel.spectral_data(tau) is not None and rec.hc is None and rec.ho is None
    assert rec.controllable == rec.observable == rec.joint == 18
    assert opcore.krylov_span(tau.A, tau.B, 27).dim == 18
    hc, ho = sysmodel.controllable_subspace(tau), sysmodel.observable_subspace(tau)
    assert hc.dim == ho.dim == 18
    arnoldi = opcore.krylov_span(tau.A, tau.B, 27).basis
    assert np.linalg.norm(hc.projector() - projector(arnoldi), 2) < 1e-8
    assert np.linalg.norm(ho.projector() - hc.projector(), 2) < 1e-8
    assert not sysmodel.is_minimal(tau)


def test_record_of_a_non_normal_system_holds_the_arnoldi_bases():
    T = np.zeros((1 + 6, 1 + 6), dtype=complex)
    T[1:, 1:] = np.diag(0.5 * np.ones(5), 1)  # nilpotent shift e_j -> e_{j-1}
    T[3, 0] = 0.3                              # B = 0.3 e_3
    T[0, 4] = 0.3                              # C = 0.3 e_4*
    tau = system(T, 1, 6)
    assert sysmodel.spectral_data(tau) is None
    rec = sysmodel.krylov_record(tau)
    # inputs reach e_3, e_2, e_1; the adjoint shift carries C* = 0.3 e_4 to
    # e_5, e_6: neither span is full, together they fill the state space
    assert (rec.controllable, rec.observable, rec.joint) == (3, 3, 6)
    assert sysmodel.controllable_subspace(tau) is rec.hc
    assert np.linalg.norm(rec.hc.projector() - np.diag([1, 1, 1, 0, 0, 0])) < 1e-14
    assert not sysmodel.is_controllable(tau) and not sysmodel.is_observable(tau)
    assert sysmodel.is_simple(tau) and not sysmodel.is_minimal(tau)


# ---------------------------------------------------------------------------
# unitary similarity
# ---------------------------------------------------------------------------

def test_self_similarity_at_s100():
    rng = np.random.default_rng(74)
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, 100), 2), 2, 100)
    res = pqsys.unitary_similarity(tau, tau)
    assert max(res.residuals.values()) < 1e-8
    assert np.linalg.norm(res.U - np.eye(100), 2) < 1e-6


def test_similarity_recovers_the_conjugation_of_an_arcsine_system():
    rng = np.random.default_rng(75)
    _, diag = pqsys.chebyshev_example(0.2 - 0.1j, 60)
    V, W = rand_unitary(rng, 60), rand_unitary(rng, 60)
    tau = system(oracles.conjugate_system(diag.T, 1, 1, V), 1, 60)
    twin = system(oracles.conjugate_system(tau.T, 1, 1, W), 1, 60)
    res = pqsys.unitary_similarity(tau, twin)
    assert max(res.residuals.values()) < 1e-8
    assert np.linalg.norm(res.U - W, 2) < 1e-6


def _first_moment_mismatch_by_powers(tau1, tau2, p, bound):
    """The double loop over matrix powers that the Gram form replaces."""
    for nn in range(p + 1):
        An1 = np.linalg.matrix_power(tau1.A, nn)
        An2 = np.linalg.matrix_power(tau2.A, nn)
        for mm in range(p + 1):
            M1 = tau1.B.conj().T @ An1.conj().T @ np.linalg.matrix_power(tau1.A, mm) @ tau1.B
            M2 = tau2.B.conj().T @ An2.conj().T @ np.linalg.matrix_power(tau2.A, mm) @ tau2.B
            if np.linalg.norm(M1 - M2, 2) > bound:
                return nn, mm
    return None


def _gram_moment_mismatch(tau1, tau2, p, bound):
    try:
        gaps = realize._gram_gaps(realize._krylov_blocks(tau1, p + 1), realize._krylov_blocks(tau2, p + 1), bound)
        realize._check_moments(gaps, bound)
    except MomentMismatch as exc:
        return exc.n, exc.m
    return None


def test_gram_moment_check_reports_the_first_failing_pair():
    rng = np.random.default_rng(76)
    s, n = 12, 2
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), n, s)
    # a rank-one change of A orthogonal to ran B leaves every moment with
    # n + m < 3 alone, so the first failing pair in loop order is (0, 3)
    q = oracles._kernel(tau.B.conj().T)[:, 0]
    bound = 1e-9
    found = []
    for eps in (1e-3, 1e-6, 3e-9):
        T = tau.T.copy()
        T[n:, n:] += eps * np.outer(q, q.conj())
        twin = system(T, n, s)
        ref = _first_moment_mismatch_by_powers(tau, twin, s, bound)
        assert _gram_moment_mismatch(tau, twin, s, bound) == ref
        found.append(ref)
    assert found[0] == (0, 3)
    assert found[-1] is None or found[-1] > (0, 3)
    # a generic perturbation of A shows up at (0, 1); none at all passes
    T = tau.T.copy()
    T[n:, n:] += 1e-7 * rand_complex(rng, s, s)
    assert _gram_moment_mismatch(tau, system(T, n, s), s, bound) == (0, 1)
    assert _gram_moment_mismatch(tau, tau, s, bound) is None
