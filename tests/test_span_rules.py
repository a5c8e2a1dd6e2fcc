"""Span questions answered by the library's two Krylov rules.

The unitary part of a contraction, the pqs Krylov subspace, the minimal
reduction, the spectral read-out and the transfer gate of unitary
similarity all read `opcore.krylov_span`, the cluster rule of
`sysmodel.krylov_record` or the cached record itself."""

import numpy as np
import pytest

import pqsys
from pqsys import errors, opcore, qfunc, realize, sysmodel, transfer
from pqsys.errors import NonSquare, NotAContraction, NotPqs, TransferMismatch

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_atoms, rand_contraction, rand_hermitian_contraction, rand_unitary


def system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def member_data(rng, m, n):
    """Atomic data in S^qs: m random atoms, Theta(0) inside the membership ball."""
    atoms = rand_atoms(rng, m, n)
    Rh = pqsys.psd_sqrt(np.eye(n) - sum(s for _, s in atoms))
    theta0 = -sum(t * s for t, s in atoms) + Rh @ rand_contraction(rng, n, n, smax=0.9) @ Rh
    return pqsys.SqsFunctionData(theta0, tuple(atoms))


# ---------------------------------------------------------------------------
# unitary part of a contraction
# ---------------------------------------------------------------------------

def _planted(kind, rng):
    """A contraction with a known unitary part of dimension k: (A, k)."""
    if kind == "unitary_plus_strict":
        k, s = 3, 9
        A = np.zeros((s, s), dtype=complex)
        A[:k, :k] = np.diag(np.exp(2j * np.pi * rng.uniform(size=k)))
        A[k:, k:] = rand_contraction(rng, s - k, s - k, 0.9)
        W = rand_unitary(rng, s)
        return W @ A @ W.conj().T, k
    if kind == "unitary_plus_nilpotent":
        A = np.zeros((6, 6), dtype=complex)
        A[:2, :2] = rand_unitary(rng, 2)
        A[3:, 2:5] += np.eye(3)  # shift on the last four coordinates
        W = rand_unitary(rng, 6)
        return W @ A @ W.conj().T, 2
    if kind == "all_unitary":
        return np.roll(np.eye(7, dtype=complex), 1, axis=0), 7  # a cyclic permutation
    if kind == "rotated_unitary":
        return rand_unitary(rng, 7), 7
    if kind == "strict":
        return rand_contraction(rng, 8, 8, 0.95), 0
    if kind == "nilpotent":
        return np.eye(5, k=-1, dtype=complex), 0
    return np.zeros((0, 0), dtype=complex), 0  # no state


@pytest.mark.parametrize("kind", ["unitary_plus_strict", "unitary_plus_nilpotent", "all_unitary",
                                  "rotated_unitary", "strict", "nilpotent", "empty"])
def test_cnu_unitary_split_matches_the_power_kernel_oracle(kind):
    A, k = _planted(kind, np.random.default_rng(201))
    ref_u, ref_c = oracles.cnu_unitary_split_by_power_kernels(A)
    uni, cnu = opcore.cnu_unitary_split(A)
    n = A.shape[0]
    assert uni.dim == k and cnu.dim == n - k and uni.ambient_dim == cnu.ambient_dim == n
    if kind == "rotated_unitary":
        # every power defect of this A is rounding noise, which the oracle's
        # relative cutoff counts as full rank: it finds no unitary part
        assert ref_u.shape[1] == 0
    elif n:
        assert ref_u.shape[1] == k and ref_c.shape[1] == n - k
        assert np.linalg.norm(uni.projector() - ref_u @ ref_u.conj().T, 2) <= 1e-10
        assert np.linalg.norm(cnu.projector() - ref_c @ ref_c.conj().T, 2) <= 1e-10
    if n:
        assert np.linalg.norm(uni.projector() + cnu.projector() - np.eye(n), 2) <= 1e-12
        # A is unitary on its unitary part, which reduces it
        Q = uni.basis
        assert np.linalg.norm(A @ Q - Q @ (Q.conj().T @ A @ Q), 2) <= 1e-10
        assert np.linalg.norm(Q.conj().T @ A.conj().T @ A @ Q - np.eye(k), 2) <= 1e-10


def test_cnu_unitary_split_rejects_non_contractions_and_non_square():
    with pytest.raises(NotAContraction):
        opcore.cnu_unitary_split(1.1 * np.eye(3))
    with pytest.raises(NonSquare):
        opcore.cnu_unitary_split(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# pqs Krylov subspace and minimal reduction
# ---------------------------------------------------------------------------

def test_pqs_krylov_subspace_is_the_controllable_subspace_bit_for_bit():
    rng = np.random.default_rng(203)
    t = np.repeat(np.linspace(-0.8, 0.8, 10), 4) + 1e-10 * np.tile(np.arange(4), 10)
    tau = system(pqs_from_spectrum(rng, t, 3), 3, 40)
    span = sysmodel.pqs_krylov_subspace(tau)
    assert span.dim == 30
    assert np.array_equal(span.basis, sysmodel.controllable_subspace(tau).basis)


def test_minimal_pqs_reduction_of_a_minimal_system_builds_no_basis(monkeypatch):
    rng = np.random.default_rng(205)
    tau = system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 30), 2), 2, 30)
    for name in ("controllable_subspace", "pqs_krylov_subspace", "_spans"):
        monkeypatch.setattr(sysmodel, name, lambda *a, _n=name, **kw: pytest.fail(f"{_n} called"))
    monkeypatch.setattr(opcore, "krylov_span", lambda *a, **kw: pytest.fail("krylov_span called"))
    assert sysmodel.minimal_pqs_reduction(tau) is tau


def test_minimal_pqs_reduction_still_rejects_non_pqs():
    rng = np.random.default_rng(207)
    with pytest.raises(NotPqs):
        sysmodel.minimal_pqs_reduction(system(rand_contraction(rng, 6, 6, 0.9), 2, 4))


# ---------------------------------------------------------------------------
# spectral read-out
# ---------------------------------------------------------------------------

def _near_edge_system(rng, tiny):
    """t = (-0.5, 0, 0.4, 1 - 1e-13) with K = (0.3, 0.4, 0.2, 0.5), plus an
    atom at 0.7 with K = tiny; B = D_A K*, in a random eigenbasis."""
    t = np.array([-0.5, 0.0, 0.4, 1 - 1e-13, 0.7])
    K = np.array([0.3, 0.4, 0.2, 0.5, tiny])
    s = t.size
    T = np.zeros((s + 1, s + 1), dtype=complex)
    T[0, 0] = 0.1 + 0.05j
    T[1:, 0] = np.sqrt(1 - t * t) * K
    T[0, 1:] = T[1:, 0].conj()
    np.fill_diagonal(T[1:, 1:], t)
    return system(oracles.conjugate_system(T, 1, 1, rand_unitary(rng, s)), 1, s)


# K = 3e-5 is a weight of 9e-10 and K = 1e-7 one of 1e-14, kept by both
# sides; K = 1e-12 a weight of 1e-24, dropped by both.  realize_from_data
# leaves the drop to the Krylov rule of the minimal reduction, so the read-out
# and the realization count the same atoms.
@pytest.mark.parametrize("tiny, states", [(3e-5, 5), (1e-7, 5), (1e-12, 4)])
def test_spectral_read_out_round_trips_to_the_controllable_dimension(tiny, states):
    tau = _near_edge_system(np.random.default_rng(209), tiny)
    rec = sysmodel.krylov_record(tau)
    f = pqsys.spectral_measure(tau)
    assert len(f.atoms) == rec.controllable == states
    # the atom at 1 - 1e-13 carries the weight 0.5^2 of its channel
    t_edge, w_edge = max(f.atoms, key=lambda a: a[0])
    assert abs(t_edge - (1 - 1e-13)) < 1e-12 and abs(w_edge[0, 0] - 0.25) < 1e-3
    assert pqsys.realize_from_data(f).state_dim == rec.controllable


def test_spectral_measure_takes_no_svd_per_weight(monkeypatch):
    rng = np.random.default_rng(211)
    n, s = 3, 40
    tau = system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, s), n), n, s)
    sysmodel.spectral_data(tau)
    shapes = []
    real_norm = opcore.operator_norm

    def counting(M):
        shapes.append(np.shape(M))
        return real_norm(M)

    for mod in (opcore, realize, transfer, sysmodel):
        monkeypatch.setattr(mod, "operator_norm", counting)
    svds = linalg_calls(monkeypatch, "svd")
    f = pqsys.spectral_measure(tau)
    assert len(f.atoms) == s
    # the n x n norms left are the 8 points of the read-out check and ||D||;
    # the per-weight norms came on top, one per atom
    assert (shapes + svds).count((n, n)) <= 9 < len(f.atoms)


# ---------------------------------------------------------------------------
# unitary similarity
# ---------------------------------------------------------------------------

def _pair(seed, m=3, n=2):
    rng = np.random.default_rng(seed)
    tau1 = pqsys.realize_from_data(member_data(rng, m=m, n=n))
    U = rand_unitary(rng, tau1.state_dim)
    return tau1, system(oracles.conjugate_system(tau1.T, n, n, U), n, tau1.state_dim)


def _markov_gaps(tau1, tau2):
    """||D1 - D2|| and ||C1 A1^k B1 - C2 A2^k B2|| for k < s1 + s2."""
    gaps = [np.linalg.norm(tau1.D - tau2.D, 2)]
    for k in range(tau1.state_dim + tau2.state_dim):
        M1 = tau1.C @ np.linalg.matrix_power(tau1.A, k) @ tau1.B
        M2 = tau2.C @ np.linalg.matrix_power(tau2.A, k) @ tau2.B
        gaps.append(np.linalg.norm(M1 - M2, 2))
    return gaps


def test_unitary_similarity_evaluates_no_transfer_function(monkeypatch):
    tau1, tau2 = _pair(213)
    for mod in (transfer, realize):
        monkeypatch.setattr(mod, "theta_eval", lambda *a, **kw: pytest.fail("theta_eval called"))
    res = pqsys.unitary_similarity(tau1, tau2)
    assert max(res.residuals.values()) < 1e-8


def test_unitary_similarity_ledger_records_the_largest_markov_gap():
    tau1, tau2 = _pair(215)
    with errors.ledger() as entries:
        pqsys.unitary_similarity(tau1, tau2)
    (entry,) = [e for e in entries if e["name"] == "transfer_agreement"]
    assert entry["pass"] and abs(entry["residual"] - max(_markov_gaps(tau1, tau2))) < 1e-14

    # a different function of the same state dimension: the residual is
    # still the largest Markov gap, now far above the bound
    rng = np.random.default_rng(217)
    other = pqsys.realize_from_data(member_data(rng, m=3, n=2))
    assert other.state_dim == tau1.state_dim
    with errors.ledger() as entries, pytest.raises(TransferMismatch, match="coefficient of lambda"):
        pqsys.unitary_similarity(tau1, other)
    (entry,) = [e for e in entries if e["name"] == "transfer_agreement"]
    assert not entry["pass"]
    assert abs(entry["residual"] - max(_markov_gaps(tau1, other))) < 1e-12


def test_unitary_similarity_rejects_different_functions_of_unequal_order():
    rng = np.random.default_rng(219)
    tau1 = pqsys.realize_from_data(member_data(rng, m=2, n=1))
    tau2 = pqsys.realize_from_data(member_data(rng, m=4, n=1))
    assert tau1.state_dim != tau2.state_dim
    with pytest.raises(TransferMismatch):
        pqsys.unitary_similarity(tau1, tau2)


def test_unitary_similarity_c_rule_is_the_classify_rule():
    tau1, tau2 = _pair(223)
    T = tau2.T.copy()
    T[:2, 2:] *= 1 + 1e-6  # C = (1 + 1e-6) B*
    bad = system(T, 2, tau2.state_dim)
    assert not sysmodel.classify(bad).pqs
    with pytest.raises(pqsys.PqsysError, match="C = S B"):
        pqsys.unitary_similarity(tau1, bad)


# ---------------------------------------------------------------------------
# normal_main of a selfadjoint main operator; q_asymptotic_F's tolerances
# ---------------------------------------------------------------------------

def test_selfadjoint_main_operator_is_normal():
    # ||A|| ~ 1e-3 with a 1e-11 skew part: selfadjoint by the library's
    # rule (scale max(1, ||A||)), while is_normal, scaled by ||A*A|| ~ 1e-6,
    # sees a relative commutator of ~1e-8
    rng = np.random.default_rng(5)
    s, n = 21, 2
    T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-1e-3, 1e-3, 7), 3), n)
    T[n:, n:] += 1e-11j * rand_hermitian_contraction(rng, s)
    tau = system(T, n, s)
    assert not pqsys.is_normal(tau.A)
    flags = sysmodel.classify(tau)
    assert flags.selfadjoint_main and flags.normal_main
    rep = pqsys.check_minimality_normal(tau)
    assert rep.direct_minimal == pqsys.is_minimal(tau)
    # two channels cannot fill a triple eigenvalue: both routes count 14 of 21
    assert rep.agree and not rep.controllable and not rep.minimal
    assert pqsys.is_strongly_stable(tau) is True


@pytest.mark.parametrize("n, minimal", [(2, False), (3, True)])
def test_check_minimality_normal_reads_the_cluster_rule_for_selfadjoint_A(monkeypatch, n, minimal):
    # s = 50 in triple eigenvalue clusters: the defect route takes the
    # cluster ranks of the cached factorization, as the direct route does
    rng = np.random.default_rng(50 + n)
    s = 50
    tau = system(pqs_from_spectrum(rng, np.repeat(rng.uniform(-0.9, 0.9, 17), 3)[:s], n), n, s)
    spans = []
    span = opcore.krylov_span
    monkeypatch.setattr(opcore, "krylov_span", lambda *a: spans.append(1) or span(*a))
    rep = pqsys.check_minimality_normal(tau)
    assert rep.agree and rep.minimal == minimal and rep.simple == minimal
    assert not spans


def test_q_asymptotic_F_takes_the_callers_tolerances():
    # A with a 1e-7 skew part: pqs only under eq_tol = 1e-5
    rng = np.random.default_rng(225)
    s, n = 8, 2
    T = pqs_from_spectrum(rng, rng.uniform(-0.8, 0.8, s), n)
    T[n:, n:] += 1e-7j * rand_hermitian_contraction(rng, s)
    tau = system(T, n, s)
    loose = pqsys.Tolerances(eq_tol=1e-5)
    with pytest.raises(NotPqs):
        qfunc.q_asymptotic_F(tau)
    F = qfunc.q_asymptotic_F(tau, tol=loose)
    # F = -Theta(0) = -D up to the ring's O(radius^-count) tail
    assert np.linalg.norm(F + tau.D, 2) < 1e-6
