"""Unitary similarity on the spectral route: when both main operators are
selfadjoint, transfer agreement, moments and the intertwining unitary are
read off the cached factorizations A = V diag(t) V*, with one Procrustes
problem per eigenvalue cluster."""

import json

import numpy as np
import pytest

import pqsys
from pqsys import errors, opcore, realize, sysmodel
from pqsys.cli import main
from pqsys.errors import MomentMismatch, TransferMismatch

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_complex, rand_contraction, rand_unitary
from test_krylov import _first_moment_mismatch_by_powers


def system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def diagonal_system(t, B, D, S=None):
    """[[D, S B*], [B, diag(t)]], with C = B* bit for bit when S is None."""
    s, n = B.shape
    C = B.conj().T if S is None else S @ B.conj().T
    T = np.zeros((n + s, n + s), dtype=complex)
    T[:n, :n] = D
    T[:n, n:] = C
    T[n:, :n] = B
    np.fill_diagonal(T[n:, n:], t)
    return system(T, n, s)


def rotated(tau, V):
    n = tau.in_dim
    return system(oracles.conjugate_system(tau.T, n, n, V), n, tau.state_dim)


def _polar(M):
    u, _, vh = np.linalg.svd(M)
    return u @ vh


# ---------------------------------------------------------------------------
# the spectral route
# ---------------------------------------------------------------------------

def test_similar_pair_at_s400_recovers_the_rotation(monkeypatch):
    # a scaled Chebyshev spectrum with 4 channels, rotated by a random unitary
    rng = np.random.default_rng(401)
    s, n = 400, 4
    t = 0.95 * np.cos((2 * np.arange(1, s + 1) - 1) * np.pi / (2 * s))
    tau = system(pqs_from_spectrum(rng, t, n), n, s)
    V = rand_unitary(rng, s)
    twin = rotated(tau, V)
    monkeypatch.setattr(opcore, "krylov_span", lambda *a, **kw: pytest.fail("krylov_span called"))
    res = pqsys.unitary_similarity(tau, twin)
    assert max(res.residuals.values()) < 1e-8
    assert np.linalg.norm(res.U - V, 2) < 1e-6


def test_cluster_weights_differing_by_1e_9_relative_raise_transfer_mismatch():
    # a relative change of 1e-9 in a weight of norm below 1 moves the Markov
    # parameters by less than the default eq_tol, so the check runs at 1e-12
    rng = np.random.default_rng(403)
    s, n = 30, 2
    t = np.linspace(-0.8, 0.8, s)
    B = 0.1 * rand_complex(rng, s, n)
    D = 0.1 * rand_complex(rng, n, n)
    tight = pqsys.Tolerances(eq_tol=1e-12)
    tau = diagonal_system(t, B, D)
    V = rand_unitary(rng, s)
    assert max(pqsys.unitary_similarity(tau, rotated(tau, V), tol=tight).residuals.values()) < 1e-11
    B2 = B.copy()
    B2[7] *= np.sqrt(1 + 1e-9)  # the weight B_7* B_7 of one cluster, scaled by 1 + 1e-9
    with pytest.raises(TransferMismatch, match="coefficient of lambda"):
        pqsys.unitary_similarity(tau, rotated(diagonal_system(t, B2, D), V), tol=tight)


def _gap_pair(t1, t2):
    rng = np.random.default_rng(31)
    s, n = t1.size, 2
    B = 0.12 * rand_complex(rng, s, n)
    D = 0.1 * rand_complex(rng, n, n)
    V = rand_unitary(rng, s)
    return diagonal_system(t1, B, D), rotated(diagonal_system(t2, B, D), V), V


def test_an_eigenvalue_moved_inside_the_cluster_gap_gets_a_pinned_verdict():
    t = np.linspace(-0.7, 0.7, 12)
    # moved by 5e-9 (below CLUSTER_GAP): the Markov gaps (3.9e-10) pass, and
    # the certificate accepts the pair with the move as its main residual
    moved = t.copy()
    moved[5] += 5e-9
    tau, twin, V = _gap_pair(t, moved)
    res = pqsys.unitary_similarity(tau, twin)
    assert abs(res.residuals["main"] - 5e-9) < 1e-12
    assert np.linalg.norm(res.U - V, 2) < 1e-12
    # moved by 2e-8: the coefficient of lambda^2 differs by 1.6e-9
    moved[5] = t[5] + 2e-8
    tau, twin, _ = _gap_pair(t, moved)
    with pytest.raises(TransferMismatch, match="lambda\\^2"):
        pqsys.unitary_similarity(tau, twin)


def test_an_eigenvalue_chained_into_its_neighbours_cluster_in_one_system_only():
    # t[5], t[6] 1.2e-8 apart in the first system (two clusters) and 6e-9
    # apart in the second (one cluster): the common partition takes them as
    # one cluster of two, and its 2 x 2 Procrustes factor recovers V
    t = np.linspace(-0.7, 0.7, 12)
    t1, t2 = t.copy(), t.copy()
    t1[6], t2[6] = t[5] + 1.2e-8, t[5] + 6e-9
    assert len(opcore.eigen_clusters(t1)) == 12 and len(opcore.eigen_clusters(t2)) == 11
    assert len(opcore.eigen_clusters(np.vstack([t1, t2]))) == 11
    tau, twin, V = _gap_pair(t1, t2)
    res = pqsys.unitary_similarity(tau, twin)
    assert abs(res.residuals["main"] - 6e-9) < 1e-12
    assert np.linalg.norm(res.U - V, 2) < 1e-12


def test_triple_clusters_with_three_channels_recover_the_rotation():
    # like the benchmark's clustered kind: each eigenvalue three times, 3 channels
    rng = np.random.default_rng(405)
    s, n = 48, 3
    t = np.repeat(np.linspace(-0.85, 0.85, s // 3), 3)
    tau = system(pqs_from_spectrum(rng, t, n), n, s)
    assert pqsys.is_minimal(tau)
    V = rand_unitary(rng, s)
    res = pqsys.unitary_similarity(tau, rotated(tau, V))
    assert max(res.residuals.values()) < 1e-8
    assert np.linalg.norm(res.U - V, 2) < 1e-8


def test_a_diagonal_system_pairs_with_its_dense_rotation_and_its_permutation():
    rng = np.random.default_rng(407)
    s, n = 20, 2
    t = rng.permutation(np.linspace(-0.8, 0.8, s))
    tau = diagonal_system(t, 0.1 * rand_complex(rng, s, n), 0.1 * rand_complex(rng, n, n))
    assert sysmodel.spectral_data(tau).V.ndim == 1  # the index form
    V = rand_unitary(rng, s)
    dense = rotated(tau, V)
    assert sysmodel.spectral_data(dense).V.ndim == 2
    assert np.linalg.norm(pqsys.unitary_similarity(tau, dense).U - V, 2) < 1e-10
    assert np.linalg.norm(pqsys.unitary_similarity(dense, tau).U - V.conj().T, 2) < 1e-10
    # two index forms: the permutation that reorders the states
    P = np.eye(s)[rng.permutation(s)]
    permuted = rotated(tau, P)
    assert sysmodel.spectral_data(permuted).V.ndim == 1
    assert np.linalg.norm(pqsys.unitary_similarity(tau, permuted).U - P, 2) < 1e-12


# ---------------------------------------------------------------------------
# which route runs
# ---------------------------------------------------------------------------

def test_a_selfadjoint_pair_never_takes_the_krylov_route(monkeypatch):
    rng = np.random.default_rng(409)
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, 40), 2), 2, 40)
    V = rand_unitary(rng, 40)
    twin = rotated(tau, V)
    monkeypatch.setattr(opcore, "krylov_span", lambda *a, **kw: pytest.fail("krylov_span called"))
    monkeypatch.setattr(realize, "_krylov_blocks", lambda *a, **kw: pytest.fail("_krylov_blocks called"))
    res = pqsys.unitary_similarity(tau, twin)
    assert np.linalg.norm(res.U - V, 2) < 1e-10


def test_a_non_selfadjoint_pair_takes_the_krylov_route(monkeypatch):
    # a minimal pair with a non-normal A and C = S B*
    rng = np.random.default_rng(411)
    s, n = 10, 2
    A = rand_contraction(rng, s, s, 0.7)
    B = 0.2 * rand_complex(rng, s, n)
    S = rand_contraction(rng, n, n, 0.8)
    T = np.block([[0.1 * rand_complex(rng, n, n), S @ B.conj().T], [B, A]])
    tau = system(T, n, s)
    assert sysmodel.spectral_data(tau) is None and pqsys.is_minimal(tau)
    V = rand_unitary(rng, s)
    for name in ("_spectral_moments", "_spectral_intertwiner"):
        monkeypatch.setattr(realize, name, lambda *a, name=name, **kw: pytest.fail(f"{name} called"))
    res = pqsys.unitary_similarity(tau, rotated(tau, V), S=S)
    assert max(res.residuals.values()) < 1e-8
    assert np.linalg.norm(res.U - V, 2) < 1e-8


def test_the_krylov_route_reuses_the_bases_of_the_minimality_gates(monkeypatch):
    # the is_minimal gates build span{A^k B} and span{A*^k C*} of each system;
    # U is the polar factor of the two controllable bases they cached
    rng = np.random.default_rng(412)
    s, n = 10, 2
    A = rand_contraction(rng, s, s, 0.7)
    B = 0.2 * rand_complex(rng, s, n)
    tau = system(np.block([[0.1 * rand_complex(rng, n, n), B.conj().T], [B, A]]), n, s)
    twin = rotated(tau, rand_unitary(rng, s))
    Q1, Q2 = (opcore.krylov_span(x.A, x.B, s).basis for x in (tau, twin))
    span = opcore.krylov_span
    calls = []
    monkeypatch.setattr(opcore, "krylov_span", lambda *a: calls.append(1) or span(*a))
    U = pqsys.unitary_similarity(tau, twin).U
    assert len(calls) == 4
    assert np.array_equal(U, _polar(Q2 @ Q1.conj().T))


def test_the_spectral_U_is_the_krylov_polar_factor():
    rng = np.random.default_rng(413)
    s, n = 30, 2
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), n, s)
    twin = rotated(tau, rand_unitary(rng, s))
    Q1 = opcore.krylov_span(tau.A, tau.B, s).basis
    Q2 = opcore.krylov_span(twin.A, twin.B, s).basis
    U = pqsys.unitary_similarity(tau, twin).U
    assert np.linalg.norm(U - _polar(Q2 @ Q1.conj().T), 2) < 1e-10


# ---------------------------------------------------------------------------
# contracts kept from the Krylov route
# ---------------------------------------------------------------------------

def test_hankel_moment_mismatch_reports_the_pair_of_the_power_loop():
    # S = diag(1, 1e-8) nearly has a kernel: moving the state that only the
    # second channel sees changes that channel's moments by 5e-3 while the
    # Markov parameters, which carry the factor 1e-8, move by under 1e-9;
    # both systems stay minimal (rank_tol is relative to ||C||)
    rng = np.random.default_rng(415)
    s, n = 8, 2
    t = np.linspace(-0.6, 0.6, s)
    B = 0.1 * rand_complex(rng, s, n)
    B[3] = [0.0, 0.25]
    D = 0.1 * rand_complex(rng, n, n)
    S = np.diag([1.0, 1e-8]).astype(complex)
    moved = t.copy()
    moved[3] += 0.1
    tau1, tau2 = diagonal_system(t, B, D, S), diagonal_system(moved, B, D, S)
    assert pqsys.is_minimal(tau1) and pqsys.is_minimal(tau2)
    bound = 1e-9 * max(1.0, tau1.norm(), tau2.norm())
    ref = _first_moment_mismatch_by_powers(tau1, tau2, s, bound)
    assert ref is not None
    with errors.ledger() as entries, pytest.raises(MomentMismatch) as exc:
        pqsys.unitary_similarity(tau1, tau2, S=S)
    assert (exc.value.n, exc.value.m) == ref
    assert [e["name"] for e in entries if e["pass"]] == ["transfer_agreement"]


def _hankel_mismatch(tau1, tau2, p, bound):
    H1, H2 = (realize._spectral_moments(sysmodel.spectral_data(tau), 2 * p + 1) for tau in (tau1, tau2))
    try:
        realize._check_moments(realize._hankel_gaps(H1, H2, bound), bound)
    except MomentMismatch as exc:
        return exc.n, exc.m
    return None


def test_hankel_moments_match_the_power_loop_on_rank_one_changes_of_A():
    # the pairs of the Gram-form test: a rank-one change of A orthogonal to ran B
    rng = np.random.default_rng(76)
    s, n = 12, 2
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), n, s)
    q = oracles._kernel(tau.B.conj().T)[:, 0]
    found = []
    for eps in (1e-3, 1e-6, 3e-9):
        T = tau.T.copy()
        T[n:, n:] += eps * np.outer(q, q.conj())
        twin = system(T, n, s)
        ref = _first_moment_mismatch_by_powers(tau, twin, s, 1e-9)
        assert _hankel_mismatch(tau, twin, s, 1e-9) == ref
        found.append(ref)
    assert found[0] == (0, 3)
    assert _hankel_mismatch(tau, tau, s, 1e-9) is None


@pytest.mark.parametrize("first", [0, 3, 6, 7, 12])
def test_hankel_index_of_the_first_failing_pair(first):
    # H_{n+m} is the (n, m) moment: the first failing k in (n, m) loop order
    p = 6
    H1 = np.zeros((2 * p + 1, 1, 1))
    H2 = H1.copy()
    H2[first:, 0, 0] = 1.0
    H2[first + 1:first + 2, 0, 0] = 0.0  # a passing k past the first failing one
    ref = next((nn, mm) for nn in range(p + 1) for mm in range(p + 1) if H2[nn + mm, 0, 0] > 0.5)
    with pytest.raises(MomentMismatch) as exc:
        realize._check_moments(realize._hankel_gaps(H1, H2, 0.5), 0.5)
    assert (exc.value.n, exc.value.m) == ref


def test_similar_report_keeps_the_six_check_names(tmp_path):
    rng = np.random.default_rng(417)
    s, n = 16, 2
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), n, s)
    for name, sys_ in (("a.json", tau), ("b.json", rotated(tau, rand_unitary(rng, s)))):
        (tmp_path / name).write_text(json.dumps(pqsys._json.system_to_json(sys_)))
    report = tmp_path / "rep.json"
    assert main(["similar", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--report", str(report)]) == 0
    names = [c["name"] for c in json.loads(report.read_text())["checks"]]
    assert [x for x in names if x != "eigh_residual"] == [
        "transfer_agreement", "moments", "unitarity", "main", "input", "output"]


# ---------------------------------------------------------------------------
# recorded residuals
# ---------------------------------------------------------------------------

def test_a_spectral_pair_takes_only_the_procrustes_svds(monkeypatch):
    # after the gates, which the first call caches on both systems, the
    # passing checks are settled by Frobenius norms (`opcore.gap`): the one
    # stacked SVD of the 1 x 1 Procrustes problems is the only SVD
    rng = np.random.default_rng(418)
    s, n = 50, 3
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, s), n), n, s)
    twin = rotated(tau, rand_unitary(rng, s))
    first = pqsys.unitary_similarity(tau, twin)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    with errors.ledger() as entries:
        res = pqsys.unitary_similarity(tau, twin)
    assert svds == [(s, 1, 1)]
    assert all(e["pass"] for e in entries) and len(entries) == 6
    assert np.array_equal(res.U, first.U)
    # a passing residual bounds the 2-norm
    assert res.residuals["main"] >= np.linalg.norm(res.U @ tau.A - twin.A @ res.U, 2) * (1 - 1e-14)


def test_a_failing_intertwining_residual_records_the_exact_2_norm(monkeypatch):
    # U turned by a 1e-6 rotation in one plane stays unitary and fails "main"
    rng = np.random.default_rng(419)
    s, n = 12, 2
    tau = system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), n, s)
    twin = rotated(tau, rand_unitary(rng, s))
    G = np.eye(s, dtype=complex)
    c, sn = np.cos(1e-6), np.sin(1e-6)
    G[:2, :2] = [[c, -sn], [sn, c]]
    intertwiner = realize._spectral_intertwiner
    turned = []
    monkeypatch.setattr(realize, "_spectral_intertwiner",
                        lambda *a: turned.append(intertwiner(*a) @ G) or turned[-1])
    with errors.ledger() as entries, pytest.raises(pqsys.PqsysError, match="intertwining residual"):
        pqsys.unitary_similarity(tau, twin)
    U = turned[0]
    R = U @ tau.A - twin.A @ U
    by_name = {e["name"]: e for e in entries}
    assert by_name["unitarity"]["pass"] and not by_name["main"]["pass"]
    assert by_name["main"]["residual"] == opcore.operator_norm(R)
    assert np.linalg.norm(R) > 1.1 * opcore.operator_norm(R)
