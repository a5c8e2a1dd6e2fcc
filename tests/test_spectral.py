"""Evaluation of Theta, Phi and Q from the cached spectral factorization of
a selfadjoint main operator, against the dense per-point solves it replaces."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, sysmodel, transfer
from pqsys.errors import SingularResolvent

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_hermitian_contraction, rand_passive_T, rand_unitary

S = 200
N = 3


def hard_spectrum(rng):
    """Clusters of four eigenvalues 1e-10 apart, plus eigenvalues at
    +-(1 - 1e-6)."""
    centers = np.linspace(-0.9, 0.9, (S - 2) // 4 + 1)
    clustered = (centers[:, None] + 1e-10 * np.arange(4)).ravel()[: S - 2]
    t = np.concatenate([clustered, [1 - 1e-6, -(1 - 1e-6)]])
    return rng.permutation(t)


@pytest.fixture(scope="module")
def tau():
    rng = np.random.default_rng(2024)
    return pqsys.PartitionedContraction(pqs_from_spectrum(rng, hard_spectrum(rng), N), N, N, S)


def rel(a, b):
    return np.linalg.norm(a - b, 2) / max(1.0, np.linalg.norm(b, 2))


def test_spectral_path_is_taken(tau):
    assert sysmodel.classify(tau).pqs
    sd = sysmodel.spectral_data(tau)
    assert sd is not None and sd.t.shape == (S,)
    assert sd.VB.shape == (S, N) and sd.CV.shape == (N, S)


def test_theta_spectral_matches_dense_solve(tau):
    points = [0.9 * np.exp(2j * np.pi * (k + 0.3) / 12) for k in range(12)]
    points += [np.exp(2j * np.pi * (k + 0.5) / 16) for k in range(16)]
    points += [0.999999, -0.5, 1.7 + 0.2j]
    for lam in points:
        dense = tau.D + lam * tau.C @ np.linalg.solve(np.eye(S) - lam * tau.A, tau.B)
        assert rel(pqsys.theta_eval(tau, lam), dense) < 1e-8


def test_phi_spectral_matches_dense_kernel(tau):
    dd = opcore.defect_data(tau.A)
    assert dd.t is not None and dd.E_A.shape[1] == S
    dense_dd = dd._replace(t=None)
    for lam in (0.3 + 0.4j, -0.85j, np.exp(0.7j), 0.999):
        spectral = pqsys.char_func(tau.A, lam)
        assert rel(spectral, transfer._phi(tau.A, dense_dd, complex(lam))) < 1e-8
        # and in ambient coordinates: -A + lam D_A (I - lam A)^{-1} D_A
        ambient = -tau.A + lam * dd.DA @ np.linalg.solve(np.eye(S) - lam * tau.A, dd.DA)
        assert rel(dd.E_A @ spectral @ dd.E_A.conj().T, ambient) < 1e-8


def test_q_spectral_matches_dense_solve(tau):
    E = np.eye(N + S)[:, :N]
    for z in (1.5, -1.2 + 0.3j, 2j, 1.01, -1.01, 0.3 + 0.5j):
        dense = np.linalg.solve(tau.T - z * np.eye(N + S), E)[:N]
        assert rel(pqsys.q_eval(tau, z), dense) < 1e-8


def test_q_at_an_eigenvalue_of_a_equals_dense_solve(tau):
    E = np.eye(N + S)[:, :N]
    for t_k in sysmodel.spectral_data(tau).t[[0, 57, S // 2, -1]]:
        dense = np.linalg.solve(tau.T - t_k * np.eye(N + S), E)[:N]
        assert np.all(np.isfinite(dense))
        assert rel(pqsys.q_eval(tau, t_k), dense) < 1e-9


def test_theta_raises_at_the_poles(tau):
    t = sysmodel.spectral_data(tau).t
    for t_k in t[[3, S // 2, -1]]:
        with pytest.raises(SingularResolvent):
            pqsys.theta_eval(tau, 1.0 / t_k)


def test_system_block_is_read_only(tau):
    with pytest.raises(ValueError):
        tau.T[0, 0] = 0.0
    with pytest.raises(ValueError):
        tau.A[1, 1] = 0.0
    with pytest.raises(ValueError):
        sysmodel.spectral_data(tau).t[0] = 0.0


def test_the_caller_array_is_not_copied_nor_frozen():
    T = pqs_from_spectrum(np.random.default_rng(3), [0.1, -0.4, 0.6], 2)
    tau = pqsys.PartitionedContraction(T, 2, 2, 3)
    assert np.shares_memory(tau.T, T) and T.flags.writeable


def test_tolerance_sets_use_separate_cache_entries():
    rng = np.random.default_rng(11)
    s, n = 6, 2
    T = pqs_from_spectrum(rng, rng.uniform(-0.8, 0.8, s), n)
    skew = 1e-7 * rand_hermitian_contraction(rng, s)
    T[n:, n:] += 1j * skew            # A is selfadjoint only to 1e-7
    tau = pqsys.PartitionedContraction(T, n, n, s)
    loose = pqsys.Tolerances(eq_tol=1e-5)

    assert sysmodel.spectral_data(tau) is None
    assert sysmodel.spectral_data(tau, loose) is not None
    assert not sysmodel.classify(tau).pqs
    assert sysmodel.classify(tau, loose).pqs
    assert sysmodel.spectral_data(tau) is None and not sysmodel.classify(tau).pqs
    assert sysmodel.spectral_data(tau, pqsys.Tolerances(eq_tol=1e-5)) is sysmodel.spectral_data(tau, loose)

    # the strict set keeps the dense path, exact for the non-Hermitian A
    lam = 0.4 - 0.3j
    dense = tau.D + lam * tau.C @ np.linalg.solve(np.eye(s) - lam * tau.A, tau.B)
    assert rel(pqsys.theta_eval(tau, lam), dense) < 1e-13
    assert rel(pqsys.theta_eval(tau, lam, loose), dense) < 1e-5


def _krylov_span_by_eigh(tau):
    """span{A^n K* N} from a fresh eigh of A, clustered on gaps <= 1e-8:
    the route pqs_krylov_subspace takes when no eigenbasis is cached."""
    p = pqsys.parametrize(tau)
    ks = p.defects.E_A @ p.K.conj().T
    scale = np.linalg.norm(ks, 2)
    vals, vecs = np.linalg.eigh((tau.A + tau.A.conj().T) / 2)
    kept, start = [], 0
    for stop in range(1, vals.size + 1):
        if stop < vals.size and vals[stop] - vals[stop - 1] <= 1e-8:
            continue
        U, sv, _ = np.linalg.svd(vecs[:, start:stop].conj().T @ ks, full_matrices=False)
        rank = int(np.sum(sv > 1e-10 * scale))
        kept.append(vecs[:, start:stop] @ U[:, :rank])
        start = stop
    return np.hstack(kept)


def test_pqs_krylov_from_cached_eigenbasis_matches_eigh_route(tau):
    assert pqsys.parametrize(tau).defects.t is not None
    span = sysmodel.pqs_krylov_subspace(tau)
    ref = _krylov_span_by_eigh(tau)
    # clusters of four eigenvalues meet N = 3 channels: rank 3 per cluster
    assert span.dim == ref.shape[1] < S
    P, Q = span.projector(), ref @ ref.conj().T
    assert np.linalg.norm(P - Q, 2) < 1e-8
    assert np.linalg.norm(span.basis.conj().T @ span.basis - np.eye(span.dim)) < 1e-10


def test_pqs_krylov_without_cached_eigenbasis_runs_its_own_eigh():
    # ||A|| ~ 1e-3 with a 1e-11 skew part: selfadjoint for classify (scale
    # max(1, ||A||)) but not for the eigenbasis cache (scale ||A||)
    rng = np.random.default_rng(5)
    s, n = 21, 2
    T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-1e-3, 1e-3, 7), 3), n)
    T[n:, n:] += 1e-11j * rand_hermitian_contraction(rng, s)
    tau = pqsys.PartitionedContraction(T, n, n, s)
    assert sysmodel.classify(tau).pqs and pqsys.parametrize(tau).defects.t is not None
    span = sysmodel.pqs_krylov_subspace(tau)
    ref = _krylov_span_by_eigh(tau)
    assert span.dim == ref.shape[1] == 14
    assert np.linalg.norm(span.projector() - ref @ ref.conj().T, 2) < 1e-8


def _atoms_by_own_eigh(tau):
    """The spectral read-out from a fresh eigh of the Hermitian part of A,
    clusters chained on gaps <= 1e-8: the route spectral_measure took
    before it read the cached factorization."""
    vals, vecs = np.linalg.eigh((tau.A + tau.A.conj().T) / 2)
    atoms, i, s = [], 0, tau.state_dim
    while i < s:
        j = i + 1
        while j < s and vals[j] - vals[j - 1] <= 1e-8:
            j += 1
        t = float(np.mean(vals[i:j]))
        if 1.0 - t * t > 1e-12:
            CV = tau.C @ vecs[:, i:j]
            sigma = (CV @ CV.conj().T) / (1.0 - t * t)
            if np.linalg.norm(sigma, 2) > 1e-10:
                atoms.append((t, sigma))
        i = j
    return atoms


@pytest.mark.parametrize("kind", ["random", "clustered", "arcsine", "arcsine_diagonal"])
def test_spectral_measure_reads_the_cached_factorization(kind, monkeypatch):
    rng = np.random.default_rng(61)
    if kind == "random":
        tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 40), 3), 3, 3, 40)
    elif kind == "clustered":
        t = np.repeat(np.linspace(-0.8, 0.8, 10), 4) + 1e-10 * np.tile(np.arange(4), 10)
        tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, t, 3), 3, 3, 40)
    elif kind == "arcsine":
        diag = pqsys.chebyshev_example(0.2 + 0.3j, 40)[1]
        tau = pqsys.PartitionedContraction(oracles.conjugate_system(diag.T, 1, 1, rand_unitary(rng, 40)), 1, 1, 40)
    else:
        tau = pqsys.chebyshev_example(0.2 + 0.3j, 40)[1]
    ref = _atoms_by_own_eigh(tau)
    assert sysmodel.spectral_data(tau) is not None
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("spectral_measure ran eigh"))
        f = pqsys.spectral_measure(tau)
    assert len(f.atoms) == len(ref) == (10 if kind == "clustered" else 40)
    for (t, sigma), (t_ref, sigma_ref) in zip(f.atoms, ref):
        assert abs(t - t_ref) < 1e-12
        assert np.linalg.norm(sigma - sigma_ref, 2) < 1e-12


def test_spectral_measure_without_cached_factorization():
    # the skew part of this A passes classify but not the factorization cache
    rng = np.random.default_rng(5)
    s, n = 21, 2
    T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-1e-3, 1e-3, 7), 3), n)
    T[n:, n:] += 1e-11j * rand_hermitian_contraction(rng, s)
    tau = pqsys.PartitionedContraction(T, n, n, s)
    assert sysmodel.spectral_data(tau) is not None
    f = pqsys.spectral_measure(tau)
    ref = _atoms_by_own_eigh(tau)
    assert len(f.atoms) == len(ref) == 7
    for (t, sigma), (t_ref, sigma_ref) in zip(f.atoms, ref):
        assert abs(t - t_ref) < 1e-12 and np.linalg.norm(sigma - sigma_ref, 2) < 1e-12


def _with_skew(rng, T, n, size):
    """T with i * size * S added to its main block, S Hermitian of norm 1,
    so that ||A - A*||_2 = 2 size."""
    S = rand_hermitian_contraction(rng, T.shape[0] - n)
    T = T.copy()
    T[n:, n:] += 1j * size * S / np.linalg.norm(S, 2)
    return T


def _invariant_case(kind):
    rng = np.random.default_rng(101)
    eq = pqsys.DEFAULT_TOL.eq_tol
    if kind == "random":
        return pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 30), 2), 2, True
    if kind == "clustered":
        t = np.repeat(np.linspace(-0.8, 0.8, 10), 4) + 1e-10 * np.tile(np.arange(4), 10)
        return pqs_from_spectrum(rng, t, 3), 3, True
    if kind == "tiny_norm":
        # ||A|| ~ 1e-3 with a 1e-11 skew part
        T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-1e-3, 1e-3, 7), 3), 2)
        return _with_skew(rng, T, 2, 0.5e-11), 2, True
    if kind in ("near_edge", "over_edge"):
        # dense s = 200, ||A - A*|| at 0.9 and 1.1 times eq_tol * max(1, ||A||)
        T = pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 200), 3)
        return _with_skew(rng, T, 3, (0.45 if kind == "near_edge" else 0.55) * eq), 3, kind == "near_edge"
    if kind == "non_hermitian":
        return rand_passive_T(rng, 2, 2, 12), 2, False
    return 0.5 * rand_unitary(rng, 2), 2, True  # no state


@pytest.mark.parametrize("kind", ["random", "clustered", "tiny_norm", "near_edge", "over_edge",
                                  "non_hermitian", "no_state"])
def test_selfadjoint_main_iff_spectral_data(kind):
    T, n, selfadjoint = _invariant_case(kind)
    s = T.shape[0] - n
    tau = pqsys.PartitionedContraction(T, n, n, s)
    flags = sysmodel.classify(tau)
    sd = sysmodel.spectral_data(tau)
    assert flags.selfadjoint_main == (sd is not None) == selfadjoint
    if sd is None:
        return
    assert sd.t.shape == (s,) and sd.V.shape == (s, s)
    assert not sd.V.flags.writeable
    H = (tau.A + tau.A.conj().T) / 2
    assert np.linalg.norm(H @ sd.V - sd.V * sd.t) <= 1e-12 * max(1.0, np.abs(sd.t).max(initial=0.0))
    # the pqs consumers all read this one factorization
    assert flags.pqs
    lam = 0.4 - 0.3j
    dense = tau.D + lam * tau.C @ np.linalg.solve(np.eye(s) - lam * tau.A, tau.B)
    assert rel(pqsys.theta_eval(tau, lam), dense) < 1e-8
    assert pqsys.parametrize(tau).defects.t is not None
    rec = sysmodel.krylov_record(tau)
    assert sysmodel.pqs_krylov_subspace(tau).dim == rec.controllable == rec.observable
    f = pqsys.spectral_measure(tau)
    assert rel(pqsys.theta_from_data(f, lam), pqsys.theta_eval(tau, lam)) < 1e-9


def test_one_eigh_per_pqs_system(monkeypatch):
    # clusters of four eigenvalues meet three channels, so the minimal
    # reduction drops a quarter of the state space
    rng = np.random.default_rng(103)
    t = np.repeat(np.linspace(-0.8, 0.8, 10), 4) + 1e-10 * np.tile(np.arange(4), 10)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, t, 3), 3, 3, 40)
    calls = linalg_calls(monkeypatch, "eigh", (40, 40))
    pqsys.parametrize(tau)
    verdicts = [f(tau) for f in (pqsys.is_controllable, pqsys.is_observable, pqsys.is_simple, pqsys.is_minimal)]
    bases = [sysmodel.controllable_subspace(tau), sysmodel.observable_subspace(tau),
             sysmodel.pqs_krylov_subspace(tau)]
    red = sysmodel.minimal_pqs_reduction(tau)
    f = pqsys.spectral_measure(tau)
    assert len(calls) == 1
    assert verdicts == [False] * 4
    assert [b.dim for b in bases] == [30, 30, 30] and red.state_dim == 30 and len(f.atoms) == 10


def test_one_eigh_per_dilation_system(monkeypatch):
    rng = np.random.default_rng(105)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 40), 3), 3, 3, 40)
    big = pqsys.biinner_dilation(tau).system
    # a fresh copy of the dilation system, with nothing cached yet
    fresh = pqsys.PartitionedContraction(big.T, big.in_dim, big.out_dim, big.state_dim)
    assert fresh.in_dim != 40
    calls = linalg_calls(monkeypatch, "eigh", (40, 40))
    assert sysmodel.classify(fresh).conservative and pqsys.is_minimal(fresh)
    cf = pqsys.inner_canonical_form(fresh)
    assert len(calls) == 1
    assert np.allclose(cf.points, sysmodel.spectral_data(tau).t, atol=1e-12)
