"""The dilation inherits its factorization, defect data and Krylov record.

`biinner_dilation` keeps the source's main operator, so the enlarged system
takes the source's factorization and defect data of A, and its Krylov
record follows from them: it is (s, s, s) exactly when ker D_A = {0}, with
every eigenvalue cluster at full rank.  The enlarged system and its
canonical form run no Krylov pass and build no second defect data; the
record they read is the one a fresh Krylov pass of the enlarged T finds, and
its subspaces and spectral read-out are read off the seeded record."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize, sysmodel
from pqsys.errors import NotMinimal

from helpers import linalg_calls, rand_complex, rand_contraction, rand_unitary

TOL = pqsys.DEFAULT_TOL


def _source(rng, t, n, dense):
    """A pqs system with main operator diag(t) (or U diag(t) U* when dense)
    and n channels, built from atomic data of total mass 0.85 as in
    `helpers.pqs_from_spectrum`: a contraction for any t in [-1, 1], whose
    B = sqrt(1 - t^2) L* has a zero row at t = +-1."""
    t = np.asarray(t, dtype=float)
    s = t.size
    L = rand_complex(rng, s, n)
    L *= np.sqrt(0.85 / np.linalg.eigvalsh(L.T @ L.conj()).max())
    sigma = np.einsum("ki,kj->ij", L, L.conj())
    w, Q = np.linalg.eigh(np.eye(n) - sigma)
    R_half = (Q * np.sqrt(np.maximum(w, 0.0))) @ Q.conj().T
    D = -np.einsum("k,ki,kj->ij", t, L, L.conj()) + R_half @ rand_contraction(rng, n, n, 0.9) @ R_half
    B = np.sqrt(1.0 - t * t)[:, None] * L.conj()
    if not dense:
        return sysmodel._diagonal_pqs(D, B, t)
    U = rand_unitary(rng, s)
    A = (U * t) @ U.conj().T
    T = np.block([[D, (U @ B).conj().T], [U @ B, (A + A.conj().T) / 2]])
    return pqsys.PartitionedContraction(T, n, n, s)


def _spectrum(rng, kind, s):
    if kind == "random":
        return np.sort(rng.uniform(-0.95, 0.95, s))
    if kind == "chebyshev":
        return np.sort(np.cos((2 * np.arange(1, s + 1) - 1) * np.pi / (2 * s)))
    if kind == "triple":
        return np.repeat(np.sort(rng.uniform(-0.9, 0.9, (s + 2) // 3)), 3)[:s]
    # clusters of up to four eigenvalues 1e-10 apart
    centers = np.sort(rng.uniform(-0.9, 0.9, (s + 3) // 4))
    return (np.repeat(centers, 4) + 1e-10 * np.tile(np.arange(4), centers.size))[:s]


KINDS = ("random", "chebyshev", "triple", "tight")


def _battery_case(seed):
    rng = np.random.default_rng(600 + seed)
    s = int(rng.integers(6, 61))
    n = int(rng.integers(1, 5))
    return _source(rng, _spectrum(rng, KINDS[seed % 4], s), n, dense=bool(seed // 4 % 2))


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_battery_block_of_ten_seeded_records_equal_a_fresh_krylov_pass(seed):
    for case in range(seed, seed + 10):
        tau = _battery_case(case)
        dil = realize.biinner_dilation(tau)
        big = dil.system
        s, v = big.state_dim, big.in_dim
        fresh = pqsys.PartitionedContraction(big.T, v, v, s)
        seeded = sysmodel.krylov_record(big)
        assert seeded[:3] == (s, s, s) and seeded.hc is None and seeded.ho is None, case
        # every cluster at full rank, with the identity as its basis part
        assert seeded.parts[0] is seeded.parts[1], case
        for c, rank, U in seeded.parts[0]:
            assert rank == c.stop - c.start and np.array_equal(U, np.eye(rank)), case
        rec = sysmodel._krylov_record(fresh, fresh.B, fresh.C.conj().T, TOL)
        assert rec[:3] == seeded[:3] and rec.hc is None and rec.ho is None, case
        # the fresh pass finds the same clusters at the same ranks on both sides
        for side in rec.parts:
            assert [(c, rank) for c, rank, _ in side] == [(c, rank) for c, rank, _ in seeded.parts[0]], case


def test_dilation_and_canonical_form_run_no_krylov_pass_and_no_second_defect_data(monkeypatch):
    s, n = 50, 3
    rng = np.random.default_rng(610)
    tau = _source(rng, rng.uniform(-0.9, 0.9, s), n, dense=True)
    realize.biinner_dilation(tau)  # warms the source's caches
    for mod, name in ((sysmodel, "_cluster_span"), (opcore, "krylov_span")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **kw: pytest.fail(f"{_n} called"))
    built = []
    for mod, name in ((sysmodel, "_main_defect_data"), (opcore, "hermitian_defect_data"),
                      (opcore, "defect_data")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _r=real, _n=name, **kw: built.append(_n) or _r(*a, **kw))
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    dil = realize.biinner_dilation(tau)
    v = dil.system.out_dim
    cf = realize.inner_canonical_form(dil.system)
    assert len(cf.points) == s
    assert built == []
    assert svds.count((v + s, v + s)) == 1
    assert sysmodel.main_defect_data(dil.system) is sysmodel.main_defect_data(tau)


@pytest.mark.parametrize("dense", [False, True])
def test_the_dilations_subspaces_and_read_out_come_from_its_seeded_record(monkeypatch, dense):
    # the enlarged system's subspaces are spanned by the columns of the shared
    # eigenbasis, and its read-out keeps every cluster: the atoms of the source
    # at the same points, with the source's weights in the n x n corner
    rng = np.random.default_rng(630)
    s, n = 40, 2
    tau = _source(rng, _spectrum(rng, "triple", s), n, dense)
    ref = realize.spectral_measure(tau)
    big = realize.biinner_dilation(tau).system
    for mod, name in ((sysmodel, "_cluster_span"), (opcore, "krylov_span")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **kw: pytest.fail(f"{_n} called"))
    eigvecs = opcore._eig_span(sysmodel.spectral_data(big).V, slice(None))
    for subspace in (sysmodel.controllable_subspace, sysmodel.observable_subspace):
        got = subspace(big)
        assert got.dim == s and np.array_equal(got.basis, eigvecs)
    f = realize.spectral_measure(big)
    assert [t for t, _ in f.atoms] == [t for t, _ in ref.atoms]
    for (_, w), (_, w_ref) in zip(f.atoms, ref.atoms):
        assert np.linalg.norm(w[:n, :n] - w_ref, 2) < 1e-10


@pytest.mark.parametrize("dense", [False, True])
def test_a_source_with_an_eigenvalue_at_one_has_no_minimal_dilation(dense):
    # the eigenvector of 1 has no defect, so B_big does not reach it
    rng = np.random.default_rng(620)
    tau = _source(rng, np.array([-0.6, -0.1, 0.3, 0.7, 1.0]), 2, dense)
    assert sysmodel.classify(tau).pqs
    assert sysmodel.main_defect_data(tau).E_A.shape[1] == 4
    with pytest.raises(NotMinimal, match="enlarged system is not minimal"):
        realize.biinner_dilation(tau)
