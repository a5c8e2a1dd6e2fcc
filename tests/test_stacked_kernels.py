"""The loops over atoms and eigenvalue clusters run as stacked kernels.

The cluster spans take one SVD per cluster size, W(lambda) is one
contraction with the weight stack that `SqsFunctionData` keeps, and the
realization factors all merged weights with one stacked eigh.  Each kernel
is checked against the per-cluster or per-atom loop of `oracles`.
"""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, sysmodel, transfer
from pqsys.errors import InvalidMeasure, PolarPoint

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_atoms, rand_complex


# ---------------------------------------------------------------------------
# cluster spans
# ---------------------------------------------------------------------------

def _mixed_clusters(rng, m=2):
    """Ascending eigenvalues in clusters of sizes 1, 2, 1, 3, 2, 3 and 1, with
    components whose cluster rows are full rank, parallel (rank 1) or zero."""
    centers_sizes = [(-0.5, 1), (0.1, 2), (0.3, 1), (0.6, 3), (0.8, 2), (0.85, 3), (0.9, 1)]
    t = np.concatenate([c + 1e-10 * np.arange(k) for c, k in centers_sizes])
    comps = rand_complex(rng, t.size, m)
    comps[1:3] = np.outer([1.0, 2.0 - 1j], comps[1])  # size-2 cluster of rank 1
    comps[3] = 0.0                                    # size-1 cluster of rank 0
    comps[9:12] = 0.0                                 # size-3 cluster of rank 0
    return t, comps


def _assert_same_span(got, ref):
    assert len(got) == len(ref)
    for (c, rank, part), (rc, rrank, rpart) in zip(got, ref):
        assert (c, rank) == (rc, rrank)
        assert part.shape == rpart.shape and np.array_equal(part, rpart)


def test_cluster_span_matches_the_per_cluster_loop_bit_for_bit():
    rng = np.random.default_rng(401)
    t, comps = _mixed_clusters(rng)
    tol = pqsys.Tolerances(rank_tol=1e-10)
    got = sysmodel._cluster_span(t, comps, tol)
    ref = oracles.cluster_span_loop(t, comps, tol.rank_tol * np.linalg.norm(comps, 2), opcore.CLUSTER_GAP)
    assert sorted({c.stop - c.start for c, _, _ in ref}) == [1, 2, 3]
    assert [rank for _, rank, _ in ref] == [1, 1, 0, 2, 2, 0, 1]
    _assert_same_span(got, ref)


def test_cluster_span_of_an_empty_spectrum():
    assert sysmodel._cluster_span(np.zeros(0), np.zeros((0, 2), dtype=complex), pqsys.DEFAULT_TOL) == []


def test_cluster_span_without_channels():
    t = np.array([-0.2, 0.4, 0.4 + 1e-10])
    got = sysmodel._cluster_span(t, np.zeros((3, 0), dtype=complex), pqsys.DEFAULT_TOL)
    assert [(c, rank, part.shape) for c, rank, part in got] == [(slice(0, 1), 0, (1, 0)),
                                                                (slice(1, 3), 0, (2, 0))]


def test_cluster_span_takes_one_svd_per_cluster_size(monkeypatch):
    rng = np.random.default_rng(403)
    t, comps = _mixed_clusters(rng)
    calls = linalg_calls(monkeypatch, "svd")
    sysmodel._cluster_span(t, comps, pqsys.Tolerances(rank_tol=0.0))
    assert sorted(calls) == [(2, 2, 2), (2, 3, 2), (3, 1, 2)]


# ---------------------------------------------------------------------------
# W(lambda) from the weight stack
# ---------------------------------------------------------------------------

def test_w_from_data_matches_the_per_atom_sum():
    rng = np.random.default_rng(405)
    atoms = rand_atoms(rng, 40, 3)
    f = pqsys.SqsFunctionData(0.1 * np.eye(3), tuple(atoms))
    for lam in (0.5 + 0.3j, -0.9j, 1.7 - 0.2j, 0.0, -3.0 + 1e-3j):
        ref = oracles.w_sum_loop(atoms, lam)
        got = transfer.w_from_data(f, lam)
        assert np.linalg.norm(got - ref, 2) <= 1e-15 * np.linalg.norm(ref, 2)


def test_w_from_data_names_the_first_pole_in_atom_order():
    # two atoms whose poles 2 and 1/(0.5 + 1e-14) both lie within the rule of
    # the point 2; the second location comes first in atom order
    atoms = [(0.1, 0.1 * np.eye(2)), (0.5 + 1e-14, 0.2 * np.eye(2)), (0.5, 0.3 * np.eye(2))]
    f = pqsys.SqsFunctionData(np.zeros((2, 2)), tuple(atoms))
    k = oracles.first_pole_atom(atoms, 2.0)
    assert k == 1
    with pytest.raises(PolarPoint, match=rf"pole 1/{atoms[k][0]}$"):
        transfer.w_from_data(f, 2.0)
    assert oracles.first_pole_atom(atoms, 2.5) is None
    transfer.w_from_data(f, 2.5)


def test_membership_reads_mass_and_first_moment_from_the_stack():
    rng = np.random.default_rng(407)
    atoms = rand_atoms(rng, 30, 2)
    f = pqsys.SqsFunctionData(0.05 * np.eye(2), tuple(atoms))
    rep = pqsys.sqs_membership(f)
    mass = sum(s for _, s in atoms)
    moment = sum(t * s for t, s in atoms)
    assert np.linalg.norm(rep.radius - (np.eye(2) - mass)) <= 1e-15
    assert np.linalg.norm(rep.center + moment) <= 1e-15


# ---------------------------------------------------------------------------
# SqsFunctionData keeps one read-only stack
# ---------------------------------------------------------------------------

def test_atoms_are_read_only_views_of_one_weight_stack():
    rng = np.random.default_rng(409)
    atoms = rand_atoms(rng, 12, 3)
    f = pqsys.SqsFunctionData(np.zeros((3, 3)), tuple(atoms))
    assert f.weights.shape == (12, 3, 3) and f.locations.shape == (12,)
    assert f.locations.dtype == float and not f.locations.flags.writeable
    assert not f.weights.flags.writeable
    for k, ((t, s), (t0, s0)) in enumerate(zip(f.atoms, atoms)):
        assert type(t) is float and t == t0 == f.locations[k]
        assert np.shares_memory(s, f.weights) and not s.flags.writeable
        assert np.array_equal(s, s0) and np.array_equal(s, f.weights[k])
    with pytest.raises(ValueError):
        f.atoms[0][1][0, 0] = 1.0
    # the caller's arrays are copied into the stack, not aliased
    assert not any(np.shares_memory(s0, f.weights) for _, s0 in atoms)


def test_no_atoms_give_empty_stacks():
    f = pqsys.SqsFunctionData(0.2 * np.eye(2), ())
    assert f.atoms == () and f.weights.shape == (0, 2, 2) and f.locations.shape == (0,)
    assert not np.any(transfer.w_from_data(f, 0.4j))


def test_scalar_weights_in_mixed_forms_stack_alike():
    f = pqsys.SqsFunctionData(np.zeros((1, 1)), ((0.1, [0.2]), (-0.3, np.array([[0.1]])), (0.5, [[0.05]])))
    assert f.weights.shape == (3, 1, 1)
    assert f.weights[:, 0, 0].tolist() == [0.2, 0.1, 0.05]


ok = 0.1 * np.eye(2)
nonherm = np.array([[0.1, 0.05], [0.0, 0.1]])
negative = np.diag([0.1, -0.1])
wrong_shape = 0.1 * np.eye(3)


@pytest.mark.parametrize("atoms, exc, message", [
    # the first faulty atom is named, whatever its fault
    ([(0.1, ok), (0.2, nonherm), (1.5, ok)], InvalidMeasure, "weight is not Hermitian"),
    ([(0.1, ok), (0.2, negative), (0.3, nonherm)], InvalidMeasure, "weight has a negative eigenvalue"),
    ([(0.1, ok), (1.5, nonherm), (0.2, nonherm)], InvalidMeasure, "lies outside"),
    ([(0.1, nonherm), (1.5, ok)], InvalidMeasure, "weight is not Hermitian"),
    ([(0.1, ok), (0.3, wrong_shape), (2.0, ok)], InvalidMeasure, "weight dimension differs"),
    ([(0.1, ok), (0.3, [[np.nan, 0], [0, 1]]), (0.2, nonherm)], ValueError, "non-finite"),
    ([(0.1, ok), (0.3, np.ones((1, 2, 2))), (0.2, nonherm)], ValueError, "expected a matrix"),
    # within one atom: location (finite, real, inside), then shape, then the weight
    ([(0.1, ok), (0.2 + 1e-6j, wrong_shape)], InvalidMeasure, "is not real"),
    ([(np.inf, nonherm)], InvalidMeasure, "is not finite"),
    ([(-1.0, wrong_shape)], InvalidMeasure, "lies outside"),
    ([(0.2, wrong_shape), (0.1, nonherm)], InvalidMeasure, "weight dimension differs"),
    ([(0.3, negative), (0.1, wrong_shape)], InvalidMeasure, "negative eigenvalue"),
    # an atom that is no (location, weight) pair ends the list where it stands
    ([(0.1, ok), (0.2,), (0.3, nonherm)], ValueError, "unpack"),
    ([(0.1, nonherm), (0.2,)], InvalidMeasure, "weight is not Hermitian"),
    ([(0.1, ok), ("x", ok)], ValueError, "complex"),
])
def test_the_first_faulty_atom_raises_its_first_fault(atoms, exc, message):
    with pytest.raises(exc, match=message):
        pqsys.SqsFunctionData(np.zeros((2, 2)), tuple(atoms))


# ---------------------------------------------------------------------------
# the 1000-atom scalar pipeline
# ---------------------------------------------------------------------------

def test_a_1000_atom_measure_takes_a_few_svds_and_one_stacked_eigh(monkeypatch):
    data, _ = pqsys.chebyshev_example(0.3 + 0.2j, 1000)
    svds = linalg_calls(monkeypatch, "svd")
    eighs = linalg_calls(monkeypatch, "eigh")
    tau = pqsys.realize_from_data(data)
    # a system read back from its matrix, as the CLI's classify reads it
    fresh = pqsys.PartitionedContraction(np.array(tau.T), 1, 1, tau.state_dim)
    assert sysmodel.classify(fresh).pqs and pqsys.is_minimal(fresh)
    assert tau.state_dim == 1000
    # one stacked SVD per Krylov dimension and system; the loop took ~3000
    assert len(svds) <= 8
    assert [shape for shape in eighs if len(shape) == 3] == [(1000, 1, 1)]


def test_merged_atoms_sum_their_weights_in_atom_order():
    w = [0.01 * np.eye(2), 0.02 * np.diag([1.0, 2.0]), 0.03 * np.eye(2)]
    f = pqsys.SqsFunctionData(np.zeros((2, 2)), ((0.4, w[0]), (-0.2, w[1]), (0.4 + 5e-13, w[2])))
    t, W = pqsys.realize._merged_atoms(f)
    assert t.tolist() == [-0.2, 0.4]
    assert np.array_equal(W[0], w[1]) and np.array_equal(W[1], w[0] + w[2])
    tau = pqsys.realize_from_data(f)
    assert tau.state_dim == 4


def test_merged_atoms_split_a_chain_at_the_runs_first_location():
    # each location lies within 1e-12 of the one before it, but only the
    # first two lie within 1e-12 of the run's first
    w = [k * 0.01 * np.eye(1) for k in (1, 2, 3, 4)]
    locs = (0.4, 0.4 + 8e-13, 0.4 + 1.6e-12, 0.4 + 2.4e-12)
    f = pqsys.SqsFunctionData(np.zeros((1, 1)), tuple(zip(locs, w)))
    t, W = pqsys.realize._merged_atoms(f)
    assert t.tolist() == [locs[0], locs[2]]
    assert np.array_equal(W, np.stack([w[0] + w[1], w[2] + w[3]]))


@pytest.mark.parametrize("dense", [False, True])
def test_classify_measures_the_skew_of_A_at_most_once(monkeypatch, dense):
    # a real diagonal A takes no scan; a dense selfadjoint A one, which the
    # selfadjointness test and the pqs decision share
    rng = np.random.default_rng(8)
    s, n = 30, 2
    if dense:
        T = pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, s), n)
    else:
        T = pqsys.realize_from_data(pqsys.SqsFunctionData(np.zeros((n, n)), rand_atoms(rng, s, n))).T
    scans = []
    skew_fro = opcore._skew_fro
    monkeypatch.setattr(opcore, "_skew_fro", lambda A: scans.append(1) or skew_fro(A))
    tau = pqsys.PartitionedContraction(np.array(T, dtype=complex), n, n, T.shape[0] - n)
    assert sysmodel.classify(tau).pqs
    assert len(scans) == (1 if dense else 0)
