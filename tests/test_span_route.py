"""One span rule for both Krylov routes.

`sysmodel._spans` is the only place a basis route is chosen: the cluster
bases of the cached eigenbasis of a selfadjoint A, band Arnoldi
(`opcore.krylov_span`) for any other A.  The joint span of
`krylov_record` and of `check_minimality_normal` is the union of the two
spans on both routes: the whole space when either span is, else the range
of the two bases side by side, which the cluster route takes cluster by
cluster."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pqsys
from pqsys import opcore, sysmodel

from helpers import linalg_calls, pqs_from_spectrum, rand_complex, rand_unitary

SRC = Path(pqsys.__file__).parent


def _system(t, cb, cc, U=None):
    """[[0, C], [B, A]] with A = U diag(t) U*, B = U cb and C* = U cc, so that
    cb and cc are the components of B and C* in the eigenbasis U; with no U,
    A = diag(t), B = cb and C* = cc."""
    (s, m), p = cb.shape, cc.shape[1]
    if U is None:
        A, B, Cs = np.diag(t).astype(complex), cb, cc
    else:
        A, B, Cs = (U * t) @ U.conj().T, U @ cb, U @ cc
    T = np.zeros((p + s, m + s), dtype=complex)
    T[:p, m:] = Cs.conj().T
    T[p:, :m] = B
    T[p:, m:] = A
    return pqsys.PartitionedContraction(T, m, p, s)


def test_a_controllable_system_is_simple_whatever_the_scale_of_its_output():
    # B reaches the eigenvector of 0.5 with weight 1e-12, far above its own
    # threshold rank_tol * ||B|| ~ 1e-13 and below rank_tol * ||C|| ~ 1e-10
    t = np.array([0.1, 0.5])
    d = np.sqrt(1 - t * t)
    tau = _system(t, (np.array([1e-3, 1e-12]) * d)[:, None], (np.array([0.9, 0.0]) * d)[:, None])
    assert sysmodel.classify(tau).passive and sysmodel.spectral_data(tau) is not None
    assert sysmodel.krylov_record(tau)[:3] == (2, 1, 2)
    assert sysmodel.is_simple(tau) and sysmodel.is_controllable(tau) and not sysmodel.is_observable(tau)
    rep = sysmodel.check_minimality_normal(tau)
    assert rep.simple and rep.direct_simple and rep.controllable and not rep.observable
    assert rep.agree


# ---------------------------------------------------------------------------
# a seeded battery on both routes
# ---------------------------------------------------------------------------

BATTERY = range(240)


def _case(seed):
    """A system with a selfadjoint A in clusters of up to three equal
    eigenvalues, dense (even seeds) or diagonal in shuffled order, with
    planted eigenvectors that B or C* does not reach, on a diagonal A an
    occasional weak component of B (1e-7 of the rest), and ||C|| / ||B||
    from 1e-3 to 1e3; with the dimensions the three spans must have, cluster
    by cluster.  (On a dense A band Arnoldi normalizes the weak direction
    with its rounding, ~1e-9 of the rest, above rank_tol: it can count a
    planted eigenvector, which the cluster rule does not.)"""
    rng = np.random.default_rng(seed)
    m, p = rng.integers(1, 4, size=2)
    values = rng.choice(np.linspace(-0.9, 0.9, 13), size=rng.integers(2, 7), replace=False)
    mult = rng.integers(1, 4, size=values.size)
    t = np.repeat(values, mult)
    s = t.size
    cb, cc = rand_complex(rng, s, m), rand_complex(rng, s, p)
    cb[rng.random(s) < 0.25] = 0.0
    cc[rng.random(s) < 0.25] = 0.0
    if s <= 6 and rng.random() < 0.5 and seed % 2:
        cb[rng.integers(s)] *= 1e-7
    cc *= 10.0 ** rng.uniform(-3, 3)
    want = np.zeros(3, dtype=int)
    for k in range(values.size):
        rows = slice(mult[:k].sum(), mult[:k + 1].sum())
        b, c = cb[rows] / (np.linalg.norm(cb) or 1.0), cc[rows] / (np.linalg.norm(cc) or 1.0)
        for j, part in enumerate((b, c, np.hstack([_orth(b), _orth(c)]))):
            want[j] += np.linalg.matrix_rank(part, tol=1e-12)
    if seed % 2:
        order = rng.permutation(s)
        return _system(t[order], cb[order], cc[order]), tuple(want.tolist())
    return _system(t, cb, cc, rand_unitary(rng, s)), tuple(want.tolist())


def _orth(M):
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, sv > 1e-12]


@pytest.mark.parametrize("route", ["cluster", "arnoldi"])
def test_battery_records_have_the_planted_dimensions_on_both_routes(monkeypatch, route):
    if route == "arnoldi":
        monkeypatch.setattr(sysmodel, "spectral_data", lambda *a, **kw: None)
    joint_only = 0
    for seed in BATTERY:
        tau, want = _case(seed)
        s = tau.state_dim
        rec = sysmodel.krylov_record(tau)
        assert (rec.hc is None) == (route == "cluster"), seed
        c, o, joint = rec[:3]
        assert joint >= max(c, o), seed
        if s in (c, o):
            assert joint == s, seed
        assert (c, o, joint) == want, seed
        joint_only += max(c, o) < joint < s
    # the battery reaches joint spans that neither side fills alone
    assert joint_only >= 20


# ---------------------------------------------------------------------------
# route pins
# ---------------------------------------------------------------------------

def _triple_cluster_repro():
    """s = 400 in triple clusters, two channels and C* = B G, with its
    factorization cached: neither span is full and the two bases differ."""
    rng = np.random.default_rng(0)
    s = 400
    T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-0.9, 0.9, 134), 3)[:s], 2)
    T[:2, 2:] = (T[2:, :2] @ np.array([[0.5, 0.1], [0.2, 0.4]])).conj().T
    tau = pqsys.PartitionedContraction(T, 2, 2, s)
    sysmodel.spectral_data(tau)
    return tau


def _minimal_system():
    """A minimal pqs system with C = B* bit for bit, s = 30, two channels,
    with its factorization cached."""
    rng = np.random.default_rng(241)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 30), 2), 2, 2, 30)
    sysmodel.spectral_data(tau)
    return tau


@pytest.mark.parametrize("build, record, passes", [(_minimal_system, (30, 30, 30), 1),
                                                   (_triple_cluster_repro, (267, 267, 267), 2)],
                         ids=["minimal", "triple_cluster"])
def test_a_record_ranks_each_side_in_one_cluster_pass(monkeypatch, build, record, passes):
    # C = B* bit for bit: one pass ranks both sides; C* = B G: one pass per
    # side, whose parts the union reads.  Every pass keeps its cluster bases,
    # and no cluster SVD is taken for its values only.
    tau = build()
    parts = []
    real = sysmodel._cluster_span
    monkeypatch.setattr(sysmodel, "_cluster_span", lambda *a, **kw: parts.append(real(*a, **kw)) or parts[-1])
    monkeypatch.setattr(sysmodel, "_spans", lambda *a, **kw: pytest.fail("_spans called"))
    monkeypatch.setattr(opcore, "krylov_span", lambda *a, **kw: pytest.fail("krylov_span called"))
    values_only = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kw):
        if kw.get("compute_uv") is False:
            values_only.append(np.shape(a))
        return real_svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert sysmodel.krylov_record(tau) == (*record, None, None)
    assert len(parts) == passes
    assert all(U.shape == (c.stop - c.start, rank) for side in parts for c, rank, U in side)
    assert values_only == []


def test_equal_bases_are_their_own_union(monkeypatch):
    # a pqs system with C = B* bit for bit: both spans are one basis, and the
    # union takes no SVD; with C* = B G the spans are equal but the bases are
    # not, and the union, cluster by cluster, finds the same dimension with
    # one stacked SVD of the eight 3 x 6 cluster blocks and none of the two
    # bases side by side
    rng = np.random.default_rng(243)
    T = pqs_from_spectrum(rng, np.repeat(rng.uniform(-0.9, 0.9, 8), 3), 2)
    tau = pqsys.PartitionedContraction(T, 2, 2, 24)
    twin_T = T.copy()
    twin_T[:2, 2:] = (T[2:, :2] @ np.array([[0.5, 0.1], [0.2, 0.4]])).conj().T
    twin = pqsys.PartitionedContraction(twin_T, 2, 2, 24)
    for x in (tau, twin):
        sysmodel.spectral_data(x)
    stacked = linalg_calls(monkeypatch, "svd", shape=(24, 32))
    blocks = linalg_calls(monkeypatch, "svd", shape=(8, 3, 6))
    assert sysmodel.krylov_record(tau)[:3] == (16, 16, 16)
    hc, ho, joint = sysmodel._spans(tau, tau.B, tau.C.conj().T, pqsys.DEFAULT_TOL)
    assert ho is hc and joint is hc
    assert not stacked and not blocks
    assert sysmodel.krylov_record(twin)[:3] == (16, 16, 16)
    assert not stacked and len(blocks) == 1


def test_the_cluster_union_is_the_range_of_the_two_bases_side_by_side():
    # neither span full, the bases unequal: the union cluster by cluster has
    # the dimension range_basis finds for the two bases side by side, and its
    # basis spans the same space
    for seed in range(40):
        tau, want = _case(seed)
        c, o, joint = want
        if tau.state_dim in (c, o):
            continue
        hc, ho, union = sysmodel._spans(tau, tau.B, tau.C.conj().T, pqsys.DEFAULT_TOL)
        ref = opcore.range_basis(np.hstack([hc.basis, ho.basis]))
        assert union.dim == ref.dim == joint, seed
        Q = union.basis
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-12
        assert np.linalg.norm(Q @ (Q.conj().T @ ref.basis) - ref.basis) < 1e-10


def test_the_cluster_union_of_a_large_system_takes_only_cluster_svds(monkeypatch):
    # the triple-cluster repro took an SVD of the 400 x 534 stack of its two
    # bases; now every SVD is of a stack of cluster blocks or of the s x 2
    # components
    tau = _triple_cluster_repro()
    svds = linalg_calls(monkeypatch, "svd")
    assert sysmodel.krylov_record(tau)[:3] == (267, 267, 267)
    assert all(shape[-2:] in ((3, 2), (3, 6), (1, 2), (tau.state_dim, 2)) for shape in svds), svds


def _calls_by_function(path, names):
    """{enclosing top-level function: [called name, ...]} for the calls in the
    module at path whose callee (a name or an attribute) is in names."""
    found = {}
    for fn in ast.parse(path.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if callee in names:
                    found.setdefault(fn.name, []).append((callee, len(node.args)))
    return found


def test_only_span_chooses_between_arnoldi_and_the_cluster_bases():
    # krylov_span is called on a system's A only in sysmodel._spans (opcore's
    # cnu_unitary_split takes it on a bare contraction), and the cluster parts
    # only in the _cluster_sides that _spans and the record share and in the
    # spectral read-out, all with the one three-argument signature
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "opcore.py":
            for fn, calls in _calls_by_function(path, {"krylov_span", "_cluster_span"}).items():
                found[path.stem, fn] = calls
    assert {key for key, calls in found.items() if ("krylov_span", 4) in calls} == {("sysmodel", "_spans")}
    spans = {key: calls for key, calls in found.items() if any(name == "_cluster_span" for name, _ in calls)}
    assert set(spans) == {("sysmodel", "_cluster_sides"), ("realize", "spectral_measure")}
    assert {args for calls in spans.values() for name, args in calls if name == "_cluster_span"} == {3}
    for name in ("_eigen_side", "_cluster_basis", "_eigen_span", "_span", "_union", "_rank_floor"):
        assert not hasattr(sysmodel, name)
    assert not hasattr(opcore, "hermitian_eigh")
