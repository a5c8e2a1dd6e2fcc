"""Each operator is factored once: consumers read the factorization in hand.

The parameters, the Jacobi expansion, the dilation, the canonical form and
the realization from data take no pseudoinverse, second SVD or second
eigendecomposition of an operator whose factorization they already hold,
and build no dense copy of a diagonal operator.
"""

import ast
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize, sysmodel, transfer

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_complex, rand_contraction, rand_unitary


def _system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def _nonnormal_system(rng, s=40, n=2):
    return _system(rand_contraction(rng, n + s, n + s, smax=0.9), n, s)


def _pqs_system(rng, s=40, n=2):
    return _system(pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, s), n), n, s)


def _rotated_arcsine(rng, nodes):
    """The arcsine measure at `nodes` Chebyshev nodes, and its diagonal pqs
    system turned dense by a random unitary change of state basis."""
    data, diag = pqsys.chebyshev_example(0.2 + 0.1j, nodes)
    U = rand_unitary(rng, nodes)
    T = diag.T.copy()
    A = U @ diag.A @ U.conj().T
    T[1:, 1:] = (A + A.conj().T) / 2
    T[1:, :1] = U @ diag.B
    T[:1, 1:] = diag.C @ U.conj().T
    return data, _system(T, 1, nodes)


# ---------------------------------------------------------------------------
# parametrize
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, svds", [("nonnormal", 4), ("pqs", 3)])
def test_parametrize_takes_no_pseudoinverse(monkeypatch, kind, svds):
    # one SVD each for A (non-normal only), M, K* and X; the pqs A is read
    # from the system's cached eigendecomposition
    rng = np.random.default_rng(1)
    tau = _nonnormal_system(rng) if kind == "nonnormal" else _pqs_system(rng)
    tau.norm()
    sysmodel.spectral_data(tau)
    calls = {name: linalg_calls(monkeypatch, name) for name in ("svd", "pinv", "eigh")}
    pqsys.parametrize(tau)
    assert {name: len(c) for name, c in calls.items()} == {"svd": svds, "pinv": 0, "eigh": 0}


def test_parametrize_factors_each_recovered_parameter_once(monkeypatch):
    # at 3 channels several singular values of M, K* and X lie near 1, so
    # their Frobenius norms do not settle the contraction checks: those read
    # the largest singular value of the SVD each parameter's defects take
    s, n = 50, 3
    tau = _pqs_system(np.random.default_rng(8), s=s, n=n)
    sysmodel.classify(tau)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    with pqsys.errors.ledger() as entries:
        pqsys.parametrize(tau)
    assert svds == [(s, n), (s, n), (n, n)]
    assert [e["name"] for e in entries] == ["carried_B", "carried_C", "contraction_M", "contraction_K",
                                            "carried_D", "contraction_X"]
    assert all(e["pass"] and e["bound"] == pqsys.DEFAULT_TOL.psd_tol
               for e in entries if e["name"].startswith("contraction"))


def test_a_too_large_recovered_parameter_is_not_a_contraction(monkeypatch):
    # M scaled past 1 + psd_tol fails its check before its defect is formed
    tau = _pqs_system(np.random.default_rng(9), s=20, n=2)
    sysmodel.classify(tau)
    svd_defects = opcore._svd_defects

    def inflated(X, tol, *args, **kwargs):
        if X.shape == (20, 2):
            X = X * ((1 + 1e-6) / np.linalg.svd(X, compute_uv=False)[0])
        return svd_defects(X, tol, *args, **kwargs)

    monkeypatch.setattr(opcore, "_svd_defects", inflated)
    with pqsys.errors.ledger() as entries, pytest.raises(pqsys.NotAContraction, match="parameter M"):
        pqsys.parametrize(tau)
    assert [e["name"] for e in entries][-1] == "contraction_M" and not entries[-1]["pass"]


def test_parametrize_is_cached_read_only_and_records_its_checks_once():
    tau = _pqs_system(np.random.default_rng(10), s=12, n=2)
    with pqsys.errors.ledger() as entries:
        p = pqsys.parametrize(tau)
        assert pqsys.parametrize(tau) is p
    assert [e["name"] for e in entries].count("carried_B") == 1
    tol = pqsys.Tolerances(eq_tol=2e-10)
    assert pqsys.parametrize(tau, tol) is not p
    arrays = [(name, v) for name, v in vars(p).items() if isinstance(v, np.ndarray)]
    assert len(arrays) == 10
    # D_K and D_{M*} are the thin factors of the SVDs of K* and M, and no
    # field but A has two state dimensions
    assert [name for name, v in arrays if v.shape == (12, 12)] == ["A"]
    for name in ("DK", "DMs"):
        side = getattr(p, name)
        assert side.Q.shape == (12, 2)
        arrays += [(f"{name}.{field}", v) for field, v in side._asdict().items()]
    for name, v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0


def test_parametrize_builds_no_state_square_array():
    # D_K and D_{M*} stay in the thin factors of their SVDs, and the carried
    # checks read D_{A*} E_As = E_As diag(d_As): with the factorization and
    # the defect data of A cached, parametrize at s = 1000 keeps and builds
    # nothing of size s x s (one 1000 x 1000 complex array alone is 16 MB;
    # the dense form kept ~48 MB and peaked at ~80 MB)
    s = 1000
    tau = _system(pqs_from_spectrum(np.random.default_rng(13), np.linspace(-0.9, 0.9, s), 1), 1, s)
    sysmodel.spectral_data(tau)
    sysmodel.main_defect_data(tau)
    tracemalloc.start()
    try:
        p = pqsys.parametrize(tau)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1e6 and peak < 2e6
    assert p.DK.Q.shape == p.DMs.Q.shape == (s, 1)


def _pinv_parameters(tau, tol=pqsys.DEFAULT_TOL):
    """M, K and X by the dense pseudoinverse formulas
    M = E_As* pinv(D_A*) B, K = C pinv(D_A) E_A and
    X = E_DKs* pinv(D_K*) core pinv(D_M) E_DM."""
    p = pqsys.parametrize(tau, tol)
    dd = p.defects

    def pinv(D):
        return np.linalg.pinv(D, rcond=tol.rank_tol)

    M = dd.E_As.conj().T @ pinv(dd.DAs) @ tau.B
    K = tau.C @ pinv(dd.DA) @ dd.E_A
    core = tau.D + (K @ dd.E_A.conj().T) @ tau.A.conj().T @ (dd.E_As @ M)
    X = p.E_DKs.conj().T @ pinv(p.DKs) @ core @ pinv(p.DM) @ p.E_DM
    return p, (M, K, X)


def _normal_system(rng, s=6, m=2, n=3):
    U = rand_unitary(rng, s)
    z = 0.8 * rng.uniform(0.2, 1.0, s) * np.exp(2j * np.pi * rng.uniform(size=s))
    A = (U * z) @ U.conj().T
    p = pqsys.make_params(A, rand_contraction(rng, s, m, 0.9), rand_contraction(rng, n, s, 0.9), None)
    X = rand_contraction(rng, *p.X.shape, 0.9)
    return pqsys.assemble(pqsys.make_params(A, p.M, p.K, X))


def _near_isometric_system(rng, s=5, n=2):
    # singular values of A up to 1 - 1e-6: defect values down to ~1.4e-3
    W, V = rand_unitary(rng, s), rand_unitary(rng, s)
    A = (W * (1 - np.logspace(-6, -1, s))) @ V.conj().T
    dd = pqsys.defect_data(A)
    M = rand_contraction(rng, dd.E_As.shape[1], n, 0.9)
    K = rand_contraction(rng, n, dd.E_A.shape[1], 0.9)
    p = pqsys.make_params(A, M, K, None)
    return pqsys.assemble(pqsys.make_params(A, M, K, rand_contraction(rng, *p.X.shape, 0.9)))


@pytest.mark.parametrize("kind", ["nonnormal", "normal", "nonsquare", "near_isometric", "pqs"])
def test_parametrize_matches_the_pseudoinverse_formulas(kind):
    rng = np.random.default_rng(2)
    tau = {
        "nonnormal": lambda: _nonnormal_system(rng, s=8),
        "normal": lambda: _normal_system(rng),
        "nonsquare": lambda: pqsys.PartitionedContraction(
            rand_contraction(rng, 2 + 6, 3 + 6, smax=0.9), 3, 2, 6),
        "near_isometric": lambda: _near_isometric_system(rng),
        "pqs": lambda: _pqs_system(rng, s=8),
    }[kind]()
    p, refs = _pinv_parameters(tau)
    if kind == "normal":
        assert p.defects.E_A is p.defects.E_As
    for got, ref in zip((p.M, p.K, p.X), refs):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref, 2) < 1e-12
    assert np.linalg.norm(pqsys.assemble(p).T - tau.T, 2) < 1e-10


def test_defect_values_diagonalize_the_defects():
    rng = np.random.default_rng(3)
    for A in (rand_contraction(rng, 5, 5, 0.95), rand_contraction(rng, 5, 3, 0.95),
              rand_contraction(rng, 3, 5, 0.95), np.diag([0.3, -0.6, 1.0]).astype(complex)):
        dd = pqsys.defect_data(A)
        for D, E, d in ((dd.DA, dd.E_A, dd.d_A), (dd.DAs, dd.E_As, dd.d_As)):
            assert d.shape == (E.shape[1],)
            assert np.linalg.norm(D @ E - E * d) < 1e-13
        adj = dd.adjoint()
        assert adj.d_A is dd.d_As and adj.d_As is dd.d_A


# ---------------------------------------------------------------------------
# dilation and canonical form
# ---------------------------------------------------------------------------

def test_dilation_factors_the_main_operator_once(monkeypatch):
    rng = np.random.default_rng(4)
    tau = _pqs_system(rng)
    eighs = linalg_calls(monkeypatch, "eigh")
    monkeypatch.setattr(opcore, "range_basis", lambda *a: pytest.fail("range_basis called"))
    dil = realize.biinner_dilation(tau)
    assert len(eighs) == 1
    sd, big = sysmodel.spectral_data(tau), sysmodel.spectral_data(dil.system)
    assert big.t is sd.t and big.V is sd.V
    assert len(eighs) == 1


def test_dilation_defect_basis_spans_the_defect_of_K():
    # the basis E of the range of D_K that `biinner_dilation` takes, read from
    # the factors of parametrize's SVD of K*: no singular value of K is 1, so
    # D_K has no kernel and E is the identity
    rng = np.random.default_rng(5)
    s, n = 12, 2
    tau = _pqs_system(rng, s=s, n=n)
    p = pqsys.parametrize(tau)
    dil = realize.biinner_dilation(tau)
    E, DK = p.E_DK, p.DK.dense()
    assert np.array_equal(E, np.eye(s))
    assert np.linalg.norm(E @ (E.conj().T @ DK) - DK) < 1e-12
    assert E.shape[1] == opcore.range_basis(DK).dim
    assert dil.dk_dim == E.shape[1]
    assert np.linalg.norm(p.DK.apply(E) - DK) < 1e-14
    dd = p.defects
    assert np.array_equal(dil.system.B[:, n:n + dil.dk_dim], (dd.E_A * dd.d_A) @ p.DK.apply(E))


def test_dilation_applies_the_defect_of_K_once(monkeypatch):
    # E_DK and D_K E_DK are formed once per dilation and passed to _dilation_D
    tau = _pqs_system(np.random.default_rng(5), s=12, n=2)
    p = pqsys.parametrize(tau)
    on_DK = []
    apply = opcore.DefectSide.apply

    def recording(side, Y):
        on_DK.append(side is p.DK)
        return apply(side, Y)

    monkeypatch.setattr(opcore.DefectSide, "apply", recording)
    realize.biinner_dilation(tau)
    assert on_DK.count(True) == 1


def test_canonical_form_takes_no_svd_of_the_channel(monkeypatch):
    # channel_isometry is the Frobenius gap of W*W - I, and ker W* comes from
    # the complete QR of W: the form of the dilation takes no SVD at all
    s = 50
    rng = np.random.default_rng(6)
    big = realize.biinner_dilation(_pqs_system(rng, s=s, n=3)).system
    W = pqsys.parametrize(big).K
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    cf = realize.inner_canonical_form(big)
    assert svds == []
    Q = cf.basis
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-13
    assert np.linalg.norm(Q[:, s:].conj().T @ W) < 1e-13
    assert np.array_equal(Q[:, s:], np.linalg.qr(W, mode="complete")[0][:, s:])


def test_dilation_and_canonical_form_take_no_svd_of_a_theta_difference(monkeypatch):
    # corner_match settles on the residue sum of the poles the corner shares
    # with tau, and canonical_reconstruction compares Theta(0) by its Frobenius
    # norm; neither samples Theta.  The SVD of the enlarged T (block_unitarity)
    # stays; the form takes none of W
    s, n = 50, 3
    tau = _pqs_system(np.random.default_rng(8), s=s, n=n)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    in_gaps = []
    gap = opcore.gap

    def recording_gaps(*args):
        start = len(svds)
        out = gap(*args)
        # the differences transfer and realize check; parametrize's own checks
        # take the norms of the parameters, not of a Theta difference
        if sys._getframe(1).f_globals["__name__"] != "pqsys.param":
            in_gaps.extend(svds[start:])
        return out

    monkeypatch.setattr(opcore, "gap", recording_gaps)
    evaluated = []
    theta_eval = transfer.theta_eval
    monkeypatch.setattr(transfer, "theta_eval",
                        lambda system, *a: evaluated.append(system.out_dim) or theta_eval(system, *a))
    dil = realize.biinner_dilation(tau)
    v = dil.system.out_dim
    cf = realize.inner_canonical_form(dil.system)
    assert len(cf.points) == s
    assert evaluated == [] and in_gaps == []
    assert svds.count((v + s, v + s)) == 1 and svds.count((v, s)) == 0
    assert (v, v) not in svds


@pytest.mark.parametrize("s, n", [(12, 2), (30, 4)])
def test_canonical_form_reads_the_cached_defects_not_parametrize(monkeypatch, s, n):
    rng = np.random.default_rng(7)
    big = realize.biinner_dilation(_pqs_system(rng, s=s, n=n)).system
    # the form as built from the parameters: W = K, ker W* from its complete QR, X on ker W*
    p = pqsys.parametrize(_system(big.T, big.in_dim, big.state_dim))
    W_perp = np.linalg.qr(p.K, mode="complete")[0][:, s:]
    monkeypatch.setattr(realize, "parametrize", lambda *a: pytest.fail("parametrize called"))
    cf = realize.inner_canonical_form(big)
    assert cf.points == tuple(float(a) for a in p.defects.t)
    assert np.array_equal(cf.unitary_block, W_perp.conj().T @ big.D @ W_perp)
    assert np.array_equal(cf.basis, np.hstack([p.K, W_perp]))


@pytest.mark.parametrize("diagonal", [False, True])
def test_the_krylov_record_reads_the_cached_eigen_coordinates(monkeypatch, diagonal):
    # the record of (B, C*) takes V*B and (C V)* from the cached
    # factorization, bit for bit the products it formed before
    s, n = 40, 2
    T = pqs_from_spectrum(np.random.default_rng(14), np.linspace(-0.9, 0.9, s), n, diagonal=diagonal)
    tau, twin = _system(T, n, s), _system(T.copy(), n, s)
    sd = sysmodel.spectral_data(tau)
    coords = []
    eig_coords = opcore._eig_coords
    monkeypatch.setattr(opcore, "_eig_coords", lambda *a: coords.append(1) or eig_coords(*a))
    rec = sysmodel.krylov_record(tau)
    assert coords == []
    ref = sysmodel._krylov_record(twin, twin.B, twin.C.conj().T, pqsys.DEFAULT_TOL)
    assert len(coords) == 2 + 2  # the twin's factorization, then the record's own products
    assert rec[:3] == ref[:3] == (s, s, s)
    for side, ref_side in zip(rec.parts, ref.parts):
        assert all(c == rc and k == rk and np.array_equal(U, rU) for (c, k, U), (rc, rk, rU) in zip(side, ref_side))
    assert np.array_equal(sd.CV.conj().T, eig_coords(sd.V, tau.C.conj().T))


def test_controllable_subspace_is_built_once_and_read_only(monkeypatch):
    # the basis the reduction reads is the one pqs_krylov_subspace built
    rng = np.random.default_rng(11)
    s, n = 20, 2
    # a diagonal A with four states cut off the channel: a compression of a
    # contraction beside a contraction, so still passive
    T = pqs_from_spectrum(rng, np.linspace(-0.9, 0.9, s), n, diagonal=True)
    T[n + s - 4:, :n] = 0
    T[:n, n + s - 4:] = 0
    tau = _system(T, n, s)
    sub = sysmodel.pqs_krylov_subspace(tau)
    assert sysmodel.controllable_subspace(tau) is sub
    assert not sub.basis.flags.writeable
    built = []
    eig_basis = sysmodel._eig_basis
    monkeypatch.setattr(sysmodel, "_eig_basis", lambda *a: built.append(1) or eig_basis(*a))
    red = sysmodel.minimal_pqs_reduction(tau)
    assert built == [] and red.state_dim == sub.dim < s
    assert sysmodel.observable_subspace(tau) is sysmodel.observable_subspace(tau)
    assert built == [1]


def test_the_structure_chain_factors_each_parameter_once(monkeypatch):
    # one fresh s = 50, 3-channel pqs system and a rotated twin through the
    # chain of the structure benchmark: the parameters are factored by 3 SVDs
    # (M, K*, X; 7 when the dilation parametrized again and took its own SVD
    # of K), none of K itself, and each main operator by one eigh
    s, n = 50, 3
    rng = np.random.default_rng(12)
    tau = _pqs_system(rng, s=s, n=n)
    U = rand_unitary(rng, s)
    T2 = tau.T.copy()
    T2[n:, n:] = U @ tau.A @ U.conj().T
    T2[n:, n:] = (T2[n:, n:] + T2[n:, n:].conj().T) / 2
    T2[n:, :n] = U @ tau.B
    T2[:n, n:] = T2[n:, :n].conj().T
    twin = _system(T2, n, s)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    qrs = linalg_calls(monkeypatch, "qr", internal=True)
    eighed = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: eighed.append(np.array(a)) or real_eigh(a, *args))
    factored = []
    svd_defects = opcore._svd_defects
    monkeypatch.setattr(opcore, "_svd_defects", lambda X, *a: factored.append(X.shape) or svd_defects(X, *a))

    p = pqsys.parametrize(tau)
    pqsys.assemble(p)
    assert sysmodel.classify(tau).pqs and sysmodel.is_minimal(tau)
    assert sysmodel.minimal_pqs_reduction(tau) is tau
    dil = realize.biinner_dilation(tau)
    realize.inner_canonical_form(dil.system)
    realized = realize.realize_from_data(realize.spectral_measure(tau))
    realize.unitary_similarity(tau, twin)

    assert factored == [(s, n), (s, n), (n, n)]
    v = n + dil.dk_dim + dil.dks_dim
    assert Counter(svds) == {
        (s, n): 2 + 3,      # M and K*; the norms of the three cluster passes (tau, twin, realized)
        (n, n): 1 + 3,      # X; the norms of the read-out's and the realization's checks
        (s, 1, n): 3,       # the stacked cluster SVDs of the three passes
        (v + s, v + s): 1,  # block_unitarity of the enlarged system
        (s, 1, 1): 1,       # the similarity's intertwiner
    }
    main = [e for e in eighed if e.shape == (s, s)]
    assert len(main) == 2
    assert np.array_equal(main[0], tau.A) and np.array_equal(main[1], twin.A)
    assert sysmodel.spectral_data(realized).V.ndim == 1  # a diagonal A is its own factorization
    assert qrs == [(v, s)]  # the complement of the canonical form's channel


def test_no_svd_defects_call_passes_a_keyword():
    # `_svd_defects(X, tol, check=None)` has one mode: both sides of the
    # defect as thin factors, from one SVD
    calls = []
    for path in sorted(Path(pqsys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_svd_defects":
                calls.append((path.name, len(node.args), [k.arg for k in node.keywords]))
    assert calls and all(not kw and nargs in (2, 3) for _, nargs, kw in calls)


# ---------------------------------------------------------------------------
# realization from data
# ---------------------------------------------------------------------------

def test_realize_from_data_factors_each_weight_once(monkeypatch):
    rng = np.random.default_rng(7)
    n = 3
    atoms = []
    for t in np.linspace(-0.7, 0.7, 6):
        G = rand_complex(rng, n, 2)
        # bitwise Hermitian, so its Hermitian part is the weight itself
        atoms.append((float(t), pqsys.herm_part(0.1 * G @ G.conj().T / np.linalg.norm(G, 2) ** 2)))
    atoms.append((0.9, 1e-12 * np.eye(n)))  # tiny: kept, its channel counted by the Krylov rule
    f = pqsys.SqsFunctionData(0.05 * np.eye(n), tuple(atoms))
    weights = [s for _, s in atoms]
    svds, stacks = [], []
    real_svd, real_eigh = np.linalg.svd, np.linalg.eigh

    def holds_weight(a):
        mats = a if np.ndim(a) == 3 else [a]
        return any(np.array_equal(m, s) for m in mats for s in weights)

    def svd(a, *args, **kwargs):
        if holds_weight(a):
            svds.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(impl, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    tau = pqsys.realize_from_data(f)
    # one stacked eigh, which holds each (merged) weight exactly once, and no SVD of a weight
    assert svds == [] and len(stacks) == 1
    assert [sum(np.array_equal(m, s) for m in stacks[0]) for s in weights] == [1] * len(atoms)
    assert len(stacks[0]) == len(atoms)
    assert tau.state_dim == 6 * 2 + n


# ---------------------------------------------------------------------------
# Jacobi expansion
# ---------------------------------------------------------------------------

def test_jacobi_system_source_matches_the_measure_and_the_oracle():
    rng = np.random.default_rng(8)
    data, dense = _rotated_arcsine(rng, 200)
    from_system = pqsys.jacobi_realize(dense, max_len=40)
    from_measure = pqsys.jacobi_realize(data, max_len=40)
    assert from_system.length == from_measure.length == 40
    assert np.max(np.abs(np.subtract(from_system.a, from_measure.a))) < 1e-12
    assert np.max(np.abs(np.subtract(from_system.b, from_measure.b))) < 1e-12
    # independent route: dense powers of the rotated system, Hankel Cholesky
    moments = oracles.moments_of_pair(dense.A, dense.B[:, 0], 12)
    a_ref, b_ref = oracles.jacobi_from_moments(np.real(moments), 5)
    for k in range(6):
        assert abs(from_system.a[k] - a_ref[k]) < 1e-7
        assert abs(from_system.b[k] - b_ref[k]) < 1e-7


def test_jacobi_builds_no_state_square_array():
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 1000)
    tracemalloc.start()
    try:
        jr = pqsys.jacobi_realize(data, max_len=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jr.length == 50 and jr.truncated
    # one 1000 x 1000 complex array alone is 16 MB
    assert peak < 4e6


# ---------------------------------------------------------------------------
# the defects of A, read in their bases
# ---------------------------------------------------------------------------

CHAR_POINTS = (0.3 - 0.4j, -0.5 + 0.1j, 0.6j)


def _small_system(kind, s=12, n=2):
    rng = np.random.default_rng(12)
    if kind == "general":
        return _system(rand_contraction(rng, n + s, n + s, smax=0.9), n, s)
    return _system(pqs_from_spectrum(rng, np.linspace(-0.8, 0.7, s), n), n, s)


@pytest.mark.parametrize("kind", ["general", "pqs"])
def test_no_reader_of_A_s_defects_forms_them(kind):
    # every reader applies D_A and D_{A*} as E diag(d): with the s x s
    # operators taken out of the cached defect data, each still runs and agrees
    tau = _small_system(kind)
    tol = pqsys.DEFAULT_TOL
    dd = sysmodel.main_defect_data(tau, tol)
    tau._cache["defects", tol] = dd._replace(DA=None, DAs=None)
    rng = np.random.default_rng(13)
    h, g, f = rand_complex(rng, 2, 1)[:, 0], rand_complex(rng, 2, 1)[:, 0], rand_complex(rng, 12, 1)[:, 0]
    p = pqsys.parametrize(tau, tol)
    assert p.defects.DA is None and p.defects.DAs is None
    assert np.linalg.norm(pqsys.assemble(p).T - tau.T, 2) <= 1e-12
    lhs, rhs = pqsys.defect_balance(p, h, f)
    assert abs(lhs - rhs) <= 1e-12
    assert pqsys.isometry_conditions(p) == (False, False)
    for z in CHAR_POINTS:
        phi = pqsys.char_func(tau, z)
        amb = -tau.A + z * dd.DAs @ np.linalg.solve(np.eye(12) - z * tau.A.conj().T, dd.DA)
        ref = dd.E_As.conj().T @ amb @ dd.E_A
        assert np.linalg.norm(phi - ref, 2) <= 1e-12
        assert max(pqsys.char_defect_residuals(tau, z)) <= 1e-12
        assert np.linalg.norm(pqsys.theta_factored(p, z) - pqsys.theta_eval(tau, z), 2) <= 1e-12
        assert max(pqsys.defect_identities(p, z, h, g)) <= 1e-12


@pytest.mark.parametrize("kind", ["general", "pqs"])
def test_char_defect_residuals_take_two_solves_per_point(monkeypatch, kind):
    # one resolvent of A* at lambda, shared by Phi and the first Gram matrix,
    # and one of A at conj(lambda) for the second
    tau = _small_system(kind)
    sysmodel.main_defect_data(tau)
    solves = linalg_calls(monkeypatch, "solve")
    for z in CHAR_POINTS:
        assert max(pqsys.char_defect_residuals(tau, z)) <= 1e-12
    assert len(solves) <= 2 * len(CHAR_POINTS)


def test_defect_identities_evaluate_phi_once(monkeypatch):
    tau = _small_system("general")
    p = pqsys.parametrize(tau)
    rng = np.random.default_rng(14)
    h, g = rand_complex(rng, 2, 1)[:, 0], rand_complex(rng, 2, 1)[:, 0]
    solves = linalg_calls(monkeypatch, "solve")
    for z in CHAR_POINTS:
        assert max(pqsys.defect_identities(p, z, h, g)) <= 1e-12
    assert len(solves) <= len(CHAR_POINTS)
