"""Operator primitives: defects, subspaces, rank decisions, strong limits."""

import tracemalloc

import numpy as np
import pytest

import pqsys
from pqsys import opcore
from pqsys.errors import NotAContraction, NotPSD, NonSquare, PqsysError

import oracles
from helpers import (
    linalg_calls,
    rand_complex,
    rand_contraction,
    rand_hermitian_contraction,
    rand_unitary,
)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(0)
    M = rand_complex(rng, 3, 4)
    assert abs(opcore.operator_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) < 1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    G = rand_complex(rng, 4, 4)
    M = G @ G.conj().T
    R = opcore.psd_sqrt(M)
    assert np.linalg.norm(R @ R - M) < 1e-10
    assert np.linalg.norm(R - R.conj().T) < 1e-12


def test_psd_sqrt_clamps_round_off_but_rejects_indefinite():
    # eigenvalue at -1e-12 is treated as zero
    M = np.diag([1.0, -1e-12]).astype(complex)
    R = opcore.psd_sqrt(M)
    assert abs(R[1, 1]) < 1e-5
    with pytest.raises(NotPSD):
        opcore.psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def _svd_defects(X, **kw):
    return opcore._svd_defects(X, opcore.DEFAULT_TOL, **kw)


def test_defect_operator_unitary_is_zero():
    rng = np.random.default_rng(2)
    U = rand_unitary(rng, 3)
    assert np.linalg.norm(opcore.defect_data(U).DA) < 1e-10


def test_defect_operator_rejects_expansion():
    for defects in (opcore.defect_data, lambda X: _svd_defects(X, contraction=True)):
        with pytest.raises(NotAContraction):
            defects(np.array([[1.5]], dtype=complex))


def test_defect_intertwining():
    # A DA = DA* A, the fundamental exchange relation
    rng = np.random.default_rng(3)
    A = rand_contraction(rng, 4, 4, smax=0.95)
    dd = opcore.defect_data(A)
    assert np.linalg.norm(A @ dd.DA - dd.DAs @ A) < 1e-9


def test_defect_data_selfadjoint_shares_basis():
    # for A = A* both defects coincide and the bases are identical objects
    rng = np.random.default_rng(4)
    A = rand_hermitian_contraction(rng, 4)
    dd = opcore.defect_data(A)
    assert dd.DA is dd.DAs or np.array_equal(dd.DA, dd.DAs)
    assert np.array_equal(dd.E_A, dd.E_As)


def test_defect_basis_spans_range():
    rng = np.random.default_rng(5)
    A = rand_contraction(rng, 4, 4, smax=0.9)
    dd = opcore.defect_data(A)
    # projector onto basis reproduces DA
    P = dd.E_A @ dd.E_A.conj().T
    assert np.linalg.norm(P @ dd.DA - dd.DA) < 1e-9


def test_range_and_kernel_are_complements():
    rng = np.random.default_rng(6)
    M = rand_complex(rng, 5, 3) @ rand_complex(rng, 3, 5)  # rank 3
    ran = opcore.range_basis(M)
    ker = oracles._kernel(M.conj().T)
    assert ran.dim == 3
    assert ker.shape[1] == 2
    assert np.linalg.norm(ran.basis.conj().T @ ker) < 1e-10


def test_krylov_span_saturates():
    A = np.diag([0.1, 0.2, 0.3]).astype(complex)
    b = np.array([[1.0], [1.0], [0.0]], dtype=complex)
    S = opcore.krylov_span(A, b, 3)
    assert S.dim == 2
    # e3 never appears
    assert np.linalg.norm(S.basis[2, :]) < 1e-12


def _strict(X):
    """A contraction is strict when its defect basis spans its domain."""
    return _svd_defects(X, contraction=True, basis=True).E_A.shape[1] == X.shape[1]


def test_contraction_predicates():
    _svd_defects(np.array([[1.0]], dtype=complex), contraction=True)
    with pytest.raises(NotAContraction):
        _svd_defects(np.array([[1.1]], dtype=complex), contraction=True)
    assert _strict(np.array([[0.9]], dtype=complex))
    assert not _strict(np.array([[1.0]], dtype=complex))


def test_selfadjoint_and_normal_predicates():
    rng = np.random.default_rng(8)
    H = rand_hermitian_contraction(rng, 3)
    U = rand_unitary(rng, 3)
    assert opcore.is_selfadjoint(H)
    assert opcore.is_normal(0.5 * U)
    N = rand_complex(rng, 3, 3)
    assert not opcore.is_selfadjoint(N)


def test_norm_at_most_decides_as_the_exact_norm():
    rng = np.random.default_rng(21)
    for shape in ((1, 1), (5, 5), (12, 3), (3, 12), (40, 40)):
        for rank in sorted({1, min(shape)}):
            R = rand_complex(rng, shape[0], rank) @ rand_complex(rng, rank, shape[1])
            S = rand_complex(rng, 6, 6)
            exact, s_exact = opcore.operator_norm(R), opcore.operator_norm(S)
            for ratio in (0.3, 0.999, 1.001, 1.5, 4.0):
                bound = exact * ratio
                assert opcore.norm_at_most(R, bound) == (exact <= bound)
                c = bound / s_exact
                assert opcore.norm_at_most(R, c, S, 0.0) == (exact <= c * s_exact)
                assert opcore.norm_at_most(R, c, S, 2 * s_exact) == (exact <= c * 2 * s_exact)


def test_norm_at_most_at_the_threshold(monkeypatch):
    e1 = np.zeros((4, 4), dtype=complex)
    e1[0, 0] = 0.25
    for R in (e1, 0.25 * np.eye(4), 0.25 * rand_unitary(np.random.default_rng(22), 4)):
        assert opcore.operator_norm(R) == pytest.approx(0.25, rel=1e-15)
        bound = opcore.operator_norm(R)
        assert opcore.norm_at_most(R, bound)
        assert not opcore.norm_at_most(R, bound * (1 - 1e-12))
        assert opcore.norm_at_most(R, 0.5, 2 * R, 0.0)
    # decisions the Frobenius brackets settle take no singular values
    monkeypatch.setattr(opcore, "operator_norm", lambda M: pytest.fail("SVD was computed"))
    assert opcore.norm_at_most(np.zeros((30, 30)), 0.0)
    assert opcore.norm_at_most(1e-3 * np.eye(30), 1e-9, np.eye(30), 1e7)
    assert not opcore.norm_at_most(np.eye(30), 0.5)
    assert not opcore.norm_at_most(np.eye(30), 1e-9, 1e3 * np.eye(30), 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowing_frobenius_norm_settles_nothing():
    # entries near 1e200 overflow the sum of squares: the exact 2-norm decides
    A = rand_complex(np.random.default_rng(24), 5, 5)
    H = A + A.conj().T
    assert not opcore.is_selfadjoint(A * 1e200)
    assert opcore.is_selfadjoint(H * 1e200)
    assert not opcore.norm_at_most(1e200 * np.ones((3, 3)), 1e-9, scale=1e200 * np.eye(3))
    assert opcore.norm_at_most(1e200 * np.ones((3, 3)), 3.0, scale=1e200 * np.eye(3))
    assert opcore.gap(1e200 * np.ones((3, 3)), 1e-9) == pytest.approx(3e200, rel=1e-14)
    stack = np.stack([A * 1e200, H * 1e200, H, A])
    assert opcore._selfadjoint_each(stack).tolist() == [False, True, True, False]


def test_hermitian_eigh_factors_selfadjoint_input_only():
    rng = np.random.default_rng(23)
    H = rand_hermitian_contraction(rng, 6)
    t, V = opcore.hermitian_eigh(H)
    assert np.all(np.diff(t) >= 0)
    assert np.linalg.norm(H @ V - V * t) < 1e-12
    assert opcore.hermitian_eigh(rand_complex(rng, 6, 6)) is None
    assert opcore.hermitian_eigh(np.zeros((0, 0))) is None
    # a real diagonal matrix is its own factorization
    D = np.diag([0.3, -0.5, 0.3, 0.0]).astype(complex)
    t, V = opcore.hermitian_eigh(D)
    assert np.array_equal(t, [-0.5, 0.0, 0.3, 0.3])
    assert np.array_equal(D @ V, V * t)
    assert np.array_equal(V.conj().T @ V, np.eye(4))


def test_strong_limit_strict_contraction_vanishes():
    rng = np.random.default_rng(9)
    A = rand_hermitian_contraction(rng, 4, bound=0.8)
    lim = opcore.strong_limit_SA(A)
    assert np.linalg.norm(lim) < 1e-8


def test_strong_limit_with_unitary_part():
    # A*^n A^n converges to the projection onto the unimodular eigenspace
    A = np.diag([1.0, 0.5, -0.3]).astype(complex)
    lim = opcore.strong_limit_SA(A)
    P = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert np.linalg.norm(lim - P) < 1e-6


def test_strong_limit_of_a_slow_decay_is_zero():
    # |t| = 1 - 1e-6 is not unimodular: A^n -> 0, however slowly
    lim = opcore.strong_limit_SA(np.diag([1.0 - 1e-6, 0.5, -0.3]))
    assert np.linalg.norm(lim) < 1e-12


def test_strong_limit_is_the_projector_onto_the_unitary_part():
    Q = rand_unitary(np.random.default_rng(33), 4)
    A = (Q * np.array([np.exp(0.3j), 0.4, 0.2, -0.1])) @ Q.conj().T
    lim = opcore.strong_limit_SA(A)
    assert np.linalg.norm(lim - np.outer(Q[:, 0], Q[:, 0].conj())) < 1e-12


def test_strong_limit_gates():
    assert opcore.strong_limit_SA(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(NonSquare):
        opcore.strong_limit_SA(np.zeros((2, 3)))
    with pytest.raises(NotAContraction):
        opcore.strong_limit_SA(np.diag([1.0 + 1e-6, 0.5]))


def test_cnu_unitary_split():
    A = np.zeros((3, 3), dtype=complex)
    A[0, 0] = 1.0          # unitary direction
    A[1:, 1:] = np.array([[0.3, 0.1], [0.1, -0.2]])
    uni, cnu = opcore.cnu_unitary_split(A)
    assert uni.dim == 1
    assert cnu.dim == 2
    assert abs(abs(uni.basis[0, 0]) - 1.0) < 1e-10


def test_as_matrix_rejects_junk():
    with pytest.raises(Exception):
        opcore.as_matrix("nope")


def test_nonsquare_krylov_rejected():
    with pytest.raises(NonSquare):
        opcore.krylov_span(np.zeros((2, 3), dtype=complex), np.zeros((2, 1), dtype=complex), 2)


def test_tolerances_frozen_and_replaceable():
    import dataclasses
    t = pqsys.DEFAULT_TOL
    t2 = dataclasses.replace(t, eq_tol=1e-6)
    assert t2.eq_tol == 1e-6 and t.eq_tol != 1e-6
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.eq_tol = 1.0


def _defect_ref(X):
    return opcore.psd_sqrt(np.eye(X.shape[1]) - X.conj().T @ X)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (1, 1000), (1000, 1), (0, 3), (3, 0), (0, 0)])
def test_contraction_defect_matches_psd_sqrt(shape):
    rng = np.random.default_rng(sum(shape))
    X = rand_contraction(rng, *shape, smax=0.97)
    D = _svd_defects(X).DA
    assert D.shape == (shape[1], shape[1])
    if D.size:
        assert np.linalg.norm(D - _defect_ref(X), 2) < 1e-12
        assert np.linalg.norm(D - D.conj().T) < 1e-14


def test_contraction_defect_is_exactly_zero_for_isometries():
    rng = np.random.default_rng(8)
    V = rand_unitary(rng, 6)[:, :4]            # isometric 6x4
    assert not np.any(_svd_defects(V).DA)
    assert not np.any(_svd_defects(rand_unitary(rng, 5)).DA)
    # a coisometry: its adjoint is isometric, so D_{X*} vanishes exactly,
    # while D_X is the projection onto ker X
    W = V.conj().T
    assert not np.any(_svd_defects(W.conj().T).DA)
    P = _svd_defects(W).DA
    assert np.linalg.norm(P - (np.eye(6) - V @ V.conj().T)) < 1e-12


def test_contraction_defect_clamps_norm_just_above_one():
    rng = np.random.default_rng(9)
    X = rand_contraction(rng, 4, 3, smax=1.0 + 0.5e-10)     # within rank_tol
    D = _svd_defects(X).DA
    assert np.linalg.norm(D - _defect_ref(X), 2) < 1e-9
    _, _, Wh = np.linalg.svd(X)
    # the top singular direction is clamped to zero defect
    assert np.linalg.norm(D @ Wh[0].conj()) < 1e-14
    with pytest.raises(NotPSD):
        _svd_defects(np.array([[1.5]], dtype=complex))


@pytest.mark.parametrize("name", ["rank_tol", "eq_tol", "psd_tol", "grid_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_tolerances_reject_non_finite_and_negative_values(name, value):
    with pytest.raises(ValueError, match=name):
        opcore.Tolerances(**{name: value})


def test_one_selfadjointness_scale():
    # ||A - A*|| <= eq_tol * max(1, ||A||): the scale is 1 for a small A ...
    rng = np.random.default_rng(24)
    H = 1e-3 * rand_hermitian_contraction(rng, 5)
    S = rand_hermitian_contraction(rng, 5)
    S /= np.linalg.norm(S, 2)
    assert opcore.is_selfadjoint(H + 0.45e-9j * S)
    assert not opcore.is_selfadjoint(H + 0.55e-9j * S)
    # ... and ||A|| for a large one
    assert opcore.is_selfadjoint(1e3 * H + 0.45e-9j * S)
    assert opcore.is_selfadjoint(10 * np.eye(5) + 4.5e-9j * S)
    assert not opcore.is_selfadjoint(10 * np.eye(5) + 5.5e-9j * S)


@pytest.mark.parametrize("s", [50, 300])
@pytest.mark.parametrize("rank_one", [True, False])
@pytest.mark.parametrize("rel", [1 - 1e-11, 1 + 1e-11])
def test_selfadjointness_verdict_at_the_eq_tol_boundary(s, rank_one, rel):
    # A = H + i c S with H and S real symmetric: A - A* = 2i c S exactly, so
    # ||A - A*||_2 sits at rel times eq_tol (||A|| < 1 makes the scale 1); a
    # rank-one S makes the Frobenius brackets decide below the boundary
    rng = np.random.default_rng(26)
    G = rng.standard_normal((s, s))
    H = (G + G.T) / 2
    H *= 0.5 / np.linalg.norm(H, 2)
    if rank_one:
        u = rng.standard_normal(s)
        S = np.outer(u, u)
    else:
        G = rng.standard_normal((s, s))
        S = (G + G.T) / 2
    eq_tol = pqsys.DEFAULT_TOL.eq_tol
    A = H + 1j * (rel * eq_tol / (2 * np.linalg.norm(S, 2)) * S)
    exact = np.linalg.norm(A - A.conj().T, 2) <= eq_tol * max(1.0, np.linalg.norm(A, 2))
    assert exact == (rel < 1)
    assert opcore.is_selfadjoint(A) == exact
    assert opcore.norm_at_most(A - A.conj().T, eq_tol, A, 1.0) == exact


def test_selfadjointness_forms_no_full_difference():
    rng = np.random.default_rng(27)
    G = rand_complex(rng, 1000, 1000)
    A = G + G.conj().T
    tracemalloc.start()
    try:
        assert opcore.is_selfadjoint(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 1000 x 128 blocks; A - A* and a conjugated copy of A took 2 * A.nbytes
    assert peak < A.nbytes / 2


def test_hermitian_eigh_factors_the_hermitian_part():
    rng = np.random.default_rng(25)
    H = opcore.herm_part(rand_hermitian_contraction(rng, 8))
    S = rand_hermitian_contraction(rng, 8)
    A = H + 0.4e-9j * S / np.linalg.norm(S, 2)
    t, V = opcore.hermitian_eigh(A)
    assert np.array_equal(t, np.linalg.eigh(opcore.herm_part(A))[0])
    assert np.linalg.norm(H @ V - V * t) < 1e-12
    # a bitwise Hermitian A is its own Hermitian part: eigh(A) bit for bit
    assert np.array_equal(opcore.herm_part(H), H)
    for got, ref in zip(opcore.hermitian_eigh(H), np.linalg.eigh(H)):
        assert np.array_equal(got, ref)


def test_hermitian_eigh_raises_when_the_check_fails(monkeypatch):
    H = rand_hermitian_contraction(np.random.default_rng(26), 8)
    H = (H + H.conj().T) / 2  # bitwise Hermitian, so selfadjoint at any eq_tol
    monkeypatch.setattr(np.linalg, "eigh", _perturbed_eigh(np.linalg.eigh, 1e-8))
    with pytest.raises(PqsysError, match="misses"):
        opcore.hermitian_eigh(H)


def _perturbed_eigh(eigh, eps):
    """An eigh whose eigenvectors are off by eps in every entry."""
    def patched(M, *args, **kwargs):
        t, V = eigh(M, *args, **kwargs)
        return t, V + eps
    return patched


def test_hermitian_eigh_check_is_not_tied_to_eq_tol_below_eigh_rounding():
    rng = np.random.default_rng(27)
    H = rand_hermitian_contraction(rng, 400)
    H = (H + H.conj().T) / 2
    t, V = opcore.hermitian_eigh(H, opcore.Tolerances(eq_tol=1e-14))
    assert np.linalg.norm(H @ V - V * t) < 1e-12


def test_hermitian_eigh_rejects_a_wrong_factorization_below_eigh_rounding(monkeypatch):
    H = rand_hermitian_contraction(np.random.default_rng(28), 40)
    H = (H + H.conj().T) / 2
    monkeypatch.setattr(np.linalg, "eigh", _perturbed_eigh(np.linalg.eigh, 1e-8))
    with pytest.raises(PqsysError, match="misses"):
        opcore.hermitian_eigh(H, opcore.Tolerances(eq_tol=1e-14))


def _strict_ref(A, tol=opcore.DEFAULT_TOL):
    """`_strict` by the eigenvalues of I - A*A."""
    if A.shape[1] == 0:
        return True
    w = np.maximum(np.linalg.eigvalsh(opcore.herm_part(np.eye(A.shape[1]) - A.conj().T @ A)), 0.0)
    return bool(w[0] > tol.rank_tol ** 2 * w[-1] and w[-1] > 0)


def _normal(rng, s):
    U = rand_unitary(rng, s)
    z = 0.9 * np.sqrt(rng.uniform(size=s)) * np.exp(2j * np.pi * rng.uniform(size=s))
    return (U * z) @ U.conj().T


def _defect_inputs():
    rng = np.random.default_rng(29)
    V = rand_unitary(rng, 6)[:, :4]
    return {
        "non_normal": rand_contraction(rng, 7, 7, 0.95),
        "5x3": rand_contraction(rng, 5, 3, 0.97),
        "3x5": rand_contraction(rng, 3, 5, 0.97),
        "1x1000": rand_contraction(rng, 1, 1000, 0.97),
        "normal": _normal(rng, 8),
        "unitary": rand_unitary(rng, 5),
        "isometry": V,
        "coisometry": V.conj().T,
        "clamped": rand_contraction(rng, 6, 6, 1.0 + 0.5e-10),
    }


@pytest.mark.parametrize("name", list(_defect_inputs()))
def test_defects_from_one_svd_match_the_reference(name):
    A = _defect_inputs()[name]
    dd = opcore.defect_data(A)
    refs = (_defect_ref(A), _defect_ref(A.conj().T))
    for D, E, ref in ((dd.DA, dd.E_A, refs[0]), (dd.DAs, dd.E_As, refs[1])):
        assert D.shape == ref.shape
        assert np.linalg.norm(D - ref, 2) < 1e-12
        assert np.linalg.norm(E.conj().T @ E - np.eye(E.shape[1])) < 1e-13
        assert np.linalg.norm(E @ (E.conj().T @ D) - D, 2) < 1e-12
        assert E.shape[1] == opcore.range_basis(ref).dim
    assert np.array_equal(_svd_defects(A, contraction=True, basis=True).E_A, dd.E_A)
    assert _strict(A) == _strict_ref(A)


def test_defects_of_isometries_and_normal_operators():
    inputs = _defect_inputs()
    for name in ("unitary", "isometry"):
        dd = opcore.defect_data(inputs[name])
        assert not np.any(dd.DA) and dd.E_A.shape[1] == 0
    assert not np.any(opcore.defect_data(inputs["coisometry"]).DAs)
    # a normal A has one defect, carried by one basis on both sides
    dd = opcore.defect_data(inputs["normal"])
    assert dd.DA is dd.DAs and dd.E_A is dd.E_As
    assert not _strict(inputs["unitary"])
    assert _strict(inputs["non_normal"])


def test_defects_reject_norm_above_one_plus_rank_tol():
    A = rand_contraction(np.random.default_rng(30), 6, 6, 1.0 + 10e-10)
    for f in (opcore.defect_data, lambda X: _svd_defects(X, contraction=True), _strict):
        with pytest.raises(NotAContraction):
            f(A)
    with pytest.raises(NotAContraction):
        opcore.hermitian_defect(np.array([-1.0 - 10e-10, 0.5]))


def test_defect_data_takes_one_svd(monkeypatch):
    A = rand_contraction(np.random.default_rng(31), 40, 40, 0.9)
    assert not opcore.is_normal(A)
    # the reference from a copy: a call on A itself would fill the slot
    ref = opcore.defect_data(A.copy())
    svds = linalg_calls(monkeypatch, "svd")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("eigendecomposition"))
    monkeypatch.setattr(opcore, "operator_norm", lambda M: pytest.fail("norm SVD"))
    dd = opcore.defect_data(A)
    assert len(svds) == 1
    for got, want in zip(dd[:4], ref[:4]):
        assert np.array_equal(got, want)
    # a second call on the same A is a hit of the slot
    assert opcore.defect_data(A) is dd
    assert len(svds) == 1


def test_hermitian_defect_keeps_the_clamp_and_rank_rules():
    t = np.array([-1.0 - 0.5e-10, -0.5, 0.0, 1.0 - 1e-11, 1.0])
    d, keep = opcore.hermitian_defect(t)
    assert np.array_equal(d[[0, 3, 4]], [0.0, 0.0, 0.0])
    assert keep == slice(1, 3)
    assert np.allclose(d[1:3], np.sqrt(1 - t[1:3] ** 2), rtol=0, atol=1e-15)


def test_no_unitary_is_a_strict_contraction():
    # the clamp of the defect values decides, not the signs of the rounding
    # in I - U*U
    rng = np.random.default_rng(32)
    for n in (1, 2, 3, 5, 8) * 20:
        assert not _strict(rand_unitary(rng, n))


# ---------------------------------------------------------------------------
# the recorded-residual rule
# ---------------------------------------------------------------------------

def _unit_norm(rng, kind, n=4):
    """An n x n matrix of 2-norm 1: rank one (Frobenius norm 1), unitary
    (Frobenius norm 2), or of singular values 1, 0.5, 0.5, 0.5 (Frobenius norm 1.32)."""
    if kind == "rank1":
        u, v = rand_complex(rng, n, 1), rand_complex(rng, n, 1)
        return (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)).conj().T
    sv = np.ones(n) if kind == "unitary" else np.array([1.0] + [0.5] * (n - 1))
    return rand_unitary(rng, n) @ np.diag(sv) @ rand_unitary(rng, n)


@pytest.mark.parametrize("kind", ["rank1", "unitary", "mixed"])
@pytest.mark.parametrize("ratio", [0.2, 0.45, 0.7, 1 - 1e-14, 1.0, 1 + 1e-14, 1 + 1e-6, 3.0])
def test_gap_decides_as_the_exact_2_norm(kind, ratio, monkeypatch):
    # ratio is ||R||_2 / bound; 1 -+ 1e-14 lies inside the Frobenius slack
    rng = np.random.default_rng(12)
    bound = 1e-8
    R = bound * ratio * _unit_norm(rng, kind)
    exact = float(np.linalg.norm(R, 2))
    settled = np.linalg.norm(R) * (1 + opcore._FRO_SLACK) <= bound
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    gap = opcore.gap(R, bound)
    assert isinstance(gap, float)
    assert len(svds) == (0 if settled else 1)
    assert (gap <= bound) == (exact <= bound)
    # a passing gap bounds the 2-norm, up to the rounding of the two norms
    assert gap >= exact * (1 - 1e-14)
    if settled:
        assert gap == pytest.approx(np.linalg.norm(R), rel=1e-14)
    if exact > bound:
        assert gap == exact


def test_gap_of_a_stack_is_one_value_per_matrix():
    rng = np.random.default_rng(13)
    bound = 1e-8
    # Frobenius-settled, passing by the 2-norm, failing, then two settled
    stack = np.stack([bound * r * _unit_norm(rng, kind)
                      for r, kind in zip((0.2, 0.9, 2.0, 0.99, 0.3), ("unitary",) * 2 + ("mixed", "rank1", "mixed"))])
    gaps = opcore.gap(stack, bound)
    assert gaps.shape == (5,)
    assert [float(g) for g in gaps] == [opcore.gap(R, bound) for R in stack]
    assert list(gaps <= bound) == [True, True, False, True, True]
    table = opcore.gap(stack[:4].reshape(2, 2, 4, 4), bound)
    assert table.shape == (2, 2) and np.array_equal(table.ravel(), gaps[:4])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_gap_of_an_empty_matrix_is_zero(shape):
    assert opcore.gap(np.zeros(shape, dtype=complex), 1e-9) == 0.0
    assert np.array_equal(opcore.gap(np.zeros((2, *shape), dtype=complex), 1e-9), [0.0, 0.0])
    assert opcore.gap(np.zeros((0, *shape), dtype=complex), 1e-9).shape == (0,)
