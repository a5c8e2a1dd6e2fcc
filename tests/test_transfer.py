"""Transfer functions, characteristic functions, and the atomic data class."""

import numpy as np
import pytest

import pqsys
from pqsys import transfer
from pqsys.errors import InvalidMeasure, NotPqs, PolarPoint

import oracles
from helpers import (
    circle_points,
    linalg_calls,
    rand_atoms,
    rand_complex,
    rand_contraction,
    rand_hermitian_contraction,
    rand_passive_T,
    rand_pqs_T,
    rand_unitary,
)


def make_system(T, in_dim, out_dim, state_dim):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), in_dim, out_dim, state_dim)


# ---------------------------------------------------------------------------
# theta_eval and the factored form
# ---------------------------------------------------------------------------

def test_theta_eval_matches_power_series():
    rng = np.random.default_rng(0)
    for _ in range(5):
        T = rand_passive_T(rng, 2, 3, 4)
        tau = make_system(T, 2, 3, 4)
        for lam in (0.3, -0.25j, 0.2 + 0.2j):
            direct = pqsys.theta_eval(tau, lam)
            series = oracles.theta_series(T, 2, 3, lam)
            assert np.linalg.norm(direct - series) < 1e-10


def test_theta_eval_at_zero_is_D():
    rng = np.random.default_rng(1)
    T = rand_passive_T(rng, 2, 2, 3)
    tau = make_system(T, 2, 2, 3)
    assert np.linalg.norm(pqsys.theta_eval(tau, 0.0) - tau.D) < 1e-14


def test_theta_factored_equals_resolvent_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = rand_passive_T(rng, 2, 2, 4)
        tau = make_system(T, 2, 2, 4)
        p = pqsys.parametrize(tau)
        for lam in (0.4, -0.3 + 0.5j, 0.75j):
            lhs = pqsys.theta_factored(p, lam)
            rhs = pqsys.theta_eval(tau, lam)
            assert np.linalg.norm(lhs - rhs) < 1e-9


def test_theta_sampler_accepts_system_and_callable():
    rng = np.random.default_rng(3)
    tau = make_system(rand_passive_T(rng, 1, 1, 2), 1, 1, 2)
    s1 = pqsys.theta_sampler(tau)
    s2 = pqsys.theta_sampler(lambda lam: pqsys.theta_eval(tau, lam))
    assert np.allclose(s1(0.3), s2(0.3))
    with pytest.raises(TypeError):
        pqsys.theta_sampler(42)


def _unit_difference(rng, kind, n=4):
    """An n x n matrix of 2-norm 1: rank one (Frobenius norm 1), unitary
    (Frobenius norm 2), or of singular values 1, 0.5, 0.5, 0.5 (Frobenius norm 1.32)."""
    if kind == "rank1":
        u, v = rand_complex(rng, n, 1), rand_complex(rng, n, 1)
        return (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)).conj().T
    sv = np.ones(n) if kind == "unitary" else np.array([1.0] + [0.5] * (n - 1))
    return rand_unitary(rng, n) @ np.diag(sv) @ rand_unitary(rng, n)


@pytest.mark.parametrize("kind", ["rank1", "unitary", "mixed"])
@pytest.mark.parametrize("ratios", [
    (0.5, 0.3, 0.9),                 # all well below the bound
    (0.4, 0.45, 0.2),                # Frobenius norms below the bound for every kind
    (0.5, 1 - 1e-14, 0.2),           # inside the Frobenius slack below the bound
    (0.5, 1.0, 0.2),                 # at the bound
    (0.5, 1 + 1e-14, 0.2),           # inside the slack above it
    (1 + 1e-6, 0.5, 1 + 1e-6),       # above it at two points: the first is named
    (0.7, 3.0, 0.1),                 # far above it
])
def test_grid_gap_decides_as_the_exact_2_norm(kind, ratios, monkeypatch):
    # `markov_gap` on coefficient gaps of 2-norm bound * ratios at lambda^0,
    # lambda^1 and lambda^2, on two pairs of forms: poles 0 and 0.5 shared by
    # both forms (the residue-sum settle first), and f at 0 against g at 0.5
    # (the blocked path).  Later Markov parameters halve, so they never lead.
    # A third pair shares the one pole 0 and compares lambda^0 and lambda^1.
    rng = np.random.default_rng(11)
    bound = 1e-8
    base = rand_complex(rng, 4, 4)
    d0, d1, d2 = (bound * r * _unit_difference(rng, kind) for r in ratios)
    t = np.array([0.0, 0.5])
    shared = ((base + d0, t, np.stack([base + d1 - 2 * d2, base + 2 * d2])),
              (base, t, np.stack([base, base])))
    apart = ((base + d0, t[:1], (d1 - 2 * d2)[None]), (base, t[1:], (-2 * d2)[None]))
    single = ((base + d0, t[:1], (base + d1)[None]), (base, t[:1], base[None]))
    for f, g in (shared, apart, single):
        coeffs = _markov_reference(f, g, f[1].size if f[1] is g[1] else f[1].size + g[1].size)
        exact = [np.linalg.norm(c, 2) for c in coeffs]
        k = int(np.argmax(exact))
        cheap = None
        if f[1] is g[1]:
            dR = f[2] - g[2]
            cheap = max(np.linalg.norm(f[0] - g[0]), np.linalg.norm(dR, axis=(1, 2)).sum())
        settled = cheap is not None and cheap * (1 + 1e-12) <= bound
        # a coefficient whose Frobenius norm settles it takes no SVD
        unsettled = 0 if settled else sum(np.linalg.norm(c) * (1 + 1e-12) > bound for c in coeffs)
        svds = linalg_calls(monkeypatch, "svd", internal=True)
        gap, j = transfer.markov_gap(f, g, bound)
        assert len(svds) == unsettled
        assert (gap <= bound) == (exact[k] <= bound)
        # a passing gap bounds the largest 2-norm, up to the rounding of the two norms
        assert gap >= exact[k] * (1 - 1e-14)
        if settled:
            assert (gap, j) == (cheap, 0)
        if exact[k] > bound:
            assert gap == exact[k] and j == k


def _markov_reference(f, g, count):
    """The coefficients of lambda^0..lambda^count of the difference of two pole
    forms, each Markov parameter summed over the poles directly."""
    (Df, tf, Rf), (Dg, tg, Rg) = f, g
    if tf is tg:
        t, R = tf, Rf - Rg
    else:
        t, R = np.concatenate([tf, tg]), np.concatenate([Rf, -Rg])
    return [Df - Dg] + [(t[:, None, None] ** (j - 1) * R).sum(axis=0) for j in range(1, count + 1)]


def test_markov_gap_settles_shared_poles_by_the_residue_sum(monkeypatch):
    data, tau = pqsys.chebyshev_example(0.2, 40)
    f, g = transfer.pole_form(tau), transfer.pole_form(data)
    # the diagonal system and its sorted data carry the same t, bit for bit
    assert np.array_equal(f[1], g[1])
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    powers = []
    power_sums = transfer._power_sums
    monkeypatch.setattr(transfer, "_power_sums", lambda *a: powers.append(a) or power_sums(*a))
    gap, j = transfer.markov_gap(f, g, 1e-8)
    assert j == 0 and gap == max(np.linalg.norm(f[0] - g[0]), np.linalg.norm(f[2] - g[2], axis=(1, 2)).sum())
    assert gap < 1e-14 and svds == [] and powers == []


def test_markov_gap_forms_the_coefficients_in_blocks():
    # 300 + 300 poles apart: 600 Markov parameters in blocks of 256 powers
    rng = np.random.default_rng(12)
    tf, tg = np.sort(rng.uniform(-0.99, 0.99, 300)), np.sort(rng.uniform(-0.99, 0.99, 300))
    Rf, Rg = (rng.uniform(0, 1e-3, (300, 1, 1)) + 0j for _ in range(2))
    f, g = (np.zeros((1, 1)), tf, Rf), (np.zeros((1, 1)), tg, Rg)
    exact = [abs(c[0, 0]) for c in _markov_reference(f, g, 600)]
    gap, j = transfer.markov_gap(f, g, 0.0)
    assert j == int(np.argmax(exact))
    assert gap == pytest.approx(exact[j], rel=1e-12)
    # the last parameter compared is the 600th: a growing sequence peaks there
    grow = (np.zeros((1, 1)), np.array([1.01]), np.ones((1, 1, 1), dtype=complex))
    empty = (np.zeros((1, 1)), np.zeros(0), np.zeros((0, 1, 1), dtype=complex))
    gap, j = transfer.markov_gap(grow, empty, 0.0, count=600)
    assert j == 600 and gap == pytest.approx(1.01 ** 599, rel=1e-12)


def test_markov_gap_index_is_the_power_of_lambda():
    # Theta(lambda) = 0.1 + lambda / (1 - 2 lambda) R = 0.1 + sum_j 2^(j-1) R lambda^j:
    # compared with the zero function, coefficient j has 2-norm 2^(j-1) ||R||_2
    rng = np.random.default_rng(13)
    R = rand_complex(rng, 2, 3)
    f = (np.full((2, 3), 0.1), np.array([2.0]), R[None])
    g = (np.zeros((2, 3)), np.zeros(0), np.zeros((0, 2, 3)))
    # the Taylor coefficients by the Cauchy integral on |lambda| = 0.2
    lam = 0.2 * np.exp(2j * np.pi * np.arange(64) / 64)
    theta = 0.1 + (lam / (1 - 2 * lam))[:, None, None] * R
    for count in range(4):
        taylor = (theta * lam[:, None, None] ** -count).mean(axis=0)
        gap, j = transfer.markov_gap(f, g, 0.0, count=count)
        assert j == count
        assert gap == pytest.approx(np.linalg.norm(taylor, 2), rel=1e-9)
    assert transfer.markov_gap(f, g, 0.0, count=0) == (pytest.approx(np.linalg.norm(f[0], 2)), 0)


def test_an_atom_split_in_two_halves_matches_at_rounding_level():
    rng = np.random.default_rng(14)
    f = pqsys.SqsFunctionData(0.1 * np.eye(2), rand_atoms(rng, 4, 2))
    t0, w0 = f.atoms[1]
    halves = pqsys.SqsFunctionData(f.theta0, (*f.atoms, (t0, w0 / 2)))
    halves = pqsys.SqsFunctionData(f.theta0, tuple(
        (t, w / 2 if k == 1 else w) for k, (t, w) in enumerate(halves.atoms)))
    gap, _ = transfer.markov_gap(transfer.pole_form(f), transfer.pole_form(halves), 1e-8)
    assert gap < 1e-15


def test_a_residue_moved_between_close_poles_is_caught():
    # a weight of 0.4 moved from the atom at 0.3 to the one at t = 0.3 + 1e-6:
    # the residue t (1 - t^2) 0.4 of lambda^2 moves by 1e-6 (1 - 3 0.3^2) 0.4
    atoms = [(0.3, np.array([[0.5]])), (0.3 + 1e-6, np.array([[0.0]]))]
    moved = [(0.3, np.array([[0.1]])), (0.3 + 1e-6, np.array([[0.4]]))]
    f, g = (transfer.pole_form(pqsys.SqsFunctionData(np.zeros((1, 1)), a)) for a in (atoms, moved))
    gap, j = transfer.markov_gap(f, g, 1e-8)
    coeffs = _markov_reference(f, g, 4)
    assert j == 2 and gap == pytest.approx(abs(coeffs[2][0, 0]), rel=1e-6)
    assert gap == pytest.approx(1e-6 * 0.4 * (1 - 3 * 0.09), rel=1e-5)
    assert gap > 10 * pqsys.DEFAULT_TOL.eq_tol


# ---------------------------------------------------------------------------
# characteristic function of the main operator
# ---------------------------------------------------------------------------

def test_char_defect_residuals_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rand_contraction(rng, 4, 4, smax=0.85)
        lam = 0.8 * (rng.random() * np.exp(2j * np.pi * rng.random()))
        r1, r2 = pqsys.char_defect_residuals(A, lam)
        assert r1 < 1e-9 and r2 < 1e-9


def test_char_defect_residuals_factor_A_once(monkeypatch):
    from pqsys import opcore
    rng = np.random.default_rng(41)
    calls = []
    defect_data = opcore.defect_data
    monkeypatch.setattr(opcore, "defect_data", lambda *a: calls.append(1) or defect_data(*a))
    for A in (rand_contraction(rng, 6, 6, smax=0.9), rand_hermitian_contraction(rng, 6, bound=0.8)):
        calls.clear()
        r1, r2 = pqsys.char_defect_residuals(A, 0.3 - 0.4j)
        assert len(calls) == 1
        assert r1 < 1e-9 and r2 < 1e-9


@pytest.mark.parametrize("kind", ["pqs", "general"])
def test_char_func_on_a_system_reads_its_cached_defects(kind, monkeypatch):
    rng = np.random.default_rng(31)
    s = 12
    T = rand_pqs_T(rng, 2, s) if kind == "pqs" else rand_passive_T(rng, 2, 2, s)
    tau = make_system(T, 2, 2, s)
    points = [0.3 - 0.4j, -0.5 + 0.1j, np.exp(0.7j)]
    bare = [pqsys.char_func(tau.A, z) for z in points]
    bare_res = [pqsys.char_defect_residuals(tau.A, z) for z in points]
    factorizations = linalg_calls(monkeypatch, "eigh" if kind == "pqs" else "svd", (s, s))
    for z, ref, ref_res in zip(points, bare, bare_res):
        assert np.array_equal(pqsys.char_func(tau, z), ref)
        assert pqsys.char_defect_residuals(tau, z) == ref_res
    assert len(factorizations) == 1


def test_char_func_unitary_on_circle_for_selfadjoint():
    rng = np.random.default_rng(5)
    A = rand_hermitian_contraction(rng, 4, bound=0.8)
    for xi in circle_points(16):
        val = pqsys.char_func(A, xi)
        d = val.shape[0]
        assert np.linalg.norm(val.conj().T @ val - np.eye(d)) < 1e-7


def test_char_func_plus_minus_one_selfadjoint():
    # Phi_A(1) = I and Phi_A(-1) = -I on the defect space
    rng = np.random.default_rng(6)
    A = rand_hermitian_contraction(rng, 3, bound=0.7)
    one = pqsys.char_func(A, 1.0)
    m_one = pqsys.char_func(A, -1.0)
    d = one.shape[0]
    assert np.linalg.norm(one - np.eye(d)) < 1e-8
    assert np.linalg.norm(m_one + np.eye(d)) < 1e-8


def test_char_func_of_zero_operator_is_scalar_blaschke():
    # A = 0: Phi(lambda) = lambda on the full space
    val = pqsys.char_func(np.zeros((2, 2)), 0.37 + 0.11j)
    assert np.linalg.norm(val - (0.37 + 0.11j) * np.eye(2)) < 1e-12


# ---------------------------------------------------------------------------
# defect identities for the factored transfer function
# ---------------------------------------------------------------------------

def test_defect_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        T = rand_passive_T(rng, 2, 3, 4)
        tau = make_system(T, 2, 3, 4)
        p = pqsys.parametrize(tau)
        h = rand_complex(rng, 2, 1)[:, 0]
        g = rand_complex(rng, 3, 1)[:, 0]
        lam = 0.7 * np.exp(2j * np.pi * rng.random()) * rng.random()
        r1, r2 = pqsys.defect_identities(p, lam, h, g)
        assert r1 < 1e-9 and r2 < 1e-9


# ---------------------------------------------------------------------------
# boundary values for quasi-selfadjoint systems
# ---------------------------------------------------------------------------

def test_boundary_values_formula_and_limit():
    rng = np.random.default_rng(8)
    tau = make_system(rand_pqs_T(rng, 2, 3), 2, 2, 3)
    p = pqsys.parametrize(tau)
    theta1, theta_m1 = pqsys.boundary_values(p)
    # radial limits approach the boundary values
    for target, sign in ((theta1, 1.0), (theta_m1, -1.0)):
        near = pqsys.theta_eval(tau, sign * (1 - 1e-7))
        assert np.linalg.norm(near - target) < 1e-4


def test_boundary_values_reject_non_pqs():
    rng = np.random.default_rng(9)
    T = rand_passive_T(rng, 2, 2, 3)
    p = pqsys.parametrize(make_system(T, 2, 2, 3))
    with pytest.raises(NotPqs):
        pqsys.boundary_values(p)


# ---------------------------------------------------------------------------
# inner tests
# ---------------------------------------------------------------------------

def test_inner_test_on_blaschke_diagonal():
    from pqsys.realize import blaschke

    points = [0.3, -0.55]

    def sampler(lam):
        return np.diag([blaschke(a, lam) for a in points]).astype(complex)

    rep = pqsys.inner_test(sampler)
    assert rep.inner and rep.coinner
    assert rep.max_defect < 1e-10


def test_inner_test_rejects_strict_contraction_values():
    rng = np.random.default_rng(10)
    tau = make_system(rand_passive_T(rng, 2, 2, 3, smax=0.8), 2, 2, 3)
    rep = pqsys.inner_test(tau)
    assert not rep.inner
    assert rep.max_defect > 1e-3


def _inner_defects_by_products(values):
    """max ||I - V*V|| and max ||I - VV*|| over the values, from the products."""
    d = max(np.linalg.norm(np.eye(v.shape[1]) - v.conj().T @ v, 2) for v in values)
    c = max(np.linalg.norm(np.eye(v.shape[0]) - v @ v.conj().T, 2) for v in values)
    return d, c


def test_inner_test_defects_match_the_products():
    rng = np.random.default_rng(15)
    circle = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    systems = [
        make_system(rand_passive_T(rng, 3, 3, 6, smax=0.95), 3, 3, 6),   # non-normal A
        make_system(rand_pqs_T(rng, 4, 12), 4, 4, 12),                  # spectral path
        make_system(rand_passive_T(rng, 2, 4, 5, smax=0.9), 2, 4, 5),   # 4 x 2 values
    ]
    for tau in systems:
        rep = pqsys.inner_test(tau)
        values = [pqsys.theta_eval(tau, z) for z in circle]
        d, c = _inner_defects_by_products(values)
        assert abs(rep.max_defect - d) < 1e-12 and abs(rep.max_codefect - c) < 1e-12
        # the rule of the CLI's circle/grid unitarity and the canonical-form checks
        assert abs(max(pqsys.opcore.isometry_defect(v) for v in values) - d) < 1e-12
    # a 2 x 3 isometry-like sampler: inner fails on the padded zero, co-inner holds
    V = rand_unitary(rng, 3)[:2]
    rep = pqsys.inner_test(lambda lam: lam * V)
    assert (rep.inner, rep.coinner) == (False, True)
    assert rep.max_defect == 1.0 and rep.max_codefect < 1e-14
    for X in (V, V.conj().T, rand_contraction(rng, 4, 4), np.zeros((0, 3))):
        ref = np.linalg.norm(np.eye(X.shape[1]) - X.conj().T @ X, 2) if X.size else 1.0
        assert abs(pqsys.opcore.isometry_defect(X) - ref) < 1e-12


def test_inner_pm1_conditions():
    # boundary values of a Blaschke product: b(1) = 1, b(-1) = -1
    eye = np.eye(2, dtype=complex)
    c1, c2 = pqsys.inner_pm1_conditions(eye, -eye)
    assert c1 and c2
    # constants shifted off the projector structure fail
    c1, c2 = pqsys.inner_pm1_conditions(0.75 * eye, -0.25 * eye)
    assert not (c1 and c2)


# ---------------------------------------------------------------------------
# atomic data: W, Theta, kernel, membership
# ---------------------------------------------------------------------------

def member_data(rng, m=3, n=2):
    atoms = rand_atoms(rng, m, n)
    center = -sum(t * s for t, s in atoms)
    total = sum(s for _, s in atoms)
    Rh = pqsys.psd_sqrt(np.eye(n) - total)
    X = rand_contraction(rng, n, n, smax=0.9)
    theta0 = center + Rh @ X @ Rh
    return pqsys.SqsFunctionData(theta0, tuple(atoms))


def test_w_from_data_matches_manual_sum():
    rng = np.random.default_rng(11)
    f = member_data(rng)
    lam = 0.4 - 0.2j
    acc = np.zeros((f.dim, f.dim), dtype=complex)
    for t, sigma in f.atoms:
        acc += lam * (1 - t * t) / (1 - t * lam) * sigma
    assert np.linalg.norm(pqsys.w_from_data(f, lam) - acc) < 1e-12
    assert np.linalg.norm(pqsys.theta_from_data(f, lam) - (f.theta0 + acc)) < 1e-12


def test_w_pole_detection():
    f = pqsys.SqsFunctionData(np.zeros((1, 1)), ((0.5, np.array([[0.3]])),))
    with pytest.raises(PolarPoint):
        pqsys.w_from_data(f, 2.0)


def test_measure_validation():
    with pytest.raises(InvalidMeasure):
        pqsys.SqsFunctionData(np.zeros((2, 3)))
    with pytest.raises(InvalidMeasure):
        pqsys.SqsFunctionData(np.zeros((1, 1)), ((1.5, np.array([[0.1]])),))
    with pytest.raises(InvalidMeasure):
        pqsys.SqsFunctionData(np.zeros((1, 1)), ((0.2, np.array([[-0.1]])),))
    with pytest.raises(InvalidMeasure):
        pqsys.SqsFunctionData(np.zeros((2, 2)), ((0.2, np.array([[0.1, 1j], [2j, 0.1]])),))


OK_WEIGHT = 0.1 * np.eye(2)
NOT_HERMITIAN = np.array([[-0.1, 1j], [2j, -0.1]])   # also indefinite
NEGATIVE = np.diag([0.1, -0.1])


@pytest.mark.parametrize("atoms, message", [
    (((0.2, OK_WEIGHT), (0.3, NOT_HERMITIAN), (1.5, OK_WEIGHT)), "not Hermitian"),
    (((0.2, OK_WEIGHT), (1.5, OK_WEIGHT), (0.3, NOT_HERMITIAN)), "outside"),
    (((0.2, NEGATIVE), (0.3, NOT_HERMITIAN)), "negative eigenvalue"),
    (((0.2, NOT_HERMITIAN), (0.3, NEGATIVE)), "not Hermitian"),
    (((0.2, NEGATIVE), (0.3, np.eye(3))), "negative eigenvalue"),
    (((0.2, np.eye(3)), (0.3, NEGATIVE)), "dimension differs"),
    (((0.2, NEGATIVE), (0.2 + 1e-3j, OK_WEIGHT)), "negative eigenvalue"),
])
def test_measure_names_the_fault_of_its_first_faulty_atom(atoms, message):
    # the weights are checked together, but the first faulty atom raises, with
    # its first fault in the order location, shape, Hermitian, PSD
    with pytest.raises(InvalidMeasure, match=message):
        pqsys.SqsFunctionData(np.zeros((2, 2)), atoms)


def test_membership_accepts_constructed_member():
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = member_data(rng)
        rep = pqsys.sqs_membership(f)
        assert rep.member, rep.reasons
        assert rep.x_norm <= 1.0 + 1e-9
        # reconstruction: theta0 = center + R^{1/2} X R^{1/2}
        Rh = pqsys.psd_sqrt(rep.radius)
        assert np.linalg.norm(rep.center + Rh @ rep.X @ Rh - f.theta0) < 1e-8


def test_membership_rejects_excess_mass():
    rng = np.random.default_rng(13)
    atoms = rand_atoms(rng, 2, 2)
    scaled = tuple((t, 3.0 * s) for t, s in atoms)
    f = pqsys.SqsFunctionData(np.zeros((2, 2)), scaled)
    rep = pqsys.sqs_membership(f)
    assert not rep.member
    assert rep.sigma_total_excess > 0
    assert rep.X is None


def test_membership_rejects_theta0_outside_ball():
    rng = np.random.default_rng(14)
    atoms = rand_atoms(rng, 2, 2)
    center = -sum(t * s for t, s in atoms)
    total = sum(s for _, s in atoms)
    Rh = pqsys.psd_sqrt(np.eye(2) - total)
    theta0 = center + Rh @ (1.2 * np.eye(2)) @ Rh
    rep = pqsys.sqs_membership(pqsys.SqsFunctionData(theta0, tuple(atoms)))
    assert not rep.member
    assert rep.x_norm > 1.0 + 1e-9


def test_membership_rejects_off_range_component():
    # degenerate radius: one direction of the ball collapses, so any
    # deviation of theta0 in that direction exits the function class
    sigma = np.diag([1.0, 0.3]).astype(complex)
    atoms = ((0.2, sigma),)
    center = -0.2 * sigma
    theta0 = center + np.diag([0.1, 0.0])
    rep = pqsys.sqs_membership(pqsys.SqsFunctionData(theta0, atoms))
    assert not rep.member
    assert rep.off_range_residual > 1e-6


def test_membership_rejects_off_range_component_of_a_clamped_radius():
    # R = I - Sigma has the eigenvalue 1e-15, below the rounding floor
    # 10 * 2 * eps = 4.4e-15 of its eigh: R^{1/2} clamps it to 0, so ran R
    # must leave that direction out too, or the 0.1 of Theta(0) along it is
    # seen by neither test
    atoms = ((0.0, np.diag([1 - 1e-15, 0.5]).astype(complex)),)
    rep = pqsys.sqs_membership(pqsys.SqsFunctionData(np.diag([0.1, 0.0]), atoms))
    assert not rep.member
    assert abs(rep.off_range_residual - 0.1) < 1e-12
    assert rep.x_norm == 0.0


def test_membership_reads_a_radius_eigenvalue_above_the_floor_as_range():
    # the eigenvalue 5e-10 of R is above the floor: its direction is in ran R,
    # and the 0.1 of Theta(0) along it asks for a ball parameter of norm
    # 0.1 / 5e-10 = 2e8, not for a component off the range
    atoms = ((0.0, np.diag([1 - 5e-10, 0.5]).astype(complex)),)
    rep = pqsys.sqs_membership(pqsys.SqsFunctionData(np.diag([0.1, 0.0]), atoms))
    assert not rep.member
    assert rep.off_range_residual == 0.0
    assert abs(rep.x_norm / 2e8 - 1) < 1e-6
    assert rep.reasons == (f"ball parameter has norm {rep.x_norm:.12f}",)


def test_nevanlinna_kernel_psd_for_member():
    rng = np.random.default_rng(15)
    f = member_data(rng)
    pts = [1.5 + 1.0j, -2.0 + 0.7j, 0.3 - 1.4j]
    assert pqsys.nevanlinna_min_eig(f, pts) > -1e-10


def test_nevanlinna_rejects_conjugate_pairs():
    rng = np.random.default_rng(16)
    f = member_data(rng)
    with pytest.raises(PolarPoint):
        pqsys.nevanlinna_min_eig(f, [2.0 + 1j, 2.0 - 1j])


@pytest.mark.parametrize("t", [float("nan"), complex(0.2, float("nan")), complex(float("nan"), 0.0)])
def test_measure_rejects_a_non_finite_atom_location(t):
    with pytest.raises(InvalidMeasure, match="not finite"):
        pqsys.SqsFunctionData(np.zeros((1, 1)), ((0.3, np.array([[0.1]])), (t, np.array([[0.1]]))))
