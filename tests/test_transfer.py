"""Transfer functions, characteristic functions, and the atomic data class."""

import numpy as np
import pytest

import pqsys
from pqsys import transfer
from pqsys.errors import InvalidMeasure, NotPqs, PolarPoint

import oracles
from helpers import (
    circle_points,
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
        d, c = _inner_defects_by_products([pqsys.theta_eval(tau, z) for z in circle])
        assert abs(rep.max_defect - d) < 1e-12 and abs(rep.max_codefect - c) < 1e-12
    # a 2 x 3 isometry-like sampler: inner fails on the padded zero, co-inner holds
    V = rand_unitary(rng, 3)[:2]
    rep = pqsys.inner_test(lambda lam: lam * V)
    assert (rep.inner, rep.coinner) == (False, True)
    assert rep.max_defect == 1.0 and rep.max_codefect < 1e-14


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
