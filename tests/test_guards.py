"""Input guards of the library: each raises its exception type with its
message, and each early return gives the value it documents."""

import dataclasses
import re

import numpy as np
import pytest

import pqsys
from pqsys import _json, opcore, param, qfunc, realize, transfer
from pqsys.errors import (
    DimensionMismatch,
    NonSquare,
    NotAContraction,
    NotHermitian,
    NotPqs,
    NotScalar,
    PqsysError,
    SingularResolvent,
    TransferMismatch,
)

from helpers import pqs_from_spectrum, rand_passive_T


def _raises(exc_type, message, fn, *args):
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        fn(*args)
    assert type(info.value) is exc_type


def _system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def _non_pqs(n=2, s=3, seed=0):
    """A passive system whose main operator is not selfadjoint."""
    return _system(rand_passive_T(np.random.default_rng(seed), n, n, s), n, s)


def _pqs(n=2, s=4, seed=1):
    rng = np.random.default_rng(seed)
    return _system(pqs_from_spectrum(rng, np.linspace(-0.7, 0.6, s), n), n, s)


# ---------------------------------------------------------------------------
# _json
# ---------------------------------------------------------------------------

def test_a_measure_document_without_theta0_is_named():
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2, 3)[0])
    del doc["theta0"]
    _raises(ValueError, "not a measure document: missing 'theta0'", _json.measure_from_json, doc)


def test_a_tridiagonal_document_without_its_flag_is_named():
    doc = _json.jacobi_to_json(pqsys.JacobiRealization(0.1, (0.5,), (0.0,), False))
    del doc["truncated"]
    _raises(ValueError, "not a tridiagonal document: missing 'truncated'", _json.jacobi_from_json, doc)


@pytest.mark.parametrize("root", [[], "system", 1.5, None])
def test_a_document_root_must_be_an_object(root):
    _raises(ValueError, "document root must be an object", _json.sniff_document, root)


# ---------------------------------------------------------------------------
# opcore
# ---------------------------------------------------------------------------

def test_psd_sqrt_needs_a_square_matrix():
    _raises(NonSquare, "psd_sqrt needs a square matrix, got (2, 3)", opcore.psd_sqrt, np.zeros((2, 3)))


def test_psd_sqrt_of_the_empty_matrix_is_an_empty_copy():
    M = np.zeros((0, 0), dtype=complex)
    root = opcore.psd_sqrt(M)
    assert root.shape == (0, 0) and root.dtype == complex and root is not M


def test_psd_sqrt_needs_a_hermitian_matrix():
    _raises(NotHermitian, "psd_sqrt: matrix is not Hermitian", opcore.psd_sqrt, [[0.0, 1.0], [0.0, 0.0]])


def test_krylov_span_needs_B_in_the_space_of_A():
    _raises(ValueError, "B has wrong ambient dimension", opcore.krylov_span, np.eye(3), np.ones((2, 1)), 2)


@pytest.mark.parametrize("predicate, message", [(opcore.is_selfadjoint, "selfadjointness needs a square matrix"),
                                                (opcore.is_normal, "normality needs a square matrix")])
def test_operator_predicates_need_a_square_matrix(predicate, message):
    _raises(NonSquare, message, predicate, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# param
# ---------------------------------------------------------------------------

def test_make_params_checks_the_columns_of_K():
    # A = I/2 on C^2: both defect spaces are all of C^2
    A = 0.5 * np.eye(2)
    _raises(DimensionMismatch, "K has 3 cols, dim of defect of A is 2",
            param.make_params, A, 0.1 * np.ones((2, 1)), 0.1 * np.ones((1, 3)), None)


def test_make_params_checks_the_shape_of_X():
    # strict contractions M (2 x 1) and K (1 x 2): D_M and D_{K*} are 1-dimensional
    A = 0.5 * np.eye(2)
    _raises(DimensionMismatch, "X has shape (2, 2), defect bases want (1, 1)",
            param.make_params, A, 0.1 * np.ones((2, 1)), 0.1 * np.ones((1, 2)), np.zeros((2, 2)))


def test_assemble_needs_a_square_main_operator():
    A = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.0]])
    p = param.make_params(A, np.zeros((2, 1)), np.zeros((1, 3)), None)
    _raises(DimensionMismatch, "system assembly needs a square main operator", param.assemble, p)


def test_assemble_refuses_parameters_whose_block_is_not_a_contraction():
    p = pqsys.parametrize(_pqs())
    inflated = dataclasses.replace(p, K=3.0 * p.K)
    with pytest.raises(NotAContraction, match=r"^assembled block has norm \d\.\d{12}; parameters inconsistent$"):
        param.assemble(inflated)


def test_defect_balance_checks_the_vector_dimensions():
    p = pqsys.parametrize(_pqs(n=2, s=4))
    _raises(DimensionMismatch, "input vector has dim 3, expected 2", param.defect_balance, p, np.ones(3), np.ones(4))
    _raises(DimensionMismatch, "state vector has dim 5, expected 4", param.defect_balance, p, np.ones(2), np.ones(5))


# ---------------------------------------------------------------------------
# qfunc
# ---------------------------------------------------------------------------

def test_q_theta_roundtrip_with_a_singular_Q_is_a_singular_resolvent(monkeypatch):
    tau = _pqs()
    monkeypatch.setattr(qfunc, "q_eval", lambda tau, z, tol: np.zeros((tau.out_dim, tau.out_dim), dtype=complex))
    _raises(SingularResolvent, "Singular matrix", qfunc.q_theta_roundtrip, tau, 2.0 + 1.0j)


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("construction, message", [
    (realize.spectral_measure, "spectral read-out needs a passive quasi-selfadjoint system"),
    (realize.inner_canonical_form, "canonical form applies to passive quasi-selfadjoint systems"),
    (realize.biinner_dilation, "dilation applies to passive quasi-selfadjoint systems"),
])
def test_pqs_constructions_refuse_a_system_that_is_not_pqs(construction, message):
    _raises(NotPqs, message, construction, _non_pqs())


def test_jacobi_coefficient_lists_must_have_equal_length():
    _raises(DimensionMismatch, "coefficient lists must have equal length",
            pqsys.JacobiRealization, 0.1, (0.5, 0.4), (0.0,), False)


def test_jacobi_realize_needs_a_scalar_system():
    _raises(NotScalar, "system must have one-dimensional input and output", pqsys.jacobi_realize, _pqs(n=2))


def test_jacobi_realize_needs_a_pqs_system():
    _raises(NotPqs, "tridiagonal realization applies to pqs systems", pqsys.jacobi_realize, _non_pqs(n=1))


def test_jacobi_realize_names_a_source_it_cannot_realize():
    _raises(TypeError, "cannot realize <class 'str'>", pqsys.jacobi_realize, "measure.json")


def test_the_chebyshev_example_needs_two_nodes():
    _raises(PqsysError, "need at least 2 quadrature nodes", pqsys.chebyshev_example, 0.1, 1)


def test_similarity_of_minimal_systems_of_different_sizes_within_the_transfer_bound():
    # an extra atom of weight 1e-13 moves every Markov parameter by less than
    # the transfer bound, yet its state is controllable: both systems are
    # minimal, agree to eq_tol, and differ in state dimension
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 6)
    extra = pqsys.SqsFunctionData(data.theta0, (*data.atoms, (0.05, np.array([[1e-13]]))))
    tau1, tau2 = pqsys.realize_from_data(data), pqsys.realize_from_data(extra)
    assert (tau1.state_dim, tau2.state_dim) == (6, 7)
    assert pqsys.is_minimal(tau1) and pqsys.is_minimal(tau2)
    _raises(TransferMismatch, "minimal realizations have different state dimensions",
            pqsys.unitary_similarity, tau1, tau2)


# ---------------------------------------------------------------------------
# sysmodel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(-1, 2, 1), (1, -1, 1), (1, 1, -1)])
def test_partition_dimensions_must_be_nonnegative(dims):
    name = ("in_dim", "out_dim", "state_dim")[dims.index(-1)]
    _raises(DimensionMismatch, f"{name} must be nonnegative", pqsys.PartitionedContraction, np.zeros((2, 2)), *dims)


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def test_an_empty_resolvent_solves_to_an_empty_block():
    X = transfer._resolve(np.zeros((0, 0), dtype=complex), np.zeros((0, 3), dtype=complex))
    assert X.shape == (0, 3) and X.dtype == complex


def test_an_exactly_singular_resolvent_is_a_singular_resolvent():
    _raises(SingularResolvent, "Singular matrix", transfer._resolve, np.zeros((2, 2), dtype=complex), np.eye(2))


def test_a_pole_form_needs_a_selfadjoint_main_operator():
    _raises(NotPqs, "a pole form needs a selfadjoint main operator", transfer.pole_form, _non_pqs())


def test_a_pole_form_names_a_source_it_cannot_read():
    _raises(TypeError, "cannot read a pole form off <class 'list'>", transfer.pole_form, [[0.5]])


def test_the_theta_sampler_of_atomic_data_evaluates_the_data():
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 5)
    sample = transfer.theta_sampler(data)
    for lam in (0.3, -0.5j, 0.2 + 0.6j):
        assert np.array_equal(sample(lam), transfer.theta_from_data(data, lam))


def test_the_characteristic_function_needs_a_square_operator():
    _raises(DimensionMismatch, "characteristic function needs a square operator",
            pqsys.char_func, 0.5 * np.ones((2, 3)) / 3, 0.2)


def test_defect_identities_check_the_vector_spaces():
    p = pqsys.parametrize(_pqs(n=2))
    message = "h must live in the input space, g in the output space"
    _raises(DimensionMismatch, message, transfer.defect_identities, p, 0.3, np.ones(3), np.ones(2))
    _raises(DimensionMismatch, message, transfer.defect_identities, p, 0.3, np.ones(2), np.ones(1))


def test_boundary_values_need_a_selfadjoint_main_operator():
    _raises(NotPqs, "main operator is not selfadjoint", transfer.boundary_values, pqsys.parametrize(_non_pqs()))


def test_boundary_values_need_M_equal_to_K_star():
    A = np.diag([0.5, -0.3])
    p = param.make_params(A, [[0.3], [0.2]], [[0.3, 0.1]], None)
    _raises(NotPqs, "parameters do not satisfy M = K*", transfer.boundary_values, p)


@pytest.mark.parametrize("theta1, theta_m1", [(np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3)))])
def test_inner_pm1_conditions_need_square_values_of_equal_size(theta1, theta_m1):
    _raises(DimensionMismatch, "boundary values must be square matrices of equal size",
            transfer.inner_pm1_conditions, theta1, theta_m1)
