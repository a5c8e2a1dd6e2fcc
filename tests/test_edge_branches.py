"""Edge branches: circle points that `inner_test` skips, the series of the
Chebyshev W near 0, the empty tridiagonal realization and the input guards
of `unitary_similarity`."""

import mpmath
import numpy as np
import pytest

import pqsys
from pqsys import realize, sysmodel
from pqsys.errors import DimensionMismatch, NotMinimal, SingularResolvent

from helpers import pqs_from_spectrum, rand_contraction, rand_passive_T


# ---------------------------------------------------------------------------
# inner_test counts the circle points it skips
# ---------------------------------------------------------------------------

def _unitary_except_near(points, width):
    """A callable that raises SingularResolvent within width of any of the
    points and returns a 2 x 2 unitary value elsewhere."""
    def sample(xi):
        if any(abs(xi - p) < width for p in points):
            raise SingularResolvent("resolvent singular")
        return np.diag([xi, 1.0]).astype(complex)
    return sample


def test_inner_test_counts_the_points_it_skips():
    # the 64-point grid sits at angles 2 pi (j + 1/2) / 64: the points within
    # 0.05 of i and -i are the two closest to each
    rep = pqsys.inner_test(_unitary_except_near([1j, -1j], 0.05), 64)
    assert rep.skipped == 4
    assert rep.inner and rep.coinner
    assert rep.max_defect < 1e-15 and rep.max_codefect < 1e-15


def test_inner_test_with_every_point_skipped_is_neither_inner_nor_coinner():
    rep = pqsys.inner_test(_unitary_except_near([0.0], 2.0), 16)
    assert rep == (False, False, 0.0, 0.0, 16)


# ---------------------------------------------------------------------------
# chebyshev_w_closed near 0, against 50 digits
# ---------------------------------------------------------------------------

def _w_mp(lam: complex) -> complex:
    """(1 - sqrt(1 - lambda^2)) / (2 lambda) with 50 digits, in the form
    lambda / (2 (1 + sqrt(1 - lambda^2))), which does not cancel."""
    with mpmath.workdps(50):
        z = mpmath.mpc(lam)
        return complex(z / (2 * (1 + mpmath.sqrt(1 - z * z))))


@pytest.mark.parametrize("lam", [1e-300, 3e-9, -2.5e-7j, 9.9e-6, 7e-6 * np.exp(0.4j), -6e-6 + 6e-6j])
def test_the_series_of_w_below_1e_5_is_exact_to_rounding(lam):
    # the closed form cancels there: 1 - sqrt(1 - lambda^2) loses all digits
    # of lambda^2 below eps; the series keeps them
    ref = _w_mp(lam)
    got = realize.chebyshev_w_closed(lam)
    assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref)


def test_the_closed_form_just_above_1e_5_matches_50_digits_to_its_cancellation():
    # relative error of the closed form ~ eps / |lambda|^2
    lam = 1.1e-5
    ref = _w_mp(lam)
    assert abs(realize.chebyshev_w_closed(lam) - ref) <= np.finfo(float).eps / lam ** 2 * abs(ref)


# ---------------------------------------------------------------------------
# jacobi_realize of a scalar source with a zero channel
# ---------------------------------------------------------------------------

def test_a_measure_with_zero_weights_realizes_as_the_empty_tridiagonal_system():
    data = pqsys.SqsFunctionData(np.array([[0.25 + 0.1j]]), ((0.3, np.zeros((1, 1))), (-0.5, np.zeros((1, 1)))))
    jr = pqsys.jacobi_realize(data)
    assert jr == pqsys.JacobiRealization(0.25 + 0.1j, (), (), False)
    assert jr.length == 0


def test_a_pqs_system_with_a_zero_input_realizes_as_the_empty_tridiagonal_system():
    t = np.array([-0.4, 0.1, 0.6])
    tau = sysmodel._diagonal_pqs(np.array([[0.5]], dtype=complex), np.zeros((3, 1), dtype=complex), t)
    assert sysmodel.classify(tau).pqs
    jr = pqsys.jacobi_realize(tau)
    assert jr == pqsys.JacobiRealization(0.5 + 0j, (), (), False)


# ---------------------------------------------------------------------------
# unitary_similarity's input guards
# ---------------------------------------------------------------------------

def _minimal_pqs(seed, s, n):
    rng = np.random.default_rng(seed)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, s), n), n, n, s)
    assert sysmodel.is_minimal(tau)
    return tau


def test_similarity_needs_shared_input_and_output_spaces():
    with pytest.raises(DimensionMismatch, match="share input and output spaces"):
        pqsys.unitary_similarity(_minimal_pqs(1, 4, 1), _minimal_pqs(2, 4, 2))


def test_similarity_names_the_system_that_is_not_minimal():
    tau = _minimal_pqs(3, 4, 1)
    T = np.zeros((6, 6), dtype=complex)
    T[:5, :5] = tau.T
    padded = pqsys.PartitionedContraction(T, 1, 1, 5)
    assert not sysmodel.is_minimal(padded)
    with pytest.raises(NotMinimal, match="first system is not minimal"):
        pqsys.unitary_similarity(padded, tau)
    with pytest.raises(NotMinimal, match="second system is not minimal"):
        pqsys.unitary_similarity(tau, padded)


def test_the_default_S_needs_equal_input_and_output_dimensions():
    rng = np.random.default_rng(4)
    tau = pqsys.PartitionedContraction(rand_passive_T(rng, 1, 2, 3), 1, 2, 3)
    assert sysmodel.is_minimal(tau)
    with pytest.raises(DimensionMismatch, match="default S needs matching input and output dimensions"):
        pqsys.unitary_similarity(tau, tau)


def test_an_explicit_S_is_read_as_a_matrix():
    # C = S B* with S = -I given as a nested list
    rng = np.random.default_rng(6)
    tau = _minimal_pqs(6, 5, 2)
    T = tau.T.copy()
    T[:2, 2:] *= -1.0
    flipped = pqsys.PartitionedContraction(T, 2, 2, 5)
    res = pqsys.unitary_similarity(flipped, flipped, S=[[-1.0, 0.0], [0.0, -1.0]])
    assert np.linalg.norm(res.U - np.eye(5)) < 1e-8
    with pytest.raises(pqsys.PqsysError, match="system 1 does not satisfy C = S B"):
        pqsys.unitary_similarity(flipped, flipped, S=rand_contraction(rng, 2, 2))


@pytest.mark.parametrize("S", [np.eye(3), np.eye(2)[:, :1], [0.5, 0.5], np.eye(1)])
def test_an_S_of_the_wrong_shape_is_a_dimension_mismatch_before_any_product(monkeypatch, S):
    # C = S B* on two channels wants a 2 x 2 S; the shape is checked before
    # the Krylov records or any product with S
    tau = _minimal_pqs(6, 5, 2)
    monkeypatch.setattr(sysmodel, "is_minimal", lambda *a, **kw: pytest.fail("is_minimal called"))
    with pytest.raises(DimensionMismatch, match=r"^S has shape \(\d+, \d+\), C = S B\* wants \(2, 2\)$"):
        pqsys.unitary_similarity(tau, tau, S=S)
