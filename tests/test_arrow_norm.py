"""The exact 2-norm of arrowhead block matrices, `opcore._arrow_norm`: a
matrix [[D, C], [B, diag(lam)]] with a thin border takes no SVD in
`operator_norm` or `PartitionedContraction.norm()`, agrees with the singular
values, and any other matrix takes exactly the SVD it took before."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize
from pqsys.errors import PqsysError

from helpers import linalg_calls, rand_complex, rand_contraction

EPS = np.finfo(float).eps


def arrowhead(rng, p, q, s, *, complex_lam=False, coupling=1.0, near_one=0, uncoupled=()):
    """[[D, C], [B, diag(lam)]] with p border rows, q border columns and s
    states; near_one of the |lam| lie within 1e-14..1e-6 of 1 and the states
    in uncoupled have zero rows of B and columns of C."""
    lam = rng.uniform(-1, 1, s)
    if complex_lam:
        lam = lam * np.exp(2j * np.pi * rng.uniform(size=s))
    if near_one:
        k = rng.choice(s, near_one, replace=False)
        lam[k] = (1 - 10.0 ** rng.uniform(-14, -6, near_one)) * np.sign(lam[k].real + 0.5)
    M = np.zeros((p + s, q + s), dtype=complex)
    M[:p, :q] = rand_complex(rng, p, q)
    M[:p, q:] = coupling * rand_complex(rng, p, s)
    M[p:, :q] = coupling * rand_complex(rng, s, q)
    M[p:, q:][np.diag_indices(s)] = lam
    M[:p, q:][:, list(uncoupled)] = 0
    M[p:, :q][list(uncoupled)] = 0
    return M


def svd_norm(M):
    return np.linalg.svd(M, compute_uv=False)[0]


def assert_agrees(M):
    got = opcore._arrow_norm(M)
    assert got is not None
    want = svd_norm(M)
    assert abs(got - want) <= 8 * EPS * want, (got, want)
    return got


def battery():
    """Seeded arrowheads: border sizes 0..4 (p != q, p = 0, q = 0), real and
    complex lam, |lam| near 1, coupling scales 1e-10..1e4, uncoupled states."""
    rng = np.random.default_rng(2027)
    for case in range(60):
        p, q = (int(x) for x in rng.integers(0, 5, 2))
        s = int(rng.integers(64, 240))
        yield arrowhead(rng, p, q, s, complex_lam=bool(case % 2), coupling=10.0 ** rng.uniform(-10, 4),
                        near_one=int(rng.integers(0, 6)), uncoupled=rng.choice(s, int(rng.integers(0, 20))))


def test_kernel_agrees_with_the_singular_values():
    for M in battery():
        assert_agrees(M)


@pytest.mark.parametrize("p, q", [(3, 1), (1, 3), (0, 2), (2, 0), (0, 0)])
def test_kernel_on_rectangular_and_one_sided_borders(p, q):
    rng = np.random.default_rng(p * 10 + q)
    for complex_lam in (False, True):
        assert_agrees(arrowhead(rng, p, q, 120, complex_lam=complex_lam))


def test_a_diagonal_matrix_has_its_largest_modulus_as_norm():
    rng = np.random.default_rng(3)
    lam = rng.uniform(-1, 1, 100) * np.exp(1j * rng.uniform(size=100))
    M = np.diag(lam)
    assert opcore._arrow_norm(M) == np.abs(lam).max()
    # a zero border around it changes nothing
    padded = np.zeros((102, 101), dtype=complex)
    padded[2:, 1:] = M
    assert opcore._arrow_norm(padded) == np.abs(lam).max()
    assert opcore._arrow_norm(np.zeros((80, 76))) == 0.0


def test_an_uncoupled_largest_eigenvalue_is_the_norm_exactly():
    rng = np.random.default_rng(4)
    M = arrowhead(rng, 2, 2, 150, coupling=0.01)
    M[2:, 2:][np.diag_indices(150)] *= 0.5
    M[2 + 7, 2 + 7] = 0.9    # the largest |lam|, with no coupling
    M[:2, 2 + 7] = 0
    M[2 + 7, :2] = 0
    M[:2, :2] *= 0.1
    assert svd_norm(M) == pytest.approx(0.9, rel=1e-14)
    assert opcore._arrow_norm(M) == 0.9


def test_lam_within_1e_14_of_the_norm():
    rng = np.random.default_rng(5)
    for complex_lam in (False, True):
        M = arrowhead(rng, 1, 1, 200, complex_lam=complex_lam, coupling=1e-9)
        M[1, 1] = 1 - 1e-14
        M[0, 1] = M[1, 0] = 1e-7   # moves the norm by about 1e-14
        M[0, 0] = 0.1
        assert assert_agrees(M) > M[1, 1].real


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extreme_entries_neither_overflow_nor_underflow(scale):
    rng = np.random.default_rng(6)
    M = arrowhead(rng, 2, 1, 100, complex_lam=True)
    want = opcore._arrow_norm(M)
    got = opcore._arrow_norm(M * scale)
    assert np.isfinite(got) and abs(got - want * scale) <= 8 * EPS * want * scale
    assert_agrees(M * scale)


def test_other_matrices_go_to_the_svd():
    rng = np.random.default_rng(7)
    assert opcore._arrow_norm(rand_complex(rng, 100, 100)) is None
    # a border above s / 8: 13 > 100 / 8; 12 = 96 / 8 is at the rule
    assert opcore._arrow_norm(arrowhead(rng, 13, 13, 100)) is None
    assert opcore._arrow_norm(arrowhead(rng, 11, 12, 96)) is not None
    # below the size gate
    assert opcore._arrow_norm(arrowhead(rng, 1, 1, 62)) is None
    assert opcore._arrow_norm(arrowhead(rng, 1, 1, 63)) is not None
    # an off-diagonal entry deep in the state block moves the border to it
    M = arrowhead(rng, 1, 1, 100)
    M[60, 70] = 0.1
    assert opcore._arrow_norm(M) is None
    # an entry beside the last diagonal one fails the probe
    M = arrowhead(rng, 1, 1, 100)
    M[-1, -2] = 1e-300
    assert opcore._arrow_norm(M) is None


def test_the_border_is_the_least_one_with_a_diagonal_tail():
    rng = np.random.default_rng(8)
    M = arrowhead(rng, 2, 3, 100)
    M[:2, 3 + 99] = 0    # the last state is uncoupled
    M[2 + 99, :3] = 0
    assert opcore._diagonal_tail_start(M[2:, 3:]) == 0
    M[2 + 5, 3 + 9] = 0.5    # couples states 5 and 9: states 0..5 join the border
    assert opcore._diagonal_tail_start(M[2:, 3:]) == 6
    assert_agrees(M)


def test_non_finite_input_still_raises():
    M = arrowhead(np.random.default_rng(9), 1, 1, 100)
    M[0, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        opcore.operator_norm(M)


def test_operator_norm_keeps_nothing_across_calls(monkeypatch):
    M = arrowhead(np.random.default_rng(10), 1, 1, 100)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    first = opcore.operator_norm(M)
    M[0, 0] += 5.0   # changed in place: the next call sees the new entries
    assert opcore.operator_norm(M) > first + 1
    assert svds == []


# ---------------------------------------------------------------------------
# routes through operator_norm and PartitionedContraction.norm()
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference_400():
    data, _ = realize.chebyshev_example(0.3 + 0.2j, 400)
    tau = pqsys.realize_from_data(data)
    return tau, svd_norm(tau.T)


@pytest.fixture(scope="module")
def realized_1000():
    data, _ = realize.chebyshev_example(0.3 + 0.2j, 1000)
    return pqsys.realize_from_data(data)


def _no_svd(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no SVD expected")
    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(getattr(np.linalg, "_linalg", None) or np.linalg.linalg, "svd", fail)


def test_a_realized_system_takes_no_svd_for_its_norm(monkeypatch, reference_400, realized_1000):
    tau, want = reference_400
    _no_svd(monkeypatch)
    assert (tau.state_dim, realized_1000.state_dim) == (400, 1000)
    for system in (tau, realized_1000):
        nrm = opcore.operator_norm(system.T)
        assert system.norm() == nrm
        assert ("singular_values", None) not in system._cache
    assert abs(opcore.operator_norm(tau.T) - want) <= 8 * EPS * want
    assert 1 - 2e-6 < opcore.operator_norm(realized_1000.T) < 1


def test_cached_singular_values_still_give_the_norm(reference_400):
    tau, want = reference_400
    fresh = pqsys.PartitionedContraction(tau.T, tau.in_dim, tau.out_dim, tau.state_dim)
    s = fresh.singular_values()
    assert fresh.norm() == s[0] == want


def test_a_dense_T_takes_exactly_one_svd(monkeypatch):
    T = rand_contraction(np.random.default_rng(11), 200, 200, 0.9)
    svds = linalg_calls(monkeypatch, "svd", internal=True)
    assert opcore.operator_norm(T) == pytest.approx(0.9, rel=1e-13)
    assert len(svds) == 1
    tau = pqsys.PartitionedContraction(T, 10, 10, 190)
    assert tau.norm() == pytest.approx(0.9, rel=1e-13)
    assert tau.singular_values()[0] == tau.norm()
    assert len(svds) == 2


# ---------------------------------------------------------------------------
# satellites on the same path: defect_data of a diagonal A, the Jacobi check
# ---------------------------------------------------------------------------

def test_defect_data_of_a_real_diagonal_A_takes_no_digest(monkeypatch):
    A = np.diag(np.random.default_rng(12).uniform(-0.9, 0.9, 120)).astype(complex)
    want = opcore.defect_data(A.copy())

    def fail(M):
        raise AssertionError("no digest expected")
    monkeypatch.setattr(opcore, "_content_digest", fail)
    got = opcore.defect_data(A)
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)
    assert all(arr is None or not arr.flags.writeable for arr in got)


def test_jacobi_realize_takes_no_eigh(monkeypatch):
    data, _ = realize.chebyshev_example(0.2 + 0.1j, 300)
    eighs = linalg_calls(monkeypatch, "eigh")
    for max_len in (20, None):
        realize.jacobi_realize(data, max_len=max_len)
    assert eighs == []


def _old_route_index(jr, data, count):
    """The coefficient index the eigendecomposition route reported: the pole
    form of the tridiagonal system against the measure's."""
    measure = (np.array([[jr.d]]), *pqsys.transfer.pole_form(data)[1:])
    bound = 10 * pqsys.DEFAULT_TOL.eq_tol * max(1.0, abs(jr.d))
    return pqsys.transfer.markov_gap(pqsys.transfer.pole_form(jr.system()), measure, bound, count)[1]


@pytest.mark.parametrize("k, size", [(3, 1e-3), (7, 1e-2)])
def test_a_coefficient_error_raises_at_the_same_index(monkeypatch, k, size):
    data, _ = realize.chebyshev_example(0.25, 200)
    lanczos = realize._lanczos
    moved = {}

    def perturbed(*args):
        alphas, betas, truncated = lanczos(*args)
        alphas = list(alphas)
        alphas[k] += size
        moved.update(alphas=alphas, betas=betas, truncated=truncated)
        return alphas, betas, truncated

    monkeypatch.setattr(realize, "_lanczos", perturbed)
    with pytest.raises(PqsysError, match="tridiagonal transfer deviates") as err:
        realize.jacobi_realize(data, max_len=20)
    a0 = float(np.linalg.norm(np.sqrt((1 - data.locations ** 2) * data.weights[:, 0, 0].real)))
    jr = realize.JacobiRealization(complex(data.theta0[0, 0]), (a0, *moved["betas"]), moved["alphas"],
                                   moved["truncated"])
    want = _old_route_index(jr, data, 2 * jr.length)
    assert str(err.value).endswith(f"coefficient of lambda^{want}")
