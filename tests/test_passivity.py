"""The passivity test: `sysmodel.block_norm_at_most` decides ||T|| <= gamma of
a system with a selfadjoint A on the arrowhead [[D, CV], [V*B, diag(t)]] of
its cached factorization (`opcore._arrow_within`), with no singular values of
T, and every verdict must equal the one read from the singular values of T."""

import numpy as np
import pytest

import pqsys
from pqsys import opcore, realize, sysmodel
from pqsys.errors import NotAContraction

from helpers import linalg_calls, pqs_from_spectrum, rand_complex, rand_pqs_T

TOL = pqsys.DEFAULT_TOL


def system(T, n, s):
    return pqsys.PartitionedContraction(np.asarray(T, dtype=complex), n, n, s)


def svd_verdicts(T, n):
    """(passive, isometric, coisometric, pqs) by the rule of the singular
    values of T: ||T|| <= 1 + rank_tol, ||I - T*T|| and ||I - TT*|| at most
    eq_tol * max(1, ||T||), and C = B* to the same bound."""
    tau = system(T, n, T.shape[0] - n)
    sv = np.linalg.svd(T, compute_uv=False)
    scale = max(1.0, sv[0])
    passive = sv[0] <= 1.0 + TOL.rank_tol
    cb = opcore.norm_at_most(tau.C - tau.B.conj().T, TOL.eq_tol * scale)
    return (passive, opcore.gram_defect(sv, T.shape[1]) <= TOL.eq_tol * scale,
            opcore.gram_defect(sv, T.shape[0]) <= TOL.eq_tol * scale,
            bool(passive and opcore.is_selfadjoint(tau.A) and cb))


def param_outcome(tau):
    """The exception class parametrize raises on tau, or None."""
    try:
        pqsys.parametrize(tau)
    except pqsys.PqsysError as exc:
        return type(exc)
    return None


def assert_matches_the_svd_route(T, n, monkeypatch):
    """classify and parametrize on T agree with the singular-value rule and
    with the library's own route through the singular values; returns
    whether the arrowhead route read the singular values of T."""
    s = T.shape[0] - n
    tau = system(T, n, s)
    f = sysmodel.classify(tau)
    outcome = param_outcome(tau)
    read = ("singular_values", None) in tau._cache
    assert (f.passive, f.isometric, f.coisometric, f.pqs) == svd_verdicts(T, n)
    # the same calls with the arrowhead route switched off
    monkeypatch.setattr(sysmodel, "_selfadjoint_model", lambda tau, tol: None)
    ref = system(T, n, s)
    assert sysmodel.classify(ref) == f
    assert param_outcome(ref) == outcome
    if not f.passive:
        assert outcome is NotAContraction
    monkeypatch.undo()
    return read


def scaled(T, target):
    return T * (target / np.linalg.norm(T, 2))


@pytest.mark.parametrize("seed", range(8))
def test_strict_pqs_systems_take_no_svd(seed, monkeypatch):
    rng = np.random.default_rng(600 + seed)
    n, s = 1 + seed % 3, 10 + 5 * seed
    T = rand_pqs_T(rng, n, s) if seed % 2 else pqs_from_spectrum(rng, rng.uniform(-0.95, 0.95, s), n)
    assert not assert_matches_the_svd_route(T, n, monkeypatch)
    assert sysmodel.classify(system(T, n, s)).pqs


@pytest.mark.parametrize("target", [1 - 1e-2, 1 + 1e-2, 1 + TOL.rank_tol - 1e-11, 1 + TOL.rank_tol + 1e-11])
@pytest.mark.parametrize("seed", range(3))
def test_near_threshold_pqs_systems(seed, target, monkeypatch):
    rng = np.random.default_rng(610 + seed)
    T = scaled(rand_pqs_T(rng, 2, 20, a_bound=0.95), target)
    want = svd_verdicts(T, 2)
    assert want[0] == (target < 1 + TOL.rank_tol)
    assert_matches_the_svd_route(T, 2, monkeypatch)


def test_conservative_dilation_is_isometric_on_the_fallback_path(monkeypatch):
    rng = np.random.default_rng(620)
    tau = system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 12), 2), 2, 12)
    big = realize.biinner_dilation(tau).system
    assert assert_matches_the_svd_route(big.T, big.in_dim, monkeypatch)
    f = sysmodel.classify(system(big.T, big.in_dim, big.state_dim))
    assert f.conservative and f.pqs


def test_conservative_system_with_more_states_than_channels(monkeypatch):
    # the dilation plus a unitary part: states at +-1 that no channel reaches,
    # so at most n eigenvalues lie inside and Courant-Fischer settles nothing
    rng = np.random.default_rng(621)
    big = realize.biinner_dilation(system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 12), 2), 2, 12)).system
    T = np.zeros((big.T.shape[0] + 6,) * 2, dtype=complex)
    T[:big.T.shape[0], :big.T.shape[0]] = big.T
    T[np.arange(-6, 0), np.arange(-6, 0)] = [1, -1, 1, -1, 1, -1]
    assert big.in_dim < big.state_dim + 6
    assert assert_matches_the_svd_route(T, big.in_dim, monkeypatch)
    assert sysmodel.classify(system(T, big.in_dim, big.state_dim + 6)).conservative


def test_a_parameter_within_the_margin_reads_the_singular_values():
    # gamma within eta plus the rounding band of the arrowhead test (about
    # 1e-13 here) of the norm leaves the verdict open
    rng = np.random.default_rng(622)
    T = rand_pqs_T(rng, 2, 10)
    nrm = np.linalg.norm(T, 2)
    for gamma in (nrm * (1 + 1e-14), nrm * (1 - 1e-14)):
        tau = system(T, 2, 10)
        assert sysmodel.block_norm_at_most(tau, gamma) == (gamma > nrm)
        assert ("singular_values", None) in tau._cache


def test_a_coupled_eigenvector_of_tiny_defect_is_decided_without_an_svd():
    # t = 1 - 1e-14 against gamma = 1: defect 1.4e-7 on an eigenvector B
    # reaches; the arrowhead test needs no margin on the defect
    T = np.diag([0.1, 0.5, 1 - 1e-14]).astype(complex)
    T[0, 2] = T[2, 0] = 1e-9
    tau = system(T, 1, 2)
    assert sysmodel.block_norm_at_most(tau, 1.0)
    assert ("singular_values", None) not in tau._cache
    T[0, 2] = T[2, 0] = 0.0
    tau = system(T, 1, 2)
    assert sysmodel.block_norm_at_most(tau, 1.0)
    assert ("singular_values", None) not in tau._cache


def test_the_skew_part_of_A_counts_against_the_threshold(monkeypatch):
    # A = [[t, e], [-e, -t]] passes the selfadjointness rule (||A - A*|| = 8e-10)
    # and its Hermitian part has norm t < 1 + rank_tol, but ||A|| ~ t + e does not
    t, e = 1.0 - 1e-10, 4e-10
    T = np.diag([0.1, t, -t]).astype(complex)
    T[1, 2], T[2, 1] = e, -e
    assert not svd_verdicts(T, 1)[0]
    assert assert_matches_the_svd_route(T, 1, monkeypatch)


def _unit_eigenvalue_system(rng, t_edge, row, rest_norm):
    """A diagonal pqs system with an eigenvalue t_edge = +-1 whose row of B is
    row times a unit vector along the channel part of the top singular vector
    of the rest, which is scaled to norm rest_norm."""
    n, s = 2, 8
    rest = scaled(pqs_from_spectrum(rng, np.linspace(-0.8, 0.8, s), n), rest_norm)
    # the rest in the eigenbasis of its A: diagonal, as A is for a realized system
    t, V = np.linalg.eigh(rest[n:, n:])
    B = V.conj().T @ rest[n:, :n]
    T = np.zeros((n + s + 1, n + s + 1), dtype=complex)
    T[:n, :n] = rest[:n, :n]
    T[n:n + s, :n] = B
    T[:n, n:n + s] = B.conj().T
    T[np.arange(n, n + s), np.arange(n, n + s)] = t
    T[-1, -1] = t_edge
    u = np.linalg.svd(rest)[2][0, :n].conj()
    T[-1, :n] = row * u / np.linalg.norm(u)
    T[:n, -1] = T[-1, :n].conj()
    return T


@pytest.mark.parametrize("t_edge", [1.0, -1.0])
def test_unit_eigenvalue_with_a_zero_row_is_passive(t_edge, monkeypatch):
    T = _unit_eigenvalue_system(np.random.default_rng(630), t_edge, 0.0, 0.9)
    assert svd_verdicts(T, 2)[0]
    # the eigenvector at +-1 has no coupling: the arrowhead decides, with no SVD
    assert not assert_matches_the_svd_route(T, 2, monkeypatch)


@pytest.mark.parametrize("t_edge", [1.0, -1.0])
def test_unit_eigenvalue_with_a_small_row_is_not_passive(t_edge, monkeypatch):
    T = _unit_eigenvalue_system(np.random.default_rng(631), t_edge, 1e-6, 1.0)
    assert not svd_verdicts(T, 2)[0]
    assert_matches_the_svd_route(T, 2, monkeypatch)


def test_selfadjoint_A_without_C_equal_B_star_takes_no_svd(monkeypatch):
    # the arrowhead takes C and B apart: C = B* is no condition of the route
    rng = np.random.default_rng(640)
    T = rand_pqs_T(rng, 2, 15)
    T[:2, 2:] += 1e-3 * rand_complex(rng, 2, 15)
    assert sysmodel.classify(system(T, 2, 15)).selfadjoint_main
    assert not assert_matches_the_svd_route(T, 2, monkeypatch)


@pytest.mark.parametrize("target", [0.9, 1.1])
def test_stateless_system(target, monkeypatch):
    T = scaled(rand_complex(np.random.default_rng(650), 3, 3), target)
    # with no eigenvalues to bound sigma_min(T) by, the isometry verdict reads
    # the singular values of T = D
    assert assert_matches_the_svd_route(T, 3, monkeypatch)
    assert sysmodel.block_norm_at_most(system(T, 3, 0), 1.0) == (target < 1)


def test_the_verdict_is_exact_at_the_threshold_of_each_caller():
    rng = np.random.default_rng(660)
    T = rand_pqs_T(rng, 2, 25)
    nrm = np.linalg.norm(T, 2)
    for gamma in (0.5 * nrm, 0.999 * nrm, 1.001 * nrm, 2.0 * nrm):
        assert sysmodel.block_norm_at_most(system(T, 2, 25), gamma) == (nrm <= gamma)


def test_scales_read_one_for_passive_systems():
    rng = np.random.default_rng(670)
    passive = system(rand_pqs_T(rng, 2, 10), 2, 10)
    loud = system(scaled(rand_pqs_T(rng, 2, 10), 1.5), 2, 10)
    assert sysmodel.norm_scale(passive) == 1.0
    assert sysmodel.norm_scale(loud) == pytest.approx(1.5, rel=1e-12)


def test_chebyshev_example_and_its_realization_take_no_svd(monkeypatch):
    svds = linalg_calls(monkeypatch, "svd", (201, 201), internal=True)
    data, tau = realize.chebyshev_example(0.3 + 0.2j, 200)
    real = pqsys.realize_from_data(data)
    assert sysmodel.classify(tau).pqs and sysmodel.classify(real).pqs
    assert not sysmodel.classify(real).isometric
    assert svds == []


def test_assemble_reads_the_factorization_of_its_parameters(monkeypatch):
    rng = np.random.default_rng(680)
    tau = system(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 30), 2), 2, 30)
    p = pqsys.parametrize(tau)
    eighs = linalg_calls(monkeypatch, "eigh")
    svds = linalg_calls(monkeypatch, "svd", (32, 32), internal=True)
    back = pqsys.assemble(p)
    assert eighs == [] and svds == []
    assert np.linalg.norm(back.T - tau.T, 2) < 1e-12
    assert sysmodel.spectral_data(back).t is p.defects.t


def test_singular_values_in_hand_decide(monkeypatch):
    tau = system(rand_pqs_T(np.random.default_rng(690), 2, 20), 2, 20)
    tau.norm()
    monkeypatch.setattr(opcore, "_arrow_within", lambda *a: pytest.fail("arrowhead route taken"))
    monkeypatch.setattr(sysmodel, "_isometry_ruled_out", lambda *a: pytest.fail("isometry bound taken"))
    f = sysmodel.classify(tau)
    assert f.passive and f.pqs and not f.isometric


# ---------------------------------------------------------------------------
# a seeded battery against the singular-value rule, and the route guards
# ---------------------------------------------------------------------------

TARGETS = (None, 0.5, 1.5, 1 - 1e-11, 1 + 1e-11, 1 + TOL.rank_tol - 1e-11, 1 + TOL.rank_tol + 1e-11)


def battery_system(rng, k):
    """System k of the battery, as (T, n): a pqs system with a dense A, in the
    eigenbasis of A (diagonal A) or its conservative dilation; by turns with
    a state at +-1 whose row is zero or 1e-6, a skew part of A or a C - B*
    inside the rules (1e-11) or outside them (1e-3), and scaled to a norm
    in 0.5..1.5 or within 1e-11 of 1 or of 1 + rank_tol (or left as built)."""
    n, s = 1 + k % 3, int(rng.integers(4, 24))
    T = pqs_from_spectrum(rng, rng.uniform(-0.97, 0.97, s), n)
    form = k % 3
    if form == 2:
        big = realize.biinner_dilation(system(T, n, s)).system
        T, n = big.T.copy(), big.in_dim
    else:
        if form == 1:
            t, V = np.linalg.eigh(T[n:, n:])
            T[n:, :] = V.conj().T @ T[n:, :]
            T[:, n:] = T[:, n:] @ V
            T[n:, n:] = np.diag(t)
        if k % 4 == 1:
            row = np.zeros((1, T.shape[1] + 1), dtype=complex)
            row[0, :n] = (1e-6 if k % 8 == 1 else 0.0) * rand_complex(rng, 1, n)
            row[0, -1] = rng.choice([-1.0, 1.0])
            T = np.block([[T, row[:, :-1].conj().T], [row]])
    kind = (k // 3) % 5
    s = T.shape[0] - n
    size = 1e-11 if kind in (1, 2) else 1e-3
    if kind in (1, 3):
        K = rand_complex(rng, s, s)
        T[n:, n:] += size * (K - K.conj().T) / np.linalg.norm(K)
    elif kind in (2, 4):
        T[:n, n:] += size * rand_complex(rng, n, s) / np.sqrt(n * s)
    target = TARGETS[(k // 15) % len(TARGETS)]
    if target == 0.5:
        target = rng.uniform(0.5, 1.5)
    return (T if target is None else scaled(T, target)), n


@pytest.mark.parametrize("chunk", range(6))
def test_battery_matches_the_singular_value_rule(chunk):
    for k in range(50 * chunk, 50 * chunk + 50):
        T, n = battery_system(np.random.default_rng(700 + k), k)
        s = T.shape[0] - n
        f = sysmodel.classify(system(T, n, s))
        assert (f.passive, f.isometric, f.coisometric, f.pqs) == svd_verdicts(T, n), k
        nrm = np.linalg.svd(T, compute_uv=False)[0]
        for gamma in (1.0, nrm * (1 - 1e-9), nrm * (1 + 1e-9)):
            assert sysmodel.block_norm_at_most(system(T, n, s), gamma) == (nrm <= gamma), (k, gamma)


def test_a_dense_pqs_system_is_decided_by_eigvalsh_alone(monkeypatch):
    rng = np.random.default_rng(710)
    T = pqs_from_spectrum(rng, rng.uniform(-0.95, 0.95, 200), 3)
    gamma = np.linalg.norm(T, 2) * (1 - 1e-6)
    tau = system(T, 3, 200)
    assert np.abs(sysmodel.spectral_data(tau).t).max() < gamma
    calls = {name: linalg_calls(monkeypatch, name, internal=True)
             for name in ("svd", "cholesky", "solve", "eigvalsh")}
    assert not sysmodel.block_norm_at_most(tau, gamma)
    f = sysmodel.classify(tau)
    assert f.passive and f.pqs and not f.isometric
    # two gammas (just below ||T|| and 1 + rank_tol), at most two eigvalsh each
    assert {name: len(c) for name, c in calls.items() if name != "eigvalsh"} == {"svd": 0, "cholesky": 0, "solve": 0}
    assert len(calls["eigvalsh"]) <= 4


def test_an_inner_chebyshev_system_takes_no_svd_of_T(monkeypatch):
    # ||T|| = 1: Courant-Fischer, not a norm bound, rules out isometry
    data, tau = realize.chebyshev_example(0.5, 400)
    svds = linalg_calls(monkeypatch, "svd", (401, 401), internal=True)
    real = pqsys.realize_from_data(data)
    for system_ in (tau, real):
        f = sysmodel.classify(system_)
        assert f.passive and f.pqs and not f.isometric and not f.coisometric
    assert svds == []
