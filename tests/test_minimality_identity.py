"""Defect-based minimality and the pqs boundary values by exact identities.

`check_minimality_normal` counts span{A^n M}, span{A*^n K*} and their sum
by the rule of the Krylov record and decides each defect-based verdict as
ker D_A = {0} and a full span: with s orthonormal columns in the defect
basis E_A every singular value of Q* E_A is 1, so the principal-angle rule
(`oracles.defect_route_by_principal_angles`, on the parameters of
`parametrize`) counts dim Q of them.  `boundary_values` checks its closed
form against the strong limit of Theta at +-1 on every spectrum."""

import numpy as np
import pytest

import pqsys
from pqsys import errors, opcore, param, sysmodel, transfer
from pqsys.sysmodel import MinimalityReport

import oracles
from helpers import linalg_calls, pqs_from_spectrum, rand_contraction, rand_hermitian_contraction, rand_unitary

TOL = pqsys.DEFAULT_TOL


def _clustered(rng, s):
    """s eigenvalues in (-0.9, 0.9), in clusters of one to three equal values."""
    values = rng.uniform(-0.9, 0.9, s)
    return np.sort(np.repeat(values, rng.integers(1, 4, size=s))[:s])


def _padded(T, n, pad):
    """T with pad decoupled zero states appended."""
    out = np.zeros((T.shape[0] + pad,) * 2, dtype=complex)
    out[:T.shape[0], :T.shape[0]] = T
    return pqsys.PartitionedContraction(out, n, n, T.shape[0] - n + pad)


def _battery_case(seed):
    """A passive system with a normal main operator, of one of five kinds by
    seed % 5: a pqs system with a dense or diagonal selfadjoint A in clusters;
    one with an eigenvalue at +-1 (then ker D_A != {0}); one with zero states
    appended; and from independent parameters M, K, a dense selfadjoint A or
    a normal non-selfadjoint A with a repeated eigenvalue."""
    rng = np.random.default_rng(seed)
    s, n = int(rng.integers(4, 25)), int(rng.integers(1, 4))
    kind = seed % 5
    if kind in (0, 1):
        T = pqs_from_spectrum(rng, _clustered(rng, s), n, diagonal=kind == 1)
        return pqsys.PartitionedContraction(T, n, n, s)
    if kind == 2:
        t = _clustered(rng, s)
        t[0 if seed % 2 else -1] = -1.0 if seed % 2 else 1.0
        return pqsys.PartitionedContraction(pqs_from_spectrum(rng, t, n, diagonal=seed % 4 == 2), n, n, s)
    if kind == 3:
        return _padded(pqs_from_spectrum(rng, _clustered(rng, s), n), n, int(rng.integers(1, 4)))
    if seed % 2:
        U = rand_unitary(rng, s)
        z = 0.8 * np.sqrt(rng.uniform(size=s)) * np.exp(2j * np.pi * rng.uniform(size=s))
        z[: s // 2] = z[0]
        A = (U * z) @ U.conj().T
    else:
        A = rand_hermitian_contraction(rng, s)
    m, p = int(rng.integers(1, 4)), n
    params = pqsys.make_params(A, rand_contraction(rng, s, m, 0.9), rand_contraction(rng, p, s, 0.9), None)
    return pqsys.assemble(params)


def _span_bases(tau, X, Y):
    """Orthonormal bases of span{A^n X}, span{A*^n Y} and their sum, read off
    the record `sysmodel._krylov_record` keeps: its cluster parts in the
    cached eigenbasis, with their union for the sum, or its two band-Arnoldi
    bases, with the range of the two side by side."""
    rec = sysmodel._krylov_record(tau, X, Y, TOL)
    if rec.parts is None:
        return [rec.hc.basis, rec.ho.basis, opcore.range_basis(np.hstack([rec.hc.basis, rec.ho.basis]), TOL).basis]
    V, s = sysmodel.spectral_data(tau, TOL).V, tau.state_dim
    xs, ys = rec.parts
    return [sysmodel._eig_basis(V, s, parts).basis for parts in (xs, ys, sysmodel._cluster_union(xs, ys, TOL))]


def _principal_angle_report(tau):
    """The report by `parametrize` and the principal-angle rule, with the
    direct verdicts of the Krylov record."""
    p = pqsys.parametrize(tau, TOL)
    E = p.defects.E_A
    bases = _span_bases(tau, p.M_ambient, E @ p.K.conj().T)
    verdicts = oracles.defect_route_by_principal_angles(E, bases, TOL.rank_tol)
    return MinimalityReport(*verdicts, sysmodel.is_controllable(tau, TOL), sysmodel.is_observable(tau, TOL),
                            sysmodel.is_simple(tau, TOL), sysmodel.is_minimal(tau, TOL))


def test_the_report_equals_the_principal_angle_rule_on_a_passive_normal_battery():
    kinds = {"minimal": 0, "not_minimal": 0, "kernel": 0, "non_selfadjoint": 0, "diagonal": 0}
    for seed in range(120):
        tau = _battery_case(seed)
        flags = sysmodel.classify(tau, TOL)
        assert flags.passive and flags.normal_main, seed
        got = sysmodel.check_minimality_normal(tau, TOL)
        assert got == _principal_angle_report(tau), seed
        assert got.agree, seed
        kinds["minimal" if got.minimal else "not_minimal"] += 1
        kinds["kernel"] += sysmodel.main_defect_data(tau, TOL).E_A.shape[1] < tau.state_dim
        kinds["non_selfadjoint"] += not flags.selfadjoint_main
        sd = sysmodel.spectral_data(tau, TOL)
        kinds["diagonal"] += sd is not None and sd.V.ndim == 1
    # the battery reaches every kind, with both verdicts
    assert min(kinds.values()) >= 10, kinds


def test_a_non_passive_system_is_not_a_contraction_as_before():
    rng = np.random.default_rng(7)
    T = pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 6), 2) * 1.5
    with pytest.raises(pqsys.NotAContraction, match=r"^system block has norm 1\.\d{12}$") as ref:
        pqsys.parametrize(pqsys.PartitionedContraction(T, 2, 2, 6))
    with pytest.raises(pqsys.NotAContraction) as got:
        sysmodel.check_minimality_normal(pqsys.PartitionedContraction(T, 2, 2, 6))
    assert str(got.value) == str(ref.value)


def test_minimality_and_boundary_values_take_no_state_sized_factorization(monkeypatch):
    # a minimal selfadjoint s = 100 system with its factorization cached: the
    # principal-angle rule took three 100 x 100 SVDs after a parametrize, and
    # the boundary check an SVD of A and four factored Theta values
    rng = np.random.default_rng(100)
    s = 100
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, s), 2), 2, 2, s)
    sysmodel.spectral_data(tau)
    p = pqsys.parametrize(tau)
    monkeypatch.setattr(param, "parametrize", lambda *a, **kw: pytest.fail("parametrize called"))
    svds = linalg_calls(monkeypatch, "svd", shape=(s, s), internal=True)
    rep = sysmodel.check_minimality_normal(tau)
    assert rep.minimal and rep.agree
    assert svds == []
    calls = []
    for name in ("operator_norm", "theta_factored"):
        real = getattr(transfer, name)
        monkeypatch.setattr(transfer, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    with errors.ledger() as entries:
        pqsys.boundary_values(p)
    assert calls == [] and svds == []
    assert [(e["name"], e["pass"]) for e in entries] == [("boundary_plus_one", True), ("boundary_minus_one", True)]


def test_an_eigenvalue_near_one_records_both_boundary_checks():
    # ||A|| = 0.999: both checks are recorded and pass, and Theta near +-1
    # approaches the closed forms
    rng = np.random.default_rng(999)
    t = np.append(rng.uniform(-0.9, 0.9, 7), 0.999)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, t, 2), 2, 2, 8)
    p = pqsys.parametrize(tau)
    assert abs(np.linalg.norm(p.A, 2) - 0.999) < 1e-12
    with errors.ledger() as entries:
        theta1, theta_m1 = pqsys.boundary_values(p)
    assert [e["name"] for e in entries] == ["boundary_plus_one", "boundary_minus_one"]
    assert all(e["pass"] and e["residual"] <= 1e-12 and e["bound"] == 1e-4 for e in entries)
    for target, sign in ((theta1, 1.0), (theta_m1, -1.0)):
        near = pqsys.theta_eval(tau, sign * (1 - 1e-9))
        assert np.linalg.norm(near - target) < 1e-5


def test_a_boundary_check_fails_when_M_is_not_K_star(monkeypatch):
    # the pqs parameter gate passes M = K* to eq_tol; a gap beyond the
    # check's bound is recorded as its exact 2-norm and raises
    rng = np.random.default_rng(5)
    tau = pqsys.PartitionedContraction(pqs_from_spectrum(rng, rng.uniform(-0.9, 0.9, 5), 2), 2, 2, 5)
    p = pqsys.parametrize(tau)
    monkeypatch.setattr(transfer, "_require_pqs_params", lambda *a: None)
    bad = param.ContractionParams(**{**vars(p), "M": p.M + 1e-3})
    with errors.ledger() as entries, pytest.raises(pqsys.PqsysError, match="boundary value at \\+1 off by"):
        pqsys.boundary_values(bad)
    (entry,) = entries
    R = bad.K @ bad.M + bad.DKs @ bad.X_ambient @ bad.DM - (bad.K @ bad.K.conj().T + bad.DKs @ bad.X_ambient @ bad.DKs)
    assert entry["name"] == "boundary_plus_one" and not entry["pass"]
    assert entry["residual"] == pytest.approx(np.linalg.norm(R, 2), rel=1e-12)
