"""Transfer-function evaluation of a system whose main operator has no
Hermitian factorization: one eigendecomposition A = V diag(mu) V^-1, built at
the system's first point and cached, whose points pass a backward-error gate
or fall back to LU."""

import numpy as np
import pytest

import pqsys
from pqsys import _json, transfer
from pqsys.cli import main
from pqsys.errors import SingularResolvent

from helpers import linalg_calls, rand_complex


def lu_theta(tau, lam):
    """Theta(lambda) by the dense solve of `_resolve`, as every point of a
    non-selfadjoint A was evaluated before the eigendecomposition route."""
    X = transfer._resolve(np.eye(tau.state_dim) - lam * tau.A, tau.B)
    return tau.D + lam * (tau.C @ X)


def system(rng, A, n=4):
    """A system with main operator A and random channel blocks of norm < 1."""
    s = A.shape[0]
    T = np.zeros((n + s, n + s), dtype=complex)
    T[n:, n:] = A
    T[:n] = 0.3 * rand_complex(rng, n, n + s) / np.sqrt(s)
    T[n:, :n] = 0.3 * rand_complex(rng, s, n) / np.sqrt(s)
    return pqsys.PartitionedContraction(T, n, n, s)


def random_non_normal(rng, s, norm=0.95):
    A = rand_complex(rng, s, s)
    return A * (norm / np.linalg.norm(A, 2))


def grid(rng, disk=128, circle=64):
    """Points inside the disk (radius up to 0.9) and on the unit circle."""
    inner = 0.9 * np.sqrt(rng.random(disk)) * np.exp(2j * np.pi * rng.random(disk))
    return [complex(z) for z in inner] + [complex(z) for z in np.exp(2j * np.pi * (np.arange(circle) + 0.5) / circle)]


def rel_gap(a, b):
    return np.linalg.norm(a - b, 2) / np.linalg.norm(b, 2)


def near_defective(rng, s):
    """A = Q M Q* for a unitary Q and a diagonal M whose leading 3x3 block is
    perturbed to a Jordan block of 0.3 with a corner entry 1e-18: three nearly
    coinciding eigenvalues, beside well separated ones."""
    M = np.diag(0.8 * rng.random(s) * np.exp(2j * np.pi * rng.random(s)))
    M[:3, :3] = 0.3 * np.eye(3) + 0.5 * np.eye(3, k=1)
    M[2, 0] = 1e-18
    Q = np.linalg.qr(rand_complex(rng, s, s))[0]
    return Q @ M @ Q.conj().T


def test_eig_route_matches_lu_on_a_random_non_normal_system(monkeypatch):
    rng = np.random.default_rng(7)
    tau = system(rng, random_non_normal(rng, 200))
    points = grid(rng)
    solves = linalg_calls(monkeypatch, "solve", (200, 200))
    eigs = linalg_calls(monkeypatch, "eig")
    vals = [pqsys.theta_eval(tau, z) for z in points]
    # one eig and the solve of V, and no LU solve at any point
    assert (len(solves), len(eigs)) == (1, 1)
    for z, v in zip(points, vals):
        assert rel_gap(v, lu_theta(tau, z)) <= 1e-12


def test_a_jordan_block_falls_back_to_lu(monkeypatch):
    rng = np.random.default_rng(8)
    s = 30
    tau = system(rng, 0.5 * np.eye(s) + 0.3 * np.eye(s, k=1), n=2)
    points = grid(rng, 64, 32)
    solves = linalg_calls(monkeypatch, "solve", (s, s))
    vals = [pqsys.theta_eval(tau, z) for z in points]
    assert len(solves) >= len(points)   # every point took LU
    for z, v in zip(points, vals):
        assert rel_gap(v, lu_theta(tau, z)) <= 1e-12


def test_a_near_defective_A_falls_back_to_lu_point_by_point(monkeypatch):
    rng = np.random.default_rng(9)
    s = 40
    tau = system(rng, near_defective(rng, s), n=2)
    assert np.linalg.cond(np.linalg.eig(tau.A)[1]) > 1e8
    points = grid(rng, 64, 32)
    solves = linalg_calls(monkeypatch, "solve", (s, s))
    eigs = linalg_calls(monkeypatch, "eig")
    vals = [pqsys.theta_eval(tau, z) for z in points]
    assert len(solves) == len(points) + 1   # the build's solve of V
    assert len(eigs) == 1
    # the build passes and the record stays; the gate sends every point to LU
    rec = tau._cache["eig", None]
    assert rec is not None
    for z, v in zip(points, vals):
        assert transfer._gated_theta(tau, rec, z) is None
        assert rel_gap(v, lu_theta(tau, z)) <= 1e-12


def test_a_refused_eig_record_leaves_every_point_to_lu(monkeypatch):
    # a build whose ||AV - V diag mu|| misses the rounding floor keeps no record
    rng = np.random.default_rng(11)
    tau = system(rng, random_non_normal(rng, 20), n=2)
    monkeypatch.setattr(transfer.opcore, "_eig_miss", lambda *a: np.inf)
    for z in grid(rng, 16, 8):
        assert np.array_equal(pqsys.theta_eval(tau, z), lu_theta(tau, z))
    assert tau._cache["eig", None] is None


def test_a_pole_still_raises_singular_resolvent():
    rng = np.random.default_rng(10)
    tau = system(rng, random_non_normal(rng, 60))
    mu = np.linalg.eigvals(tau.A)
    poles = [complex(1.0 / m) for m in mu[:3]]
    for z in poles:   # the gate refuses a pole, and LU raises
        with pytest.raises(SingularResolvent):
            lu_theta(tau, z)
        with pytest.raises(SingularResolvent):
            pqsys.theta_eval(tau, z)
    assert tau._cache["eig", None] is not None   # built at the first pole


def test_inner_test_report_is_unchanged_on_the_eig_route():
    rng = np.random.default_rng(11)
    tau = system(rng, random_non_normal(rng, 120))
    ref = pqsys.inner_test(lambda z: lu_theta(tau, z), 64)
    got = pqsys.inner_test(tau, 64)
    assert tau._cache["eig", None] is not None
    assert (got.inner, got.coinner, got.skipped) == (ref.inner, ref.coinner, ref.skipped)
    assert abs(got.max_defect - ref.max_defect) <= 1e-12
    assert abs(got.max_codefect - ref.max_codefect) <= 1e-12


def test_the_first_point_builds_the_eig_record_and_no_point_takes_lu(monkeypatch):
    rng = np.random.default_rng(12)
    s = 80
    tau = system(rng, random_non_normal(rng, s))
    points = grid(rng)
    assert len(points) == 192
    solves = linalg_calls(monkeypatch, "solve", (s, s))
    eigs = linalg_calls(monkeypatch, "eig")
    pqsys.theta_eval(tau, points[0])
    assert (len(solves), len(eigs)) == (1, 1)   # the build's solve of V
    for z in points[1:]:
        pqsys.theta_eval(tau, z)
    assert (len(solves), len(eigs)) == (1, 1)


def test_cli_eval_at_one_point_takes_one_eig_and_no_lu(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    s = 50
    tau = system(rng, random_non_normal(rng, s))
    path = tmp_path / "sys.json"
    _json.dump(_json.system_to_json(tau), str(path))
    eigs = linalg_calls(monkeypatch, "eig")
    solves = linalg_calls(monkeypatch, "solve", (s, s))
    monkeypatch.setattr(transfer, "_resolve", lambda *a: pytest.fail("LU solve"))
    assert main(["eval", str(path), "--func", "theta", "--lambda", "0.3,0.2"]) == 0
    assert len(eigs) == 1
    assert len(solves) == 1   # the build's solve of V


def test_one_eig_record_serves_every_tolerance_set(monkeypatch):
    rng = np.random.default_rng(15)
    s = 60
    tau = system(rng, random_non_normal(rng, s))
    points = grid(rng, 48, 8)
    eigs = linalg_calls(monkeypatch, "eig")
    loose = pqsys.Tolerances(eq_tol=1e-8)
    for k, z in enumerate(points):
        pqsys.theta_eval(tau, z, loose if k % 2 else pqsys.DEFAULT_TOL)
    assert len(eigs) == 1
    assert tau._cache["eig", None] is not None   # its gate accepts the points
    for z in points:
        assert rel_gap(pqsys.theta_eval(tau, z, loose), lu_theta(tau, z)) <= 1e-12
