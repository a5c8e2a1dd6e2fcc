"""End-to-end runs of the command-line front end."""

import json

import numpy as np
import pytest

import pqsys
from pqsys import _json, opcore, sysmodel
from pqsys.cli import main

from helpers import rand_atoms, rand_contraction, rand_unitary

import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def write_member_measure(path, rng, m=3, n=1):
    atoms = rand_atoms(rng, m, n)
    center = -sum(t * s for t, s in atoms)
    total = sum(s for _, s in atoms)
    Rh = pqsys.psd_sqrt(np.eye(n) - total)
    X = rand_contraction(rng, n, n, smax=0.9)
    theta0 = center + Rh @ X @ Rh
    if n == 1 and complex(theta0[0, 0]).imag < 0:
        theta0 = theta0.conj()
    f = pqsys.SqsFunctionData(theta0, tuple(atoms))
    _json.dump(_json.measure_to_json(f), str(path))
    return f


def write_system(path, tau):
    _json.dump(_json.system_to_json(tau), str(path))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_classify_reports_flags(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    report = tmp_path / "rep.json"
    code = main(["classify", str(tmp_path / "sys.json"), "--report", str(report)])
    assert code == 0
    doc = read_json(report)
    assert doc["command"] == "classify"
    assert doc["info"]["passive"] is True
    assert doc["info"]["pqs"] is True
    assert doc["info"]["minimal"] is True
    assert doc["inputs_digest"]


def test_classify_bad_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2


def test_classify_missing_file_exits_2(tmp_path):
    assert main(["classify", str(tmp_path / "nope.json")]) == 2


def test_classify_wrong_schema_exits_2(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"hello": "world"}))
    assert main(["classify", str(doc)]) == 2


def test_eval_theta_samples_and_schur_check(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    out = tmp_path / "vals.json"
    report = tmp_path / "rep.json"
    code = main([
        "eval", str(tmp_path / "sys.json"), "--func", "theta",
        "--lambda", "0.3,0.1", "--grid", "disk:6",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["func"] == "theta"
    assert len(doc["samples"]) == 7
    val = _json.matrix_from_json(doc["samples"][0]["value"])
    assert np.linalg.norm(val - pqsys.theta_eval(tau, 0.3 + 0.1j)) < 1e-12
    rep = read_json(report)
    names = [c["name"] for c in rep["checks"]]
    assert "schur_bound" in names
    assert all(c["pass"] for c in rep["checks"])


def test_eval_deterministic_given_seed(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=1)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["eval", str(tmp_path / "sys.json"), "--grid", "disk:8",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(read_json(out))
    assert outs[0] == outs[1]


def test_eval_char_on_circle(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    report = tmp_path / "rep.json"
    code = main(["eval", str(tmp_path / "sys.json"), "--func", "char",
                 "--grid", "circle:8", "--report", str(report)])
    assert code == 0
    rep = read_json(report)
    assert any(c["name"] == "circle_unitarity" and c["pass"] for c in rep["checks"])


def test_eval_without_points_exits_2(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=1)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    assert main(["eval", str(tmp_path / "sys.json")]) == 2


def test_unknown_tolerance_exits_2(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=1)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    assert main(["classify", str(tmp_path / "sys.json"), "--tol", "bogus=1"]) == 2


def test_realize_then_classify_roundtrip(tmp_path, rng):
    write_member_measure(tmp_path / "m.json", rng, n=2)
    out = tmp_path / "sys.json"
    report = tmp_path / "rep.json"
    code = main(["realize", str(tmp_path / "m.json"), "--out", str(out),
                 "--report", str(report)])
    assert code == 0
    rep = read_json(report)
    assert all(c["pass"] for c in rep["checks"])
    assert str(out) in rep["outputs"]

    rep2 = tmp_path / "rep2.json"
    assert main(["classify", str(out), "--report", str(rep2)]) == 0
    doc = read_json(rep2)
    assert doc["info"]["pqs"] is True
    assert doc["info"]["minimal"] is True


def test_realize_rejects_non_member(tmp_path):
    data, _ = pqsys.chebyshev_example(0.5, 40)
    bumped = pqsys.SqsFunctionData(np.array([[0.51 + 0j]]), data.atoms)
    _json.dump(_json.measure_to_json(bumped), str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    code = main(["realize", str(tmp_path / "m.json"), "--report", str(report)])
    assert code == 1
    rep = read_json(report)
    assert any(not c["pass"] for c in rep["checks"])
    assert "reject_reason" in rep.get("info", {})


def test_jacobi_from_measure_file(tmp_path):
    data, _ = pqsys.chebyshev_example(0.25, 80)
    _json.dump(_json.measure_to_json(data), str(tmp_path / "m.json"))
    out = tmp_path / "j.json"
    code = main(["jacobi", str(tmp_path / "m.json"), "--max-len", "20",
                 "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    jr = _json.jacobi_from_json(doc)
    assert jr.truncated
    assert abs(jr.a[0] - 0.5) < 1e-9
    assert all(abs(b) < 1e-6 for b in jr.b)


def test_jacobi_accepts_system_file(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, m=4, n=1)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    code = main(["jacobi", str(tmp_path / "sys.json"), "--out", str(tmp_path / "j.json")])
    assert code == 0


def test_jacobi_rejects_matrix_measure(tmp_path, rng):
    write_member_measure(tmp_path / "m.json", rng, n=2)
    assert main(["jacobi", str(tmp_path / "m.json")]) == 2


def test_dilate_writes_conservative_system(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    out = tmp_path / "big.json"
    report = tmp_path / "rep.json"
    code = main(["dilate", str(tmp_path / "sys.json"), "--out", str(out),
                 "--report", str(report)])
    assert code == 0
    rep = read_json(report)
    assert {c["name"] for c in rep["checks"]} == {"block_unitarity", "grid_unitarity", "corner_match"}
    assert all(c["pass"] for c in rep["checks"])
    big = _json.system_from_json(read_json(out))
    flags = pqsys.classify(big)
    assert flags.conservative


def test_similar_accepts_conjugated_pair(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau1 = pqsys.realize_from_data(f)
    U = rand_unitary(rng, tau1.state_dim)
    T2 = oracles.conjugate_system(tau1.T, 2, 2, U)
    tau2 = pqsys.PartitionedContraction(T2, 2, 2, tau1.state_dim)
    write_system(tmp_path / "s1.json", tau1)
    write_system(tmp_path / "s2.json", tau2)
    out = tmp_path / "u.json"
    code = main(["similar", str(tmp_path / "s1.json"), str(tmp_path / "s2.json"),
                 "--out", str(out)])
    assert code == 0
    Urec = _json.matrix_from_json(read_json(out))
    assert np.linalg.norm(Urec.conj().T @ Urec - np.eye(U.shape[0])) < 1e-8


def test_similar_mismatch_exits_1(tmp_path, rng):
    f1 = write_member_measure(tmp_path / "m1.json", rng, n=2)
    f2 = write_member_measure(tmp_path / "m2.json", rng, n=2)
    write_system(tmp_path / "s1.json", pqsys.realize_from_data(f1))
    write_system(tmp_path / "s2.json", pqsys.realize_from_data(f2))
    assert main(["similar", str(tmp_path / "s1.json"), str(tmp_path / "s2.json")]) == 1


def test_realize_invalid_measure_exits_2_and_writes_report(tmp_path):
    # an atom at t = 1.5 lies outside (-1, 1): malformed input, not a failed check
    doc = _json.measure_to_json(pqsys.SqsFunctionData(np.array([[0.1]]), ((0.2, np.array([[0.1]])),)))
    doc["atoms"][0]["t"] = 1.5
    _json.dump(doc, str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    code = main(["realize", str(tmp_path / "m.json"), "--report", str(report)])
    assert code == 2
    rep = read_json(report)
    assert rep["command"] == "realize"
    assert rep["error"]["type"] == "InvalidMeasure"
    assert "outside" in rep["error"]["message"]
    assert rep["error"]["exit_code"] == 2


def test_numerical_failure_exits_1_and_writes_report(tmp_path, rng, monkeypatch):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(f))

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pqsys.cli.sysmodel, "classify", no_convergence)
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 1
    rep = read_json(report)
    assert rep["error"] == {"type": "LinAlgError", "message": "SVD did not converge", "exit_code": 1}


def test_failure_before_the_report_exists_writes_none(tmp_path):
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "missing.json"), "--report", str(report)]) == 2
    assert not report.exists()


def test_classify_realized_arcsine_system_is_minimal(tmp_path):
    data, _ = pqsys.chebyshev_example(0.3 + 0.2j, 200)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(data))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 0
    info = read_json(report)["info"]
    assert info["minimal"] is True and info["simple"] is True
    assert info["controllable_dim"] == info["observable_dim"] == 200


@pytest.mark.parametrize("kind", ["pqs", "non_normal"])
def test_classify_builds_the_krylov_data_once(tmp_path, rng, monkeypatch, kind):
    if kind == "pqs":
        tau = pqsys.realize_from_data(write_member_measure(tmp_path / "m.json", rng, n=2))
    else:
        tau = pqsys.PartitionedContraction(rand_contraction(rng, 7, 7, 0.9), 2, 2, 5)
    write_system(tmp_path / "sys.json", tau)
    records, spans, eighs = [], [], []
    build, span, eigh = sysmodel._krylov_record, opcore.krylov_span, opcore.hermitian_eigh
    monkeypatch.setattr(sysmodel, "_krylov_record", lambda *a: records.append(1) or build(*a))
    monkeypatch.setattr(opcore, "krylov_span", lambda *a: spans.append(1) or span(*a))
    monkeypatch.setattr(opcore, "hermitian_eigh", lambda *a: eighs.append(1) or eigh(*a))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 0
    assert len(records) == 1
    # selfadjoint A: cluster ranks of the one cached factorization, no
    # subspace basis; otherwise one Arnoldi run per span
    assert len(spans) == (0 if kind == "pqs" else 2)
    assert len(eighs) == 1
    info = read_json(report)["info"]
    assert info["controllable_dim"] == info["observable_dim"] == tau.state_dim


def test_eval_q_at_zero_exits_2_with_report(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(f))
    report = tmp_path / "rep.json"
    code = main(["eval", str(tmp_path / "sys.json"), "--func", "q", "--lambda", "0,0",
                 "--report", str(report)])
    assert code == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert "exterior image" in err["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_2(tmp_path, value):
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    assert main(["classify", str(tmp_path / "sys.json"), "--tol", f"eq_tol={value}"]) == 2
