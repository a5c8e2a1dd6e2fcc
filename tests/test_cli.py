"""End-to-end runs of the command-line front end."""

import dataclasses
import json

import numpy as np
import pytest

import pqsys
from pqsys import _json, errors, opcore, sysmodel
from pqsys.cli import main

from helpers import (ARCSINE_MEASURE, ARCSINE_SYSTEM, ARCSINE_TWIN, GENERAL_SYSTEM, LEGACY_SYSTEM, NEAR_PQS_SYSTEM,
                     NEAR_UNIT_SYSTEM, linalg_calls, rand_atoms, rand_contraction, rand_pqs_T, rand_unitary)

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


def test_classify_rejects_dimensions_that_are_not_integers(tmp_path, rng):
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(write_member_measure(tmp_path / "m.json", rng)))
    doc = read_json(tmp_path / "sys.json")
    doc.update(in_dim=1.9, out_dim=True)
    _json.dump(doc, str(tmp_path / "sys.json"))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == "system entry 'in_dim' must be a nonnegative integer, got 1.9"


def test_realize_rejects_a_fractional_matrix_size(tmp_path, rng):
    write_member_measure(tmp_path / "m.json", rng)
    doc = read_json(tmp_path / "m.json")
    doc["theta0"]["rows"] = 1.5
    _json.dump(doc, str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["realize", str(tmp_path / "m.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == "matrix entry 'rows' must be a nonnegative integer, got 1.5"


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


def test_eval_theta_writes_samples_as_lists(tmp_path, rng):
    # the benchmark reads each sample as value["data"][0], an [re, im] pair;
    # changing this form needs a change to the benchmark first
    f = write_member_measure(tmp_path / "m.json", rng, n=1)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(f))
    out = tmp_path / "vals.json"
    assert main(["eval", str(tmp_path / "sys.json"), "--func", "theta", "--grid", "disk:4",
                 "--out", str(out)]) == 0
    samples = read_json(out)["samples"]
    assert len(samples) == 4
    for sample in samples:
        value = sample["value"]
        assert set(value) == {"rows", "cols", "data"}
        assert (value["rows"], value["cols"]) == (1, 1)
        assert len(value["data"]) == 1 and len(value["data"][0]) == 2
        assert all(isinstance(x, float) for x in value["data"][0])


def test_classify_corrupted_payload_exits_2_with_report(tmp_path, rng):
    # a dense main operator: the file carries T in the byte form
    write_system(tmp_path / "sys.json", pqsys.PartitionedContraction(rand_pqs_T(rng, 1, 3), 1, 1, 3))
    doc = read_json(tmp_path / "sys.json")
    doc["T"]["zb64"] = doc["T"]["zb64"][:8] + "AAAA" + doc["T"]["zb64"][12:]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "bad.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert "zlib" in err["message"]


def test_classify_reads_a_legacy_list_system_file(tmp_path):
    report = tmp_path / "rep.json"
    assert main(["classify", str(LEGACY_SYSTEM), "--report", str(report)]) == 0
    # the verdicts of the list-form writer's own classify run on this file
    assert read_json(report)["info"] == {
        "passive": True, "isometric": False, "coisometric": False, "conservative": False,
        "pqs": True, "normal_main": True, "selfadjoint_main": True,
        "controllable": True, "observable": True, "simple": True, "minimal": True,
        "controllable_dim": 6, "observable_dim": 6,
        "strongly_stable": True,
    }


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


def test_realize_of_zero_channel_data_exits_0(tmp_path):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"theta0": {"rows": 0, "cols": 0, "data": []}, "atoms": []}))
    report = tmp_path / "rep.json"
    assert main(["realize", str(measure), "--out", str(tmp_path / "sys.json"), "--report", str(report)]) == 0
    rep = read_json(report)
    assert rep["info"]["state_dim"] == 0
    assert [c["name"] for c in rep["checks"]] == ["membership_mass", "membership_ball", "membership_range",
                                                   "contraction", "grid_agreement"]
    assert all(c["pass"] for c in rep["checks"])


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


def test_realize_rejects_a_non_member_at_the_clamp_edge(tmp_path):
    # the radius I - Sigma has an eigenvalue 1e-15 below the rounding floor
    # of its eigh (4.4e-15), which Theta(0) leans on: a rejection with its
    # reason, not a failed contraction check
    f = pqsys.SqsFunctionData(np.diag([0.1, 0.0]), ((0.0, np.diag([1 - 1e-15, 0.5])),))
    _json.dump(_json.measure_to_json(f), str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["realize", str(tmp_path / "m.json"), "--report", str(report)]) == 1
    rep = read_json(report)
    assert "error" not in rep
    assert any("ball range" in r for r in rep["info"]["reject_reason"])
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["membership_range"]


def _two_atoms_at_the_ball_centre(path, mass):
    # scalar atoms at -0.4 and 0.5 of total mass `mass`, theta0 the ball centre
    atoms = tuple((t, np.array([[mass / 2]])) for t in (-0.4, 0.5))
    theta0 = -sum(t * w for t, w in atoms)
    _json.dump(_json.measure_to_json(pqsys.SqsFunctionData(theta0, atoms)), str(path))


def test_realize_fails_its_contraction_check_at_the_passivity_rule_of_classify(tmp_path):
    # mass 1 + 5e-10 passes membership at psd_tol = 1e-9 but assembles a T with
    # ||T|| - 1 = 2.1e-10 > rank_tol: the contraction check fails, where a
    # bound of 10 psd_tol passed it and the reduction raised NotPqs instead
    _two_atoms_at_the_ball_centre(tmp_path / "m.json", 1 + 5e-10)
    report = tmp_path / "rep.json"
    assert main(["realize", str(tmp_path / "m.json"), "--report", str(report)]) == 1
    rep = read_json(report)
    assert rep["error"]["type"] == "PqsysError"
    assert rep["error"]["message"] == "assembled realization is not a contraction"
    checks = {c["name"]: c for c in rep["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["contraction"]
    assert checks["contraction"]["bound"] == pqsys.DEFAULT_TOL.rank_tol
    assert 2e-10 < checks["contraction"]["residual"] < 2.2e-10


def test_realize_accepts_a_mass_within_the_passivity_rule(tmp_path):
    _two_atoms_at_the_ball_centre(tmp_path / "m.json", 1 + 2e-10)
    out = tmp_path / "sys.json"
    assert main(["realize", str(tmp_path / "m.json"), "--out", str(out)]) == 0
    tau = _json.system_from_json(read_json(out))
    assert tau.state_dim == 2 and pqsys.classify(tau).pqs


def test_jacobi_fails_its_contraction_check_at_the_passivity_rule_of_classify(tmp_path):
    # the measure above: its tridiagonal T has ||T|| - 1 = 2.1e-10 > rank_tol,
    # so `classify` finds it not passive, where a bound of 10 psd_tol passed it
    _two_atoms_at_the_ball_centre(tmp_path / "m.json", 1 + 5e-10)
    report = tmp_path / "rep.json"
    assert main(["jacobi", str(tmp_path / "m.json"), "--out", str(tmp_path / "j.json"),
                 "--report", str(report)]) == 1
    checks = {c["name"]: c for c in read_json(report)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["contraction"]
    assert checks["contraction"]["bound"] == pqsys.DEFAULT_TOL.rank_tol
    assert 2e-10 < checks["contraction"]["residual"] < 2.2e-10
    jr = _json.jacobi_from_json(read_json(tmp_path / "j.json"))
    assert not pqsys.classify(jr.system()).passive


def test_jacobi_passes_its_contraction_check_on_the_arcsine_measure(tmp_path):
    # ||T|| - 1 is about -4.7e-4 at |d| -> 1/2, so the check records 0
    data, _ = pqsys.chebyshev_example(0.5, 1000)
    _json.dump(_json.measure_to_json(data), str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["jacobi", str(tmp_path / "m.json"), "--max-len", "50", "--report", str(report)]) == 0
    checks = {c["name"]: c for c in read_json(report)["checks"]}
    assert checks["contraction"]["pass"] and checks["contraction"]["residual"] == 0.0


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


def test_jacobi_rejects_a_max_len_of_zero(tmp_path):
    data, _ = pqsys.chebyshev_example(0.25, 20)
    _json.dump(_json.measure_to_json(data), str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["jacobi", str(tmp_path / "m.json"), "--max-len", "0", "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == "max_len must be at least 1, got 0"


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
    # the library's checks are reported too
    assert {"block_unitarity", "corner_match"} <= {c["name"] for c in rep["checks"]}
    assert all(c["pass"] for c in rep["checks"])
    big = _json.system_from_json(read_json(out))
    flags = pqsys.classify(big)
    assert flags.conservative


def test_dilate_a_system_whose_C_is_B_star_only_to_rounding(tmp_path):
    # the committed direct sum of two scalar arcsine systems, C moved by
    # ~1e-14: pqs by the rule, with defect bases of M and K* that differ
    out = tmp_path / "big.json"
    report = tmp_path / "rep.json"
    assert main(["dilate", str(NEAR_PQS_SYSTEM), "--out", str(out), "--report", str(report)]) == 0
    checks = {c["name"]: c for c in read_json(report)["checks"]}
    assert checks["block_unitarity"]["residual"] <= 1e-12 and checks["corner_match"]["pass"]
    assert pqsys.classify(_json.system_from_json(read_json(out))).conservative


def test_dilate_and_classify_a_system_with_an_eigenvalue_near_1(tmp_path, capsys):
    # the committed diagonal pqs system with t = 1 - 1e-11: its defect square
    # 2e-11 lies above the rounding floor, so B's component along that
    # eigenvector is carried by the defect, and A^n -> 0
    out = tmp_path / "big.json"
    report = tmp_path / "rep.json"
    assert main(["dilate", str(NEAR_UNIT_SYSTEM), "--out", str(out), "--report", str(report)]) == 0
    checks = {c["name"]: c for c in read_json(report)["checks"]}
    assert checks["block_unitarity"]["pass"] and checks["corner_match"]["pass"]
    assert pqsys.classify(_json.system_from_json(read_json(out))).conservative
    capsys.readouterr()
    assert main(["classify", str(NEAR_UNIT_SYSTEM)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "strongly_stable: True" in lines and "minimal: True" in lines


@pytest.mark.parametrize("argv", [
    ["classify", LEGACY_SYSTEM],
    ["dilate", LEGACY_SYSTEM],
    ["dilate", NEAR_PQS_SYSTEM],
    ["dilate", NEAR_UNIT_SYSTEM],
    ["eval", GENERAL_SYSTEM, "--func", "char", "--grid", "circle:8"],
    ["realize", ARCSINE_MEASURE],
    ["jacobi", ARCSINE_MEASURE],
    ["similar", ARCSINE_SYSTEM, ARCSINE_TWIN],
], ids=lambda argv: "-".join([argv[0], *(p.stem for p in argv[1:3] if hasattr(p, "stem"))]))
def test_the_committed_inputs_pass_every_subcommand(argv):
    # the commands of CI's installed-entry-point step, all six subcommands
    assert main([str(a) for a in argv]) == 0


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
    doc = read_json(out)
    assert set(doc) == {"rows", "cols", "zb64"}
    Urec = _json.matrix_from_json(doc)
    assert np.linalg.norm(Urec.conj().T @ Urec - np.eye(U.shape[0])) < 1e-8


def test_similar_with_an_S_of_the_wrong_shape_exits_2(tmp_path, rng):
    tau = pqsys.realize_from_data(write_member_measure(tmp_path / "m.json", rng, n=2))
    write_system(tmp_path / "s.json", tau)
    _json.dump(_json.matrix_to_json(np.eye(3)), str(tmp_path / "S.json"))
    report = tmp_path / "rep.json"
    code = main(["similar", str(tmp_path / "s.json"), str(tmp_path / "s.json"), "--S", str(tmp_path / "S.json"),
                 "--report", str(report)])
    assert code == 2
    err = read_json(report)["error"]
    assert err["type"] == "DimensionMismatch" and err["exit_code"] == 2


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


def test_realize_rejects_a_weight_given_as_a_string_and_a_boolean(tmp_path, rng):
    write_member_measure(tmp_path / "m.json", rng)
    doc = read_json(tmp_path / "m.json")
    re, im = doc["atoms"][1]["sigma"]["data"][0]
    doc["atoms"][1]["sigma"]["data"] = [[repr(re), False]]
    _json.dump(doc, str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["realize", str(tmp_path / "m.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == "atom 1: matrix entries must be finite numbers"


def test_classify_rejects_diagonal_locations_given_as_strings(tmp_path):
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 4)[0]))
    doc = read_json(tmp_path / "sys.json")
    doc["t"] = [repr(x) for x in doc["t"]]
    _json.dump(doc, str(tmp_path / "sys.json"))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"].startswith("each item of system entry 't' must be a number, got '")


def test_an_integer_beyond_the_float_range_exits_2(tmp_path):
    # an atom location and an item of a diagonal system's t beyond the float
    # range are input errors of realize and of classify, not tracebacks
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2 + 0.1j, 4)[0])
    doc["atoms"][2]["t"] = 10 ** 400
    _json.dump(doc, str(tmp_path / "m.json"))
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 4)[0]))
    sys_doc = read_json(tmp_path / "sys.json")
    sys_doc["t"][0] = -10 ** 400
    _json.dump(sys_doc, str(tmp_path / "sys.json"))
    for argv, message in ((["realize", str(tmp_path / "m.json")], "atom 2: entry 't' must be a finite number"),
                          (["classify", str(tmp_path / "sys.json")],
                           "each item of system entry 't' must be a finite number")):
        report = tmp_path / "rep.json"
        assert main([*argv, "--report", str(report)]) == 2
        err = read_json(report)["error"]
        assert err == {**err, "type": "ValueError", "exit_code": 2, "message": message}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_diagonal_location_exits_2_with_report(tmp_path, literal):
    # the json module parses these literals; the reader refuses them as it
    # refuses a number beyond the float range
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 4)[0]))
    doc = read_json(tmp_path / "sys.json")
    doc["t"][1] = "__t__"
    (tmp_path / "sys.json").write_text(json.dumps(doc).replace('"__t__"', literal))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 2
    assert read_json(report)["error"] == {"type": "ValueError", "exit_code": 2,
                                          "message": "each item of system entry 't' must be a finite number"}


@pytest.mark.parametrize("args, message", [
    (["--lambda", "garbage"], "cannot parse point 'garbage'; expected re,im"),
    (["--lambda", "0.1,i"], "cannot parse point '0.1,i'; expected re,im"),
    (["--grid", "disk:0"], "grid size must be positive"),
    (["--grid", "square:8"], "unknown grid kind 'square'; expected circle:N or disk:N"),
])
def test_eval_with_a_malformed_point_or_grid_exits_2_with_report(tmp_path, args, message):
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    report = tmp_path / "rep.json"
    assert main(["eval", str(tmp_path / "sys.json"), *args, "--report", str(report)]) == 2
    assert read_json(report)["error"] == {"type": "ValueError", "exit_code": 2, "message": message}


def test_a_report_that_cannot_be_written_exits_2_and_says_so(tmp_path, capsys):
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    report = tmp_path / "no_such_dir" / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--report", str(report)]) == 2
    err = capsys.readouterr().err.splitlines()
    # one message: the write that failed is not tried a second time
    assert len(err) == 1 and err[0].startswith("input error: [Errno 2] No such file or directory")
    assert not report.parent.exists()


def test_a_failed_command_tries_its_unwritten_report_once(tmp_path, capsys):
    # the command fails before it writes a report, so the report of the
    # failure is tried, and its own failure is the second message
    T = np.zeros((3, 3), dtype=complex)
    T[1:, :1] = 0.3
    T[1:, 1:] = 0.2 * np.eye(2)  # C = 0 but B != 0: passive, not pqs
    write_system(tmp_path / "sys.json", pqsys.PartitionedContraction(T, 1, 1, 2))
    report = tmp_path / "no_such_dir" / "rep.json"
    assert main(["dilate", str(tmp_path / "sys.json"), "--report", str(report)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("check failed: NotPqs")
    assert err[1].startswith("report not written: [Errno 2] No such file or directory")


def _measure_with_a_bad_atom(path, sigma_data):
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 1000)
    doc = _json.measure_to_json(data)
    doc["atoms"][500]["sigma"]["data"] = sigma_data
    _json.dump(doc, str(path))


@pytest.mark.parametrize("command", ["realize", "jacobi"])
@pytest.mark.parametrize("sigma_data, message", [
    ([[0.25, None]], "matrix entries must be finite numbers"),
    ([[0.25]], "matrix entry 0 is not an [re, im] pair"),
    ([[10 ** 400, 0.0]], "matrix entries must be finite numbers"),
])
def test_measure_with_a_bad_atom_exits_2_naming_it(tmp_path, command, sigma_data, message):
    _measure_with_a_bad_atom(tmp_path / "m.json", sigma_data)
    report = tmp_path / "rep.json"
    assert main([command, str(tmp_path / "m.json"), "--report", str(report)]) == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == f"atom 500: {message}"


def test_pipeline_takes_no_svd_of_the_system_block(tmp_path, monkeypatch):
    data, _ = pqsys.chebyshev_example(0.3 + 0.2j, 300)
    _json.dump(_json.measure_to_json(data), str(tmp_path / "m.json"))
    svds = linalg_calls(monkeypatch, "svd", (301, 301), internal=True)
    system = str(tmp_path / "sys.json")
    assert main(["realize", str(tmp_path / "m.json"), "--out", system]) == 0
    assert main(["classify", system, "--report", str(tmp_path / "rep.json")]) == 0
    assert main(["eval", system, "--func", "theta", "--grid", "disk:16"]) == 0
    assert svds == []
    info = read_json(tmp_path / "rep.json")["info"]
    assert info["passive"] and info["pqs"] and not info["isometric"] and not info["coisometric"]


def test_eval_char_circle_unitarity_is_the_defect_of_phi(tmp_path, rng):
    tau = pqsys.PartitionedContraction(rand_pqs_T(rng, 2, 30), 2, 2, 30)
    write_system(tmp_path / "sys.json", tau)
    report = tmp_path / "rep.json"
    assert main(["eval", str(tmp_path / "sys.json"), "--func", "char", "--grid", "circle:8",
                 "--report", str(report)]) == 0
    check = next(c for c in read_json(report)["checks"] if c["name"] == "circle_unitarity")
    points = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    ref = max(opcore.isometry_defect(pqsys.char_func(tau.A, z)) for z in points)
    assert check["pass"] and abs(check["residual"] - ref) < 1e-13


def test_eval_char_of_a_system_whose_main_operator_is_not_normal(tmp_path):
    # the committed general passive system takes the resolvent kernel of Phi,
    # not the Blaschke factors of a selfadjoint A
    out = tmp_path / "vals.json"
    report = tmp_path / "rep.json"
    assert main(["eval", str(GENERAL_SYSTEM), "--func", "char", "--grid", "circle:8",
                 "--out", str(out), "--report", str(report)]) == 0
    check = next(c for c in read_json(report)["checks"] if c["name"] == "circle_unitarity")
    assert check["residual"] <= 1e-12
    tau = _json.system_from_json(read_json(GENERAL_SYSTEM))
    samples = read_json(out)["samples"]
    assert len(samples) == 8
    for sample in samples:
        z = complex(*sample["point"])
        assert np.array_equal(_json.matrix_from_json(sample["value"]), pqsys.char_func(tau.A, z))


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
    build, span, eigh = sysmodel._krylov_record, opcore.krylov_span, opcore._hermitian_eigh
    monkeypatch.setattr(sysmodel, "_krylov_record", lambda *a: records.append(1) or build(*a))
    monkeypatch.setattr(opcore, "krylov_span", lambda *a: spans.append(1) or span(*a))
    monkeypatch.setattr(opcore, "_hermitian_eigh", lambda *a: eighs.append(1) or eigh(*a))
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


@pytest.mark.parametrize("func", ["theta", "char", "q"])
@pytest.mark.parametrize("point", ["inf,0", "0,-inf", "nan,0"])
def test_eval_at_a_non_finite_point_exits_2_with_report(tmp_path, func, point):
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    report = tmp_path / "rep.json"
    code = main(["eval", str(tmp_path / "sys.json"), "--func", func, f"--lambda={point}",
                 "--report", str(report)])
    assert code == 2
    err = read_json(report)["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2


def test_eval_q_at_an_extreme_finite_point(tmp_path):
    # Q(z) ~ -I/z: the scaled Schur complement neither overflows nor loses it
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    out = tmp_path / "q.json"
    with np.errstate(all="raise"):
        code = main(["eval", str(tmp_path / "sys.json"), "--func", "q", "--lambda", "1e308,1e308",
                     "--out", str(out)])
    assert code == 0
    (sample,) = read_json(out)["samples"]
    z = complex(*sample["point"])
    Q = _json.matrix_from_json(sample["value"])
    # z Q with the phase of z first: numpy's complex product overflows at |z| ~ 1e308
    assert np.linalg.norm(Q * (z / abs(z)) * abs(z) + np.eye(1)) <= 1e-8


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_2(tmp_path, value):
    write_system(tmp_path / "sys.json", pqsys.chebyshev_example(0.1, 6)[1])
    assert main(["classify", str(tmp_path / "sys.json"), "--tol", f"eq_tol={value}"]) == 2


def test_eval_char_factors_A_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(43)
    s = 40
    tau = pqsys.PartitionedContraction(rand_pqs_T(rng, 2, s), 2, 2, s)
    assert not np.array_equal(tau.A, tau.A.conj().T)   # dense, not bitwise Hermitian
    write_system(tmp_path / "sys.json", tau)
    tau = _json.system_from_json(_json.load(str(tmp_path / "sys.json")))
    eighs = linalg_calls(monkeypatch, "eigh")
    out = tmp_path / "vals.json"
    code = main(["eval", str(tmp_path / "sys.json"), "--func", "char", "--grid", "circle:16",
                 "--out", str(out)])
    assert code == 0
    assert len(eighs) == 1
    samples = read_json(out)["samples"]
    assert len(samples) == 16
    for sample in samples:
        z = complex(*sample["point"])
        got = _json.matrix_from_json(sample["value"])
        assert np.array_equal(got, pqsys.char_func(tau.A, z))


def _report_of(tmp_path, rng, outcome):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(f))
    report = tmp_path / "rep.json"
    if outcome == "ok":
        args, code = ["classify", str(tmp_path / "sys.json")], 0
    elif outcome == "check_failed":
        # Theta(0) outside the ball: the membership check fails, exit 1
        data, _ = pqsys.chebyshev_example(0.5, 40)
        bumped = pqsys.SqsFunctionData(np.array([[0.51 + 0j]]), data.atoms)
        _json.dump(_json.measure_to_json(bumped), str(tmp_path / "m2.json"))
        args, code = ["realize", str(tmp_path / "m2.json")], 1
    else:
        args, code = ["eval", str(tmp_path / "sys.json"), "--func", "q", "--lambda", "0,0"], 2
    assert main(args + ["--seed", "1234", "--report", str(report)]) == code
    return read_json(report)


@pytest.mark.parametrize("outcome", ["ok", "check_failed", "malformed"])
def test_report_records_the_seed(tmp_path, rng, outcome):
    rep = _report_of(tmp_path, rng, outcome)
    assert rep["seed"] == 1234
    assert ("error" in rep) == (outcome == "malformed")
    assert rep["version"] == pqsys.__version__
    assert rep["numpy"] == np.__version__
    assert rep["tolerances"] == dataclasses.asdict(opcore.DEFAULT_TOL)
    timings = rep["timings"]
    assert set(timings) == {"load_s", "total_s"}
    assert 0.0 < timings["load_s"] <= timings["total_s"]


def test_report_records_the_tolerance_overrides(tmp_path, rng):
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    write_system(tmp_path / "sys.json", pqsys.realize_from_data(f))
    report = tmp_path / "rep.json"
    assert main(["classify", str(tmp_path / "sys.json"), "--tol", "eq_tol=1e-8",
                 "--report", str(report)]) == 0
    assert read_json(report)["tolerances"] == dataclasses.asdict(opcore.Tolerances(eq_tol=1e-8))


def test_realize_keeps_every_reject_reason(tmp_path):
    # the ball parameter is diag(0, 3) and Theta(0) leaves the ball range by 0.5
    f = pqsys.SqsFunctionData(np.diag([0.5, 3.0]), ((0.0, np.diag([1.0, 0.0])),))
    _json.dump(_json.measure_to_json(f), str(tmp_path / "m.json"))
    report = tmp_path / "rep.json"
    assert main(["realize", str(tmp_path / "m.json"), "--report", str(report)]) == 1
    rep = read_json(report)
    reasons = rep["info"]["reject_reason"]
    assert len(reasons) == 2
    assert "ball parameter has norm 3" in reasons[0] and "ball range by 5.000e-01" in reasons[1]
    failed = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert failed == {"membership_ball", "membership_range"}
    assert "error" not in rep


def test_ledger_records_only_while_open():
    errors.check("outside", 1.0, 2.0)
    with errors.ledger() as outer:
        with errors.ledger() as inner:
            errors.check("inner", 0.5, 1.0)
        with pytest.raises(pqsys.NotInner, match="off by 2"):
            errors.check("outer", 2.0, 1.0, pqsys.NotInner, "off by 2")
    assert inner == [{"name": "inner", "pass": True, "residual": 0.5, "bound": 1.0}]
    assert outer == [{"name": "outer", "pass": False, "residual": 2.0, "bound": 1.0}]
    assert errors._LEDGER.get() is None


# The command's own check names, which every report of it keeps, and one
# library self-check of it, made to fail by a patch.
LEDGER_CASES = {
    "realize": ({"membership_mass", "membership_ball", "membership_range", "grid_agreement"},
                "grid_agreement"),
    "classify": (set(), "eigh_residual"),
    "eval_theta": ({"schur_bound"}, "eigh_residual"),
    "eval_char": ({"circle_unitarity"}, "eigh_residual"),
    "jacobi": ({"contraction"}, "tridiagonal_agreement"),
    "dilate": ({"block_unitarity", "corner_match"}, "block_unitarity"),
    "similar": ({"unitarity", "main", "input", "output"}, "transfer_agreement"),
}


def _ledger_argv(tmp_path, rng, case, mismatched=False):
    """argv of one command on small inputs; mismatched gives `similar` two
    different transfer functions."""
    f = write_member_measure(tmp_path / "m.json", rng, n=2)
    tau = pqsys.realize_from_data(f)
    write_system(tmp_path / "sys.json", tau)
    # a dense, not bitwise Hermitian A takes the checked eigh
    dense = pqsys.PartitionedContraction(rand_pqs_T(rng, 2, 6), 2, 2, 6)
    write_system(tmp_path / "dense.json", dense)
    if mismatched:
        twin = pqsys.realize_from_data(write_member_measure(tmp_path / "m2.json", rng, n=2))
    else:
        twin = pqsys.PartitionedContraction(
            oracles.conjugate_system(tau.T, 2, 2, rand_unitary(rng, tau.state_dim)), 2, 2, tau.state_dim)
    write_system(tmp_path / "twin.json", twin)
    write_member_measure(tmp_path / "scalar.json", rng, m=4, n=1)
    return {
        "realize": ["realize", str(tmp_path / "m.json")],
        "classify": ["classify", str(tmp_path / "dense.json")],
        "eval_theta": ["eval", str(tmp_path / "dense.json"), "--grid", "disk:4"],
        "eval_char": ["eval", str(tmp_path / "dense.json"), "--func", "char", "--grid", "circle:4"],
        "jacobi": ["jacobi", str(tmp_path / "scalar.json")],
        "dilate": ["dilate", str(tmp_path / "sys.json")],
        "similar": ["similar", str(tmp_path / "sys.json"), str(tmp_path / "twin.json")],
    }[case]


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("case", list(LEDGER_CASES))
def test_report_lists_every_check_with_its_bound(tmp_path, rng, monkeypatch, case):
    argv = _ledger_argv(tmp_path, rng, case)
    calls = {}
    monkeypatch.setattr(pqsys.transfer, "theta_from_data",
                        _counted(calls, "theta_from_data", pqsys.transfer.theta_from_data))
    monkeypatch.setattr(pqsys.transfer, "sqs_membership",
                        _counted(calls, "sqs_membership", pqsys.transfer.sqs_membership))
    report = tmp_path / "rep.json"
    assert main(argv + ["--report", str(report)]) == 0
    checks = read_json(report)["checks"]
    assert checks
    for c in checks:
        assert set(c) == {"name", "pass", "residual", "bound"}
        assert c["pass"] and c["residual"] <= c["bound"]
    names = {c["name"] for c in checks}
    assert LEDGER_CASES[case][0] <= names
    assert LEDGER_CASES[case][1] in names
    if case == "realize":
        # one membership test, and no samples of Theta: the agreement check
        # compares the Markov parameters of two pole forms
        assert calls == {"sqs_membership": 1}


@pytest.mark.parametrize("case", list(LEDGER_CASES))
def test_failed_library_check_is_reported(tmp_path, rng, monkeypatch, case):
    argv = _ledger_argv(tmp_path, rng, case, mismatched=True)
    name = LEDGER_CASES[case][1]
    if name == "grid_agreement":
        pole_form = pqsys.transfer.pole_form

        def moved(source, tol):  # the data's constant term moved by 1e-3
            D, t, R = pole_form(source, tol)
            return (D + 1e-3 if isinstance(source, pqsys.SqsFunctionData) else D), t, R
        monkeypatch.setattr(pqsys.transfer, "pole_form", moved)
    elif name == "eigh_residual":
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: (eigh(H)[0], eigh(H)[1] + 1e-8))
    elif name == "tridiagonal_agreement":
        lanczos = pqsys.realize._lanczos

        def moved(*args):  # the diagonal of the tridiagonal moved by 1e-3
            alphas, betas, truncated = lanczos(*args)
            return [x + 1e-3 for x in alphas], betas, truncated
        monkeypatch.setattr(pqsys.realize, "_lanczos", moved)
    elif name == "block_unitarity":
        dilation_D = pqsys.realize._dilation_D
        monkeypatch.setattr(pqsys.realize, "_dilation_D", lambda p, E, G: dilation_D(p, E, G) + 1e-3)
    report = tmp_path / "rep.json"
    assert main(argv + ["--report", str(report)]) == 1
    rep = read_json(report)
    assert rep["error"]["exit_code"] == 1
    assert [c["pass"] for c in rep["checks"] if c["name"] == name] == [False]
    assert errors._LEDGER.get() is None  # closed on the failure path too
