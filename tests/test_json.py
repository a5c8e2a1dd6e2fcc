"""Round trips and validation for the JSON file formats."""

import numpy as np
import pytest

import pqsys
from pqsys import _json

from helpers import rand_atoms, rand_complex, rand_passive_T


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    M = rand_complex(rng, 3, 2)
    doc = _json.matrix_to_json(M)
    assert doc["rows"] == 3 and doc["cols"] == 2
    assert len(doc["data"]) == 6
    back = _json.matrix_from_json(doc)
    assert np.array_equal(back, M)


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        _json.matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]]})
    with pytest.raises(ValueError):
        _json.matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 2, 3]]})
    with pytest.raises(ValueError):
        _json.matrix_from_json(["not", "a", "matrix"])


def test_matrix_roundtrip_through_a_file_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    M = rand_complex(rng, 300, 300) * 10.0 ** rng.integers(-300, 300, size=(300, 300))
    M[0, 0] = complex(-0.0, 0.0)
    M[0, 1] = complex(5e-324, -1.7976931348623157e308)
    path = str(tmp_path / "m.json")
    _json.dump(_json.matrix_to_json(M), path)
    back = _json.matrix_from_json(_json.load(path))
    assert back.shape == M.shape
    assert back.view(np.uint64).tobytes() == M.view(np.uint64).tobytes()
    # the transposed (non-contiguous) view is written in its own row order
    back_t = _json.matrix_from_json(_json.matrix_to_json(M.T))
    assert np.array_equal(back_t, M.T)


@pytest.mark.parametrize("data", [
    [[1.0, 2.0], [3.0]],              # ragged pair
    [[1.0, 2.0], [3.0, 4.0, 5.0]],    # 3-element pair
    [[1.0, 2.0], ["a", 4.0]],         # non-numeric entry
    [[1.0, 2.0], [None, 4.0]],        # null entry
    [[1.0], [2.0]],                   # 1-element pairs would broadcast
    [1.0, 2.0],                       # bare numbers would broadcast
    ["12", "34"],
    [[1.0, 2.0], [[3.0, 4.0], 5.0]],
])
def test_matrix_rejects_bad_entries(data):
    with pytest.raises(ValueError):
        _json.matrix_from_json({"rows": 1, "cols": 2, "data": data})


def test_empty_matrix_roundtrip():
    for shape in ((0, 3), (2, 0), (0, 0)):
        back = _json.matrix_from_json(_json.matrix_to_json(np.zeros(shape)))
        assert back.shape == shape


def test_dump_writes_compact_json(tmp_path):
    path = tmp_path / "m.json"
    _json.dump(_json.matrix_to_json(np.eye(2)), str(path))
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1


def test_system_roundtrip():
    rng = np.random.default_rng(1)
    T = rand_passive_T(rng, 2, 3, 4)
    tau = pqsys.PartitionedContraction(T, 2, 3, 4)
    back = _json.system_from_json(_json.system_to_json(tau))
    assert back.in_dim == 2 and back.out_dim == 3 and back.state_dim == 4
    assert np.array_equal(back.T, tau.T)


def test_system_rejects_inconsistent_dims():
    rng = np.random.default_rng(2)
    doc = _json.system_to_json(
        pqsys.PartitionedContraction(rand_passive_T(rng, 1, 1, 2), 1, 1, 2))
    doc["state_dim"] = 5
    with pytest.raises(pqsys.DimensionMismatch):
        _json.system_from_json(doc)


def test_measure_roundtrip():
    rng = np.random.default_rng(3)
    atoms = rand_atoms(rng, 3, 2)
    f = pqsys.SqsFunctionData(np.zeros((2, 2)), tuple(atoms))
    back = _json.measure_from_json(_json.measure_to_json(f))
    assert back.dim == 2 and len(back.atoms) == 3
    for (ta, sa), (tb, sb) in zip(f.atoms, back.atoms):
        assert ta == tb
        assert np.array_equal(sa, sb)


def test_jacobi_roundtrip():
    jr = pqsys.JacobiRealization(0.1 + 0.2j, (0.5, 0.3), (0.0, -0.1), True)
    back = _json.jacobi_from_json(_json.jacobi_to_json(jr))
    assert back.d == jr.d and back.a == jr.a and back.b == jr.b
    assert back.truncated is True


def test_sniff_document_distinguishes_formats():
    rng = np.random.default_rng(4)
    tau = pqsys.PartitionedContraction(rand_passive_T(rng, 1, 1, 2), 1, 1, 2)
    out = _json.sniff_document(_json.system_to_json(tau))
    assert isinstance(out, pqsys.PartitionedContraction)
    f = pqsys.SqsFunctionData(np.zeros((1, 1)), ((0.2, np.array([[0.1]])),))
    out = _json.sniff_document(_json.measure_to_json(f))
    assert isinstance(out, pqsys.SqsFunctionData)
    with pytest.raises(ValueError):
        _json.sniff_document({"mystery": 1})


def test_digest_tracks_content(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_text("{}")
    d1 = _json.digest_files([str(p1)])
    p1.write_text("{\"x\": 1}")
    d2 = _json.digest_files([str(p1)])
    assert d1 != d2
