"""Round trips and validation for the JSON file formats."""

import base64
import tracemalloc
import zlib

import numpy as np
import pytest

import pqsys
from pqsys import _json

from helpers import LEGACY_SYSTEM, rand_atoms, rand_complex, rand_passive_T


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


def _zb64_doc(rows, cols, raw: bytes, level=1) -> dict:
    return {"rows": rows, "cols": cols, "zb64": base64.b64encode(zlib.compress(raw, level)).decode()}


def test_zb64_roundtrip_through_a_file_is_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    M = rand_complex(rng, 40, 30) * 10.0 ** rng.integers(-300, 300, size=(40, 30))
    M[0, 0] = complex(-0.0, -0.0)
    M[0, 1] = complex(5e-324, -5e-324)
    M[0, 2] = complex(1.7976931348623157e308, -1.7976931348623157e308)  # +-1.8e308
    for src in (M, M.T, np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((0, 0))):
        path = str(tmp_path / "m.json")
        _json.dump(_json.matrix_to_zb64(src), path)
        doc = _json.load(path)
        assert set(doc) == {"rows", "cols", "zb64"}
        back = _json.matrix_from_json(doc)
        assert back.shape == src.shape and back.dtype == complex
        # the transposed (non-contiguous) view is written in its own row order
        assert back.tobytes() == np.ascontiguousarray(src, dtype=complex).tobytes()


def test_zb64_payload_is_little_endian_complex128_at_level_1():
    M = np.array([[1 + 2j, -0.5j]])
    doc = _json.matrix_to_zb64(M)
    raw = M.astype("<c16").tobytes()
    assert doc == _zb64_doc(1, 2, raw)
    assert zlib.decompress(base64.b64decode(doc["zb64"])) == raw


_ONE = np.array([1.0 + 2.0j]).astype("<c16").tobytes()
_GOOD = base64.b64decode(_zb64_doc(1, 1, _ONE)["zb64"])


@pytest.mark.parametrize("doc", [
    {"rows": 1, "cols": 1, "zb64": "not base64!"},                                 # bad base64
    {"rows": 1, "cols": 1, "zb64": base64.b64encode(_GOOD[:-5]).decode()},        # truncated stream
    {"rows": 1, "cols": 1, "zb64": base64.b64encode(b"\x78\x01" + b"\xff" * 12).decode()},  # corrupted
    _zb64_doc(1, 1, _ONE[:8]),                                                      # too few bytes
    _zb64_doc(1, 1, _ONE + b"\x00"),                                                # too many bytes
    {"rows": 1, "cols": 1, "zb64": base64.b64encode(_GOOD + b"junk").decode()},    # data after the stream
    _zb64_doc(1, 1, np.array([complex(np.nan, 0.0)]).astype("<c16").tobytes()),     # NaN entry
    _zb64_doc(1, 1, np.array([complex(0.0, -np.inf)]).astype("<c16").tobytes()),    # inf entry
    {"rows": -1, "cols": -1, "zb64": _zb64_doc(1, 1, _ONE)["zb64"]},                 # negative dims
    {"rows": 2 ** 40, "cols": 2 ** 40, "zb64": _zb64_doc(1, 1, _ONE)["zb64"]},       # size past ssize_t
    {"rows": 1, "cols": 1, "zb64": 12},                                             # not text
    dict(_zb64_doc(1, 1, _ONE), data=[[1.0, 2.0]]),                                 # both forms
])
def test_zb64_rejects_malformed_payloads(doc):
    with pytest.raises(ValueError):
        _json.matrix_from_json(doc)


def test_zb64_inflation_is_bounded_by_the_declared_size():
    # a 1x1 header over a stream that inflates to 1 MB: rejected without
    # allocating the megabyte
    doc = _zb64_doc(1, 1, bytes(1 << 20), level=9)
    assert len(doc["zb64"]) < 2000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="holds more"):
            _json.matrix_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_system_file_round_trip_stays_near_the_matrix_size(tmp_path):
    # a 1001-state system (diagonal A but for one coupling, and two channels),
    # which the byte form of T carries: writing and reading it back must not
    # build a Python object per entry (the list form peaked near 190 MB on
    # this system)
    rng = np.random.default_rng(8)
    s, n = 1001, 2
    T = np.zeros((n + s, n + s), dtype=complex)
    T[np.arange(n, n + s), np.arange(n, n + s)] = rng.uniform(-0.9, 0.9, s)
    T[n, n + 1] = T[n + 1, n] = 0.01
    B = 0.01 * rand_complex(rng, s, n)
    T[n:, :n], T[:n, n:] = B, B.conj().T
    tau = pqsys.PartitionedContraction(T, n, n, s)
    path = str(tmp_path / "sys.json")
    assert "T" in _json.system_to_json(tau)
    tracemalloc.start()
    try:
        _json.dump(_json.system_to_json(tau), path)
        back = _json.system_from_json(_json.load(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * T.nbytes
    assert np.array_equal(back.T, T)


def test_legacy_list_system_file_still_reads():
    doc = _json.load(str(LEGACY_SYSTEM))
    assert "data" in doc["T"]
    tau = _json.system_from_json(doc)
    assert (tau.in_dim, tau.out_dim, tau.state_dim) == (1, 1, 6)
    assert np.array_equal(_json.system_from_json(_json.system_to_json(tau)).T, tau.T)


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
    doc = _json.system_to_json(tau)
    assert set(doc["T"]) == {"rows", "cols", "zb64"}
    back = _json.system_from_json(doc)
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


def test_scalar_measure_decodes_as_the_per_atom_route():
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 50)
    doc = _json.measure_to_json(data)
    listed = _json.measure_from_json(doc)
    # a byte-form weight among list-form ones decodes to the same bits
    doc["atoms"][7]["sigma"] = _json.matrix_to_zb64(data.atoms[7][1])
    mixed = _json.measure_from_json(doc)
    for (t1, s1), (t2, s2), (t0, s0) in zip(listed.atoms, mixed.atoms, data.atoms):
        assert t1 == t2 == t0
        assert s1.shape == s2.shape == (1, 1) and s1.dtype == s2.dtype == complex
        assert np.array_equal(s1, s0) and np.array_equal(s2, s0)


@pytest.mark.parametrize("atom, message", [
    ({"t": 0.1, "sigma": {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]}},
     "atom 2: matrix entries must be finite numbers"),
    ({"t": 0.1, "sigma": {"rows": 1, "cols": 1, "data": [[0.1, 0.0], [0.1, 0.0]]}},
     "atom 2: matrix document claims 1x1 but carries 2 entries"),
    ({"t": 0.1, "sigma": {"rows": 1, "cols": 1}}, "atom 2: not a matrix document: missing 'data'"),
])
def test_measure_names_its_malformed_atom(atom, message):
    data, _ = pqsys.chebyshev_example(0.2 + 0.1j, 4)
    doc = _json.measure_to_json(data)
    doc["atoms"][2] = atom
    with pytest.raises(ValueError) as exc:
        _json.measure_from_json(doc)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# scalar fields take only JSON values of their kind
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None, -1])
@pytest.mark.parametrize("key", ["rows", "cols"])
def test_matrix_sizes_must_be_nonnegative_json_integers(key, value):
    for doc in (_json.matrix_to_json(np.ones((2, 2))), _json.matrix_to_zb64(np.ones((2, 2)))):
        doc[key] = value
        with pytest.raises(ValueError, match=f"matrix entry '{key}' must be a nonnegative integer"):
            _json.matrix_from_json(doc)


@pytest.mark.parametrize("value", [1.9, 1.0, True, "1", -1])
@pytest.mark.parametrize("key", ["in_dim", "out_dim", "state_dim"])
def test_system_dimensions_must_be_nonnegative_json_integers(key, value):
    rng = np.random.default_rng(6)
    data = _json.system_to_json(pqsys.PartitionedContraction(rand_passive_T(rng, 1, 1, 2), 1, 1, 2))
    diagonal = _json.system_to_json(pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 3)[0]))
    for doc in (data, diagonal):
        doc[key] = value
        with pytest.raises(ValueError, match=f"system entry '{key}' must be a nonnegative integer"):
            _json.system_from_json(doc)


@pytest.mark.parametrize("value", [False, True, "0.5", None, [0.5]])
def test_an_atom_location_must_be_a_json_number(value):
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2, 3)[0])
    doc["atoms"][1]["t"] = value
    with pytest.raises(ValueError, match="atom 1: entry 't' must be a number"):
        _json.measure_from_json(doc)


# a JSON integer beyond the float range, which complex() and float() refuse
HUGE = 10 ** 400


@pytest.mark.parametrize("pair", [[HUGE, 0], [0, -HUGE]])
def test_a_matrix_entry_beyond_the_float_range_is_a_value_error(pair):
    with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
        _json.matrix_from_json({"rows": 1, "cols": 1, "data": [pair]})
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2, 3)[0])
    doc["atoms"][1]["sigma"]["data"] = [pair]
    with pytest.raises(ValueError, match="^atom 1: matrix entries must be finite numbers$"):
        _json.measure_from_json(doc)


def test_an_atom_location_beyond_the_float_range_is_a_value_error():
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2, 3)[0])
    doc["atoms"][1]["t"] = HUGE
    with pytest.raises(ValueError, match="^atom 1: entry 't' must be a finite number$"):
        _json.measure_from_json(doc)


def test_a_diagonal_system_location_beyond_the_float_range_is_a_value_error():
    doc = _json.system_to_json(pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 3)[0]))
    doc["t"][1] = -HUGE
    with pytest.raises(ValueError, match="^each item of system entry 't' must be a finite number$"):
        _json.system_from_json(doc)


def test_a_tridiagonal_entry_beyond_the_float_range_is_a_value_error():
    doc = _json.jacobi_to_json(pqsys.JacobiRealization(0.1 + 0.2j, (0.5,), (0.0,), False))
    doc["a"] = [HUGE]
    with pytest.raises(ValueError, match="^each item of tridiagonal entry 'a' must be a finite number$"):
        _json.jacobi_from_json(doc)


def test_an_integer_atom_location_reads_as_a_float():
    doc = _json.measure_to_json(pqsys.chebyshev_example(0.2, 3)[0])
    doc["atoms"][1]["t"] = 0
    t = _json.measure_from_json(doc).atoms[1][0]
    assert type(t) is float and t == 0.0


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_the_truncated_flag_must_be_a_json_boolean(value):
    doc = _json.jacobi_to_json(pqsys.JacobiRealization(0.1 + 0.2j, (0.5,), (0.0,), False))
    assert _json.jacobi_from_json(doc).truncated is False
    doc["truncated"] = value
    with pytest.raises(ValueError, match="tridiagonal entry 'truncated' must be true or false"):
        _json.jacobi_from_json(doc)


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


# ---------------------------------------------------------------------------
# numbers are JSON numbers: no strings, no booleans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair", [["0.5", 0.0], [0.5, False], [True, 0.0], [0.5, "1"], [0.5, None], [0.5, [0.0]]])
def test_matrix_entries_must_be_json_numbers(pair):
    for at in (0, 2):
        data = [[0.1, 0.2]] * 4
        data[at] = pair
        with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
            _json.matrix_from_json({"rows": 2, "cols": 2, "data": data})


def test_integer_matrix_entries_read_as_floats_bit_for_bit():
    back = _json.matrix_from_json({"rows": 1, "cols": 3, "data": [[1, -2], [2 ** 53 + 1, 0], [-0.0, 0]]})
    assert back.dtype == complex
    want = np.array([[1 - 2j, complex(float(2 ** 53 + 1), 0.0), complex(-0.0, 0.0)]])
    assert back.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_matrix_data_must_be_a_list():
    with pytest.raises(ValueError, match="'data' must be a list"):
        _json.matrix_from_json({"rows": 1, "cols": 1, "data": 5})


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
def test_a_diagonal_system_location_must_be_a_json_number(value):
    doc = _json.system_to_json(pqsys.realize_from_data(pqsys.chebyshev_example(0.2, 3)[0]))
    doc["t"][1] = value
    with pytest.raises(ValueError, match="each item of system entry 't' must be a number"):
        _json.system_from_json(doc)
    doc["t"] = "0.5"
    with pytest.raises(ValueError, match="system entry 't' must be a list of numbers"):
        _json.system_from_json(doc)


@pytest.mark.parametrize("key, value", [("d", ["0.1", 0.2]), ("d", [0.1, False]), ("a", ["0.5"]),
                                        ("a", [0.5, None]), ("b", [True]), ("b", "0.0")])
def test_tridiagonal_entries_must_be_json_numbers(key, value):
    doc = _json.jacobi_to_json(pqsys.JacobiRealization(0.1 + 0.2j, (0.5,), (0.0,), False))
    doc[key] = value
    with pytest.raises(ValueError, match=f"tridiagonal entry '{key}' must be"):
        _json.jacobi_from_json(doc)


def test_a_tridiagonal_corner_value_is_a_pair():
    doc = _json.jacobi_to_json(pqsys.JacobiRealization(0.1 + 0.2j, (0.5,), (0.0,), False))
    for d in ([0.1, 0.2, 0.3], [0.1]):
        doc["d"] = d
        with pytest.raises(ValueError):
            _json.jacobi_from_json(doc)
    doc["d"] = [0, 1]
    assert _json.jacobi_from_json(doc).d == 1j
