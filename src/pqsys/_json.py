"""JSON encodings for the shared file formats.

A complex matrix is a document {"rows", "cols", ...} that carries its
entries, row-major, in one of two forms: "data", a list of [re, im]
pairs, or "zb64", the base64 text of a zlib stream (level 1) of the
little-endian complex128 bytes.  System documents and the similarity
operator are written in the byte form, channel-sized documents (eval
samples, measures) as lists; the reader accepts either.  A system whose
T is [[D, B*], [B, diag(t)]] bit for bit, with t real, is written as
{D, B, t} (`system_to_json`); any other carries T.  Loaders raise
ValueError on malformed documents so the CLI can map them to its
input-error exit code.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import numbers
import zlib

import numpy as np

from .opcore import as_matrix
from .realize import JacobiRealization
from .sysmodel import PartitionedContraction, _diagonal_pqs
from .transfer import SqsFunctionData

# little-endian complex128: the byte order of the "zb64" form on every host
_WIRE = np.dtype("<c16")


def matrix_to_json(M) -> dict:
    """The list form: each entry an [re, im] pair."""
    M = as_matrix(M)
    rows, cols = M.shape
    # the float64 view of a complex array is its row-major [re, im] pairs
    data = np.ascontiguousarray(M).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_to_zb64(M) -> dict:
    """The byte form: zlib level 1 over the row-major little-endian
    complex128 entries, as base64 text."""
    M = as_matrix(M)
    rows, cols = M.shape
    raw = np.ascontiguousarray(M, dtype=_WIRE)
    return {"rows": rows, "cols": cols, "zb64": base64.b64encode(zlib.compress(raw, 1)).decode("ascii")}


def _is_number(value) -> bool:
    """The one rule of a JSON number: a real number that is not a boolean (a
    string is not a number either).  The exact types of parsed JSON numbers
    are tested first: the abstract-class test costs several times more."""
    return type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _scalar(value, kind: type, name: str):
    """value as kind when it is a JSON scalar of that kind, else ValueError:
    int an integer >= 0, float a number (`_is_number`) inside the float
    range, bool true or false."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0
              if kind is int else _is_number(value))
    if not ok:
        want = {int: "a nonnegative integer", float: "a number", bool: "true or false"}[kind]
        raise ValueError(f"{name} must be {want}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        # a JSON integer beyond the float range
        raise ValueError(f"{name} must be a finite number") from None


def _floats(values, name: str) -> np.ndarray:
    """A list of JSON numbers as a float array, read entry by entry by the
    rule of `_scalar`, else ValueError."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers")
    item = f"each item of {name}"
    return np.fromiter((_scalar(v, float, item) for v in values), float, len(values))


def _entry(k: int, pair) -> complex:
    """The k-th [re, im] pair of a matrix document's "data" as a complex
    number, each part a JSON number (`_is_number`) inside the float range,
    else ValueError."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"matrix entry {k} is not an [re, im] pair")
    if not (_is_number(pair[0]) and _is_number(pair[1])):
        raise ValueError("matrix entries must be finite numbers")
    try:
        return complex(*pair)
    except OverflowError:
        raise ValueError("matrix entries must be finite numbers") from None


def matrix_from_json(obj) -> np.ndarray:
    """A matrix document in either form; entries must be finite.  A matrix
    read from the byte form is read-only (`_entries_from_zb64`)."""
    try:
        rows = _scalar(obj["rows"], int, "matrix entry 'rows'")
        cols = _scalar(obj["cols"], int, "matrix entry 'cols'")
        packed = "zb64" in obj
        data = obj["zb64"] if packed else obj["data"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a matrix document: missing {exc}") from None
    if packed:
        if "data" in obj:
            raise ValueError("matrix document carries both 'data' and 'zb64'")
        return _entries_from_zb64(data, rows, cols).reshape(rows, cols)
    if not isinstance(data, (list, tuple)):
        raise ValueError("matrix entry 'data' must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(f"matrix document claims {rows}x{cols} but carries {len(data)} entries")
    # one pass over the entries, each checked as it is read
    out = np.fromiter((_entry(k, pair) for k, pair in enumerate(data)), complex, len(data))
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite numbers")
    return out.reshape(rows, cols)


def _entries_from_zb64(text, rows: int, cols: int) -> np.ndarray:
    """The rows*cols entries of a "zb64" payload, in native byte order, as a
    read-only array.  On a little-endian host it is a view of the inflated
    bytes, with no copy; a big-endian host gets a byte-swapped copy.

    Inflation stops one byte past the declared size, so a small document
    cannot expand into more memory than its header claims."""
    if not isinstance(text, str):
        raise ValueError("matrix payload 'zb64' must be a string")
    size = rows * cols * _WIRE.itemsize
    try:
        stream = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"matrix payload is not base64: {exc}") from None
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(stream, size + 1)
    except (zlib.error, OverflowError) as exc:
        raise ValueError(f"matrix payload is not a zlib stream: {exc}") from None
    claim = f"matrix document claims {rows}x{cols} ({size} bytes)"
    if len(raw) > size:
        raise ValueError(f"{claim} but its payload holds more")
    if not inflate.eof:
        raise ValueError(f"{claim} but its zlib stream is truncated")
    if len(raw) < size:
        raise ValueError(f"{claim} but its payload holds {len(raw)} bytes")
    if inflate.unused_data:
        raise ValueError("matrix payload has data after the end of its zlib stream")
    out = np.frombuffer(raw, dtype=_WIRE)
    if not _WIRE.isnative:
        out = out.astype(complex)
        out.flags.writeable = False
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite numbers")
    return out


def system_to_json(tau: PartitionedContraction) -> dict:
    """The partition and either {D, B, t} (`_diagonal_of_pqs`) or T, each
    matrix in the byte form."""
    doc = {"in_dim": tau.in_dim, "out_dim": tau.out_dim, "state_dim": tau.state_dim}
    t = _diagonal_of_pqs(tau)
    if t is None:
        doc["T"] = matrix_to_zb64(tau.T)
    else:
        doc.update(D=matrix_to_zb64(tau.D), B=matrix_to_zb64(tau.B), t=t.tolist())
    return doc


def _diagonal_of_pqs(tau: PartitionedContraction) -> np.ndarray | None:
    """The diagonal t of A when `_pqs_from_diagonal` rebuilds T from (D, B, t)
    bit for bit, else None.  That holds exactly when the partition is square
    with state, every imaginary part of A and every real part off its
    diagonal has all bits zero (+0.0), and C has the bits of B*.  Such an A
    is real diagonal by the test of `opcore._hermitian_eigh`."""
    if tau.in_dim != tau.out_dim or tau.state_dim == 0:
        return None
    A = tau.A
    # the entries of A as 64-bit words: nonzero words only on the real diagonal
    re = A.real.view(np.uint64)
    if np.count_nonzero(A.imag.view(np.uint64)) or np.count_nonzero(re) != np.count_nonzero(np.diagonal(re)):
        return None
    if np.ascontiguousarray(tau.C).tobytes() != np.ascontiguousarray(tau.B.conj().T).tobytes():
        return None
    return np.diagonal(A).real.copy()


def _pqs_from_diagonal(obj, n: int, out_dim: int, s: int) -> PartitionedContraction:
    """The system `_diagonal_pqs(D, B, t)` from the D, B and t of a system document."""
    if out_dim != n:
        raise ValueError(f"a system document with 't' needs in_dim = out_dim, got {n} and {out_dim}")
    D = matrix_from_json(obj["D"])
    B = matrix_from_json(obj["B"])
    t = _floats(obj["t"], "system entry 't'")
    if t.shape != (s,):
        raise ValueError(f"system entry 't' must list {s} numbers, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("system entry 't' must hold finite numbers")
    if D.shape != (n, n) or B.shape != (s, n):
        raise ValueError(f"system blocks D {D.shape} and B {B.shape}, partition wants {(n, n)} and {(s, n)}")
    return _diagonal_pqs(D, B, t)


def system_from_json(obj) -> PartitionedContraction:
    """A system document carrying T (either matrix form) or {D, B, t}."""
    try:
        in_dim, out_dim, state_dim = (_scalar(obj[key], int, f"system entry {key!r}")
                                      for key in ("in_dim", "out_dim", "state_dim"))
        if "t" in obj:
            if "T" in obj:
                raise ValueError("system document carries both 'T' and 't'")
            return _pqs_from_diagonal(obj, in_dim, out_dim, state_dim)
        T = matrix_from_json(obj["T"])
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a system document: missing {exc}") from None
    return PartitionedContraction(T, in_dim, out_dim, state_dim)


def measure_to_json(f: SqsFunctionData) -> dict:
    return {
        "theta0": matrix_to_json(f.theta0),
        "atoms": [{"t": float(t), "sigma": matrix_to_json(s)} for t, s in f.atoms],
    }


def measure_from_json(obj) -> SqsFunctionData:
    """A measure document; a malformed weight is named by its atom index."""
    try:
        theta0 = matrix_from_json(obj["theta0"])
        atoms = [_atom_from_json(k, a) for k, a in enumerate(obj["atoms"])]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a measure document: missing {exc}") from None
    return SqsFunctionData(theta0, tuple(atoms))


def _atom_from_json(k: int, a) -> tuple[float, np.ndarray]:
    try:
        return _scalar(a["t"], float, "entry 't'"), matrix_from_json(a["sigma"])
    except ValueError as exc:
        raise ValueError(f"atom {k}: {exc}") from None


def jacobi_to_json(jr: JacobiRealization) -> dict:
    return {
        "d": [float(jr.d.real), float(jr.d.imag)],
        "a": list(jr.a),
        "b": list(jr.b),
        "truncated": bool(jr.truncated),
    }


def jacobi_from_json(obj) -> JacobiRealization:
    try:
        re, im = _floats(obj["d"], "tridiagonal entry 'd'").tolist()
        a = tuple(_floats(obj["a"], "tridiagonal entry 'a'").tolist())
        b = tuple(_floats(obj["b"], "tridiagonal entry 'b'").tolist())
        truncated = _scalar(obj["truncated"], bool, "tridiagonal entry 'truncated'")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a tridiagonal document: missing {exc}") from None
    return JacobiRealization(re + 1j * im, a, b, truncated)


def sniff_document(obj):
    """Build a system or measure object from a parsed JSON document,
    deciding by its keys."""
    if not isinstance(obj, dict):
        raise ValueError("document root must be an object")
    if "T" in obj or "t" in obj:
        return system_from_json(obj)
    if "theta0" in obj:
        return measure_from_json(obj)
    raise ValueError("document is neither a system (key 'T' or 't') nor a measure (key 'theta0')")


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\x00")
    return h.hexdigest()


def dump(obj, path: str):
    """Write obj as compact JSON; `json.dumps` takes the C encoder, which
    `json.dump` to a file never does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
        fh.write("\n")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
