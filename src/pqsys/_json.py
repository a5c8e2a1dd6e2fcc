"""JSON encodings for the shared file formats.

Complex matrices are stored row-major as [re, im] pairs.  Loaders raise
ValueError on malformed documents so the CLI can map them to its
input-error exit code.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json

import numpy as np

from .opcore import as_matrix
from .realize import JacobiRealization
from .sysmodel import PartitionedContraction
from .transfer import SqsFunctionData


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a large acyclic tree of lists
    and floats is built: allocating a million lists would otherwise run
    repeated full collections that have nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    rows, cols = M.shape
    # the float64 view of a complex array is its row-major [re, im] pairs
    with _gc_paused():
        data = np.ascontiguousarray(M).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a matrix document: missing {exc}") from None
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise ValueError(f"matrix document claims {rows}x{cols} but carries {len(data)} entries")
    out = np.empty(rows * cols, dtype=complex)
    if data:
        # a first entry of length 2 rules out broadcasting of scalars or
        # 1-element entries; any other entry of another shape is ragged
        first = data[0]
        if not isinstance(first, (list, tuple)) or len(first) != 2:
            raise ValueError("matrix entry 0 is not an [re, im] pair")
        pairs = out.view(np.float64).reshape(-1, 2)
        try:
            pairs[...] = data
        except (ValueError, TypeError):
            raise ValueError("matrix entries are not all [re, im] pairs of numbers") from None
        # null entries arrive as nan
        if not np.all(np.isfinite(pairs)):
            raise ValueError("matrix entries must be finite numbers")
    return out.reshape(rows, cols)


def system_to_json(tau: PartitionedContraction) -> dict:
    return {
        "in_dim": tau.in_dim,
        "out_dim": tau.out_dim,
        "state_dim": tau.state_dim,
        "T": matrix_to_json(tau.T),
    }


def system_from_json(obj) -> PartitionedContraction:
    try:
        in_dim = int(obj["in_dim"])
        out_dim = int(obj["out_dim"])
        state_dim = int(obj["state_dim"])
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
    try:
        theta0 = matrix_from_json(obj["theta0"])
        atoms = [(float(a["t"]), matrix_from_json(a["sigma"])) for a in obj["atoms"]]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a measure document: missing {exc}") from None
    return SqsFunctionData(theta0, tuple(atoms))


def jacobi_to_json(jr: JacobiRealization) -> dict:
    return {
        "d": [float(jr.d.real), float(jr.d.imag)],
        "a": list(jr.a),
        "b": list(jr.b),
        "truncated": bool(jr.truncated),
    }


def jacobi_from_json(obj) -> JacobiRealization:
    try:
        d = float(obj["d"][0]) + 1j * float(obj["d"][1])
        a = tuple(float(x) for x in obj["a"])
        b = tuple(float(x) for x in obj["b"])
        truncated = bool(obj["truncated"])
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"not a tridiagonal document: missing {exc}") from None
    return JacobiRealization(d, a, b, truncated)


def sniff_document(obj):
    """Build a system or measure object from a parsed JSON document,
    deciding by its keys."""
    if not isinstance(obj, dict):
        raise ValueError("document root must be an object")
    if "T" in obj:
        return system_from_json(obj)
    if "theta0" in obj:
        return measure_from_json(obj)
    raise ValueError("document is neither a system (key 'T') nor a measure (key 'theta0')")


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
    with open(path, "r", encoding="utf-8") as fh, _gc_paused():
        return json.load(fh)
