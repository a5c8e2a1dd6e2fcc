"""Diagonal pqs systems: the eigenbasis of a real diagonal main operator
taken by index, and the {D, B, t} system file form."""

import json

import numpy as np
import pytest

import pqsys
from pqsys import _json, opcore, realize, sysmodel
from pqsys.cli import main

from helpers import assert_same_factors, formed_defect, rand_atoms, rand_complex

# ties within and across clusters: the stable order of the sort decides
# which unit vector each eigenvalue gets
TIED = np.array([0.3, -0.5, 0.3, 0.0, -0.5, 0.3, 0.1, 0.0, -0.2, 0.3])


def _diagonal_system(rng, t, n):
    """A pqs system [[D, B*], [B, diag(t)]] with C = B* bit for bit."""
    s = t.size
    B = 0.05 * rand_complex(rng, s, n)
    T = np.zeros((n + s, n + s), dtype=complex)
    T[:n, :n] = 0.1 * rand_complex(rng, n, n)
    T[:n, n:] = B.conj().T
    T[n:, :n] = B
    np.fill_diagonal(T[n:, n:], t)
    return pqsys.PartitionedContraction(T, n, n, s)


def _permutation(perm):
    """The real permutation matrix whose column k is e_perm[k]."""
    V = np.zeros((perm.size, perm.size))
    V[perm, np.arange(perm.size)] = 1.0
    return V


def _round_trip(tau):
    doc = json.loads(json.dumps(_json.system_to_json(tau)))
    return doc, _json.system_from_json(doc)


def _realized(rng, m=6, n=1):
    atoms = rand_atoms(rng, m, n)
    center = -sum(t * s for t, s in atoms)
    return pqsys.realize_from_data(pqsys.SqsFunctionData(center, tuple(atoms)))


# ---------------------------------------------------------------------------
# the eigenbasis by index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_index_eigenbasis_matches_the_permutation_products(n):
    tau = _diagonal_system(np.random.default_rng(3), TIED, n)
    sd = sysmodel.spectral_data(tau)
    perm = np.argsort(TIED, kind="stable")
    assert sd.V.ndim == 1 and np.array_equal(sd.V, perm)
    assert np.array_equal(sd.t, TIED[perm])
    V = _permutation(perm)
    assert np.array_equal(sd.VB, (tau.B.conj().T @ V).conj().T)
    assert np.array_equal(sd.CV, tau.C @ V)
    # D_A and E_A: the real products of the dense route
    dense = opcore._formed_defects(sd.t, V, pqsys.DEFAULT_TOL)
    record, bare = sysmodel.main_defect_data(tau), opcore.defect_data(tau.A.copy())
    assert record.DA is None and record.DAs is None
    for got in (record, bare):
        assert_same_factors(got, dense)
    assert bare.DA.dtype == dense.DA.dtype and np.array_equal(bare.DA, dense.DA) and bare.DAs is bare.DA
    assert np.array_equal(formed_defect(record.E_A, record.d_A), dense.DA)
    # the index names the columns of the permutation matrix
    t, perm_eig, _ = opcore._hermitian_eigh(tau.A, pqsys.DEFAULT_TOL)
    assert np.array_equal(t, sd.t) and np.array_equal(opcore._eig_span(perm_eig, slice(None)), V)


@pytest.mark.parametrize("n", [1, 2])
def test_index_eigenbasis_gives_the_dense_bases_and_verdicts(n):
    rng = np.random.default_rng(11)
    tau = _diagonal_system(rng, TIED, n)
    twin = pqsys.PartitionedContraction(tau.T.copy(), n, n, TIED.size)
    sd = sysmodel.spectral_data(tau)
    # the twin carries the same factorization with its permutation matrix
    V = _permutation(sd.V)
    sysmodel.seed_records(twin, pqsys.DEFAULT_TOL, sd.t, V, 0.0, opcore.hermitian_defect_data(sd.t, V))
    dense = sysmodel.spectral_data(twin)
    assert dense.V.ndim == 2
    assert sysmodel.krylov_record(tau)[:3] == sysmodel.krylov_record(twin)[:3]
    for subspace in (sysmodel.controllable_subspace, sysmodel.observable_subspace):
        got, ref = subspace(tau), subspace(twin)
        assert got.basis.shape == ref.basis.shape and np.array_equal(got.basis, ref.basis)
    report = sysmodel.check_minimality_normal(tau)
    assert report == sysmodel.check_minimality_normal(twin) and report.agree
    # a k-fold eigenvalue contributes min(k, n) controllable directions
    _, counts = np.unique(TIED, return_counts=True)
    assert sysmodel.krylov_record(tau).controllable == np.minimum(counts, n).sum()
    assert not report.minimal


# ---------------------------------------------------------------------------
# the {D, B, t} system file form
# ---------------------------------------------------------------------------

def _arcsine_nodes(s):
    return np.cos((2 * np.arange(1, s + 1) - 1) * np.pi / (2 * s))


def _assert_file_of_dense_assembly(tau, d, B, t):
    """tau is [[d, B*], [B, diag(t)]] written out entry by entry (B a column),
    bit for bit, and so is its system file."""
    s = t.size
    T = np.zeros((s + 1, s + 1), dtype=complex)
    T[0, 0] = d
    T[0, 1:] = B.conj()
    T[1:, 0] = B
    T[1:, 1:] = np.diag(t)
    assert tau.T.tobytes() == T.tobytes()
    ref = pqsys.PartitionedContraction(T, 1, 1, s)
    assert json.dumps(_json.system_to_json(tau)) == json.dumps(_json.system_to_json(ref))


def test_realized_system_file_carries_d_b_t_and_rebuilds_t_bit_for_bit():
    d = 0.2 + 0.1j
    data, _ = realize.chebyshev_example(d, 1000)
    tau = pqsys.realize_from_data(data)
    doc, back = _round_trip(tau)
    assert {"D", "B", "t"} <= doc.keys() and "T" not in doc
    assert len(doc["t"]) == 1000
    assert back.T.tobytes() == tau.T.tobytes()
    # nothing is seeded: the reader's system factors its own A
    assert not back._cache
    # ascending nodes, B = sqrt(1 - t^2) sqrt(sigma)
    t = np.sort(_arcsine_nodes(1000))
    _assert_file_of_dense_assembly(tau, d, np.sqrt(1.0 - t ** 2).astype(complex) * complex(np.sqrt(1 / 2000)), t)


def test_chebyshev_example_system_file_carries_d_b_t():
    # its C has the bits of B* (imaginary parts -0.0), so no T is written
    d = 0.2 + 0.1j
    _, tau = realize.chebyshev_example(d, 1000)
    doc, back = _round_trip(tau)
    assert {"D", "B", "t"} <= doc.keys() and "T" not in doc
    assert back.T.tobytes() == tau.T.tobytes()
    # the Chebyshev nodes, B = sqrt((1 - t^2) sigma)
    t = _arcsine_nodes(1000)
    _assert_file_of_dense_assembly(tau, d, np.sqrt((1.0 - t ** 2) * (1 / 2000)).astype(complex), t)


def test_dilated_system_file_carries_d_b_t():
    big = realize.biinner_dilation(_realized(np.random.default_rng(5))).system
    doc, back = _round_trip(big)
    assert "t" in doc and "T" not in doc
    assert back.T.tobytes() == big.T.tobytes()


def _off_form(kind):
    rng = np.random.default_rng(21)
    T = np.array(_realized(rng).T)
    n = 1
    if kind == "off_diagonal":
        T[n + 1, n + 2] = 1e-3
    elif kind == "c_one_ulp":
        c = T[0, n + 2]
        T[0, n + 2] = complex(np.nextafter(c.real, np.inf), c.imag)
    elif kind == "non_real_diagonal":
        T[n + 3, n + 3] += 1e-12j
    else:
        # in_dim 2, out_dim 1 over the same diagonal A
        s = T.shape[0] - n
        T = np.hstack([T[:, :1], 0.01 * rand_complex(rng, n + s, 1), T[:, 1:]])
        return pqsys.PartitionedContraction(T, 2, 1, s)
    return pqsys.PartitionedContraction(T, n, n, T.shape[0] - n)


@pytest.mark.parametrize("kind", ["off_diagonal", "c_one_ulp", "non_real_diagonal", "unequal_dims"])
def test_other_systems_stay_in_the_byte_form_of_t(kind):
    tau = _off_form(kind)
    doc, back = _round_trip(tau)
    assert "zb64" in doc["T"] and "t" not in doc
    assert back.T.tobytes() == tau.T.tobytes()


def _bad_doc(kind):
    tau = _realized(np.random.default_rng(8))
    doc = json.loads(json.dumps(_json.system_to_json(tau)))
    if kind == "non_finite_t":
        doc["t"][2] = float("inf")
    elif kind == "null_t":
        doc["t"][2] = None
    elif kind == "short_t":
        doc["t"] = doc["t"][:-1]
    elif kind == "b_shape":
        doc["B"] = _json.matrix_to_zb64(tau.B[:-1])
    elif kind == "t_and_T":
        doc["T"] = _json.matrix_to_zb64(tau.T)
    else:
        doc["out_dim"] = 2
    return doc


BAD = ["non_finite_t", "null_t", "short_t", "b_shape", "t_and_T", "unequal_dims"]


@pytest.mark.parametrize("kind", BAD)
def test_malformed_d_b_t_documents_raise_value_error(kind):
    with pytest.raises(ValueError):
        _json.system_from_json(_bad_doc(kind))
    with pytest.raises(ValueError):
        _json.sniff_document(_bad_doc(kind))


@pytest.mark.parametrize("kind", BAD)
def test_cli_exits_2_on_malformed_d_b_t_documents(tmp_path, kind):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_bad_doc(kind)))
    report = tmp_path / "rep.json"
    assert main(["classify", str(path), "--report", str(report)]) == 2
    err = json.loads(report.read_text())["error"]
    assert err["type"] == "ValueError" and err["exit_code"] == 2


def test_a_byte_form_matrix_is_read_only_and_not_copied():
    M = rand_complex(np.random.default_rng(2), 40, 30)
    got = _json.matrix_from_json(_json.matrix_to_zb64(M))
    assert np.array_equal(got, M) and not got.flags.writeable
    if np.little_endian:
        assert got.base is not None and not got.base.flags.owndata
