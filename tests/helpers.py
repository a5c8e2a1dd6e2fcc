"""Random problem generators shared by the test modules.

All generators take an explicit numpy Generator so every test is seeded and
reproducible.  Contractions are produced through an SVD rescale, which makes
the largest singular value exactly the requested bound.
"""

from pathlib import Path

import numpy as np

import pqsys

# a 6-state realized arcsine system written in the list form ("data" pairs)
# by the writer that preceded the byte form
LEGACY_SYSTEM = Path(__file__).parent / "data" / "legacy_list_system.json"
# near_pqs_direct_sum(np.random.default_rng(0)) written by `system_to_json`,
# in the T form since its C is not B* bit for bit
NEAR_PQS_SYSTEM = Path(__file__).parent / "data" / "near_pqs_direct_sum.json"
# rand_passive_T(np.random.default_rng(0), 2, 2, 6) written by `system_to_json`
# (the T form): a passive system whose main operator is not normal
GENERAL_SYSTEM = Path(__file__).parent / "data" / "general_passive_system.json"
# the {D, B, t} system t = (-0.5, 0.2, 1 - 1e-11), B_k = sqrt((1 - t_k^2) / 4),
# D = -sum(t) / 4 in the list form: pqs and minimal, with a defect square
# 2e-11 of A that lies below psd_tol and above the rounding floor
NEAR_UNIT_SYSTEM = Path(__file__).parent / "data" / "near_unit_eigenvalue_pqs.json"


def linalg_calls(monkeypatch, name, shape=None, internal=False):
    """Patch np.linalg.<name> to record the shape of the first argument of
    each call (only of calls on an array of the given shape, when one is
    given) and return the record, which fills as the calls happen.  With
    internal, the calls numpy.linalg makes itself are recorded too:
    np.linalg.norm(M, 2) takes the singular values of M through its own svd."""
    calls = []
    real = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        if shape is None or np.shape(a) == shape:
            calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    if internal:
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        monkeypatch.setattr(impl, name, recording)
    return calls


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_contraction(rng, rows, cols, smax=0.9):
    """Random matrix with largest singular value exactly smax (if nonzero)."""
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    M = rand_complex(rng, rows, cols)
    s = np.linalg.svd(M, compute_uv=False)[0]
    return M * (smax / s)


def rand_unitary(rng, n):
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    Q, R = np.linalg.qr(rand_complex(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def rand_hermitian_contraction(rng, n, bound=0.85):
    """Random A = A* with spectrum in [-bound, bound]."""
    U = rand_unitary(rng, n)
    eigs = rng.uniform(-bound, bound, size=n)
    return (U * eigs) @ U.conj().T


def rand_passive_T(rng, in_dim, out_dim, state_dim, smax=0.9):
    """Random strict contraction partitioned as a system block matrix."""
    return rand_contraction(rng, out_dim + state_dim, in_dim + state_dim, smax)


def rand_pqs_T(rng, n, state_dim, a_bound=0.8, k_scale=0.9, x_scale=0.9):
    """Random passive quasi-selfadjoint block matrix, built from the
    parametrization T = [[-K A K* + DK* X DK*, K DA], [DA K*, A]] with the
    defect operators written in ambient state coordinates.

    Returns the full (n+state_dim) x (n+state_dim) matrix.
    """
    A = rand_hermitian_contraction(rng, state_dim, a_bound)
    w, U = np.linalg.eigh(A)
    DA = (U * np.sqrt(np.maximum(0.0, 1.0 - w * w))) @ U.conj().T
    # K : state -> outputs, constrained to act through ran DA; ambient form
    K = rand_contraction(rng, n, state_dim, k_scale)
    # project K onto the defect range so K = K P_{DA}
    mask = (1.0 - w * w) > 1e-12
    P = (U[:, mask]) @ (U[:, mask]).conj().T
    K = K @ P
    s = np.linalg.svd(K, compute_uv=False)
    if s.size and s[0] > k_scale:
        K = K * (k_scale / s[0])
    KKs = K @ K.conj().T
    DKs = _psd_sqrt_ref(np.eye(n) - KKs)
    X = rand_contraction(rng, n, n, x_scale)
    top_left = -K @ A @ K.conj().T + DKs @ X @ DKs
    T = np.zeros((n + state_dim, n + state_dim), dtype=complex)
    T[:n, :n] = top_left
    T[:n, n:] = K @ DA
    T[n:, :n] = DA @ K.conj().T
    T[n:, n:] = A
    return T


def _psd_sqrt_ref(M):
    w, U = np.linalg.eigh((M + M.conj().T) / 2.0)
    return (U * np.sqrt(np.maximum(w, 0.0))) @ U.conj().T


def rand_atoms(rng, m, n, t_bound=0.8, total_mass=0.85):
    """Random atomic data: points t_k in (-t_bound, t_bound) and PSD weights
    Sigma_k with sum Sigma_k <= total_mass * I."""
    ts = np.sort(rng.uniform(-t_bound, t_bound, size=m))
    # keep the points separated so nothing degenerates
    for i in range(1, m):
        if ts[i] - ts[i - 1] < 0.05:
            ts[i] = ts[i - 1] + 0.05
    ts = np.clip(ts, -t_bound, t_bound)
    raw = []
    for _ in range(m):
        G = rand_complex(rng, n, n)
        raw.append(G @ G.conj().T)
    total = sum(raw)
    scale = total_mass / max(np.linalg.eigvalsh(total).max(), 1e-30)
    return [(float(t), S * scale) for t, S in zip(ts, raw)]


def circle_points(count):
    """Equally spaced points on the unit circle."""
    ang = 2.0 * np.pi * np.arange(count) / count
    return np.exp(1j * ang)


def pqs_from_spectrum(rng, t, n, diagonal=False):
    """Passive quasi-selfadjoint block matrix with main operator
    A = U diag(t) U* for a random unitary U and n I/O channels; with
    diagonal, U = I and A is the real diagonal diag(t), bit for bit.

    Built from atomic data: an atom l_k l_k* at each t_k with total mass
    0.85 and Theta(0) strictly inside the membership ball, so T is a
    contraction for any t in [-1, 1].  Returns the full block matrix."""
    t = np.asarray(t, dtype=float)
    s = t.size
    L = rand_complex(rng, s, n)
    L *= np.sqrt(0.85 / np.linalg.eigvalsh(L.T @ L.conj()).max())
    sigmas = [np.outer(l, l.conj()) for l in L]
    R_half = _psd_sqrt_ref(np.eye(n) - sum(sigmas))
    D = -sum(tk * sk for tk, sk in zip(t, sigmas)) + R_half @ rand_contraction(rng, n, n, 0.9) @ R_half
    U = np.eye(s) if diagonal else rand_unitary(rng, s)
    A = (U * t) @ U.conj().T
    A = (A + A.conj().T) / 2
    B = U @ (np.sqrt(1.0 - t * t)[:, None] * L.conj())
    return np.block([[D, B.conj().T], [B, A]])


def near_pqs_direct_sum(rng, noise=1e-14):
    """The direct sum of two scalar `chebyshev_example` systems (3 to 11
    states each, d = 0.2+0.1j and -0.1+0.05j) with complex noise of size
    `noise` added to C: a pqs system whose C is B* to rounding, not bit for
    bit, so the SVDs of M and K* give different bases of their defects."""
    parts = [pqsys.chebyshev_example(d, int(rng.integers(3, 12)))[1] for d in (0.2 + 0.1j, -0.1 + 0.05j)]
    s = sum(p.state_dim for p in parts)
    T = np.zeros((2 + s, 2 + s), dtype=complex)
    first = 2
    for ch, p in enumerate(parts):
        idx = [ch] + list(range(first, first + p.state_dim))
        T[np.ix_(idx, idx)] = p.T
        first += p.state_dim
    T[:2, 2:] += noise * rand_complex(rng, 2, s)
    return pqsys.PartitionedContraction(T, 2, 2, s)
