"""Independent reference computations used by the test suite.

Everything in this file is deliberately implemented by a different route
than the library: transfer values come from truncated power series instead
of resolvent solves, Jacobi coefficients come from a Hankel factorization
in extended precision instead of Lanczos, quadrature data is validated
against closed-form moments.  Tests compare library output against these
oracles; the oracles never import the package.
"""

import numpy as np

# ---------------------------------------------------------------------------
# frozen scalar anchors (exact closed forms, computed by hand)
# ---------------------------------------------------------------------------

# W(lambda) = (1 - sqrt(1 - lambda^2)) / (2 lambda) for the Chebyshev weight
CHEB_W_AT_06 = 1.0 / 6.0            # (1 - 0.8) / 1.2
CHEB_W_AT_1 = 0.5                   # boundary value W(1)
CHEB_W_AT_M1 = -0.5                 # boundary value W(-1)
SQRT3_MINUS_2 = np.sqrt(3.0) - 2.0  # -2 W(1/2)

# Sigma-measure moments mu_p = integral t^p dSigma with
# dSigma = dt / (2 pi sqrt(1-t^2)):  mu_{2q} = C(2q, q) / (2 * 4^q), odd zero.
CHEB_SIGMA_MOMENTS_EVEN = [0.5, 1.0 / 4.0, 3.0 / 16.0, 5.0 / 32.0, 35.0 / 256.0]

# spectral-measure moments m_p = integral t^p (1 - t^2) dSigma = mu_p - mu_{p+2}
CHEB_SPECTRAL_MOMENTS_EVEN = [1.0 / 4.0, 1.0 / 16.0, 1.0 / 32.0]


def cheb_w_exact(lam):
    """Closed form W(lambda) = (1 - sqrt(1 - lambda^2)) / (2 lambda)."""
    lam = complex(lam)
    if abs(lam) < 1e-8:
        # series (1 - sqrt(1-x))/ (2 sqrt(x)) ... expanded in lambda
        return lam / 4.0 + lam ** 3 / 16.0
    return (1.0 - np.sqrt(1.0 - lam * lam)) / (2.0 * lam)


def cheb_q_identity_rhs(z):
    """sqrt(z^2 - 1) - z with the branch that decays at infinity."""
    z = complex(z)
    return z * np.sqrt(1.0 - 1.0 / (z * z)) - z


def blaschke(a, lam):
    """Single real-point Blaschke factor (lambda - a) / (1 - lambda a)."""
    return (lam - a) / (1.0 - lam * a)


# ---------------------------------------------------------------------------
# transfer function by truncated Neumann series (no linear solves)
# ---------------------------------------------------------------------------

def theta_series(T, in_dim, out_dim, lam, terms=400):
    """D + sum_{k>=0} lam^{k+1} C A^k B summed term by term.

    Valid well inside the unit disk for contractive A; `terms` is chosen so
    the geometric tail is below 1e-13 for |lam| <= 0.93.
    """
    T = np.asarray(T, dtype=complex)
    D = T[:out_dim, :in_dim]
    C = T[:out_dim, in_dim:]
    B = T[out_dim:, :in_dim]
    A = T[out_dim:, in_dim:]
    acc = np.array(D, dtype=complex)
    V = B.copy()
    lam_pow = lam
    for _ in range(terms):
        acc = acc + lam_pow * (C @ V)
        V = A @ V
        lam_pow *= lam
    return acc


def q_series(T, n, z, terms=400):
    """P_N (T - zI)^{-1} |_N by the Neumann series -sum T^k / z^{k+1}."""
    T = np.asarray(T, dtype=complex)
    dim = T.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    P = np.eye(dim, dtype=complex)
    zp = z
    for _ in range(terms):
        acc = acc - P / zp
        P = T @ P
        zp *= z
    return acc[:n, :n]


# ---------------------------------------------------------------------------
# Jacobi coefficients from raw moments via Hankel Cholesky factorization
# (extended precision; independent of any Lanczos recurrence)
# ---------------------------------------------------------------------------

def jacobi_from_moments(moments, k):
    """First k+1 off-diagonals a_0..a_k and diagonals b_1..b_k from power
    moments m_j = <A^j B, B>.

    Uses H = L L* (Cholesky of the Hankel matrix) and J = L^{-1} H1 L^{-*}
    with H1 the shifted Hankel; diag(J) are the b's, the first off-diagonal
    of J gives a_1..; a_0 = sqrt(m_0).  Runs in long double.
    """
    m = np.asarray(moments, dtype=np.longdouble)
    size = k + 1
    if len(m) < 2 * size:
        raise ValueError("need at least 2k+2 moments")
    H = np.empty((size, size), dtype=np.longdouble)
    H1 = np.empty((size, size), dtype=np.longdouble)
    for i in range(size):
        for j in range(size):
            H[i, j] = m[i + j]
            H1[i, j] = m[i + j + 1]
    L = _cholesky_ld(H)
    # J = L^{-1} H1 L^{-T}, formed by two triangular solves
    Y = _forward_solve_ld(L, H1)            # L Y = H1
    J = _forward_solve_ld(L, Y.T).T         # J L^T = Y  =>  L J^T = Y^T
    a = [float(np.sqrt(m[0]))]
    b = []
    for i in range(size - 1):
        b.append(float(J[i, i]))
        a.append(float(J[i + 1, i]))
    b.append(float(J[size - 1, size - 1]))
    return a[: k + 1], b[: k + 1]


def _cholesky_ld(H):
    n = H.shape[0]
    L = np.zeros_like(H)
    for i in range(n):
        s = H[i, i] - np.dot(L[i, :i], L[i, :i])
        if s <= 0:
            raise ValueError(f"Hankel matrix not positive definite at pivot {i}")
        L[i, i] = np.sqrt(s)
        for j in range(i + 1, n):
            L[j, i] = (H[j, i] - np.dot(L[j, :i], L[i, :i])) / L[i, i]
    return L


def _forward_solve_ld(L, B):
    n = L.shape[0]
    X = np.array(B, dtype=np.longdouble, copy=True)
    for i in range(n):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def moments_of_pair(A, B, count):
    """Power moments m_j = <A^j B, B> for a scalar channel (B a column)."""
    A = np.asarray(A, dtype=complex)
    v = np.asarray(B, dtype=complex).reshape(-1)
    out = []
    w = v.copy()
    for _ in range(count):
        out.append(complex(np.vdot(v, w)))   # <A^j v, v> with vdot = conj(v).w
        w = A @ w
    return np.array(out)


def jacobi_cf_eval(d, a, b, z):
    """Q(z) evaluated from the continued fraction
    -1/(z - d - a0^2/(z - b1 - a1^2/(z - b2 - ...))), innermost level first."""
    acc = 0.0 + 0.0j
    for ak, bk in zip(reversed(a[1:]), reversed(b[1:])):
        acc = ak * ak / (z - bk - acc)
    tail = a[0] * a[0] / (z - b[0] - acc) if b else 0.0
    return -1.0 / (z - d - tail)


# ---------------------------------------------------------------------------
# assorted checks
# ---------------------------------------------------------------------------

def conjugate_system(T, in_dim, out_dim, U):
    """State-space change of basis by a unitary U (inputs/outputs fixed)."""
    T = np.asarray(T, dtype=complex)
    dim_state = T.shape[0] - out_dim
    W_out = np.zeros((T.shape[0], T.shape[0]), dtype=complex)
    W_out[:out_dim, :out_dim] = np.eye(out_dim)
    W_out[out_dim:, out_dim:] = U
    W_in = np.zeros((T.shape[1], T.shape[1]), dtype=complex)
    W_in[:in_dim, :in_dim] = np.eye(in_dim)
    W_in[in_dim:, in_dim:] = U
    assert U.shape == (dim_state, dim_state)
    return W_out @ T @ W_in.conj().T


def step_energies(T, in_dim, out_dim, inputs, h0):
    """Sequence of (||h_k||^2 + ||xi_k||^2 - ||h_{k+1}||^2 - ||sigma_k||^2)."""
    T = np.asarray(T, dtype=complex)
    D = T[:out_dim, :in_dim]
    C = T[:out_dim, in_dim:]
    B = T[out_dim:, :in_dim]
    A = T[out_dim:, in_dim:]
    h = np.asarray(h0, dtype=complex)
    gaps = []
    for xi in inputs:
        xi = np.asarray(xi, dtype=complex)
        sig = C @ h + D @ xi
        h_next = A @ h + B @ xi
        gaps.append(
            np.linalg.norm(h) ** 2 + np.linalg.norm(xi) ** 2
            - np.linalg.norm(h_next) ** 2 - np.linalg.norm(sig) ** 2
        )
        h = h_next
    return np.array(gaps)


# ---------------------------------------------------------------------------
# unitary part of a contraction by intersecting power-defect kernels
# ---------------------------------------------------------------------------

def _kernel(M, rank_tol=1e-10):
    """Orthonormal null-space basis by a full SVD, relative cutoff."""
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rank_tol * s.max(initial=0.0)))
    return Vh[rank:].conj().T


def cnu_unitary_split_by_power_kernels(A, rank_tol=1e-10):
    """(unitary part, cnu part) of a contraction A as orthonormal bases.

    The unitary part is the set of f with ||A^k f|| = ||A*^k f|| = ||f|| for
    k = 1..n: the common kernel of I - A*^k A^k and I - A^k A*^k, intersected
    one kernel at a time as the kernel of [I - P_U; I - P_V].  The cnu part
    is the kernel of the unitary basis' adjoint."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    current = eye
    An = eye
    for _ in range(n):
        An = An @ A
        for G in (eye - An.conj().T @ An, eye - An @ An.conj().T):
            ker = _kernel((G + G.conj().T) / 2, rank_tol)
            stacked = np.vstack([eye - current @ current.conj().T, eye - ker @ ker.conj().T])
            current = _kernel(stacked, rank_tol)
        if current.shape[1] == 0:
            break
    return current, _kernel(current.conj().T, rank_tol)


# ---------------------------------------------------------------------------
# defect-based minimality of a normal system by principal angles
# ---------------------------------------------------------------------------

def defect_route_by_principal_angles(E, bases, rank_tol=1e-10):
    """The defect-based minimality verdicts (controllable, observable, simple,
    minimal) by principal angles, from an orthonormal basis E (s x r) of
    ran D_A and orthonormal bases Q of span{A^n M}, span{A*^n K*} and their
    sum: each verdict holds when ker D_A = {0} (r = s) and ran D_A meets the
    orthogonal complement of the span only in 0, that is when all r
    singular values of Q* E (the cosines of the principal angles) exceed
    rank_tol.  Minimal is controllable and observable."""
    s, r = E.shape

    def clear(Q):
        cos = np.linalg.svd(Q.conj().T @ E, compute_uv=False)
        return r == s and int(np.count_nonzero(cos > rank_tol)) == r

    c, o, j = (clear(Q) for Q in bases)
    return c, o, j, c and o


# ---------------------------------------------------------------------------
# per-cluster and per-atom loops, references for the stacked kernels
# ---------------------------------------------------------------------------

def cluster_span_loop(t, comps, thresh, gap):
    """(cluster, rank, basis part) for each eigenvalue cluster of the ascending
    t (contiguous slices, split where neighbours lie more than gap apart),
    with one SVD of the cluster rows of comps per cluster: the rank counts
    the singular values above thresh, and the basis part is the leading rank
    left singular vectors, in the cluster's coordinates."""
    edges = [0] + [i + 1 for i in range(len(t) - 1) if t[i + 1] - t[i] > gap] + [len(t)]
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        c = slice(a, b)
        U, sv, _ = np.linalg.svd(comps[c], full_matrices=False)
        rank = int(np.count_nonzero(sv > thresh))
        out.append((c, rank, U[:, :rank]))
    return out


def w_sum_loop(atoms, lam):
    """W(lambda) = sum_k lambda (1 - t_k^2) / (1 - t_k lambda) Sigma_k, one atom
    at a time in Python complex arithmetic."""
    lam = complex(lam)
    acc = np.zeros_like(np.asarray(atoms[0][1], dtype=complex))
    for t, sigma in atoms:
        acc = acc + (lam * (1.0 - t * t) / (1.0 - t * lam)) * np.asarray(sigma, dtype=complex)
    return acc


def first_pole_atom(atoms, lam, rel=1e-12):
    """Index of the first atom, in atom order, whose pole 1/t_k the point lam
    hits (|1 - t_k lam| <= rel * max(1, |lam|)), or None."""
    lam = complex(lam)
    for k, (t, _) in enumerate(atoms):
        if abs(1.0 - t * lam) <= rel * max(1.0, abs(lam)):
            return k
    return None
