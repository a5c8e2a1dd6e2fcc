"""Dense complex linear-algebra kernel.

Defect operators, PSD square roots, pseudoinverses, range/kernel bases,
Krylov spans, operator predicates, and the splitting of a contraction into
its unitary and completely nonunitary parts.

Matrices are plain numpy arrays with complex entries.  Subspaces are
carried as explicit orthonormal column bases (`SubspaceBasis`) so that
"the restriction of an operator to a subspace" is an ordinary matrix in
that basis.  All rank decisions are relative: a singular value sigma
counts as zero when sigma <= rank_tol * sigma_max.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonSquare, NotAContraction, NotHermitian, NotPSD, PqsysError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the library.

    rank_tol : singular-value cutoff, relative to the largest
    eq_tol   : residual norm accepted for identity checks
    psd_tol  : magnitude of negative eigenvalues tolerated (then clamped)
    grid_tol : looser bound for boundary/grid checks
    """

    rank_tol: float = 1e-10
    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    grid_tol: float = 1e-7

    def __post_init__(self):
        for name in ("rank_tol", "eq_tol", "psd_tol", "grid_tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


DEFAULT_TOL = Tolerances()


def as_matrix(obj) -> np.ndarray:
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    M = np.asarray(obj, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def operator_norm(M) -> float:
    M = as_matrix(M)
    if 0 in M.shape:
        return 0.0
    return float(np.linalg.norm(M, 2))


# Relative slack on the Frobenius brackets of `norm_at_most`: a comparison
# this close to a tie goes to the exact spectral norms, so rounding in the
# two kinds of norm cannot decide it differently.
_FRO_SLACK = 1e-12


def _fro_bracket(M: np.ndarray) -> tuple[float, float]:
    """Lower and upper bound of ||M||_2 from ||M||_F / sqrt(rank) <= ||M||_2 <= ||M||_F,
    with the rank bounded by the smaller dimension."""
    fro = float(np.linalg.norm(M))
    return fro / math.sqrt(max(1, min(M.shape))) * (1 - _FRO_SLACK), fro * (1 + _FRO_SLACK)


def norm_at_most(R, bound: float, scale=None, floor: float = 0.0) -> bool:
    """Decide ||R||_2 <= bound * max(floor, ||scale||_2), or ||R||_2 <= bound
    when no scale is given, as the exact spectral norms would.

    Both norms are first bracketed by Frobenius norms: the test accepts when
    the upper bracket of ||R|| meets the lower bracket of the threshold,
    rejects when the lower bracket of ||R|| exceeds the upper bracket of the
    threshold, and computes singular values only when neither settles it."""
    R = as_matrix(R)
    lo = hi = bound
    if scale is not None:
        S = as_matrix(scale)
        s_lo, s_hi = _fro_bracket(S)
        lo, hi = bound * max(floor, s_lo), bound * max(floor, s_hi)
    r_lo, r_hi = _fro_bracket(R)
    if r_hi <= lo:
        return True
    if r_lo > hi:
        return False
    if scale is not None:
        bound = bound * max(floor, operator_norm(S))
    return operator_norm(R) <= bound


def herm_part(M) -> np.ndarray:
    M = as_matrix(M)
    return (M + M.conj().T) / 2.0


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column basis of a subspace of C^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), basis* basis = I

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "SubspaceBasis":
        return kernel_basis(self.basis.conj().T)

    @staticmethod
    def full(n: int) -> "SubspaceBasis":
        return SubspaceBasis(n, np.eye(n, dtype=complex))

    @staticmethod
    def zero(n: int) -> "SubspaceBasis":
        return SubspaceBasis(n, np.zeros((n, 0), dtype=complex))


# ---------------------------------------------------------------------------
# elementary factorizations
# ---------------------------------------------------------------------------

def pinv(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    M = as_matrix(M)
    if 0 in M.shape:
        return np.zeros((M.shape[1], M.shape[0]), dtype=complex)
    return np.linalg.pinv(M, rcond=tol.rank_tol)


def psd_sqrt(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below psd_tol are clamped to 0."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"psd_sqrt needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return M.copy()
    if not is_selfadjoint(M, tol):
        raise NotHermitian("psd_sqrt: matrix is not Hermitian")
    w, U = np.linalg.eigh(herm_part(M))
    return (U * _sqrt_psd_eigs(w, tol)) @ U.conj().T


def contraction_defect(X, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(I - X*X)^{1/2} on the domain of X (size = cols), from one thin SVD
    (`_svd_defects`, which clamps by the `psd_sqrt` rule and raises NotPSD)."""
    return _svd_defects(X, tol).DA


def _sqrt_psd_eigs(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Square roots of the eigenvalues w of a Hermitian matrix, values below
    psd_tol clamped to 0; NotPSD when the smallest is below -psd_tol * max(max|w|, 1)."""
    low = w.min(initial=0.0)
    if low < -tol.psd_tol * max(float(np.abs(w).max(initial=0.0)), 1.0):
        raise NotPSD(f"psd_sqrt: eigenvalue {low:.3e} below -psd_tol")
    return np.sqrt(np.where(w < tol.psd_tol, 0.0, w))


def _defect_values(s: np.ndarray, n: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(1 - s^2) for the singular values (or eigenvalues) s, clamped and
    checked by the `psd_sqrt` rule and padded with ones to n entries, and the
    mask of those the `range_basis` rank rule keeps, d > rank_tol * max d."""
    d = np.append(_sqrt_psd_eigs(1.0 - s * s, tol), np.ones(n - s.size))
    return d, d > tol.rank_tol * d.max(initial=0.0)


def range_basis(M, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space."""
    M = as_matrix(M)
    if 0 in M.shape:
        return SubspaceBasis.zero(M.shape[0])
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol.rank_tol * s[0])) if s[0] > 0 else 0
    return SubspaceBasis(M.shape[0], U[:, :rank])


def kernel_basis(M, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the null space."""
    M = as_matrix(M)
    if M.shape[1] == 0:
        return SubspaceBasis.zero(0)
    if M.shape[0] == 0:
        return SubspaceBasis.full(M.shape[1])
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > tol.rank_tol * s.max(initial=0.0)))
    return SubspaceBasis(M.shape[1], Vh[rank:].conj().T)


def subspace_intersection(U, V, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Intersection of two subspaces given by orthonormal bases.

    A vector lies in both subspaces iff it is annihilated by both
    complementary projections, so the intersection is the kernel of the
    stacked matrix [I - P_U; I - P_V].
    """
    BU = U.basis if isinstance(U, SubspaceBasis) else as_matrix(U)
    BV = V.basis if isinstance(V, SubspaceBasis) else as_matrix(V)
    n = BU.shape[0]
    if BV.shape[0] != n:
        raise ValueError("ambient dimensions differ")
    PU = BU @ BU.conj().T
    PV = BV @ BV.conj().T
    eye = np.eye(n, dtype=complex)
    stacked = np.vstack([eye - PU, eye - PV])
    # the stack of two complement projections has unit-scale top singular
    # values whenever the intersection is proper, so the relative cutoff in
    # kernel_basis is the right rank rule here as well
    return kernel_basis(stacked, tol)


def krylov_span(A, B, max_deg: int, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of span{A^n B e_j : n = 0..max_deg, all j}, by band
    Arnoldi.

    Candidates come from a FIFO queue: the columns of B, then A q for every
    accepted basis vector q of degree below max_deg.  Each candidate is
    orthogonalized against the basis by two passes of Gram-Schmidt and is
    dropped when its residual norm is at most
    rank_tol * max(||B||_2, ||candidate||); otherwise the normalized
    residual joins the basis.  The procedure uses only inner products,
    norms and linear combinations, so for A2 = U A1 U* and B2 = U B1 with U
    unitary it returns U times the basis it returns for (A1, B1).  Unlike
    the monomial matrix [B, AB, A^2 B, ...], whose columns align with the
    dominant eigenvectors, it keeps full rank until the span saturates.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise NonSquare("krylov_span needs a square A")
    if B.shape[0] != n:
        raise ValueError("B has wrong ambient dimension")
    floor = tol.rank_tol * operator_norm(B)
    cap = min(n, B.shape[1] * (max(max_deg, 0) + 1))
    Q = np.empty((n, cap), dtype=complex, order="F")
    k = 0
    queue = deque((B[:, j], 0) for j in range(B.shape[1]))
    while queue and k < cap:
        w, deg = queue.popleft()
        thresh = max(floor, tol.rank_tol * float(np.linalg.norm(w)))
        for _ in range(2):
            # Q* w as conj(w* Q): no conjugated copy of the basis
            w = w - Q[:, :k] @ (w.conj() @ Q[:, :k]).conj()
        beta = float(np.linalg.norm(w))
        if beta <= thresh:
            continue
        Q[:, k] = w / beta
        if deg < max_deg:
            queue.append((A @ Q[:, k], deg + 1))
        k += 1
    return SubspaceBasis(n, Q[:, :k].copy())


# Eigenvalues of a selfadjoint operator closer than this (absolute) gap are
# chained into one cluster and treated as one eigenvalue.
CLUSTER_GAP = 1e-8


def eigen_clusters(t: np.ndarray) -> list[slice]:
    """Contiguous slices of the ascending eigenvalues t, split wherever two
    neighbours lie more than CLUSTER_GAP apart."""
    cuts = np.flatnonzero(np.diff(t) > CLUSTER_GAP) + 1
    edges = [0, *cuts.tolist(), t.size]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def gram_defect(s: np.ndarray, k: int) -> float:
    """||I_k - X*X||_2 for a matrix X with k columns and singular values s:
    the largest |1 - s^2| with the squares padded by zeros to k entries.
    With k the number of rows it is ||I - XX*||_2."""
    d = float(np.max(np.abs(1.0 - s * s), initial=0.0))
    return max(d, 1.0) if k > s.size else d


# ---------------------------------------------------------------------------
# contraction predicates and defect operators
# ---------------------------------------------------------------------------

def is_contraction(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    return operator_norm(A) <= 1.0 + tol.rank_tol


def _require_contraction(nrm: float, tol: Tolerances):
    if nrm > 1.0 + tol.rank_tol:
        raise NotAContraction(f"operator norm {nrm:.12f} exceeds 1")


def defect_operator(A, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """D_A = (I - A*A)^{1/2} on the domain space of A (size = cols)."""
    return _svd_defects(A, tol, contraction=True).DA


def defect_basis(A, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the defect space ran D_A."""
    E = _svd_defects(A, tol, contraction=True, basis=True).E_A
    return SubspaceBasis(E.shape[0], E)


class DefectData(NamedTuple):
    """Defect operators of A and A* with orthonormal range bases.

    For normal A the two defect operators coincide; in that case the very
    same matrix and basis are reused on both sides, so that operators
    between the two defect spaces are expressed in one coherent basis.
    For selfadjoint A the shared basis consists of eigenvectors of A, and
    `t` holds their eigenvalues, column by column; otherwise `t` is None
    and the bases are right (E_A) and left (E_As) singular vectors of A.
    """

    DA: np.ndarray       # (I - A*A)^{1/2} on the domain
    DAs: np.ndarray      # (I - AA*)^{1/2} on the codomain
    E_A: np.ndarray      # columns: orthonormal basis of ran D_A
    E_As: np.ndarray     # columns: orthonormal basis of ran D_{A*}
    t: np.ndarray | None = None

    def adjoint(self) -> "DefectData":
        """The defect data of A*, in the same bases."""
        return DefectData(self.DAs, self.DA, self.E_As, self.E_A, self.t)


def _svd_defects(X, tol: Tolerances, contraction: bool = False, basis: bool = False,
                 adjoint: bool = False) -> DefectData:
    """Defect data of X from one SVD X = U diag(s) W*, d = sqrt(1 - s^2) by
    `_defect_values`: D_X = W diag(d) W*, with adjoint D_{X*} = U diag(d) U*,
    with basis the singular vectors that rule keeps (else None).  The SVD is
    thin unless a basis needs the vectors it omits; where vectors outnumber s
    the defect is I + W diag(d - 1) W*.  An isometric X gets an exactly zero
    defect.  With contraction, NotAContraction comes first if max s > 1 + rank_tol."""
    X = as_matrix(X)
    rows, cols = X.shape
    U, s, Wh = np.linalg.svd(X, full_matrices=basis and (rows < cols or (adjoint and rows > cols)))
    if contraction:
        _require_contraction(s.max(initial=0.0), tol)
    D, E = _defect_side(Wh.conj().T, s, cols, tol, basis)
    Ds, Es = _defect_side(U, s, rows, tol, basis) if adjoint else (None, None)
    return DefectData(D, Ds, E, Es)


def _defect_side(Q: np.ndarray, s: np.ndarray, n: int, tol: Tolerances, basis: bool):
    """The defect on C^n from the singular vectors Q of one side, and its range
    basis when asked for (Q then holds all n vectors)."""
    d, keep = _defect_values(s, Q.shape[1], tol)
    if s.size == n:
        D = (Q * d) @ Q.conj().T
    else:
        Qs = Q[:, :s.size]
        D = (Qs * (d[:s.size] - 1.0)) @ Qs.conj().T
        D[np.diag_indices(n)] += 1.0
    return D, Q[:, keep] if basis else None


_EIGH_ROUNDING = 10  # see `hermitian_eigh`


def hermitian_eigh(A, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues t (ascending) and eigenvectors V of H = (A + A*)/2 for a
    nonempty square A that passes `is_selfadjoint`, or None for any other A.

    A real diagonal A is its own factorization (V a real permutation).
    Otherwise eigh factors H (A itself, bit for bit, when A is bitwise
    Hermitian), and PqsysError is raised when ||HV - V diag(t)||_F exceeds
    max(eq_tol, _EIGH_ROUNDING * s * eps) * max(1, max|t|) for s x s A and
    machine epsilon eps: a floor above eigh's own rounding (2.97e-14 at
    s = 400 against 8.9e-13), which a smaller eq_tol does not undercut."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] == 0 or not is_selfadjoint(A, tol):
        return None
    diag = np.diagonal(A)
    if not np.any(diag.imag) and np.count_nonzero(A) == np.count_nonzero(diag):
        order = np.argsort(diag.real, kind="stable")
        V = np.zeros(A.shape)  # real: half the memory of a complex permutation
        V[order, np.arange(order.size)] = 1.0
        return diag.real[order], V
    H = herm_part(A)
    t, V = np.linalg.eigh(H)
    # column blocks keep the residual's temporaries small
    sq = 0.0
    for j in range(0, t.size, 128):
        cols = slice(j, j + 128)
        blk = H @ V[:, cols]
        blk -= V[:, cols] * t[cols]
        sq += float(np.linalg.norm(blk)) ** 2
    rel = max(tol.eq_tol, _EIGH_ROUNDING * t.size * np.finfo(float).eps)
    if math.sqrt(sq) > rel * max(1.0, float(np.abs(t).max())):
        raise PqsysError(f"eigendecomposition of a selfadjoint matrix misses it by {math.sqrt(sq):.3e}")
    return t, V


def defect_data(A, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """D_A, D_{A*} and their range bases: from the one `eigh` of a selfadjoint
    A (`hermitian_defect_data`), else from one SVD A = U diag(s) W*
    (`_svd_defects`), D_A = W diag(d) W* and D_{A*} = U diag(d) U*.  When the
    two defects agree to eq_tol, D_A and its basis serve both sides."""
    A = as_matrix(A)
    eig = hermitian_eigh(A, tol)
    if eig is not None:
        return hermitian_defect_data(*eig, tol)
    dd = _svd_defects(A, tol, contraction=True, basis=True, adjoint=True)
    if dd.DA.shape == dd.DAs.shape and norm_at_most(dd.DA - dd.DAs, tol.eq_tol):
        return DefectData(dd.DA, dd.DA, dd.E_A, dd.E_A)
    return dd


def hermitian_defect(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, slice]:
    """sqrt(1 - t^2) at the ascending eigenvalues t of a selfadjoint A, and the
    slice of t with nonzero defect, by the contraction, clamping and rank
    rules of `_svd_defects` on the exact eigenvalues."""
    _require_contraction(np.abs(t).max(initial=0.0), tol)
    d, keep = _defect_values(t, t.size, tol)
    # 1 - t^2 is unimodal in the ascending t, so the kept eigenvalues are contiguous
    keep = np.flatnonzero(keep)
    return d, slice(keep[0], keep[-1] + 1) if keep.size else slice(0, 0)


def hermitian_defect_data(t: np.ndarray, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """D_A = D_{A*} = V diag(sqrt(1 - t^2)) V* from A = V diag(t) V*, with the
    eigenvectors of nonzero defect (`hermitian_defect`) as the shared range
    basis."""
    d, cols = hermitian_defect(t, tol)
    # V d V* formed as conj(conj(V d) V^T), which needs no conjugated copy of V
    W = V * d
    np.conj(W, out=W)
    DA = W @ V.T
    del W
    np.conj(DA, out=DA)
    return DefectData(DA, DA, V[:, cols], V[:, cols], t[cols])


def is_strict_contraction(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff no nonzero vector has its norm preserved by A, i.e.
    ker(I - A*A) = {0} to working precision: `defect_basis` spans the domain."""
    E = _svd_defects(A, tol, contraction=True, basis=True).E_A
    return E.shape[1] == E.shape[0]


def is_selfadjoint(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The library's one selfadjointness rule: ||A - A*||_2 <= eq_tol * max(1, ||A||_2)."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("selfadjointness needs a square matrix")
    return norm_at_most(A - A.conj().T, tol.eq_tol, A, 1.0)


def is_normal(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("normality needs a square matrix")
    AhA = A.conj().T @ A
    # ||A*A|| = ||A||^2 is the scale of the commutator
    return norm_at_most(AhA - A @ A.conj().T, tol.eq_tol, AhA, 1e-300)


class StrongLimit(NamedTuple):
    value: np.ndarray
    converged: bool
    power: int


def strong_limit_SA(A, max_power: int = 500, tol: Tolerances = DEFAULT_TOL) -> StrongLimit:
    """Limit of A^{*n} A^n, approximated by the first power at which two
    successive iterates agree to eq_tol.  Non-convergence within
    max_power is reported through the flag, not an error."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("strong_limit_SA needs a square matrix")
    _require_contraction(operator_norm(A), tol)
    P = np.eye(A.shape[0], dtype=complex)
    for n in range(1, max_power + 1):
        P_next = A.conj().T @ P @ A
        if operator_norm(P_next - P) <= tol.eq_tol:
            return StrongLimit(P_next, True, n)
        P = P_next
    return StrongLimit(P, False, max_power)


def cnu_unitary_split(A, tol: Tolerances = DEFAULT_TOL) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Split C^n into the largest subspace on which A acts unitarily and
    its orthogonal complement.

    The unitary part consists of the vectors with ||A^n f|| = ||A^{*n} f||
    = ||f|| for n up to the dimension; at finite dimension the kernel
    chain of the power defects stabilizes within dim steps.  Returns
    (unitary_part, cnu_part).
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("cnu_unitary_split needs a square matrix")
    _require_contraction(operator_norm(A), tol)
    n = A.shape[0]
    if n == 0:
        return SubspaceBasis.zero(0), SubspaceBasis.zero(0)
    eye = np.eye(n, dtype=complex)
    current = SubspaceBasis.full(n)
    An = eye
    for _ in range(n):
        An = An @ A
        for G in (eye - An.conj().T @ An, eye - An @ An.conj().T):
            ker = kernel_basis(herm_part(G), tol)
            current = subspace_intersection(current, ker, tol)
        if current.dim == 0:
            break
    return current, current.complement()
