"""Dense complex linear-algebra kernel.

Defect operators, PSD square roots, range bases, Krylov spans, operator
predicates, and the splitting of a contraction into its unitary and
completely nonunitary parts.

Matrices are plain numpy arrays with complex entries.  Subspaces are
carried as explicit orthonormal column bases (`SubspaceBasis`) so that
"the restriction of an operator to a subspace" is an ordinary matrix in
that basis.  Rank decisions are relative: a singular value sigma counts
as zero when sigma <= rank_tol * sigma_max.  A defect square 1 - s^2 counts
as zero below the rounding floor of the factorization it came from
(`_svd_defects`).
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonSquare, NotAContraction, NotHermitian, NotPSD, PqsysError, check


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the library.

    rank_tol : singular-value cutoff, relative to the largest
    eq_tol   : residual norm accepted for identity checks
    psd_tol  : magnitude of negative eigenvalues tolerated, and the clamp of
               `psd_sqrt`; a defect square is zero by the rounding floor of
               its factorization instead (`_svd_defects`)
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
    """||M||_2: exactly, by `_arrow_norm`, for a matrix with a diagonal
    trailing block and a thin border, else from the singular values."""
    M = as_matrix(M)
    if 0 in M.shape:
        return 0.0
    nrm = _arrow_norm(M)
    return float(np.linalg.norm(M, 2)) if nrm is None else nrm


# `_arrow_norm` looks at a matrix only with at least _ARROW_MIN rows and
# columns, and takes its route only when the border is at most 1/_ARROW_BORDER
# of the diagonal block: a thicker border would cost about as much as the SVD.
_ARROW_MIN = 64
_ARROW_BORDER = 8


def _arrow_norm(M: np.ndarray) -> float | None:
    """||M||_2 of a finite complex N1 x N2 matrix M = [[D, C], [B, diag(lam)]]
    whose trailing s x s block is diagonal, with a border of p = N1 - s rows
    and q = N2 - s columns, max(p, q) <= s / _ARROW_BORDER: one O(N1 N2)
    scan finds the border, and each bisection step costs
    O(s (p + q)^2 + (p + q)^3).  None for any other M, and without a look
    past two entries when the ones beside the last diagonal entry are not
    both zero.

    ||M|| <= g exactly when [[gI, M], [M*, gI]] is PSD.  Pairing the two
    copies of each state coordinate makes its state part block diagonal with
    2 x 2 blocks [[g, lam_k], [conj lam_k, g]]; for g > max|lam| that part is
    positive definite, and the matrix is PSD exactly when the (p+q) x (p+q)
    Schur complement (`_arrow_schur`) is.  Its lowest eigenvalue rises with
    slope at least 1 in g and has its root at ||M||, so bisection between
    max|lam| and ||M||_F runs to adjacent floats, and the rounding of that
    eigenvalue bounds the error of the norm.  The blocks and lam are first
    divided by a power of two near max|M_ij| (exactly), so no entry of the
    complement overflows."""
    N1, N2 = M.shape
    k = min(N1, N2)
    if k < _ARROW_MIN or M[-1, -2] != 0 or M[-2, -1] != 0:
        return None
    s = k - _diagonal_tail_start(M[N1 - k:, N2 - k:])
    p, q = N1 - s, N2 - s
    if _ARROW_BORDER * max(p, q) > s:
        return None
    blocks = [M[:p, :q], M[:p, q:], M[p:, :q], np.diagonal(M[p:, q:])]
    top = max(float(np.abs(X).max(initial=0.0)) for X in blocks)
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    D, C, B, lam = (X / scale for X in blocks)
    a = np.abs(lam)
    top_lam = lo = float(a.max())
    if p + q == 0:
        return lo * scale
    hi = math.sqrt(sum(float(np.linalg.norm(X)) ** 2 for X in (D, C, B, lam)))
    while True:
        mid = lo + (hi - lo) / 2
        if not lo < mid < hi:
            break
        if np.linalg.eigvalsh(_arrow_schur(D, C, B, lam, a, mid))[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    # PSD at every step: ||M|| lies within one float of max|lam|, which it
    # equals when the largest |lam| has no coupling to the border
    return (hi if lo > top_lam else lo) * scale


def _diagonal_tail_start(Z: np.ndarray) -> int:
    """The least b for which the trailing block Z[b:, b:] of a square Z is
    diagonal: the block is diagonal once no row from b on has an off-diagonal
    entry in a column from b on."""
    nz = Z != 0
    np.fill_diagonal(nz, False)
    k = nz.shape[0]
    last = np.where(nz.any(axis=1), k - 1 - nz[:, ::-1].argmax(axis=1), -1)
    clean = np.maximum.accumulate(last[::-1])[::-1] < np.arange(k)
    return int(clean.argmax()) if clean.any() else k


def _arrow_schur(D, C, B, lam, a, g: float) -> np.ndarray:
    """The Schur complement on the border of [[gI, M], [M*, gI]] for
    M = [[D, C], [B, diag(lam)]] and g > max|lam| = max a,
    [[gI - C diag(g/δ) C*, D + C diag(conj(lam)/δ) B], [(.)*, gI - B* diag(g/δ) B]]
    with δ = (g - a)(g + a): the dilation is PSD exactly when it is."""
    delta = (g - a) * (g + a)  # g - a is exact near the boundary
    p, q = D.shape
    S = np.empty((p + q, p + q), dtype=complex)
    S[:p, :p] = -(C * (g / delta)) @ C.conj().T
    S[:p, p:] = D + (C * (lam.conj() / delta)) @ B
    S[p:, :p] = S[:p, p:].conj().T
    S[p:, p:] = -(B.conj().T * (g / delta)) @ B
    S[np.diag_indices(p + q)] += g
    return S


# The rounding band of `_arrow_within`: its verdict is open while
# |lambda_min(S)| of the computed Schur complement S is at most
# _ARROW_ROUNDING (s + p + q) eps times the summed magnitudes of the terms of S.
_ARROW_ROUNDING = 8


def _arrow_within(D, C, B, lam, g: float) -> bool | None:
    """Whether ||M||_2 <= g for M = [[D, C], [B, diag(lam)]], D p x q, lam of
    size s: False when max|lam| > g; with no border (p = q = 0) True; None
    when max|lam| = g, when S (`_arrow_schur`) or δ leaves the normal
    floating-point range, or when lambda_min(S) lies within the rounding band
    of 0; else whether lambda_min(S) > 0.

    Each entry of S sums at most s + 1 terms, so rounding moves S by about
    (s + p + q) eps times the Frobenius norm of the matrix of term magnitudes,
    at most g sqrt(p + q) + 2 ||D||_F
    + sum_k (g (|c_k|^2 + |b_k|^2) + 2 |lam_k| |c_k| |b_k|) / δ_k for the
    columns c_k of C and rows b_k of B; that also bounds ||S||_2, hence the
    rounding of eigvalsh.  The band is _ARROW_ROUNDING times this.  ||S||
    alone would not do: near the verdict gI and C diag(g/δ) C* cancel.  A
    complex lam enters through |lam|, rounded by an ulp."""
    a = np.abs(lam)
    top = float(a.max(initial=0.0))
    if top > g:
        return False
    p, q = D.shape
    if p + q == 0:
        return True
    if top == g:
        return None
    with np.errstate(all="ignore"):
        S = _arrow_schur(D, C, B, lam, a, g)
        delta = (g - a) * (g + a)
        c2 = (C.real ** 2 + C.imag ** 2).sum(axis=0)
        b2 = (B.real ** 2 + B.imag ** 2).sum(axis=1)
        terms = (g * (c2 + b2) + 2 * a * np.sqrt(c2 * b2)) / delta
        mag = g * math.sqrt(p + q) + 2 * float(np.linalg.norm(D)) + float(terms.sum())
    band = _ARROW_ROUNDING * (a.size + p + q) * float(np.finfo(float).eps) * mag
    # a δ below the normal range has lost the relative accuracy the band assumes
    if not (math.isfinite(band) and np.isfinite(S).all() and delta.min(initial=1.0) >= np.finfo(float).tiny):
        return None
    low = float(np.linalg.eigvalsh(S)[0])
    if low > band:
        return True
    return False if low < -band else None


# Relative slack on the Frobenius brackets of `norm_at_most`: a comparison
# this close to a tie goes to the exact spectral norms, so rounding in the
# two kinds of norm cannot decide it differently.
_FRO_SLACK = 1e-12


def _fro_settles(r_fro, r_rank: int, bound: float, s_fro=None, s_rank: int = 1, floor: float = 0.0):
    """(accept, reject): whether the Frobenius norms r_fro of R and s_fro of a
    scale S, of ranks at most r_rank and s_rank, settle ||R||_2 <= bound *
    max(floor, ||S||_2) (<= bound without a scale) either way, through
    ||M||_F / sqrt(rank) <= ||M||_2 <= ||M||_F; elementwise for arrays of norms.
    A Frobenius norm that overflowed to inf settles nothing."""
    lo = hi = bound
    finite = np.isfinite(r_fro)
    if s_fro is not None:
        lo = bound * np.maximum(floor, s_fro / math.sqrt(max(1, s_rank)) * (1 - _FRO_SLACK))
        hi = bound * np.maximum(floor, s_fro * (1 + _FRO_SLACK))
        finite = finite & np.isfinite(s_fro)
    return (finite & (r_fro * (1 + _FRO_SLACK) <= lo),
            finite & (r_fro / math.sqrt(max(1, r_rank)) * (1 - _FRO_SLACK) > hi))


def norm_at_most(R, bound: float, scale=None, floor: float = 0.0) -> bool:
    """Decide ||R||_2 <= bound * max(floor, ||scale||_2), or ||R||_2 <= bound
    when no scale is given, as the exact spectral norms would.

    Both norms are first bracketed by Frobenius norms (`_fro_settles`): the
    test accepts when the upper bracket of ||R|| meets the lower bracket of
    the threshold, rejects when the lower bracket of ||R|| exceeds the upper
    bracket of the threshold, and computes singular values only when neither
    settles it."""
    R = as_matrix(R)
    S = None if scale is None else as_matrix(scale)
    return _norm_verdict(float(np.linalg.norm(R)), min(R.shape), lambda: R, bound, S, floor)


def _norm_verdict(r_fro: float, r_rank: int, residual, bound: float, S, floor: float) -> bool:
    """`norm_at_most` for a residual of Frobenius norm r_fro and rank at most
    r_rank, which residual() forms only when the brackets leave it open, and
    a scale S that is None or a checked matrix (`as_matrix`), not checked again."""
    s_fro = s_rank = None
    if S is not None:
        s_fro, s_rank = float(np.linalg.norm(S)), min(S.shape)
    accept, reject = _fro_settles(r_fro, r_rank, bound, s_fro, s_rank, floor)
    if accept:
        return True
    if reject:
        return False
    if S is not None:
        bound = bound * max(floor, operator_norm(S))
    return operator_norm(residual()) <= bound


def gap(R, bound: float):
    """The residual a check ||R||_2 <= bound records: ||R||_F where the
    Frobenius bracket of `norm_at_most` settles the check (`_fro_settles`),
    else the exact ||R||_2.  So the check passes exactly where the 2-norm
    does, a passing residual is an upper bound of ||R||_2 within bound, and a
    failing one is ||R||_2 itself.  A stack of shape (..., n, m) gives one
    value per matrix, as an array; a matrix gives a float."""
    R = np.asarray(R)
    stack = R if R.ndim > 2 else as_matrix(R)[None]
    gaps = np.linalg.norm(stack, axis=(-2, -1))
    for k in zip(*np.nonzero(~_fro_settles(gaps, 1, bound)[0])):
        gaps[k] = operator_norm(stack[k])
    return gaps if R.ndim > 2 else float(gaps[0])


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
        # the trailing columns of a complete QR of the basis: any of full column rank will do
        Q = np.linalg.qr(self.basis, mode="complete")[0]
        return SubspaceBasis(self.ambient_dim, Q[:, self.dim:])

    @staticmethod
    def zero(n: int) -> "SubspaceBasis":
        return SubspaceBasis(n, np.zeros((n, 0), dtype=complex))


# ---------------------------------------------------------------------------
# elementary factorizations
# ---------------------------------------------------------------------------

def psd_sqrt(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues below psd_tol are clamped to 0."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"psd_sqrt needs a square matrix, got {M.shape}")
    if not is_selfadjoint(M, tol):
        raise NotHermitian("psd_sqrt: matrix is not Hermitian")
    w, U = np.linalg.eigh(herm_part(M))
    return (U * _sqrt_psd_eigs(w, tol, tol.psd_tol)) @ U.conj().T


def _sqrt_psd_eigs(w: np.ndarray, tol: Tolerances, floor: float) -> np.ndarray:
    """Square roots of the eigenvalues w of a Hermitian matrix, values below
    floor clamped to 0; NotPSD when the smallest is below -psd_tol * max(max|w|, 1)."""
    low = w.min(initial=0.0)
    if low < -tol.psd_tol * max(float(np.abs(w).max(initial=0.0)), 1.0):
        raise NotPSD(f"psd_sqrt: eigenvalue {low:.3e} below -psd_tol")
    return np.sqrt(np.where(w < floor, 0.0, w))


def range_basis(M, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space."""
    M = as_matrix(M)
    if 0 in M.shape:
        return SubspaceBasis.zero(M.shape[0])
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol.rank_tol * s[0])) if s[0] > 0 else 0
    return SubspaceBasis(M.shape[0], U[:, :rank])


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
    neighbours lie more than CLUSTER_GAP apart.  For a stack of spectra of
    one length (one per row), the common partition: split only where every
    row has such a gap."""
    t = np.atleast_2d(t)
    cuts = np.flatnonzero(np.all(np.diff(t) > CLUSTER_GAP, axis=0)) + 1
    edges = [0, *cuts.tolist(), t.shape[1]]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def gram_defect(s: np.ndarray, k: int) -> float:
    """||I_k - X*X||_2 for a matrix X with k columns and singular values s:
    the largest |1 - s^2| with the squares padded by zeros to k entries.
    With k the number of rows it is ||I - XX*||_2."""
    d = float(np.max(np.abs(1.0 - s * s), initial=0.0))
    return max(d, 1.0) if k > s.size else d


def isometry_defect(X) -> float:
    """||I - X*X||_2 from one SVD of X (`gram_defect`)."""
    X = as_matrix(X)
    return gram_defect(np.linalg.svd(X, compute_uv=False) if X.size else np.zeros(0), X.shape[1])


# ---------------------------------------------------------------------------
# defect operators
# ---------------------------------------------------------------------------

def _require_contraction(nrm: float, tol: Tolerances):
    if nrm > 1.0 + tol.rank_tol:
        raise NotAContraction(f"operator norm {nrm:.12f} exceeds 1")


class DefectData(NamedTuple):
    """Defect operators of A and A* with orthonormal range bases and the
    defect values along them: D_A E_A = E_A diag(d_A), likewise for A*.
    Only `defect_data` forms the operators D_A and D_{A*} themselves; every
    other record (`hermitian_defect_data`, `sysmodel.main_defect_data`)
    holds the factors alone, with DA = DAs = None.

    For normal A the two defect operators coincide; in that case the very
    same data are reused on both sides, so that operators between the two
    defect spaces are expressed in one coherent basis.  For selfadjoint A
    the shared basis consists of eigenvectors of A, and `t` holds their
    eigenvalues, column by column; otherwise `t` is None and the bases are
    right (E_A) and left (E_As) singular vectors of A, on the larger side of
    a non-square A followed by the complement of the thin SVD's vectors
    (`DefectSide.basis`).
    """

    DA: np.ndarray | None    # (I - A*A)^{1/2} on the domain, or None
    DAs: np.ndarray | None   # (I - AA*)^{1/2} on the codomain, or None
    E_A: np.ndarray      # columns: orthonormal basis of ran D_A
    E_As: np.ndarray     # columns: orthonormal basis of ran D_{A*}
    d_A: np.ndarray      # sqrt(1 - s^2) (or sqrt(1 - t^2)) along E_A
    d_As: np.ndarray     # the same along E_As
    t: np.ndarray | None = None

    def adjoint(self) -> "DefectData":
        """The defect data of A*, in the same bases."""
        return DefectData(self.DAs, self.DA, self.E_As, self.E_A, self.d_As, self.d_A, self.t)


class DefectSide(NamedTuple):
    """The defect of one side of X = U diag(s) W* from its thin SVD: the
    operator D = I + Q diag(d - 1) Q* on that side's space, with Q the
    singular vectors of the side (W for D_X, U for D_{X*}) and
    d = sqrt(1 - s^2), zero where the defect rule of `_svd_defects` zeroes it.
    On the complement of Q the defect is 1.  D is applied (`apply`) and
    formed only on request (`dense`)."""

    Q: np.ndarray
    d: np.ndarray

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """D Y, for a vector or a matrix Y: O(size of Y times rank of Q)."""
        # the transposes let the row scaling reach a vector and a matrix alike
        return Y + self.Q @ ((self.d - 1.0) * (self.Q.conj().T @ Y).T).T

    def dense(self) -> np.ndarray:
        """D as a matrix: Q diag(d) Q* when Q is square (an isometric X gets
        an exactly zero defect), else I + Q diag(d - 1) Q*."""
        if self.Q.shape[0] == self.Q.shape[1]:
            return (self.Q * self.d) @ self.Q.conj().T
        return self.apply(np.eye(self.Q.shape[0], dtype=complex))

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """An orthonormal basis of ran D that diagonalizes D, and the defect
        values along it: the columns of Q with d > 0, then, when Q has fewer
        columns than rows, the trailing columns of a complete QR of Q (value 1)."""
        keep = self.d > 0
        E, d = self.Q[:, keep], self.d[keep]
        if self.Q.shape[0] == self.Q.shape[1]:
            return E, d
        rest = SubspaceBasis(self.Q.shape[0], self.Q).complement().basis
        return np.hstack([E, rest]), np.append(d, np.ones(rest.shape[1]))


def _svd_defects(X, tol: Tolerances, check=None) -> tuple[DefectSide, DefectSide]:
    """The defects D_X and D_{X*} of X from its one thin SVD
    X = U diag(s) W*, as the sides (W, d) and (U, d) of `DefectSide`.

    The library's one rule for a zero defect: a backward-stable SVD knows
    1 - s^2 only to a few n eps for n = max(X.shape), so a defect square
    below its rounding floor `_rounding(n)` is zero and every other one is
    kept, d = sqrt(1 - s^2) > 0; `hermitian_defect`, `sqs_membership` and
    `sysmodel.is_strongly_stable` read the same rule.  A square below
    -psd_tol raises NotPSD.  check(max s, tol), when given, is called before
    the sides are formed: `_require_contraction`, or a rule of the caller's.
    Every returned array is read-only."""
    X = as_matrix(X)
    U, s, Wh = np.linalg.svd(X, full_matrices=False)
    if check is not None:
        check(s.max(initial=0.0), tol)
    d = _sqrt_psd_eigs(1.0 - s * s, tol, _rounding(max(X.shape)))
    return tuple(_read_only(DefectSide(Q, d)) for Q in (Wh.conj().T, U))


_EIGH_ROUNDING = 10  # see `_hermitian_eigh` and `_svd_defects`


def _rounding(s: int) -> float:
    """_EIGH_ROUNDING * s * eps: the relative rounding floor the library allows
    an eigendecomposition or SVD of a matrix of largest dimension s, for
    machine epsilon eps."""
    return _EIGH_ROUNDING * s * float(np.finfo(float).eps)


def _eig_miss(M: np.ndarray, V: np.ndarray, w: np.ndarray) -> float:
    """||M V - V diag(w)||_F, by blocks of 128 columns, which keep the
    temporaries small."""
    sq = 0.0
    for j in range(0, w.size, 128):
        cols = slice(j, j + 128)
        blk = M @ V[:, cols]
        blk -= V[:, cols] * w[cols]
        sq += float(np.linalg.norm(blk)) ** 2
    return math.sqrt(sq)


def _hermitian_eigh(A, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Eigenvalues t (ascending) and eigenvectors V of H = (A + A*)/2 and
    ||A - A*||_F as the selfadjointness test measured it (`_skew_fro`), for a
    square A that passes `is_selfadjoint`; None for any other A.

    A real diagonal A, the empty one included, is its own factorization, with
    no selfadjointness scan (it passes the rule trivially, and its skew norm
    is 0): V is the index of the stable sort of its diagonal (see
    `_eig_coords`), not a matrix.
    Otherwise `_dense_eigh` factors H by eigh (A itself, bit for bit, when A
    is bitwise Hermitian), and PqsysError is raised when ||HV - V diag(t)||_F
    exceeds max(eq_tol, _EIGH_ROUNDING * s * eps) * max(1, max|t|) for s x s
    A and machine epsilon eps: a floor above eigh's own rounding (2.97e-14 at
    s = 400 against 8.9e-13), which a smaller eq_tol does not undercut."""
    A = as_matrix(A)
    eig = _real_diagonal_eig(A)
    return _dense_eigh(A, tol) if eig is None else (*eig, 0.0)


def _dense_eigh(A: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, float] | None:
    """`_hermitian_eigh` of a finite complex matrix (`as_matrix`) that
    `_real_diagonal_eig` has refused: neither O(s^2) scan is run again, and
    H is formed with no finiteness scan (`herm_part` would take one)."""
    if A.shape[0] != A.shape[1]:
        return None
    skew = _skew_fro(A)
    if not _selfadjoint_verdict(A, skew, tol):
        return None
    H = (A + A.conj().T) / 2.0
    t, V = np.linalg.eigh(H)
    rel = max(tol.eq_tol, _rounding(t.size))
    miss = _eig_miss(H, V, t)
    check("eigh_residual", miss, rel * max(1.0, float(np.abs(t).max())), PqsysError,
          f"eigendecomposition of a selfadjoint matrix misses it by {miss:.3e}")
    return t, V, skew


def _real_diagonal_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The ascending eigenvalues of a square real diagonal A and the index of
    their stable sort, its eigenbasis (`_eig_coords`): both empty for the
    empty A; None for any other A."""
    if A.shape[0] != A.shape[1]:
        return None
    diag = np.diagonal(A)
    if np.any(diag.imag) or np.count_nonzero(A) != np.count_nonzero(diag):
        return None
    perm = np.argsort(diag.real, kind="stable")
    return diag.real[perm], perm


# An eigenbasis V of a selfadjoint A is carried in one of two forms: the s x s
# matrix of its columns, or, for a real diagonal A, the integer index perm of
# the stable sort of the diagonal, whose column k is the unit vector e_perm[k].
# `_eig_coords`, `_eig_span` and `_formed_defects` are the only places
# that tell the forms apart; on an index they take entries by index, with the
# values, bit for bit, of the products with the real permutation matrix.

def _eig_coords(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """V* X, the rows of X in the eigenbasis V: X[perm] for an index."""
    if V.ndim == 1:
        return X[V]
    # (X* V)*, which needs no conjugated copy of V
    return (X.conj().T @ V).conj().T


def _eig_span(V: np.ndarray, cols: slice, Y: np.ndarray | None = None) -> np.ndarray:
    """V[:, cols] @ Y, or the columns V[:, cols] themselves when Y is None
    (real, for an index: identity columns)."""
    if V.ndim == 2:
        return V[:, cols] if Y is None else V[:, cols] @ Y
    rows = V[cols]
    if Y is None:
        out = np.zeros((V.size, rows.size))
        out[rows, np.arange(rows.size)] = 1.0
    else:
        out = np.zeros((V.size, Y.shape[1]), dtype=np.result_type(float, Y))
        out[rows] = Y
    return out


def defect_data(A, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """D_A, D_{A*}, their range bases and values: from the one `eigh` of a
    selfadjoint A (`hermitian_defect_data`), else from one thin SVD
    A = U diag(s) W* (`_svd_defects`).  This is the one place the library
    forms the two operators, from the factorization in hand
    (`_formed_defects`, `_svd_defect_data`); every other defect record
    holds the factors alone.
    When the two defects agree to eq_tol, the data of D_A serve both sides.
    Every returned array is read-only.

    A real diagonal A is its own factorization (`_real_diagonal_eig`): it is
    factored at every call, for the O(s^2) scan that finds it diagonal, and
    leaves the slot below as it is.  For any other A the last result is kept
    in one slot, keyed by the caller's array (a weak reference), a sha256
    digest of its shape and entries and tol: a call on
    the same live array with the same entries and equal tolerances returns
    the same DefectData for the cost of the digest, with no factorization.
    An array changed in place is factored again.  A miss clears the slot
    before it factors, and the slot is cleared when the caller's array dies,
    so it keeps at most one DefectData, and none beyond the life of the
    array it was computed from.  A list is factored at every call.  Each call
    checks the entries (`as_matrix`) and tests for a real diagonal once; a
    miss factors the checked matrix (`_factor_defects`) with neither scan
    run again."""
    global _defect_slot
    M = as_matrix(A)
    eig = _real_diagonal_eig(M)
    if eig is not None:
        return _read_only(_formed_defects(*eig, tol))
    memo = isinstance(A, np.ndarray)
    if memo:
        digest = _content_digest(M)
        dd = _slot_data(A, digest, tol)
        if dd is not None:
            return dd
    _defect_slot = None
    dd = _read_only(_factor_defects(M, tol))
    if memo:
        _defect_slot = _DefectEntry(weakref.ref(A, _clear_defect_slot), digest, tol, dd)
    return dd


def _factor_defects(A: np.ndarray, tol: Tolerances) -> DefectData:
    """`defect_data` of a finite complex matrix that `_real_diagonal_eig` has
    refused, by its factorization (`_dense_eigh`, else the SVD)."""
    eig = _dense_eigh(A, tol)
    return _svd_defect_data(A, tol) if eig is None else _formed_defects(*eig[:2], tol)


def _formed_defects(t: np.ndarray, V: np.ndarray, tol: Tolerances) -> DefectData:
    """`hermitian_defect_data` of A = V diag(t) V* with D_A = D_{A*} =
    V diag(sqrt(1 - t^2)) V* formed from the whole eigenbasis: for an index V
    (`_eig_coords`) the real diagonal with d[k] at entry V[k].  The product
    for a matrix V is not `DefectSide.dense`'s: the two agree in value, but
    not in the sign of some zero imaginary parts on the diagonal."""
    d = hermitian_defect(t, tol)[0]
    if V.ndim == 1:
        DA = np.diag(d[np.argsort(V)])
    else:
        # V d V* as conj(conj(V d) V^T), which needs no conjugated copy of V
        W = V * d
        DA = np.conj(W, out=W) @ V.T
        np.conj(DA, out=DA)
    return hermitian_defect_data(t, V, tol)._replace(DA=DA, DAs=DA)


def _svd_defect_data(A: np.ndarray, tol: Tolerances) -> DefectData:
    """`defect_data` of a matrix that `_hermitian_eigh` refuses, from its one
    thin SVD: each side's basis and values (`DefectSide.basis`) and its
    defect (`DefectSide.dense`), with the data of D_A on both sides when the
    two defects agree, a test that needs both operators formed."""
    dom, cod = _svd_defects(A, tol, _require_contraction)
    (E, d), (Es, ds) = dom.basis(), cod.basis()
    DA, DAs = dom.dense(), cod.dense()
    if DA.shape == DAs.shape and norm_at_most(DA - DAs, tol.eq_tol):
        return DefectData(DA, DA, E, E, d, d)
    return DefectData(DA, DAs, E, Es, d, ds)


def _read_only(arrays: tuple) -> tuple:
    """A tuple of arrays (a DefectData, a DefectSide), with every array in it
    made read-only."""
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return arrays


class _DefectEntry(NamedTuple):
    """The one slot of `defect_data`."""

    ref: weakref.ref     # the caller's array
    digest: bytes        # `_content_digest` of its matrix
    tol: Tolerances
    data: DefectData


_defect_slot: _DefectEntry | None = None


def _slot_data(A: np.ndarray, digest: bytes, tol: Tolerances) -> DefectData | None:
    """The DefectData in the slot when it was computed from this very array,
    with these entries and equal tolerances, else None."""
    entry = _defect_slot
    if entry is not None and entry.ref() is A and entry.digest == digest and entry.tol == tol:
        return entry.data
    return None


def _clear_defect_slot(ref: weakref.ref):
    """Called when the array of a slot's weak reference dies.  The slot is
    read once, here and in `_slot_data`: with no lock, a race between threads
    can lose an entry (a later miss), never return the data of another array."""
    global _defect_slot
    entry = _defect_slot
    if entry is not None and entry.ref is ref:
        _defect_slot = None


def _content_digest(M: np.ndarray) -> bytes:
    """sha256 of the shape and entries of a matrix, fed 128 rows at a time, so
    a non-contiguous M is copied one block at a time, never whole."""
    h = hashlib.sha256(repr(M.shape).encode())
    for j in range(0, M.shape[0], 128):
        h.update(np.ascontiguousarray(M[j:j + 128]))
    return h.digest()


def hermitian_defect(t: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, slice]:
    """sqrt(1 - t^2) at the ascending eigenvalues t of a selfadjoint A, and the
    slice of t with nonzero defect, by the contraction rule and the defect
    rule of `_svd_defects` on the eigenvalues: a square 1 - t^2 below
    `_rounding(t.size)`, the rounding floor of the eigendecomposition, is 0."""
    _require_contraction(np.abs(t).max(initial=0.0), tol)
    d = _sqrt_psd_eigs(1.0 - t * t, tol, _rounding(t.size))
    # 1 - t^2 is unimodal in the ascending t, so the kept eigenvalues are contiguous
    keep = np.flatnonzero(d)
    return d, slice(keep[0], keep[-1] + 1) if keep.size else slice(0, 0)


def hermitian_defect_data(t: np.ndarray, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """The factors of D_A = D_{A*} = V diag(sqrt(1 - t^2)) V* from
    A = V diag(t) V*: the eigenvectors of nonzero defect (`hermitian_defect`)
    and their values as the shared range basis and defect values, with t
    along them.  V is a matrix or an index (`_eig_coords`); an index gives
    the real identity columns.  D_A itself is not formed (DA = DAs = None):
    `defect_data` forms it (`_formed_defects`)."""
    d, cols = hermitian_defect(t, tol)
    E = _eig_span(V, cols)
    return DefectData(None, None, E, E, d[cols], d[cols], t[cols])


def is_selfadjoint(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The library's one selfadjointness rule: ||A - A*||_2 <= eq_tol * max(1, ||A||_2).

    The Frobenius brackets of `norm_at_most` are taken from ||A - A*||_F
    summed over blocks of rows (`_skew_fro`); the full difference is formed
    only when they leave the verdict open."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("selfadjointness needs a square matrix")
    return _selfadjoint_verdict(A, _skew_fro(A), tol)


def _selfadjoint_verdict(A: np.ndarray, skew: float, tol: Tolerances) -> bool:
    """`is_selfadjoint` of a square A with skew = ||A - A*||_F in hand."""
    return _norm_verdict(skew, A.shape[0], lambda: A - A.conj().T, tol.eq_tol, A, 1.0)


def _skew_fro(A: np.ndarray) -> float:
    """||A - A*||_F of a square A, by blocks of 128 rows: no s x s temporary."""
    return math.sqrt(sum(float(np.linalg.norm(A[j:j + 128] - A[:, j:j + 128].conj().T)) ** 2
                         for j in range(0, A.shape[0], 128)))


def _selfadjoint_each(S: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """`is_selfadjoint` of every matrix S[k] of a stack of shape (m, n, n): the
    Frobenius brackets of all of them at once, and the exact rule for those
    the brackets leave open."""
    n = S.shape[-1]
    accept, reject = _fro_settles(np.linalg.norm(S - S.conj().swapaxes(1, 2), axis=(1, 2)), n,
                                  tol.eq_tol, np.linalg.norm(S, axis=(1, 2)), n, 1.0)
    verdict = np.array(accept, dtype=bool)
    for k in np.flatnonzero(~accept & ~reject):
        verdict[k] = is_selfadjoint(S[k], tol)
    return verdict


def is_normal(A, tol: Tolerances = DEFAULT_TOL) -> bool:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("normality needs a square matrix")
    AhA = A.conj().T @ A
    # ||A*A|| = ||A||^2 is the scale of the commutator
    return norm_at_most(AhA - A @ A.conj().T, tol.eq_tol, AhA, 1e-300)


def strong_limit_SA(A, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Limit of A^{*n} A^n for a contraction A: the orthogonal projector onto
    the unitary part of `cnu_unitary_split`.  In finite dimension the cnu part
    has every eigenvalue inside the unit circle, so A^n tends to 0 there
    (Sz.-Nagy and Foias, ch. I).  An eigenvalue mu of an n x n A with
    1 - |mu|^2 below the rounding floor 10 n eps counts as unimodular, as in
    `sysmodel.is_strongly_stable`, so the limit is 0 exactly when that verdict
    is True.  NonSquare and NotAContraction (||A|| > 1 + rank_tol) come from
    the split."""
    return cnu_unitary_split(A, tol)[0].projector()


def cnu_unitary_split(A, tol: Tolerances = DEFAULT_TOL) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Split C^n into the largest subspace on which A acts unitarily and
    its orthogonal complement, the completely nonunitary part.

    For a contraction A, A f = mu f with |mu| = 1 gives A* f = conj(mu) f
    (||A* f - conj(mu) f||^2 = ||A* f||^2 - 1 <= 0), so f spans a subspace
    that reduces A to a unitary; and A on its unitary part is a unitary,
    spanned by its eigenvectors.  So the unitary part is the span of the
    eigenvectors from one `eig` whose eigenvalues mu the defect rule of
    `_svd_defects` calls unimodular, 1 - |mu|^2 below `_rounding(n)`.
    Eigenvectors, not the singular vectors of the defects: for a normal A
    with eigenvalues of modulus 1 and 1 - gap, those mix to about eps / gap,
    while the eigenvectors stay as far apart as the eigenvalues lie in the
    plane.  Returns (unitary_part, cnu_part).
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NonSquare("cnu_unitary_split needs a square matrix")
    _require_contraction(operator_norm(A), tol)
    mu, V = np.linalg.eig(A)
    unitary = range_basis(V[:, 1.0 - np.abs(mu) ** 2 < _rounding(A.shape[0])], tol)
    return unitary, unitary.complement()
