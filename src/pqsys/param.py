"""Parametrization of contractive block operator matrices.

Every contraction T = [[D, C], [B, A]] partitioned against M (+) H ->
N (+) K decomposes uniquely as

    T = [ -K A* M + D_{K*} X D_M    K D_A ]
        [  D_{A*} M                 A     ]

with contractions A : H -> K, M : M -> D_{A*}, K : D_A -> N and
X : D_M -> D_{K*}.  Operators into or out of a defect space are stored as
small matrices in an explicit orthonormal basis of that space; the bases
travel with the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import DimensionMismatch, NotAContraction, PqsysError, check
from .opcore import DEFAULT_TOL, Tolerances, as_matrix
from .sysmodel import PartitionedContraction, _spectral_parts, block_norm_at_most, main_defect_data


@dataclass(frozen=True)
class ContractionParams:
    """The quadruple (A, M, K, X) plus cached defect data.

    Shapes, with h = dim H, k = dim K, m = dim M, n = dim N and
    dA = dim D_A etc.:

        A : k x h        ambient
        M : dAs x m      in the basis defects.E_As of D_{A*}
        K : n x dA       in the basis defects.E_A of D_A
        X : dKs x dM     between the bases E_DM, E_DKs

    `defects` is the `opcore.DefectData` of A (for selfadjoint A its t holds
    the eigenvalues along the shared eigenvector basis).  DM/DKs are the
    defect operators of M (on M) and K* (on N), with E_DM/E_DKs the bases of
    their ranges that diagonalize them, and DX/DXs those of X and X*: all of
    a channel dimension.  DK (on D_A) and DMs (on D_{A*}) are held as the
    thin factors of `opcore.DefectSide` from the SVDs of K* and M, and never
    formed; `E_DK` spans ran D_K.
    """

    A: np.ndarray
    M: np.ndarray
    K: np.ndarray
    X: np.ndarray
    defects: opcore.DefectData
    E_DM: np.ndarray
    E_DKs: np.ndarray
    DM: np.ndarray
    DKs: np.ndarray
    DX: np.ndarray
    DXs: np.ndarray
    DK: opcore.DefectSide
    DMs: opcore.DefectSide

    @property
    def in_dim(self) -> int:
        return self.M.shape[1]

    @property
    def out_dim(self) -> int:
        return self.K.shape[0]

    # ambient embeddings used throughout assembly and evaluation
    @property
    def M_ambient(self) -> np.ndarray:
        return self.defects.E_As @ self.M

    @property
    def K_ambient(self) -> np.ndarray:
        return self.K @ self.defects.E_A.conj().T

    @property
    def X_ambient(self) -> np.ndarray:
        return self.E_DKs @ self.X @ self.E_DM.conj().T

    @property
    def E_DK(self) -> np.ndarray:
        """An orthonormal basis of ran D_K in the basis E_A, computed at each
        access: the identity when every defect value d of K is positive (D_K
        has no kernel), else the complement of the singular vectors with d = 0
        (a unit singular value, by the defect rule of `opcore._svd_defects`)."""
        Q, d = self.DK
        if d.all():
            return np.eye(Q.shape[0], dtype=complex)
        return opcore.SubspaceBasis(Q.shape[0], Q[:, d == 0]).complement().basis


def make_params(A, M, K, X, tol: Tolerances = DEFAULT_TOL) -> ContractionParams:
    """Build ContractionParams from the small-matrix quadruple, deriving and
    caching every defect operator and basis.  M, K, X must already be
    expressed in the defect bases that A (and M, K) induce; X = None
    stands for the zero operator."""
    A, M, K = as_matrix(A), as_matrix(M), as_matrix(K)
    dd = opcore.defect_data(A, tol)
    dA, dAs = dd.E_A.shape[1], dd.E_As.shape[1]
    if M.shape[0] != dAs:
        raise DimensionMismatch(f"M has {M.shape[0]} rows, dim of defect of A* is {dAs}")
    if K.shape[1] != dA:
        raise DimensionMismatch(f"K has {K.shape[1]} cols, dim of defect of A is {dA}")

    def given_X(E_DM, _, E_DKs, __):
        shape = (E_DKs.shape[1], E_DM.shape[1])
        Xm = as_matrix(X) if X is not None else np.zeros(shape, dtype=complex)
        if Xm.shape != shape:
            raise DimensionMismatch(f"X has shape {Xm.shape}, defect bases want {shape}")
        return Xm

    def vet(name, nrm):
        if nrm > 1.0 + tol.rank_tol:
            raise NotAContraction(f"parameter {name} has norm {nrm:.12f}")

    return _complete(A, M, K, dd, given_X, vet, tol)


def _complete(A, M, K, dd: opcore.DefectData, make_X, vet, tol: Tolerances) -> ContractionParams:
    """ContractionParams from A, its defect data and the parameters M, K.

    One thin SVD of M gives D_M and D_{M*}, one of K* gives D_{K*} and D_K
    (`opcore._svd_defects`); make_X(E_DM, d_M, E_DKs, d_Ks) returns X in
    the bases of D_M and D_{K*} that diagonalize them, with the defect
    values along them (`DefectSide.basis`), and one SVD of X gives D_X and
    D_{X*}.  vet(name, norm) is called with the largest singular value of
    each SVD ("M", "K", "X"), before its defects are formed: the norm check
    of each parameter.  The defects on the channel spaces are formed, those
    on the defect spaces of A (D_K, D_{M*}) stay factors; all are read-only."""
    dm, dms = opcore._svd_defects(M, tol, lambda nrm, _: vet("M", nrm))
    dks, dk = opcore._svd_defects(K.conj().T, tol, lambda nrm, _: vet("K", nrm))
    bm, bks = dm.basis(), dks.basis()
    X = make_X(*bm, *bks)
    dx, dxs = opcore._svd_defects(X, tol, lambda nrm, _: vet("X", nrm))
    small = opcore._read_only((bm[0], bks[0], dm.dense(), dks.dense(), dx.dense(), dxs.dense()))
    return ContractionParams(A, M, K, X, dd, *small, dk, dms)


def _raw_block(p: ContractionParams) -> np.ndarray:
    """The block matrix [[D, C], [B, A]] in ambient coordinates, with
    C = K D_A = (K diag(d_A)) E_A* and B = D_{A*} M = E_As (diag(d_As) M)."""
    dd = p.defects
    D = -p.K_ambient @ p.A.conj().T @ p.M_ambient + p.DKs @ p.X_ambient @ p.DM
    C = (p.K * dd.d_A) @ dd.E_A.conj().T
    B = dd.E_As @ (dd.d_As[:, None] * p.M)
    return np.block([[D, C], [B, p.A]])


def assemble(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> PartitionedContraction:
    """The contraction T determined by the parameters (square A only)."""
    k, h = p.A.shape
    if k != h:
        raise DimensionMismatch("system assembly needs a square main operator")
    tau = PartitionedContraction(_raw_block(p), p.in_dim, p.out_dim, h)
    dd = p.defects
    skew = opcore._skew_fro(p.A) if dd.t is not None and dd.E_A.shape[1] == h else None
    if skew is not None and opcore._selfadjoint_verdict(p.A, skew, tol):
        # no eigenvalue at +-1: the defect basis holds every eigenvector of the
        # main operator p.A, so the system takes that factorization, not an eigh
        tau.cached("spectral", tol, lambda: _spectral_parts(tau, dd.t, dd.E_A, skew))
    if not block_norm_at_most(tau, 1.0 + tol.rank_tol, tol):
        raise NotAContraction(f"assembled block has norm {tau.norm():.12f}; parameters inconsistent")
    return tau


def parametrize(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> ContractionParams:
    """Recover (A, M, K, X) from a passive system, once per system and
    tolerance set (`_parametrize`): every array of the result is read-only,
    and its six checks are recorded when it is computed."""
    return tau.cached("params", tol, lambda: _parametrize(tau, tol))


def _parametrize(tau: PartitionedContraction, tol: Tolerances) -> ContractionParams:
    """The parameters of a passive system.

    B = D_{A*} M, C = K D_A and D_{K*} X D_M = core are solved in the defect
    bases, where each defect is diagonal (D_A E_A = E_A diag(d_A)): M =
    (E_As* B) / d_As, K = (C E_A) / d_A, X = (E_DKs* core E_DM) / (d_Ks d_M*).
    A verification pass checks that the defect equations are actually met,
    which fails exactly when T was not a contraction to begin with (or is too
    close to the boundary to resolve).  The defect data are those cached on
    the system (`sysmodel.main_defect_data`), which a selfadjoint A reads
    from its cached spectral factorization."""
    if not block_norm_at_most(tau, 1.0 + tol.rank_tol, tol):
        raise NotAContraction(f"system block has norm {tau.norm():.12f}")
    # the bounds scale by max(1, ||T||), which `norm_scale` reads as 1 for a passive system
    A, B, C, D = tau.A, tau.B, tau.C, tau.D
    dd = main_defect_data(tau, tol)

    # E* B as (B* E)*, which needs no conjugated copy of the basis
    M = (B.conj().T @ dd.E_As).conj().T / dd.d_As[:, None]
    K = (C @ dd.E_A) / dd.d_A
    # read-only, as A, the defect data and X are
    M.flags.writeable = K.flags.writeable = False
    # D_{A*} E_As = E_As diag(d_As) and D_A E_A = E_A diag(d_A): no s x s product
    resid_b = opcore.gap(dd.E_As @ (dd.d_As[:, None] * M) - B, tol.eq_tol)
    check("carried_B", resid_b, tol.eq_tol, PqsysError,
          f"B is not carried by the defect of A*: residual {resid_b:.3e}")
    # K diag(d_A) E_A* as (E_A (K diag(d_A))*)*: no conjugated copy of the basis
    resid_c = opcore.gap((dd.E_A @ (K * dd.d_A).conj().T).conj().T - C, tol.eq_tol)
    check("carried_C", resid_c, tol.eq_tol, PqsysError,
          f"C is not carried by the defect of A: residual {resid_c:.3e}")

    def extract_X(E_DM, d_M, E_DKs, d_Ks):
        # K_amb A* M_amb as (A K_amb*)* M_amb: no conjugated copy of A
        core = D + (A @ (dd.E_A @ K.conj().T)).conj().T @ (dd.E_As @ M)
        X = (E_DKs.conj().T @ core @ E_DM) / np.outer(d_Ks, d_M)
        resid_d = opcore.gap((E_DKs * d_Ks) @ X @ (E_DM * d_M).conj().T - core, tol.eq_tol)
        check("carried_D", resid_d, tol.eq_tol, PqsysError,
              f"D block not reproduced by extracted X: residual {resid_d:.3e}")
        X.flags.writeable = False
        return X

    def vet(name, nrm):
        # a recovered parameter must be a contraction to psd_tol
        check(f"contraction_{name}", max(nrm - 1.0, 0.0), tol.psd_tol, NotAContraction,
              f"recovered parameter {name} has norm {nrm:.12f}; "
              "T is too close to the contraction boundary to resolve")

    return _complete(A, M, K, dd, extract_X, vet, tol)


def defect_balance(p: ContractionParams, h, f) -> tuple[float, float]:
    """Both sides of the energy-defect identity

        ||(h, f)||^2 - ||T(h, f)||^2
            = ||D_K (D_A f - A* M h) - K* X D_M h||^2 + ||D_X D_M h||^2

    for an input vector h and a state vector f."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    f = np.asarray(f, dtype=complex).reshape(-1)
    if h.size != p.in_dim:
        raise DimensionMismatch(f"input vector has dim {h.size}, expected {p.in_dim}")
    if f.size != p.A.shape[1]:
        raise DimensionMismatch(f"state vector has dim {f.size}, expected {p.A.shape[1]}")
    T = _raw_block(p)
    vec = np.concatenate([h, f])
    lhs = float(np.linalg.norm(vec) ** 2 - np.linalg.norm(T @ vec) ** 2)

    # D_A f - A* M h lands in the defect space of A; express it there, with
    # E_A* D_A f = d_A E_A* f
    E_h = p.defects.E_A.conj().T
    v = p.defects.d_A * (E_h @ f) - E_h @ (p.A.conj().T @ (p.M_ambient @ h))
    dm_h = p.E_DM.conj().T @ (p.DM @ h)
    term1 = p.DK.apply(v) - p.K.conj().T @ (p.E_DKs @ (p.X @ dm_h))
    term2 = p.DX @ dm_h
    rhs = float(np.linalg.norm(term1) ** 2 + np.linalg.norm(term2) ** 2)
    return lhs, rhs


def isometry_conditions(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """T isometric iff D_X D_M = 0 and D_K D_A = 0;
    co-isometric iff D_{X*} D_{K*} = 0 and D_{M*} D_{A*} = 0.  D_K D_A reads
    E_A* D_A = diag(d_A) E_A*, and so does D_{M*} D_{A*}."""
    dd = p.defects
    products = ((p.DX @ p.E_DM.conj().T @ p.DM, p.DK.apply(dd.d_A[:, None] * dd.E_A.conj().T)),
                (p.DXs @ p.E_DKs.conj().T @ p.DKs, p.DMs.apply(dd.d_As[:, None] * dd.E_As.conj().T)))
    return tuple(all(opcore.norm_at_most(R, tol.eq_tol) for R in pair) for pair in products)
