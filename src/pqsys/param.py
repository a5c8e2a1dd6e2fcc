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
    the eigenvalues along the shared eigenvector basis); DM/DKs are the
    ambient defect operators of M (on M) and K* (on N); DK, DMs, DX, DXs are
    the remaining defect operators, expressed in the small bases, and E_DK
    (in the basis E_A) spans ran D_K.
    """

    A: np.ndarray
    M: np.ndarray
    K: np.ndarray
    X: np.ndarray
    defects: opcore.DefectData
    E_DM: np.ndarray
    E_DKs: np.ndarray
    E_DK: np.ndarray
    DM: np.ndarray
    DKs: np.ndarray
    DK: np.ndarray
    DMs: np.ndarray
    DX: np.ndarray
    DXs: np.ndarray

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


def make_params(A, M, K, X, tol: Tolerances = DEFAULT_TOL) -> ContractionParams:
    """Build ContractionParams from the small-matrix quadruple, deriving and
    caching every defect operator and basis.  M, K, X must already be
    expressed in the defect bases that A (and M, K) induce; X = None
    stands for the zero operator."""
    A = as_matrix(A)
    M = as_matrix(M)
    K = as_matrix(K)
    dd = opcore.defect_data(A, tol)
    dA = dd.E_A.shape[1]
    dAs = dd.E_As.shape[1]
    if M.shape[0] != dAs:
        raise DimensionMismatch(f"M has {M.shape[0]} rows, dim of defect of A* is {dAs}")
    if K.shape[1] != dA:
        raise DimensionMismatch(f"K has {K.shape[1]} cols, dim of defect of A is {dA}")

    def given_X(dm, dks):
        shape = (dks.E_A.shape[1], dm.E_A.shape[1])
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

    One SVD of M gives D_M (with basis and values) and D_{M*}, one of K*
    gives D_{K*} and D_K with their bases, make_X(dm, dks) returns X in the
    bases of these two defect data, and one SVD of X gives D_X and D_{X*}.
    vet(name, norm) is called with the largest singular value of each SVD
    ("M", "K", "X"), before its defects are formed: the norm check of each
    parameter.  The defect data are read-only (`opcore._svd_defects`)."""
    dm = opcore._svd_defects(M, tol, lambda nrm, _: vet("M", nrm))
    dks = opcore._svd_defects(K.conj().T, tol, lambda nrm, _: vet("K", nrm))
    X = make_X(dm, dks)
    dx = opcore._svd_defects(X, tol, lambda nrm, _: vet("X", nrm))
    return ContractionParams(
        A=A, M=M, K=K, X=X, defects=dd,
        E_DM=dm.E_A, E_DKs=dks.E_A, E_DK=dks.E_As, DM=dm.DA, DKs=dks.DA,
        DK=dks.DAs, DMs=dm.DAs, DX=dx.DA, DXs=dx.DAs,
    )


def _raw_block(p: ContractionParams) -> np.ndarray:
    """The block matrix [[D, C], [B, A]] in ambient coordinates."""
    Ma = p.M_ambient
    Ka = p.K_ambient
    D = -Ka @ p.A.conj().T @ Ma + p.DKs @ p.X_ambient @ p.DM
    C = Ka @ p.defects.DA
    B = p.defects.DAs @ Ma
    top = np.hstack([D, C])
    bottom = np.hstack([B, p.A])
    return np.vstack([top, bottom])


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
    resid_b = opcore.gap(dd.DAs @ (dd.E_As @ M) - B, tol.eq_tol)
    check("carried_B", resid_b, tol.eq_tol, PqsysError,
          f"B is not carried by the defect of A*: residual {resid_b:.3e}")
    resid_c = opcore.gap((K @ dd.E_A.conj().T) @ dd.DA - C, tol.eq_tol)
    check("carried_C", resid_c, tol.eq_tol, PqsysError,
          f"C is not carried by the defect of A: residual {resid_c:.3e}")

    def extract_X(dm, dks):
        # K_amb A* M_amb as (A K_amb*)* M_amb: no conjugated copy of A
        core = D + (A @ (dd.E_A @ K.conj().T)).conj().T @ (dd.E_As @ M)
        X = (dks.E_A.conj().T @ core @ dm.E_A) / np.outer(dks.d_A, dm.d_A)
        resid_d = opcore.gap(dks.DA @ (dks.E_A @ X @ dm.E_A.conj().T) @ dm.DA - core, tol.eq_tol)
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

    # D_A f - A* M h lands in the defect space of A; express it there
    v_amb = p.defects.DA @ f - p.A.conj().T @ (p.M_ambient @ h)
    v = p.defects.E_A.conj().T @ v_amb
    dm_h = p.E_DM.conj().T @ (p.DM @ h)
    term1 = p.DK @ v - p.K.conj().T @ (p.E_DKs @ (p.X @ dm_h))
    term2 = p.DX @ dm_h
    rhs = float(np.linalg.norm(term1) ** 2 + np.linalg.norm(term2) ** 2)
    return lhs, rhs


def isometry_conditions(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """T isometric iff D_X D_M = 0 and D_K D_A = 0;
    co-isometric iff D_{X*} D_{K*} = 0 and D_{M*} D_{A*} = 0."""
    dd = p.defects
    dx_dm = p.DX @ p.E_DM.conj().T @ p.DM
    dk_da = p.DK @ dd.E_A.conj().T @ dd.DA
    iso = opcore.norm_at_most(dx_dm, tol.eq_tol) and opcore.norm_at_most(dk_da, tol.eq_tol)
    dxs_dks = p.DXs @ p.E_DKs.conj().T @ p.DKs
    dms_das = p.DMs @ dd.E_As.conj().T @ dd.DAs
    coiso = opcore.norm_at_most(dxs_dks, tol.eq_tol) and opcore.norm_at_most(dms_das, tol.eq_tol)
    return iso, coiso
