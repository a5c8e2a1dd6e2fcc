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
from .errors import DimensionMismatch, NotAContraction, PqsysError
from .opcore import DEFAULT_TOL, Tolerances, as_matrix, operator_norm
from .sysmodel import PartitionedContraction, spectral_data


@dataclass(frozen=True)
class ContractionParams:
    """The quadruple (A, M, K, X) plus cached defect data.

    Shapes, with h = dim H, k = dim K, m = dim M, n = dim N and
    dA = dim D_A etc.:

        A : k x h        ambient
        M : dAs x m      in the basis E_DAs of D_{A*}
        K : n x dA       in the basis E_DA of D_A
        X : dKs x dM     between the bases E_DM, E_DKs

    DA/DAs are ambient defect operators of A; DM/DKs are the ambient
    defect operators of M (on M) and K* (on N); DK, DMs, DX, DXs are the
    remaining defect operators, expressed in the small bases.  For
    selfadjoint A, t holds the eigenvalues of A along the columns of
    E_DA = E_DAs (see `opcore.DefectData`); otherwise it is None.
    """

    A: np.ndarray
    M: np.ndarray
    K: np.ndarray
    X: np.ndarray
    E_DA: np.ndarray
    E_DAs: np.ndarray
    E_DM: np.ndarray
    E_DKs: np.ndarray
    DA: np.ndarray
    DAs: np.ndarray
    DM: np.ndarray
    DKs: np.ndarray
    DK: np.ndarray
    DMs: np.ndarray
    DX: np.ndarray
    DXs: np.ndarray
    t: np.ndarray | None = None

    @property
    def defects(self) -> opcore.DefectData:
        return opcore.DefectData(self.DA, self.DAs, self.E_DA, self.E_DAs, self.t)

    @property
    def in_dim(self) -> int:
        return self.M.shape[1]

    @property
    def out_dim(self) -> int:
        return self.K.shape[0]

    # ambient embeddings used throughout assembly and evaluation
    @property
    def M_ambient(self) -> np.ndarray:
        return self.E_DAs @ self.M

    @property
    def K_ambient(self) -> np.ndarray:
        return self.K @ self.E_DA.conj().T

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
    for name, val in (("M", M), ("K", K)):
        if operator_norm(val) > 1.0 + tol.rank_tol:
            raise NotAContraction(f"parameter {name} has norm {operator_norm(val):.12f}")

    def given_X(DM, DKs, E_DM, E_DKs):
        shape = (E_DKs.shape[1], E_DM.shape[1])
        Xm = as_matrix(X) if X is not None else np.zeros(shape, dtype=complex)
        if Xm.shape != shape:
            raise DimensionMismatch(f"X has shape {Xm.shape}, defect bases want {shape}")
        if operator_norm(Xm) > 1.0 + tol.rank_tol:
            raise NotAContraction(f"parameter X has norm {operator_norm(Xm):.12f}")
        return Xm

    return _complete(A, M, K, dd, given_X, tol)


def _complete(A, M, K, dd: opcore.DefectData, make_X, tol: Tolerances) -> ContractionParams:
    """ContractionParams from A, its defect data and the parameters M, K.

    Builds D_M, D_{K*} and their range bases (each pair from one SVD), asks
    make_X(DM, DKs, E_DM, E_DKs) for X in those bases, and adds the defects
    of K, M*, X and X*."""
    cd = opcore.contraction_defect
    dm = opcore._svd_defects(M, tol, basis=True)
    dks = opcore._svd_defects(K.conj().T, tol, basis=True)
    X = make_X(dm.DA, dks.DA, dm.E_A, dks.E_A)
    return ContractionParams(
        A=A, M=M, K=K, X=X,
        E_DA=dd.E_A, E_DAs=dd.E_As, E_DM=dm.E_A, E_DKs=dks.E_A,
        DA=dd.DA, DAs=dd.DAs, DM=dm.DA, DKs=dks.DA,
        DK=cd(K, tol), DMs=cd(M.conj().T, tol), DX=cd(X, tol), DXs=cd(X.conj().T, tol),
        t=dd.t,
    )


def _raw_block(p: ContractionParams) -> np.ndarray:
    """The block matrix [[D, C], [B, A]] in ambient coordinates."""
    Ma = p.M_ambient
    Ka = p.K_ambient
    D = -Ka @ p.A.conj().T @ Ma + p.DKs @ p.X_ambient @ p.DM
    C = Ka @ p.DA
    B = p.DAs @ Ma
    top = np.hstack([D, C])
    bottom = np.hstack([B, p.A])
    return np.vstack([top, bottom])


def assemble(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> PartitionedContraction:
    """The contraction T determined by the parameters (square A only)."""
    k, h = p.A.shape
    if k != h:
        raise DimensionMismatch("system assembly needs a square main operator")
    tau = PartitionedContraction(_raw_block(p), p.in_dim, p.out_dim, h)
    if tau.norm() > 1.0 + 10 * tol.psd_tol:
        raise NotAContraction(f"assembled block has norm {tau.norm():.12f}; parameters inconsistent")
    return tau


def parametrize(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> ContractionParams:
    """Recover (A, M, K, X) from a passive system.

    The extraction solves B = D_{A*} M and C = K D_A by pseudoinverse and
    projects onto the defect bases; a verification pass checks that the
    defect equations are actually met, which fails exactly when T was not
    a contraction to begin with (or is too close to the boundary for the
    pseudoinverses to resolve).  A selfadjoint A takes its defect data
    from the system's cached spectral factorization."""
    nrm = tau.norm()
    if nrm > 1.0 + tol.rank_tol:
        raise NotAContraction(f"system block has norm {nrm:.12f}")
    scale = max(1.0, nrm)
    A, B, C, D = tau.A, tau.B, tau.C, tau.D
    sd = spectral_data(tau, tol)
    dd = opcore.hermitian_defect_data(sd.t, sd.V, tol) if sd is not None else opcore.defect_data(A, tol)
    DA, DAs, E_DA, E_DAs = dd.DA, dd.DAs, dd.E_A, dd.E_As

    if dd.t is None:
        M = E_DAs.conj().T @ opcore.pinv(DAs, tol) @ B
        K = C @ opcore.pinv(DA, tol) @ E_DA
    else:
        # D_A = D_{A*} = E diag(sqrt(1 - t^2)) E* on its range: the
        # pseudoinverse solves are diagonal in the eigenvector basis
        d = np.sqrt(1.0 - dd.t ** 2)
        M = (B.conj().T @ E_DA).conj().T / d[:, None]
        K = (C @ E_DA) / d
    resid_b = operator_norm(DAs @ (E_DAs @ M) - B)
    if resid_b > tol.eq_tol * scale:
        raise PqsysError(f"B is not carried by the defect of A*: residual {resid_b:.3e}")

    resid_c = operator_norm((K @ E_DA.conj().T) @ DA - C)
    if resid_c > tol.eq_tol * scale:
        raise PqsysError(f"C is not carried by the defect of A: residual {resid_c:.3e}")

    for name, val in (("M", M), ("K", K)):
        if operator_norm(val) > 1.0 + tol.psd_tol:
            raise NotAContraction(
                f"recovered parameter {name} has norm {operator_norm(val):.12f}; "
                "T is too close to the contraction boundary to resolve"
            )

    def extract_X(DM, DKs, E_DM, E_DKs):
        core = D + (K @ E_DA.conj().T) @ A.conj().T @ (E_DAs @ M)
        X_ambient = opcore.pinv(DKs, tol) @ core @ opcore.pinv(DM, tol)
        X = E_DKs.conj().T @ X_ambient @ E_DM
        resid_d = operator_norm(DKs @ (E_DKs @ X @ E_DM.conj().T) @ DM - core)
        if resid_d > tol.eq_tol * scale:
            raise PqsysError(f"D block not reproduced by extracted X: residual {resid_d:.3e}")
        if operator_norm(X) > 1.0 + tol.psd_tol:
            raise NotAContraction(
                f"recovered parameter X has norm {operator_norm(X):.12f}; "
                "T is too close to the contraction boundary to resolve"
            )
        return X

    return _complete(A, M, K, dd, extract_X, tol)


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
    v_amb = p.DA @ f - p.A.conj().T @ (p.M_ambient @ h)
    v = p.E_DA.conj().T @ v_amb
    dm_h = p.E_DM.conj().T @ (p.DM @ h)
    term1 = p.DK @ v - p.K.conj().T @ (p.E_DKs @ (p.X @ dm_h))
    term2 = p.DX @ dm_h
    rhs = float(np.linalg.norm(term1) ** 2 + np.linalg.norm(term2) ** 2)
    return lhs, rhs


def isometry_conditions(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """T isometric iff D_X D_M = 0 and D_K D_A = 0;
    co-isometric iff D_{X*} D_{K*} = 0 and D_{M*} D_{A*} = 0."""
    dx_dm = p.DX @ p.E_DM.conj().T @ p.DM
    dk_da = p.DK @ p.E_DA.conj().T @ p.DA
    iso = operator_norm(dx_dm) <= tol.eq_tol and operator_norm(dk_da) <= tol.eq_tol
    dxs_dks = p.DXs @ p.E_DKs.conj().T @ p.DKs
    dms_das = p.DMs @ p.E_DAs.conj().T @ p.DAs
    coiso = operator_norm(dxs_dks) <= tol.eq_tol and operator_norm(dms_das) <= tol.eq_tol
    return iso, coiso
