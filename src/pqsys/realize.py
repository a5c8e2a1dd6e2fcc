"""Constructive realizations.

Minimal passive quasi-selfadjoint systems from atomic measure data, the
spectral read-out inverse to it, the Blaschke-diagonal canonical form of
bi-inner transfer functions, the explicit conservative dilation, Jacobi
(tridiagonal) realizations of scalar functions with the Chebyshev weight
worked example, and unitary similarity between minimal realizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import opcore, sysmodel, transfer
from .errors import (
    DimensionMismatch,
    InvalidD,
    MomentMismatch,
    NotInner,
    NotInSqs,
    NotMinimal,
    NotPqs,
    NotScalar,
    PqsysError,
    TransferMismatch,
    check,
)
from .opcore import DEFAULT_TOL, Tolerances, as_matrix, operator_norm
from .param import ContractionParams, parametrize
from .sysmodel import PartitionedContraction
from .transfer import SqsFunctionData, theta_eval


# Atom locations within this (absolute) distance of their run's first are one
# location (`_merged_atoms`).  The locations are given data, not computed
# eigenvalues, so only locations equal to rounding merge (about 4500 eps in
# (-1, 1)); `opcore.CLUSTER_GAP` (1e-8) bounds how well the eigh of a dense A
# knows its eigenvalues and would merge atoms the data keep apart.  Atoms
# farther apart stay distinct states of the realization, which the minimal
# reduction's cluster rule may still chain into one eigenvalue.
_MERGE_GAP = 1e-12


def _merged_atoms(f: SqsFunctionData) -> tuple[np.ndarray, np.ndarray]:
    """The atom locations in ascending order with the atoms at coinciding
    locations merged: a run of sorted locations within _MERGE_GAP of the
    run's first becomes that location and the sum of its weights."""
    order = np.argsort(f.locations, kind="stable")
    t = f.locations[order]
    starts = []
    for j, loc in enumerate(t.tolist()):
        if not starts or loc - first > _MERGE_GAP:
            starts.append(j)
            first = loc
    return t[starts], np.add.reduceat(f.weights[order], starts, axis=0)


def realize_from_data(f: SqsFunctionData, tol: Tolerances = DEFAULT_TOL) -> PartitionedContraction:
    """Minimal passive quasi-selfadjoint system whose transfer function is
    theta0 + W(lambda) for the given atomic data.

    The state space is assembled from the merged atoms (`_merged_atoms`):
    one stacked eigh of their weights factors each as Sigma_k = L_k L_k*,
    with the eigenvalues at most rank_tol times its largest truncated, the
    main operator is t_k times the identity on each factor range, and the
    channel operator stacks the factors.  The minimal reduction then drops
    whatever the Krylov rule does not count, tiny weights included."""
    mem = transfer.sqs_membership(f, tol)
    # recorded, not raised: NotInSqs below carries every failing reason
    check("membership_mass", max(mem.sigma_total_excess, 0.0), tol.psd_tol)
    if mem.X is not None:
        check("membership_ball", max(mem.x_norm - 1.0, 0.0), tol.psd_tol)
        check("membership_range", mem.off_range_residual, tol.eq_tol)
    if not mem.member:
        raise NotInSqs("; ".join(mem.reasons), mem.reasons)
    t, W = _merged_atoms(f)
    w, V = np.linalg.eigh((W + W.conj().swapaxes(1, 2)) / 2.0)
    keep = w > tol.rank_tol * np.maximum(w.max(axis=1, initial=0.0), 1e-300)[:, None]
    # one state per kept eigenvector v of weight w, with its factor column sqrt(w) v as a row
    atom, col = np.nonzero(keep)
    diag = t[atom]
    factors = V[atom, :, col] * np.sqrt(w[atom, col])[:, None]
    # B = D_A K* and T are formed with no s x s temporaries for A and D_A
    B = np.sqrt(1.0 - diag ** 2).astype(complex)[:, None] * factors.conj()
    tau = sysmodel._diagonal_pqs(f.theta0, B, diag)
    # max(||T|| - 1, 0), which needs the singular values only above 1
    excess = 0.0 if sysmodel.block_norm_at_most(tau, 1.0, tol) else max(tau.norm() - 1.0, 0.0)
    check("contraction", excess, tol.rank_tol, PqsysError,
          "assembled realization is not a contraction")
    # the reduction's own agreement check is left out: the one below decides
    tau = sysmodel._pqs_compression(tau, tol)
    bound = 10 * tol.eq_tol * max(1.0, operator_norm(f.theta0))
    gap, _ = transfer.markov_gap(transfer.pole_form(tau, tol), transfer.pole_form(f, tol), bound)
    check("grid_agreement", gap, bound, PqsysError, f"realized transfer deviates from the data by {gap:.3e}")
    return tau


def spectral_measure(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SqsFunctionData:
    """Read the atomic representation back off a pqs system.

    Eigenvalues of the selfadjoint main operator, from the system's cached
    factorization, are clustered, and each cluster t with spectral
    projector P contributes the weight C P C* / (1 - t^2) when its rows of
    (CV)* have nonzero rank in the observable parts of the Krylov record
    (`sysmodel.krylov_record`), so the atoms are the clusters that
    observability counts.  C = K D_A vanishes on a cluster at +-1, which the
    rule therefore skips."""
    if not sysmodel.classify(tau, tol).pqs:
        raise NotPqs("spectral read-out needs a passive quasi-selfadjoint system")
    sd = sysmodel.spectral_data(tau, tol)
    span = sysmodel.krylov_record(tau, tol).parts[1]
    t = np.empty(len(span))
    W = np.empty((len(span), tau.out_dim, tau.out_dim), dtype=complex)
    for pos, rows in sysmodel._cluster_rows_by_size([c for c, _, _ in span]):
        G = sd.CV[:, rows].transpose(1, 0, 2)  # the clusters' columns of CV
        t[pos] = sd.t[rows].mean(axis=1)
        W[pos] = G @ G.conj().swapaxes(1, 2)
    # 1 - t^2 > 0 guards the division at a rounded +-1 only
    keep = (np.array([rank for _, rank, _ in span], dtype=int) > 0) & (1.0 - t * t > 0.0)
    t = t[keep]
    f = SqsFunctionData(tau.D, tuple(zip(t.tolist(), W[keep] / (1.0 - t * t)[:, None, None])))
    bound = 10 * tol.eq_tol * max(1.0, operator_norm(tau.D))
    gap, _ = transfer.markov_gap(transfer.pole_form(tau, tol), transfer.pole_form(f, tol), bound)
    check("readout_agreement", gap, bound, PqsysError, f"spectral read-out mismatch {gap:.3e}")
    return f


# ---------------------------------------------------------------------------
# inner canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalInner:
    """Blaschke-diagonal form of a bi-inner transfer function.

    In the returned orthonormal basis of the output space, Theta(lambda)
    is diag((lambda - a_1)/(1 - lambda a_1), ..., X) with the points a_k
    the eigenvalues of the main operator and X a constant unitary block."""

    points: tuple
    unitary_block: np.ndarray
    basis: np.ndarray


def blaschke(a: float, lam: complex) -> complex:
    return (lam - a) / (1.0 - lam * a)


def inner_canonical_form(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> CanonicalInner:
    """The Blaschke-diagonal form of the transfer function of a minimal pqs
    system, or NotInner when that function is not inner.

    Innerness is decided on T, not on samples of Theta: the energy balance
    ||u||^2 - ||Theta(xi) u||^2 = ||D_T [u; xi (I - xi A)^{-1} B u]||^2 on the
    circle makes Theta inner iff T is isometric on the inputs and the span of
    the A^k B, which for a minimal system is all of T.  So the verdict is
    `classify`'s isometric flag, ||I - T*T||_2 <= eq_tol for a passive T: its
    tolerance is eq_tol on T, where `transfer.inner_test` applies grid_tol
    to samples of Theta.  The form is then built from the channel operator
    W, with ker W* from the complete QR of W once W*W = I is checked, and
    checked at lambda = 0: its residues (W e_k)(W e_k)* equal the
    system's (C v_k)(v_k* B) up to ||C - B*|| <= eq_tol, which the pqs flag
    has checked, so only its constant term is its own."""
    flags = sysmodel.classify(tau, tol)
    if not flags.pqs:
        raise NotPqs("canonical form applies to passive quasi-selfadjoint systems")
    if not sysmodel.is_minimal(tau, tol):
        raise NotMinimal("canonical form needs a minimal system")
    if not flags.isometric:
        raise NotInner("transfer function is not inner: the block operator of a minimal system "
                       "is not isometric to eq_tol")
    # the defect basis is the cached eigenbasis of A: W is the channel parameter K
    dd = sysmodel.main_defect_data(tau, tol)
    s = tau.state_dim
    if dd.E_A.shape[1] != s:
        raise NotInner("defect space of the main operator does not fill the state space")
    W = sysmodel.channel_K(tau, dd)
    bound = 10 * tol.eq_tol
    check("channel_isometry", opcore.gap(W.conj().T @ W - np.eye(s), bound), bound, NotInner,
          "channel operator is not isometric")
    # an isometric W has full column rank: the trailing columns of its complete QR span ker W*
    W_perp = opcore.SubspaceBasis(tau.out_dim, W).complement().basis
    X = W_perp.conj().T @ tau.D @ W_perp
    check("constant_unitarity", opcore.gap(X.conj().T @ X - np.eye(X.shape[1]), bound), bound, NotInner,
          "constant block is not unitary")
    # Theta(0) rebuilt in the basis [W, W_perp] as diag(-t) (+) X
    resid = tau.D - W_perp @ X @ W_perp.conj().T + (W * dd.t) @ W.conj().T
    gap = opcore.gap(resid, bound)
    check("canonical_reconstruction", gap, bound, PqsysError, f"canonical reconstruction off by {gap:.3e}")
    return CanonicalInner(tuple(float(a) for a in dd.t), X, np.hstack([W, W_perp]))


# ---------------------------------------------------------------------------
# conservative dilation
# ---------------------------------------------------------------------------

def _dilation_D(p: ContractionParams, E: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The D block of the dilation, the enlarged transfer function at 0:

        G* Phi_A(0) G + L_out J(X) L_in*,

    with G = [K*, D_K E] the co-isometry of the enlarged input operator (E =
    p.E_DK spans ran D_K), Phi_A(0) = -diag(t) on the eigenbasis of A, J(X) =
    [[X, D_{X*}], [-D_X, X*]] the unitary (Julia) completion of X, and
    L_out = [D_{K*}; -(K E)*] E_DKs (+) I, L_in = [D_{K*}; -(K E)*] E_DM (+) I,
    which read X in the bases E_DKs x E_DM it was extracted in.  Since
    K* D_{K*} = D_K K* and D_{K*}^2 + K K* = I, both lifts are isometries into
    ker G (+) I, so D completes G to a unitary whether or not C is B* bit for
    bit; D_{K*} stands in for D_M, which differs from it by about
    ||C - B*|| / min d_A."""
    KEs = -(p.K @ E).conj().T

    def lift(DY, basis, m):  # [DY; -(K E)*] basis (+) I_m
        L = np.vstack([DY, KEs]) @ basis
        return np.block([[L, np.zeros((L.shape[0], m))], [np.zeros((m, L.shape[1])), np.eye(m)]])

    dks, dm = p.X.shape
    J = np.block([[p.X, p.DXs], [-p.DX, p.X.conj().T]])
    D = lift(p.DKs, p.E_DKs, dm) @ J @ lift(p.DKs, p.E_DM, dks).conj().T
    k = G.shape[1]
    D[:k, :k] -= (G.conj().T * p.defects.t) @ G
    return D


@dataclass(frozen=True)
class DilationBlocks:
    """Conservative quasi-selfadjoint enlargement of a pqs system.

    The enlarged I/O space stacks the original output space with the
    defect spaces of the channel operator and its adjoint.  The enlarged
    transfer function is the enlarged system's, `theta_eval` on the
    factorization it shares with the source, at the tolerances of the
    `biinner_dilation` call; slice `big_theta` for a block, its top-left
    out_dim x out_dim corner being the original Theta."""

    system: PartitionedContraction
    out_dim: int
    dk_dim: int
    dks_dim: int
    tol: Tolerances

    def big_theta(self, lam: complex) -> np.ndarray:
        return theta_eval(self.system, lam, self.tol)


def biinner_dilation(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> DilationBlocks:
    """Embed a pqs system into a conservative one on the enlarged I/O space:
    D from the parameters of `parametrize` (`_dilation_D`), the same main
    operator and an enlarged channel operator.  NotMinimal when the enlarged
    system is not minimal, which is exactly when ker D_A != {0}.  The basis
    E_DK of ran D_K is read from the factors of parametrize's SVD of K*
    (`ContractionParams.E_DK`, the identity when no defect value of K is
    0), and D_K E_DK is applied in them: no parameter is factored again.

    The enlarged system has tau's A, so it is seeded with tau's factorization
    A = V diag(t) V* and defect data of A (`sysmodel.seed_records`); its
    Krylov record follows from them, with no Krylov pass.  Let E_A hold the
    eigenvectors of nonzero defect, d_A their defect values
    (`opcore.hermitian_defect`) and r their number.  In the
    eigenbasis, V* B_big = diag(d_A) [K*, D_K E_DK, 0] on those r rows and
    0 on the others.  W = [K*, D_K E_DK] is a co-isometry: WW* = K*K +
    D_K E_DK E_DK* D_K = K*K + D_K^2 = I, as E_DK spans ran D_K (up to
    rounding and the defect rule's floor on D_K, far inside the margin below).
    So the rows of W in a cluster of equal eigenvalues are orthonormal, and
    the singular values of the cluster rows of V* B_big
    (`sysmodel._cluster_span`) are the kept defect values there.  Each is at
    least sqrt(10 s eps) >= 4.7e-8 (a defect square below the rounding floor
    10 s eps is zero, `opcore._svd_defects`), far above the cluster
    threshold rank_tol ||V* B_big||_2 = rank_tol max d_A,
    and the rows of dropped values are 0: a cluster's rank is its number of
    kept eigenvectors, and the controllable dimension is r.  C_big = B_big*
    bit for bit, so the observable side has the same components and
    dimension.  The record is therefore (s, s, s) when r = s, that is when
    dd.E_A has s columns, which is the fact the record is seeded from, and the
    enlarged system is not minimal otherwise."""
    if not sysmodel.classify(tau, tol).pqs:
        raise NotPqs("dilation applies to passive quasi-selfadjoint systems")
    p = parametrize(tau, tol)
    dd = p.defects
    s = tau.state_dim
    n = tau.out_dim
    E, Ks = p.E_DK, p.K.conj().T
    DKE = p.DK.apply(E)
    dk, dks = DKE.shape[1], p.E_DKs.shape[1]

    DE = dd.E_A * dd.d_A  # D_A E_A
    B_big = np.hstack([DE @ Ks, DE @ DKE, np.zeros((s, dks), dtype=complex)])
    v = n + dk + dks
    T = np.block([[_dilation_D(p, E, np.hstack([Ks, DKE])), B_big.conj().T], [B_big, p.A]])
    system = PartitionedContraction(T, v, v, s)
    # the same main operator: the enlarged system shares tau's factorization and defect data
    sd = sysmodel.spectral_data(tau, tol)
    big = sysmodel.seed_records(system, tol, sd.t, sd.V, sd.skew, dd, spans_fill=dd.E_A.shape[1] == s)

    # ||T*T - I|| from the singular values classify reads too; passing it at
    # eq_tol makes classify's conservative flag (eq_tol * norm_scale) hold
    resid = opcore.gram_defect(system.singular_values(), v + s)
    check("block_unitarity", resid, tol.eq_tol, PqsysError,
          f"enlarged block operator is not unitary: defect {resid:.3e}")
    if not sysmodel.classify(system, tol).pqs:
        raise PqsysError("enlarged system is not quasi-selfadjoint")
    # its Krylov record is (s, s, s) exactly when ker D_A = {0} (see above)
    if dd.E_A.shape[1] != s:
        raise NotMinimal("enlarged system is not minimal")
    # the pole form of the n x n corner of the enlarged Theta, on tau's t
    corner = (system.D[:n, :n], big.t, transfer._residues(big.CV[:n], big.VB[:, :n]))
    bound = 10 * tol.eq_tol
    gap, _ = transfer.markov_gap(corner, transfer.pole_form(tau, tol), bound)
    check("corner_match", gap, bound, PqsysError, f"dilation corner deviates from the source by {gap:.3e}")
    return DilationBlocks(system, n, dk, dks, tol)


# ---------------------------------------------------------------------------
# Jacobi realization of scalar functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiRealization:
    """Scalar realization by a tridiagonal matrix with a complex corner.

    The block operator is [[d, a_0 e_0*], [a_0 e_0, J]] with J the real
    symmetric tridiagonal matrix with diagonal b and off-diagonal a[1:].
    truncated marks an expansion cut at max_len rather than at breakdown."""

    d: complex
    a: tuple
    b: tuple
    truncated: bool

    def __post_init__(self):
        object.__setattr__(self, "d", complex(self.d))
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise DimensionMismatch("coefficient lists must have equal length")
        if not np.isfinite([self.d, *self.a, *self.b]).all():
            raise ValueError("coefficients must be finite numbers")
        if any(x <= 0 for x in self.a):
            raise PqsysError("off-diagonal coefficients must be positive")

    @property
    def length(self) -> int:
        return len(self.a)

    def matrix(self) -> np.ndarray:
        L = self.length
        T = np.zeros((L + 1, L + 1), dtype=complex)
        T[0, 0] = self.d
        if L:
            T[0, 1] = T[1, 0] = self.a[0]
            for k in range(L):
                T[k + 1, k + 1] = self.b[k]
            for k in range(1, L):
                T[k, k + 1] = T[k + 1, k] = self.a[k]
        return T

    def system(self) -> PartitionedContraction:
        return PartitionedContraction(self.matrix(), 1, 1, self.length)


def _lanczos(t: np.ndarray, start: np.ndarray, max_len: int, tol: Tolerances):
    """Lanczos on diag(t) with twofold full reorthogonalization."""
    alphas = []
    betas = []
    Q = np.empty((t.size, max_len), order="F")
    v = start / np.linalg.norm(start)
    for k in range(max_len):
        Q[:, k] = v
        w = t * v
        alphas.append(float(v @ w))
        for _ in range(2):
            w = w - Q[:, :k + 1] @ (w @ Q[:, :k + 1])
        beta = float(np.linalg.norm(w))
        if beta <= tol.rank_tol:
            return alphas, betas, False
        betas.append(beta)
        v = w / beta
    return alphas, betas[:-1], True


def jacobi_realize(source, max_len: int | None = None, tol: Tolerances = DEFAULT_TOL) -> JacobiRealization:
    """Tridiagonal realization of a scalar transfer function.

    Accepts scalar atomic data (nodes t_k, weights w_k = (1 - t_k^2) sigma_k)
    or a scalar pqs system (its cached A = V diag(t) V*, w = |V* B|^2).  Runs
    Lanczos on diag(t) started at sqrt(w); a_0 is the channel norm, and the
    realization is empty only when no weight is left (a_0 = 0): Lanczos
    normalizes its start, so the scale of w sets no length.
    Breakdown before max_len means the function is rational and the
    expansion complete: it has d + sum_k lambda w_k / (1 - lambda t_k) as its
    transfer function, checked on the L + len(t) Markov parameters of the
    difference (`transfer.markov_gap`).  A truncated L-step expansion is the
    Gauss quadrature of w: it matches d and the first 2L Markov parameters,
    the moments sum_k w_k t_k^j (Golub and Meurant 2010).  The tridiagonal
    side of the check is `_jacobi_markov`, with no factorization of J."""
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if isinstance(source, SqsFunctionData):
        if source.dim != 1:
            raise NotScalar("atomic data must be scalar")
        d = complex(source.theta0[0, 0])
        sig = source.weights[:, 0, 0].real
        keep = sig > tol.rank_tol * sig.max(initial=0.0)
        t = source.locations[keep]
        w = (1 - t ** 2) * sig[keep]
    elif isinstance(source, PartitionedContraction):
        if source.in_dim != 1 or source.out_dim != 1:
            raise NotScalar("system must have one-dimensional input and output")
        if not sysmodel.classify(source, tol).pqs:
            raise NotPqs("tridiagonal realization applies to pqs systems")
        d = complex(source.D[0, 0])
        sd = sysmodel.spectral_data(source, tol)
        t, vb = sd.t, sd.VB[:, 0]
        w = vb.real ** 2 + vb.imag ** 2
    else:
        raise TypeError(f"cannot realize {type(source)!r}")
    if d.imag < -tol.eq_tol:
        raise InvalidD("corner value must have nonnegative imaginary part")

    start = np.sqrt(w)
    a0 = float(np.linalg.norm(start))
    if a0 == 0:
        return JacobiRealization(d, (), (), False)
    if max_len is None:
        max_len = t.size
    max_len = min(max_len, t.size)
    alphas, betas, truncated = _lanczos(t, start, max_len, tol)
    jr = JacobiRealization(d, (a0, *betas), alphas, truncated)
    corner = np.array([[d]])
    count = 2 * jr.length if truncated else jr.length + t.size
    bound = 10 * tol.eq_tol * max(1.0, abs(d))
    gap, j = transfer.markov_gap((corner, None, _jacobi_markov(jr, count)[:, None, None]),
                                 (corner, t, w[:, None, None]), bound, count)
    check("tridiagonal_agreement", gap, bound, PqsysError,
          f"tridiagonal transfer deviates by {gap:.3e} in the coefficient of lambda^{j}")
    return jr


def _jacobi_markov(jr: JacobiRealization, count: int) -> np.ndarray:
    """The Markov parameters a_0^2 e_0* J^j e_0, j = 0..count-1, of the
    tridiagonal system, from v = a_0^2 J^j e_0 by the three-term recurrence of
    J (diagonal b, off-diagonal a[1:]): O(L count) for L states."""
    b, off = np.array(jr.b), np.array(jr.a[1:])
    v = np.zeros(jr.length)
    v[0] = jr.a[0] ** 2
    out = np.empty(count)
    for j in range(count):
        out[j] = v[0]
        Jv = b * v
        Jv[:-1] += off * v[1:]
        Jv[1:] += off * v[:-1]
        v = Jv
    return out


# ---------------------------------------------------------------------------
# Chebyshev weight example
# ---------------------------------------------------------------------------

def chebyshev_w_closed(lam: complex) -> complex:
    """(1 - sqrt(1 - lambda^2)) / (2 lambda), regular at 0."""
    lam = complex(lam)
    if abs(lam) < 1e-5:
        return lam / 4.0 + lam ** 3 / 16.0
    return (1.0 - np.sqrt(1.0 - lam * lam)) / (2.0 * lam)


def chebyshev_theta_closed(d: complex, lam: complex) -> complex:
    return complex(d) + chebyshev_w_closed(lam)


def chebyshev_q_identity(z: complex) -> complex:
    """sqrt(z^2 - 1) - z on the branch decaying at infinity; equals
    -2 W(1/z) for the closed-form W."""
    z = complex(z)
    return z * np.sqrt(1.0 - 1.0 / (z * z)) - z


def chebyshev_example(d: complex, n_nodes: int, tol: Tolerances = DEFAULT_TOL):
    """Discretization of the function d + (1 - sqrt(1 - lambda^2))/(2 lambda).

    Its representing measure has density 1/(2 pi sqrt(1 - t^2)) on
    (-1, 1); the matching Gauss quadrature puts equal weights 1/(2n) at
    the Chebyshev nodes cos((2j-1) pi / (2n)).  This discretization keeps
    the total mass at exactly 1/2 and W(+-1) at exactly +-1/2, so the
    membership boundary |d| = 1/2 is preserved.  Returns the atomic data
    and the assembled diagonal pqs system."""
    d = complex(d)
    if abs(d) > 0.5 + 1e-12:
        raise InvalidD(f"|d| = {abs(d):.6f} exceeds 1/2")
    if n_nodes < 2:
        raise PqsysError("need at least 2 quadrature nodes")
    j = np.arange(1, n_nodes + 1)
    nodes = np.cos((2 * j - 1) * np.pi / (2 * n_nodes))
    sigma = 1.0 / (2 * n_nodes)
    data = SqsFunctionData(
        np.array([[d]], dtype=complex),
        tuple((float(t), np.array([[sigma]], dtype=complex)) for t in nodes),
    )
    B = np.sqrt((1.0 - nodes ** 2) * sigma).astype(complex)[:, None]
    tau = sysmodel._diagonal_pqs(data.theta0, B, nodes)
    if not sysmodel.block_norm_at_most(tau, 1.0 + tol.rank_tol, tol):
        raise PqsysError("discretized system is not a contraction")
    return data, tau


# ---------------------------------------------------------------------------
# unitary similarity
# ---------------------------------------------------------------------------

class SimilarityResult(NamedTuple):
    """U and the four intertwining residuals, each `opcore.gap`: an upper
    bound of the 2-norm within its bound when the check passes."""

    U: np.ndarray
    residuals: dict


def unitary_similarity(tau1: PartitionedContraction, tau2: PartitionedContraction,
                       S=None, tol: Tolerances = DEFAULT_TOL) -> SimilarityResult:
    """State-space unitary intertwining two minimal realizations of the
    same transfer function, assuming each output operator is S times the
    adjoint of the input operator.  S is out_dim x in_dim, the identity by
    default; an S of another shape raises DimensionMismatch before any
    other work.

    Verifies transfer agreement through D and the Markov parameters
    C A^k B for k < s1 + s2, which is exact: the difference of the two
    functions has a realization with s1 + s2 states, so it vanishes iff
    these coefficients do.  Then checks the mixed power moments
    B* A*^n A^m B for n, m <= s, builds U and certifies it by the four
    intertwining residuals.

    When both main operators are selfadjoint (both systems cache
    A = V diag(t) V*, `sysmodel.spectral_data`), everything is read off the
    spectral data.  Transfer agreement is `transfer.markov_gap` of the two
    pole forms on the same s1 + s2 coefficients, the Markov parameters being
    CV diag(t^k) VB, and the moments depend only on n + m: the Hankel
    sequence VB* diag(t^k) VB (`_spectral_moments`).
    Equal D and Markov parameters mean equal measures in the S^qs
    representation, and that measure is unique: the two systems have the
    same eigenvalue clusters with the same weights.  Equal moments then make
    the Gram matrices of the cluster rows (V1*B)_c and (V2*B)_c equal, and
    minimality makes each of those rows full row rank.  So one unitary W_c
    has W_c (V1*B)_c = (V2*B)_c: the polar factor of (V2*B)_c (V1*B)_c*, a
    Procrustes problem per cluster of the common partition of the two
    spectra (`opcore.eigen_clusters`).  U = V2 blockdiag(W_c) V1* is then
    the unique intertwiner.  Any other pair takes orthonormal band-Arnoldi
    bases Q1, Q2 of the two controllable subspaces, and U is the polar
    factor of Q2 Q1*."""
    if tau1.in_dim != tau2.in_dim or tau1.out_dim != tau2.out_dim:
        raise DimensionMismatch("systems must share input and output spaces")
    if S is None and tau1.in_dim != tau1.out_dim:
        raise DimensionMismatch("default S needs matching input and output dimensions")
    S = np.eye(tau1.out_dim, dtype=complex) if S is None else as_matrix(S)
    if S.shape != (tau1.out_dim, tau1.in_dim):
        raise DimensionMismatch(f"S has shape {S.shape}, C = S B* wants {(tau1.out_dim, tau1.in_dim)}")
    if not sysmodel.is_minimal(tau1, tol):
        raise NotMinimal("first system is not minimal")
    if not sysmodel.is_minimal(tau2, tol):
        raise NotMinimal("second system is not minimal")
    scales = [sysmodel.norm_scale(tau, tol) for tau in (tau1, tau2)]
    for k, (tau, sc) in enumerate(zip((tau1, tau2), scales), start=1):
        # the C = B* rule of `classify`, with S
        R = tau.C - S @ tau.B.conj().T
        if not opcore.norm_at_most(R, tol.eq_tol * sc):
            raise PqsysError(f"system {k} does not satisfy C = S B* (gap {operator_norm(R):.3e})")

    s1, s2 = tau1.state_dim, tau2.state_dim
    scale = max(scales)
    bound = tol.eq_tol * scale
    count = max(s1 + s2, 1)
    sd1, sd2 = (sysmodel.spectral_data(tau, tol) for tau in (tau1, tau2))
    spectral = sd1 is not None and sd2 is not None
    if spectral:
        gap, j = transfer.markov_gap(*(transfer.pole_form(tau, tol) for tau in (tau1, tau2)), bound, count)
    else:
        # one block sequence B, AB, A^2 B, ... per system serves both checks
        K1, K2 = (_krylov_blocks(tau, count) for tau in (tau1, tau2))
        gaps = opcore.gap(np.concatenate([(tau1.D - tau2.D)[None], tau1.C @ K1 - tau2.C @ K2]), bound)
        gap, j = float(gaps.max()), int(gaps.argmax())
    check("transfer_agreement", gap, bound, TransferMismatch,
          f"transfer functions differ by {gap:.3e} in the coefficient of lambda^{j}")
    if s1 != s2:
        raise TransferMismatch("minimal realizations have different state dimensions")

    p = s1
    moments = (_hankel_gaps(*(_spectral_moments(sd, 2 * p + 1) for sd in (sd1, sd2)), bound) if spectral
               else _gram_gaps(K1[:p + 1], K2[:p + 1], bound))
    _check_moments(moments, bound)
    if spectral:
        U = _spectral_intertwiner(sd1, sd2)
    else:
        # band Arnoldi is unitarily covariant: Q2 = U Q1 for minimal systems
        # with A2 = U A1 U* and B2 = U B1, so U is the polar factor of Q2 Q1*;
        # the bases are the ones the minimality gates built
        Q1, Q2 = (sysmodel.controllable_subspace(tau, tol).basis for tau in (tau1, tau2))
        u, _, vh = np.linalg.svd(Q2 @ Q1.conj().T)
        U = u @ vh
    bound = 10 * tol.eq_tol * scale  # the four intertwining residuals
    residuals = {
        # U is square: ||U*U - I|| = ||UU* - I||
        "unitarity": opcore.gap(U.conj().T @ U - np.eye(U.shape[1]), bound),
        "main": opcore.gap(U @ tau1.A - tau2.A @ U, bound),
        "input": opcore.gap(U @ tau1.B - tau2.B, bound),
        "output": opcore.gap(tau1.C - tau2.C @ U, bound),
    }
    for name, value in residuals.items():
        check(name, value, bound, PqsysError, f"intertwining residual {value:.3e} exceeds tolerance")
    return SimilarityResult(U, residuals)


def _spectral_moments(sd: sysmodel.SpectralData, count: int) -> np.ndarray:
    """The Hankel moments VB* diag(t^k) VB for k = 0..count-1, stacked along
    axis 0, from one power sum (`transfer._power_sums`) over the rank-one
    terms of each state."""
    m = sd.VB.shape[1]
    terms = np.ascontiguousarray(transfer._residues(sd.VB.conj().T, sd.VB)).reshape(sd.t.size, m * m)
    return next(transfer._power_sums(sd.t, terms, count, count)).reshape(count, m, m)


def _spectral_intertwiner(sd1: sysmodel.SpectralData, sd2: sysmodel.SpectralData) -> np.ndarray:
    """U = V2 blockdiag(W_c) V1*, W_c the polar factor of (V2*B)_c (V1*B)_c*
    over the clusters c of the common partition of the two spectra; the
    clusters of one size take one stacked SVD."""
    s = sd1.t.size
    W = np.zeros((s, s), dtype=complex)
    clusters = opcore.eigen_clusters(np.vstack([sd1.t, sd2.t]))
    for _, rows in sysmodel._cluster_rows_by_size(clusters):
        u, _, vh = np.linalg.svd(sd2.VB[rows] @ sd1.VB[rows].conj().swapaxes(1, 2))
        W[rows[:, :, None], rows[:, None, :]] = u @ vh
    # V2 W V1* as (V1 (V2 W)*)*: each eigenbasis a matrix or an index
    every = slice(None)
    return opcore._eig_span(sd1.V, every, opcore._eig_span(sd2.V, every, W).conj().T).conj().T


def _krylov_blocks(tau: PartitionedContraction, count: int) -> np.ndarray:
    """The blocks B, AB, ..., A^{count-1} B (count >= 1) of a system, stacked along axis 0."""
    K = np.empty((count, *tau.B.shape), dtype=complex)
    K[0] = tau.B
    for k in range(1, count):
        K[k] = tau.A @ K[k - 1]
    return K


def _hankel_gaps(H1: np.ndarray, H2: np.ndarray, bound: float) -> np.ndarray:
    """The (p+1) x (p+1) table of moment gaps (`opcore.gap` against bound) for
    selfadjoint main operators, from the Hankel moments H_k = B* A^k B,
    k = 0..2p, of the two systems: the moment B* A*^n A^m B is H_{n+m}."""
    k = np.arange((len(H1) + 1) // 2)
    return opcore.gap(H1 - H2, bound)[np.add.outer(k, k)]


def _gram_gaps(K1: np.ndarray, K2: np.ndarray, bound: float) -> np.ndarray:
    """The (p+1) x (p+1) table of moment gaps (`opcore.gap` against bound)
    from the stacked blocks A^k B, k = 0..p, of the two systems: the moment
    B* A*^n A^m B is block (n, m) of the Gram matrix K*K of K = [B, AB, ..., A^p B]."""
    q, s, m = K1.shape
    K1, K2 = (K.transpose(1, 0, 2).reshape(s, q * m) for K in (K1, K2))  # [B, AB, ..., A^p B]
    gram = K1.conj().T @ K1 - K2.conj().T @ K2
    return opcore.gap(gram.reshape(q, m, q, m).transpose(0, 2, 1, 3), bound)


def _check_moments(norms: np.ndarray, bound: float):
    """Raise MomentMismatch(n, m) for the first pair, n outer and m inner,
    whose entry ||B1* A1*^n A1^m B1 - B2* A2*^n A2^m B2||_2 of the table of
    moment gaps exceeds bound."""
    bad = np.argwhere(norms > bound)
    nn, mm = (int(x) for x in bad[0]) if bad.size else (None, None)
    check("moments", float(norms.max()), bound, functools.partial(MomentMismatch, n=nn, m=mm),
          "mixed power moments differ")
