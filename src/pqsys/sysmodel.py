"""Discrete-time system abstraction.

A system tau = {T; M, N, H} is carried as a block partition of a single
matrix T : M (+) H -> N (+) H,

    T = [ D  C ]      evolution   h_{k+1} = A h_k + B xi_k
        [ B  A ]                  sigma_k = C h_k + D xi_k

with input space M, output space N and state space H.  The system is
passive when T is a contraction, and passive quasi-selfadjoint (pqs) when
additionally M = N, A = A* and C = B*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import opcore
from .errors import DimensionMismatch, NotNormal, NotPqs, PqsysError
from .opcore import DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix, norm_at_most, operator_norm


@dataclass(frozen=True)
class PartitionedContraction:
    """Block operator matrix of a discrete-time system.

    T is held as a read-only view of the array passed in (no copy), so
    writing through `tau.T` or its blocks raises.  Results derived from T
    alone are cached on the system: its norm once, the class flags and
    the spectral factorization of A per `Tolerances`; the array passed in
    must therefore not be modified after construction either."""

    T: np.ndarray
    in_dim: int
    out_dim: int
    state_dim: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        T = as_matrix(self.T).view()
        T.flags.writeable = False
        object.__setattr__(self, "T", T)
        for name in ("in_dim", "out_dim", "state_dim"):
            if getattr(self, name) < 0:
                raise DimensionMismatch(f"{name} must be nonnegative")
        expect = (self.out_dim + self.state_dim, self.in_dim + self.state_dim)
        if T.shape != expect:
            raise DimensionMismatch(f"T has shape {T.shape}, partition wants {expect}")

    @property
    def D(self) -> np.ndarray:
        return self.T[: self.out_dim, : self.in_dim]

    @property
    def C(self) -> np.ndarray:
        return self.T[: self.out_dim, self.in_dim:]

    @property
    def B(self) -> np.ndarray:
        return self.T[self.out_dim:, : self.in_dim]

    @property
    def A(self) -> np.ndarray:
        return self.T[self.out_dim:, self.in_dim:]

    def cached(self, key: str, tol: Tolerances | None, build: Callable[[], object]):
        """build(), computed once per (key, tol) for this system."""
        try:
            return self._cache[key, tol]
        except KeyError:
            value = self._cache[key, tol] = build()
            return value

    def norm(self) -> float:
        """||T||_2, computed once per system (it depends on no tolerance)."""
        return self.cached("norm", None, lambda: operator_norm(self.T))


class SpectralData(NamedTuple):
    """A = V diag(t) V* for a selfadjoint main operator, kept as the O(s n)
    pieces the evaluation formulas use; V itself is not kept."""

    t: np.ndarray    # eigenvalues of A, ascending
    VB: np.ndarray   # V* B
    CV: np.ndarray   # C V


def spectral_data(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SpectralData | None:
    """The factorization of A from `opcore.hermitian_eigh`, computed once per
    system and tolerance set; None when A is not selfadjoint (or the
    factorization misses A by more than eq_tol)."""
    return tau.cached("spectral", tol, lambda: _spectral_data(tau, tol))


def _spectral_data(tau: PartitionedContraction, tol: Tolerances) -> SpectralData | None:
    eig = opcore.hermitian_eigh(tau.A, tol)
    if eig is None:
        return None
    t, V = eig
    # V* B as (B* V)*, which needs no conjugated n x n copy of V
    parts = SpectralData(t, (tau.B.conj().T @ V).conj().T, tau.C @ V)
    for arr in parts:
        arr.flags.writeable = False
    return parts


@dataclass(frozen=True)
class SystemClass:
    passive: bool
    isometric: bool
    coisometric: bool
    conservative: bool
    pqs: bool
    normal_main: bool
    selfadjoint_main: bool


def classify(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SystemClass:
    """Flags for the standard system classes.

    pqs uses the coordinate criterion A = A*, C = B* (equivalent to
    ran(T - T*) lying in the I/O block for square partitions).  The flags
    are computed once per system and tolerance set.
    """
    return tau.cached("classify", tol, lambda: _classify(tau, tol))


def _classify(tau: PartitionedContraction, tol: Tolerances) -> SystemClass:
    T = tau.T
    nrm = tau.norm()
    passive = nrm <= 1.0 + tol.rank_tol
    scale = max(1.0, nrm)
    rows, cols = T.shape
    iso = norm_at_most(T.conj().T @ T - np.eye(cols), tol.eq_tol * scale)
    coiso = norm_at_most(T @ T.conj().T - np.eye(rows), tol.eq_tol * scale)
    A = tau.A
    sa_main = norm_at_most(A - A.conj().T, tol.eq_tol, A, 1.0)
    normal_main = opcore.is_normal(A, tol) if A.size else True
    cb = (tau.in_dim == tau.out_dim
          and norm_at_most(tau.C - tau.B.conj().T, tol.eq_tol * scale))
    pqs = passive and sa_main and cb
    return SystemClass(
        passive=passive,
        isometric=iso,
        coisometric=coiso,
        conservative=iso and coiso,
        pqs=pqs,
        normal_main=normal_main,
        selfadjoint_main=sa_main,
    )


def simulate(tau: PartitionedContraction, inputs, h0) -> tuple[np.ndarray, np.ndarray]:
    """Run the state recursion; returns (states, outputs) with
    states[0] = h0 and one more state than there are inputs."""
    h = np.asarray(h0, dtype=complex).reshape(-1)
    if h.size != tau.state_dim:
        raise DimensionMismatch(f"h0 has dim {h.size}, state space is {tau.state_dim}")
    A, B, C, D = tau.A, tau.B, tau.C, tau.D
    states = [h]
    outputs = []
    for xi in inputs:
        xi = np.asarray(xi, dtype=complex).reshape(-1)
        if xi.size != tau.in_dim:
            raise DimensionMismatch(f"input has dim {xi.size}, expected {tau.in_dim}")
        outputs.append(C @ h + D @ xi)
        h = A @ h + B @ xi
        states.append(h)
    return np.array(states), np.array(outputs).reshape(len(outputs), tau.out_dim)


def controllable_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """span{A^n B : n >= 0} inside the state space."""
    return opcore.krylov_span(tau.A, tau.B, tau.state_dim, tol)


def observable_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """span{A*^n C* : n >= 0} inside the state space."""
    return opcore.krylov_span(tau.A.conj().T, tau.C.conj().T, tau.state_dim, tol)


def is_controllable(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    return controllable_subspace(tau, tol).dim == tau.state_dim


def is_observable(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    return observable_subspace(tau, tol).dim == tau.state_dim


def is_simple(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    """State space spanned by the controllable and observable subspaces."""
    hc = controllable_subspace(tau, tol)
    ho = observable_subspace(tau, tol)
    joint = np.hstack([hc.basis, ho.basis])
    if joint.shape[1] == 0:
        return tau.state_dim == 0
    return opcore.range_basis(joint, tol).dim == tau.state_dim


def is_minimal(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    return is_controllable(tau, tol) and is_observable(tau, tol)


def pqs_krylov_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """The subspace span{A^n K* N : n >= 0} of a pqs system, where K is the
    channel operator of the quasi-selfadjoint block form.  For pqs systems
    this equals both the controllable and the observable subspace.

    Since A is selfadjoint the span splits over its eigenspaces into the
    ranges of the eigenspace components of K*, so it is computed from one
    eigendecomposition: the one `parametrize` holds when its defect basis
    E_DA consists of eigenvectors of A (then K* N lies in span E_DA and the
    components are rows of K*), else its own.  Repeated multiplication by
    A would lose rank on large diagonal models long before the true span
    saturates.
    """
    if not classify(tau, tol).pqs:
        raise NotPqs("system is not passive quasi-selfadjoint")
    from . import param  # deferred: param builds on this module's types

    p = param.parametrize(tau, tol)
    s = tau.state_dim
    if s == 0 or p.K.shape[0] == 0:
        return SubspaceBasis.zero(s)
    scale = operator_norm(p.K)  # = ||K* N|| in the state space
    if scale <= tol.rank_tol:
        return SubspaceBasis.zero(s)
    if p.t is not None:
        vals, vecs, comps = p.t, p.E_DA, p.K.conj().T
    else:
        vals, vecs = np.linalg.eigh((tau.A + tau.A.conj().T) / 2)
        comps = vecs.conj().T @ (p.E_DA @ p.K.conj().T)
    kept = []
    start = 0
    for stop in range(1, vals.size + 1):
        if stop < vals.size and vals[stop] - vals[stop - 1] <= 1e-8:
            continue
        U, sv, _ = np.linalg.svd(comps[start:stop], full_matrices=False)
        rank = int(np.sum(sv > tol.rank_tol * scale))
        if rank:
            kept.append(vecs[:, start:stop] @ U[:, :rank])
        start = stop
    if not kept:
        return SubspaceBasis.zero(s)
    return SubspaceBasis(s, np.hstack(kept))


def minimal_pqs_reduction(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> PartitionedContraction:
    """Compress a pqs system to span{A^n K* N}; the result is a minimal pqs
    system with the same transfer function."""
    Hs = pqs_krylov_subspace(tau, tol)  # raises NotPqs for non-pqs input
    if Hs.dim == tau.state_dim:
        return tau
    V = Hs.basis
    A_s = V.conj().T @ tau.A @ V
    B_s = V.conj().T @ tau.B
    C_s = tau.C @ V
    n, m = tau.out_dim, tau.in_dim
    s = Hs.dim
    T = np.zeros((n + s, m + s), dtype=complex)
    T[:n, :m] = tau.D
    T[:n, m:] = C_s
    T[n:, :m] = B_s
    T[n:, m:] = A_s
    out = PartitionedContraction(T, m, n, s)
    _check_same_transfer(tau, out, tol)
    return out


def _check_same_transfer(t1, t2, tol, n_points=20, radius=0.5):
    # compression onto an invariant subspace containing ran B must not move
    # the transfer function; a failure here means the subspace was wrong
    from .transfer import theta_eval  # deferred: transfer builds on this module's types

    for lam in radius * np.exp(2j * np.pi * np.arange(n_points) / n_points):
        v1 = theta_eval(t1, lam, tol)
        v2 = theta_eval(t2, lam, tol)
        if operator_norm(v1 - v2) > tol.eq_tol * max(1.0, operator_norm(v1)):
            raise PqsysError(
                f"transfer changed under state reduction at lambda={lam:.3f}: "
                f"{operator_norm(v1 - v2):.3e}"
            )


@dataclass(frozen=True)
class MinimalityReport:
    """Minimality of a system with normal main operator, decided two ways.

    The defect-based route tests ker D_A = {0} together with
    ran D_A ∩ (H - H_N^c) = {0} (and the observable/simple analogues,
    where H_N^c = span{A^n M}, H_N^o = span{A*^n K*}); the direct route
    uses the Krylov subspaces of (A, B) and (A*, C*).  Both must agree.
    """

    controllable: bool
    observable: bool
    simple: bool
    minimal: bool
    direct_controllable: bool
    direct_observable: bool
    direct_simple: bool
    direct_minimal: bool

    @property
    def agree(self) -> bool:
        return (
            self.controllable == self.direct_controllable
            and self.observable == self.direct_observable
            and self.simple == self.direct_simple
            and self.minimal == self.direct_minimal
        )


def check_minimality_normal(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> MinimalityReport:
    A = tau.A
    if A.size and not opcore.is_normal(A, tol):
        raise NotNormal("main operator is not normal")
    from . import param  # deferred: param builds on this module's types

    p = param.parametrize(tau, tol)
    n_state = tau.state_dim
    DA = p.DA
    ker_trivial = opcore.kernel_basis(DA, tol).dim == 0
    ran_DA = opcore.range_basis(DA, tol)

    m_ambient = p.E_DAs @ p.M            # M maps inputs into the state space
    ks_ambient = p.E_DA @ p.K.conj().T   # K* maps outputs into the state space
    hc_n = opcore.krylov_span(A, m_ambient, n_state, tol)
    ho_n = opcore.krylov_span(A.conj().T, ks_ambient, n_state, tol)

    def meets_range(sub: SubspaceBasis) -> bool:
        # does ran D_A intersect the orthogonal complement nontrivially?
        comp = sub.complement()
        return opcore.subspace_intersection(ran_DA, comp, tol).dim > 0

    cond_c = ker_trivial and not meets_range(hc_n)
    cond_o = ker_trivial and not meets_range(ho_n)
    joint = opcore.range_basis(np.hstack([hc_n.basis, ho_n.basis]), tol)
    cond_s = ker_trivial and not meets_range(joint)
    cond_m = cond_c and cond_o
    return MinimalityReport(
        controllable=cond_c,
        observable=cond_o,
        simple=cond_s,
        minimal=cond_m,
        direct_controllable=is_controllable(tau, tol),
        direct_observable=is_observable(tau, tol),
        direct_simple=is_simple(tau, tol),
        direct_minimal=is_minimal(tau, tol),
    )


class StabilityReport(NamedTuple):
    stable: bool
    co_stable: bool
    conclusive: bool


def is_strongly_stable(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> StabilityReport:
    """Do the powers of A (resp. A*) tend to zero?

    For normal A this is exactly max|eig(A)| < 1, with the eigenvalues of
    a selfadjoint A taken from its cached spectral factorization.  For
    non-normal A the verdict comes from a bounded power-decay test and may
    be inconclusive.
    """
    A = tau.A
    s = tau.state_dim
    if s == 0:
        return StabilityReport(True, True, True)
    if classify(tau, tol).normal_main:
        sd = spectral_data(tau, tol)
        eigs = sd.t if sd is not None else np.linalg.eigvals(A)
        r = float(np.max(np.abs(eigs)))
        flag = r < 1.0 - tol.rank_tol
        return StabilityReport(flag, flag, True)
    P = np.linalg.matrix_power(A, 4 * s)
    mid = operator_norm(P)
    end = operator_norm(P @ P)  # ||A^{8s}||
    if end <= 0.5:
        return StabilityReport(True, True, True)
    if end > 1.0 - 1e-6 and mid - end <= tol.eq_tol:
        # norm pinned at 1 with no decay between 4s and 8s powers:
        # a norm-preserved direction survives
        return StabilityReport(False, False, True)
    return StabilityReport(False, False, False)
