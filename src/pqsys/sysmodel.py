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
from .errors import DimensionMismatch, NotAContraction, NotNormal, NotPqs, PqsysError, check
from .opcore import DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix, norm_at_most, operator_norm


@dataclass(frozen=True)
class PartitionedContraction:
    """Block operator matrix of a discrete-time system.

    T is held as a read-only view of the array passed in (no copy), so
    writing through `tau.T` or its blocks raises.  Results derived from T
    alone are cached on the system: its singular values once; per
    `Tolerances` the class flags, the spectral factorization of A, the defect
    data of A, the Krylov record, the controllable and observable subspaces
    and the parameters of `param.parametrize`; and for a non-selfadjoint A
    the eigendecomposition record of `transfer.theta_eval` (once per
    system).  The array passed in must therefore not be modified after
    construction either.  A construction that already holds the
    factorization, the defect data or the Krylov record hands them to
    `seed_records`, the one writer of those records besides their readers."""

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

    def singular_values(self) -> np.ndarray:
        """Singular values of T, descending, computed once per system (they
        depend on no tolerance)."""
        return self.cached("singular_values", None, self._singular_values)

    def _singular_values(self) -> np.ndarray:
        if 0 in self.T.shape:
            return np.zeros(0)
        s = np.linalg.svd(self.T, compute_uv=False)
        s.flags.writeable = False
        return s

    def norm(self) -> float:
        """||T||_2: the largest singular value when they are cached (0 for an
        empty T), else `opcore._arrow_norm` of a T with a diagonal main
        operator and a thin border, computed at each call, else the largest
        of the singular values, which stay cached."""
        if not _svd_in_hand(self):
            nrm = opcore._arrow_norm(self.T)
            if nrm is not None:
                return nrm
        s = self.singular_values()
        return float(s[0]) if s.size else 0.0


def _diagonal_pqs(D: np.ndarray, B: np.ndarray, t: np.ndarray) -> PartitionedContraction:
    """The system T = [[D, B*], [B, diag(t)]] for a real t, with C holding the
    bits of B*: the one assembly of a diagonal pqs system, the form the
    {D, B, t} system document rebuilds bit for bit."""
    s, n = B.shape
    T = np.zeros((n + s, n + s), dtype=complex)
    T[:n, :n] = D
    T[:n, n:] = B.conj().T
    T[n:, :n] = B
    np.fill_diagonal(T[n:, n:], t)
    return PartitionedContraction(T, n, n, s)


class SpectralData(NamedTuple):
    """A = V diag(t) V* for a selfadjoint main operator (of its Hermitian part),
    with the O(s n) pieces the evaluation formulas use; all read-only."""

    t: np.ndarray    # eigenvalues of A, ascending
    V: np.ndarray    # orthonormal eigenvectors, one column per eigenvalue, or for
                     # a real diagonal A the index of its sort (`opcore._eig_coords`)
    VB: np.ndarray   # V* B
    CV: np.ndarray   # C V
    skew: float      # ||A - A*||_F


def spectral_data(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SpectralData | None:
    """The factorization of A from `opcore._hermitian_eigh`, the only Hermitian
    one of a system's main operator, computed once per system and tolerance
    set, unless a construction seeded it (`seed_records`); it exists (empty
    without state) exactly when `classify` finds A selfadjoint."""
    return tau.cached("spectral", tol, lambda: _spectral_data(tau, tol))


def _spectral_data(tau: PartitionedContraction, tol: Tolerances) -> SpectralData | None:
    eig = opcore._hermitian_eigh(tau.A, tol)
    return None if eig is None else _spectral_parts(tau, *eig)


def _spectral_parts(tau: PartitionedContraction, t: np.ndarray, V: np.ndarray, skew: float) -> SpectralData:
    """The SpectralData of tau from a factorization A = V diag(t) V* in hand and
    ||A - A*||_F."""
    # C V as (V* C*)*
    parts = (t, V, opcore._eig_coords(V, tau.B), opcore._eig_coords(V, tau.C.conj().T).conj().T)
    return SpectralData(*opcore._read_only(parts), skew)


def main_defect_data(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> opcore.DefectData:
    """The defect data of A (`opcore.defect_data`) as factors only, with
    DA = DAs = None: every reader applies D_A and D_{A*} as E diag(d), and
    only `opcore.defect_data` forms them.  Computed once per system and
    tolerance set, all read-only; a selfadjoint A reads its cached
    factorization (`spectral_data`) through `opcore.hermitian_defect_data`.
    Any other A, which `spectral_data` has refused, is factored by its SVD
    (`opcore._svd_defect_data`, whose test for a shared defect forms both
    sides and drops them), with no second selfadjointness test, and not
    through the one-slot memo of `defect_data`: the system's cache holds the
    result, and the slot keeps the caller's own entry."""
    return tau.cached("defects", tol, lambda: _main_defect_data(tau, tol))


def _main_defect_data(tau: PartitionedContraction, tol: Tolerances) -> opcore.DefectData:
    sd = spectral_data(tau, tol)
    dd = opcore._svd_defect_data(tau.A, tol) if sd is None else opcore.hermitian_defect_data(sd.t, sd.V, tol)
    return opcore._read_only(dd._replace(DA=None, DAs=None))


def seed_records(tau: PartitionedContraction, tol: Tolerances, t: np.ndarray, V: np.ndarray, skew: float,
                 defects: opcore.DefectData, spans_fill: bool = False) -> SpectralData:
    """Seed tau's records with what a construction already holds, in place of
    the computations that would find them: the factorization A = V diag(t) V*
    of its selfadjoint main operator with ||A - A*||_F = skew (`spectral_data`,
    whose O(s n) parts are formed from tau's B and C), the defect data of that
    A (`main_defect_data`, the `opcore.hermitian_defect_data` of t and V, or
    data whose factors equal them bit for bit), and with spans_fill the fact
    that the controllable and observable subspaces are the whole state space
    (`krylov_record`).  Each record is seeded for the tolerance set tol; one
    already computed is kept.  Returns the spectral data.

    The seeded Krylov record is (s, s, s), with one list of parts for both
    sides: every cluster c of t (`opcore.eigen_clusters`) at its full rank
    k = c.stop - c.start, with U = I_k.  A cluster of full rank spans its
    whole eigenspace: its basis V[:, c] U has k orthonormal columns inside the
    span of V[:, c], whose dimension is k, so the two spaces are equal for
    every orthonormal U, and U = I_k names the subspace the cluster pass would
    find.  The subspaces are then spanned by the columns of V, and the
    spectral read-out keeps every cluster."""
    tau.cached("defects", tol, lambda: defects)
    if spans_fill:
        full = [(c, c.stop - c.start, np.eye(c.stop - c.start, dtype=complex)) for c in opcore.eigen_clusters(t)]
        tau.cached("krylov", tol, lambda: KrylovRecord(*[tau.state_dim] * 3, parts=(full, full)))
    return tau.cached("spectral", tol, lambda: _spectral_parts(tau, t, V, skew))


def channel_M(tau: PartitionedContraction, dd: opcore.DefectData) -> np.ndarray:
    """The channel parameter M = (E_As* B) / d_As of tau, the solution of
    B = D_{A*} M in the bases of dd, the defect data of A (`main_defect_data`),
    where the defect is diagonal: D_{A*} E_As = E_As diag(d_As)."""
    # E* B as (B* E)*, which needs no conjugated copy of the basis
    return (tau.B.conj().T @ dd.E_As).conj().T / dd.d_As[:, None]


def channel_K(tau: PartitionedContraction, dd: opcore.DefectData) -> np.ndarray:
    """The channel parameter K = (C E_A) / d_A of tau, the solution of
    C = K D_A in the bases of dd (`channel_M`): D_A E_A = E_A diag(d_A)."""
    return (tau.C @ dd.E_A) / dd.d_A


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
    ran(T - T*) lying in the I/O block for square partitions).  passive is
    `block_norm_at_most(tau, 1 + rank_tol)`, and the residual bounds scale
    by `norm_scale`; a passive system with a selfadjoint A far from isometric
    (`_isometry_ruled_out`) needs no singular values of T.  The flags are
    computed once per system and tolerance set.
    """
    return tau.cached("classify", tol, lambda: _classify(tau, tol))


def _classify(tau: PartitionedContraction, tol: Tolerances) -> SystemClass:
    passive = block_norm_at_most(tau, 1.0 + tol.rank_tol, tol)
    scale = norm_scale(tau, tol)
    if passive and not _svd_in_hand(tau) and _isometry_ruled_out(tau, tol):
        iso = coiso = False
    else:
        # ||T*T - I|| and ||TT* - I|| from the singular values of T
        sv = tau.singular_values()
        rows, cols = tau.T.shape
        iso = opcore.gram_defect(sv, cols) <= tol.eq_tol * scale
        coiso = opcore.gram_defect(sv, rows) <= tol.eq_tol * scale
    A = tau.A
    # the factorization exists exactly when A passes the selfadjointness rule
    sa_main = spectral_data(tau, tol) is not None
    # a selfadjoint A is normal: is_normal's two s x s products are skipped
    normal_main = sa_main or opcore.is_normal(A, tol)
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


def block_norm_at_most(tau: PartitionedContraction, gamma: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Decide ||T||_2 <= gamma, once per system, gamma and tolerance set.

    A system with a selfadjoint A (`_selfadjoint_model`) is decided on the
    arrowhead [[D, CV], [V*B, diag(t)]] of its cached factorization
    A = V diag(t) V* (`opcore._arrow_within`), which has the norm of a model
    of T within eta of it: the arrowhead within gamma - eta proves
    ||T|| <= gamma, one not within gamma + eta disproves it.  Any other
    system, one that neither settles, and one whose singular values are
    already cached take `tau.norm()`."""
    return tau.cached(f"norm_at_most:{gamma!r}", tol, lambda: _block_norm_at_most(tau, gamma, tol))


def _block_norm_at_most(tau: PartitionedContraction, gamma: float, tol: Tolerances) -> bool:
    model = None if _svd_in_hand(tau) else _selfadjoint_model(tau, tol)
    if model is not None:
        sd, eta = model
        arrow = (tau.D, sd.CV, sd.VB, sd.t)
        if opcore._arrow_within(*arrow, gamma - eta):
            return True
        if opcore._arrow_within(*arrow, gamma + eta) is False:
            return False
    return tau.norm() <= gamma


def _svd_in_hand(tau: PartitionedContraction) -> bool:
    """Whether the singular values of T are cached: then they decide, and the
    arrowhead route, which only spares computing them, is skipped."""
    return ("singular_values", None) in tau._cache


def norm_scale(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> float:
    """max(1, ||T||_2), the scale of the library's residual bounds on a system,
    read as 1 for a passive system (||T|| <= 1 + rank_tol), so that it needs
    no singular values of T."""
    return 1.0 if block_norm_at_most(tau, 1.0 + tol.rank_tol, tol) else max(1.0, tau.norm())


def _selfadjoint_model(tau: PartitionedContraction, tol: Tolerances) -> tuple[SpectralData, float] | None:
    """The cached factorization A = V diag(t) V* of a system with a selfadjoint
    A and a bound eta on ||T - T~|| for its model T~ = [[D, C], [B, V diag(t) V*]]:
    ||A - A*||_F / 2 for A less its Hermitian part, plus the rounding floor of
    eigh that `opcore._hermitian_eigh` allows.  None for any other system."""
    sd = spectral_data(tau, tol)
    if sd is None:
        return None
    return sd, sd.skew / 2 + opcore._rounding(sd.t.size) * max(1.0, float(np.abs(sd.t).max(initial=0.0)))


# An isometry bound (`_isometry_ruled_out`) within this margin of its threshold
# leaves the isometric and co-isometric flags to the singular values of T.  It
# sits far above the rounding of the bound, |t| of an eigenvalue plus eta.
ISOMETRY_MARGIN = 1e-6


def _isometry_ruled_out(tau: PartitionedContraction, tol: Tolerances) -> bool:
    """True when a passive system with a square T and a selfadjoint A is far
    from isometric and from co-isometric, by Courant-Fischer: on the n + 1
    eigenvectors of A with the smallest |t| some unit h has C h = 0, for n
    outputs, so ||T~ (0, h)|| = ||A~ h|| and sigma_min(T) <= |t|_(n+1) + eta;
    then ||I - T*T|| = ||I - TT*|| >= 1 - sigma_min^2.  It must exceed the
    threshold eq_tol (a passive system's scale is 1) by ISOMETRY_MARGIN."""
    model = _selfadjoint_model(tau, tol)
    n = tau.out_dim
    if model is None or tau.in_dim != n or tau.state_dim <= n:
        return False
    sd, eta = model
    low = float(np.partition(np.abs(sd.t), n)[n]) + eta
    return 1.0 - low * low > tol.eq_tol + ISOMETRY_MARGIN


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


class KrylovRecord(NamedTuple):
    """Dimensions of the controllable subspace span{A^n B}, the observable
    subspace span{A*^n C*} and their sum, with what the subspaces are read
    from: for an A with a cached factorization the `_cluster_span` parts
    (xs, ys) of the two sides (one list twice when C = B* bit for bit), for
    any other A the two band-Arnoldi bases; None where the route has none."""

    controllable: int
    observable: int
    joint: int
    hc: SubspaceBasis | None = None
    ho: SubspaceBasis | None = None
    parts: tuple[list, list] | None = None


def krylov_record(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> KrylovRecord:
    """The Krylov record of the system (`_krylov_record` of B and C*),
    computed once per system and tolerance set unless a construction seeded
    it (`seed_records`): the one span pass of a system, which the subspaces
    and `realize.spectral_measure` read."""
    return tau.cached("krylov", tol, lambda: _krylov_record(tau, None, None, tol))


def _krylov_record(tau: PartitionedContraction, X, Y, tol: Tolerances) -> KrylovRecord:
    """The record of span{A^n X : n >= 0}, span{A*^n Y} and their sum, the one
    place a span route is chosen.

    With a cached factorization A = V diag(t) V* (then A* = A) each span is
    the direct sum over the eigenvalue clusters of the ranges of the cluster
    rows of V*X or V*Y, and so is their sum: the dimensions are the cluster
    ranks of one `_cluster_sides` pass, which ranks each side once (both at
    once when X = Y bit for bit), and the record keeps the parts of the two
    sides.  Any other A takes band Arnoldi (`opcore.krylov_span`), whose two
    bases the record keeps, and `opcore.range_basis` of the two bases side
    by side for the sum.  On both routes the sum is the whole space when
    either span is, and one side when the two are equal, with no SVD.
    X = Y = None stand for B and C*, whose eigen coordinates V*B and (C V)*
    the cached factorization holds."""
    sd = spectral_data(tau, tol)
    if sd is None:
        X, Y = (tau.B, tau.C.conj().T) if X is None else (X, Y)
        s = tau.state_dim
        hc, ho = opcore.krylov_span(tau.A, X, s, tol), opcore.krylov_span(tau.A.conj().T, Y, s, tol)
        same = s in (hc.dim, ho.dim) or np.array_equal(hc.basis, ho.basis)
        joint = max(hc.dim, ho.dim) if same else opcore.range_basis(np.hstack([hc.basis, ho.basis]), tol).dim
        return KrylovRecord(hc.dim, ho.dim, joint, hc, ho)
    xc, yc = (sd.VB, sd.CV.conj().T) if X is None else (opcore._eig_coords(sd.V, X), opcore._eig_coords(sd.V, Y))
    xs, ys, js = _cluster_sides(sd, xc, yc, tol)
    return KrylovRecord(*(sum(rank for _, rank, _ in side) for side in (xs, ys, js)), parts=(xs, ys))


def _cluster_sides(sd: SpectralData, xc: np.ndarray, yc: np.ndarray,
                   tol: Tolerances) -> tuple[list, list, list]:
    """The `_cluster_span` parts of the components xc = V*X and yc = V*Y in
    the eigenbasis of sd, and those of the sum of the two spans
    (`_cluster_union`).  Equal components give one list for both."""
    xs = _cluster_span(sd.t, xc, tol)
    ys = xs if np.array_equal(xc, yc) else _cluster_span(sd.t, yc, tol)
    return xs, ys, _cluster_union(xs, ys, tol)


def _cluster_union(xs: list, ys: list, tol: Tolerances) -> list:
    """The `_cluster_span` parts of the sum of two spans of one selfadjoint
    operator, from the parts xs and ys of the two: ys when it
    is the whole space, else xs when it is or when ys is xs.  Otherwise, in
    eigen coordinates every column of the two bases lies in one cluster, so
    the bases side by side are block diagonal over the clusters: their
    singular values are those of the cluster blocks [U_x, U_y], and
    `opcore.range_basis` of them is, cluster by cluster, the range of
    [U_x, U_y] at rank_tol times the largest singular value of any cluster.
    The clusters of one size take one stacked SVD, each side padded with
    zero columns to the cluster size."""
    for side in (ys, xs):
        if all(rank == c.stop - c.start for c, rank, _ in side):
            return side
    if ys is xs:
        return xs
    clusters = [c for c, _, _ in xs]
    found = []
    for pos, rows in _cluster_rows_by_size(clusters):
        size = rows.shape[1]
        W = np.zeros((pos.size, size, 2 * size), dtype=complex)
        for j, k in enumerate(pos.tolist()):
            for off, (_, rank, U) in ((0, xs[k]), (size, ys[k])):
                W[j, :, off:off + rank] = U
        U, sv, _ = np.linalg.svd(W, full_matrices=False)
        found.append((pos, U, sv))
    thresh = tol.rank_tol * max(float(sv.max(initial=0.0)) for _, _, sv in found)
    parts = [None] * len(clusters)
    for pos, U, sv in found:
        for j, (k, rank) in enumerate(zip(pos.tolist(), np.count_nonzero(sv > thresh, axis=1).tolist())):
            parts[k] = (clusters[k], rank, U[j, :, :rank])
    return parts


def _eig_basis(V: np.ndarray, s: int, parts: list) -> SubspaceBasis:
    """The orthonormal basis with the columns V[:, c] U of the parts
    (c, rank, U) of `_cluster_span`, in cluster order; V is a matrix or the
    index of `opcore._eig_coords`."""
    kept = [opcore._eig_span(V, c, U) for c, rank, U in parts if rank]
    return SubspaceBasis(s, np.hstack(kept) if kept else np.zeros((s, 0), dtype=complex))


def _cluster_span(t: np.ndarray, comps: np.ndarray, tol: Tolerances) -> list[tuple[slice, int, np.ndarray]]:
    """The span of all powers of a selfadjoint operator applied to a set of
    vectors, cluster by cluster, from the operator's ascending eigenvalues
    t and the components comps of the vectors in its eigenbasis (one row
    per eigenvector).  The span is the direct sum over the eigenvalue
    clusters (`opcore.eigen_clusters`) of the ranges of the cluster rows.
    Returns, for each cluster c in order, c itself, the number of singular
    values of comps[c] above rank_tol * ||comps||_2 and an orthonormal basis
    of that range in the coordinates of the cluster's eigenvectors, the
    leading left singular vectors of comps[c].

    The clusters of one size take one stacked SVD of their rows, which runs
    the LAPACK routine of a single SVD on each: the same ranks and bases, bit
    for bit, as one SVD per cluster."""
    thresh = tol.rank_tol * operator_norm(comps)
    clusters = opcore.eigen_clusters(t)
    out = [None] * len(clusters)
    for pos, rows in _cluster_rows_by_size(clusters):
        U, sv, _ = np.linalg.svd(comps[rows], full_matrices=False)
        ranks = np.count_nonzero(sv > thresh, axis=1).tolist()
        for j, (k, rank) in enumerate(zip(pos.tolist(), ranks)):
            out[k] = (clusters[k], rank, U[j, :, :rank])
    return out


def _cluster_rows_by_size(clusters: list[slice]):
    """For each size of the contiguous clusters (slices), the positions of the
    clusters of that size in the list and their rows, a (count, size) array
    of indices: one stack per size for the batched kernels."""
    starts = np.array([c.start for c in clusters], dtype=int)
    sizes = np.array([c.stop - c.start for c in clusters], dtype=int)
    for size in np.flatnonzero(np.bincount(sizes)):
        pos = np.flatnonzero(sizes == size)
        yield pos, starts[pos, None] + np.arange(size)


def controllable_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """span{A^n B : n >= 0} inside the state space: the band-Arnoldi basis of
    the Krylov record, or the basis its cluster parts give, built once per
    system and tolerance set; the basis is read-only."""
    return tau.cached("controllable", tol, lambda: _subspace(tau, tol, 0))


def observable_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """span{A*^n C* : n >= 0} inside the state space, read like
    `controllable_subspace`."""
    return tau.cached("observable", tol, lambda: _subspace(tau, tol, 1))


def _subspace(tau: PartitionedContraction, tol: Tolerances, side: int) -> SubspaceBasis:
    """The controllable (side 0) or observable (side 1) subspace of the record."""
    rec = krylov_record(tau, tol)
    if rec.parts is None:
        sub = (rec.hc, rec.ho)[side]
    else:
        sub = _eig_basis(spectral_data(tau, tol).V, tau.state_dim, rec.parts[side])
    sub.basis.flags.writeable = False
    return sub


def is_controllable(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    return krylov_record(tau, tol).controllable == tau.state_dim


def is_observable(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    return krylov_record(tau, tol).observable == tau.state_dim


def is_simple(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    """State space spanned by the controllable and observable subspaces."""
    return krylov_record(tau, tol).joint == tau.state_dim


def is_minimal(tau, tol: Tolerances = DEFAULT_TOL) -> bool:
    rec = krylov_record(tau, tol)
    return rec.controllable == rec.observable == tau.state_dim


def pqs_krylov_subspace(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """The subspace span{A^n K* N : n >= 0} of a pqs system, where K is the
    channel operator of the quasi-selfadjoint block form: the controllable
    subspace.  B = D_A K* and D_A = sqrt(I - A^2) is injective on the
    eigenvectors that carry K*, so span{A^n K* N} = span{A^n B}; for pqs
    systems this is also the observable subspace."""
    if not classify(tau, tol).pqs:
        raise NotPqs("system is not passive quasi-selfadjoint")
    return controllable_subspace(tau, tol)


def minimal_pqs_reduction(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> PartitionedContraction:
    """Compress a pqs system to span{A^n K* N}; the result is a minimal pqs
    system with the same transfer function.  A system whose Krylov record
    shows it controllable is returned as it is, with no basis built."""
    out = _pqs_compression(tau, tol)
    if out is not tau:
        # compression onto an invariant subspace containing ran B must not move
        # the transfer function; a failure here means the subspace was wrong.
        # Both systems are passive, so ||Theta|| <= 1 and the bound is absolute.
        from .transfer import markov_gap, pole_form  # deferred: transfer builds on this module's types
        gap, j = markov_gap(pole_form(tau, tol), pole_form(out, tol), tol.eq_tol)
        check("reduction_agreement", gap, tol.eq_tol, PqsysError,
              f"transfer changed under state reduction in the coefficient of lambda^{j}: {gap:.3e}")
    return out


def _pqs_compression(tau: PartitionedContraction, tol: Tolerances) -> PartitionedContraction:
    """`minimal_pqs_reduction` without its agreement check."""
    if not classify(tau, tol).pqs:
        raise NotPqs("system is not passive quasi-selfadjoint")
    if krylov_record(tau, tol).controllable == tau.state_dim:
        return tau
    V = controllable_subspace(tau, tol).basis
    Vh = V.conj().T
    T = np.block([[tau.D, tau.C @ V], [Vh @ tau.B, Vh @ tau.A @ V]])
    return PartitionedContraction(T, tau.in_dim, tau.out_dim, V.shape[1])


@dataclass(frozen=True)
class MinimalityReport:
    """Minimality of a system with normal main operator, decided two ways.

    The defect-based route tests ker D_A = {0} together with
    ran D_A ∩ (H - H_N^c) = {0} (and the observable/simple analogues,
    where H_N^c = span{A^n M}, H_N^o = span{A*^n K*}); the direct route
    uses the Krylov subspaces of (A, B) and (A*, C*).  Both must agree.
    Both routes count their spans by the one rule of the Krylov record
    (`_krylov_record`).
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
    """Both routes of `MinimalityReport` for a passive system with a normal A.

    M and K are the channel parameters (`channel_M`, `channel_K`) in the
    defect bases of A, taken into the state space.  With
    ker D_A = {0}, ran D_A is the whole state space, so it meets the
    complement of a subspace exactly when the subspace is not the whole
    space; with ker D_A != {0} every defect-based verdict is False.  So each
    verdict is `ker_trivial and dim == s`, the dimensions counted by
    `_krylov_record` of (M, K*)."""
    flags = classify(tau, tol)
    if not flags.normal_main:
        raise NotNormal("main operator is not normal")
    if not flags.passive:
        raise NotAContraction(f"system block has norm {tau.norm():.12f}")
    dd = main_defect_data(tau, tol)
    ker_trivial = dd.E_A.shape[1] == tau.state_dim
    rec = _krylov_record(tau, dd.E_As @ channel_M(tau, dd), dd.E_A @ channel_K(tau, dd).conj().T, tol)
    cond_c, cond_o, cond_s = (ker_trivial and dim == tau.state_dim for dim in rec[:3])
    return MinimalityReport(
        controllable=cond_c,
        observable=cond_o,
        simple=cond_s,
        minimal=cond_c and cond_o,
        direct_controllable=is_controllable(tau, tol),
        direct_observable=is_observable(tau, tol),
        direct_simple=is_simple(tau, tol),
        direct_minimal=is_minimal(tau, tol),
    )


def is_strongly_stable(tau: PartitionedContraction, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A^n -> 0, in finite dimension iff every eigenvalue mu of A has
    |mu| < 1 (and then A*^n -> 0 too: A* has the conjugate eigenvalues).  By
    the defect rule of `opcore._svd_defects`, |mu| < 1 means 1 - |mu|^2 at
    least the rounding floor `opcore._rounding(s)` of the s x s
    factorization, so the verdict agrees with `opcore.strong_limit_SA`,
    whose unitary part takes the eigenvalues below that floor.  A
    selfadjoint A reads its eigenvalues from the cached factorization
    (`spectral_data`), any other A from `np.linalg.eigvals`."""
    sd = spectral_data(tau, tol)
    eigs = sd.t if sd is not None else np.linalg.eigvals(tau.A)
    return bool(np.all(1.0 - np.abs(eigs) ** 2 >= opcore._rounding(tau.state_dim)))
