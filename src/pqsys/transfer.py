"""Transfer functions and their analysis.

Evaluation of Theta(lambda) = D + lambda C (I - lambda A)^{-1} B, its pole
form and the exact agreement of two pole forms, the characteristic function
of a contraction, the factorization of Theta through the parametrization,
defect identities, boundary values at +-1 for quasi-selfadjoint systems,
inner/co-inner grid tests, and membership in the class of pqs transfer
functions given by atomic measure data.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import opcore, sysmodel
from .errors import (
    DimensionMismatch,
    InvalidMeasure,
    NotPqs,
    PolarPoint,
    PqsysError,
    SingularResolvent,
    check,
)
from .opcore import DEFAULT_TOL, DefectData, Tolerances, as_matrix, herm_part, norm_at_most, operator_norm
from .param import ContractionParams
from .sysmodel import PartitionedContraction

# Both singularity rules of the resolvents use this one relative threshold.
# A dense solve F X = rhs fails when its residual exceeds
# SINGULAR_REL * max(1, ||rhs||).  A diagonal resolvent 1 / den, from the
# eigenvalues of a selfadjoint main operator, fails when
# min |den| <= SINGULAR_REL * max |den|: the condition number of
# I - lambda A exceeds 1 / SINGULAR_REL.
SINGULAR_REL = 1e-8

# An atom location whose imaginary part is at most this (absolute) is real,
# and its imaginary part is dropped.  It is about 4500 eps of a location in
# (-1, 1): far above the rounding of a real location computed in complex
# arithmetic, far below any location meant to lie off the axis.
_REAL_ATOM = 1e-12

# `w_from_data` refuses a point lambda with |1 - t_k lambda| at most this
# times max(1, |lambda|), as hitting the pole 1/t_k.  The rounding of
# 1 - t_k lambda is about eps max(1, |lambda|) for |t_k| < 1, so a
# denominator above the threshold keeps at least 12 of its 16 digits.
_POLE_REL = 1e-12


def _resolve(F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve F X = rhs, raising when F is numerically singular."""
    if F.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]), dtype=complex)
    try:
        X = np.linalg.solve(F, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from None
    resid = F @ X - rhs
    if not _solved(resid, rhs):
        raise SingularResolvent(f"resolvent solve residual {operator_norm(resid):.3e}")
    return X


def _solved(resid: np.ndarray, rhs: np.ndarray) -> bool:
    """The residual rule of `_resolve`: ||F X - rhs||_2 <= SINGULAR_REL * max(1, ||rhs||_2)."""
    return norm_at_most(resid, SINGULAR_REL, rhs, 1.0)


def _inverse_diag(den: np.ndarray) -> np.ndarray:
    """1 / den for the diagonal of a resolvent, raising when it is
    numerically singular."""
    if _near_singular(den):
        mag = np.abs(den)
        raise SingularResolvent(f"resolvent is singular to relative precision {mag.min() / mag.max():.3e}")
    return 1.0 / den


def _near_singular(den: np.ndarray) -> bool:
    """min |den| <= SINGULAR_REL * max |den| for the diagonal den of a resolvent."""
    mag = np.abs(den)
    return bool(mag.size and mag.min() <= SINGULAR_REL * mag.max())


class _EigRecord(NamedTuple):
    """A = V diag(mu) V^-1 of a main operator with no Hermitian factorization,
    from np.linalg.eig, with the pieces `theta_eval` reads; all read-only."""

    mu: np.ndarray   # eigenvalues of A
    V: np.ndarray    # eigenvectors, unit columns
    VB: np.ndarray   # V^-1 B, from one solve
    CV: np.ndarray   # C V
    a_fro: float     # ||A||_F
    b_fro: float     # ||B||_F


def theta_eval(tau: PartitionedContraction, lam: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """D + lambda C (I - lambda A)^{-1} B.  Valid at any point where
    I - lambda A is invertible, inside or outside the unit disk.

    For selfadjoint A the cached factorization A = V diag(t) V* gives
    D + lambda (C V) diag(1 / (1 - lambda t)) (V* B) in O(s n^2) per point.
    Any other A builds, at its first point, an eigendecomposition
    A = V diag(mu) V^-1, cached per system (it reads no tolerance); a point
    then takes X = V diag(1 / (1 - lambda mu)) V^-1 B in O(s^2 n) when X
    passes its gate (`_gated_theta`), and one dense LU solve otherwise.  A
    build that fails (eig or the solve with V raises, or ||AV - V diag mu||_F
    exceeds the rounding floor of `opcore._hermitian_eigh` times
    max(1, ||A||_F)) leaves every point to LU."""
    lam = complex(lam)
    sd = sysmodel.spectral_data(tau, tol)
    if sd is not None:
        return _theta_diag(tau.D, sd.CV, _inverse_diag(1.0 - lam * sd.t), sd.VB, lam)
    rec = tau.cached("eig", None, lambda: _build_eig_record(tau))
    val = None if rec is None else _gated_theta(tau, rec, lam)
    if val is None:
        X = _resolve(np.eye(tau.state_dim) - lam * tau.A, tau.B)
        val = tau.D + lam * (tau.C @ X)
    return val


def _theta_diag(D: np.ndarray, CV: np.ndarray, w: np.ndarray, VB: np.ndarray, lam: complex) -> np.ndarray:
    """D + lambda (CV diag(w)) VB: the transfer function through a
    diagonalization A = V diag(mu) W, W V = I, with CV = C V, VB = W B and
    w = 1 / (1 - lambda mu)."""
    return D + lam * ((CV * w) @ VB)


def _build_eig_record(tau: PartitionedContraction) -> _EigRecord | None:
    A = tau.A
    a_fro = float(np.linalg.norm(A))
    try:
        mu, V = np.linalg.eig(A)
        if opcore._eig_miss(A, V, mu) > opcore._rounding(mu.size) * max(1.0, a_fro):
            return None
        VB = np.linalg.solve(V, tau.B)
    except np.linalg.LinAlgError:
        return None
    rec = _EigRecord(mu, V, VB, tau.C @ V, a_fro, float(np.linalg.norm(tau.B)))
    for arr in rec[:4]:
        arr.flags.writeable = False
    return rec


def _gated_theta(tau: PartitionedContraction, rec: _EigRecord, lam: complex) -> np.ndarray | None:
    """Theta(lambda) from the eig record, or None when the point belongs to LU.

    X = V diag(w) V^-1 B, w = 1 / (1 - lambda mu), is accepted when its
    normwise backward error (Rigal and Gaches)

        ||(I - lambda A) X - B||_F / (||B||_F + (1 + |lambda| ||A||_F) ||X||_F)

    is at most the rounding floor `opcore._rounding(s)`, which a backward
    stable LU solve meets, and its residual passes the rule of `_resolve`.
    A point near an eigenvalue pole (`_near_singular`) and a Jordan or
    near-defective A, whose V turns the rounding of V^-1 B into a large
    backward error, fail it, so LU raises `SingularResolvent` where it did."""
    den = 1.0 - lam * rec.mu
    if _near_singular(den):
        return None
    w = 1.0 / den
    B = tau.B
    X = rec.V @ (w[:, None] * rec.VB)
    resid = X - lam * (tau.A @ X) - B
    scale = rec.b_fro + (1.0 + abs(lam) * rec.a_fro) * float(np.linalg.norm(X))
    if float(np.linalg.norm(resid)) > opcore._rounding(w.size) * scale or not _solved(resid, B):
        return None
    return _theta_diag(tau.D, rec.CV, w, rec.VB, lam)


def pole_form(source, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, t, R) with Theta(lambda) = D + sum_k lambda / (1 - lambda t_k) R_k:
    R_k = (CV)_k (VB)_k for a pqs system (`sysmodel.spectral_data`), and
    R_k = (1 - t_k^2) Sigma_k for atomic data sorted by location (a stable
    sort), so that a system realized from data carries the data's t bit for bit."""
    if isinstance(source, PartitionedContraction):
        sd = sysmodel.spectral_data(source, tol)
        if sd is None:
            raise NotPqs("a pole form needs a selfadjoint main operator")
        return source.D, sd.t, _residues(sd.CV, sd.VB)
    if isinstance(source, SqsFunctionData):
        order = np.argsort(source.locations, kind="stable")
        t = source.locations[order]
        return source.theta0, t, (1.0 - t * t)[:, None, None] * source.weights[order]
    raise TypeError(f"cannot read a pole form off {type(source)!r}")


def _residues(CV: np.ndarray, VB: np.ndarray) -> np.ndarray:
    """The (k, n, m) stack of residues (CV)_k (VB)_k: column k of CV times row k of VB."""
    return CV.T[:, :, None] * VB[:, None, :]


def markov_gap(f, g, bound: float, count: int | None = None) -> tuple[float, int]:
    """The largest gap of the coefficients of two pole forms (`pole_form`), for
    a check `gap <= bound`, and the first index attaining it: 0 for D, and
    j = 1..count for the Markov parameter sum_k t_k^(j-1) R_k of lambda^j.
    count defaults to the number of poles of the difference, len(t) when the
    forms carry the same t bit for bit and len(t_f) + len(t_g) otherwise: a
    Vandermonde system makes the difference vanish iff these coefficients do
    (Antoulas 2005, ch. 4).  A coefficient's gap is `opcore.gap`, so the check
    passes exactly where the largest 2-norm does, and a failing gap and index
    are exact.  On a shared t with max|t| <= 1, max(||dD||_F,
    sum_k ||dR_k||_F) bounds every coefficient and is the gap, at index 0,
    when it settles the check; otherwise the coefficients come in blocks of
    256 powers, which keep the power table small.

    f may instead be (D, None, P), a function known by the stack P of its
    Markov parameters, P[j - 1] the coefficient of lambda^j (count defaults
    to len(P)), such as the tridiagonal system of `jacobi_realize`: it is
    compared with g on its first count coefficients."""
    (Df, tf, Rf), (Dg, tg, Rg) = f, g
    dD = Df - Dg
    known = None
    if tf is None:
        t, dR, known = tg, -Rg, np.reshape(Rf, (len(Rf), dD.size))
        count = len(Rf) if count is None else count
    elif tf.shape == tg.shape and np.array_equal(tf, tg):
        t, dR = tf, Rf - Rg
        if np.abs(t).max(initial=0.0) <= 1.0:
            cheap = max(float(np.linalg.norm(dD)), float(np.linalg.norm(dR, axis=(1, 2)).sum()))
            if opcore._fro_settles(cheap, 1, bound)[0]:
                return cheap, 0
    else:
        t, dR = np.concatenate([tf, tg]), np.concatenate([Rf, -Rg])
    terms = np.ascontiguousarray(dR, dtype=complex).reshape(t.size, dD.size)
    blocks = _power_sums(t, terms, t.size if count is None else count, 256)
    if known is not None:  # P less the power sums of g, block by block
        blocks = (known[j:j + len(c)] + c for j, c in zip(range(0, count, 256), blocks))
    gaps = np.concatenate([opcore.gap(c.reshape(len(c), *dD.shape), bound) for c in (dD[None], *blocks)])
    j = int(np.argmax(gaps))
    return float(gaps[j]), j


def _power_sums(t: np.ndarray, terms: np.ndarray, count: int, block: int):
    """Yield sum_k t_k^j terms[k], j = 0..count-1, stacked in blocks of at most
    `block` powers: t^j by running products (a power of a negative base is a
    slow libm call) times the complex terms as one real product on their float view."""
    base = np.ones(t.size)
    for start in range(0, count, block):
        powers = np.empty((min(block, count - start), t.size))
        powers[0] = base
        np.cumprod(np.broadcast_to(t, (len(powers) - 1, t.size)), axis=0, out=powers[1:])
        powers[1:] *= base
        base = powers[-1] * t
        yield (powers @ terms.view(float)).view(complex)


def theta_sampler(source, tol: Tolerances = DEFAULT_TOL) -> Callable[[complex], np.ndarray]:
    """Normalize a system, atomic data or a callable into a function lambda -> matrix."""
    if isinstance(source, PartitionedContraction):
        return lambda lam: theta_eval(source, lam, tol)
    if isinstance(source, SqsFunctionData):
        return lambda lam: theta_from_data(source, lam)
    if callable(source):
        return source
    raise TypeError(f"cannot sample a transfer function from {type(source)!r}")


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def char_func(A, lam: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Characteristic function of a contraction,

        Phi_A(lambda) = (-A + lambda D_{A*} (I - lambda A*)^{-1} D_A)

    restricted to the defect space of A and corestricted to that of A*,
    returned as a matrix in the orthonormal defect bases of
    `opcore.defect_data`.  A may be a system, whose main operator is then
    read with the defect data cached on it (`sysmodel.main_defect_data`)."""
    A, dd = _main_defects(A, tol)
    return _phi(A, dd, complex(lam))


def _main_defects(source, tol: Tolerances) -> tuple[np.ndarray, DefectData]:
    """A square operator and its defect data: a system's main operator with the
    data cached on it, or a bare matrix with the data of one `defect_data`."""
    if isinstance(source, PartitionedContraction):
        return source.A, sysmodel.main_defect_data(source, tol)
    A = _square(source)
    return A, opcore.defect_data(A, tol)


def _square(A) -> np.ndarray:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("characteristic function needs a square operator")
    return A


def _phi(A: np.ndarray, dd: DefectData, lam: complex, R: np.ndarray | None = None) -> np.ndarray:
    """The characteristic function kernel: Phi_A(lambda) in the bases of dd,

        Phi_A(lambda) = lambda diag(d_As) E_As* R - E_As* A E_A,

    with R = (I - lambda A*)^{-1} E_A diag(d_A) (`_defect_resolvent`, or the
    R given): D_A and D_{A*} are applied only as E diag(d), one resolvent
    solve with a dA-column right side per point.

    When dd holds eigenvalues (selfadjoint A, eigenvector bases), Phi_A is
    diagonal with the Blaschke factors (lambda - t) / (1 - lambda t)."""
    if dd.t is not None:
        return np.diag((lam - dd.t) * _inverse_diag(1.0 - lam * dd.t))
    if R is None:
        R = _defect_resolvent(A, dd.E_A, dd.d_A, lam)
    Es_h = dd.E_As.conj().T
    return lam * (dd.d_As[:, None] * (Es_h @ R)) - Es_h @ A @ dd.E_A


def _defect_resolvent(A: np.ndarray, E: np.ndarray, d: np.ndarray, lam: complex) -> np.ndarray:
    """(I - lambda A*)^{-1} D_A E for the defect D_A E = E diag(d) of A: one solve."""
    return _resolve(np.eye(A.shape[0]) - lam * A.conj().T, E * d)


def char_defect_residuals(A, lam: complex, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two defect identities of the characteristic
    function,

        D^2_{Phi(lam)}  = (1-|lam|^2) D_A (I-conj(lam) A)^{-1} (I-lam A*)^{-1} D_A
        D^2_{Phi*(lam)} = (1-|lam|^2) D_{A*} (I-lam A*)^{-1} (I-conj(lam) A)^{-1} D_{A*}

    both read in the defect bases.  As (I - conj(lam) A)^{-1} =
    ((I - lam A*)^{-1})*, each right side is the Gram matrix
    (1-|lam|^2) R*R of one `_defect_resolvent` R: of A at lam for the
    first, shared with Phi, and of A* at conj(lam) for the second (Phi_A(lam)*
    = Phi_{A*}(conj lam)), two solves per point.  A may be a system, as for
    `char_func`."""
    A, dd = _main_defects(A, tol)
    lam = complex(lam)
    # a Blaschke Phi first, so that a pole raises as it does in `char_func`
    phi = None if dd.t is None else _phi(A, dd, lam)
    R = _defect_resolvent(A, dd.E_A, dd.d_A, lam)
    phi = _phi(A, dd, lam, R) if phi is None else phi
    Rs = _defect_resolvent(A.conj().T, dd.E_As, dd.d_As, lam.conjugate())
    scale = 1.0 - abs(lam) ** 2
    return tuple(operator_norm(np.eye(G.shape[0]) - G - scale * (Q.conj().T @ Q))
                 for G, Q in ((phi.conj().T @ phi, R), (phi @ phi.conj().T, Rs)))


def theta_factored(p: ContractionParams, lam: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """K Phi_{A*}(lambda) M + D_{K*} X D_M, the transfer function written
    through the parameters instead of the resolvent of the block matrix."""
    return _theta_and_phi(p, lam)[0]


def _theta_and_phi(p: ContractionParams, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """`theta_factored` at lambda and the one Phi_{A*}(lambda) it is built
    from, in the cached bases of p (defect of A* -> defect of A)."""
    phi = _phi(_square(p.A).conj().T, p.defects.adjoint(), complex(lam))
    return p.K @ phi @ p.M + p.DKs @ p.X_ambient @ p.DM, phi


def defect_identities(p: ContractionParams, lam: complex, h, g, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two norm identities tying the defect of Theta to
    the defect of the characteristic function plus an explicit remainder:

        ||D_{Theta(lam)} h||^2 = ||D_{Phi_{A*}(lam)} M h||^2 + ||phi(lam) h||^2
        ||D_{Theta*(lam)} g||^2 = ||D_{Phi_A(conj lam)} K* g||^2 + ||psi*(lam) g||^2

    with phi = col(-D_X D_M, D_K Phi_{A*} M - K* X D_M) and
    psi = row(D_{K*} D_{X*}, K Phi_{A*} D_{M*} - D_{K*} X M*).  Phi_{A*}(lam)
    is evaluated once, with Theta (`_theta_and_phi`), and Phi_A(conj lam) is
    read as Phi_{A*}(lam)*."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if h.size != p.in_dim or g.size != p.out_dim:
        raise DimensionMismatch("h must live in the input space, g in the output space")
    theta, phi_as = _theta_and_phi(p, lam)

    lhs1 = float(np.real(h @ np.conj((np.eye(p.in_dim) - theta.conj().T @ theta) @ h)))
    u = p.M @ h
    def_phi = float(np.linalg.norm(u) ** 2 - np.linalg.norm(phi_as @ u) ** 2)
    dm_h = p.E_DM.conj().T @ (p.DM @ h)
    row1 = -p.DX @ dm_h
    row2 = p.DK.apply(phi_as @ u) - p.K.conj().T @ (p.E_DKs @ (p.X @ dm_h))
    rhs1 = def_phi + float(np.linalg.norm(row1) ** 2 + np.linalg.norm(row2) ** 2)
    res1 = abs(lhs1 - rhs1)

    lhs2 = float(np.real(g @ np.conj((np.eye(p.out_dim) - theta @ theta.conj().T) @ g)))
    v = p.K.conj().T @ g
    def_phi2 = float(np.linalg.norm(v) ** 2 - np.linalg.norm(phi_as.conj().T @ v) ** 2)
    # psi's right block K Phi D_{M*} - D_{K*} X M* with K Phi D_{M*} as (D_{M*} (K Phi)*)*
    k_phi_dms = p.DMs.apply((p.K @ phi_as).conj().T).conj().T
    psi = np.hstack([p.DKs @ p.E_DKs @ p.DXs, k_phi_dms - p.DKs @ p.E_DKs @ p.X @ p.E_DM.conj().T @ p.M.conj().T])
    rhs2 = def_phi2 + float(np.linalg.norm(psi.conj().T @ g) ** 2)
    res2 = abs(lhs2 - rhs2)
    return res1, res2


# ---------------------------------------------------------------------------
# quasi-selfadjoint boundary behavior
# ---------------------------------------------------------------------------

def _require_pqs_params(p: ContractionParams, tol: Tolerances):
    A = p.A
    if A.shape[0] != A.shape[1] or not opcore.is_selfadjoint(A, tol):
        raise NotPqs("main operator is not selfadjoint")
    if p.M.shape != p.K.conj().T.shape or not norm_at_most(p.M - p.K.conj().T, tol.eq_tol):
        raise NotPqs("parameters do not satisfy M = K*")


def boundary_values(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Strong limit values at the two real boundary points,

        Theta(1) = K K* + D_{K*} X D_{K*},   Theta(-1) = -K K* + D_{K*} X D_{K*},

    for a quasi-selfadjoint parameter set (A = A*, M = K*).  In the shared
    eigenvector basis of the defects of a selfadjoint A, Phi_{A*}(lambda) of
    `theta_factored` is diag((lambda - t) / (1 - lambda t)), which tends to
    +-I as lambda -> +-1 for every spectrum (an eigenvalue at +-1 has no
    defect and is not in the basis).  So the strong limit of Theta at +-1 is
    +-K M + D_{K*} X D_M, and the checks `boundary_plus_one` and
    `boundary_minus_one` record its exact gap to the closed form."""
    _require_pqs_params(p, tol)
    kk = p.K @ p.K.conj().T
    dks_x = p.DKs @ p.X_ambient
    const = dks_x @ p.DKs
    theta1 = kk + const
    theta_m1 = -kk + const
    km, limit_const = p.K @ p.M, dks_x @ p.DM
    for name, sign, target in (("boundary_plus_one", 1.0, theta1),
                               ("boundary_minus_one", -1.0, theta_m1)):
        gap = opcore.gap(sign * km + limit_const - target, 1e-4)
        check(name, gap, 1e-4, PqsysError, f"boundary value at {sign:+.0f} off by {gap:.3e}")
    return theta1, theta_m1


class InnerReport(NamedTuple):
    inner: bool
    coinner: bool
    max_defect: float
    max_codefect: float
    skipped: int


def inner_test(source, n_grid: int = 64, tol: Tolerances = DEFAULT_TOL) -> InnerReport:
    """Sample Theta on the unit circle and test isometry of the values.

    Grid points are offset so +-1 are never sampled.  Points where the
    resolvent blows up are skipped and counted."""
    sample = theta_sampler(source, tol)
    max_defect = 0.0
    max_codefect = 0.0
    skipped = 0
    for j in range(n_grid):
        xi = np.exp(2j * np.pi * (j + 0.5) / n_grid)
        try:
            val = sample(xi)
        except SingularResolvent:
            skipped += 1
            continue
        val = as_matrix(val)
        rows, cols = val.shape
        # ||I - V*V|| and ||I - VV*|| from the singular values of V
        sv = np.linalg.svd(val, compute_uv=False) if val.size else np.zeros(0)
        max_defect = max(max_defect, opcore.gram_defect(sv, cols))
        max_codefect = max(max_codefect, opcore.gram_defect(sv, rows))
    usable = n_grid - skipped
    inner = usable > 0 and max_defect <= tol.grid_tol
    coinner = usable > 0 and max_codefect <= tol.grid_tol
    return InnerReport(inner, coinner, max_defect, max_codefect, skipped)


def inner_pm1_conditions(theta1, theta_m1, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """Necessary conditions for inner/co-inner in terms of the boundary
    values at +-1: with P = (Theta(1) - Theta(-1))/2 and S = Theta(1) +
    Theta(-1),

        P^2 = P   and   S*S = 4I - 2(Theta(1) - Theta(-1))      (inner)
        P^2 = P   and   S S* = 4I - 2(Theta(1) - Theta(-1))     (co-inner)
    """
    t1 = as_matrix(theta1)
    tm1 = as_matrix(theta_m1)
    if t1.shape != tm1.shape or t1.shape[0] != t1.shape[1]:
        raise DimensionMismatch("boundary values must be square matrices of equal size")
    n = t1.shape[0]
    P = (t1 - tm1) / 2.0
    proj_ok = norm_at_most(P @ P - P, tol.eq_tol)
    S = t1 + tm1
    rhs = 4.0 * np.eye(n) - 2.0 * (t1 - tm1)
    inner_nec = proj_ok and norm_at_most(S.conj().T @ S - rhs, tol.eq_tol)
    coinner_nec = proj_ok and norm_at_most(S @ S.conj().T - rhs, tol.eq_tol)
    return inner_nec, coinner_nec


# ---------------------------------------------------------------------------
# atomic measure data and class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqsFunctionData:
    """Theta(0) plus an atomic measure on (-1, 1) with PSD operator weights.

    Represents the function Theta(lambda) = Theta(0) + W(lambda) with

        W(lambda) = sum_k lambda (1 - t_k^2) / (1 - t_k lambda) * Sigma_k.

    The weights are held once, as the read-only (k, n, n) stack `weights`,
    with the locations as the read-only float array `locations`; each atom
    of `atoms` is (t_k, weights[k]), a view into that stack."""

    theta0: np.ndarray
    atoms: tuple = field(default_factory=tuple)
    locations: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta0 = as_matrix(self.theta0)
        n = theta0.shape[0]
        if theta0.shape != (n, n):
            raise InvalidMeasure("theta0 must be square")
        # location and shape atom by atom; a fault found there is raised only
        # after the weights of the atoms before it pass, so the first faulty
        # atom is named whatever its fault
        cleaned = []
        fault = None
        try:
            for t, sigma in self.atoms:
                cleaned.append(_checked_atom(t, sigma, n))
        except (InvalidMeasure, ValueError, TypeError) as exc:
            fault = exc
        t = np.array([loc for loc, _ in cleaned], dtype=float)
        W = np.array([sigma for _, sigma in cleaned], dtype=complex).reshape(len(cleaned), n, n)
        # one stacked Hermitian test and one batched eigvalsh for all weights
        hermitian = opcore._selfadjoint_each(W)
        psd = np.ones(len(W), dtype=bool)
        if n and len(W):
            # the data class takes no Tolerances: the default psd_tol, as an absolute bound
            psd = np.linalg.eigvalsh((W + W.conj().swapaxes(1, 2)) / 2.0)[:, 0] >= -DEFAULT_TOL.psd_tol
        bad = np.flatnonzero(~hermitian | ~psd)
        if bad.size:
            k = bad[0]
            raise InvalidMeasure("weight is not Hermitian" if not hermitian[k]
                                 else "weight has a negative eigenvalue")
        if fault is not None:
            raise fault
        t.flags.writeable = False
        W.flags.writeable = False
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "locations", t)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "atoms", tuple(zip(t.tolist(), W)))

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]


def _checked_atom(t, sigma, n: int) -> tuple[float, np.ndarray]:
    """An atom's location, real and inside (-1, 1), and its n x n weight."""
    t = complex(t)
    if not cmath.isfinite(t):
        raise InvalidMeasure(f"atom location {t} is not finite")
    if abs(t.imag) > _REAL_ATOM:
        raise InvalidMeasure(f"atom location {t} is not real")
    t = float(t.real)
    if abs(t) >= 1.0:
        raise InvalidMeasure(f"atom location {t} lies outside (-1, 1)")
    sigma = as_matrix(sigma)
    if sigma.shape != (n, n):
        raise InvalidMeasure("weight dimension differs from theta0")
    return t, sigma


def w_from_data(f: SqsFunctionData, lam: complex) -> np.ndarray:
    """W(lambda) = sum_k lambda (1-t_k^2)/(1-t_k lambda) Sigma_k, as one
    contraction of the coefficients with the weight stack; PolarPoint names
    the first atom, in atom order, whose pole 1/t_k the point hits."""
    lam = complex(lam)
    t = f.locations
    den = 1.0 - t * lam
    pole = np.abs(den) <= _POLE_REL * max(1.0, abs(lam))
    if pole.any():
        raise PolarPoint(f"evaluation point {lam} hits the pole 1/{float(t[np.argmax(pole)])}")
    return np.tensordot(lam * (1.0 - t * t) / den, f.weights, axes=1)


def theta_from_data(f: SqsFunctionData, lam: complex) -> np.ndarray:
    return f.theta0 + w_from_data(f, lam)


def nevanlinna_min_eig(f: SqsFunctionData, points: Sequence[complex]) -> float:
    """Smallest eigenvalue of the block kernel
    (W(z_i) - W(z_j)*) / (z_i - conj(z_j)) over the given nonreal points."""
    n = f.dim
    pts = [complex(z) for z in points]
    vals = [w_from_data(f, z) for z in pts]
    p = len(pts)
    G = np.zeros((n * p, n * p), dtype=complex)
    for i in range(p):
        for j in range(p):
            den = pts[i] - np.conj(pts[j])
            if abs(den) < 1e-14:
                raise PolarPoint("kernel grid has conjugate-coincident points")
            G[i * n:(i + 1) * n, j * n:(j + 1) * n] = (vals[i] - vals[j].conj().T) / den
    return float(np.linalg.eigvalsh(herm_part(G)).min()) if p else 0.0


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    center: np.ndarray          # -(W(1) + W(-1))/2
    radius: np.ndarray          # I - (W(1) - W(-1))/2, PSD when mass_ok
    X: np.ndarray | None        # ambient ball parameter, None if mass fails
    sigma_total_excess: float   # largest eigenvalue of (sum Sigma_k) - I
    x_norm: float
    off_range_residual: float
    reasons: tuple


def sqs_membership(f: SqsFunctionData, tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Decide whether the atomic data describes the transfer function of a
    passive quasi-selfadjoint system.

    Conditions: total mass sum Sigma_k <= I, and Theta(0) lies in the
    operator ball with center -(W(1)+W(-1))/2 and radius I - (W(1)-W(-1))/2,
    i.e. Theta(0) = center + R^{1/2} X R^{1/2} for a contraction X
    supported on ran R.  All of it is read from one eigh Sigma_total =
    U diag(w) U*: R^{1/2}, its pseudoinverse and ran R by the defect rule
    (`opcore._svd_defects`) on r = sqrt(1 - w), zero where 1 - w is below the
    rounding floor `opcore._rounding(n)` of the n x n eigh, and ker R by the
    columns U_k of U with r = 0: Theta(0) - center = delta sticks
    out of the ball range by max(||P delta||, ||delta P||) for the projector
    P = U_k U_k* onto ker R, that is max(||U_k* delta||, ||delta U_k||)."""
    n = f.dim
    sigma_total = f.weights.sum(axis=0)
    center = -np.tensordot(f.locations, f.weights, axes=1)
    radius = np.eye(n) - sigma_total

    reasons = []
    w, U = np.linalg.eigh(herm_part(sigma_total))
    excess = float(w.max() - 1.0) if n else 0.0
    mass_ok = excess <= tol.psd_tol
    if not mass_ok:
        reasons.append(f"total mass exceeds the identity by {excess:.3e}")
        return MembershipReport(False, center, radius, None, excess, np.inf, np.inf, tuple(reasons))

    r = opcore._sqrt_psd_eigs(1.0 - w, tol, opcore._rounding(n))
    keep = r > 0
    Ur = U[:, keep]
    delta = f.theta0 - center
    X = Ur @ ((Ur.conj().T @ delta @ Ur) / np.outer(r[keep], r[keep])) @ Ur.conj().T
    x_norm = operator_norm(X)
    x_ok = x_norm - 1.0 <= tol.psd_tol
    if not x_ok:
        reasons.append(f"ball parameter has norm {x_norm:.12f}")

    off_range = max(operator_norm(U[:, ~keep].conj().T @ delta), operator_norm(delta @ U[:, ~keep]))
    off_ok = off_range <= tol.eq_tol
    if not off_ok:
        reasons.append(f"Theta(0) sticks out of the ball range by {off_range:.3e}")

    # the Herglotz-Nevanlinna property is automatic for PSD atoms
    member = mass_ok and x_ok and off_ok
    return MembershipReport(member, center, radius, X, excess, x_norm, off_range, tuple(reasons))
