"""Transfer functions and their analysis.

Evaluation of Theta(lambda) = D + lambda C (I - lambda A)^{-1} B, the
characteristic function of a contraction, the factorization of Theta
through the parametrization, defect identities, boundary values at +-1
for quasi-selfadjoint systems, inner/co-inner grid tests, and membership
in the class of pqs transfer functions given by atomic measure data.
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
)
from .opcore import DEFAULT_TOL, DefectData, Tolerances, as_matrix, norm_at_most, operator_norm, psd_sqrt
from .param import ContractionParams
from .sysmodel import PartitionedContraction

# Both singularity rules of the resolvents use this one relative threshold.
# A dense solve F X = rhs fails when its residual exceeds
# SINGULAR_REL * max(1, ||rhs||).  A diagonal resolvent 1 / den, from the
# eigenvalues of a selfadjoint main operator, fails when
# min |den| <= SINGULAR_REL * max |den|: the condition number of
# I - lambda A exceeds 1 / SINGULAR_REL.
SINGULAR_REL = 1e-8


def _resolve(F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve F X = rhs, raising when F is numerically singular."""
    if F.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]), dtype=complex)
    try:
        X = np.linalg.solve(F, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from None
    resid = F @ X - rhs
    if not norm_at_most(resid, SINGULAR_REL, rhs, 1.0):
        raise SingularResolvent(f"resolvent solve residual {operator_norm(resid):.3e}")
    return X


def _inverse_diag(den: np.ndarray) -> np.ndarray:
    """1 / den for the diagonal of a resolvent, raising when it is
    numerically singular."""
    mag = np.abs(den)
    if mag.size and mag.min() <= SINGULAR_REL * mag.max():
        raise SingularResolvent(f"resolvent is singular to relative precision {mag.min() / mag.max():.3e}")
    return 1.0 / den


def theta_eval(tau: PartitionedContraction, lam: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """D + lambda C (I - lambda A)^{-1} B.  Valid at any point where
    I - lambda A is invertible, inside or outside the unit disk.

    For selfadjoint A the cached factorization A = V diag(t) V* gives
    D + lambda (C V) diag(1 / (1 - lambda t)) (V* B) in O(s n^2); any other
    A takes a dense solve."""
    lam = complex(lam)
    sd = sysmodel.spectral_data(tau, tol)
    if sd is None:
        X = _resolve(np.eye(tau.state_dim) - lam * tau.A, tau.B)
        return tau.D + lam * (tau.C @ X)
    return tau.D + lam * ((sd.CV * _inverse_diag(1.0 - lam * sd.t)) @ sd.VB)


def theta_sampler(source, tol: Tolerances = DEFAULT_TOL) -> Callable[[complex], np.ndarray]:
    """Normalize a system or a callable into a function lambda -> matrix."""
    if isinstance(source, PartitionedContraction):
        return lambda lam: theta_eval(source, lam, tol)
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
    `opcore.defect_data`."""
    A = _square(A)
    return _phi(A, opcore.defect_data(A, tol), complex(lam))


def _square(A) -> np.ndarray:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("characteristic function needs a square operator")
    return A


def _phi(A: np.ndarray, dd: DefectData, lam: complex) -> np.ndarray:
    """The characteristic function kernel: Phi_A(lambda) in the bases of dd.

    When dd holds eigenvalues (selfadjoint A, eigenvector bases), Phi_A is
    diagonal with the Blaschke factors (lambda - t) / (1 - lambda t)."""
    if dd.t is not None:
        return np.diag((lam - dd.t) * _inverse_diag(1.0 - lam * dd.t))
    n = A.shape[0]
    inner = _resolve(np.eye(n) - lam * A.conj().T, dd.DA)
    amb = -A + lam * (dd.DAs @ inner)
    return dd.E_As.conj().T @ amb @ dd.E_A


def char_defect_residuals(A, lam: complex, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two defect identities of the characteristic
    function,

        D^2_{Phi(lam)}  = (1-|lam|^2) D_A (I-conj(lam) A)^{-1} (I-lam A*)^{-1} D_A
        D^2_{Phi*(lam)} = (1-|lam|^2) D_{A*} (I-lam A*)^{-1} (I-conj(lam) A)^{-1} D_{A*}

    both read in the defect bases.  Since Phi_A(lam)* = Phi_{A*}(conj lam),
    the second is the first for A*, conj(lam) and Phi*."""
    A = _square(A)
    dd = opcore.defect_data(A, tol)
    lam = complex(lam)
    phi = _phi(A, dd, lam)
    return (_defect_identity(A, dd, lam, phi),
            _defect_identity(A.conj().T, dd.adjoint(), lam.conjugate(), phi.conj().T))


def _defect_identity(A: np.ndarray, dd: DefectData, lam: complex, phi: np.ndarray) -> float:
    n = A.shape[0]
    right = _resolve(np.eye(n) - lam * A.conj().T, dd.DA)
    full = dd.DA @ _resolve(np.eye(n) - np.conj(lam) * A, right)
    rhs = (1.0 - abs(lam) ** 2) * (dd.E_A.conj().T @ full @ dd.E_A)
    return operator_norm(np.eye(phi.shape[1]) - phi.conj().T @ phi - rhs)


def _phi_of_adjoint(p: ContractionParams, lam: complex) -> np.ndarray:
    """Phi_{A*}(lambda) in the cached bases of p (defect of A* -> defect of A)."""
    return _phi(_square(p.A).conj().T, p.defects.adjoint(), complex(lam))


def _phi_direct(p: ContractionParams, lam: complex) -> np.ndarray:
    """Phi_A(lambda) in the cached bases of p (defect of A -> defect of A*)."""
    return _phi(p.A, p.defects, complex(lam))


def theta_factored(p: ContractionParams, lam: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """K Phi_{A*}(lambda) M + D_{K*} X D_M, the transfer function written
    through the parameters instead of the resolvent of the block matrix."""
    phi = _phi_of_adjoint(p, lam)
    return p.K @ phi @ p.M + p.DKs @ p.X_ambient @ p.DM


def defect_identities(p: ContractionParams, lam: complex, h, g, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two norm identities tying the defect of Theta to
    the defect of the characteristic function plus an explicit remainder:

        ||D_{Theta(lam)} h||^2 = ||D_{Phi_{A*}(lam)} M h||^2 + ||phi(lam) h||^2
        ||D_{Theta*(lam)} g||^2 = ||D_{Phi_A(conj lam)} K* g||^2 + ||psi*(lam) g||^2

    with phi = col(-D_X D_M, D_K Phi_{A*} M - K* X D_M) and
    psi = row(D_{K*} D_{X*}, K Phi_{A*} D_{M*} - D_{K*} X M*)."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if h.size != p.in_dim or g.size != p.out_dim:
        raise DimensionMismatch("h must live in the input space, g in the output space")
    theta = theta_factored(p, lam, tol)
    phi_as = _phi_of_adjoint(p, lam)

    lhs1 = float(np.real(h @ np.conj((np.eye(p.in_dim) - theta.conj().T @ theta) @ h)))
    u = p.M @ h
    def_phi = float(np.linalg.norm(u) ** 2 - np.linalg.norm(phi_as @ u) ** 2)
    dm_h = p.E_DM.conj().T @ (p.DM @ h)
    row1 = -p.DX @ dm_h
    row2 = p.DK @ (phi_as @ u) - p.K.conj().T @ (p.E_DKs @ (p.X @ dm_h))
    rhs1 = def_phi + float(np.linalg.norm(row1) ** 2 + np.linalg.norm(row2) ** 2)
    res1 = abs(lhs1 - rhs1)

    lhs2 = float(np.real(g @ np.conj((np.eye(p.out_dim) - theta @ theta.conj().T) @ g)))
    phi_a_conj = _phi_direct(p, np.conj(lam))
    v = p.K.conj().T @ g
    def_phi2 = float(np.linalg.norm(v) ** 2 - np.linalg.norm(phi_a_conj @ v) ** 2)
    psi_left = p.DKs @ p.E_DKs @ p.DXs
    psi_right = p.K @ (phi_as @ p.DMs) - p.DKs @ p.E_DKs @ p.X @ p.E_DM.conj().T @ p.M.conj().T
    psi = np.hstack([psi_left, psi_right])
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
    if p.M.shape != p.K.conj().T.shape or operator_norm(p.M - p.K.conj().T) > tol.eq_tol:
        raise NotPqs("parameters do not satisfy M = K*")


def boundary_values(p: ContractionParams, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Strong limit values at the two real boundary points,

        Theta(1) = K K* + D_{K*} X D_{K*},   Theta(-1) = -K K* + D_{K*} X D_{K*},

    for a quasi-selfadjoint parameter set (A = A*, M = K*).  Cross-checked
    against near-boundary evaluation with Richardson extrapolation when the
    spectrum of A stays away from +-1."""
    _require_pqs_params(p, tol)
    kk = p.K @ p.K.conj().T
    const = p.DKs @ p.X_ambient @ p.DKs
    theta1 = kk + const
    theta_m1 = -kk + const
    if operator_norm(p.A) < 0.99:
        eps = 1e-6
        for sign, target in ((1.0, theta1), (-1.0, theta_m1)):
            t1 = theta_factored(p, sign * (1 - eps), tol)
            t2 = theta_factored(p, sign * (1 - 2 * eps), tol)
            extrap = 2 * t1 - t2
            gap = operator_norm(extrap - target)
            if gap > 1e-4:
                raise PqsysError(f"boundary value at {sign:+.0f} off by {gap:.3e}")
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
    proj_ok = operator_norm(P @ P - P) <= tol.eq_tol
    S = t1 + tm1
    rhs = 4.0 * np.eye(n) - 2.0 * (t1 - tm1)
    inner_nec = proj_ok and operator_norm(S.conj().T @ S - rhs) <= tol.eq_tol
    coinner_nec = proj_ok and operator_norm(S @ S.conj().T - rhs) <= tol.eq_tol
    return inner_nec, coinner_nec


# ---------------------------------------------------------------------------
# atomic measure data and class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqsFunctionData:
    """Theta(0) plus an atomic measure on (-1, 1) with PSD operator weights.

    Represents the function Theta(lambda) = Theta(0) + W(lambda) with

        W(lambda) = sum_k lambda (1 - t_k^2) / (1 - t_k lambda) * Sigma_k.
    """

    theta0: np.ndarray
    atoms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        theta0 = as_matrix(self.theta0)
        n = theta0.shape[0]
        if theta0.shape != (n, n):
            raise InvalidMeasure("theta0 must be square")
        cleaned = []
        for t, sigma in self.atoms:
            t = complex(t)
            if not cmath.isfinite(t):
                raise InvalidMeasure(f"atom location {t} is not finite")
            if abs(t.imag) > 1e-12:
                raise InvalidMeasure(f"atom location {t} is not real")
            t = float(t.real)
            if abs(t) >= 1.0:
                raise InvalidMeasure(f"atom location {t} lies outside (-1, 1)")
            sigma = as_matrix(sigma)
            if sigma.shape != (n, n):
                raise InvalidMeasure("weight dimension differs from theta0")
            if not opcore.is_selfadjoint(sigma):
                raise InvalidMeasure("weight is not Hermitian")
            if sigma.shape[0] and np.linalg.eigvalsh((sigma + sigma.conj().T) / 2).min() < -1e-9:
                raise InvalidMeasure("weight has a negative eigenvalue")
            cleaned.append((t, sigma))
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]


def w_from_data(f: SqsFunctionData, lam: complex) -> np.ndarray:
    """W(lambda) = sum_k lambda (1-t_k^2)/(1-t_k lambda) Sigma_k."""
    lam = complex(lam)
    n = f.dim
    acc = np.zeros((n, n), dtype=complex)
    for t, sigma in f.atoms:
        den = 1.0 - t * lam
        if abs(den) <= 1e-12 * max(1.0, abs(lam)):
            raise PolarPoint(f"evaluation point {lam} hits the pole 1/{t}")
        acc += (lam * (1.0 - t * t) / den) * sigma
    return acc


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
    return float(np.linalg.eigvalsh((G + G.conj().T) / 2).min()) if p else 0.0


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    center: np.ndarray          # -(W(1) + W(-1))/2
    radius: np.ndarray          # I - (W(1) - W(-1))/2, PSD when mass_ok
    X: np.ndarray | None        # ambient ball parameter, None if mass fails
    sigma_total_excess: float   # largest eigenvalue of (sum Sigma_k) - I
    x_norm: float
    off_range_residual: float
    kernel_min_eig: float
    reasons: tuple


def sqs_membership(f: SqsFunctionData, tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Decide whether the atomic data describes the transfer function of a
    passive quasi-selfadjoint system.

    Conditions: total mass sum Sigma_k <= I, and Theta(0) lies in the
    operator ball with center -(W(1)+W(-1))/2 and radius I - (W(1)-W(-1))/2,
    i.e. Theta(0) = center + R^{1/2} X R^{1/2} for a contraction X
    supported on ran R."""
    n = f.dim
    sigma_total = np.zeros((n, n), dtype=complex)
    first_moment = np.zeros((n, n), dtype=complex)
    for t, sigma in f.atoms:
        sigma_total += sigma
        first_moment += t * sigma
    center = -first_moment
    radius = np.eye(n) - sigma_total

    reasons = []
    excess = float(np.linalg.eigvalsh((sigma_total + sigma_total.conj().T) / 2).max() - 1.0) if n else 0.0
    mass_ok = excess <= tol.psd_tol
    if not mass_ok:
        reasons.append(f"total mass exceeds the identity by {excess:.3e}")
        return MembershipReport(False, center, radius, None, excess, np.inf, np.inf, 0.0, tuple(reasons))

    r_half = psd_sqrt(radius, tol)
    r_half_pinv = opcore.pinv(r_half, tol)
    delta = f.theta0 - center
    X = r_half_pinv @ delta @ r_half_pinv
    x_norm = operator_norm(X)
    x_ok = x_norm <= 1.0 + tol.psd_tol
    if not x_ok:
        reasons.append(f"ball parameter has norm {x_norm:.12f}")

    ran_R = opcore.range_basis(radius, tol)
    proj_ker = np.eye(n) - ran_R.projector()
    off_range = max(operator_norm(proj_ker @ delta), operator_norm(delta @ proj_ker))
    off_ok = off_range <= tol.eq_tol
    if not off_ok:
        reasons.append(f"Theta(0) sticks out of the ball range by {off_range:.3e}")

    # the Herglotz-Nevanlinna property is automatic for PSD atoms; the
    # kernel is still sampled as an internal consistency check
    kmin = nevanlinna_min_eig(f, [1.7 + 0.9j, -2.2 + 1.3j, 0.4 + 2.0j, -0.6 - 1.8j]) if f.atoms else 0.0

    member = mass_ok and x_ok and off_ok
    return MembershipReport(member, center, radius, X, excess, x_norm, off_range, kmin, tuple(reasons))
