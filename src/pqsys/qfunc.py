"""Resolvent compressions of quasi-selfadjoint contractions.

Q(z) is the I/O-corner compression of (T - zI)^{-1}.  This module
evaluates it, checks the algebraic inversion tying it to the transfer
function, fits the second asymptotic coefficient, and runs the grid
kernel tests that characterize which functions arise this way.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import sysmodel, transfer
from .errors import DegenerateGrid, NotPqs, SingularResolvent
from .opcore import DEFAULT_TOL, Tolerances, as_matrix, herm_part, operator_norm
from .sysmodel import PartitionedContraction


# The Schur complement of A - z is used only at this distance from the
# spectrum of A; its rounding error grows like 1 / min|t_k - z|, and Q
# exists wherever T - zI is invertible, including at the points t_k.
_SCHUR_GAP = 1e-3


def q_eval(tau: PartitionedContraction, z: complex, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Corner block of (T - zI)^{-1} on the I/O coordinates.

    Away from the spectrum of A it is the inverse of the Schur complement
    S = D - z - C V diag(1 / (t - z)) V* B, from the cached factorization of
    the selfadjoint A, in O(s n^2), as Q = (S / sigma)^-1 / sigma with
    sigma = max(1, |z|): no term overflows at an extreme z, and one that
    underflows lies far below the rounding of z / sigma, of modulus 1.  The
    dense solve with T - zI serves only the points within _SCHUR_GAP of the
    spectrum: a pqs system always has the factorization (`classify` finds A
    selfadjoint exactly when `spectral_data` exists)."""
    if not sysmodel.classify(tau, tol).pqs:
        raise NotPqs("resolvent compressions are defined for pqs systems")
    z = complex(z)
    n = tau.out_dim
    sd = sysmodel.spectral_data(tau, tol)
    if np.abs(sd.t - z).min(initial=np.inf) > _SCHUR_GAP:
        sigma = max(1.0, abs(z))
        with np.errstate(under="ignore"):
            coupling = (sd.CV / ((sd.t - z) / sigma)) @ sd.VB / sigma / sigma
            schur = tau.D / sigma - (z / sigma) * np.eye(n) - coupling
            return transfer._resolve(schur, np.eye(n, dtype=complex)) / sigma
    total = n + tau.state_dim
    E = np.eye(total, dtype=complex)[:, :n]
    X = transfer._resolve(tau.T - z * np.eye(total), E)
    return X[:n, :]


def q_sampler(source, tol: Tolerances = DEFAULT_TOL) -> Callable[[complex], np.ndarray]:
    """Normalize a system or a callable into a function z -> Q(z)."""
    if isinstance(source, PartitionedContraction):
        return lambda z: q_eval(source, z, tol)
    if callable(source):
        return source
    raise TypeError(f"cannot sample a resolvent compression from {type(source)!r}")


def q_theta_roundtrip(tau: PartitionedContraction, z: complex, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two inversion directions

        Q(z) (Theta(1/z) - zI) = I    and    Theta(1/z) = zI + Q(z)^{-1}.
    """
    z = complex(z)
    if abs(z) < 1e-12:
        raise SingularResolvent("the inversion needs z != 0")
    n = tau.out_dim
    Q = q_eval(tau, z, tol)
    th = transfer.theta_eval(tau, 1.0 / z, tol)
    r1 = operator_norm(Q @ (th - z * np.eye(n)) - np.eye(n))
    try:
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from None
    r2 = operator_norm(th - z * np.eye(n) - Qinv)
    return r1, r2


# The ring of `q_asymptotic_F`: z^2 (Q(z) + I/z) = F + sum_k c_k z^-k, and the
# mean of z^-k over the _F_COUNT roots of unity vanishes unless _F_COUNT
# divides k, so the ring mean is F + O(_F_RADIUS^-_F_COUNT) = F + O(100^-8).
_F_RADIUS = 100.0
_F_COUNT = 8


def q_asymptotic_F(q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Second coefficient of the expansion Q(z) = -I/z + F/z^2 + o(1/z^2),
    fitted as the average of z^2 (Q(z) + I/z) over a ring of 8 roots of
    unity at radius 100, which cancels the lower-order tail to O(100^-8)."""
    sample = q_sampler(q, tol)
    acc = None
    for k in range(_F_COUNT):
        z = _F_RADIUS * np.exp(2j * np.pi * k / _F_COUNT)
        val = as_matrix(sample(z))
        n = val.shape[0]
        term = z * z * (val + np.eye(n) / z)
        acc = term if acc is None else acc + term
    return acc / _F_COUNT


class KernelReport(NamedTuple):
    s2_min_eig: float
    s3_min_eig: float
    s4_witness: bool
    s4_point: complex | None


_S4_PROBES = (2.0 + 0.9j, -1.8 + 1.2j, 1.6 - 1.1j, -2.4 - 0.8j, 3.0 + 2.0j)


def q_class_kernel_check(q, F, z_points: Sequence[complex], tol: Tolerances = DEFAULT_TOL) -> KernelReport:
    """Grid test of the structural kernel conditions.

    Assembles the two block Gram matrices

        K2(z, xi) = [Q(z) - Q(xi)* - Q(xi)*(F - F*)Q(z)] / (z - conj(xi))
        K3(z, xi) = [(1-z^2)Q(z) - (1-conj(xi)^2)Q(xi)*
                     - (1-z conj(xi))Q(xi)*(F - F*)Q(z)
                     - (z - conj(xi))I] / (z - conj(xi))

    over the given points and returns their smallest eigenvalues; genuine
    resolvent compressions give nonnegative values up to roundoff.
    Diagonal entries at real points are confluent and use a central
    difference in the first argument.  Also searches a fixed probe set
    for a point where K2(z0, z0) differs from Q(z0)*Q(z0), the witness
    that the underlying operator has genuine state content."""
    sample = q_sampler(q, tol)
    F = as_matrix(F)
    pts = [complex(z) for z in z_points]
    p = len(pts)
    if p == 0:
        raise DegenerateGrid("empty grid")
    for i in range(p):
        if abs(pts[i]) <= 1.0:
            raise DegenerateGrid(f"grid point {pts[i]} is not outside the closed unit disk")
        for j in range(i + 1, p):
            if abs(pts[i] - pts[j]) <= 1e-12:
                raise DegenerateGrid(f"repeated grid point {pts[i]}")
            if abs(pts[i] - np.conj(pts[j])) <= 1e-12:
                raise DegenerateGrid(f"conjugate-coincident pair at {pts[i]}")

    vals = [as_matrix(sample(z)) for z in pts]
    n = vals[0].shape[0]
    dF = F - F.conj().T
    h = 1e-6

    # row index carries the conjugated argument zi = conj(xi), column the
    # holomorphic one; only this orientation assembles the factored Gram form
    def k2_num(zi, qi, w, qw):
        return qw - qi - qi @ dF @ qw

    def k3_num(zi, qi, w, qw):
        return ((1 - w * w) * qw - (1 - zi * zi) * qi
                - (1 - w * zi) * qi @ dF @ qw - (w - zi) * np.eye(n))

    G = np.zeros((2, n * p, n * p), dtype=complex)
    for i in range(p):
        zi, qi = np.conj(pts[i]), vals[i].conj().T
        for j in range(p):
            if i == j and abs(pts[i].imag) <= 1e-9:
                # confluent: central difference in the first argument
                up, down = pts[i] + h, pts[i] - h
                q_up, q_down = as_matrix(sample(up)), as_matrix(sample(down))
                blocks = [(num(zi, qi, up, q_up) - num(zi, qi, down, q_down)) / (2 * h)
                          for num in (k2_num, k3_num)]
            else:
                blocks = [num(zi, qi, pts[j], vals[j]) / (pts[j] - zi) for num in (k2_num, k3_num)]
            G[:, i * n:(i + 1) * n, j * n:(j + 1) * n] = blocks
    s2, s3 = (float(np.linalg.eigvalsh(herm_part(g)).min()) for g in G)

    witness = False
    where = None
    for z0 in _S4_PROBES:
        qv = as_matrix(sample(z0))
        qs = qv.conj().T
        k = k2_num(np.conj(z0), qs, z0, qv) / (z0 - np.conj(z0))
        gap = operator_norm(k - qs @ qv)
        if gap > 100 * tol.psd_tol * max(1.0, operator_norm(qv) ** 2):
            witness = True
            where = complex(z0)
            break
    return KernelReport(s2, s3, witness, where)
