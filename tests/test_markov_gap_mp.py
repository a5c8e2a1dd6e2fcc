"""`transfer.markov_gap` at its bound, checked at 50 digits.

Seeded pole forms f and g with at most 40 poles each, on one t (the same
array, bit for bit) and on distinct t, differ so that their largest
coefficient gap sits at bound (1 +- 1e-6), that gap computed at 50 digits
from the exact binary entries of the two forms.  `markov_gap`'s verdict
gap <= bound must equal the verdict of those 50-digit coefficients, and on a
shared t its Frobenius settle, which returns before any power sum is taken,
must accept no pair that the 50-digit coefficients reject."""

import mpmath
import numpy as np
import pytest

from pqsys import transfer

BOUND = 1e-8   # the agreement bound of `realize_from_data` for ||theta0|| <= 1
REL = 1e-6
SHARED = ("one_pole", "all_poles", "constant")
DISTINCT = ("extra_poles", "moved_pole")


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _form(rng, s, n):
    """A pole form (D, t, R) of a passive pqs system: R_k = (1 - t_k^2) l_k l_k*."""
    t = np.sort(rng.uniform(-0.99, 0.99, s))
    L = _cplx(rng, s, n) / np.sqrt(2 * s)
    return 0.3 * _cplx(rng, n, n), t, (1 - t * t)[:, None, None] * L[:, :, None] * L.conj()[:, None, :]


def _mpc(x):
    """x at the working precision, exactly: a double has 53 bits."""
    return mpmath.mpc(complex(x))


def _norm2(c):
    """||c||_2 at the working precision for a matrix with at most 2 columns,
    from the largest eigenvalue of its Gram matrix."""
    cols = list(zip(*c))
    G = [[mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b)) for b in cols] for a in cols]
    if len(G) == 1:
        return mpmath.sqrt(G[0][0].real)
    a, d, b = G[0][0].real, G[1][1].real, G[0][1]
    return mpmath.sqrt((a + d + mpmath.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)) / 2)


def _mp_gap(f, g, count):
    """The largest 2-norm of the coefficient differences of f and g, D and the
    Markov parameters sum_k t_k^(j-1) R_k for j = 1..count, summed at 50
    digits from the exact binary entries (a shared t is summed once)."""
    (Df, tf, Rf), (Dg, tg, Rg) = f, g
    if np.array_equal(tf, tg) and tf.shape == tg.shape:
        poles = [(t, [[_mpc(a) - _mpc(b) for a, b in zip(ra, rb)] for ra, rb in zip(P, Q)])
                 for t, P, Q in zip(tf, Rf, Rg)]
    else:
        poles = [(t, [[_mpc(x) for x in row] for row in P]) for t, P in zip(tf, Rf)]
        poles += [(t, [[-_mpc(x) for x in row] for row in P]) for t, P in zip(tg, Rg)]
    gaps = [_norm2([[_mpc(a) - _mpc(b) for a, b in zip(ra, rb)] for ra, rb in zip(Df, Dg)])]
    ts = [mpmath.mpf(float(t)) for t, _ in poles]
    powers = [mpmath.mpf(1)] * len(poles)
    n, m = Df.shape
    for _ in range(count):
        gaps.append(_norm2([[mpmath.fsum(p * R[i][j] for p, (_, R) in zip(powers, poles)) for j in range(m)]
                            for i in range(n)]))
        powers = [p * t for p, t in zip(powers, ts)]
    return max(gaps)


def _case(rng, kind):
    """f, the unscaled difference g - f as a function of the scale c, and
    the number of coefficients `markov_gap` compares."""
    n = int(rng.integers(1, 3))
    if kind in SHARED:
        s = int(rng.integers(20, 41))
        D, t, R = f = _form(rng, s, n)
        dD, dR = np.zeros((n, n), dtype=complex), np.zeros_like(R)
        if kind == "one_pole":      # rank one at one pole: the settle's sum is the gap
            dR[int(rng.integers(s))] = np.outer(_cplx(rng, n), _cplx(rng, n))
        elif kind == "all_poles":   # spread over every pole: the settle cannot accept
            dR = _cplx(rng, s, n, n)
        else:                       # a rank-one constant term that dominates
            dD = np.outer(_cplx(rng, n), _cplx(rng, n))
            dR = 0.1 * np.linalg.norm(dD, 2) / s * _cplx(rng, s, n, n) / (2 * n)
        return f, lambda c: (D + c * dD, t, R + c * dR), s
    s = int(rng.integers(8, 21))
    D, t, R = _form(rng, s, n)
    if kind == "extra_poles":       # g has one to three more poles, of small weight
        e = np.sort(rng.uniform(-0.99, 0.99, int(rng.integers(1, 4))))
        Re = _form(rng, e.size, n)[2]
        return (D, t, R), lambda c: (D, np.concatenate([t, e]), np.concatenate([R, c * Re])), 2 * s + e.size
    # g moves one pole by 1e-3, whose residue is scaled in both forms
    k = int(rng.integers(s))
    moved = t.copy()
    moved[k] += 1e-3

    def scaled(c):
        return np.concatenate([R[:k], c * R[k:k + 1], R[k + 1:]])
    return (D, t, scaled(1.0)), lambda c: (D, moved, scaled(c)), 2 * s


@pytest.mark.parametrize("kind", SHARED + DISTINCT)
@pytest.mark.parametrize("seed", range(4))
def test_markov_gap_verdicts_match_the_50_digit_coefficients(monkeypatch, kind, seed):
    rng = np.random.default_rng(950 + 10 * seed + (SHARED + DISTINCT).index(kind))
    f, make_g, count = _case(rng, kind)
    powered = []
    power_sums = transfer._power_sums
    monkeypatch.setattr(transfer, "_power_sums", lambda *a: powered.append(1) or power_sums(*a))
    with mpmath.workdps(50):
        if kind == "moved_pole":    # the scale multiplies the residue of f too
            unit = _mp_gap((f[0], f[1], make_g(1.0)[2]), make_g(1.0), count)
        else:
            unit = _mp_gap(f, make_g(1.0), count)
        for sign in (1, -1):
            target = BOUND * (1 + sign * REL)
            c = float(target / unit)
            g = make_g(c)
            if kind == "moved_pole":
                f = (f[0], f[1], g[2])
            ref = _mp_gap(f, g, count)
            # the rounding of g keeps the 50-digit gap on its side of the bound
            assert abs(ref / target - 1) < REL / 10, (kind, sign)
            del powered[:]
            gap, j = transfer.markov_gap(f, g, BOUND)
            assert (gap <= BOUND) == (ref <= BOUND), (kind, sign, gap, float(ref))
            settled = not powered
            assert not settled or (kind in SHARED and ref <= BOUND), (kind, sign)
            if kind in ("one_pole", "constant") and sign < 0:
                assert settled and j == 0, kind
