"""The arrowhead verdict near the norm, checked at 50 digits.

`opcore._arrow_within` decides ||M||_2 <= g for M = [[D, C], [B, diag(lam)]]
from the smallest eigenvalue of a Schur complement, and leaves the verdict
open (None) within its rounding band.  Here g is set at (1 +- 1e-6, 1e-9,
1e-12, 1e-14) times the norm of the float matrix taken by `mpmath.svd_c` at
50 digits, on seeded arrowheads with s = 24 states and borders of 1 or 2
rows and columns, and every decided verdict is checked against that norm."""

import mpmath
import numpy as np
import pytest

from pqsys import opcore

from test_arrow_norm import arrowhead, blocks

RELS = (1e-6, 1e-9, 1e-12, 1e-14)


def _mp_norm(M):
    """||M||_2 of the float matrix M at 50 digits, from its exact binary entries."""
    A = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in M])
    return max(mpmath.svd_c(A, compute_uv=False))


@pytest.mark.parametrize("seed", range(6))
def test_decided_arrowhead_verdicts_match_the_50_digit_norm(seed):
    rng = np.random.default_rng(900 + seed)
    p, q = (int(x) for x in rng.integers(1, 3, 2))
    M = arrowhead(rng, p, q, 24, complex_lam=bool(seed % 2), near_one=int(rng.integers(0, 3)))
    with mpmath.workdps(50):
        nrm = _mp_norm(M)
        for rel in RELS:
            for sign in (1, -1):
                g = float(nrm * (1 + sign * mpmath.mpf(rel)))
                got = opcore._arrow_within(*blocks(M, p, q), g)
                if got is not None:
                    assert got == (nrm <= g), (rel, sign, got)
                # a relative gap of 1e-9 is far outside the rounding band at s = 24
                assert rel < 1e-9 or got is not None
