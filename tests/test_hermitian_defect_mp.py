"""The defect rule of `hermitian_defect` near |t| = 1, checked at 50 digits.

A defect square 1 - t^2 below the rounding floor `opcore._rounding(s)` of an
s x s eigendecomposition is zero, every other one is kept.  Here
t = +-(1 - 10^-k), k = 2..16, are taken as doubles at s = 3, 50 and 1000 (the
floor 6.7e-15, 1.1e-13 and 2.2e-12), and the exact square of each double, at
50 digits, decides the reference: a value may be zeroed only when that square
is at most the floor (up to 2 eps, the rounding of the float square), kept
only when it is above, and a kept defect value must be sqrt of that square
to the float square's rounding."""

import mpmath
import numpy as np
import pytest

from pqsys import opcore

EPS = float(np.finfo(float).eps)
VALUES = [sign * (1.0 - 10.0 ** -k) for k in range(2, 17) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("s", [3, 50, 1000])
def test_hermitian_defect_near_1_matches_the_50_digit_square(s):
    with mpmath.workdps(50):
        floor = mpmath.mpf(opcore._rounding(s))
        slack = 2 * mpmath.mpf(EPS)
        for v in VALUES:
            t = np.zeros(s)
            t[0 if v < 0 else -1] = v
            d, keep = opcore.hermitian_defect(t)
            k = 0 if v < 0 else s - 1
            # the product of two 53-bit doubles is exact at 50 digits
            sq = 1 - mpmath.mpf(v) ** 2
            if d[k] == 0:
                assert sq <= floor + slack, v
                assert not keep.start <= k < keep.stop
            else:
                assert sq > floor - slack, v
                assert keep.start <= k < keep.stop
                err = abs(mpmath.mpf(float(d[k])) / mpmath.sqrt(sq) - 1)
                assert err <= mpmath.mpf(EPS) / sq + slack, (v, err)


def test_the_50_digit_battery_meets_both_verdicts_at_every_size():
    # the battery is not vacuous: each size zeroes some values and keeps others
    for s in (3, 50, 1000):
        zeroed = sum(opcore.hermitian_defect(np.array([v]).repeat(s))[0][0] == 0 for v in VALUES)
        assert 0 < zeroed < len(VALUES)
