"""Exception types shared across the library, and its self-check ledger.

Every error raised on a contract violation derives from PqsysError so
callers (and the CLI) can distinguish domain failures from bugs.
"""

import contextlib
import contextvars

# the entry list of the innermost open ledger, or None outside one
_LEDGER = contextvars.ContextVar("pqsys_ledger", default=None)


@contextlib.contextmanager
def ledger():
    """Collect every `check` run inside the block in the list it yields."""
    token = _LEDGER.set([])
    try:
        yield _LEDGER.get()
    finally:
        _LEDGER.reset(token)


def check(name: str, residual: float, bound: float, exc=None, message: str = ""):
    """Record {name, pass, residual, bound} in the open ledger, if any; when
    residual > bound the check fails, and raises exc(message) if exc is given."""
    ok = bool(residual <= bound)
    entries = _LEDGER.get()
    if entries is not None:
        entries.append({"name": name, "pass": ok, "residual": float(residual), "bound": float(bound)})
    if not ok and exc is not None:
        raise exc(message)


class PqsysError(Exception):
    """Base class for all library-specific errors."""


class NotAContraction(PqsysError):
    """Operator norm exceeds 1 beyond tolerance."""


class NonSquare(PqsysError):
    """Square matrix required."""


class NotHermitian(PqsysError):
    """Hermitian matrix required."""


class NotPSD(PqsysError):
    """Positive semidefinite matrix required."""


class DimensionMismatch(PqsysError):
    """Operand dimensions are inconsistent."""


class NotPqs(PqsysError):
    """System is not passive quasi-selfadjoint (A = A*, C = B*)."""


class NotNormal(PqsysError):
    """Main operator is not normal."""


class SingularResolvent(PqsysError):
    """I - lambda*A (or T - zI) is numerically singular."""


class PolarPoint(PqsysError):
    """Evaluation point coincides with a pole 1/t_k of the atom sum."""


class InvalidMeasure(PqsysError):
    """Atomic measure data is invalid (negative weight, |t| >= 1, ...)."""


class NotInSqs(PqsysError):
    """Function data fails the S^qs membership conditions."""

    def __init__(self, msg, reasons=()):
        super().__init__(msg)
        self.reasons = tuple(reasons)


class NotInner(PqsysError):
    """Transfer function is not inner."""


class NotMinimal(PqsysError):
    """System is not minimal (controllable and observable)."""


class NotScalar(PqsysError):
    """Scalar (1x1 input/output) source required."""


class TransferMismatch(PqsysError):
    """Transfer functions of the two systems disagree in D or a Markov parameter."""


class MomentMismatch(PqsysError):
    """Mixed moments B*A^{*n}A^m B of the two systems disagree."""

    def __init__(self, msg, n=None, m=None):
        super().__init__(msg)
        self.n = n
        self.m = m


class DegenerateGrid(PqsysError):
    """Sample grid contains repeated or conjugate-coincident points."""


class InvalidD(PqsysError):
    """Constant term violates an admissibility constraint.

    Raised when the requested corner value d cannot belong to the target
    function class: outside the membership disk for the arcsine family,
    or with negative imaginary part where a dissipative corner is
    required.
    """
