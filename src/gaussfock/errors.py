"""Exception types raised by validated constructors and numerical routines,
the one routine that decides every internal check, and the one decorator
that quiets numpy's overflow warnings."""

from functools import wraps

import numpy as np


class GaussFockError(ValueError):
    """Base class for all validation and consistency errors in this package.
    A failed _require check sets .residual and .tol, else both are None."""

    residual = tol = None


class DimensionMismatchError(GaussFockError):
    """Operands have incompatible shapes or mode counts."""


class NotSymmetricError(GaussFockError):
    """A matrix required to equal its plain transpose does not."""


class NotRealSymmetricError(GaussFockError):
    """A matrix required to be real symmetric is complex or asymmetric."""


class NotUnitaryError(GaussFockError):
    """A matrix required to be unitary fails K+K = I within tolerance."""


class SingularMatrixError(GaussFockError):
    """A matrix is too close to singular for the requested operation."""


class ConstraintViolationError(GaussFockError):
    """A Bogoliubov pair (U, V) violates the defining group constraints."""


class NotInDiscError(GaussFockError):
    """A matrix parameter lies outside the open unit-operator-norm disc;
    .norm is the operator norm that failed the check."""

    norm = property(lambda self: self.residual)


class FactorizationFailureError(GaussFockError):
    """A factorization did not reproduce its input within tolerance."""


class InternalInconsistencyError(GaussFockError):
    """Two formulas that must agree disagreed beyond tolerance."""


class InvalidAlphaError(GaussFockError):
    """A weight parameter alpha must be strictly positive."""


class CircuitSyntaxError(GaussFockError):
    """Circuit source text failed to parse; carries line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col

    def __reduce__(self):
        # keep picklability despite the custom signature
        return (CircuitSyntaxError, (self.line, self.col,
                                     str(self).split(": ", 1)[1]))


class ModeOutOfRangeError(GaussFockError):
    """A gate addresses a mode index outside the declared dimension."""


def _require(residual, tol, error: type[GaussFockError], message: str) -> None:
    """Pass if and only if residual <= tol, so a NaN residual fails. An array
    residual or tol fails for its first failing entry, and reports that
    entry's residual and tol. message is a template with {residual} and
    {tol} slots, filled only on failure; the error raised carries both."""
    if isinstance(residual, np.ndarray) or isinstance(tol, np.ndarray):
        failed = ~(residual <= tol)
        bad = np.flatnonzero(failed)
        if not bad.size:
            return
        residual = np.broadcast_to(residual, failed.shape).flat[bad[0]]
        if isinstance(tol, np.ndarray):
            tol = np.broadcast_to(tol, failed.shape).flat[bad[0]]
    elif residual <= tol:
        return
    exc = error(message.format(residual=residual, tol=tol))
    exc.residual, exc.tol = residual, tol
    raise exc


def _quiet(build):
    """build, run with numpy's overflow and invalid-value warnings off, for a
    result that a check refuses after it when an entry overflowed float64 or
    is NaN. Each call enters a fresh errstate, so quiet functions nest."""
    @wraps(build)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return build(*args, **kwargs)
    return quiet
