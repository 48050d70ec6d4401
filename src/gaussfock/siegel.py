"""The Siegel disc of symmetric contractions and its Moebius action.

Points are complex symmetric d x d matrices Z with operator norm below 1.
A Bogoliubov pair (U, V) acts by the fractional-linear map

    Z -> (U Z + V)(U~ + V~ Z)^{-1} = (U+ + Z V+)^{-1}(V^T + Z U^T),

which preserves the disc; both expressions are evaluated and compared on
every call. The stabilizer of the origin is the unitary subgroup, acting by
Z -> K Z K^T, and (I - ZZ+)^{-1/2} paired with its Z-multiple transports the
origin to Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotInDiscError,
    NotSymmetricError,
    _require,
)
from .linalg import as_matrix, hs_norm, mat_adjoint, mat_conj, operator_norm
from .symplectic import SymplecticElement, make_symplectic

__all__ = [
    "SiegelPoint",
    "make_point",
    "origin",
    "moebius",
    "transport_from_origin",
    "random_point",
]

DISC_MARGIN = 1e-9
_DISC_LIMIT = np.nextafter(1.0 - DISC_MARGIN, 0.0)   # largest norm accepted


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Validated disc point. Construct via make_point."""

    Z: np.ndarray
    op_norm: float

    @property
    def dim(self) -> int:
        return self.Z.shape[0]


def make_point(Z) -> SiegelPoint:
    """Validate symmetry and strict disc membership.

    Raises:
        NotSymmetricError: if ||Z - Z^T|| > 1e-10 * (1 + ||Z||).
        NotInDiscError: if ||Z|| >= 1 - DISC_MARGIN.
    """
    Z = as_matrix(Z)
    norm = operator_norm(Z)
    _require(hs_norm(Z - Z.T), 1e-10 * (1.0 + norm), NotSymmetricError,
             "disc point must be a symmetric matrix")
    _require(norm, _DISC_LIMIT, NotInDiscError,
             "operator norm {residual:.12g} is not below 1 - "
             f"{DISC_MARGIN:g}")
    Z = Z.copy()
    Z.flags.writeable = False
    return SiegelPoint(Z, norm)


def origin(dim: int) -> SiegelPoint:
    return make_point(np.zeros((dim, dim)))


def moebius(r: SymplecticElement, p: SiegelPoint) -> SiegelPoint:
    """Fractional-linear action of r on p, cross-checked in both forms."""
    if r.dim != p.dim:
        raise DimensionMismatchError(
            f"element of dimension {r.dim} cannot act on a point of "
            f"dimension {p.dim}")
    Z = p.Z
    U, V = r.U, r.V
    left = np.linalg.solve(
        (mat_conj(U) + mat_conj(V) @ Z).T, (U @ Z + V).T).T
    right = np.linalg.solve(mat_adjoint(U) + Z @ mat_adjoint(V),
                            V.T + Z @ U.T)
    point = make_point(right)
    _require(hs_norm(left - right), 1e-10 * (1.0 + point.op_norm),
             InternalInconsistencyError,
             "the two Moebius expressions disagree by {residual:.3e}")
    return point


def transport_from_origin(p: SiegelPoint) -> SymplecticElement:
    """The positive element (U, UZ) with U = (I - ZZ+)^{-1/2} mapping 0 to Z.

    U is computed through the eigendecomposition of the Hermitian matrix
    I - ZZ+, whose spectrum is positive for any disc point.
    """
    Z = p.Z
    d = p.dim
    w, E = np.linalg.eigh(np.eye(d) - Z @ mat_adjoint(Z))
    U = (E / np.sqrt(w)) @ mat_adjoint(E)
    return make_symplectic(U, U @ Z)


def random_point(dim: int, rng: np.random.Generator,
                 max_norm: float = 0.6) -> SiegelPoint:
    """Random symmetric point with operator norm uniform in (0, max_norm)."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Z = (G + G.T) / 2.0
    norm = operator_norm(Z)
    if norm > 0:
        Z *= max_norm * rng.uniform(0.05, 1.0) / norm
    return make_point(Z)
