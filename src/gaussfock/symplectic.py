"""Bogoliubov pairs: the restricted symplectic group on C^d.

An element is the real-linear map f -> U f + V f* acting on the one-particle
space, stored as the pair (U, V). The defining constraints are

    U U+ - V V+ = I,   U V^T = V U^T          (row form)
    U+ U - V^T V~ = I,  U^T V~ = V+ U          (column form)

where ~ is entrywise conjugation and + the adjoint. Composition follows
(U2, V2) o (U1, V1) = (U2 U1 + V2 V1~, U2 V1 + V2 U1~), and the inverse of
(U, V) is (U+, -V^T). Every element factors as unitary o diagonal-squeeze o
unitary; see polar_factorize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    FactorizationFailureError,
    GaussFockError,
    NotRealSymmetricError,
    NotUnitaryError,
)
from .linalg import (
    as_matrix,
    as_vector,
    hs_norm,
    involution,
    mat_adjoint,
    mat_conj,
    operator_norm,
    takagi,
)

__all__ = [
    "SymplecticElement",
    "make_symplectic",
    "identity",
    "from_unitary",
    "squeeze",
    "compose",
    "inverse",
    "apply",
    "symplectic_form",
    "polar_factorize",
    "conjugated_free_field",
    "random_element",
    "log_det_abs_u",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SymplecticElement:
    """Validated Bogoliubov pair. Construct via make_symplectic."""

    U: np.ndarray
    V: np.ndarray
    validation_residual: float

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @cached_property
    def log_det_abs_u(self) -> float:
        """log det|U| = 1/2 sum log eig(I + VV+), computed once per element.

        U and V are read-only, so the cached value cannot go stale.
        """
        return float(_log_det_abs_u(self.V))


def _log_det_abs_u(V):
    """log det|U| from V, for one matrix or a stack (..., d, d)."""
    w = np.linalg.eigvalsh(np.eye(V.shape[-1]) + V @ mat_adjoint(V))
    return 0.5 * np.sum(np.log(w), axis=-1)


def _constraint_residual(U, V):
    """Scaled residual of the group constraints, over any leading batch axes.

    Residuals are scaled by (1 + ||U||^2) for the Hermitian constraints and
    (1 + ||U|| ||V||) for the symmetry constraints, so elements with large
    squeezing or an exactly vanishing V are judged fairly. The largest of
    the four is returned, and a NaN among them propagates.
    """
    eye = np.eye(U.shape[-1])
    Ut, Vt = U.swapaxes(-1, -2), V.swapaxes(-1, -2)
    nu, nv = operator_norm(U), operator_norm(V)
    herm_scale = 1.0 + nu * nu
    sym_scale = 1.0 + nu * nv

    def squared_norm(A):
        return np.add.reduce(np.square(np.abs(A)), axis=(-2, -1))

    squares = np.array([
        squared_norm(U @ mat_adjoint(U) - V @ mat_adjoint(V) - eye),
        squared_norm(U @ Vt - V @ Ut),
        squared_norm(mat_adjoint(U) @ U - Vt @ mat_conj(V) - eye),
        squared_norm(Ut @ mat_conj(V) - mat_adjoint(V) @ U)])
    scales = np.array([herm_scale, sym_scale, herm_scale, sym_scale])
    with np.errstate(invalid="ignore"):     # inf / inf once products overflow
        return np.max(np.sqrt(squares) / scales, axis=0)


def make_symplectic(U, V, tol: float = DEFAULT_TOL) -> SymplecticElement:
    """Validate the group constraints and build an element.

    The scaled residual is _constraint_residual's; the stacked circuit
    compile checks every gate and running product with the same kernel.
    """
    U = as_matrix(U)
    V = as_matrix(V, U.shape[0])
    residual = float(_constraint_residual(U, V))
    if not residual <= tol:
        raise ConstraintViolationError(
            f"symplectic constraints violated: scaled residual {residual:.3e}"
            f" exceeds tol {tol:g}", residual)
    U = U.copy()
    V = V.copy()
    U.flags.writeable = False
    V.flags.writeable = False
    return SymplecticElement(U, V, residual)


def identity(dim: int) -> SymplecticElement:
    """The unit element on C^dim."""
    return make_symplectic(np.eye(dim), np.zeros((dim, dim)))


def from_unitary(K) -> SymplecticElement:
    """Embed a unitary K as the element (K, 0)."""
    K = as_matrix(K)
    defect = hs_norm(mat_adjoint(K) @ K - np.eye(K.shape[0]))
    if defect > DEFAULT_TOL:
        raise NotUnitaryError(
            f"matrix is not unitary: ||K+K - I|| = {defect:.3e}")
    return make_symplectic(K, np.zeros(K.shape))


def squeeze(A) -> SymplecticElement:
    """The positive element (cosh A, sinh A) for real symmetric A."""
    A = as_matrix(A)
    if hs_norm(A.imag) > DEFAULT_TOL * (1.0 + operator_norm(A)):
        raise NotRealSymmetricError("squeeze matrix must be real")
    Ar = A.real
    if hs_norm(Ar - Ar.T) > DEFAULT_TOL * (1.0 + operator_norm(Ar)):
        raise NotRealSymmetricError("squeeze matrix must be symmetric")
    w, E = np.linalg.eigh(Ar)
    U = (E * np.cosh(w)) @ E.T
    V = (E * np.sinh(w)) @ E.T
    return make_symplectic(U, V)


def compose(r2: SymplecticElement, r1: SymplecticElement,
            tol: float = DEFAULT_TOL) -> SymplecticElement:
    """Group product r2 o r1 (r1 acts first)."""
    if r2.dim != r1.dim:
        raise DimensionMismatchError(
            f"cannot compose elements of dims {r2.dim} and {r1.dim}")
    U = r2.U @ r1.U + r2.V @ mat_conj(r1.V)
    V = r2.U @ r1.V + r2.V @ mat_conj(r1.U)
    return make_symplectic(U, V, tol)


def inverse(r: SymplecticElement) -> SymplecticElement:
    """Group inverse (U+, -V^T)."""
    return make_symplectic(mat_adjoint(r.U), -r.V.T)


def apply(r: SymplecticElement, f) -> np.ndarray:
    """The real-linear action U f + V f*."""
    f = as_vector(f, r.dim)
    return r.U @ f + r.V @ involution(f)


def symplectic_form(f, g) -> float:
    """omega(f, g) = Im (f|g), the invariant of the action."""
    f = as_vector(f)
    g = as_vector(g, f.shape[0])
    return float(np.vdot(f, g).imag)


def _equal_groups(vals: np.ndarray):
    """Contiguous index ranges of (sorted) values equal within 1e-8 relative."""
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[start]) > 1e-8 * (1.0 + abs(vals[start])):
            groups.append((start, i))
            start = i
    return groups


def polar_factorize(r: SymplecticElement
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor r as (K1, 0) o (cosh A, sinh A) o (K2, 0).

    K1, K2 are unitary and A is real symmetric (diagonal in the returned
    frame); its eigenvalues are the squeeze parameters arcsinh of the
    singular values of V. The gauge freedom of the eigenbasis of VV+ within
    repeated squeeze values is fixed by a Takagi factorization of the
    residual symmetric unitary coupling block.

    Returns:
        (K1, A, K2) as plain matrices, so that
        compose(from_unitary(K1), compose(squeeze(A), from_unitary(K2)))
        reproduces r within 1e-9 * (1 + ||U||).

    Raises:
        FactorizationFailureError: if it does not.
    """
    U, V = r.U, r.V
    d = r.dim
    s2, K1 = np.linalg.eigh(V @ mat_adjoint(V))
    s2 = np.maximum(s2[::-1], 0.0)
    K1 = K1[:, ::-1]
    lam = np.arcsinh(np.sqrt(s2))
    ch, sh = np.cosh(lam), np.sinh(lam)
    K2 = (mat_adjoint(K1) / ch[:, None]) @ U

    pos = sh > 1e-8 * max(float(sh[0]) if d else 0.0, 1.0)
    Q = np.eye(d, dtype=complex)
    if np.any(pos):
        idx = np.where(pos)[0]
        Y = mat_adjoint(K1[:, idx]) @ V @ K2.T
        theta = Y[:, idx] / sh[idx][:, None]
        theta = (theta + theta.T) / 2.0
        Qp = np.zeros_like(theta)
        for a, b in _equal_groups(lam[idx]):
            Qp[a:b, a:b] = takagi(theta[a:b, a:b], tol=1e-6)[0]
        Q[np.ix_(idx, idx)] = Qp
    K1 = K1 @ Q
    K2 = mat_adjoint(Q) @ K2
    A = np.diag(lam)

    try:
        rec = compose(from_unitary(K1), compose(squeeze(A), from_unitary(K2)))
    except GaussFockError as exc:
        raise FactorizationFailureError(
            f"factors do not recompose: {exc}") from exc
    residual = max(hs_norm(rec.U - U), hs_norm(rec.V - V))
    if residual > 1e-9 * (1.0 + operator_norm(U)):
        raise FactorizationFailureError(
            f"recomposition residual {residual:.3e} exceeds tolerance")
    return K1, A, K2


def conjugated_free_field(r1: SymplecticElement, spectrum, t: float,
                          tol: float = DEFAULT_TOL) -> SymplecticElement:
    """One-parameter subgroup r1 o (e^{-i m t}, 0) o r1^{-1} in closed form.

    spectrum is the vector of nonnegative mode frequencies m. The returned
    element is computed from the explicit expression

        U(t) = U1 D(t) U1+ - V1 D(-t) V1+
        V(t) = -U1 D(t) V1^T + V1 D(-t) U1^T,   D(t) = diag(e^{-i m t}),

    which tests verify against the three-factor composition route.
    """
    m = as_vector(spectrum, r1.dim)
    if np.max(np.abs(m.imag), initial=0.0) > 1e-12:
        raise GaussFockError("spectrum must be real")
    mr = m.real
    if np.min(mr, initial=0.0) < 0.0:
        raise GaussFockError("spectrum must be nonnegative")
    dpos = np.exp(-1j * mr * float(t))
    dneg = np.exp(1j * mr * float(t))
    U1, V1 = r1.U, r1.V
    U = (U1 * dpos) @ mat_adjoint(U1) - (V1 * dneg) @ mat_adjoint(V1)
    V = -(U1 * dpos) @ V1.T + (V1 * dneg) @ U1.T
    return make_symplectic(U, V, tol)


def log_det_abs_u(r: SymplecticElement) -> float:
    """log det|U| = 1/2 sum log eig(I + VV+); real and nonnegative."""
    return r.log_det_abs_u


def random_element(dim: int, rng: np.random.Generator,
                   squeeze_scale: float = 1.5) -> SymplecticElement:
    """Random element: unitary o squeeze o unitary with ||A|| <= squeeze_scale."""
    def rand_unitary():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, rr = np.linalg.qr(g)
        return q * (np.diag(rr) / np.abs(np.diag(rr)))

    A = rng.normal(size=(dim, dim))
    A = (A + A.T) / 2.0
    norm = operator_norm(A)
    if norm > 0:
        A *= squeeze_scale * rng.uniform(0.1, 1.0) / norm
    return compose(from_unitary(rand_unitary()),
                   compose(squeeze(A), from_unitary(rand_unitary())))
