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
    _quiet,
    _require,
)
from .linalg import (
    _finite_value,
    _require_finite,
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
        """log det|U| = 1/2 sum log(1 + s^2) over the singular values s of V,
        computed once per element: make_symplectic and a compile fill it
        from the SVD of V that _check_pairs takes. An element built by the
        public constructor, as checks build deliberately wrong ones, takes
        its own. U and V are read-only, so the cached value cannot go stale.
        """
        return float(_log_det_abs_u(np.linalg.svd(self.V, compute_uv=False)))


def _log_det_abs_u(s):
    """log det|U| from the singular values s of V, over the last axis.

    The singular values of V keep their relative accuracy where
    eig(I + VV+) loses the identity once ||V|| passes about 1e8. log1p(s^2)
    is taken as log1p(t^2) + 2 log(max(s, 1e150) / 1e150), t = min(s, 1e150),
    which is exact for s <= 1e150, good to 1e-300 past it, and never
    overflows.
    """
    t = np.minimum(s, 1e150)
    big = np.maximum(s, 1e150) / 1e150
    return 0.5 * np.sum(np.log1p(t * t) + 2.0 * np.log(big), axis=-1)


@_quiet
def _check_pairs(U, V, tol=DEFAULT_TOL):
    """(residual, log det|U|) of one pair or a stack (..., d, d), or a
    ConstraintViolationError for the first pair whose residual is not at
    most tol: the one site that computes and decides the group constraints.

    The residual is the largest Frobenius norm of the four constraint
    defects, scaled by (1 + ||U||^2) for the Hermitian constraints and by
    (1 + ||U|| ||V||) for the symmetry ones, so large squeezes and V = 0 are
    judged fairly; a NaN fails. ||U||^2 is not measured but bounded below:
    as UU+ = I + VV+ + E with E the first defect, Weyl's inequality gives
    ||U||^2 >= 1 + ||V||^2 - ||E||_F (clamped at 0). Each scale is then at
    most the measured one, so the check is at least as tight, and for a
    residual r < 1/4 tighter by at most a factor 1/(1 - 4r). One SVD of V
    gives both ||V|| and log det|U|; no SVD of U is taken. Each pair is
    first divided by the power of two c with c <= hypot(1, ||V||) < 2c, and
    I by c^2, so the products of a finite element stay finite and the
    residual keeps every bit short of the subnormals.
    """
    s = np.linalg.svd(V, compute_uv=False)
    nv = np.max(s, axis=-1, initial=0.0)
    k = np.frexp(np.hypot(1.0, nv))[1] - 1
    c = np.ldexp(1.0, k)[..., None, None]
    U, V = U / c, V / c
    nv = np.ldexp(nv, -k)
    # 1/c^2, held at the least subnormal so that no scale is 0
    one = np.ldexp(1.0, -np.minimum(2 * k, 1074))
    eye = np.eye(U.shape[-1]) * one[..., None, None]
    Ut, Vt = U.swapaxes(-1, -2), V.swapaxes(-1, -2)
    defects = [U @ mat_adjoint(U) - V @ mat_adjoint(V) - eye,
               U @ Vt - V @ Ut,
               mat_adjoint(U) @ U - Vt @ mat_conj(V) - eye,
               Ut @ mat_conj(V) - mat_adjoint(V) @ U]
    norms = np.sqrt([np.add.reduce(np.square(np.abs(E)), axis=(-2, -1))
                     for E in defects])
    nu2 = np.maximum(one + nv * nv - norms[0], 0.0)
    herm_scale = one + nu2
    sym_scale = one + np.sqrt(nu2) * nv
    scales = np.array([herm_scale, sym_scale, herm_scale, sym_scale])
    residual = np.max(norms / scales, axis=0)
    _require(residual, tol, ConstraintViolationError,
             "symplectic constraints violated: scaled residual "
             "{residual:.3e} exceeds tol {tol:g}")
    return residual, _log_det_abs_u(s)


def _element(U, V, residual, log_det) -> SymplecticElement:
    """The element of a pair that _check_pairs passed with residual and
    log_det; U and V are copied and made read-only."""
    U = U.copy()
    V = V.copy()
    U.flags.writeable = False
    V.flags.writeable = False
    element = SymplecticElement(U, V, float(residual))
    element.__dict__["log_det_abs_u"] = float(log_det)
    return element


def make_symplectic(U, V, tol: float = DEFAULT_TOL) -> SymplecticElement:
    """Validate the group constraints by _check_pairs and build an element."""
    U = as_matrix(U)
    V = as_matrix(V, U.shape[0])
    return _element(U, V, *_check_pairs(U, V, tol))


def identity(dim: int) -> SymplecticElement:
    """The unit element on C^dim."""
    return make_symplectic(np.eye(dim), np.zeros((dim, dim)))


@_quiet
def from_unitary(K) -> SymplecticElement:
    """Embed a unitary K as the element (K, 0)."""
    K = as_matrix(K)
    _require(hs_norm(mat_adjoint(K) @ K - np.eye(K.shape[0])), DEFAULT_TOL,
             NotUnitaryError,
             "matrix is not unitary: ||K+K - I|| = {residual:.3e}")
    return make_symplectic(K, np.zeros(K.shape))


@_quiet
def squeeze(A) -> SymplecticElement:
    """The positive element (cosh A, sinh A) for real symmetric A."""
    A = as_matrix(A)
    _require(hs_norm(A.imag), DEFAULT_TOL * (1.0 + operator_norm(A)),
             NotRealSymmetricError, "squeeze matrix must be real")
    Ar = A.real
    _require(hs_norm(Ar - Ar.T), DEFAULT_TOL * (1.0 + operator_norm(Ar)),
             NotRealSymmetricError, "squeeze matrix must be symmetric")
    w, E = np.linalg.eigh(Ar)
    U = (E * np.cosh(w)) @ E.T
    V = (E * np.sinh(w)) @ E.T
    return make_symplectic(U, V)


@_quiet
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


@_quiet
def apply(r: SymplecticElement, f) -> np.ndarray:
    """The real-linear action U f + V f*; refused when it overflows."""
    f = as_vector(f, r.dim)
    out = r.U @ f + r.V @ involution(f)
    _require_finite("vector", out)
    return out


@_quiet
def symplectic_form(f, g) -> float:
    """omega(f, g) = Im (f|g), the invariant of the action."""
    f = as_vector(f)
    g = as_vector(g, f.shape[0])
    return _finite_value("symplectic form", float(np.vdot(f, g).imag))


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
    singular values of V. One SVD of V gives K1 and those singular values,
    which keep their relative accuracy beside a large squeeze where the
    eigenvalues of VV+ do not. The gauge freedom of the left singular
    vectors within repeated squeeze values is fixed by a Takagi
    factorization of the residual symmetric unitary coupling block.

    Returns:
        (K1, A, K2) as plain matrices, so that
        compose(from_unitary(K1), compose(squeeze(A), from_unitary(K2)))
        reproduces r within 1e-9 * (1 + ||U||).

    Raises:
        FactorizationFailureError: if it does not.
    """
    U, V = r.U, r.V
    d = r.dim
    K1, sv, _ = np.linalg.svd(V)
    lam = np.arcsinh(sv)
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
    _require(max(hs_norm(rec.U - U), hs_norm(rec.V - V)),
             1e-9 * (1.0 + operator_norm(U)), FactorizationFailureError,
             "recomposition residual {residual:.3e} exceeds tolerance")
    return K1, A, K2


@_quiet
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
    _require(np.max(np.abs(m.imag), initial=0.0), 1e-12, GaussFockError,
             "spectrum must be real")
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
    """log det|U| = 1/2 sum log(1 + s^2) over the singular values s of V;
    real and nonnegative."""
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
