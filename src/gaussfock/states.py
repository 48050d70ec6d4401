"""Gaussian (ultracoherent) vectors on bosonic Fock space, in closed form.

A state is amp * Phi(Z, f) where Phi(Z, f) = exp Omega(Z) v exp f is the
symmetric-tensor exponential attached to a Siegel disc point Z and a
one-particle vector f, and amp is kept as log_amp. The vacuum is Phi(0, 0),
and coherent vectors are e^{-|f|^2/2} Phi(0, f).

Two pairings appear throughout and are kept strictly apart:

    bilinear_pairing(u, v)  = sum_i u_i v_i          (<u|v>, no conjugation)
    hermitian_inner(u, v)   = sum_i conj(u_i) v_i    ((u|v), Fock inner)

The inner product of two states is the determinant-kernel formula

    (x|y) = conj(amp_x) amp_y det(I - A+B)^{-1/2}
            exp( 1/2<f*|C f*> + <f*|(I - BA+)^{-1} g> + 1/2<g|D g> )

with A = Z_x, B = Z_y, C = B(I - A+B)^{-1}, D = A+(I - BA+)^{-1}; overlap
evaluates it, taking C and D each in two forms that must agree. Weyl
displacement operators act in closed form and never leave the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GaussFockError,
    InternalInconsistencyError,
    _quiet,
    _require,
)
from .linalg import (
    _exp,
    _finite_value,
    as_vector,
    eig_log_det,
    hs_norm,
    involution,
    mat_adjoint,
)
from .siegel import SiegelPoint, make_point, random_point, transport_from_origin
from .symplectic import SymplecticElement, log_det_abs_u

__all__ = [
    "UltracoherentState",
    "make_state",
    "vacuum",
    "coherent",
    "bilinear_pairing",
    "hermitian_inner",
    "overlap",
    "norm",
    "norm_squared_direct",
    "bargmann_eval",
    "weyl_apply",
    "weyl_phase",
    "displacement_to_origin",
    "factor_displaced_squeezed",
    "scaled",
    "state_residual",
    "random_state",
]


def _pairing(u, v, conjugate: bool = False) -> complex:
    """<u|v>, or (u|v) when conjugate, of two finite vectors of one length.
    A value that overflowed is returned, for an exponent to refuse."""
    u = as_vector(u)
    v = as_vector(v, u.shape[0])
    return complex(np.vdot(u, v) if conjugate else u @ v)


@_quiet
def bilinear_pairing(u, v) -> complex:
    """<u|v> = sum u_i v_i, linear in both arguments."""
    return _finite_value("bilinear pairing", _pairing(u, v))


@_quiet
def hermitian_inner(u, v) -> complex:
    """(u|v) = sum conj(u_i) v_i, conjugate-linear in the first argument."""
    return _finite_value("Hermitian inner product", _pairing(u, v, True))


@dataclass(frozen=True, eq=False)
class UltracoherentState:
    """exp(log_amp) * Phi(Z, f). Construct via make_state."""

    Z: SiegelPoint
    f: np.ndarray
    log_amp: complex

    @property
    def dim(self) -> int:
        return self.Z.dim


def make_state(Z, f, log_amp: complex = 0.0) -> UltracoherentState:
    """Build a state from a disc point (or raw symmetric matrix), vector, amp."""
    point = Z if isinstance(Z, SiegelPoint) else make_point(Z)
    f = as_vector(f, point.dim)
    log_amp = complex(log_amp)
    if not np.isfinite([log_amp.real, log_amp.imag]).all():
        raise InternalInconsistencyError("log amplitude must be finite")
    f = f.copy()
    f.flags.writeable = False
    return UltracoherentState(point, f, log_amp)


def vacuum(dim: int) -> UltracoherentState:
    return make_state(np.zeros((dim, dim)), np.zeros(dim), 0.0)


def coherent(f) -> UltracoherentState:
    """Unit-norm coherent vector e^{-|f|^2/2} Phi(0, f)."""
    f = as_vector(f)
    d = f.shape[0]
    return make_state(np.zeros((d, d)), f, -0.5 * np.vdot(f, f).real)


@_quiet   # an exponent that overflowed is refused by _exp
def overlap(x: UltracoherentState, y: UltracoherentState) -> complex:
    """(x|y), conjugate-linear in x, by the determinant kernel.

    C = B (I - A+B)^{-1} and D = A+ (I - BA+)^{-1} are each evaluated in two
    algebraically equal forms (push-through identity) and must agree within
    1e-12 times (1 + norm); (I - BA+)^{-1} is the cross term's operator.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(
            f"cannot overlap states of dims {x.dim} and {y.dim}")
    A, B = x.Z.Z, y.Z.Z
    eye = np.eye(x.dim)
    Aad = mat_adjoint(A)
    M = eye - Aad @ B          # I - A+B
    Mt = eye - B @ Aad         # I - BA+
    cross = np.linalg.inv(Mt)
    C = np.linalg.solve(M.T, B.T).T     # B (I - A+B)^{-1}
    C2 = cross @ B
    D = np.linalg.solve(Mt.T, Aad.T).T  # A+ (I - BA+)^{-1}
    D2 = np.linalg.solve(M, Aad)
    devC = hs_norm(C - C2) / (1.0 + hs_norm(C))
    devD = hs_norm(D - D2) / (1.0 + hs_norm(D))
    _require(np.maximum(devC, devD), 1e-12, InternalInconsistencyError,
             "overlap kernel dual forms disagree by {residual:.3e}")
    log_det = -0.5 * eig_log_det(M)
    fs = involution(x.f)
    g = y.f
    expo = (np.conj(x.log_amp) + y.log_amp + log_det
            + 0.5 * _pairing(fs, C @ fs)
            + _pairing(fs, cross @ g)
            + 0.5 * _pairing(g, D @ g))
    return _exp("overlap", expo)


def norm(x: UltracoherentState) -> float:
    """Fock norm, via the self-overlap; its imaginary part must vanish."""
    val = overlap(x, x)
    _require(abs(val.imag), 1e-10 * max(val.real, 1e-300),
             InternalInconsistencyError,
             f"self-overlap has spurious imaginary part {val.imag:.3e}")
    return float(np.sqrt(val.real))


@_quiet   # an exponent that overflowed is refused by _exp
def norm_squared_direct(x: UltracoherentState) -> float:
    """||x||^2 from the explicit one-state expression.

    ||Phi(A, f)||^2 = det(I - A+A)^{-1/2} exp( Re<f*|A (I-A+A)^{-1} f*>
        + (f|(I-AA+)^{-1} f) + Re<f|A+ (I-AA+)^{-1} f> ), independent route
    used to cross-check overlap(x, x).
    """
    A = x.Z.Z
    f = x.f
    d = x.dim
    eye = np.eye(d)
    Aad = mat_adjoint(A)
    Mi = np.linalg.inv(eye - Aad @ A)
    Gi = np.linalg.inv(eye - A @ Aad)
    fs = involution(f)
    log_det = -0.5 * eig_log_det(eye - Aad @ A)
    val = (log_det
           + 0.5 * _pairing(fs, A @ Mi @ fs)
           + _pairing(f, Gi @ f, True)
           + 0.5 * _pairing(f, Aad @ Gi @ f))
    # the overflow guard first, so that a NaN exponent reads as an overflow
    norm_sq = _exp("squared norm", 2.0 * x.log_amp.real + val.real).real
    _require(abs(val.imag), 1e-9 * (1.0 + abs(val.real)),
             InternalInconsistencyError,
             f"norm expression has spurious imaginary part {val.imag:.3e}")
    return norm_sq


@_quiet   # an exponent that overflowed is refused by _exp
def bargmann_eval(x: UltracoherentState, z) -> complex:
    """(coherent-kernel evaluation) amp * exp(1/2<z*|Z z*> + <z*|f>)."""
    z = as_vector(z, x.dim)
    zs = involution(z)
    expo = (x.log_amp + 0.5 * _pairing(zs, x.Z.Z @ zs) + _pairing(zs, x.f))
    return _exp("Bargmann evaluation", expo)


@_quiet   # an f or amplitude that overflowed is refused by make_state
def weyl_apply(h, x: UltracoherentState) -> UltracoherentState:
    """Displacement W(h) x in closed form: Z fixed, f -> f + h - Z h*."""
    h = as_vector(h, x.dim)
    hs = involution(h)
    Z = x.Z.Z
    new_f = x.f + h - Z @ hs
    new_log = (x.log_amp - 0.5 * np.vdot(h, h).real
               + 0.5 * _pairing(hs, Z @ hs - 2.0 * x.f))
    return make_state(x.Z, new_f, new_log)


def weyl_phase(f, g) -> complex:
    """W(f) W(g) = weyl_phase(f, g) W(f + g); equals e^{-i Im(f|g)}."""
    f = as_vector(f)
    g = as_vector(g, f.shape[0])
    angle = np.vdot(f, g).imag
    _require(abs(angle), np.finfo(float).max, GaussFockError,
             f"Weyl phase angle {angle} overflows float64")
    return complex(np.exp(-1j * angle))


@_quiet
def displacement_to_origin(x: UltracoherentState) -> np.ndarray:
    """The h with h - Z h* = f, so W(-h) removes the displacement of x.

    h = (I - AA+)^{-1} f + A (I - A+A)^{-1} f*; the defining equation is
    re-checked to 1e-10, after involution refuses an h that overflowed.
    """
    A = x.Z.Z
    f = x.f
    d = x.dim
    eye = np.eye(d)
    Aad = mat_adjoint(A)
    h = (np.linalg.solve(eye - A @ Aad, f)
         + A @ np.linalg.solve(eye - Aad @ A, involution(f)))
    _require(np.linalg.norm(h - A @ involution(h) - f),
             1e-10 * (1.0 + np.linalg.norm(f)), InternalInconsistencyError,
             "displacement equation residual {residual:.3e}")
    return h


@_quiet   # an exponent that overflowed is refused by _exp
def factor_displaced_squeezed(x: UltracoherentState
                              ) -> tuple[np.ndarray, SymplecticElement, complex]:
    """Write x = residual_amp * W(h) T(R) vacuum.

    R is the origin transport for Z, h solves h - Z h* = f, and residual_amp
    collects the scalar mismatch. Reconstructing through the representation
    recovers x up to machine precision.
    """
    Z = x.Z.Z
    h = displacement_to_origin(x)
    r = transport_from_origin(x.Z)
    # T(R) vacuum carries det|U_R|^{-1/2}; the residual undoes it
    log_resid = (x.log_amp + 0.5 * log_det_abs_u(r)
                 + 0.5 * np.vdot(h, h).real
                 - 0.5 * _pairing(involution(h), Z @ involution(h)))
    return h, r, _exp("residual amplitude", log_resid)


def scaled(x: UltracoherentState, factor: complex) -> UltracoherentState:
    """Multiply the amplitude by a nonzero complex factor."""
    factor = complex(factor)
    if factor == 0:
        raise InternalInconsistencyError("amplitude factor must be nonzero")
    return make_state(x.Z, x.f, x.log_amp + np.log(factor))


@_quiet
def state_residual(x: UltracoherentState, y: UltracoherentState) -> float:
    """max deviation over (Z, f, amplitude), the equality gauge for states;
    refused when it overflows.

    The amplitude term |e^a - e^b| / max(|e^a|, |e^b|) is evaluated in the
    log domain as |expm1(b - a)| with Re a >= Re b, so it stays exact where
    e^a overflows or e^b underflows.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError("states have different dimensions")
    b, a = sorted((x.log_amp, y.log_amp), key=lambda z: z.real)
    # np.max, as max would drop a NaN term after the first
    return _finite_value("state residual", float(np.max([
        hs_norm(x.Z.Z - y.Z.Z), np.linalg.norm(x.f - y.f),
        abs(np.expm1(b - a))])))


def random_state(dim: int, rng: np.random.Generator, max_z: float = 0.6,
                 max_f: float = 1.0) -> UltracoherentState:
    """Random state with ||Z|| < max_z, ||f|| < max_f, modest amplitude."""
    p = random_point(dim, rng, max_norm=max_z)
    f = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    fn = np.linalg.norm(f)
    if fn > 0:
        f *= max_f * rng.uniform(0.0, 1.0) / fn
    log_amp = rng.uniform(-0.2, 0.2) + 1j * rng.uniform(-1.5, 1.5)
    return make_state(p, f, log_amp)
