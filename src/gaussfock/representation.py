"""Unitary ray representation of the Bogoliubov group on the Gaussian family.

An element r = (U, V) acts on exponential vectors by

    T(r) exp f = det|U|^{-1/2} exp(-1/2 <f|V+ U+^-1 f>) Phi(U+^-1 V^T, U+^-1 f)

with det|U| = det(I + VV+)^{1/2} >= 1, and more generally on a state
amp * Phi(Z, f) by the Moebius-transported point, the vector
(U+ + Z V+)^{-1} f, and two scalar factors: det(I + Z V+U+^-1)^{-1/2} and
exp(-1/2 <f|V+ (U+ + Z V+)^{-1} f>). T is unitary; composition holds up to
the multiplier returned by multiplier(), a modulus-one scalar computed with
the same eigenvalue-log branch rule as every determinant power here, which
makes the composition identity exact rather than up-to-sign.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInconsistencyError, SingularMatrixError, _require
from .linalg import as_vector, eig_log_det, mat_adjoint, mat_conj
from .siegel import moebius
from .states import (
    UltracoherentState,
    bilinear_pairing,
    make_state,
    scaled,
    state_residual,
    weyl_apply,
)
from .symplectic import (SymplecticElement, apply, compose, inverse,
                         log_det_abs_u)

__all__ = [
    "act_on_exponential",
    "act",
    "adjoint_act",
    "multiplier",
    "check_composition",
    "check_intertwining",
]


def act_on_exponential(r: SymplecticElement, f) -> UltracoherentState:
    """T(r) applied to the exponential vector Phi(0, f) (amplitude 1)."""
    return act(r, make_state(np.zeros((r.dim, r.dim)), f))


def act(r: SymplecticElement, x: UltracoherentState) -> UltracoherentState:
    """T(r) x for any state in the family."""
    point = moebius(r, x.Z)
    Uad = mat_adjoint(r.U)
    Vad = mat_adjoint(r.V)
    M = Uad + x.Z.Z @ Vad
    vec = np.linalg.solve(M, x.f)
    vu = mat_adjoint(np.linalg.solve(r.U, r.V))   # V+ U+^-1
    log_amp = (x.log_amp
               - 0.5 * log_det_abs_u(r)
               - 0.5 * eig_log_det(np.eye(r.dim) + x.Z.Z @ vu)
               - 0.5 * bilinear_pairing(x.f, Vad @ vec))
    return make_state(point, vec, log_amp)


def adjoint_act(r: SymplecticElement, x: UltracoherentState) -> UltracoherentState:
    """T(r)+ x; equals T(r^{-1}) x including the phase.

    Defining property, tested at machine precision:
    overlap(adjoint_act(r, y), x) == overlap(y, act(r, x)).
    """
    return act(inverse(r), x)


def multiplier(r2: SymplecticElement, r1: SymplecticElement) -> complex:
    """chi(r2, r1) with T(r2) T(r1) = chi * T(r2 o r1); |chi| = 1.

    Evaluated as exp of 1/2 [ log det|U3| - log det|U1| - log det|U2|
    - eig_log_det(U1+^-1 U3+ U2+^-1) ], all under the shared branch rule, so
    check_composition residuals sit at roundoff for every state.
    """
    return _element_multiplier(r2, r1, compose(r2, r1))


def _element_multiplier(r2: SymplecticElement, r1: SymplecticElement,
                        r3: SymplecticElement) -> complex:
    """multiplier(r2, r1) for a caller that already holds r3 = r2 o r1."""
    return _multiplier(r2.U, r1.U, r3.U, log_det_abs_u(r2), log_det_abs_u(r1),
                       log_det_abs_u(r3))


def _multiplier(U2, U1, U3, log_det2, log_det1, log_det3):
    """chi from the U blocks of r2, r1 and r3 = r2 o r1 and their log det|U|.

    Works over any leading batch axes: stacks (..., d, d) with log-det
    arrays (...) give an array, single matrices a complex. A stack raises
    SingularMatrixError if a U1 or U2 in it is numerically singular, else
    for its first entry that fails eig_log_det, else for its first entry
    whose modulus deviates from 1 by more than 1e-10 (or by NaN).
    """
    try:
        inner = np.linalg.solve(mat_adjoint(U1), mat_adjoint(U3))
        inner = np.linalg.solve(mat_conj(U2),
                                inner.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"multiplier: U block is singular ({exc})") from exc
    log_chi = 0.5 * (log_det3 - log_det1 - log_det2 - eig_log_det(inner))
    chi = np.exp(log_chi)
    _require(np.abs(np.abs(chi) - 1.0), 1e-10, InternalInconsistencyError,
             "multiplier modulus deviates from 1 by {residual:.3e}")
    return complex(chi) if np.ndim(chi) == 0 else chi


def check_composition(r2: SymplecticElement, r1: SymplecticElement,
                      x: UltracoherentState) -> float:
    """Residual of T(r2) T(r1) x = multiplier * T(r2 o r1) x."""
    lhs = act(r2, act(r1, x))
    r3 = compose(r2, r1)
    rhs = scaled(act(r3, x), _element_multiplier(r2, r1, r3))
    return state_residual(lhs, rhs)


def check_intertwining(r: SymplecticElement, h,
                       x: UltracoherentState) -> float:
    """Residual of T(r) W(h) x = W(r h) T(r) x (no extra phase)."""
    h = as_vector(h, r.dim)
    lhs = act(r, weyl_apply(h, x))
    rhs = weyl_apply(apply(r, h), act(r, x))
    return state_residual(lhs, rhs)
