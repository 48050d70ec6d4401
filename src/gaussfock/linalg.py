"""Core linear algebra over the complexified one-particle space.

Conventions used throughout the package: vectors live in C^d equipped with a
distinguished real basis. The involution ``f*`` conjugates components in that
basis. For a matrix A, ``mat_conj`` conjugates entries and ``mat_adjoint`` is
the conjugate transpose; involution(A f) = mat_conj(A) involution(f).

Determinant branch rule: every half-integer power of a determinant in this
package is evaluated as exp of a linear combination of principal logarithms of
eigenvalues (see eig_log_det). All matrices fed to it have spectra in the
open right half plane, so the rule is continuous exactly where the
closed-form identities need it to be.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    GaussFockError,
    NotSymmetricError,
    SingularMatrixError,
)

__all__ = [
    "involution",
    "mat_conj",
    "mat_adjoint",
    "operator_norm",
    "hs_norm",
    "eig_log_det",
    "takagi",
    "as_vector",
    "as_matrix",
]


def as_vector(f, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d complex ndarray, optionally enforcing its length."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {f.shape}")
    if dim is not None and f.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected a vector of length {dim}, got {f.shape[0]}")
    if not np.isfinite(f).all():
        raise GaussFockError("vector entries must be finite")
    return f


def as_matrix(A, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite square complex ndarray, optionally enforcing its size.

    The finiteness check comes before any LAPACK call, which would raise
    numpy's LinAlgError on a NaN or return NaN on an infinity.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(
            f"expected a square matrix, got shape {A.shape}")
    if dim is not None and A.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected a {dim}x{dim} matrix, got {A.shape[0]}x{A.shape[1]}")
    if not np.isfinite(A).all():
        raise GaussFockError("matrix entries must be finite")
    return A


def _as_matrix_stack(A) -> np.ndarray:
    """as_matrix for a stack (..., d, d) of square matrices."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatchError(
            f"expected a stack of square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise GaussFockError("matrix entries must be finite")
    return A


def involution(f) -> np.ndarray:
    """Componentwise conjugation f* in the distinguished real basis."""
    return np.conj(as_vector(f))


def mat_conj(A) -> np.ndarray:
    """Entrywise conjugate of a matrix."""
    return np.conj(np.asarray(A, dtype=complex))


def mat_adjoint(A) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(A, dtype=complex)).swapaxes(-1, -2)


def operator_norm(A):
    """Largest singular value: a float, or an array for a stack (..., m, n).

    Calls the SVD directly: np.linalg.norm(A, 2) takes the same LAPACK
    route, so the value is identical, but its axis handling costs more than
    the SVD itself on the small matrices every validation passes here.
    """
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.zeros(A.shape[:-2]) if A.ndim > 2 else 0.0
    s = np.linalg.svd(A, compute_uv=False)[..., 0]
    return s if A.ndim > 2 else float(s)


def hs_norm(A) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(A, dtype=complex)))


def eig_log_det(M):
    """Sum of principal logarithms of the eigenvalues of M.

    This is the branch rule for every fractional determinant power in the
    package: det(M)^s is exp(s * eig_log_det(M)). Rejects matrices with an
    eigenvalue of modulus below 1e-12 * ||M||, for which no continuous branch
    can be chosen.

    A square matrix gives a complex. A stack (..., d, d) gives an array of
    the same sums from one LAPACK call, and the first matrix of the stack
    that fails raises its error.
    """
    M = as_matrix(M) if np.ndim(M) == 2 else _as_matrix_stack(M)
    w = np.linalg.eigvals(M)
    if w.shape[-1]:
        small = np.abs(w).min(axis=-1)
        below = small < 1e-12 * np.maximum(operator_norm(M), 1e-300)
        if below.any():
            raise SingularMatrixError(
                f"eigenvalue modulus {small[below].flat[0]:.3e} below "
                "1e-12 * ||M||; determinant power is ill-conditioned")
    total = np.log(w).sum(axis=-1)
    return complex(total) if M.ndim == 2 else total


def _orthonormal_completion(cols: np.ndarray, d: int) -> np.ndarray:
    """Columns extending the given orthonormal set to a basis of C^d."""
    if cols.shape[1] == 0:
        return np.eye(d, dtype=complex)
    u = np.linalg.svd(cols, full_matrices=True)[0]
    return u[:, cols.shape[1]:]


def takagi(A, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as A = F diag(alphas) F^T.

    F is unitary and alphas are the singular values of A in descending order.
    Uses the real symmetric embedding M = [[Re A, Im A], [Im A, -Re A]]:
    eigenvectors (x; y) of M for eigenvalue sigma give con-eigenvectors
    z = x + iy with A z* = sigma z, and the eigenvectors for distinct positive
    eigenvalues are automatically orthonormal in the complex sense because
    the sigma and -sigma eigenspaces of M are J-images of each other.
    Near-null directions are replaced by an orthonormal completion, which is
    always valid since alpha = 0 annihilates those columns.

    Args:
        A: complex symmetric square matrix.
        tol: symmetry tolerance, scaled by (1 + ||A||).

    Returns:
        (F, alphas) with reconstruction residual at machine level.

    Raises:
        NotSymmetricError: if ||A - A^T|| exceeds tol * (1 + ||A||).
    """
    A = as_matrix(A)
    d = A.shape[0]
    scale = operator_norm(A)
    if hs_norm(A - A.T) > tol * (1.0 + scale):
        raise NotSymmetricError(
            f"matrix is not symmetric within {tol:g} * (1 + ||A||)")
    if d == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros(0)

    M = np.block([[A.real, A.imag], [A.imag, -A.real]])
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)[::-1][:d]
    alphas = vals[order]
    F = vecs[:d, order] + 1j * vecs[d:, order]

    null_cut = 1e-13 * max(scale, 1.0)
    small = alphas <= null_cut
    if np.any(small):
        keep = ~small
        kept = F[:, keep]
        F = np.concatenate([kept, _orthonormal_completion(kept, d)], axis=1)
        alphas = np.concatenate(
            [alphas[keep], np.zeros(d - kept.shape[1])])
    return F, np.maximum(alphas, 0.0)
