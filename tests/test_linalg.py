"""Tests for the shared linear-algebra helpers."""

import numpy as np
import pytest

from gaussfock.errors import (
    DimensionMismatchError,
    GaussFockError,
    NotSymmetricError,
    SingularMatrixError,
)
from gaussfock.linalg import (
    as_matrix,
    as_vector,
    eig_log_det,
    hs_norm,
    involution,
    mat_adjoint,
    mat_conj,
    operator_norm,
    takagi,
)

rng = np.random.default_rng(1234)


def random_complex(*shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestCoercions:
    def test_vector_shape_enforced(self):
        with pytest.raises(DimensionMismatchError):
            as_vector(np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError):
            as_vector(np.zeros(3), dim=2)

    def test_matrix_shape_enforced(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.zeros((2, 2)), dim=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_entries_rejected(self, bad):
        with pytest.raises(GaussFockError, match="vector entries must be finite"):
            as_vector([0.0, bad])
        with pytest.raises(GaussFockError, match="matrix entries must be finite"):
            as_matrix([[0.0, bad], [bad, 0.0]])

    def test_involution_conjugates(self):
        f = random_complex(4)
        assert np.array_equal(involution(f), np.conj(f))

    def test_adjoint_transpose_conjugate(self):
        A = random_complex(3, 3)
        assert np.array_equal(mat_adjoint(A), np.conj(A).T)
        assert np.array_equal(mat_conj(A), np.conj(A))


class TestNorms:
    def test_operator_norm_is_largest_singular_value(self):
        A = random_complex(4, 4)
        assert operator_norm(A) == pytest.approx(np.linalg.svd(A)[1][0])

    def test_operator_norm_matches_numpy_bit_for_bit(self):
        for shape in [(1, 1), (2, 2), (4, 4), (6, 6), (3, 5), (5, 3)]:
            for _ in range(10):
                A = random_complex(*shape) * rng.uniform(1e-3, 1e3)
                assert operator_norm(A) == float(np.linalg.norm(A, 2))

    def test_operator_norm_of_empty_matrix(self):
        assert operator_norm(np.zeros((0, 0), dtype=complex)) == 0.0

    def test_hs_norm_is_frobenius(self):
        A = random_complex(4, 4)
        assert hs_norm(A) == pytest.approx(np.linalg.norm(A, "fro"))


class TestEigLogDet:
    """Principal-branch log-determinants through eigenvalue logs."""

    def test_matches_plain_logdet_near_identity(self):
        for _ in range(20):
            M = np.eye(4) + 0.3 * random_complex(4, 4)
            val = eig_log_det(M)
            assert np.exp(val) == pytest.approx(np.linalg.det(M), rel=1e-12)

    def test_stack_entries_equal_single_matrices(self):
        M = np.eye(4) + 0.4 * random_complex(50, 4, 4)
        values = eig_log_det(M)
        norms = operator_norm(M)
        assert values.shape == norms.shape == (50,)
        for k in range(50):
            single = eig_log_det(M[k])
            assert type(single) is complex
            assert single == values[k]
            assert operator_norm(M[k]) == norms[k]

    def test_stack_raises_for_its_first_failing_matrix(self):
        M = np.array([np.eye(2), np.diag([1.0, 1e-20]), np.diag([1.0, 0.0])])
        with pytest.raises(SingularMatrixError, match="1.000e-20"):
            eig_log_det(M)
        M[1, 0, 0] = np.nan
        with pytest.raises(GaussFockError, match="must be finite"):
            eig_log_det(M)

    def test_singular_matrix_rejected(self):
        M = np.diag([1.0, 0.0, 2.0]).astype(complex)
        with pytest.raises(SingularMatrixError):
            eig_log_det(M)

    def test_branch_stays_principal_per_eigenvalue(self):
        # eigenvalues in the right half plane: imaginary part of the result
        # must equal the sum of principal args, never a 2 pi jump
        w = np.array([0.5 + 0.4j, 1.2 - 0.3j, 0.9 + 0.8j])
        Q = np.linalg.qr(random_complex(3, 3))[0]
        M = Q @ np.diag(w) @ np.linalg.inv(Q)
        expected = np.sum(np.log(w))
        assert eig_log_det(M) == pytest.approx(expected, abs=1e-10)


class TestTakagi:
    def test_zero_matrix(self):
        F, alphas = takagi(np.zeros((3, 3)))
        assert np.allclose(alphas, 0.0)
        assert np.allclose(mat_adjoint(F) @ F, np.eye(3), atol=1e-12)

    def test_real_diagonal_is_fixed_point(self):
        A = np.diag([0.5, 0.2]).astype(complex)
        F, alphas = takagi(A)
        assert np.allclose(alphas, [0.5, 0.2])
        # columns may carry phases; reconstruction is the invariant
        assert np.allclose(F @ np.diag(alphas) @ F.T, A, atol=1e-12)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            takagi(random_complex(4, 4))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
    def test_random_reconstruction(self, d):
        for _ in range(25):
            A = random_complex(d, d)
            A = 0.45 * (A + A.T) / max(operator_norm(A + A.T), 1.0)
            F, alphas = takagi(A)
            assert np.all(alphas >= 0)
            assert np.all(np.diff(alphas) <= 1e-12)
            assert hs_norm(mat_adjoint(F) @ F - np.eye(d)) < 1e-10
            assert hs_norm(F @ np.diag(alphas) @ F.T - A) <= 1e-10 * (
                1 + operator_norm(A))

    def test_alphas_are_singular_values(self):
        A = random_complex(5, 5)
        A = A + A.T
        _, alphas = takagi(A)
        assert np.allclose(alphas, np.linalg.svd(A)[1], atol=1e-10)

    def test_coneigenvector_equation(self):
        # independent check: A conj(F) = F diag(alphas)
        A = random_complex(4, 4)
        A = 0.3 * (A + A.T)
        F, alphas = takagi(A)
        assert np.allclose(A @ np.conj(F), F @ np.diag(alphas), atol=1e-10)

    def test_degenerate_singular_values(self):
        # repeated alphas still give a valid factorization
        F0 = np.linalg.qr(random_complex(4, 4))[0]
        A = F0 @ np.diag([0.5, 0.5, 0.5, 0.1]) @ F0.T
        F, alphas = takagi(A)
        assert np.allclose(F @ np.diag(alphas) @ F.T, A, atol=1e-10)
        assert np.allclose(alphas, [0.5, 0.5, 0.5, 0.1], atol=1e-10)

    def test_rank_deficient(self):
        F0 = np.linalg.qr(random_complex(3, 3))[0]
        A = F0 @ np.diag([0.7, 0.0, 0.0]) @ F0.T
        F, alphas = takagi(A)
        assert np.allclose(F @ np.diag(alphas) @ F.T, A, atol=1e-10)
        assert hs_norm(mat_adjoint(F) @ F - np.eye(3)) < 1e-10
