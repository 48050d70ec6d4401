"""Tests for the restricted symplectic group layer."""

import numpy as np
import pytest

from gaussfock import symplectic as sp
from gaussfock.errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    FactorizationFailureError,
    GaussFockError,
    NotRealSymmetricError,
    NotUnitaryError,
)
from gaussfock.linalg import hs_norm, mat_adjoint, mat_conj, operator_norm

rng = np.random.default_rng(77)


def random_unitary(d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConstruction:
    def test_identity(self):
        r = sp.identity(3)
        assert np.allclose(r.U, np.eye(3))
        assert np.allclose(r.V, 0.0)
        assert r.dim == 3

    def test_make_rejects_garbage(self):
        with pytest.raises(ConstraintViolationError) as err:
            sp.make_symplectic(np.eye(2), 0.5 * np.eye(2))
        assert err.value.residual > 0

    def test_make_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sp.make_symplectic(np.eye(2), np.zeros((3, 3)))

    def test_elements_are_immutable(self):
        r = sp.identity(2)
        with pytest.raises(ValueError):
            r.U[0, 0] = 5.0

    def test_from_unitary_requires_unitary(self):
        with pytest.raises(NotUnitaryError):
            sp.from_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_from_unitary(self):
        K = random_unitary(3)
        r = sp.from_unitary(K)
        assert np.allclose(r.U, K)
        assert np.allclose(r.V, 0.0)

    def test_squeeze_requires_real_symmetric(self):
        with pytest.raises(NotRealSymmetricError):
            sp.squeeze(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotRealSymmetricError):
            sp.squeeze(1j * np.eye(2))

    def test_squeeze_scalar(self):
        r = sp.squeeze(np.array([[0.5]]))
        assert r.U[0, 0] == pytest.approx(np.cosh(0.5))
        assert r.V[0, 0] == pytest.approx(np.sinh(0.5))

    def test_validation_residual_recorded(self):
        r = sp.random_element(3, rng)
        assert 0.0 <= r.validation_residual < sp.DEFAULT_TOL


class TestConstraints:
    """The defining relations of a pair (U, V)."""

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_row_and_column_relations(self, d):
        for _ in range(10):
            r = sp.random_element(d, rng)
            U, V = r.U, r.V
            eye = np.eye(d)
            assert hs_norm(U @ mat_adjoint(U) - V @ mat_adjoint(V) - eye) \
                < 1e-10 * (1 + operator_norm(U) ** 2)
            assert hs_norm(U @ V.T - V @ U.T) \
                < 1e-10 * max(operator_norm(U) * operator_norm(V), 1e-15)
            assert hs_norm(mat_adjoint(U) @ U - V.T @ mat_conj(V) - eye) \
                < 1e-10 * (1 + operator_norm(U) ** 2)
            assert hs_norm(U.T @ mat_conj(V) - mat_adjoint(V) @ U) \
                < 1e-10 * max(operator_norm(U) * operator_norm(V), 1e-15)

    def test_inverse_products_symmetric(self):
        r = sp.random_element(4, rng)
        X = np.linalg.solve(r.U, r.V)
        Y = mat_conj(r.V) @ np.linalg.inv(r.U)
        assert hs_norm(X - X.T) < 1e-10
        assert hs_norm(Y - Y.T) < 1e-10

    def test_gram_complements(self):
        r = sp.random_element(3, rng)
        X = np.linalg.solve(r.U, r.V)
        eye = np.eye(3)
        lhs = eye - X @ mat_adjoint(X)
        assert hs_norm(lhs - np.linalg.inv(mat_adjoint(r.U) @ r.U)) < 1e-10

    def test_contraction_norm_identity(self):
        r = sp.random_element(5, rng)
        X = np.linalg.solve(r.U, r.V)
        assert operator_norm(X) ** 2 == pytest.approx(
            1.0 - operator_norm(r.U) ** -2, abs=1e-10)
        assert operator_norm(X) < 1.0


class TestGroupStructure:
    def test_compose_with_identity(self):
        r = sp.random_element(3, rng)
        e = sp.identity(3)
        for prod in (sp.compose(r, e), sp.compose(e, r)):
            assert np.allclose(prod.U, r.U, atol=1e-12)
            assert np.allclose(prod.V, r.V, atol=1e-12)

    def test_inverse(self):
        r = sp.random_element(4, rng)
        ri = sp.inverse(r)
        prod = sp.compose(r, ri)
        assert hs_norm(prod.U - np.eye(4)) < 1e-10
        assert hs_norm(prod.V) < 1e-10

    def test_associativity(self):
        a, b, c = (sp.random_element(3, rng) for _ in range(3))
        left = sp.compose(sp.compose(a, b), c)
        right = sp.compose(a, sp.compose(b, c))
        assert hs_norm(left.U - right.U) < 1e-11
        assert hs_norm(left.V - right.V) < 1e-11

    def test_compose_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sp.compose(sp.identity(2), sp.identity(3))

    def test_apply_preserves_symplectic_form(self):
        r = sp.random_element(4, rng)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert sp.symplectic_form(sp.apply(r, f), sp.apply(r, g)) \
            == pytest.approx(sp.symplectic_form(f, g), abs=1e-12)

    def test_apply_inverse_round_trip(self):
        r = sp.random_element(3, rng)
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        back = sp.apply(sp.inverse(r), sp.apply(r, f))
        assert np.allclose(back, f, atol=1e-12)

    def test_symplectic_form_values(self):
        f = np.array([1.0 + 0j])
        g = np.array([1j])
        assert sp.symplectic_form(f, g) == pytest.approx(1.0)
        assert sp.symplectic_form(g, f) == pytest.approx(-1.0)
        assert sp.symplectic_form(f, f) == 0.0


class TestLogDetAbsU:
    def test_matches_eigenvalue_formula(self):
        for d in range(1, 6):
            r = sp.random_element(d, rng)
            w = np.linalg.eigvalsh(np.eye(d) + r.V @ mat_adjoint(r.V))
            assert sp.log_det_abs_u(r) == float(0.5 * np.sum(np.log(w)))

    def test_computed_once_per_element(self, monkeypatch):
        r = sp.random_element(3, rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a: calls.append(1) or eigvalsh(*a))
        first = sp.log_det_abs_u(r)
        assert sp.log_det_abs_u(r) == first == r.log_det_abs_u
        assert len(calls) == 1


class TestOneKernel:
    """make_symplectic and log det|U| run the stacked kernels' entries."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_stack_entries_equal_single_elements(self, d):
        kernel_rng = np.random.default_rng(500 + d)
        elements = [sp.random_element(d, kernel_rng) for _ in range(50)]
        U = np.array([r.U for r in elements])
        V = np.array([r.V for r in elements])
        residuals = sp._constraint_residual(U, V)
        log_dets = sp._log_det_abs_u(V)
        for k, r in enumerate(elements):
            again = sp.make_symplectic(r.U, r.V)
            assert again.validation_residual == residuals[k]
            assert sp.log_det_abs_u(again) == log_dets[k]


class TestPolarFactorization:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_reconstruction(self, d):
        for _ in range(10):
            r = sp.random_element(d, rng)
            K1, A, K2 = sp.polar_factorize(r)
            rebuilt = sp.compose(
                sp.from_unitary(K1),
                sp.compose(sp.squeeze(A), sp.from_unitary(K2)))
            scale = 1 + operator_norm(r.U)
            assert hs_norm(rebuilt.U - r.U) < 1e-9 * scale
            assert hs_norm(rebuilt.V - r.V) < 1e-9 * scale

    def test_squeeze_matrix_properties(self):
        r = sp.random_element(4, rng)
        K1, A, K2 = sp.polar_factorize(r)
        assert np.allclose(A, A.T)
        assert np.allclose(A.imag, 0.0)
        w = np.linalg.eigvalsh(A)
        assert np.all(w >= -1e-12)

    def test_unitary_input_gives_zero_squeeze(self):
        K = random_unitary(3)
        K1, A, K2 = sp.polar_factorize(sp.from_unitary(K))
        assert hs_norm(A) < 1e-9
        assert hs_norm(K1 @ K2 - K) < 1e-9

    def test_degenerate_squeeze_spectrum(self):
        # equal squeeze strengths across all modes exercise the gauge fix
        lam = 0.8 * np.eye(3)
        K = random_unitary(3)
        r = sp.compose(sp.from_unitary(K), sp.squeeze(lam))
        K1, A, K2 = sp.polar_factorize(r)
        rebuilt = sp.compose(
            sp.from_unitary(K1),
            sp.compose(sp.squeeze(A), sp.from_unitary(K2)))
        assert hs_norm(rebuilt.U - r.U) < 1e-9
        assert hs_norm(rebuilt.V - r.V) < 1e-9
        assert np.allclose(np.linalg.eigvalsh(A), 0.8, atol=1e-9)


class TestFreeField:
    def test_matches_conjugation_route(self):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            r1 = sp.random_element(d, rng)
            m = rng.uniform(0.0, 3.0, size=d)
            t = float(rng.uniform(-2.0, 2.0))
            direct = sp.conjugated_free_field(r1, m, t)
            diag = sp.from_unitary(np.diag(np.exp(-1j * m * t)))
            route = sp.compose(r1, sp.compose(diag, sp.inverse(r1)))
            assert hs_norm(direct.U - route.U) < 1e-10
            assert hs_norm(direct.V - route.V) < 1e-10

    def test_group_property_in_t(self):
        r1 = sp.random_element(2, rng)
        m = np.array([1.0, 2.5])
        a = sp.conjugated_free_field(r1, m, 0.7)
        b = sp.conjugated_free_field(r1, m, 0.4)
        ab = sp.compose(a, b)
        direct = sp.conjugated_free_field(r1, m, 1.1)
        assert hs_norm(ab.U - direct.U) < 1e-10
        assert hs_norm(ab.V - direct.V) < 1e-10

    def test_t_zero_is_identity(self):
        r1 = sp.random_element(3, rng)
        e = sp.conjugated_free_field(r1, np.ones(3), 0.0)
        assert hs_norm(e.U - np.eye(3)) < 1e-10
        assert hs_norm(e.V) < 1e-10

    def test_spectrum_validation(self):
        r1 = sp.random_element(2, rng)
        with pytest.raises(GaussFockError):
            sp.conjugated_free_field(r1, np.array([1.0, -2.0]), 1.0)
        with pytest.raises(GaussFockError):
            sp.conjugated_free_field(r1, np.array([1.0 + 1j, 2.0]), 1.0)


class TestPolarFailure:
    def test_tampered_pair_raises(self):
        r = sp.random_element(2, rng)
        bad = sp.SymplecticElement.__new__(sp.SymplecticElement)
        object.__setattr__(bad, "U", r.U + 0.05)
        object.__setattr__(bad, "V", r.V)
        object.__setattr__(bad, "validation_residual", 0.0)
        with pytest.raises(FactorizationFailureError):
            sp.polar_factorize(bad)
