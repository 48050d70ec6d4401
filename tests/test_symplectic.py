"""Tests for the restricted symplectic group layer."""

import numpy as np
import pytest

from gaussfock import circuits, verify
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
    def test_matches_singular_value_formula(self):
        for d in range(1, 6):
            r = sp.random_element(d, rng)
            s = np.linalg.svd(r.V, compute_uv=False)
            assert sp.log_det_abs_u(r) == float(0.5 * np.sum(np.log1p(s * s)))

    def test_computed_once_per_element(self, monkeypatch):
        # make_symplectic takes one SVD, of V in _check_pairs, which gives
        # both ||V|| and log det|U|; reading it takes none. An element
        # built by its constructor takes its own SVD, once.
        r = sp.random_element(3, rng)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        again = sp.make_symplectic(r.U, r.V)
        assert len(calls) == 1
        first = sp.log_det_abs_u(again)
        assert sp.log_det_abs_u(again) == first == again.log_det_abs_u
        assert len(calls) == 1
        direct = sp.SymplecticElement(r.U, r.V, 0.0)
        assert direct.log_det_abs_u == direct.log_det_abs_u == first
        assert len(calls) == 2
        assert first == sp._log_det_abs_u(svd(r.V, compute_uv=False))

    def test_finite_next_to_a_large_squeeze(self):
        # ||V|| = sinh(20) ~ 2.4e8: eig(I + VV+) lost the identity and gave
        # NaN on 17 of these 20 draws.
        draw_rng = np.random.default_rng(5)
        a = np.array([20.0, 3.0, 0.5, 0.01])
        expected = np.sum(np.log(np.cosh(a)))

        def unitary():
            g = draw_rng.normal(size=(4, 4)) + 1j * draw_rng.normal(size=(4, 4))
            q, r = np.linalg.qr(g)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        for _ in range(20):
            r = sp.compose(sp.from_unitary(unitary()),
                           sp.compose(sp.squeeze(np.diag(a)),
                                      sp.from_unitary(unitary())))
            value = sp.log_det_abs_u(r)
            assert np.isfinite(value)
            assert abs(value - expected) <= 1e-8 * expected


class TestOneKernel:
    """make_symplectic and a compile read the entries of one _check_pairs."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_stack_entries_equal_single_elements(self, d):
        kernel_rng = np.random.default_rng(500 + d)
        elements = [sp.random_element(d, kernel_rng) for _ in range(50)]
        U = np.array([r.U for r in elements])
        V = np.array([r.V for r in elements])
        residuals, log_dets = sp._check_pairs(U, V)
        for k, r in enumerate(elements):
            residual, log_det = sp._check_pairs(r.U, r.V)
            assert residual == residuals[k]
            assert log_det == log_dets[k]
            again = sp.make_symplectic(r.U, r.V)
            assert again.validation_residual == residuals[k]
            assert sp.log_det_abs_u(again) == log_dets[k]

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_directly_built_element_computes_its_log_det(self, d):
        kernel_rng = np.random.default_rng(500 + d)
        for _ in range(50):
            r = sp.random_element(d, kernel_rng)
            s = np.linalg.svd(r.V, compute_uv=False)
            assert r.log_det_abs_u == sp._log_det_abs_u(s)
            assert (sp.SymplecticElement(r.U, r.V, 0.0).log_det_abs_u
                    == r.log_det_abs_u)


def running_products(n_gates):
    """U, V of the running products of verify's random d=4 gate lists from
    default_rng(0), chained to n_gates, as the stacked compile folds them."""
    gen, d = np.random.default_rng(0), 4
    gates = []
    while len(gates) < n_gates:
        gates += verify._random_gates(d, gen)
    Ug, Vg, _ = circuits._gate_arrays(gates[:n_gates], d, ".", {})
    U, V = np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)
    PU, PV = [], []
    for ug, vg in zip(Ug, Vg):
        U, V = ug @ U + vg @ mat_conj(V), ug @ V + vg @ mat_conj(U)
        PU.append(U)
        PV.append(V)
    return np.array(PU), np.array(PV)


def checked_residual(U, V):
    """_check_pairs' residual of each pair of a stack, read from the error
    it raises where the pair fails."""
    residuals = []
    for u, v in zip(U, V):
        try:
            residuals.append(sp._check_pairs(u, v)[0])
        except ConstraintViolationError as exc:
            residuals.append(exc.residual)
    return np.array(residuals)


def measured_residual(U, V):
    """The scaled residual with ||U|| measured by an SVD of U, entry by
    entry, with the four defects spelled out: the reference that
    _check_pairs' Weyl bound for ||U||^2 must never loosen. U and V are
    divided by the power of two 2^j <= max(1, ||U||), and I by 4^j, so no
    product of a finite pair overflows; a power of two changes no bit."""
    nu, nv = operator_norm(U), operator_norm(V)
    j = np.frexp(np.maximum(nu, 1.0))[1] - 1
    c = np.ldexp(1.0, j)[..., None, None]
    U, V = U / c, V / c
    nu, nv = np.ldexp(nu, -j), np.ldexp(nv, -j)
    one = np.ldexp(1.0, -2 * j)
    eye = np.eye(U.shape[-1]) * one[..., None, None]
    Ut, Vt = U.swapaxes(-1, -2), V.swapaxes(-1, -2)
    defects = [U @ mat_adjoint(U) - V @ mat_adjoint(V) - eye,
               U @ Vt - V @ Ut,
               mat_adjoint(U) @ U - Vt @ mat_conj(V) - eye,
               Ut @ mat_conj(V) - mat_adjoint(V) @ U]
    norms = np.sqrt([np.add.reduce(np.square(np.abs(E)), axis=(-2, -1))
                     for E in defects])
    herm, sym = one + nu * nu, one + nu * nv
    return np.max(norms / np.array([herm, sym, herm, sym]), axis=0)


class TestConstraintDecision:
    """_check_pairs, which bounds ||U||^2 from below by
    1 + ||V||^2 - ||UU+ - VV+ - I||_F, decides as the residual with a
    measured ||U|| does, and is never smaller."""

    @staticmethod
    def assert_at_least_as_tight(U, V):
        got = checked_residual(U, V)
        with np.errstate(over="ignore", invalid="ignore"):
            want = measured_residual(U, V)
        hold = got <= sp.DEFAULT_TOL
        assert np.array_equal(hold, want <= sp.DEFAULT_TOL)
        finite = np.isfinite(got) & np.isfinite(want)
        assert (got[finite] >= want[finite] * (1 - 1e-14)).all()
        assert not hold[~finite].any()
        return hold, finite

    def test_running_products_of_a_long_circuit(self):
        U, V = running_products(1000)
        hold, _ = self.assert_at_least_as_tight(U, V)
        assert hold.all()

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_spoiled_entries_straddle_the_tolerance(self, d):
        gen = np.random.default_rng(600 + d)
        elements = [sp.random_element(d, gen, squeeze_scale=3.0)
                    for _ in range(200)]
        U = np.array([r.U for r in elements])
        V = np.array([r.V for r in elements])
        size = 10.0 ** gen.uniform(-13, -7, size=len(U))[:, None, None]
        U = U + size * (gen.normal(size=U.shape)
                        + 1j * gen.normal(size=U.shape))
        # entries far past the rest: a lone huge entry of U or of V spoils
        # its pair, and the same huge entry in both leaves a pair that
        # holds to about 1e-200 of its scale
        U[7, 0, 0] = V[11, 0, 0] = 1e300
        U[13, 0, 0] = V[13, 0, 0] = 1e200
        hold, finite = self.assert_at_least_as_tight(U, V)
        assert not hold[[7, 11]].any()
        assert hold[13] and finite[13]
        assert hold.any()
        assert (~hold).sum() > 3

    def test_grossly_invalid_pairs(self):
        gen = np.random.default_rng(650)
        shape = (500, 3, 3)
        U, V = (gen.normal(size=shape) + 1j * gen.normal(size=shape)
                for _ in range(2))
        hold, finite = self.assert_at_least_as_tight(U, V)
        assert finite.all()
        assert not hold.any()

    def test_overflowing_norm_of_v_is_refused(self):
        # ||V||^2 overflows float64. Scaled by about 1/||V||, the Weyl bound
        # is 0 and 1/c^2 underflows, so the first defect's scale is at the
        # floor and the residual overflows to inf, which must not pass.
        U, V = np.ones((1, 1)), np.full((1, 1), 1.5e154)
        with pytest.raises(ConstraintViolationError) as err:
            sp._check_pairs(U, V)
        assert err.value.residual == np.inf
        with pytest.raises(ConstraintViolationError):
            sp.make_symplectic(U, V)


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
