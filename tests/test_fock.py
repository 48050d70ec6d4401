"""Tests for the truncated Fock-space oracle on its flat basis."""

from math import comb, factorial

import numpy as np
import pytest

from gaussfock import fock, states, symplectic as sp
from gaussfock.errors import (
    DimensionMismatchError,
    GaussFockError,
    InvalidAlphaError,
    NotInDiscError,
    NotSymmetricError,
)
from gaussfock.linalg import hs_norm, involution

rng = np.random.default_rng(8080)


def random_vec(d, scale=1.0):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return scale * v


def basis_tensor(d, cutoff, m):
    c = np.zeros((cutoff + 1,) * d, dtype=complex)
    c[tuple(m)] = 1.0
    return fock.make_tensor(d, cutoff, c)


class TestBasis:
    def test_indices_ordered_by_degree(self):
        idx = fock.basis_indices(2, 3)
        degrees = [sum(m) for m in idx]
        assert degrees == sorted(degrees)
        assert idx[0] == (0, 0)
        assert len(idx) == comb(3 + 2, 2)

    def test_weights_are_factorial_products(self):
        F = basis_tensor(2, 4, (2, 1))
        assert fock.tensor_norm(F) ** 2 == pytest.approx(
            factorial(2) * factorial(1))

    def test_make_tensor_validates_shape(self):
        with pytest.raises(DimensionMismatchError):
            fock.make_tensor(2, 3, np.zeros((4, 5)))

    def test_make_tensor_rejects_beyond_cutoff_mass(self):
        c = np.zeros((4, 4), dtype=complex)
        c[3, 3] = 1.0
        with pytest.raises(GaussFockError):
            fock.make_tensor(2, 3, c)

    def test_size_guards(self):
        with pytest.raises(GaussFockError):
            fock.vacuum_tensor(9, 20)
        with pytest.raises(GaussFockError):
            fock.vacuum_tensor(1, 200)


class TestSymmetricProduct:
    def test_vacuum_is_unit(self):
        F = fock.exp_vector(random_vec(2, 0.5), 8)
        out = fock.symmetric_product(F, fock.vacuum_tensor(2, 8))
        assert fock.tensor_residual(out, F) == 0.0

    def test_single_mode_pair_norm(self):
        e1 = basis_tensor(1, 4, (1,))
        prod = fock.symmetric_product(e1, e1)
        assert fock.tensor_norm(prod) ** 2 == pytest.approx(2.0)

    def test_triple_power_inner(self):
        e1 = basis_tensor(1, 5, (1,))
        cube = fock.symmetric_product(fock.symmetric_product(e1, e1), e1)
        assert fock.inner(cube, cube) == pytest.approx(6.0)

    def test_exponential_factorization(self):
        f, g = random_vec(2, 0.4), random_vec(2, 0.4)
        lhs = fock.symmetric_product(fock.exp_vector(f, 12),
                                     fock.exp_vector(g, 12))
        rhs = fock.exp_vector(f + g, 12)
        assert fock.tensor_residual(lhs, rhs) < 1e-12

    def test_commutative_and_bilinear(self):
        F = fock.exp_vector(random_vec(2, 0.4), 9)
        G = fock.exp_vector(random_vec(2, 0.4), 9)
        ab = fock.symmetric_product(F, G)
        ba = fock.symmetric_product(G, F)
        assert fock.tensor_residual(ab, ba) < 1e-13

    def test_single_axis_fast_path(self):
        # a factor supported on one axis with many nonzeros; check the
        # shift-add against the exponential identity
        d, N = 2, 70
        f = np.array([0.3 + 0.2j, -0.4 + 0.1j])
        g = np.array([0.25 - 0.15j, 0.0])
        got = fock.symmetric_product(fock.exp_vector(f, N),
                                     fock.exp_vector(g, N))
        assert fock.tensor_residual(got, fock.exp_vector(f + g, N)) < 1e-12

    def test_homogeneous_norm_bound(self):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            N = 8
            j, k = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            F = random_homogeneous(d, j, N)
            G = random_homogeneous(d, k, N)
            prod = fock.symmetric_product(F, G)
            bound = np.sqrt(comb(j + k, j)) * fock.tensor_norm(F) \
                * fock.tensor_norm(G)
            assert fock.tensor_norm(prod) <= bound * (1 + 1e-12) + 1e-12


def random_homogeneous(d, degree, cutoff):
    c = rng.normal(size=(cutoff + 1,) * d) \
        + 1j * rng.normal(size=(cutoff + 1,) * d)
    deg = np.indices((cutoff + 1,) * d).sum(axis=0)
    c[deg != degree] = 0.0
    return fock.make_tensor(d, cutoff, c)


class TestExpVector:
    def test_zero_is_vacuum(self):
        out = fock.exp_vector(np.zeros(2), 6)
        assert fock.tensor_residual(out, fock.vacuum_tensor(2, 6)) == 0.0

    def test_scalar_coefficients_are_inverse_factorials(self):
        out = fock.exp_vector(np.array([1.0 + 0j]), 6)
        want = np.array([1.0 / factorial(n) for n in range(7)])
        assert np.allclose(out.coeffs, want)

    def test_inner_product_exponential(self):
        f, g = random_vec(3, 0.4), random_vec(3, 0.4)
        got = fock.inner(fock.exp_vector(f, 20), fock.exp_vector(g, 20))
        assert got == pytest.approx(np.exp(np.vdot(f, g)), rel=1e-12)

    def test_norm_matches_gaussian(self):
        f = random_vec(2, 0.5)
        got = fock.tensor_norm(fock.exp_vector(f, 25)) ** 2
        assert got == pytest.approx(np.exp(np.vdot(f, f).real), rel=1e-12)


class TestOmega:
    def test_zero_matrix(self):
        out = fock.omega_tensor(np.zeros((2, 2)), 5)
        assert fock.tensor_norm(out) == 0.0

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetricError):
            fock.omega_tensor(np.array([[0.0, 1.0], [0.0, 0.0]]), 5)

    def test_scalar_normalization(self):
        a = 0.7
        out = fock.omega_tensor(np.array([[a]]), 4)
        assert out.coeffs[2] == pytest.approx(a / 2)
        assert fock.tensor_norm(out) ** 2 == pytest.approx(a * a / 2)

    def test_hs_norm_identity(self):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = (A + A.T) / 2
        out = fock.omega_tensor(A, 6)
        assert fock.tensor_norm(out) ** 2 == pytest.approx(
            0.5 * hs_norm(A) ** 2, rel=1e-12)

    def test_pairing_probe(self):
        # <Omega(A) | e_mu v e_nu> recovers A entries through the pairing
        d = 3
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = (A + A.T) / 2
        om_bar = fock.omega_tensor(np.conj(A), 4)
        for mu in range(d):
            for nu in range(d):
                emu = basis_tensor(d, 4, np.eye(d, dtype=int)[mu])
                enu = basis_tensor(d, 4, np.eye(d, dtype=int)[nu])
                pair = fock.symmetric_product(emu, enu)
                assert fock.inner(om_bar, pair) == pytest.approx(
                    A[mu, nu], abs=1e-12)


class TestExpOmega:
    def test_zero_gives_vacuum(self):
        out = fock.exp_omega(np.zeros((2, 2)), 8)
        assert fock.tensor_residual(out, fock.vacuum_tensor(2, 8)) == 0.0

    def test_outside_disc_rejected(self):
        with pytest.raises(NotInDiscError):
            fock.exp_omega(np.eye(2), 8)

    def test_scalar_norm_against_determinant(self):
        out = fock.exp_omega(np.array([[0.5]]), 40)
        assert fock.inner(out, out) == pytest.approx(0.75 ** -0.5, abs=1e-8)

    def test_matches_series_by_repeated_products(self):
        A = np.array([[0.3, 0.1j], [0.1j, -0.2]])
        N = 10
        direct = fock.exp_omega(A, N)
        om = fock.omega_tensor(A, N)
        total = fock.vacuum_tensor(2, N)
        term = total
        for n in range(1, N // 2 + 1):
            term = fock.symmetric_product(term, om)
            term = fock.FockTensor(2, N, term.coeffs / n)
            total = fock.FockTensor(2, N, total.coeffs + term.coeffs)
        assert fock.tensor_residual(direct, total) < 1e-13

    def test_two_mode_correlated_inner(self):
        A = np.array([[0.0, 0.4], [0.4, 0.0]])
        B = np.array([[0.2, 0.1], [0.1, -0.3]])
        got = fock.inner(fock.exp_omega(A, 40), fock.exp_omega(B, 40))
        M = np.eye(2) - np.conj(A).T @ B
        want = np.exp(-0.5 * np.sum(np.log(np.linalg.eigvals(M))))
        assert got == pytest.approx(want, rel=1e-10)


class TestRepresentState:
    def test_vacuum(self):
        out = fock.represent_state(states.vacuum(2), 6)
        assert fock.tensor_residual(out, fock.vacuum_tensor(2, 6)) == 0.0

    def test_coherent(self):
        f = random_vec(2, 0.5)
        out = fock.represent_state(states.coherent(f), 20)
        want = fock.exp_vector(f, 20)
        want = fock.FockTensor(
            2, 20, np.exp(-0.5 * np.vdot(f, f).real) * want.coeffs)
        assert fock.tensor_residual(out, want) < 1e-12

    def test_master_overlap_comparison(self):
        for _ in range(6):
            d = int(rng.integers(1, 4))
            x = states.random_state(d, rng, max_z=0.5, max_f=0.8)
            y = states.random_state(d, rng, max_z=0.5, max_f=0.8)
            N = max(fock.cutoff_for(x, 1e-9), fock.cutoff_for(y, 1e-9))
            got = fock.inner(fock.represent_state(x, N),
                             fock.represent_state(y, N))
            want = states.overlap(x, y)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-8)


class TestLadderOperators:
    def test_create_is_product_with_vector(self):
        d, N = 2, 6
        f = random_vec(d)
        F = fock.exp_vector(random_vec(d, 0.4), N)
        line = np.zeros((N + 1,) * d, dtype=complex)
        line[1, 0], line[0, 1] = f[0], f[1]
        want = fock.symmetric_product(fock.make_tensor(d, N, line), F)
        got = fock.apply_operator(fock.create(f, N), F)
        assert fock.tensor_residual(got, want) < 1e-12

    def test_annihilate_vacuum(self):
        out = fock.apply_operator(
            fock.annihilate(random_vec(2), 5), fock.vacuum_tensor(2, 5))
        assert fock.tensor_norm(out) == 0.0

    def test_annihilate_eigenvalue_on_exponentials(self):
        d, N = 2, 18
        f = random_vec(d, 0.8)
        g = random_vec(d, 0.5)
        out = fock.apply_operator(fock.annihilate(f, N), fock.exp_vector(g, N))
        # eigenvalue is the bilinear pairing sum f_mu g_mu; the top kept
        # degree feeds from the dropped one above it, so compare below it
        lam = np.sum(f * g)
        diff = out.coeffs - lam * fock.exp_vector(g, N).coeffs
        deg = np.indices((N + 1,) * d).sum(axis=0)
        diff = np.where(deg < N, diff, 0.0)
        low = fock.make_tensor(d, N, diff)
        assert fock.tensor_norm(low) < 1e-12

    def test_adjoint_pairing(self):
        d, N = 2, 5
        f = random_vec(d)
        F = random_homogeneous(d, 2, N)
        G = random_homogeneous(d, 3, N)
        lhs = fock.inner(fock.apply_operator(fock.create(f, N), F), G)
        rhs = fock.inner(F, fock.apply_operator(
            fock.annihilate(involution(f), N), G))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_ccr_below_cutoff(self):
        d, N = 2, 7
        f, g = random_vec(d), random_vec(d)
        cf = fock.create(f, N).matrix
        af = fock.annihilate(involution(f), N).matrix
        cg = fock.create(g, N).matrix
        ag = fock.annihilate(involution(g), N).matrix
        comm = (cf - af) @ (cg - ag) - (cg - ag) @ (cf - af)
        want = -2j * sp.symplectic_form(f, g) * np.eye(comm.shape[0])
        keep = [i for i, m in enumerate(fock.basis_indices(d, N))
                if sum(m) <= N - 1]
        assert np.max(np.abs((comm - want)[np.ix_(keep, keep)])) < 1e-12


class TestGammaAndWeyl:
    def test_gamma_identity(self):
        g = fock.gamma(np.eye(2), 6)
        assert np.allclose(g.matrix, np.eye(g.matrix.shape[0]), atol=1e-12)

    def test_gamma_on_exponential(self):
        d, N = 2, 22
        K = np.linalg.qr(rng.normal(size=(d, d))
                         + 1j * rng.normal(size=(d, d)))[0]
        f = random_vec(d, 0.5)
        got = fock.apply_operator(fock.gamma(K, N), fock.exp_vector(f, N))
        want = fock.exp_vector(K @ f, N)
        assert fock.tensor_residual(got, want) < 1e-10

    def test_weyl_vacuum_is_coherent(self):
        d, N = 2, 24
        h = np.array([0.4 + 0.2j, -0.3 + 0.1j])
        got = fock.apply_operator(fock.weyl(h, N), fock.vacuum_tensor(d, N))
        want = fock.represent_state(states.coherent(h), N)
        assert fock.tensor_residual(got, want) < 1e-9

    def test_weyl_relations_on_vacuum(self):
        d, N = 1, 30
        f = np.array([0.4 + 0.2j])
        g = np.array([-0.3 + 0.5j])
        prod = fock.apply_operator(
            fock.weyl(f, N),
            fock.apply_operator(fock.weyl(g, N), fock.vacuum_tensor(d, N)))
        merged = fock.apply_operator(fock.weyl(f + g, N),
                                     fock.vacuum_tensor(d, N))
        phase = states.weyl_phase(f, g)
        assert fock.tensor_residual(
            prod, fock.FockTensor(d, N, phase * merged.coeffs)) < 1e-9

    def test_weyl_unitary_at_cutoff_on_low_degrees(self):
        d, N = 1, 26
        h = np.array([0.5 - 0.1j])
        w = fock.weyl(h, N).matrix
        gram = np.conj(w).T @ _weight_diag(d, N) @ w
        want = _weight_diag(d, N)
        low = [i for i, m in enumerate(fock.basis_indices(d, N))
               if sum(m) <= N // 3]
        assert np.max(np.abs((gram - want)[np.ix_(low, low)])) < 1e-9


def _weight_diag(d, N):
    return np.diag([float(np.prod([factorial(k) for k in m]))
                    for m in fock.basis_indices(d, N)])


class TestNormsAndTail:
    def test_alpha_one_is_plain_norm(self):
        F = fock.exp_vector(random_vec(2, 0.5), 10)
        assert fock.alpha_norm(F, 1.0) == pytest.approx(fock.tensor_norm(F))

    def test_alpha_requires_positive(self):
        F = fock.vacuum_tensor(1, 3)
        with pytest.raises(InvalidAlphaError):
            fock.alpha_norm(F, 0.0)
        with pytest.raises(InvalidAlphaError):
            fock.alpha_norm(F, -1.0)

    def test_vacuum_alpha_norm_is_one(self):
        F = fock.vacuum_tensor(2, 4)
        for a in (0.3, 1.0, 2.5):
            assert fock.alpha_norm(F, a) == pytest.approx(1.0)

    def test_exponential_scaling_identity(self):
        f = random_vec(2, 0.5)
        a = 1.7
        lhs = fock.alpha_norm(fock.exp_vector(f, 30), a)
        rhs = fock.tensor_norm(fock.exp_vector(f / a, 30))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_product_bound_with_explicit_constant(self):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            N = 8
            alpha, beta = rng.uniform(0.15, 0.45, size=2)
            gam = float(rng.uniform(alpha + beta + 0.02, 1.0))
            F = random_small(d, N)
            G = random_small(d, N)
            c = 1.0 / np.sqrt(1.0 - ((alpha + beta) / gam) ** 2)
            lhs = fock.alpha_norm(fock.symmetric_product(F, G), gam)
            rhs = c * fock.alpha_norm(F, alpha) * fock.alpha_norm(G, beta)
            assert lhs <= rhs * (1 + 1e-12)

    def test_degree_norms_decompose_total(self):
        F = fock.exp_vector(random_vec(2, 0.6), 12)
        dn = fock.degree_norms(F)
        assert np.linalg.norm(dn) == pytest.approx(fock.tensor_norm(F))

    def test_tail_bound_vacuum_zero(self):
        assert fock.tail_bound(states.vacuum(2), 5) == 0.0

    def test_tail_bound_scalar_benchmark(self):
        x = states.make_state(np.array([[0.5]]), np.zeros(1), 0.0)
        assert fock.tail_bound(x, 60) <= 1e-8
        # the bound cannot reach 1e-8 by cutoff 40: the true dropped norm
        # there is already about 2e-7
        assert fock.tail_bound(x, 40) > 1e-7

    def test_tail_bound_sound(self):
        for _ in range(6):
            d = int(rng.integers(1, 3))
            x = states.random_state(d, rng, max_z=0.5, max_f=0.8)
            N = 22
            big = fock.represent_state(x, 2 * N + 8)
            dn = fock.degree_norms(big)
            true_tail = float(np.sqrt(np.sum(dn[N + 1:] ** 2)))
            assert true_tail <= fock.tail_bound(x, N) * (1 + 1e-9)

    def test_tail_bound_decreases_with_cutoff(self):
        x = states.random_state(2, rng, max_z=0.5, max_f=0.5)
        bounds = [fock.tail_bound(x, N) for N in (20, 30, 40)]
        assert bounds[0] > bounds[1] > bounds[2]


def random_small(d, cutoff):
    c = rng.normal(size=(cutoff + 1,) * d) \
        + 1j * rng.normal(size=(cutoff + 1,) * d)
    deg = np.indices((cutoff + 1,) * d).sum(axis=0)
    c[deg > 4] = 0.0
    return fock.make_tensor(d, cutoff, c)
