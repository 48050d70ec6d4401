"""Tests for Gaussian state parameterization, overlaps, and Weyl action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfock import siegel, states
from gaussfock.errors import (
    DimensionMismatchError,
    GaussFockError,
    InternalInconsistencyError,
)
from gaussfock.linalg import hs_norm, involution, mat_adjoint

rng = np.random.default_rng(5150)


def random_vec(d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


class TestConstruction:
    def test_vacuum(self):
        v = states.vacuum(2)
        assert np.allclose(v.Z.Z, 0.0)
        assert np.allclose(v.f, 0.0)
        assert v.log_amp == 0.0
        assert states.norm(v) == pytest.approx(1.0)

    def test_coherent_is_normalized(self):
        f = random_vec(3)
        c = states.coherent(f)
        assert states.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_matrix_or_point(self):
        Z = np.array([[0.3]])
        a = states.make_state(Z, np.array([0.1]), 0.0)
        b = states.make_state(siegel.make_point(Z), np.array([0.1]), 0.0)
        assert np.allclose(a.Z.Z, b.Z.Z)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            states.make_state(np.zeros((2, 2)), np.zeros(3), 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(GaussFockError):
            states.make_state(np.zeros((1, 1)), np.array([np.nan]), 0.0)
        with pytest.raises(GaussFockError):
            states.make_state(np.zeros((1, 1)), np.zeros(1), complex("inf"))


class TestOverlap:
    def test_scalar_squeezed_pair(self):
        x = states.make_state(np.array([[0.5]]), np.zeros(1), 0.0)
        val = states.overlap(x, x)
        assert val == pytest.approx(0.75 ** -0.5, abs=1e-12)

    def test_exponential_vectors_reduce_to_exp_pairing(self):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            f, g = random_vec(d), random_vec(d)
            ef = states.make_state(np.zeros((d, d)), f, 0.0)
            eg = states.make_state(np.zeros((d, d)), g, 0.0)
            want = np.exp(np.vdot(f, g))
            assert states.overlap(ef, eg) == pytest.approx(want, rel=1e-12)

    def test_normalized_coherent_self_overlap(self):
        c = states.coherent(np.array([1.0 + 0j]))
        assert states.overlap(c, c) == pytest.approx(1.0, abs=1e-13)

    def test_hermitian_symmetry(self):
        x = states.random_state(3, rng)
        y = states.random_state(3, rng)
        assert states.overlap(x, y) == pytest.approx(
            np.conj(states.overlap(y, x)), rel=1e-12)

    def test_amplitude_linearity(self):
        x = states.random_state(2, rng)
        y = states.random_state(2, rng)
        xs = states.scaled(x, 2.0 - 1.0j)
        assert states.overlap(xs, y) == pytest.approx(
            np.conj(2.0 - 1.0j) * states.overlap(x, y), rel=1e-12)

    def test_quadratic_vacuum_pair_matches_determinant(self):
        for _ in range(15):
            d = int(rng.integers(1, 4))
            A = siegel.random_point(d, rng).Z
            B = siegel.random_point(d, rng).Z
            xa = states.make_state(A, np.zeros(d), 0.0)
            xb = states.make_state(B, np.zeros(d), 0.0)
            M = np.eye(d) - mat_adjoint(A) @ B
            want = np.exp(-0.5 * np.sum(np.log(np.linalg.eigvals(M))))
            assert states.overlap(xa, xb) == pytest.approx(want, rel=1e-11)

    def test_norm_two_routes_agree(self):
        for _ in range(20):
            x = states.random_state(int(rng.integers(1, 5)), rng)
            n2 = states.norm(x) ** 2
            assert n2 == pytest.approx(states.norm_squared_direct(x),
                                       rel=1e-10)

    def test_gram_matrix_positive(self):
        pts = [states.random_state(2, rng) for _ in range(5)]
        G = np.array([[states.overlap(a, b) for b in pts] for a in pts])
        w = np.linalg.eigvalsh((G + mat_adjoint(G)) / 2)
        assert w.min() > -1e-10 * w.max()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            states.overlap(states.vacuum(2), states.vacuum(3))

    def test_overflow_raises_instead_of_inf(self):
        # |(x|x)| = exp(900) does not fit in float64
        x = states.make_state(np.zeros((1, 1)), [30.0])
        with pytest.raises(GaussFockError):
            states.overlap(x, x)
        with pytest.raises(GaussFockError):
            states.norm(x)


class TestBargmann:
    def test_exponential_kernel(self):
        x = states.random_state(3, rng)
        z = random_vec(3)
        ez = states.make_state(np.zeros((3, 3)), z, 0.0)
        # evaluation against an exponential vector is the defining pairing
        assert states.overlap(ez, x) == pytest.approx(
            states.bargmann_eval(x, z), rel=1e-12)

    def test_vacuum_amplitude(self):
        x = states.random_state(2, rng)
        assert states.bargmann_eval(x, np.zeros(2)) == pytest.approx(
            np.exp(x.log_amp))


class TestWeyl:
    def test_phase_antisymmetry(self):
        f, g = random_vec(2), random_vec(2)
        assert states.weyl_phase(f, g) * states.weyl_phase(g, f) \
            == pytest.approx(1.0)

    def test_composition_rule(self):
        for _ in range(15):
            d = int(rng.integers(1, 4))
            x = states.random_state(d, rng)
            h1, h2 = random_vec(d), random_vec(d)
            lhs = states.weyl_apply(h1, states.weyl_apply(h2, x))
            rhs = states.scaled(states.weyl_apply(h1 + h2, x),
                                states.weyl_phase(h1, h2))
            assert states.state_residual(lhs, rhs) < 1e-12

    def test_inverse_is_exact_identity(self):
        x = states.random_state(3, rng)
        h = random_vec(3)
        back = states.weyl_apply(-h, states.weyl_apply(h, x))
        assert states.state_residual(back, x) < 1e-12

    def test_norm_preserved(self):
        x = states.random_state(2, rng)
        h = random_vec(2)
        assert states.norm(states.weyl_apply(h, x)) == pytest.approx(
            states.norm(x), rel=1e-11)

    def test_on_vacuum_gives_coherent(self):
        h = random_vec(3)
        w = states.weyl_apply(h, states.vacuum(3))
        c = states.coherent(h)
        assert states.state_residual(w, c) < 1e-13

    def test_overlap_covariance(self):
        # (W(h)x | W(h)y) = (x|y)
        x = states.random_state(2, rng)
        y = states.random_state(2, rng)
        h = random_vec(2)
        assert states.overlap(states.weyl_apply(h, x),
                              states.weyl_apply(h, y)) == pytest.approx(
            states.overlap(x, y), rel=1e-11)


class TestDisplacement:
    def test_scalar_value(self):
        x = states.make_state(np.array([[0.5]]), np.array([1.0 + 0j]), 0.0)
        h = states.displacement_to_origin(x)
        assert h[0] == pytest.approx(2.0, abs=1e-12)

    def test_defining_equation(self):
        for _ in range(15):
            d = int(rng.integers(1, 5))
            x = states.random_state(d, rng)
            h = states.displacement_to_origin(x)
            resid = np.linalg.norm(h - x.Z.Z @ involution(h) - x.f)
            assert resid < 1e-10 * (1 + np.linalg.norm(x.f))

    def test_centering_removes_linear_part(self):
        x = states.random_state(3, rng)
        h = states.displacement_to_origin(x)
        centered = states.weyl_apply(-h, x)
        assert np.linalg.norm(centered.f) < 1e-10


class TestFactorization:
    def test_residual_amplitude_normalizes(self):
        # factoring a unit-norm state leaves a unit-modulus residual
        from gaussfock import representation as rep
        from gaussfock import symplectic as sp
        d = 3
        r = sp.random_element(d, rng)
        h0 = random_vec(d)
        x = states.weyl_apply(h0, rep.act(r, states.vacuum(d)))
        hd, tr, amp = states.factor_displaced_squeezed(x)
        assert abs(abs(amp) - 1.0) < 1e-10
        rebuilt = states.scaled(
            states.weyl_apply(hd, rep.act(tr, states.vacuum(d))), amp)
        assert states.state_residual(rebuilt, x) < 1e-10

    def test_recovers_any_state(self):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            from gaussfock import representation as rep
            x = states.random_state(d, rng)
            hd, tr, amp = states.factor_displaced_squeezed(x)
            rebuilt = states.scaled(
                states.weyl_apply(hd, rep.act(tr, states.vacuum(d))), amp)
            assert states.state_residual(rebuilt, x) < 1e-9


class TestResidual:
    def test_zero_on_equal(self):
        x = states.random_state(2, rng)
        assert states.state_residual(x, x) == 0.0

    def test_different_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError,
                           match="^states have different dimensions$"):
            states.state_residual(states.vacuum(1), states.vacuum(2))

    @pytest.mark.parametrize("a, b", [(800, 799), (-800, -801), (0, -1),
                                      (799, 800)])
    def test_state_residual_amplitude_at_extreme_log_amp(self, a, b):
        # e^800 overflows and e^-801 underflows; the amplitudes differ by a
        # factor e wherever they sit
        x = states.make_state(np.zeros((1, 1)), np.zeros(1), a)
        y = states.make_state(np.zeros((1, 1)), np.zeros(1), b)
        assert states.state_residual(x, y) == pytest.approx(1 - np.exp(-1),
                                                            rel=1e-14)

    def test_scaled_zero_rejected(self):
        x = states.random_state(2, rng)
        with pytest.raises(GaussFockError):
            states.scaled(x, 0.0)

    @pytest.mark.parametrize("factor", [np.inf, np.nan])
    def test_scaled_nonfinite_rejected(self, factor):
        with pytest.raises(GaussFockError, match="log amplitude must be finite"):
            states.scaled(states.vacuum(1), factor)

    @pytest.mark.parametrize("h", [[1e200], [np.nan]])
    def test_weyl_apply_nonfinite_rejected(self, h):
        with pytest.raises(GaussFockError, match="must be finite"):
            states.weyl_apply(h, states.vacuum(1))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-0.8, 0.8), b=st.floats(-0.8, 0.8))
def test_scalar_overlap_closed_form(a, b):
    """d=1 quadratic overlap equals (1 - a b)^(-1/2) for real parameters."""
    xa = states.make_state(np.array([[a]]), np.zeros(1), 0.0)
    xb = states.make_state(np.array([[b]]), np.zeros(1), 0.0)
    want = (1.0 - a * b) ** -0.5
    assert states.overlap(xa, xb) == pytest.approx(want, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4))
def test_overlap_kernel_cross_checks_do_not_fire(d):
    """The kernel's two internal matrix routes agree on valid inputs."""
    local = np.random.default_rng(d)
    x = states.random_state(d, local, max_z=0.85)
    y = states.random_state(d, local, max_z=0.85)
    try:
        states.overlap(x, y)
    except InternalInconsistencyError as exc:  # pragma: no cover
        pytest.fail(f"internal cross-check fired: {exc}")
