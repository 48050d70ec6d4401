"""Tests for the unitary ray representation of the symplectic group."""

import numpy as np
import pytest

from gaussfock import representation as rep
from gaussfock import siegel, states, symplectic as sp
from gaussfock.errors import InternalInconsistencyError
from gaussfock.linalg import hs_norm, mat_adjoint

rng = np.random.default_rng(31415)


def random_vec(d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


class TestActOnVacuum:
    def test_identity_fixes_vacuum(self):
        out = rep.act(sp.identity(3), states.vacuum(3))
        assert states.state_residual(out, states.vacuum(3)) < 1e-14

    def test_scalar_squeeze_gives_tanh_state(self):
        r = sp.squeeze(np.array([[0.5]]))
        out = rep.act(r, states.vacuum(1))
        assert out.Z.Z[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-14)
        assert np.exp(out.log_amp) == pytest.approx(
            np.cosh(0.5) ** -0.5, abs=1e-14)
        assert states.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_moves_origin_like_moebius(self):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            r = sp.random_element(d, rng)
            out = rep.act(r, states.vacuum(d))
            want = siegel.moebius(r, siegel.origin(d))
            assert hs_norm(out.Z.Z - want.Z) < 1e-12

    def test_amplitude_from_determinant(self):
        r = sp.random_element(3, rng)
        out = rep.act(r, states.vacuum(3))
        det_abs_u = np.prod(np.sqrt(
            np.linalg.eigvalsh(np.eye(3) + r.V @ mat_adjoint(r.V))))
        assert abs(np.exp(out.log_amp)) == pytest.approx(
            det_abs_u ** -0.5, rel=1e-12)


class TestUnitarity:
    def test_exponential_overlaps_preserved(self):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            r = sp.random_element(d, rng)
            f, g = random_vec(d), random_vec(d)
            lhs = states.overlap(rep.act_on_exponential(r, f),
                                 rep.act_on_exponential(r, g))
            want = np.exp(np.vdot(f, g))
            assert lhs == pytest.approx(want, rel=1e-11)

    def test_general_state_norm_preserved(self):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            r = sp.random_element(d, rng)
            x = states.random_state(d, rng)
            assert states.norm(rep.act(r, x)) == pytest.approx(
                states.norm(x), rel=1e-11)

    def test_overlap_pairs_preserved(self):
        r = sp.random_element(3, rng)
        x = states.random_state(3, rng)
        y = states.random_state(3, rng)
        assert states.overlap(rep.act(r, x), rep.act(r, y)) == pytest.approx(
            states.overlap(x, y), rel=1e-10)


class TestRayComposition:
    def test_residual_small(self):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            r1 = sp.random_element(d, rng)
            r2 = sp.random_element(d, rng)
            x = states.random_state(d, rng)
            assert rep.check_composition(r2, r1, x) < 1e-10

    def test_multiplier_unimodular(self):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            chi = rep.multiplier(sp.random_element(d, rng),
                                 sp.random_element(d, rng))
            assert abs(abs(chi) - 1.0) < 1e-11

    def test_multiplier_closes_the_composition(self):
        # T(r2) T(r1) x == chi(r2, r1) T(r2 r1) x including the phase
        d = 3
        r1 = sp.random_element(d, rng)
        r2 = sp.random_element(d, rng)
        x = states.random_state(d, rng)
        seq = rep.act(r2, rep.act(r1, x))
        chi = rep.multiplier(r2, r1)
        direct = states.scaled(rep.act(sp.compose(r2, r1), x), chi)
        assert states.state_residual(seq, direct) < 1e-10

    def test_stacked_multiplier_equals_single_pairs(self):
        d = 3
        kernel_rng = np.random.default_rng(2718)
        pairs = [(sp.random_element(d, kernel_rng),
                  sp.random_element(d, kernel_rng)) for _ in range(50)]
        factors = (*zip(*pairs), [sp.compose(r2, r1) for r2, r1 in pairs])
        chi = rep._multiplier(
            *(np.array([r.U for r in rs]) for rs in factors),
            *(np.array([sp.log_det_abs_u(r) for r in rs]) for rs in factors))
        assert chi.shape == (50,)
        for k, (r2, r1) in enumerate(pairs):
            assert rep.multiplier(r2, r1) == chi[k]

    def test_nan_modulus_is_refused(self):
        r = sp.random_element(2, rng)
        with pytest.raises(InternalInconsistencyError, match="by nan"):
            rep._multiplier(r.U, r.U, r.U, 0.0, 0.0, float("nan"))

    def test_multiplier_identity_has_no_phase(self):
        r = sp.random_element(4, rng)
        e = sp.identity(4)
        assert rep.multiplier(r, e) == pytest.approx(1.0, abs=1e-12)
        assert rep.multiplier(e, r) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_pair_multiplier(self):
        # chi(r, r^-1) relates T(r)T(r^-1) to the identity action
        r = sp.random_element(2, rng)
        x = states.random_state(2, rng)
        seq = rep.act(r, rep.act(sp.inverse(r), x))
        chi = rep.multiplier(r, sp.inverse(r))
        assert states.state_residual(seq, states.scaled(x, chi)) < 1e-10


class TestIntertwining:
    def test_weyl_transport(self):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            r = sp.random_element(d, rng)
            h = random_vec(d)
            x = states.random_state(d, rng)
            assert rep.check_intertwining(r, h, x) < 1e-10

    def test_no_phase_correction(self):
        # T(r) W(h) x and W(rh) T(r) x agree exactly, amplitude included
        d = 2
        r = sp.random_element(d, rng)
        h = random_vec(d)
        x = states.random_state(d, rng)
        lhs = rep.act(r, states.weyl_apply(h, x))
        rhs = states.weyl_apply(sp.apply(r, h), rep.act(r, x))
        assert abs(np.exp(lhs.log_amp) - np.exp(rhs.log_amp)) \
            < 1e-10 * abs(np.exp(lhs.log_amp))


class TestAdjoint:
    def test_pairing_property(self):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            r = sp.random_element(d, rng)
            x = states.random_state(d, rng)
            y = states.random_state(d, rng)
            lhs = states.overlap(rep.adjoint_act(r, y), x)
            rhs = states.overlap(y, rep.act(r, x))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_adjoint_is_inverse_action(self):
        r = sp.random_element(3, rng)
        x = states.random_state(3, rng)
        assert states.state_residual(
            rep.adjoint_act(r, x), rep.act(sp.inverse(r), x)) == 0.0


class TestCovariance:
    def test_unitary_conjugation(self):
        d = 3
        q, rr = np.linalg.qr(rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))
        K = q * (np.diag(rr) / np.abs(np.diag(rr)))
        ku = sp.from_unitary(K)
        r = sp.random_element(d, rng)
        x = states.random_state(d, rng)
        lhs = rep.act(sp.compose(ku, sp.compose(r, sp.inverse(ku))), x)
        rhs = rep.act(ku, rep.act(r, rep.act(sp.inverse(ku), x)))
        assert states.state_residual(lhs, rhs) < 1e-10


class TestAgainstTruncatedSpace:
    """Independent route: the displacement intertwiner in the dense oracle."""

    def test_exponential_action_matches_oracle(self):
        from gaussfock import fock
        d = 2
        cutoff = 30
        for _ in range(4):
            # mild squeezing: tensor tails decay only geometrically in ||Z||,
            # and the Weyl matrix route feels the mass near the cutoff
            r = sp.random_element(d, rng, squeeze_scale=0.35)
            f = 0.4 * random_vec(d)
            got = fock.represent_state(rep.act_on_exponential(r, f), cutoff)
            # T(r) exp f = e^{|f|^2/2} W(r f) T(r) vacuum
            w = fock.weyl(sp.apply(r, f), cutoff)
            base = fock.represent_state(rep.act(r, states.vacuum(d)), cutoff)
            want = fock.apply_operator(w, base)
            want = fock.FockTensor(
                d, cutoff, np.exp(0.5 * np.vdot(f, f)) * want.coeffs)
            assert fock.tensor_residual(got, want) < 1e-6
