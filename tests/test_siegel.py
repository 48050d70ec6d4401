"""Tests for the Siegel disc and its Moebius action."""

import numpy as np
import pytest

from gaussfock import representation as rep, siegel, states
from gaussfock import symplectic as sp
from gaussfock.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotInDiscError,
    NotSymmetricError,
)
from gaussfock.linalg import hs_norm, mat_adjoint, mat_conj

rng = np.random.default_rng(2024)


class TestMakePoint:
    def test_origin(self):
        p = siegel.origin(3)
        assert np.allclose(p.Z, 0.0)
        assert p.op_norm == 0.0
        assert p.dim == 3

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            siegel.make_point(np.array([[0.0, 0.5], [0.0, 0.0]]))

    def test_rejects_boundary(self):
        with pytest.raises(NotInDiscError) as err:
            siegel.make_point(np.eye(2))
        assert err.value.norm >= 1.0 - siegel.DISC_MARGIN

    def test_rejects_outside(self):
        with pytest.raises(NotInDiscError):
            siegel.make_point(1.5 * np.eye(1))

    def test_points_are_immutable(self):
        p = siegel.random_point(2, rng)
        with pytest.raises(ValueError):
            p.Z[0, 0] = 0.0


class TestMoebius:
    def test_identity_fixes_everything(self):
        p = siegel.random_point(3, rng)
        q = siegel.moebius(sp.identity(3), p)
        assert np.allclose(q.Z, p.Z, atol=1e-14)

    def test_refuses_a_dimension_mismatch(self):
        # before any product: numpy's own ValueError came back otherwise
        with pytest.raises(DimensionMismatchError, match="^element of "
                           "dimension 2 cannot act on a point of dimension "
                           "1$"):
            siegel.moebius(sp.identity(2), siegel.origin(1))
        for act in (rep.act, rep.adjoint_act):
            with pytest.raises(DimensionMismatchError):
                act(sp.identity(2), states.vacuum(1))

    def test_both_matrix_forms_agree(self):
        # the action has a left-quotient and a right-quotient expression;
        # moebius computes both and cross-checks, so a pass certifies both
        for _ in range(25):
            d = int(rng.integers(1, 6))
            p = siegel.random_point(d, rng, max_norm=0.9)
            r = sp.random_element(d, rng)
            q = siegel.moebius(r, p)
            U, V, Z = r.U, r.V, p.Z
            left = np.linalg.solve(
                (mat_conj(U) + mat_conj(V) @ Z).T, (U @ Z + V).T).T
            assert hs_norm(left - q.Z) < 1e-10 * (1 + hs_norm(q.Z))

    def test_cocycle(self):
        for _ in range(25):
            d = int(rng.integers(1, 5))
            p = siegel.random_point(d, rng)
            r1 = sp.random_element(d, rng)
            r2 = sp.random_element(d, rng)
            via = siegel.moebius(r2, siegel.moebius(r1, p))
            direct = siegel.moebius(sp.compose(r2, r1), p)
            assert hs_norm(via.Z - direct.Z) < 1e-9

    def test_disc_preserved_under_strong_squeezing(self):
        p = siegel.make_point(0.97 * np.eye(2))
        r = sp.compose(sp.squeeze(2.0 * np.eye(2)), sp.random_element(2, rng))
        q = siegel.moebius(r, p)
        assert q.op_norm < 1.0

    def test_unitary_action_is_congruence(self):
        d = 3
        q, rr = np.linalg.qr(rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))
        K = q * (np.diag(rr) / np.abs(np.diag(rr)))
        p = siegel.random_point(d, rng)
        img = siegel.moebius(sp.from_unitary(K), p)
        assert np.allclose(img.Z, K @ p.Z @ K.T, atol=1e-12)

    def test_squeeze_moves_origin_to_tanh(self):
        r = sp.squeeze(np.array([[0.5]]))
        q = siegel.moebius(r, siegel.origin(1))
        assert q.Z[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-14)

    def test_inverse_round_trip(self):
        p = siegel.random_point(4, rng)
        r = sp.random_element(4, rng)
        back = siegel.moebius(sp.inverse(r), siegel.moebius(r, p))
        assert hs_norm(back.Z - p.Z) < 1e-10

    def test_form_disagreement_detected(self):
        # a non-symplectic pair smuggled in makes the two forms differ
        bad = sp.SymplecticElement.__new__(sp.SymplecticElement)
        object.__setattr__(bad, "U", np.eye(2) * 1.3)
        object.__setattr__(bad, "V", np.array([[0.4, 0.1], [0.2, 0.8]]))
        object.__setattr__(bad, "validation_residual", 0.0)
        p = siegel.random_point(2, rng)
        with pytest.raises((InternalInconsistencyError, NotSymmetricError,
                            NotInDiscError)):
            siegel.moebius(bad, p)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_one_svd_per_call(self, d, monkeypatch):
        # The image's norm scales the dual-form check and validates the
        # point: one SVD serves both.
        local = np.random.default_rng(d)
        p = siegel.random_point(d, local)
        r = sp.random_element(d, local)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        q = siegel.moebius(r, p)
        assert len(calls) == 1
        assert q.op_norm == np.linalg.norm(q.Z, 2)


class TestTransport:
    def test_reaches_the_point_from_origin(self):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            p = siegel.random_point(d, rng, max_norm=0.9)
            r = siegel.transport_from_origin(p)
            q = siegel.moebius(r, siegel.origin(d))
            assert hs_norm(q.Z - p.Z) < 1e-10

    def test_scalar_transport_values(self):
        p = siegel.make_point(np.array([[0.5]]))
        r = siegel.transport_from_origin(p)
        assert r.U[0, 0] == pytest.approx(0.75 ** -0.5, abs=1e-14)
        assert r.V[0, 0] == pytest.approx(0.5 * 0.75 ** -0.5, abs=1e-14)

    def test_transport_is_hermitian_positive_in_u(self):
        p = siegel.random_point(3, rng)
        r = siegel.transport_from_origin(p)
        assert hs_norm(r.U - mat_adjoint(r.U)) < 1e-12
        assert np.all(np.linalg.eigvalsh(r.U) > 0)


class TestRandomPoint:
    def test_norm_cap_respected(self):
        for _ in range(10):
            p = siegel.random_point(3, rng, max_norm=0.4)
            assert p.op_norm <= 0.4 + 1e-12
            assert hs_norm(p.Z - p.Z.T) < 1e-12
