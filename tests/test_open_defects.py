"""Open defects, recorded as strict expected failures.

Each test asserts what the package should do and fails today for the reason
in its marker. A test that starts to pass fails the run under strict mode, so
a fix must also remove its marker; a test that fails for another reason fails
the run too.
"""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from gaussfock import circuits, representation as rep, serialization as ser
from gaussfock import states, verify
from gaussfock import symplectic as sp
from gaussfock.errors import (ConstraintViolationError,
                              FactorizationFailureError,
                              InternalInconsistencyError)

DATA = Path(__file__).parent / "data"


def _random_circuit(n_gates: int, dim: int = 4) -> list[circuits.Gate]:
    """verify's random gate lists from default_rng(0), chained."""
    rng = np.random.default_rng(0)
    gates = []
    while len(gates) < n_gates:
        gates += verify._random_gates(dim, rng)
    return gates[:n_gates]


@contextlib.contextmanager
def _recorded_failure(message: str, error=InternalInconsistencyError):
    """Let through only the error of type error naming message."""
    try:
        yield
    except error as exc:
        if message not in str(exc):
            pytest.fail(f"failed for another reason: {exc}")
        raise


@pytest.mark.xfail(
    strict=True, raises=InternalInconsistencyError,
    reason="the kernel check in states.overlap has a fixed dual-form "
           "tolerance of 1e-12; on this unit-norm 1000-gate state the forms "
           "disagree by 3.377e-11")
def test_norm_of_long_circuit():
    out = circuits.run(_random_circuit(1000), 4)
    with _recorded_failure("overlap kernel dual forms disagree by"):
        value = states.norm(out)
    assert abs(value - 1.0) <= 1e-9


def test_multiplier_after_long_circuit():
    # |chi| - 1 was 1.242e-10 on this pair while log det|U| came from
    # eig(I + VV+); the singular values of V keep it at roundoff.
    pair = ser.load_json(str(DATA / "multiplier_pair_5000_gates.json"))
    r2, r1 = (ser.decode_symplectic(pair[k]) for k in ("r2", "r1"))
    chi = rep.multiplier(r2, r1)
    assert abs(abs(chi) - 1.0) <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=ConstraintViolationError,
    reason="make_symplectic scales its fixed 1e-10 by the current "
           "1 + ||U||^2; the product of these single-mode gates peaks at "
           "||U|| = 1266, and at gate 359 of 400 (||U|| = 4.4) the "
           "roundoff gathered there gives a scaled residual of 1.082e-10")
def test_single_mode_circuit_then_its_inverse():
    gates = _random_circuit(200, dim=1)
    gates += [verify._inverse_gate(g) for g in reversed(gates)]
    # run_sequential accepts it: |<vac|x>| = 1 - 1.8e-10.
    with _recorded_failure("scaled residual 1.082e-10 exceeds tol 1e-10",
                           ConstraintViolationError):
        out = circuits.run(gates, 1)
    assert abs(abs(states.overlap(states.vacuum(1), out)) - 1.0) <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the closed-form norm loses relative accuracy near the disc "
           "boundary: norm - 1 = 3.978e-9 at ||Z|| = tanh(10)")
def test_norm_near_disc_boundary():
    out = circuits.run(circuits.parse("S(0,10,0)"), 1)
    assert abs(states.norm(out) - 1.0) <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="norm takes the square root of the exponentiated self-overlap; "
           "at log_amp = -400 that is about exp(-800) and underflows to 0, "
           "though the norm, about 2.0787e-174, is a normal double")
def test_norm_of_a_faint_state():
    want = states.norm(states.make_state([[0.5]], [0.1], 0.0)) * np.exp(-400)
    got = states.norm(states.make_state([[0.5]], [0.1], -400.0))
    assert abs(got - want) <= 1e-12 * want


def _polar_draws(a: float):
    """K1 o squeeze(diag(a, 3, 0.5, 0.01)) o K2 over 20 draws of
    default_rng(5), with random unitaries K1 and K2."""
    rng = np.random.default_rng(5)
    squeeze = sp.squeeze(np.diag([a, 3.0, 0.5, 0.01]))
    for _ in range(20):
        K1 = sp.random_element(4, rng, squeeze_scale=0.0).U
        K2 = sp.random_element(4, rng, squeeze_scale=0.0).U
        yield sp.compose(sp.from_unitary(K1),
                         sp.compose(squeeze, sp.from_unitary(K2)))


def test_polar_factorize_with_a_large_squeeze_beside_small_ones():
    # eigh(VV+) gave 0.0099998 for the 0.01 here and failed 20 of 20 draws;
    # the singular values of V keep it to a relative 5e-11.
    for r in _polar_draws(10.0):
        A = sp.polar_factorize(r)[1]
        assert abs(A[3, 3] - 0.01) <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=FactorizationFailureError,
    reason="beside a squeeze of 15, K2 = K1+ U / cosh(lambda) misses "
           "unitarity by 2.996e-10 on the first draw, above from_unitary's "
           "1e-10, and the factors do not recompose (20 of 20 draws; at "
           "a = 20, 3.124e-08)")
def test_polar_factorize_with_a_larger_squeeze_beside_small_ones():
    for r in _polar_draws(15.0):
        with _recorded_failure("factors do not recompose: matrix is not "
                               "unitary: ||K+K - I|| = 2.996e-10",
                               FactorizationFailureError):
            sp.polar_factorize(r)
