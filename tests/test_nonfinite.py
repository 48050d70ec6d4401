"""Non-finite inputs raise GaussFockError before any LAPACK call.

Before this check, an infinity came back as a "validated" element with a NaN
validation residual, and a NaN raised numpy's LinAlgError.
"""

import json
import time

import numpy as np
import pytest

from gaussfock import fock, representation as rep, serialization as ser
from gaussfock import siegel, states
from gaussfock import symplectic as sp
from gaussfock.errors import (
    ConstraintViolationError,
    GaussFockError,
    NotInDiscError,
    NotUnitaryError,
)
from gaussfock.linalg import takagi

nan, inf = float("nan"), float("inf")

CASES = {
    "make_symplectic inf": lambda: sp.make_symplectic([[inf]], [[0]]),
    "squeeze inf": lambda: sp.squeeze([[inf]]),
    "make_symplectic nan": lambda: sp.make_symplectic([[nan]], [[0]]),
    "make_point nan": lambda: siegel.make_point([[nan]]),
    "make_state Z nan": lambda: states.make_state([[nan]], [0.0]),
    "takagi nan": lambda: takagi([[nan]]),
    "from_unitary nan": lambda: sp.from_unitary([[nan]]),
    "exp_omega nan": lambda: fock.exp_omega([[nan]], 3),
    "exp_vector nan": lambda: fock.exp_vector([nan], 3),
    # json.load accepts the NaN literal
    "decode_symplectic nan": lambda: ser.decode_symplectic(json.loads(
        '{"dim": 1, "U": {"rows": 1, "cols": 1, "data": [[NaN, 0]]},'
        ' "V": {"rows": 1, "cols": 1, "data": [[0, 0]]}}')),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nonfinite_input_raises_typed_error(name):
    with pytest.raises(GaussFockError, match="must be finite"):
        CASES[name]()


def _assert_constraint_residual_refused(U, V, residual):
    # finite entries whose constraint check overflows: the scaled
    # residual is inf or NaN, which must not pass as at most tol, and
    # numpy's overflow warning must not leak first
    with pytest.raises(ConstraintViolationError) as err:
        sp.make_symplectic(U, V)
    assert str(err.value) == ("symplectic constraints violated: scaled "
                              f"residual {residual} exceeds tol 1e-10")


def test_overflowing_constraint_residual_is_refused():
    _assert_constraint_residual_refused([[1e200]], [[0.0]], "inf")


def test_overflowing_constraint_residual_nan_is_refused():
    # ||V|| = 2e308 itself overflows float64
    _assert_constraint_residual_refused(np.full((2, 2), 1e308),
                                        np.full((2, 2), 1e308), "nan")


# Finite elements whose constraint products overflow float64 unless the
# check scales each pair first: each was refused with a NaN residual.
LARGE_BUILDS = {
    "squeeze 356": lambda: sp.squeeze([[356.0]]),
    "squeeze 400": lambda: sp.squeeze([[400.0]]),
    "squeeze 700": lambda: sp.squeeze([[700.0]]),
    "1e200 pair": lambda: sp.make_symplectic([[1e200]], [[1e200]]),
    "random_element": lambda: sp.random_element(
        2, np.random.default_rng(0), squeeze_scale=800.0),
}


@pytest.mark.parametrize("name", sorted(LARGE_BUILDS))
def test_large_finite_element_builds(name):
    r = LARGE_BUILDS[name]()
    assert r.validation_residual <= sp.DEFAULT_TOL
    assert np.isfinite(sp.log_det_abs_u(r))


@pytest.mark.parametrize("a", [356.0, 400.0, 700.0])
def test_large_squeeze_log_det_is_log_cosh(a):
    # log cosh a = a - log 2 + log1p(e^{-2a}); the last term is below the
    # last digit
    assert sp.log_det_abs_u(sp.squeeze([[a]])) == a - np.log(2.0)


def test_large_squeeze_acts_by_a_typed_error():
    # tanh 356 rounds to 1, so the vacuum's image is not in the open disc
    with pytest.raises(NotInDiscError):
        rep.act(sp.squeeze([[356.0]]), states.vacuum(1))


# Finite arguments whose element overflows float64 while it is built: each
# leaked numpy's RuntimeWarning.
OVERFLOWING_BUILDS = {
    "from_unitary": (lambda: sp.from_unitary([[1e200]]), NotUnitaryError,
                     r"^matrix is not unitary: \|\|K\+K - I\|\| = inf$"),
    "squeeze": (lambda: sp.squeeze([[800.0]]), GaussFockError,
                "^matrix entries must be finite$"),
    "compose 400": (lambda: sp.compose(sp.squeeze([[400.0]]),
                                       sp.squeeze([[400.0]])),
                    GaussFockError, "^matrix entries must be finite$"),
    # squeeze(355.5) passes its check, but (U, V) o (U, V) overflows
    "compose 355.5": (lambda: sp.compose(sp.squeeze([[355.5]]),
                                         sp.squeeze([[355.5]])),
                      GaussFockError, "^matrix entries must be finite$"),
    "conjugated_free_field": (lambda: sp.conjugated_free_field(
        sp.squeeze([[355.5]]), [1.0], 0.7), GaussFockError,
        "^matrix entries must be finite$"),
    "random_element": (lambda: sp.random_element(
        2, np.random.default_rng(0), squeeze_scale=1000.0),
        GaussFockError, "^matrix entries must be finite$"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_BUILDS))
def test_overflowing_element_build_is_refused(name):
    build, error, message = OVERFLOWING_BUILDS[name]
    with pytest.raises(error, match=message):
        build()


def test_huge_disc_norm_prints_short():
    # .12f and .6f of 1e200 printed all 201 digits
    with pytest.raises(NotInDiscError) as err:
        siegel.make_point([[1e200]])
    assert str(err.value) == "operator norm 1e+200 is not below 1 - 1e-09"
    with pytest.raises(NotInDiscError) as err:
        fock.exp_omega([[1e200]], 3)
    assert str(err.value) == ("exp Omega requires operator norm below 1, "
                              "got 1e+200")


# A state whose exponents overflow float64: each closed form must refuse
# it with a typed error, not return inf or NaN.
BIG = states.make_state([[0.5]], [1e308])


def test_norm_squared_direct_refuses_overflow():
    with pytest.raises(GaussFockError, match="overflows float64"):
        states.norm_squared_direct(BIG)


def test_bargmann_eval_refuses_overflow():
    with pytest.raises(GaussFockError, match="overflows float64"):
        states.bargmann_eval(BIG, [1e200])


def test_weyl_phase_refuses_overflow():
    with pytest.raises(GaussFockError, match="overflows float64"):
        states.weyl_phase([1e200], [1e200j])


def test_factor_displaced_squeezed_refuses_overflow():
    # A finite state whose residual amplitude is exp(800): it came back as
    # inf, with numpy's RuntimeWarning.
    x = states.make_state([[0.5]], [0.1], 800.0)
    with pytest.raises(GaussFockError, match=r"residual amplitude "
                       r"exp\(8\.001e\+02\) overflows float64"):
        states.factor_displaced_squeezed(x)


# Finite parameters whose tail-bound profile overflows: the bound came back
# as NaN, and cutoff_for leaked numpy's RuntimeWarning.
HUGE = states.make_state([[0.5]], [1e200])


def test_tail_bound_refuses_nan():
    with pytest.raises(GaussFockError, match=r"tail bound exp\(nan\) overflows"):
        fock.tail_bound(HUGE, 5)


def test_cutoff_for_refuses_overflow():
    with pytest.raises(GaussFockError, match=r"tail bound exp\(nan\) overflows"):
        fock.cutoff_for(HUGE, 1e-8)


# Finite parameters whose oracle coefficients overflow: the recurrence and
# the power table leaked numpy's RuntimeWarning.
def test_represent_state_refuses_overflow():
    with pytest.raises(GaussFockError, match="overflows float64"):
        fock.represent_state(states.make_state([[0.5]], [1e100]), 5)


def test_exp_vector_refuses_overflow():
    with pytest.raises(GaussFockError, match="overflows float64"):
        fock.exp_vector([1e100], 5)


def test_overflow_message_prints_the_exponent_in_e_format():
    x = states.make_state([[0.5]], [1e150])
    with pytest.raises(GaussFockError) as err:
        fock.tail_bound(x, 5)
    assert str(err.value) == "tail bound exp(1.000e+300) overflows float64"
    assert err.value.residual == pytest.approx(1.0004e300, rel=1e-4)
    with pytest.raises(GaussFockError) as err:
        states.overlap(x, x)
    assert str(err.value) == "overlap exp(2.000e+300) overflows float64"


# Oracle vectors built outside the Gaussian builders: each came back with a
# non-finite coefficient, or leaked numpy's RuntimeWarning while it was
# built. FockTensor now refuses its own entries, whoever builds it.
NONFINITE_TENSORS = {
    "FockTensor inf": (lambda: fock.FockTensor(1, 2, [inf, 0, 0]), "inf"),
    "make_tensor nan": (lambda: fock.make_tensor(1, 2, [nan, 0, 0]), "nan"),
    # json.loads accepts the Infinity literal
    "decode_tensor Infinity": (lambda: ser.decode_tensor(json.loads(
        '{"dim":1,"cutoff":2,"entries":[[[0],[Infinity,0]]]}')), "inf"),
    "apply_operator create": (lambda: fock.apply_operator(
        fock.create([1e300], 3), fock.exp_vector([1e100], 3)), "inf"),
    "symmetric_product": (lambda: fock.symmetric_product(
        fock.make_tensor(1, 2, [0, 1e200, 0]),
        fock.make_tensor(1, 2, [0, 1e200, 0])), "inf"),
    # the builds of gamma and annihilate leaked; their actions meet the guard
    "gamma action": (lambda: fock.apply_operator(
        fock.gamma([[1e300]], 3), fock.exp_vector([1.0], 3)), "nan"),
    "annihilate action": (lambda: fock.apply_operator(
        fock.annihilate([1e308], 3), fock.exp_vector([1.0], 3)), "nan"),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_TENSORS))
def test_nonfinite_tensor_is_refused(name):
    build, residual = NONFINITE_TENSORS[name]
    with pytest.raises(GaussFockError) as err:
        build()
    assert str(err.value) == f"Fock coefficient {residual} overflows float64"


@pytest.mark.parametrize("h", [1e10, 1e20, 1e150, 1e200, 1e308])
def test_weyl_action_refuses_overflow(h):
    # rho = 2 |h| sqrt(cutoff), the propagator's norm bound, is above the
    # cap, and overflows at 1e308. The term count grows with rho, so the
    # refusal comes before any term is summed, and numpy's random stream
    # is left alone
    rho = {1e10: "3.4641e+10", 1e20: "3.4641e+20", 1e150: "3.4641e+150",
           1e200: "3.4641e+200", 1e308: "inf"}[h]
    op = fock.weyl([h], 3)
    state = np.random.get_state()
    start = time.perf_counter()
    with pytest.raises(GaussFockError) as err:
        fock.apply_operator(op, fock.vacuum_tensor(1, 3))
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == ("Weyl action needs 2 |h| sqrt(cutoff) at most "
                              f"4096, got {rho}")
    assert all(np.array_equal(a, b)
               for a, b in zip(state, np.random.get_state()))


# Finite arguments whose result overflows float64: each returned inf or
# leaked numpy's RuntimeWarning.
OVERFLOWING_RESULTS = {
    "symplectic_form": (lambda: sp.symplectic_form([1e200], [1e200j]),
                        "^symplectic form inf overflows float64$"),
    "apply": (lambda: sp.apply(sp.squeeze([[1.0]]), [1e308]),
              "^vector entries must be finite$"),
    "hermitian_inner": (lambda: states.hermitian_inner([1e200], [1e200]),
                        "^Hermitian inner product inf overflows float64$"),
    "bilinear_pairing": (lambda: states.bilinear_pairing([1e200], [1e200]),
                         "^bilinear pairing inf overflows float64$"),
    "act_on_exponential": (lambda: rep.act_on_exponential(
        sp.squeeze([[1.0]]), [1e200]),
        "^bilinear pairing inf overflows float64$"),
    "state_residual": (lambda: states.state_residual(
        states.make_state([[0]], [1e308]), states.make_state([[0]], [-1e308])),
        "^state residual inf overflows float64$"),
    # the phases' difference overflows: its NaN amplitude term was dropped
    # by max, and 0.0 came back
    "state_residual phase": (lambda: states.state_residual(
        states.make_state([[0]], [0], 1e308j),
        states.make_state([[0]], [0], -1e308j)),
        "^state residual nan overflows float64$"),
    "displacement_to_origin": (lambda: states.displacement_to_origin(
        states.make_state([[0.5]], [1e308])),
        "^vector entries must be finite$"),
    # the pairings in an exponent overflow; each function's own refusal
    # of that exponent names it
    "overlap": (lambda: states.overlap(
        states.make_state([[0]], [1e200]), states.make_state([[0]], [1e200])),
        r"^overlap exp\(inf\) overflows float64$"),
    "weyl_apply": (lambda: states.weyl_apply(
        [1e200], states.make_state([[0.5]], [0])),
        "^log amplitude must be finite$"),
    "factor_displaced_squeezed": (lambda: states.factor_displaced_squeezed(
        states.make_state([[0.5]], [1e200])),
        r"^residual amplitude exp\(nan\) overflows float64$"),
    # the oracle's dense matrices: the powers of 1e300 in gamma's held inf
    # and NaN; a Weyl matrix is its action on the identity, refused, as the
    # action is, for the norm bound of its generator
    "gamma matrix": (lambda: fock.gamma([[1e300]], 3).matrix,
                     "^matrix entries must be finite$"),
    "weyl matrix": (lambda: fock.weyl([1e308], 3).matrix,
                    r"^Weyl action needs 2 \|h\| sqrt\(cutoff\) at most 4096, "
                    "got inf$"),
    "weyl matrix 1e200": (lambda: fock.weyl([1e200], 3).matrix,
                          r"^Weyl action needs 2 \|h\| sqrt\(cutoff\) at most "
                          r"4096, got 3\.4641e\+200$"),
    # the oracle's reductions of a finite tensor: m! |c_m|^2 overflows
    "inner": (lambda: fock.inner(fock.exp_vector([1e100], 3),
                                 fock.exp_vector([1e100], 3)),
              "^Fock inner product inf overflows float64$"),
    "tensor_norm": (lambda: fock.tensor_norm(fock.exp_vector([1e100], 3)),
                    "^Fock norm inf overflows float64$"),
    "degree_norms": (lambda: fock.degree_norms(fock.exp_vector([1e100], 3)),
                     "^degree norm inf overflows float64$"),
    "tensor_residual": (lambda: fock.tensor_residual(
        fock.exp_vector([1e100], 3), fock.vacuum_tensor(1, 3)),
        "^tensor residual inf overflows float64$"),
    # alpha^-n overflows from n = 103 on
    "alpha_norm": (lambda: fock.alpha_norm(fock.exp_vector([1.0], 170), 1e-3),
                   "^alpha norm inf overflows float64$"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_RESULTS))
def test_overflowing_result_is_refused(name):
    call, message = OVERFLOWING_RESULTS[name]
    with pytest.raises(GaussFockError, match=message):
        call()


def test_alpha_norm_of_the_vacuum_is_one_where_alpha_powers_overflow():
    # alpha^-n is inf from n = 103 on, and meets the zero components there
    assert fock.alpha_norm(fock.vacuum_tensor(1, 170), 1e-3) == 1.0
