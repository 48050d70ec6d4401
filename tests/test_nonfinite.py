"""Non-finite inputs raise GaussFockError before any LAPACK call.

Before this check, an infinity came back as a "validated" element with a NaN
validation residual, and a NaN raised numpy's LinAlgError.
"""

import json

import numpy as np
import pytest

from gaussfock import fock, serialization as ser, siegel, states
from gaussfock import symplectic as sp
from gaussfock.errors import GaussFockError
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


def test_overflowing_constraint_residual_is_refused():
    # finite entries whose constraint products overflow: the scaled
    # residual is NaN, which must not pass as at most tol
    with np.errstate(over="ignore"), pytest.raises(
            GaussFockError, match="constraints violated"):
        sp.make_symplectic([[1e200]], [[0.0]])


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


# Finite parameters whose tail-bound profile overflows: the bound came back
# as NaN, and cutoff_for leaked numpy's RuntimeWarning.
HUGE = states.make_state([[0.5]], [1e200])


def test_tail_bound_refuses_nan():
    with pytest.raises(GaussFockError, match=r"tail bound exp\(nan\) overflows"):
        fock.tail_bound(HUGE, 5)


def test_cutoff_for_refuses_overflow():
    with pytest.raises(GaussFockError, match=r"tail bound exp\(nan\) overflows"):
        fock.cutoff_for(HUGE, 1e-8)


def test_overflow_message_prints_the_exponent_in_e_format():
    x = states.make_state([[0.5]], [1e150])
    with pytest.raises(GaussFockError) as err:
        fock.tail_bound(x, 5)
    assert str(err.value) == "tail bound exp(1.000e+300) overflows float64"
    assert err.value.residual == pytest.approx(1.0004e300, rel=1e-4)
    with pytest.raises(GaussFockError) as err:
        states.overlap(x, x)
    assert str(err.value) == "overlap exp(2.000e+300) overflows float64"
