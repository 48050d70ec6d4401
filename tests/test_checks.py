"""The one routine that decides every internal check, and its inventory.

errors._require passes if and only if residual <= tol, so a NaN residual
fails, and the error it raises carries .residual and .tol. The inventory
lists every direct raise of a check-error class in the package outside
_require; a new ad hoc check site shows up as a diff of the expected list
below. The overflow policy is pinned the same way: one quiet switch, one
site of the finite-entries error, one site of the exponent refusal. So is
the package's one runtime dependency: no module imports anything but numpy
and the standard library.
"""

import ast
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussfock
from gaussfock import siegel
from gaussfock import symplectic as sp
from gaussfock.errors import (
    CircuitSyntaxError,
    ConstraintViolationError,
    GaussFockError,
    InternalInconsistencyError,
    NotInDiscError,
    _require,
)
from gaussfock.linalg import as_vector
from gaussfock.symplectic import _check_pairs

TEMPLATE = "residual {residual:.3e} exceeds tol {tol:g}"
nan = float("nan")


class TestRequire:
    @pytest.mark.parametrize("residual", [0.0, 1e-11, 1e-10, np.float64(1e-10),
                                          -np.inf, np.zeros((2, 3))])
    def test_at_most_tol_passes(self, residual):
        assert _require(residual, 1e-10, GaussFockError, TEMPLATE) is None

    def test_failure_formats_the_message_and_carries_both(self):
        with pytest.raises(ConstraintViolationError) as err:
            _require(2.5e-10, 1e-10, ConstraintViolationError, TEMPLATE)
        assert str(err.value) == "residual 2.500e-10 exceeds tol 1e-10"
        assert (err.value.residual, err.value.tol) == (2.5e-10, 1e-10)

    @pytest.mark.parametrize("residual", [nan, np.float64(nan),
                                          np.array([0.0, nan]), np.inf])
    def test_nan_and_inf_fail(self, residual):
        with pytest.raises(InternalInconsistencyError) as err:
            _require(residual, 1e-10, InternalInconsistencyError, TEMPLATE)
        assert not np.isfinite(err.value.residual)

    def test_stack_raises_for_its_first_failing_entry(self):
        stack = np.array([[0.0, 3e-10], [5e-10, 1e-11]])
        with pytest.raises(InternalInconsistencyError) as err:
            _require(stack, 1e-10, InternalInconsistencyError, TEMPLATE)
        assert err.value.residual == 3e-10      # first in order, not largest
        assert str(err.value) == "residual 3.000e-10 exceeds tol 1e-10"

    def test_array_tol_reports_the_failing_entry(self):
        with pytest.raises(InternalInconsistencyError) as err:
            _require(np.array([5e-10, 5e-10]), np.array([1e-9, 1e-10]),
                     InternalInconsistencyError, TEMPLATE)
        assert (err.value.residual, err.value.tol) == (5e-10, 1e-10)
        assert str(err.value) == "residual 5.000e-10 exceeds tol 1e-10"
        _require(0.0, np.array([0.0, 1.0]), GaussFockError, TEMPLATE)

    def test_pair_stack_with_a_tol_per_pair(self):
        # the second pair's U is off by 5e-10 in a residual scaled by
        # 1 + ||U||^2 = 2: it passes under 1e-9 and fails under 1e-10
        U = np.stack([np.eye(1), np.eye(1) + 5e-10])
        V = np.zeros((2, 1, 1))
        _check_pairs(U, V, np.array([1e-10, 1e-9]))
        with pytest.raises(ConstraintViolationError) as err:
            _check_pairs(U, V, np.array([1e-9, 1e-10]))
        assert err.value.tol == 1e-10
        assert str(err.value) == (
            "symplectic constraints violated: scaled residual 5.000e-10 "
            "exceeds tol 1e-10")

    def test_message_is_formatted_only_on_failure(self):
        _require(0.0, 1.0, GaussFockError, "{no_such_slot}")

    def test_errors_from_elsewhere_carry_none(self):
        with pytest.raises(GaussFockError) as err:
            as_vector([nan])
        assert (err.value.residual, err.value.tol) == (None, None)

    def test_residual_and_tol_survive_pickling(self):
        with pytest.raises(ConstraintViolationError) as err:
            _require(2.5e-10, 1e-10, ConstraintViolationError, TEMPLATE)
        copy = pickle.loads(pickle.dumps(err.value))
        assert (str(copy), copy.residual, copy.tol) == (
            str(err.value), 2.5e-10, 1e-10)

    def test_disc_check_keeps_its_decision_and_norm(self):
        limit = 1.0 - siegel.DISC_MARGIN
        siegel.make_point([[np.nextafter(limit, 0.0)]])
        with pytest.raises(NotInDiscError) as err:
            siegel.make_point([[limit]])
        assert err.value.norm == err.value.residual == limit
        assert err.value.tol < limit


def test_circuit_syntax_error_survives_pickling():
    copy = pickle.loads(pickle.dumps(CircuitSyntaxError(3, 4, "boom")))
    assert type(copy) is CircuitSyntaxError
    assert (str(copy), copy.line, copy.col) == ("line 3, col 4: boom", 3, 4)


CHECK_ERRORS = {
    "InternalInconsistencyError", "ConstraintViolationError",
    "NotSymmetricError", "NotRealSymmetricError", "NotUnitaryError",
    "FactorizationFailureError",
}


def package_nodes():
    """(module, enclosing function, node) for each node of the package's
    syntax trees, functions themselves left out."""
    def visit(node, module: str, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, module, child.name)
                continue
            yield module, owner, child
            yield from visit(child, module, owner)

    for path in sorted(Path(gaussfock.__file__).parent.glob("*.py")):
        yield from visit(ast.parse(path.read_text()), path.stem, "<module>")


def direct_raises() -> list[str]:
    """'module.function: Error' for each raise of a check-error class
    outside _require."""
    found = []
    for module, owner, node in package_nodes():
        if isinstance(node, ast.Raise) and owner != "_require":
            exc = node.exc
            name = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(name, ast.Name) and name.id in CHECK_ERRORS:
                found.append(f"{module}.{owner}: {name.id}")
    return sorted(found)


def test_direct_raises_of_check_errors():
    assert direct_raises() == [
        "states.make_state: InternalInconsistencyError",
        "states.scaled: InternalInconsistencyError",
        "symplectic.polar_factorize: FactorizationFailureError",
    ]


def test_group_constraints_are_decided_at_one_site():
    decisions = [
        f"{module}.{owner}" for module, owner, node in package_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_require"
        and any(isinstance(arg, ast.Name)
                and arg.id == "ConstraintViolationError" for arg in node.args)]
    assert decisions == ["symplectic._check_pairs"]
    private = [alias.name for module, _, node in package_nodes()
               if module == "circuits" and isinstance(node, ast.ImportFrom)
               and node.module == "symplectic"
               for alias in node.names if alias.name.startswith("_")]
    assert private == ["_check_pairs", "_element", "_log_det_abs_u"]


def test_overflow_policy_has_one_site_each():
    # the finite-entries error is raised in one place, numpy's error state
    # is changed by one errstate, built in errors._quiet's wrapper, and one
    # routine refuses an exponent that overflows
    finite = [f"{module}.{owner}" for module, owner, node in package_nodes()
              if isinstance(node, ast.Raise)
              and "entries must be finite" in ast.unparse(node)]
    assert finite == ["linalg._require_finite"]
    errstate = [f"{module}.{owner}" for module, owner, node in package_nodes()
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith("errstate")]
    assert errstate == ["errors.quiet"]
    # every "exp(...) overflows float64" message is built by linalg._exp
    exp = [f"{module}.{owner}" for module, owner, node in package_nodes()
           if isinstance(node, ast.Constant) and isinstance(node.value, str)
           and "exp({residual" in node.value
           and "overflows float64" in node.value]
    assert exp == ["linalg._exp"]


def test_numpy_is_the_one_dependency_imported():
    # the oracle's operators are numpy row tables and a Weyl operator's
    # exp(G) is the Chebyshev propagator, so no module imports scipy; every
    # import outside the package is numpy or the standard library
    imports = []
    for module, owner, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        imports += [f"{module}.{owner}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert imports and all(site.endswith(": numpy") for site in imports)


def test_nested_quiet_calls_restore_the_error_state():
    # squeeze is quiet and reaches the quiet constraint residual through
    # make_symplectic; each call enters its own errstate, so the caller's
    # settings are back in force afterwards
    with np.errstate(over="raise", invalid="warn"):
        before = np.geterr()
        sp.squeeze([[1.0]])
        assert np.geterr() == before
