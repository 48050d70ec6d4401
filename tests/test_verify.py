"""Tests of the verify suites' reduction in run_suite."""

import numpy as np
import pytest

from gaussfock import states, verify as ver
from gaussfock.errors import GaussFockError


def test_nan_residual_fails_its_check(monkeypatch):
    # max(prev, nan) returns prev, so a hand-written running maximum reported
    # this check as 0.0 and passed it
    monkeypatch.setattr(states, "norm_squared_direct", lambda x: np.nan)
    results = {r.name: r for r in ver.run_suite("overlap", 42, 3, 1e-9)}
    assert np.isnan(results["norm dual route"].residual)
    assert not results["norm dual route"].passed
    assert all(r.passed for name, r in results.items()
               if name != "norm dual route")


def test_nan_sticks_after_later_finite_residuals(monkeypatch):
    residuals = iter([1e-12, np.nan, 1e-13, 1e-11])
    monkeypatch.setitem(ver.SUITES, "dsl",
                        lambda rng, trials: (("norm preservation", r)
                                             for r in residuals))
    results = {r.name: r for r in ver.run_suite("dsl", 0, 1, 1e-9)}
    assert np.isnan(results["norm preservation"].residual)
    assert not results["norm preservation"].passed
    # checks that yield nothing are still reported, at 0
    assert results["normal form agreement"].residual == 0.0


def test_checks_keep_their_order_and_tolerances():
    results = ver.run_suites(sorted(ver.SUITES), 5, 1, 1e-9)
    assert len(results) == 45
    for suite in ver.SUITES:
        names = [r.name for r in results if r.suite == suite]
        assert names == list(ver._CHECKS[suite])
    tols = {r.name: r.tol for r in results}
    assert tols.pop("master overlap comparison") == 1e-6
    assert set(tols.values()) == {1e-9}


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected(trials):
    with pytest.raises(GaussFockError, match="trials must be at least 1"):
        ver.run_suite("dsl", 42, trials, 1e-9)


def test_inverse_of_a_symp_gate_is_a_typed_error():
    gate = ver.circuits.Gate("SYMP", (), (), "a.json")
    with pytest.raises(GaussFockError,
                       match=r'^cannot invert SYMP\("a\.json"\)$'):
        ver._inverse_gate(gate)
