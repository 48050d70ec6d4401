"""Tests of the benchmark's own output checks.

Each check must accept what the program returns today and reject an output
that was deliberately spoiled: a shifted phase, a perturbed vector, a
cutoff chosen too small. Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gaussfock  # noqa: E402
# cli is not imported by the package's __init__; the workloads reach it as
# gaussfock.cli
from gaussfock import cli, fock, serialization, siegel, states  # noqa: E402,F401
from gaussfock import symplectic as sp  # noqa: E402

import workloads as wl  # noqa: E402

SEED = 11


def _build(name, tmp_path):
    ops = wl.WORKLOADS[name](gaussfock, SEED, str(tmp_path))
    return {op.kind: op for op in reversed(ops)}   # first op of each kind


def _phase(z, eps=1e-6):
    return z * np.exp(1j * eps)


@pytest.fixture(scope="module")
def calculus(tmp_path_factory):
    ops = _build("calculus-d96", tmp_path_factory.mktemp("calc"))
    return {k: (op, op.run()) for k, op in ops.items()}


@pytest.fixture(scope="module")
def operators(tmp_path_factory):
    ops = _build("oracle-operators", tmp_path_factory.mktemp("ops"))
    return {k: (op, op.run()) for k, op in ops.items() if k.endswith("d2")}


@pytest.fixture(scope="module")
def circuits(tmp_path_factory):
    ops = _build("circuits-d4", tmp_path_factory.mktemp("circ"))
    return {k: (op, op.run()) for k, op in ops.items()}


@pytest.fixture(scope="module")
def overlap_op(tmp_path_factory):
    ops = _build("oracle-overlap", tmp_path_factory.mktemp("ov"))
    op = ops["overlap-d2"]
    return op, op.run()


def _edit_json(text, fn):
    obj = json.loads(text)
    fn(obj)
    return json.dumps(obj)


# -- oracle-overlap --------------------------------------------------------

def test_oracle_overlap_accepts_program(overlap_op):
    op, out = overlap_op
    assert op.check(out) is None


def test_oracle_overlap_rejects_shifted_closed_form(overlap_op):
    op, out = overlap_op

    def spoil(obj):
        z = _phase(complex(*obj["overlap"]), 1e-5)
        obj["overlap"] = [z.real, z.imag]
    assert op.check(_edit_json(out, spoil)) is not None


def test_oracle_overlap_rejects_too_small_cutoff(overlap_op):
    op, out = overlap_op
    argv = op.argv + ["--cutoff", "6"]
    assert op.check(wl._cli(gaussfock, argv)) is not None


# -- oracle-operators ------------------------------------------------------

def test_operator_checks_accept_program(operators):
    for op, out in operators.values():
        assert op.check(out) is None, op.kind


def test_gamma_check_rejects_perturbed_coefficient(operators):
    op, out = operators["gamma-d2"]
    c = np.array(out.coeffs)
    c[(1, 0)] += 1e-8
    assert op.check(fock.FockTensor(out.dim, out.cutoff, c)) is not None


def test_weyl_check_rejects_shifted_phase(operators):
    op, (out, ladders) = operators["weyl-d2"]
    bad = fock.FockTensor(out.dim, out.cutoff, _phase(np.array(out.coeffs)))
    assert op.check((bad, ladders)) is not None


def test_ccr_check_rejects_perturbed_ladder(operators):
    op, (w, ladders) = operators["weyl-d2"]
    m = np.array(ladders[0].matrix)
    m[2, 0] += 1e-8
    bad = (fock.FockOperator(ladders[0].dim, ladders[0].cutoff, m),) \
        + ladders[1:]
    assert op.check((w, bad)) is not None


# -- calculus-d96 ----------------------------------------------------------

def _state(x, Z=None, f=None, log_amp=None):
    return states.UltracoherentState(
        x.Z if Z is None else siegel.SiegelPoint(Z, x.Z.op_norm),
        x.f if f is None else f,
        x.log_amp if log_amp is None else log_amp)


def test_calculus_checks_accept_program(calculus):
    for op, out in calculus.values():
        assert op.check(out) is None, op.kind


def test_overlap_check_rejects_shifted_phase(calculus):
    op, out = calculus["overlap"]
    assert op.check(_phase(out)) is not None


def test_act_check_rejects_perturbed_f(calculus):
    op, (a, b) = calculus["act"]
    f = np.array(a.f)
    f[0] += 1e-6
    assert op.check((_state(a, f=f), b)) is not None


def test_composition_check_rejects_shifted_multiplier(calculus):
    op, (r3, chi) = calculus["compose-multiplier"]
    assert op.check((r3, _phase(chi))) is not None
    assert op.check((r3, 1.001 * chi)) is not None


def test_composition_check_rejects_wrong_product(calculus):
    op, (r3, chi) = calculus["compose-multiplier"]
    bad = sp.SymplecticElement(_phase(np.array(r3.U)), np.array(r3.V), 0.0)
    assert op.check((bad, chi)) is not None


def test_moebius_check_rejects_asymmetric_and_off_cocycle(calculus):
    op, out = calculus["moebius"]
    W = np.array(out.Z)
    skew = W.copy()
    skew[0, 1] += 1e-6
    assert op.check(siegel.SiegelPoint(skew, out.op_norm)) is not None
    sym = W + 1e-6 * np.eye(W.shape[0])
    assert op.check(siegel.SiegelPoint(sym, out.op_norm)) is not None


def test_polar_check_rejects_rephased_factor(calculus):
    op, (K1, A, K2) = calculus["polar"]
    K1 = np.array(K1)
    K1[:, 0] = _phase(K1[:, 0])   # still unitary, no longer recomposes
    assert op.check((K1, A, K2)) is not None


# -- circuits-d4 -----------------------------------------------------------

def test_circuit_checks_accept_program(circuits):
    for op, out in circuits.values():
        assert op.check(out) is None, op.kind


def test_plain_circuit_check_rejects_perturbed_f(circuits):
    op, out = circuits["circuit"]

    def spoil(obj):
        obj["f"][0][0] += 1e-7
    assert op.check(_edit_json(out, spoil)) is not None


def test_plain_circuit_check_rejects_shifted_phase(circuits):
    op, out = circuits["circuit"]

    def spoil(obj):
        obj["log_amp"][1] += 1e-6
    assert op.check(_edit_json(out, spoil)) is not None


def test_round_trip_check_rejects_residual_squeezing(circuits):
    op, out = circuits["circuit+inverse"]

    def spoil(obj):
        obj["Z"]["data"][0][0] += 1e-7
    assert op.check(_edit_json(out, spoil)) is not None


def test_round_trip_check_rejects_lost_norm(circuits):
    op, out = circuits["circuit+inverse"]

    def spoil(obj):
        obj["log_amp"][0] += 1e-6
    assert op.check(_edit_json(out, spoil)) is not None
