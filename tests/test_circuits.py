"""Tests for the circuit language: parsing, normal form, execution."""

import json

import numpy as np
import pytest

from gaussfock import circuits, representation as rep, states, verify
from gaussfock import symplectic as sp
from gaussfock.errors import (
    CircuitSyntaxError,
    DimensionMismatchError,
    GaussFockError,
    InternalInconsistencyError,
    ModeOutOfRangeError,
    SingularMatrixError,
)
from gaussfock.linalg import hs_norm
from gaussfock.serialization import dump_json, encode_symplectic

rng = np.random.default_rng(424242)


def elem_residual(a, b):
    return max(hs_norm(a.U - b.U), hs_norm(a.V - b.V))


class TestParse:
    def test_single_displacement(self):
        gates = circuits.parse("D(0, 1.0, 0.0)")
        assert len(gates) == 1
        g = gates[0]
        assert g.kind == "D"
        assert g.modes == (0,)
        assert g.params == (1.0, 0.0)

    def test_two_gates_keep_order(self):
        gates = circuits.parse("S(0, 0.5, 0.0)\nBS(0, 1, 0.7853981633974483, 0.0)")
        assert [g.kind for g in gates] == ["S", "BS"]
        assert gates[1].modes == (0, 1)

    def test_comments_blanks_semicolons(self):
        text = """
        # prepare a squeezed mode
        S(0, 0.5, 0.0);
          R(0, 1.0)   # then rotate

        """
        gates = circuits.parse(text)
        assert [g.kind for g in gates] == ["S", "R"]

    def test_unclosed_paren_reports_position(self):
        with pytest.raises(CircuitSyntaxError, match=r"line 1") as err:
            circuits.parse("S(0, 0.5")
        assert err.value.line == 1
        assert err.value.col > 1

    def test_error_line_number_counts_from_one(self):
        with pytest.raises(CircuitSyntaxError) as err:
            circuits.parse("R(0, 1.0)\nQ(0)")
        assert err.value.line == 2

    def test_wrong_arity(self):
        with pytest.raises(CircuitSyntaxError):
            circuits.parse("D(0, 1.0)")

    def test_trailing_garbage(self):
        with pytest.raises(CircuitSyntaxError, match="trailing"):
            circuits.parse("R(0, 1.0) x")

    def test_fractional_mode_rejected(self):
        with pytest.raises(ModeOutOfRangeError, match="integer"):
            circuits.parse("D(0.5, 1.0, 0.0)")

    def test_negative_mode_rejected(self):
        with pytest.raises(ModeOutOfRangeError, match="nonnegative"):
            circuits.parse("R(-1, 1.0)")

    def test_symp_takes_quoted_path(self):
        gates = circuits.parse('SYMP("element.json")')
        assert gates[0].kind == "SYMP"
        assert gates[0].source == "element.json"

    def test_symp_unterminated_string(self):
        with pytest.raises(CircuitSyntaxError, match="unterminated"):
            circuits.parse('SYMP("element.json')

    def test_pretty_round_trip(self):
        text = ('D(0, 1.25, 0.5)\nS(1, 0.3, -0.2)\nBS(0, 1, 0.7, 0.1)\n'
                'R(1, 2.0)\nSYMP("a/b.json")\n')
        gates = circuits.parse(text)
        assert circuits.parse(circuits.pretty(gates)) == gates

    def test_pretty_of_empty(self):
        assert circuits.pretty([]) == ""


class TestCompile:
    def test_empty_circuit_is_identity(self):
        cc = circuits.compile_circuit([], 2)
        assert elem_residual(cc.element, sp.identity(2)) == 0.0
        assert np.all(cc.displacement == 0)
        assert cc.log_phase == 0

    def test_single_displacement_vector(self):
        cc = circuits.compile_circuit(circuits.parse("D(1, 2.0, 0.0)"), 3)
        assert np.allclose(cc.displacement, [0, 2.0, 0])
        assert elem_residual(cc.element, sp.identity(3)) == 0.0

    def test_displacement_uses_polar_parameters(self):
        cc = circuits.compile_circuit(
            circuits.parse("D(0, 1.5, 0.7853981633974483)"), 1)
        want = 1.5 * np.exp(0.25j * np.pi)
        assert cc.displacement[0] == pytest.approx(want)

    def test_mode_out_of_range(self):
        with pytest.raises(ModeOutOfRangeError, match="dimension"):
            circuits.compile_circuit(circuits.parse("R(2, 1.0)"), 2)

    def test_beamsplitter_needs_distinct_modes(self):
        with pytest.raises(ModeOutOfRangeError, match="distinct"):
            circuits.compile_circuit(circuits.parse("BS(1, 1, 0.5, 0.0)"), 2)

    def test_gate_order_matters(self):
        a = circuits.parse("D(0, 1.0, 0.0)\nS(0, 0.5, 0.0)")
        b = circuits.parse("S(0, 0.5, 0.0)\nD(0, 1.0, 0.0)")
        xa = circuits.run(a, 1)
        xb = circuits.run(b, 1)
        assert states.state_residual(xa, xb) > 0.1

    def test_symp_gate_from_file(self, tmp_path):
        r = sp.squeeze(np.array([[0.4, 0.1], [0.1, -0.2]]))
        path = tmp_path / "elem.json"
        dump_json(encode_symplectic(r), str(path))
        gates = circuits.parse('SYMP("elem.json")')
        cc = circuits.compile_circuit(gates, 2, base_dir=str(tmp_path))
        assert elem_residual(cc.element, r) < 1e-12

    def test_symp_dimension_mismatch(self, tmp_path):
        r = sp.identity(3)
        path = tmp_path / "elem.json"
        dump_json(encode_symplectic(r), str(path))
        with pytest.raises(DimensionMismatchError, match="dimension"):
            circuits.compile_circuit(
                circuits.parse('SYMP("elem.json")'), 2, base_dir=str(tmp_path))


def reference_fold(gates, dim):
    """The normal-form fold spelled with public compose and multiplier."""
    h = np.zeros(dim, dtype=complex)
    element = sp.identity(dim)
    log_phase = 0.0 + 0.0j
    for gate in gates:
        if gate.kind == "D":
            hg = circuits._displacement_vector(gate, dim)
            log_phase += -1j * sp.symplectic_form(hg, h)
            h = hg + h
        else:
            rg = circuits._gate_element(gate, dim, ".")
            log_phase += np.log(rep.multiplier(rg, element))
            h = sp.apply(rg, h)
            element = sp.compose(rg, element)
    return h, element, complex(log_phase)


def assert_matches_reference(gates, dim):
    cc = circuits.compile_circuit(gates, dim)
    h, element, log_phase = reference_fold(gates, dim)
    assert np.array_equal(cc.element.U, element.U)
    assert np.array_equal(cc.element.V, element.V)
    assert np.array_equal(cc.displacement, h)
    assert cc.log_phase == log_phase


def raised(call, *args):
    with pytest.raises(GaussFockError) as info:
        call(*args)
    return type(info.value), str(info.value)


def long_circuit(n_gates):
    """verify's random d=4 gate lists from default_rng(0), chained."""
    fold_rng = np.random.default_rng(0)
    gates = []
    while len(gates) < n_gates:
        gates += verify._random_gates(4, fold_rng)
    return gates[:n_gates]


class TestCompileFold:
    """The stacked compile equals the gate-by-gate fold, d = 1..5."""

    def test_matches_reference_fold_byte_for_byte(self):
        fold_rng = np.random.default_rng(7070)
        for dim in range(1, 6):
            for _ in range(8):
                gates = random_gates(fold_rng, dim, lo=5, hi=30)
                assert_matches_reference(gates, dim)


class TestStackEdges:
    """The stacked compile at the edges of the stack, byte for byte."""

    def test_empty_only_displacements_and_single_gates(self):
        assert_matches_reference([], 3)
        assert_matches_reference(circuits.parse(
            "D(0, 0.4, 0.2)\nD(1, 1.1, -2.0)\nD(0, 0.3, 1.0)"), 2)
        for text in ["S(1, 0.4, 0.7)", "R(0, 1.3)", "BS(0, 1, 0.6, -0.4)",
                     "D(1, 0.8, 0.5)"]:
            assert_matches_reference(circuits.parse(text), 2)

    def test_symp_gates(self, tmp_path):
        edge_rng = np.random.default_rng(77)
        gates = random_gates(edge_rng, 3, 10, 11)
        for k in range(3):
            path = tmp_path / f"elem{k}.json"
            dump_json(encode_symplectic(sp.random_element(3, edge_rng, 0.5)),
                      str(path))
            gates.insert(3 * k + 1, circuits.Gate("SYMP", (), (), str(path)))
        assert_matches_reference(gates, 3)

    def test_circuit_then_its_inverse(self):
        edge_rng = np.random.default_rng(78)
        gates = random_gates(edge_rng, 4, 80, 81)
        assert_matches_reference(
            gates + [inverse_gate(g) for g in reversed(gates)], 4)


class TestErrorOrder:
    """The first failure in (gate, stage) order raises, as gate by gate."""

    def test_multiplier_modulus_on_5000_gates(self):
        gates = long_circuit(5000)
        got = raised(circuits.compile_circuit, gates, 4)
        assert got == raised(reference_fold, gates, 4)
        assert got == (InternalInconsistencyError,
                       "multiplier modulus deviates from 1 by 1.242e-10")

    def test_nonfinite_squeeze_after_valid_prefix(self):
        gates = long_circuit(40) + circuits.parse("S(2, 800, 0)")
        got = raised(circuits.compile_circuit, gates, 4)
        assert got == raised(reference_fold, gates, 4)
        assert got == (GaussFockError, "matrix entries must be finite")

    def test_mode_out_of_range_on_last_gate(self):
        gates = long_circuit(40) + circuits.parse("R(4, 0.3)")
        got = raised(circuits.compile_circuit, gates, 4)
        assert got == raised(reference_fold, gates, 4)
        assert got[0] is ModeOutOfRangeError

    def test_missing_symp_file_after_50_gates(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        gates = long_circuit(50) + [circuits.Gate("SYMP", (), (), missing)]
        got = raised(circuits.compile_circuit, gates, 4)
        assert got == raised(reference_fold, gates, 4)
        assert got[1].startswith(f"cannot read {missing}")

    def test_nonfinite_displacement(self):
        gates = long_circuit(30) + circuits.parse("D(1, 1e400, 0)\nR(0, 1)")
        got = raised(circuits.compile_circuit, gates, 4)
        assert got == raised(reference_fold, gates, 4)
        assert got == (GaussFockError, "vector entries must be finite")

    def test_overflowing_displacement_fails_at_the_next_gate(self):
        # the sum of the two shifts overflows; S checks h after its multiplier
        gates = circuits.parse("D(0, 1e308, 0)\nD(0, 1e308, 0)\n"
                               "S(1, 0.3, 0)\nR(0, 0.2)")
        got = raised(circuits.compile_circuit, gates, 2)
        with np.errstate(over="ignore"):
            assert got == raised(reference_fold, gates, 2)
        assert got == (GaussFockError, "vector entries must be finite")

    @pytest.mark.parametrize(
        "line", ["S(0, 800, 0)", "R(0, 1e400)", "D(0, 1e400, 0)"])
    def test_sequential_route_refuses_nonfinite_gates(self, line):
        with pytest.raises(GaussFockError, match="must be finite"):
            circuits.run_sequential(circuits.parse(line), 1)

    def test_later_stack_failure_does_not_mask_the_first(self, monkeypatch):
        # A stacked eig_log_det that fails (as if a later gate were below
        # the eigenvalue floor) must still give gate 1325's modulus error.
        gates = long_circuit(1400)
        real = rep.eig_log_det

        def floor_fails_on_stacks(M):
            if np.ndim(M) > 2:
                raise SingularMatrixError("a later gate is below the floor")
            return real(M)

        monkeypatch.setattr(rep, "eig_log_det", floor_fails_on_stacks)
        assert raised(circuits.compile_circuit, gates, 4) == (
            InternalInconsistencyError,
            "multiplier modulus deviates from 1 by 1.242e-10")


class TestRun:
    def test_squeeze_gives_disc_point(self):
        x = circuits.run(circuits.parse("S(0, 0.5, 0.0)"), 1)
        assert x.Z.Z[0, 0] == pytest.approx(np.tanh(0.5))
        assert np.all(x.f == 0)
        assert states.norm(x) == pytest.approx(1.0, rel=1e-12)

    def test_displacement_gives_coherent(self):
        x = circuits.run(circuits.parse("D(0, 1.0, 0.0)"), 1)
        assert states.state_residual(x, states.coherent([1.0])) < 1e-12

    def test_rotation_fixes_vacuum(self):
        x = circuits.run(circuits.parse("R(0, 0.9)"), 1)
        assert states.state_residual(x, states.vacuum(1)) < 1e-12

    def test_norm_one_for_random_circuits(self):
        for _ in range(15):
            gates = random_gates(rng, dim=3)
            x = circuits.run(gates, 3)
            assert states.norm(x) == pytest.approx(1.0, rel=1e-9)

    def test_normal_form_matches_sequential(self):
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            gates = random_gates(rng, dim)
            fast = circuits.run(gates, dim)
            slow = circuits.run_sequential(gates, dim)
            assert states.state_residual(fast, slow) < 1e-9

    def test_beamsplitter_mixes_coherent_amplitudes(self):
        theta = 0.6
        gates = circuits.parse(f"D(0, 1.0, 0.0)\nBS(0, 1, {theta}, 0.0)")
        x = circuits.run(gates, 2)
        want = states.coherent([np.cos(theta), np.sin(theta)])
        assert states.state_residual(x, want) < 1e-12

    def test_inverse_circuit_returns_to_vacuum(self):
        for _ in range(15):
            dim = int(rng.integers(1, 4))
            gates = random_gates(rng, dim)
            inverse = [inverse_gate(g) for g in reversed(gates)]
            x = circuits.run(gates + inverse, dim)
            assert abs(states.overlap(states.vacuum(dim), x)) \
                == pytest.approx(1.0, abs=1e-9)


def random_gates(rng, dim, lo=2, hi=7):
    gates = []
    for _ in range(int(rng.integers(lo, hi))):
        kind = rng.choice(["D", "S", "R", "BS"] if dim > 1 else ["D", "S", "R"])
        mode = int(rng.integers(0, dim))
        if kind == "D":
            gates.append(circuits.Gate("D", (mode,),
                                       (float(rng.uniform(0, 1.2)),
                                        float(rng.uniform(-np.pi, np.pi)))))
        elif kind == "S":
            gates.append(circuits.Gate("S", (mode,),
                                       (float(rng.uniform(-0.8, 0.8)),
                                        float(rng.uniform(-np.pi, np.pi)))))
        elif kind == "R":
            gates.append(circuits.Gate("R", (mode,),
                                       (float(rng.uniform(-np.pi, np.pi)),)))
        else:
            other = int(rng.integers(0, dim - 1))
            other += other >= mode
            gates.append(circuits.Gate("BS", (mode, other),
                                       (float(rng.uniform(-1.2, 1.2)),
                                        float(rng.uniform(-np.pi, np.pi)))))
    return gates


def inverse_gate(g):
    if g.kind == "D":
        return circuits.Gate("D", g.modes, (g.params[0], g.params[1] + np.pi))
    if g.kind == "S":
        return circuits.Gate("S", g.modes, (-g.params[0], g.params[1]))
    if g.kind == "R":
        return circuits.Gate("R", g.modes, (-g.params[0],))
    if g.kind == "BS":
        return circuits.Gate("BS", g.modes, (-g.params[0], g.params[1]))
    raise AssertionError(g.kind)
