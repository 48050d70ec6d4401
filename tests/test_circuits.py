"""Tests for the circuit language: parsing, normal form, execution."""

import json
import math

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

    @pytest.mark.parametrize("text, line, col, message", [
        ("R(0, 1.0)\n  3(0, 1.0)", 2, 3, "expected a gate name, found '3'"),
        ("R(0, 1.0)\n\n  XY (0, 1)", 3, 5, "unknown gate 'XY'"),
        ("R 0, 1.0)", 1, 3, "expected '(', found '0'"),
        ("D(0, 1.0)", 1, 9, "expected ',', found ')'"),
        ("D(0, 1.0", 1, 9, "expected ',', found end of line"),
        ("R(0, 1.0, 2.0)", 1, 9, "expected ')', found ','"),
        ("S(0,  x, 0)", 1, 7, "expected a number, found 'x'"),
        ("D(0, 1e, 0)", 1, 7, "expected ',', found 'e'"),
        ('D(0, "x", 1)', 1, 6, "expected a number, found '\"'"),
        ("SYMP( a.json)", 1, 7, "expected a quoted file name, found 'a'"),
        ('SYMP( "a.json', 1, 7, "unterminated string"),
        ('SYMP("a", 1)', 1, 9, "expected ')', found ','"),
        ("S(0, 1.0, 2.0 # c", 1, 15, "expected ')', found '#'"),
        ("R(0, 1.0) x", 1, 11, "unexpected trailing input"),
        ("R(0, 1.0) ; ;", 1, 13, "unexpected trailing input"),
    ])
    def test_error_position(self, text, line, col, message):
        with pytest.raises(CircuitSyntaxError) as err:
            circuits.parse(text)
        assert (type(err.value), err.value.line, err.value.col) == (
            CircuitSyntaxError, line, col)
        assert str(err.value) == f"line {line}, col {col}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("BS(0, 1.5, 0.1, 0.2)", "line 1: mode index must be an integer, "
                                 "got 1.5"),
        ("\nR(-2, 1.0)", "line 2: mode index must be nonnegative, got -2"),
        ("R(1e999, 0.5)", "line 1: mode index must be an integer, got inf"),
    ])
    def test_mode_error(self, text, message):
        with pytest.raises(ModeOutOfRangeError) as err:
            circuits.parse(text)
        assert str(err.value) == message

    def test_pretty_round_trip_of_random_gates(self):
        trip_rng = np.random.default_rng(1313)
        for k in range(200):
            gates = verify._random_gates(int(trip_rng.integers(1, 6)),
                                         trip_rng)
            gates += [verify._inverse_gate(g) for g in reversed(gates)]
            gates.insert(int(trip_rng.integers(0, len(gates) + 1)),
                         circuits.Gate("SYMP", (), (), f"dir/elem {k}.json"))
            assert circuits.parse(circuits.pretty(gates)) == gates


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

    def test_unknown_gate_kind_rejected(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^gate X\(0\) is not a symplectic gate$"):
            circuits.compile_circuit([circuits.Gate("X", (0,), ())], 2)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(DimensionMismatchError,
                           match="^circuit dimension must be at least 1$"):
            circuits.compile_circuit([], 0)

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
        Ug, Vg, hd = circuits._gate_arrays([gate], dim, ".", {})
        if gate.kind == "D":
            hg = hd[0]
            log_phase += -1j * sp.symplectic_form(hg, h)
            h = hg + h
        else:
            rg = sp.make_symplectic(Ug[0], Vg[0])
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

    def test_only_passive_gates(self):
        # every V is 0, so every gate's log det|U| is 0
        gates = passive_gates(np.random.default_rng(79), 3, 60)
        assert_matches_reference(gates, 3)

    def test_squeeze_of_zero_strength(self):
        assert_matches_reference(circuits.parse(
            "S(1, 0, 0.7)\nS(0, 0.3, 1.1)\nS(0, 0.0, -2.0)\nD(1, 0.5, 0.2)"),
            2)

    def test_passive_symp_file(self, tmp_path):
        edge_rng = np.random.default_rng(80)
        path = tmp_path / "passive.json"
        K = np.linalg.qr(edge_rng.normal(size=(3, 3))
                         + 1j * edge_rng.normal(size=(3, 3)))[0]
        dump_json(encode_symplectic(sp.from_unitary(K)), str(path))
        gates = random_gates(edge_rng, 3, 12, 13)
        gates.insert(5, circuits.Gate("SYMP", (), (), str(path)))
        assert_matches_reference(gates, 3)

    def test_one_squeeze_among_passive_gates(self):
        gates = passive_gates(np.random.default_rng(81), 4, 80)
        gates.insert(37, circuits.Gate("S", (2,), (0.45, -1.3)))
        assert_matches_reference(gates, 4)


class TestErrorOrder:
    """The first failure in (gate, stage) order raises, as gate by gate."""

    def test_multiplier_modulus_on_5000_gates(self):
        gates = long_circuit(5000)
        with pytest.raises(GaussFockError) as info:
            circuits.compile_circuit(gates, 4)
        got = type(info.value), str(info.value)
        assert got == raised(reference_fold, gates, 4)
        assert got == (InternalInconsistencyError,
                       "multiplier modulus deviates from 1 by 2.296e-10")
        assert f"{info.value.residual:.3e}" == "2.296e-10"
        assert info.value.tol == 1e-10

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

    @pytest.mark.parametrize("text, dim", [
        ("D(0, 1e308, 0)\nD(0, 1e308, 0)", 1),    # the shift overflows
        ("D(0, 1e200, 0)\nD(0, 1e200, 1)", 1),    # the phase overflows
        ("R(0, 0.3)\nD(1, 1e308, 0)\nBS(0, 1, 0.2, 0)\nD(1, 1e308, 0)", 2),
    ])
    def test_overflow_after_the_last_gate_is_refused(self, text, dim):
        gates = circuits.parse(text)
        assert raised(circuits.compile_circuit, gates, dim) == (
            GaussFockError, "vector entries must be finite")

    @pytest.mark.parametrize(
        "line", ["S(0, 800, 0)", "R(0, 1e400)", "D(0, 1e400, 0)"])
    def test_sequential_route_refuses_nonfinite_gates(self, line):
        with pytest.raises(GaussFockError, match="must be finite"):
            circuits.run_sequential(circuits.parse(line), 1)

    def test_singular_running_product_gives_the_fold_error(self):
        # Squeezes up to |r| = 24 make a running product numerically
        # singular; the stacked multiplier's solve must raise a typed error
        # so that the bisection over prefixes reaches the first failure.
        dim, gates = large_squeeze_circuit(24)
        got = raised(circuits.compile_circuit, gates, dim)
        assert got == raised(reference_fold, gates, dim)
        assert got[0] is InternalInconsistencyError
        assert got[1].startswith("multiplier modulus deviates from 1 by")

    def test_later_stack_failure_does_not_mask_the_first(self, monkeypatch):
        # A stacked eig_log_det that fails on every stack reaching past
        # gate 3150 (as if that gate were below the eigenvalue floor) fails
        # before the modulus check, but must still give gate 3112's
        # modulus error.
        gates = long_circuit(3200)
        n_symplectic = sum(g.kind != "D" for g in gates[:3150])
        real = rep.eig_log_det

        def floor_fails_past_3150(M):
            if np.ndim(M) > 2 and len(M) > n_symplectic:
                raise SingularMatrixError("a later gate is below the floor")
            return real(M)

        monkeypatch.setattr(rep, "eig_log_det", floor_fails_past_3150)
        assert raised(circuits.compile_circuit, gates, 4) == (
            InternalInconsistencyError,
            "multiplier modulus deviates from 1 by 2.296e-10")


def lapack_calls(monkeypatch, gates, names):
    """(name, shape of the input) of each np.linalg call a compile makes."""
    calls = []
    for name in names:
        call = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda A, *a, name=name, call=call, **k:
                calls.append((name, np.shape(A))) or call(A, *a, **k))
    circuits.compile_circuit(gates, 4)
    return calls


class TestCallBudget:
    def test_svd_calls_of_a_compile(self, monkeypatch):
        # Two stacked SVDs: V of the gates, giving log det|U|, and V of the
        # products, giving ||V|| and log det|U|. The result is the last
        # product, already checked, so no SVD of it alone is taken, nor any
        # of U.
        calls = lapack_calls(monkeypatch, long_circuit(150), ("svd",))
        assert sorted(len(shape) for _, shape in calls) == [3, 3]

    def test_svd_calls_of_a_long_compile(self, monkeypatch):
        # The same two SVDs, although from the 679th symplectic gate on
        # (||U|| about 400) the products' unscaled defects exceed the
        # tolerance.
        calls = lapack_calls(monkeypatch, long_circuit(1000), ("svd",))
        stacks = [shape[0] for _, shape in calls if len(shape) == 3]
        assert sorted(len(shape) for _, shape in calls) == [3, 3]
        n_gates, n_products = stacks
        assert n_products == n_gates + 1

    def test_each_pair_is_decided_once(self, monkeypatch, tmp_path):
        # The SYMP element's constraints are decided as its file loads and
        # the products' in one stack; no gate is decided again.
        path = str(tmp_path / "r.json")
        dump_json(encode_symplectic(
            sp.random_element(4, np.random.default_rng(84))), path)
        gates = long_circuit(150)
        gates.insert(75, circuits.Gate("SYMP", (), (), path))
        shapes = []
        real = sp._check_pairs

        def counted(U, V, *args):
            shapes.append(np.shape(U))
            return real(U, V, *args)

        monkeypatch.setattr(sp, "_check_pairs", counted)
        monkeypatch.setattr(circuits, "_check_pairs", counted)
        circuits.compile_circuit(gates, 4)
        n_products = sum(g.kind != "D" for g in gates) + 1
        assert shapes == [(4, 4), (n_products, 4, 4)]

    def test_multiplier_calls_of_a_compile(self, monkeypatch):
        # The stacked multiplier takes two solves and one eigvals.
        calls = lapack_calls(monkeypatch, long_circuit(150),
                             ("eigvals", "solve"))
        assert [(name, len(shape)) for name, shape in calls] == [
            ("solve", 3), ("solve", 3), ("eigvals", 3)]

    def test_stacked_passes_of_a_compile(self, monkeypatch):
        # A passing compile runs one pass; a failing one bisects its
        # prefixes, about log2 n passes more.
        passes = []
        real = circuits._stacked_pass
        monkeypatch.setattr(circuits, "_stacked_pass",
                            lambda gates, *a: passes.append(len(gates))
                            or real(gates, *a))
        circuits.compile_circuit(long_circuit(150), 4)
        assert passes == [150]
        passes.clear()
        n = 5000
        with pytest.raises(InternalInconsistencyError):
            circuits.compile_circuit(long_circuit(n), 4)
        assert passes[0] == n
        assert len(passes) <= math.ceil(math.log2(n + 1)) + 2

    def test_symp_file_loads_once_per_compile(self, monkeypatch, tmp_path):
        # The failing compile runs 13 passes; the SYMP file is read by the
        # first and taken from the compile's memo by the others. An
        # identity gate leaves every product as it was, so the error is
        # that of the 5000 gates without it.
        path = str(tmp_path / "identity.json")
        dump_json(encode_symplectic(sp.identity(4)), path)
        gates = long_circuit(5000)
        gates.insert(10, circuits.Gate("SYMP", (), (), path))
        loads = []
        real = circuits.load_json
        monkeypatch.setattr(circuits, "load_json",
                            lambda p: loads.append(p) or real(p))
        assert raised(circuits.compile_circuit, gates, 4) == (
            InternalInconsistencyError,
            "multiplier modulus deviates from 1 by 2.296e-10")
        assert loads == [path]

    def test_symp_file_loads_once_per_sequential_run(self, monkeypatch,
                                                     tmp_path):
        # three gates name the file; the run reads it once and agrees with
        # the normal form
        path = str(tmp_path / "r.json")
        dump_json(encode_symplectic(
            sp.random_element(2, np.random.default_rng(82))), path)
        gates = random_gates(np.random.default_rng(83), 2, 9, 10)
        for k in (0, 4, 8):
            gates.insert(k, circuits.Gate("SYMP", (), (), path))
        loads = []
        real = circuits.load_json
        monkeypatch.setattr(circuits, "load_json",
                            lambda p: loads.append(p) or real(p))
        seq = circuits.run_sequential(gates, 2)
        assert loads == [path]
        assert states.state_residual(circuits.run(gates, 2), seq) < 1e-10


class TestGatesAreGroupElements:
    """The compile does not decide the gates' constraints, as every finite
    S, R and BS gate is a group element by construction."""

    # magnitudes from 0 to past the overflow of cosh r (r = 710.4 is finite)
    SIZES = (0.0, 1e-300, 1e-8, 0.3, 1.0, 3.0, 20.0, 100.0, 355.0, 400.0,
             700.0, 710.0, 710.4, 710.5, 800.0, 1e5, 1e300)

    def sweep(self):
        gen = np.random.default_rng(2029)
        sizes = np.array(self.SIZES)

        def param():
            return float(gen.choice([-1.0, 1.0]) * gen.choice(sizes)
                         * gen.choice([1.0, gen.uniform(0.5, 1.0)]))

        gates = []
        for k in range(3000):
            kind = ("S", "R", "BS")[k % 3]
            mode = int(gen.integers(0, 2))
            modes = (mode, 1 - mode) if kind == "BS" else (mode,)
            params = (param(),) if kind == "R" else (param(), param())
            gates.append(circuits.Gate(kind, modes, params))
        Ug, Vg, _ = circuits._gate_arrays(gates, 2, ".", {})
        finite = np.isfinite(np.concatenate([Ug, Vg], axis=1)).all(
            axis=(1, 2))
        return gates, Ug, Vg, finite

    def test_finite_gates_hold_their_constraints(self):
        _, Ug, Vg, finite = self.sweep()
        assert 2500 < finite.sum() < len(finite)
        residuals, _ = sp._check_pairs(Ug[finite], Vg[finite])
        assert residuals.max() <= 1e-14

    def test_nonfinite_gates_are_refused(self):
        gates, _, _, finite = self.sweep()
        for k in np.flatnonzero(~finite):
            assert raised(circuits.compile_circuit, gates[k:k + 1], 2) == (
                GaussFockError, "matrix entries must be finite")


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


def large_squeeze_circuit(seed):
    """d = 1..5 and 20-120 gates: D with r in [0, 1), S with |r| < 24, R
    and BS, every phase in [-3, 3)."""
    gen = np.random.default_rng(seed)
    dim, n = int(gen.integers(1, 6)), int(gen.integers(20, 121))
    kinds = ["D", "S", "R"] + (["BS"] if dim >= 2 else [])
    gates = []
    for _ in range(n):
        kind = kinds[int(gen.integers(0, len(kinds)))]
        modes = (int(gen.integers(0, dim)),)
        if kind == "D":
            params = (gen.uniform(0, 1), gen.uniform(-3, 3))
        elif kind == "S":
            params = (gen.uniform(-24, 24), gen.uniform(-3, 3))
        elif kind == "R":
            params = (gen.uniform(-3, 3),)
        else:
            modes += (int((modes[0] + 1 + gen.integers(0, dim - 1)) % dim),)
            params = (gen.uniform(-3, 3), gen.uniform(-3, 3))
        gates.append(circuits.Gate(kind, modes, tuple(map(float, params))))
    return dim, gates


def passive_gates(gen, dim, n):
    """n random R and BS gates."""
    gates = random_gates(gen, dim, 4 * n, 4 * n + 1)
    return [g for g in gates if g.kind in ("R", "BS")][:n]


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
