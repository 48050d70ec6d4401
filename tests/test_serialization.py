"""Round-trip and validation tests for the JSON formats."""

import numpy as np
import pytest

from gaussfock import fock, serialization as ser, siegel, states
from gaussfock import symplectic as sp
from gaussfock.errors import ConstraintViolationError, GaussFockError
from gaussfock.linalg import hs_norm

rng = np.random.default_rng(97)


class TestScalars:
    def test_complex_round_trip(self):
        z = 1.5 - 2.25j
        assert ser.decode_complex(ser.encode_complex(z)) == z

    def test_complex_rejects_wrong_shape(self):
        with pytest.raises(GaussFockError, match="re, im"):
            ser.decode_complex([1.0])
        with pytest.raises(GaussFockError):
            ser.decode_complex("1+2j")
        with pytest.raises(GaussFockError):
            ser.decode_complex([1.0, "x"])

    def test_vector_round_trip(self):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = ser.decode_vector(ser.encode_vector(f))
        assert np.array_equal(out, f)

    def test_vector_rejects_non_array(self):
        with pytest.raises(GaussFockError, match="array"):
            ser.decode_vector({"0": [1.0, 0.0]})


class TestMatrix:
    def test_round_trip(self):
        A = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        out = ser.decode_matrix(ser.encode_matrix(A))
        assert out.shape == (3, 2)
        assert np.array_equal(out, A)

    def test_missing_key(self):
        with pytest.raises(GaussFockError, match="missing key"):
            ser.decode_matrix({"rows": 1, "data": [[0.0, 0.0]]})

    def test_non_object_rejected(self):
        with pytest.raises(GaussFockError,
                           match="^expected an object for a matrix$"):
            ser.decode_matrix([1])

    def test_non_integer_size_rejected(self):
        with pytest.raises(GaussFockError, match="^matrix rows/cols must "
                           "be ints, data an array$"):
            ser.decode_matrix({"rows": 1.0, "cols": 1, "data": []})

    def test_wrong_entry_count(self):
        with pytest.raises(GaussFockError, match="entries"):
            ser.decode_matrix({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})

    def test_encode_rejects_non_matrix(self):
        with pytest.raises(GaussFockError, match="matrix"):
            ser.encode_matrix(np.zeros(3))


class TestComposites:
    def test_non_object_state_rejected(self):
        with pytest.raises(GaussFockError,
                           match="^expected an object for a state$"):
            ser.decode_state([])

    def test_symplectic_round_trip(self):
        r = sp.random_element(3, rng)
        out = ser.decode_symplectic(ser.encode_symplectic(r))
        assert hs_norm(out.U - r.U) < 1e-12
        assert hs_norm(out.V - r.V) < 1e-12

    def test_symplectic_revalidates(self):
        r = sp.random_element(2, rng)
        obj = ser.encode_symplectic(r)
        obj["V"]["data"][0] = [10.0, 0.0]
        with pytest.raises(ConstraintViolationError):
            ser.decode_symplectic(obj)

    def test_symplectic_dim_mismatch(self):
        obj = ser.encode_symplectic(sp.identity(2))
        obj["dim"] = 3
        with pytest.raises(GaussFockError, match="declares dim"):
            ser.decode_symplectic(obj)

    def test_point_round_trip(self):
        p = siegel.random_point(3, rng, max_norm=0.7)
        out = ser.decode_point(ser.encode_point(p))
        assert hs_norm(out.Z - p.Z) == 0.0

    def test_point_missing_keys(self):
        with pytest.raises(GaussFockError, match="missing keys"):
            ser.decode_point({"dim": 1})

    def test_state_round_trip(self):
        x = states.random_state(2, rng)
        out = ser.decode_state(ser.encode_state(x))
        assert states.state_residual(out, x) == 0.0

    def test_state_revalidates_disc(self):
        x = states.random_state(1, rng)
        obj = ser.encode_state(x)
        obj["Z"]["data"][0] = [1.5, 0.0]
        with pytest.raises(GaussFockError):
            ser.decode_state(obj)


class TestTensor:
    def test_round_trip_sparse(self):
        F = fock.exp_vector(np.array([0.5, -0.25j]), 6)
        out = ser.decode_tensor(ser.encode_tensor(F))
        assert fock.tensor_residual(out, F) == 0.0

    def test_threshold_drops_small_entries(self):
        F = fock.exp_vector(np.array([0.1 + 0j]), 8)
        obj = ser.encode_tensor(F, threshold=1e-6)
        out = ser.decode_tensor(obj)
        assert len(obj["entries"]) < np.count_nonzero(F.coeffs)
        assert fock.tensor_residual(out, F) < 1e-6

    def test_bad_index_rejected(self):
        obj = {"dim": 2, "cutoff": 3,
               "entries": [[[0, 9], [1.0, 0.0]]]}
        with pytest.raises(GaussFockError, match="occupation index"):
            ser.decode_tensor(obj)

    def test_bad_entry_shape_rejected(self):
        obj = {"dim": 1, "cutoff": 3, "entries": [[1, 2, 3]]}
        with pytest.raises(GaussFockError, match="tensor entry"):
            ser.decode_tensor(obj)

    def test_revalidates_degree_invariant(self):
        # an index inside the grid but above the total-degree cutoff
        obj = {"dim": 2, "cutoff": 3,
               "entries": [[[3, 3], [1.0, 0.0]]]}
        with pytest.raises(GaussFockError, match="cutoff"):
            ser.decode_tensor(obj)

    def test_matches_grid_constructor(self):
        # decode fills the flat vector; make_tensor reads the same grid
        rng = np.random.default_rng(11)
        d, N = 3, 5
        grid = np.zeros((N + 1,) * d, dtype=complex)
        entries = []
        for m in fock.basis_indices(d, N)[::3]:
            z = complex(rng.normal(), rng.normal())
            grid[m] = z
            entries.append([list(m), [z.real, z.imag]])
        out = ser.decode_tensor({"dim": d, "cutoff": N, "entries": entries})
        assert np.array_equal(out.vector, fock.make_tensor(d, N, grid).vector)

    def test_zero_entry_beyond_degree_accepted(self):
        obj = {"dim": 2, "cutoff": 3,
               "entries": [[[3, 3], [0.0, 0.0]], [[1, 0], [2.0, 1.0]]]}
        out = ser.decode_tensor(obj)
        assert out.vector[fock.basis_indices(2, 3).index((1, 0))] == 2 + 1j
        assert np.count_nonzero(out.vector) == 1

    def test_boolean_dim_rejected(self):
        obj = {"dim": True, "cutoff": 2, "entries": []}
        with pytest.raises(GaussFockError, match="must be ints"):
            ser.decode_tensor(obj)

    def test_boolean_occupation_index_rejected(self):
        # [true] was read as the index (1,)
        obj = {"dim": 1, "cutoff": 2, "entries": [[[True], [1.0, 0.0]]]}
        with pytest.raises(GaussFockError,
                           match=r"^bad occupation index \[True\]$"):
            ser.decode_tensor(obj)

    def test_size_guard_runs_before_allocation(self):
        # the (21,)^9 grid would take 11.6 TiB
        obj = {"dim": 9, "cutoff": 20, "entries": []}
        with pytest.raises(GaussFockError, match="size guard"):
            ser.decode_tensor(obj)

    @pytest.mark.parametrize("d, N", [(1, 0), (1, 9), (2, 7), (3, 5),
                                      (4, 3), (5, 6), (2, 40)])
    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_encode_matches_sorted_reference(self, d, N, threshold):
        # entries in lexicographic order of their multi-indices, as the
        # grid holds them; a third of the coefficients are exact zeros
        rng = np.random.default_rng(d * 100 + N)
        grid = rng.normal(size=(N + 1,) * d) + 1j * rng.normal(
            size=(N + 1,) * d)
        grid[rng.uniform(size=grid.shape) < 1 / 3] = 0.0
        grid[np.indices(grid.shape).sum(axis=0) > N] = 0.0
        want = [[list(m), [grid[m].real, grid[m].imag]]
                for m in sorted(fock.basis_indices(d, N))
                if abs(grid[m]) > threshold]
        out = ser.encode_tensor(fock.make_tensor(d, N, grid), threshold)
        assert out == {"dim": d, "cutoff": N, "entries": want}


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        path = str(tmp_path / "state.json")
        x = states.random_state(2, rng)
        ser.dump_json(ser.encode_state(x), path)
        out = ser.decode_state(ser.load_json(path))
        assert states.state_residual(out, x) == 0.0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(GaussFockError, match="cannot read"):
            ser.load_json(str(tmp_path / "nope.json"))

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(GaussFockError, match="malformed"):
            ser.load_json(str(path))
