"""The oracle's amplitude recurrence against exact rationals, the
least-cutoff search against the tail bound it inverts, the sparse ladder
operators, the two routes of the Weyl operator (its action from the sparse
generator and its dense matrix), and the flat tensor layout with its grid
exchange format."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest
import scipy.linalg

import gaussfock
from gaussfock import fock, states
from gaussfock.errors import DimensionMismatchError, GaussFockError
from gaussfock.linalg import involution


def exact_amplitudes(z: Fraction, f: Fraction, cutoff: int) -> list[Fraction]:
    """c_m = sum_k (z/2)^k / k! f^(m-2k) / (m-2k)!, the coefficients of
    exp(z xi^2 / 2 + f xi), in exact arithmetic."""
    return [sum((z / 2) ** k / factorial(k) * f ** (m - 2 * k)
                / factorial(m - 2 * k) for k in range(m // 2 + 1))
            for m in range(cutoff + 1)]


@pytest.mark.parametrize("z, f", [(Fraction(-1, 4), Fraction(3, 2)),
                                  (Fraction(-1, 2), Fraction(1))])
def test_represent_state_matches_exact_amplitudes(z, f):
    N = 160
    x = states.make_state(np.array([[float(z)]]), np.array([float(f)]))
    got = fock.represent_state(x, N).coeffs
    want = np.array([float(c) for c in exact_amplitudes(z, f, N)])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def loop_basis(d, N):
    """Multi-indices by (degree, lexicographic), one Python tuple at a time."""
    out = []
    for n in range(N + 1):
        level = set()
        for combo in combinations_with_replacement(range(d), n):
            level.add(tuple(combo.count(mu) for mu in range(d)))
        out.extend(sorted(level))
    return out


@pytest.mark.parametrize("d, N", [(1, 0), (1, 9), (2, 7), (3, 5), (4, 3)])
def test_index_table_matches_loop_reference(d, N):
    basis = loop_basis(d, N)
    assert fock.basis_indices(d, N) == tuple(basis)
    pos = {m: i for i, m in enumerate(basis)}
    f = np.arange(1, d + 1) * (0.5 + 0.25j)
    up = np.zeros((len(basis),) * 2, dtype=complex)
    down = np.zeros_like(up)
    for j, m in enumerate(basis):
        for mu in range(d):
            e = tuple(int(nu == mu) for nu in range(d))
            if sum(m) < N:
                up[pos[tuple(a + b for a, b in zip(m, e))], j] = f[mu]
            if m[mu]:
                lower = tuple(a - b for a, b in zip(m, e))
                down[pos[lower], j] = f[mu] * m[mu]
    assert np.array_equal(fock.create(f, N).matrix, up)
    assert np.array_equal(fock.annihilate(f, N).matrix, down)


def test_cutoff_for_is_least_certified_cutoff():
    rng = np.random.default_rng(31337)
    for d in (1, 2, 3):
        for _ in range(6):
            x = states.random_state(d, rng, max_z=0.6, max_f=1.0)
            for budget in (1e-8, 1e-9, 1e-12):
                N = fock.cutoff_for(x, budget)
                assert N >= 1
                assert fock.tail_bound(x, N) <= budget
                assert fock.tail_bound(x, N - 1) > budget


def test_cutoff_for_vacuum_is_zero():
    assert fock.cutoff_for(states.vacuum(2), 1e-12) == 0


def test_cutoff_for_raises_when_no_cutoff_suffices():
    x = states.make_state(np.array([[0.999]]), np.zeros(1))
    with pytest.raises(GaussFockError, match="no cutoff up to 170"):
        fock.cutoff_for(x, 1e-12)
    with pytest.raises(GaussFockError):
        fock.cutoff_for(states.vacuum(1), 0.0)


def _weyl_h(d, rng):
    return 0.6 / np.sqrt(d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))


@pytest.mark.parametrize("d, N", [(1, 0), (1, 9), (2, 7), (3, 5)])
def test_weyl_generator_and_matrix_match_dense_route(d, N):
    rng = np.random.default_rng(17 + d)
    for h in (_weyl_h(d, rng), np.array([0.0, 0.4, -0.2j][:d]), np.zeros(d)):
        dense = (fock.create(h, N).matrix
                 - fock.annihilate(involution(h), N).matrix)
        w = fock.weyl(h, N)
        assert np.array_equal(w._A.toarray(), dense)
        assert w.matrix.tobytes() == scipy.linalg.expm(dense).tobytes()


@pytest.mark.parametrize("d, N", [(1, 70), (2, 26), (3, 11)])
def test_weyl_action_matches_its_matrix(d, N):
    rng = np.random.default_rng(29 + d)
    h = _weyl_h(d, rng)
    w = fock.weyl(h, N)
    for F in (fock.vacuum_tensor(d, N),
              fock.represent_state(states.coherent(_weyl_h(d, rng)), N)):
        dense = fock.apply_operator(fock.FockOperator(d, N, w.matrix), F)
        assert fock.tensor_residual(fock.apply_operator(w, F), dense) <= 1e-12


def test_positional_operator_applies_its_matrix():
    rng = np.random.default_rng(3)
    d, N = 2, 4
    B = len(fock.basis_indices(d, N))
    m = rng.normal(size=(B, B)) + 1j * rng.normal(size=(B, B))
    op = fock.FockOperator(d, N, m)
    assert op.matrix is m
    F = fock.represent_state(states.random_state(d, rng), N)
    got = fock.apply_operator(op, F)
    want = m @ np.array([F.coeffs[i] for i in fock.basis_indices(d, N)])
    assert np.allclose([got.coeffs[i] for i in fock.basis_indices(d, N)],
                       want, rtol=0, atol=1e-13)


def test_operator_refuses_a_matrix_of_the_wrong_shape():
    with pytest.raises(DimensionMismatchError, match=r"\(15, 15\)"):
        fock.apply_operator(fock.FockOperator(2, 4, np.eye(3)),
                            fock.vacuum_tensor(2, 4))
    with pytest.raises(DimensionMismatchError):
        fock.FockOperator(2, 4, fock.create([0.3, 0.2], 3)._A)


_TABLE_SIZES = [(1, 0), (2, 7), (4, 3), (5, 6), (2, 94)]


@pytest.mark.parametrize("d, N", _TABLE_SIZES)
def test_raise_table_steps_up_one_degree(d, N):
    b = fock._basis(d, N)
    j, mu = np.nonzero(b.idx)
    assert np.array_equal(b.up[b.down[j, mu], mu], j)
    top = np.arange(b.size) >= b.start[N]
    assert np.array_equal(b.up == b.size,
                          np.broadcast_to(top[:, None], b.up.shape))
    below = np.arange(b.start[N])
    assert np.array_equal(b.idx[b.up[below]],
                          b.idx[below][:, None] + np.eye(d, dtype=int))


@pytest.mark.parametrize("d, N", _TABLE_SIZES)
def test_ladder_matrices_are_canonical_csr(d, N):
    h = _weyl_h(d, np.random.default_rng(d + N))
    for op in (fock.create(h, N), fock.annihilate(h, N), fock.weyl(h, N)):
        assert op._A.format == "csr"
        assert op._A.has_canonical_format


def test_weyl_builds_its_generator_without_the_ladder_operators(monkeypatch):
    def refuse(f, cutoff):
        raise AssertionError("weyl built a ladder operator")

    d, N = 2, 12
    h = np.array([0.3, 0.2j])
    monkeypatch.setattr(fock, "create", refuse)
    monkeypatch.setattr(fock, "annihilate", refuse)
    w = fock.weyl(h, N)
    out = fock.apply_operator(w, fock.vacuum_tensor(d, N))
    want = np.exp(-0.5 * np.vdot(h, h).real) * fock.exp_vector(h, N).vector
    low = len(fock.basis_indices(d, N // 3))
    assert np.max(np.abs(out.vector[:low] - want[:low])) <= 1e-12
    assert np.max(np.abs(w.matrix[:low, 0] - want[:low])) <= 1e-12


def test_dense_operators_refuse_sizes_beyond_the_guard():
    # (2, 94) has B = 4560 basis states, B^2 just above MAX_GRID_ENTRIES
    d, N = 2, 94
    assert len(fock.basis_indices(d, N)) ** 2 > fock.MAX_GRID_ENTRIES
    assert len(fock.basis_indices(d, N - 1)) ** 2 <= fock.MAX_GRID_ENTRIES
    h = np.array([0.3, 0.2j])
    for build in (lambda: fock.create(h, N).matrix,
                  lambda: fock.annihilate(h, N).matrix,
                  lambda: fock.weyl(h, N).matrix,
                  lambda: fock.gamma(np.eye(d), N)):
        with pytest.raises(GaussFockError):
            build()
    out = fock.apply_operator(fock.weyl(h, N), fock.vacuum_tensor(d, N))
    want = np.exp(-0.5 * np.vdot(h, h).real) * fock.exp_vector(h, N).coeffs
    low = tuple(np.array([m for m in fock.basis_indices(d, N)
                          if sum(m) <= N // 3]).T)
    assert np.max(np.abs(out.coeffs[low] - want[low])) <= 1e-12


def _low_degree_tensor(d, N, top, rng):
    grid = np.zeros((N + 1,) * d, dtype=complex)
    for m in fock.basis_indices(d, top):
        grid[m] = rng.normal() + 1j * rng.normal()
    return fock.make_tensor(d, N, grid)


def test_ladder_operators_act_beyond_the_dense_guard():
    # at (2, 94) a dense ladder matrix is refused; the sparse one acts
    d, N = 2, 94
    rng = np.random.default_rng(94)
    f, g = np.array([0.3, 0.2j]), np.array([0.25 - 0.1j, 0.4])
    below = len(fock.basis_indices(d, N - 1))
    got = fock.apply_operator(fock.annihilate(f, N), fock.exp_vector(g, N))
    want = np.dot(f, g) * fock.exp_vector(g, N).vector
    assert np.max(np.abs(got.vector[:below] - want[:below])) <= 1e-15
    for _ in range(3):
        F, G = (_low_degree_tensor(d, N, 6, rng) for _ in range(2))
        lhs = fock.inner(fock.apply_operator(fock.create(f, N), F), G)
        rhs = fock.inner(F, fock.apply_operator(
            fock.annihilate(involution(f), N), G))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


_IMPORT_PROBE = """
import sys
import gaussfock, gaussfock.cli
from gaussfock import circuits, fock
circuits.run(circuits.parse("S(0, 0.5, 0.0)\\nD(1, 0.3, 0.1)"), 2)
print("scipy.sparse.linalg" in sys.modules, "scipy.linalg" in sys.modules)
fock.apply_operator(fock.weyl([0.3], 8), fock.vacuum_tensor(1, 8))
print("scipy.sparse.linalg" in sys.modules)
"""


def test_sparse_scipy_loads_only_on_the_weyl_path():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussfock.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("d, N, h", [
    (1, 170, np.array([1.0])),
    (2, 94, 0.707 * np.exp(0.3j) * np.ones(2)),
])
def test_weyl_action_leaves_the_global_rng_alone(d, N, h):
    # the generator's 1-norm is above 63 here, where expm_multiply starts to
    # estimate norms with onenormest, which draws from np.random
    before = np.random.get_state()
    fock.apply_operator(fock.weyl(h, N), fock.vacuum_tensor(d, N))
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


@pytest.mark.parametrize("d", [4, 5])
def test_master_overlap_comparison_beyond_three_modes(d):
    # at d = 5 the cutoffs are 23 and 34; a (35,)^5 grid, 53M entries, is
    # beyond the size guard
    rng = np.random.default_rng(4541 + d)
    for _ in range(2):
        x, y = (states.random_state(d, rng, max_z=0.3, max_f=0.6)
                for _ in range(2))
        N = max(fock.cutoff_for(x, 1e-9), fock.cutoff_for(y, 1e-9))
        got = fock.inner(fock.represent_state(x, N),
                         fock.represent_state(y, N))
        want = states.overlap(x, y)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_grid_exchange_round_trip():
    rng = np.random.default_rng(12)
    d, N = 3, 8
    F = fock.represent_state(states.random_state(d, rng), N)
    grid = F.coeffs
    assert grid is F.coeffs
    assert np.array_equal([grid[m] for m in fock.basis_indices(d, N)],
                          F.vector)
    assert np.count_nonzero(grid) == np.count_nonzero(F.vector)
    assert np.array_equal(fock.FockTensor(d, N, grid).vector, F.vector)


def test_tensor_arrays_are_read_only():
    F = fock.exp_vector([0.3, 0.2j], 5)
    with pytest.raises(ValueError):
        F.coeffs[0, 0] = 2.0
    with pytest.raises(ValueError):
        F.vector[0] = 2.0


def test_grid_refused_where_the_flat_basis_works():
    d, N = 5, 40
    assert (N + 1) ** d > fock.MAX_GRID_ENTRIES
    vac = fock.vacuum_tensor(d, N)
    assert fock.inner(vac, vac) == 1.0
    with pytest.raises(GaussFockError):
        vac.coeffs


@pytest.mark.parametrize("d, N", [
    (9, 20),    # 90M basis-table entries
    (1, 200),   # beyond MAX_CUTOFF
    (63, 1),    # grid keys 2^63 overflow int64
])
def test_size_guard_bounds_the_flat_basis(d, N):
    with pytest.raises(GaussFockError):
        fock.vacuum_tensor(d, N)


def test_many_modes_at_a_low_cutoff():
    # 2^62 grid entries, but 63 basis states
    vac = fock.vacuum_tensor(62, 1)
    F = fock.exp_vector(np.full(62, 0.1), 1)
    assert len(F.vector) == 63
    assert fock.inner(vac, F) == 1.0
    assert fock.tensor_norm(F) ** 2 == pytest.approx(1.0 + 62 * 0.01)
