"""The oracle's amplitude recurrence against exact rationals, the
least-cutoff search against the tail bound it inverts, the row tables of
the ladder operators and of Gamma(B), the Weyl operator's action and matrix
(both by the Chebyshev propagator, the matrix against scipy's dense expm),
and the flat tensor layout with its grid exchange format."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest

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


def loop_gaussian(Z, f, c0, d, N):
    """The recurrence (m_mu + 1) c_{m + e_mu} = f_mu c_m
    + sum_nu Z_{mu nu} c_{m - e_nu}, one Python complex at a time, stepping
    to each m along its first occupied axis."""
    basis = loop_basis(d, N)
    pos = {m: i for i, m in enumerate(basis)}
    c = [0j] * len(basis)
    c[0] = c0
    for i, m in enumerate(basis[1:], 1):
        mu = next(a for a in range(d) if m[a])
        p = m[:mu] + (m[mu] - 1,) + m[mu + 1:]
        acc = f[mu] * c[pos[p]]
        for nu in range(d):
            if p[nu]:
                acc += Z[mu][nu] * c[pos[p[:nu] + (p[nu] - 1,) + p[nu + 1:]]]
        c[i] = acc / m[mu]
    return np.array(c)


@pytest.mark.parametrize("d, N", [(1, 0), (1, 1), (2, 7), (3, 5), (4, 3),
                                  (5, 6), (2, 94)])
def test_recurrence_matches_loop_reference(d, N):
    rng = np.random.default_rng(7 * d + N)
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Z = 0.5 * (G + G.T) / np.linalg.norm(G + G.T, 2)
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    log_amp = 0.3 - 0.7j
    got = fock.represent_state(states.make_state(Z, f, log_amp), N).vector
    want = loop_gaussian(Z.tolist(), f.tolist(), np.exp(log_amp), d, N)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("d, N", [(1, 0), (2, 7), (4, 3)])
def test_basis_tables_are_read_only(d, N):
    b = fock._basis(d, N)
    tables = [b.idx, b.key, b.down, b.up, b.start, b.axis, b.parent,
              b.weight, b.order, b.strides]
    assert len(b.steps) == N
    for rows, mu, src, inv in b.steps:
        assert src.shape == (rows.stop - rows.start, d + 1)
        assert src.dtype == np.intp
        tables += [mu, src, inv]
    for t in tables:
        with pytest.raises(ValueError):
            t.flat[0] = t.flat[0]


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
    # .matrix is the propagator on the identity; against scipy's dense expm,
    # in the orthonormal frame where W(h) is unitary, the two differ by at
    # most 1.5e-15 at these sizes
    import scipy.linalg
    rng = np.random.default_rng(17 + d)
    s = np.sqrt(fock._basis(d, N).weight)
    for h in (_weyl_h(d, rng), np.array([0.0, 0.4, -0.2j][:d]), np.zeros(d)):
        dense = (fock.create(h, N).matrix
                 - fock.annihilate(involution(h), N).matrix)
        w = fock.weyl(h, N)
        assert np.array_equal(w._A.toarray(), dense)
        diff = s[:, None] * (w.matrix - scipy.linalg.expm(dense)) / s
        assert np.max(np.abs(diff)) <= 1e-14


@pytest.mark.parametrize("d, N", [(1, 70), (2, 26), (3, 11), (1, 50), (1, 60),
                                  (2, 22), (2, 24), (3, 9), (3, 10)])
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


def _check_csr_column_order(table, size):
    # within a row the entries on the basis come in rising column order, as
    # in a CSR row; those off it point at the pad column size and hold 0.0
    assert table.shape == (size, size) and table.cols.dtype == np.intp
    on = table.cols < size
    assert np.all(table.cols[~on] == size)
    assert not table.vals[~on].view(np.uint8).any()
    seen = np.maximum.accumulate(np.where(on, table.cols, -1), axis=1)
    later = on[:, 1:]
    assert np.all(table.cols[:, 1:][later] > seen[:, :-1][later])
    with pytest.raises(ValueError):
        table.cols.flat[0] = table.cols.flat[0]


@pytest.mark.parametrize("d, N", _TABLE_SIZES)
def test_ladder_row_tables_keep_the_csr_column_order(d, N):
    h = _weyl_h(d, np.random.default_rng(d + N))
    size = len(fock.basis_indices(d, N))
    for op in (fock.create(h, N), fock.annihilate(h, N), fock.weyl(h, N)):
        _check_csr_column_order(op._A, size)


@pytest.mark.parametrize("d, N", _TABLE_SIZES)
def test_gamma_row_table_keeps_the_csr_column_order(d, N):
    # Gamma(B) keeps the total degree: a row's columns are its degree block,
    # as wide as the top degree's, and its matrix is block diagonal
    rng = np.random.default_rng(d + N)
    B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = fock._basis(d, N)
    table = fock.gamma(B, N)._A
    _check_csr_column_order(table, b.size)
    degree = b.idx.sum(axis=1)
    assert table.cols.shape == (b.size, math.comb(N + d - 1, d - 1))
    on = table.cols < b.size
    assert np.array_equal(on.sum(axis=1), np.diff(b.start)[degree])
    rows = np.broadcast_to(degree[:, None], on.shape)
    assert np.array_equal(degree[table.cols[on]], rows[on])


_OPERATOR_SIZES = [(1, 50), (1, 60), (1, 70), (2, 22), (2, 24), (2, 26),
                   (3, 9), (3, 10), (3, 11)]


@pytest.mark.parametrize("d, N", _OPERATOR_SIZES)
def test_ladder_products_match_csr_bytes(d, N):
    # a row table sums each row in the order of scipy's CSR matvec, so the
    # actions keep their bytes
    from scipy.sparse import csr_array
    rng = np.random.default_rng(41 + 100 * d + N)
    h = _weyl_h(d, rng)
    size = len(fock.basis_indices(d, N))
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    for table in (fock.create(h, N)._A, fock.annihilate(h, N)._A,
                  fock.weyl(h, N)._A):
        want = csr_array(table.toarray()) @ v
        assert (table @ v).tobytes() == want.tobytes()


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
                  lambda: fock.gamma(np.eye(d), N).matrix):
        with pytest.raises(GaussFockError):
            build()
    # Gamma(K)'s row table holds B (N + 1) entries, so it builds and acts
    K = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))[0]
    f = np.array([0.4, -0.3j])
    got = fock.apply_operator(fock.gamma(K, N), fock.exp_vector(f, N))
    want = fock.exp_vector(K @ f, N).vector
    low = len(fock.basis_indices(d, N // 3))
    assert np.max(np.abs(got.vector[:low] - want[:low])) <= 1e-15
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
    # at (2, 94) a dense ladder matrix is refused; its row table acts
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
def loaded():
    print(any(name.split(".")[0] == "scipy" for name in sys.modules))
circuits.run(circuits.parse("S(0, 0.5, 0.0)\\nD(1, 0.3, 0.1)"), 2)
loaded()
w = fock.weyl([0.3], 8)
fock.apply_operator(w, fock.vacuum_tensor(1, 8))
fock.create([0.3], 8).matrix
fock.apply_operator(fock.gamma([[0.6]], 8), fock.vacuum_tensor(1, 8))
loaded()
w.matrix
fock.gamma([[0.6]], 8).matrix
loaded()
"""


def test_no_scipy_module_loads():
    # the ladder, Weyl and Gamma operators are row tables, the Weyl action
    # and matrix a Chebyshev series of their matvecs: no scipy module loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussfock.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * 3


@pytest.mark.parametrize("d, N, h", [
    (1, 170, np.array([1.0])),
    (2, 94, 0.707 * np.exp(0.3j) * np.ones(2)),
])
def test_weyl_action_leaves_the_global_rng_alone(d, N, h):
    # the largest generators the oracle builds: the propagator takes no
    # norm estimate, so nothing draws from np.random however large it is
    before = np.random.get_state()
    fock.apply_operator(fock.weyl(h, N), fock.vacuum_tensor(d, N))
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def _tail(rho, K):
    """2 sum_{j>K} (rho/2)^j / j! in units of 2^-53, by lgamma and fsum."""
    x = rho / 2
    return 2 * math.fsum(
        math.exp(j * math.log(x) - math.lgamma(j + 1) + 53 * math.log(2))
        for j in range(K + 1, K + 400 + int(4 * x)))


@pytest.mark.parametrize("rho", [1e-10, 0.5, 1.0, 8.5, 10.4, 19.4, 26.1,
                                 100.0, 3464.1, fock.MAX_WEYL_RHO])
def test_term_count_is_the_least_meeting_the_tail_bound(rho):
    K = len(fock._bessel(rho)) - 1
    assert K == fock._terms(rho, 2.0 ** -53)
    assert _tail(rho, K) <= 1.0
    assert K == 0 or _tail(rho, K - 1) > 1.0


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0])
def test_bessel_values_match_scipy(rho):
    # beyond about rho = 40, scipy's jv strays from 30-digit values by more
    # than 1e-15 (1.4e-15 at 60, 2.7e-14 at 3464); the test below takes over
    import scipy.special
    J = fock._bessel(rho)
    want = scipy.special.jv(np.arange(J.size), rho)
    assert np.max(np.abs(J - want)) <= 1e-15


@pytest.mark.parametrize("rho", [0.5, 10.0, 60.0, 300.0, fock.MAX_WEYL_RHO])
def test_bessel_values_match_multiprecision(rho):
    mpmath = pytest.importorskip("mpmath")
    J = fock._bessel(rho)
    orders = np.unique(np.linspace(0, J.size - 1, 6).astype(int))
    with mpmath.workdps(20):
        want = [float(mpmath.besselj(int(k), rho, maxprec=20000))
                for k in orders]
    assert np.max(np.abs(J[orders] - want)) <= 1e-15


@pytest.mark.parametrize("d, N", [(1, 70), (2, 26), (3, 11)])
def test_scaled_generator_is_skew_hermitian_within_rho(d, N):
    # S G S^-1 with S = diag(sqrt(m!)): the frame in which the propagator's
    # series converges, with norm at most rho = 2 |h| sqrt(N)
    h = _weyl_h(d, np.random.default_rng(5 + d))
    s = np.sqrt(fock._basis(d, N).weight)
    H = s[:, None] * fock.weyl(h, N)._A.toarray() / s
    assert np.max(np.abs(H + H.conj().T)) <= 1e-15 * np.max(np.abs(H))
    assert np.linalg.norm(H, 2) <= 2 * np.linalg.norm(h) * np.sqrt(N)


@pytest.mark.parametrize("h, N", [([0.0], 9), ([0.0, 0.0, 0.0], 5),
                                  ([1e200], 0)])
def test_weyl_action_at_rho_zero_returns_its_input(h, N):
    # rho = 0 for h = 0, and at cutoff 0, where G = 0 whatever h is
    d = len(h)
    F = fock.represent_state(states.coherent(_weyl_h(d, np.random.default_rng(
        d))), N)
    out = fock.apply_operator(fock.weyl(h, N), F)
    assert np.array_equal(out.vector, F.vector)


def test_weyl_action_below_the_cap_returns():
    # rho = 3464 at h = 1e3 and cutoff 3: about 4700 terms
    out = fock.apply_operator(fock.weyl([1e3], 3), fock.vacuum_tensor(1, 3))
    assert np.all(np.isfinite(out.vector))


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
