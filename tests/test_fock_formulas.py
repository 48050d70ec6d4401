"""The oracle's amplitude recurrence against exact rationals, and the
least-cutoff search against the tail bound it inverts."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest

from gaussfock import fock, states
from gaussfock.errors import GaussFockError


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
    with pytest.raises(GaussFockError):
        fock.cutoff_for(x, 1e-12)
    with pytest.raises(GaussFockError):
        fock.cutoff_for(states.vacuum(1), 0.0)
