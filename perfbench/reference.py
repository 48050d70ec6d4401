"""Closed forms written apart from gaussfock, for checking its outputs.

Nothing here imports the package. States are plain triples (Z, f, log_amp)
and group elements plain pairs (U, V). Where the package evaluates a formula
in one algebraic form, these use another: the overlap kernel runs on a single
factorisation of I - A+B, and the Moebius map uses the left-hand quotient.
Half-integer determinant powers follow the branch rule the package documents
(principal logarithms of the eigenvalues), which is the only choice under
which the ray-composition identity closes with the package's multiplier.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

import numpy as np


def adj(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def eig_logdet(M: np.ndarray) -> complex:
    return complex(np.sum(np.log(np.linalg.eigvals(M))))


def log_overlap(x, y) -> complex:
    """log (x|y) for states x, y given as (Z, f, log_amp) triples."""
    A, f, la = x
    B, g, lb = y
    eye = np.eye(A.shape[0])
    M = eye - adj(A) @ B
    Minv = np.linalg.inv(M)
    fs = f.conj()
    C = B @ Minv                         # B (I - A+B)^-1
    D = Minv @ adj(A)                    # (I - A+B)^-1 A+ = A+ (I - BA+)^-1
    cross = eye + B @ D                  # (I - BA+)^-1
    return complex(np.conj(la) + lb - 0.5 * eig_logdet(M)
                   + 0.5 * fs @ (C @ fs) + fs @ (cross @ g)
                   + 0.5 * g @ (D @ g))


def norm(x) -> float:
    return float(np.exp(0.5 * log_overlap(x, x).real))


def compose(r2, r1):
    """(U2 U1 + V2 V1~, U2 V1 + V2 U1~): r1 acts first."""
    U2, V2 = r2
    U1, V1 = r1
    return U2 @ U1 + V2 @ V1.conj(), U2 @ V1 + V2 @ U1.conj()


def moebius(r, Z: np.ndarray) -> np.ndarray:
    """(U Z + V)(U~ + V~ Z)^-1."""
    U, V = r
    return np.linalg.solve((U.conj() + V.conj() @ Z).T, (U @ Z + V).T).T


def act(r, x):
    """T(r) on the state x = (Z, f, log_amp)."""
    U, V = r
    Z, f, la = x
    d = Z.shape[0]
    M = adj(U) + Z @ adj(V)
    vec = np.linalg.solve(M, f)
    vu = adj(np.linalg.solve(U, V))                        # V+ U+^-1
    log_det_abs_u = 0.5 * np.sum(np.log(np.linalg.eigvalsh(
        np.eye(d) + V @ adj(V))))
    new_la = (la - 0.5 * log_det_abs_u
              - 0.5 * eig_logdet(np.eye(d) + Z @ vu)
              - 0.5 * f @ (adj(V) @ vec))
    return moebius(r, Z), vec, complex(new_la)


def state_residual(x, y) -> float:
    """max of ||Z - Z'||, ||f - f'|| and the relative amplitude gap."""
    ax, ay = np.exp(x[2]), np.exp(y[2])
    return float(max(np.linalg.norm(x[0] - y[0]),
                     np.linalg.norm(x[1] - y[1]),
                     abs(ax - ay) / max(abs(ax), abs(ay), 1e-300)))


def basis(dim: int, cutoff: int) -> list[tuple[int, ...]]:
    """Occupation multi-indices by total degree, lexicographic within one."""
    out = []
    for n in range(cutoff + 1):
        level = set()
        for combo in combinations_with_replacement(range(dim), n):
            m = [0] * dim
            for mu in combo:
                m[mu] += 1
            level.add(tuple(m))
        out.extend(sorted(level))
    return out


def exp_coefficients(h: np.ndarray, indices) -> np.ndarray:
    """Coefficients prod_mu h_mu^m_mu / m_mu! of exp h on E_m."""
    return np.array([np.prod([h[mu] ** k / factorial(k)
                              for mu, k in enumerate(m)]) for m in indices],
                    dtype=complex)


def fock_weights(indices) -> np.ndarray:
    """||E_m||^2 = prod_mu m_mu!."""
    return np.array([float(np.prod([factorial(k) for k in m]))
                     for m in indices])


def unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_element(d: int, rng: np.random.Generator, max_squeeze: float):
    """(K1, 0) o (cosh A, sinh A) o (K2, 0), A diagonal in [0, max_squeeze]."""
    K1, K2 = unitary(d, rng), unitary(d, rng)
    lam = rng.uniform(0.0, max_squeeze, size=d)
    return K1 @ (np.cosh(lam)[:, None] * K2), \
        K1 @ (np.sinh(lam)[:, None] * K2.conj())


def symmetric_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex symmetric matrix of operator norm 1."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Z = (G + G.T) / 2.0
    return Z / np.linalg.norm(Z, 2)


def unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)
