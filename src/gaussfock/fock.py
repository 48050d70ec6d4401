"""Truncated Fock space oracle: brute-force symmetric tensor algebra.

Everything here is computed from first principles on a truncated
occupation-number basis, independently of the closed-form layer, so the two
can cross-check each other. A FockTensor stores the coefficients c_m of
sum_m c_m E_m where E_m = e_1^{m_1} v ... v e_d^{m_d} and
||E_m||^2 = m! = prod(m_mu!); the grid has shape (cutoff+1,)^dim and entries
of total degree beyond the cutoff are identically zero. A FockOperator acts
on the flat basis of basis_indices, ordered by degree: it is a dense matrix,
or, for the displacement W(h) of weyl, the exponential of a sparse ladder
generator, applied to vectors with expm_multiply (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 2011) and made dense only when its matrix is read.

The coefficients of exp(Omega(A)) v exp(f) obey the recurrence
(m_mu + 1) c_{m + e_mu} = f_mu c_m + sum_nu A_{mu nu} c_{m - e_nu}
(Miatto & Quesada, Quantum 4, 366 (2020)), run degree by degree on the flat
basis and scattered into the grid once; Gamma(B) builds each column from the
column of its parent m - e_mu the same way. General products are exact
convolutions, a shift-add over the nonzeros of the sparser factor: FFT noise
of ~1e-16 in high-degree entries, under m! weights up to ~1e150, would swamp
the inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    GaussFockError,
    InvalidAlphaError,
    NotInDiscError,
    NotSymmetricError,
)
from .linalg import as_matrix, as_vector, hs_norm, involution, operator_norm
from .states import UltracoherentState

__all__ = [
    "FockTensor",
    "FockOperator",
    "make_tensor",
    "vacuum_tensor",
    "basis_indices",
    "symmetric_product",
    "inner",
    "tensor_norm",
    "degree_norms",
    "tensor_residual",
    "exp_vector",
    "omega_tensor",
    "exp_omega",
    "represent_state",
    "create",
    "annihilate",
    "gamma",
    "weyl",
    "apply_operator",
    "alpha_norm",
    "tail_bound",
    "cutoff_for",
]

MAX_GRID_ENTRIES = 20_000_000
MAX_CUTOFF = 170          # 171! overflows float64 basis weights


@dataclass(frozen=True, eq=False)
class FockTensor:
    """Coefficients of a truncated symmetric-Fock vector on the dense grid."""

    dim: int
    cutoff: int
    coeffs: np.ndarray


class FockOperator:
    """Operator in the ordered occupation basis of basis_indices.

    FockOperator(dim, cutoff, matrix) holds a dense matrix. weyl builds one
    that holds a sparse generator G instead: apply_operator computes exp(G) v
    from G, and .matrix is expm of the densified G, computed on first read
    and kept.
    """

    def __init__(self, dim: int, cutoff: int, matrix: np.ndarray):
        self.dim = dim
        self.cutoff = cutoff
        self._matrix = matrix
        self._generator = None

    @classmethod
    def _exponential(cls, dim: int, cutoff: int, generator) -> FockOperator:
        op = cls(dim, cutoff, None)
        op._generator = generator
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            _check_dense(self._generator.shape[0])
            self._matrix = scipy.linalg.expm(self._generator.toarray())
        return self._matrix


def _check_size(dim: int, cutoff: int) -> None:
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if cutoff < 0:
        raise GaussFockError("cutoff must be nonnegative")
    if cutoff > MAX_CUTOFF:
        raise GaussFockError(
            f"cutoff {cutoff} exceeds {MAX_CUTOFF}, the largest degree whose "
            "factorial weight fits in float64")
    if (cutoff + 1) ** dim > MAX_GRID_ENTRIES:
        raise GaussFockError(
            f"grid of shape ({cutoff + 1},)^{dim} exceeds the size guard")


def _check_dense(size: int) -> None:
    if size * size > MAX_GRID_ENTRIES:
        raise GaussFockError(
            f"dense operator of shape ({size}, {size}) exceeds the size guard")


@lru_cache(maxsize=32)
def _degree_grid(dim: int, cutoff: int) -> np.ndarray:
    deg = np.indices((cutoff + 1,) * dim).sum(axis=0)
    deg.flags.writeable = False
    return deg


@lru_cache(maxsize=32)
def _weight_grid(dim: int, cutoff: int) -> np.ndarray:
    """prod(m_mu!) on the grid, as float64 (exact to ~1e-14 up to 170!).

    Grid corners beyond the total-degree cutoff would overflow float64 at
    large cutoffs; they carry zero coefficients by invariant, so their
    weights are set to zero instead.
    """
    fac = np.cumprod(np.concatenate([[1.0], np.arange(1.0, cutoff + 1)]))
    W = fac
    with np.errstate(over="ignore"):
        for _ in range(dim - 1):
            W = np.multiply.outer(W, fac)
    W = np.ascontiguousarray(W)
    W[_degree_grid(dim, cutoff) > cutoff] = 0.0
    W.flags.writeable = False
    return W


@dataclass(frozen=True, eq=False)
class _Basis:
    """The flat basis with its lowering table.

    idx[i] is the i-th multi-index, ordered by (total degree, lexicographic),
    key[i] its position in the flattened grid, and positions
    start[n]:start[n+1] hold degree n. down[i, mu] is the position of
    idx[i] - e_mu, or size when idx[i, mu] = 0; callers pad their arrays with
    a zero there. parent[i] = down[i, axis[i]] for the first axis with
    idx[i, axis] > 0: the edge along which the recurrences build entry i.
    """

    idx: np.ndarray
    key: np.ndarray
    down: np.ndarray
    start: np.ndarray
    axis: np.ndarray
    parent: np.ndarray
    size: int


@lru_cache(maxsize=32)
def _basis(dim: int, cutoff: int) -> _Basis:
    _check_size(dim, cutoff)
    # grid keys in base cutoff+1 sort like the multi-indices they encode
    strides = (cutoff + 1) ** np.arange(dim - 1, -1, -1)
    levels = [np.zeros(1, dtype=np.int64)]
    raises = []
    for _ in range(cutoff):
        kids = (levels[-1][:, None] + strides).ravel()
        level, inverse = np.unique(kids, return_inverse=True)
        levels.append(level)
        raises.append(inverse.reshape(-1, dim))
    start = np.cumsum([0] + [len(level) for level in levels])
    key = np.concatenate(levels).astype(np.int32)
    idx = np.stack(np.unravel_index(key, (cutoff + 1,) * dim), axis=1,
                   dtype=np.int32)
    size = len(key)
    down = np.full((size, dim), size, dtype=np.int32)
    for n, inverse in enumerate(raises):
        down[inverse + start[n + 1], np.arange(dim)] = np.arange(
            start[n], start[n + 1])[:, None]
    axis = np.argmax(idx > 0, axis=1)
    parent = down[np.arange(size), axis]
    for arr in (idx, key, down, start, axis, parent):
        arr.flags.writeable = False
    return _Basis(idx, key, down, start, axis, parent, size)


@lru_cache(maxsize=32)
def basis_indices(dim: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """Occupation multi-indices ordered by (total degree, lexicographic)."""
    return tuple(map(tuple, _basis(dim, cutoff).idx.tolist()))


def make_tensor(dim: int, cutoff: int, coeffs) -> FockTensor:
    """Validate shape and the vanishing of entries beyond the cutoff."""
    _check_size(dim, cutoff)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (cutoff + 1,) * dim:
        raise DimensionMismatchError(
            f"expected coefficient grid of shape {(cutoff + 1,) * dim}, "
            f"got {coeffs.shape}")
    bad = coeffs[_degree_grid(dim, cutoff) > cutoff]
    if bad.size and np.max(np.abs(bad)) > 0.0:
        raise GaussFockError(
            "coefficients with total degree beyond the cutoff must vanish")
    coeffs = coeffs.copy()
    coeffs.flags.writeable = False
    return FockTensor(dim, cutoff, coeffs)


def vacuum_tensor(dim: int, cutoff: int) -> FockTensor:
    _check_size(dim, cutoff)
    c = np.zeros((cutoff + 1,) * dim, dtype=complex)
    c[(0,) * dim] = 1.0
    return FockTensor(dim, cutoff, c)


def _common(F: FockTensor, G: FockTensor) -> tuple[int, int]:
    if F.dim != G.dim or F.cutoff != G.cutoff:
        raise DimensionMismatchError(
            "tensors must share dimension and cutoff")
    return F.dim, F.cutoff


def _shift_add(A: np.ndarray, B: np.ndarray, cutoff: int,
               deg: np.ndarray) -> np.ndarray:
    out = np.zeros_like(B)
    for m in np.argwhere(A):
        c = A[tuple(m)]
        src = tuple(slice(0, cutoff + 1 - k) for k in m)
        dst = tuple(slice(k, cutoff + 1) for k in m)
        out[dst] += c * B[src]
    out[deg > cutoff] = 0.0
    return out


def symmetric_product(F: FockTensor, G: FockTensor) -> FockTensor:
    """F v G: plain coefficient convolution truncated at the cutoff.

    E_m v E_n = E_{m+n}, so the product of coefficient arrays is their
    discrete convolution, summed exactly as a shift-add over the nonzeros of
    the sparser factor.
    """
    d, N = _common(F, G)
    A, B = F.coeffs, G.coeffs
    if np.count_nonzero(A) > np.count_nonzero(B):
        A, B = B, A
    return FockTensor(d, N, _shift_add(A, B, N, _degree_grid(d, N)))


def inner(F: FockTensor, G: FockTensor) -> complex:
    """(F|G) = sum_m m! conj(c_m) d_m, conjugate-linear in F."""
    d, N = _common(F, G)
    W = _weight_grid(d, N)
    return complex(np.sum(W * np.conj(F.coeffs) * G.coeffs))


def tensor_norm(F: FockTensor) -> float:
    W = _weight_grid(F.dim, F.cutoff)
    return float(np.sqrt(np.sum(W * np.abs(F.coeffs) ** 2)))


def degree_norms(F: FockTensor) -> np.ndarray:
    """Fock norms of the homogeneous components, indexed by degree."""
    deg = _degree_grid(F.dim, F.cutoff)
    W = _weight_grid(F.dim, F.cutoff)
    mass = W * np.abs(F.coeffs) ** 2
    # grid corners reach degree dim*cutoff; those entries are zero by invariant
    out = np.zeros(F.dim * F.cutoff + 1)
    np.add.at(out, deg.ravel(), mass.ravel())
    return np.sqrt(out[:F.cutoff + 1])


def tensor_residual(F: FockTensor, G: FockTensor) -> float:
    """Fock norm of the difference."""
    d, N = _common(F, G)
    W = _weight_grid(d, N)
    return float(np.sqrt(np.sum(W * np.abs(F.coeffs - G.coeffs) ** 2)))


def exp_vector(f, cutoff: int) -> FockTensor:
    """exp f = sum_n f^{vn}/n!, coefficients prod f_mu^{m_mu}/m_mu!."""
    f = as_vector(f)
    d = f.shape[0]
    _check_size(d, cutoff)
    pows = np.arange(cutoff + 1)
    fac = np.cumprod(np.concatenate([[1.0], np.arange(1.0, cutoff + 1)]))
    out = None
    for z in f:
        line = np.power(z, pows) / fac
        out = line if out is None else np.multiply.outer(out, line)
    out = np.asarray(out, dtype=complex)
    deg = _degree_grid(d, cutoff)
    out[deg > cutoff] = 0.0
    return FockTensor(d, cutoff, out)


def _check_symmetric(A: np.ndarray) -> None:
    if hs_norm(A - A.T) > 1e-10 * (1.0 + operator_norm(A)):
        raise NotSymmetricError("quadratic tensor parameter must be symmetric")


def omega_tensor(A, cutoff: int) -> FockTensor:
    """Omega(A) = 1/2 sum_{mu,nu} A_{mu,nu} e_mu v e_nu for symmetric A."""
    A = as_matrix(A)
    d = A.shape[0]
    _check_size(d, cutoff)
    _check_symmetric(A)
    out = np.zeros((cutoff + 1,) * d, dtype=complex)
    if cutoff >= 2:
        for mu in range(d):
            for nu in range(mu, d):
                m = [0] * d
                m[mu] += 1
                m[nu] += 1
                out[tuple(m)] = A[mu, nu] if mu != nu else 0.5 * A[mu, mu]
    return FockTensor(d, cutoff, out)


def _gaussian(A: np.ndarray, f: np.ndarray, c0: complex,
              cutoff: int) -> FockTensor:
    """c0 (exp Omega(A) v exp f) truncated at the cutoff, by the recurrence
    (m_mu + 1) c_{m + e_mu} = f_mu c_m + sum_nu A_{mu nu} c_{m - e_nu}."""
    d = A.shape[0]
    b = _basis(d, cutoff)
    c = np.zeros(b.size + 1, dtype=complex)    # c[b.size] = 0 is the pad
    c[0] = c0
    for n in range(1, cutoff + 1):
        rows = np.arange(b.start[n], b.start[n + 1])
        mu, p = b.axis[rows], b.parent[rows]
        c[rows] = ((f[mu] * c[p] + np.sum(A[mu] * c[b.down[p]], axis=1))
                   / b.idx[rows, mu])
    return _unflatten(d, cutoff, c[:-1])


def exp_omega(A, cutoff: int) -> FockTensor:
    """exp Omega(A) = sum_{n <= cutoff/2} Omega(A)^{vn} / n!.

    Requires ||A|| < 1 so the series has summable Fock norm.
    """
    A = as_matrix(A)
    nA = operator_norm(A)
    if nA >= 1.0:
        raise NotInDiscError(
            f"exp Omega requires operator norm below 1, got {nA:.6f}", nA)
    _check_symmetric(A)
    return _gaussian(A, np.zeros(A.shape[0], dtype=complex), 1.0, cutoff)


def represent_state(x: UltracoherentState, cutoff: int) -> FockTensor:
    """Truncated coefficients of exp(log_amp) (exp Omega(Z) v exp f)."""
    return _gaussian(x.Z.Z, x.f, np.exp(x.log_amp), cutoff)


def _flatten(F: FockTensor) -> np.ndarray:
    return F.coeffs.reshape(-1)[_basis(F.dim, F.cutoff).key]


def _unflatten(dim: int, cutoff: int, vec: np.ndarray) -> FockTensor:
    c = np.zeros((cutoff + 1) ** dim, dtype=complex)
    c[_basis(dim, cutoff).key] = vec
    return FockTensor(dim, cutoff, c.reshape((cutoff + 1,) * dim))


def apply_operator(op: FockOperator, F: FockTensor) -> FockTensor:
    if op.dim != F.dim or op.cutoff != F.cutoff:
        raise DimensionMismatchError(
            "operator and tensor must share dimension and cutoff")
    if op._generator is None:
        return _unflatten(F.dim, F.cutoff, op.matrix @ _flatten(F))
    # imported here, like scipy.sparse in weyl: see the note there
    from scipy.sparse.linalg import expm_multiply
    return _unflatten(F.dim, F.cutoff,
                      expm_multiply(op._generator, _flatten(F)))


def _operator_basis(dim: int, cutoff: int) -> _Basis:
    """The flat basis, once a dense matrix on it is known to fit the guard."""
    b = _basis(dim, cutoff)
    _check_dense(b.size)
    return b


def _lowering(b: _Basis, vals) -> np.ndarray:
    """Matrix with vals[j, mu] (broadcast) at (down[j, mu], j), for the
    entries where idx[j, mu] > 0."""
    M = np.zeros((b.size + 1, b.size), dtype=complex)
    M[b.down, np.arange(b.size)[:, None]] = vals
    return M[:-1]


def create(f, cutoff: int) -> FockOperator:
    """Creation operator a+(f): E_m -> sum_mu f_mu E_{m + e_mu}."""
    f = as_vector(f)
    b = _operator_basis(f.shape[0], cutoff)
    return FockOperator(f.shape[0], cutoff, _lowering(b, f).T)


def annihilate(f, cutoff: int) -> FockOperator:
    """Annihilation a(f): E_m -> sum_mu f_mu m_mu E_{m - e_mu}.

    Linear (not conjugate-linear) in f; the adjoint of create(f) is
    annihilate(f*).
    """
    f = as_vector(f)
    b = _operator_basis(f.shape[0], cutoff)
    return FockOperator(f.shape[0], cutoff, _lowering(b, f * b.idx))


def gamma(B, cutoff: int) -> FockOperator:
    """Second quantization: Gamma(B) E_m = prod_mu (B e_mu)^{v m_mu}.

    Degree by degree, the column of m = p + e_mu is (B e_mu) v (column of
    p); its entry r gathers sum_nu B[nu, mu] (column of p)[r - e_nu].
    """
    B = as_matrix(B)
    d = B.shape[0]
    b = _operator_basis(d, cutoff)
    M = np.zeros((b.size + 1, b.size), dtype=complex)   # last row: the pad
    M[0, 0] = 1.0
    for n in range(1, cutoff + 1):
        rows = np.arange(b.start[n], b.start[n + 1])
        mu, p = b.axis[rows], b.parent[rows]
        M[rows[:, None], rows] = sum(
            B[nu, mu] * M[b.down[rows, nu][:, None], p] for nu in range(d))
    return FockOperator(d, cutoff, M[:-1])


def weyl(h, cutoff: int) -> FockOperator:
    """Displacement W(h) = exp(G) with G = a+(h) - a(h*) truncated.

    G is sparse, with at most 2 dim entries per column: h_mu at
    (j, down[j, mu]) and -h*_mu m_mu at (down[j, mu], j); made dense, it
    equals create(h).matrix - annihilate(h*).matrix. apply_operator computes
    W(h) v from G with expm_multiply; .matrix, built on first read, is
    scipy.linalg.expm of the dense G.
    """
    # scipy.sparse and scipy.sparse.linalg are imported on the Weyl path
    # only: imported at module level they raised the peak memory of a
    # process that runs only circuits (the circuits-d4 benchmark workload)
    # from 63.0 to 66.7 MB, median of 3 runs on 2 cores
    import scipy.sparse

    h = as_vector(h)
    d = h.shape[0]
    b = _basis(d, cutoff)
    j, mu = np.nonzero(b.idx)
    low = b.down[j, mu]
    vals = (h[mu], -involution(h)[mu] * b.idx[j, mu])
    gen = scipy.sparse.csr_array(
        (np.concatenate(vals),
         (np.concatenate([j, low]), np.concatenate([low, j]))),
        shape=(b.size, b.size))
    return FockOperator._exponential(d, cutoff, gen)


def alpha_norm(F: FockTensor, alpha: float) -> float:
    """Weighted norm sqrt(sum_n alpha^{-2n} ||F_n||^2)."""
    if not (alpha > 0):
        raise InvalidAlphaError("alpha must be strictly positive")
    dn = degree_norms(F)
    scale = np.power(float(alpha), -np.arange(F.cutoff + 1))
    return float(np.linalg.norm(scale * dn))


def _bound_profile(x: UltracoherentState) -> tuple[np.ndarray, np.ndarray]:
    """log g and log(amp C(g)) over the admissible grid of g, where
    C(g) = (1 - g^2)^{-1/2} ||Phi(Z/g^2, f/g)||.

    The norm is evaluated for the whole grid at once from one SVD
    Z = U diag(s) W^+: with a = U^+ f, w = ((a s) W^T U) a and t = s/g^2,
    log ||Phi(Z/g^2, f/g)||^2 = sum_j -log(1 - t_j^2)/2
    + (|a_j|^2 / g^2 + Re w_j / g^4) / (1 - t_j^2). It is kept local so the
    oracle stays independent of the closed-form layer; an error here would
    shrink or inflate cutoffs and make comparisons fail loudly, never agree
    silently. The vacuum has no tail, so its profile is -inf.
    """
    Z, f = x.Z.Z, x.f
    U, s, Wh = np.linalg.svd(Z)
    lo = np.sqrt(s[0]) + 1e-4 if s[0] > 0 else 1e-4
    g = np.linspace(lo, 1.0 - 1e-4, 96)
    g = g[(g * g > s[0]) & (g < 1.0)]
    if not g.size:
        raise NotInDiscError(
            f"no valid scaling parameter for ||Z|| = {s[0]:.6f}", s[0])
    if not np.any(Z) and not np.any(f):
        return np.log(g), np.full(g.shape, -np.inf)
    a = np.conj(U).T @ f
    w = ((a * s) @ (np.conj(Wh) @ U)) * a
    k = 1.0 / (g * g)[:, None]
    q = 1.0 - (s * k) ** 2
    log_norm_sq = np.sum(
        -0.5 * np.log(q) + (np.abs(a) ** 2 * k + (w * k * k).real) / q, axis=1)
    return np.log(g), (x.log_amp.real - 0.5 * np.log1p(-g * g)
                       + 0.5 * log_norm_sq)


def tail_bound(x: UltracoherentState, cutoff: int) -> float:
    """Upper bound on the Fock norm of the degrees dropped beyond the cutoff.

    Uses the scaling identity that the degree-n component of Phi(Z, f) times
    g^{-n} is the degree-n component of Phi(Z/g^2, f/g), so the dropped mass
    is at most the geometric tail g^{cutoff+1} (1-g^2)^{-1/2} ||Phi(Z/g^2, f/g)||
    for any g in (sqrt||Z||, 1); the bound is minimized over a grid of g.
    Zero for the vacuum.
    """
    log_g, log_c = _bound_profile(x)
    best = float(np.min((cutoff + 1) * log_g + log_c))
    if best > np.log(np.finfo(float).max):
        raise GaussFockError(f"tail bound exp({best:.1f}) overflows float64")
    return math.exp(best)


def cutoff_for(x: UltracoherentState, budget: float) -> int:
    """Least cutoff N with tail_bound(x, N) <= budget.

    Since the bound is min_g g^{N+1} C(g), the least N is
    min_g ceil(log(budget / C(g)) / log g) - 1, confirmed by one call to
    tail_bound. Raises GaussFockError when no cutoff up to MAX_CUTOFF meets
    the budget.
    """
    if not budget > 0:
        raise GaussFockError(f"tail budget must be positive, got {budget}")
    log_g, log_c = _bound_profile(x)
    need = np.clip(np.min((math.log(budget) - log_c) / log_g),
                   0.0, MAX_CUTOFF + 1.0)
    N = max(0, math.ceil(need) - 1)
    if tail_bound(x, N) > budget:   # the two evaluations round differently
        N += 1
    if N > MAX_CUTOFF:
        raise GaussFockError(
            f"no cutoff up to {MAX_CUTOFF} brings the tail bound below "
            f"{budget:g}")
    return N
