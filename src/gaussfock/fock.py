"""Truncated Fock space oracle: brute-force symmetric tensor algebra.

Everything here is computed from first principles on a truncated
occupation-number basis, independently of the closed-form layer, so the two
can cross-check each other. Tensors and operators share one layout, the flat
basis of basis_indices: the multi-indices m of total degree at most the
cutoff, ordered by (degree, lexicographic). A FockTensor stores the
coefficients c_m of sum_m c_m E_m, where E_m = e_1^{m_1} v ... v e_d^{m_d}
and ||E_m||^2 = m! = prod(m_mu!), as one vector in that order. The dense
(cutoff+1,)^dim grid is only its exchange format: the constructor takes it,
and .coeffs builds it on first read. A FockOperator acts on the same
vectors through one matrix A, as A or as exp(A). One routine assembles
a+(f), a(f) and the generator a+(h) - a(h*) of the displacement W(h) of weyl
as CSR matrices from the basis tables; W(h) is applied to vectors with
expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011). Only
gamma, and a read of .matrix, make a dense matrix.

The coefficients of exp(Omega(A)) v exp(f) obey the recurrence
(m_mu + 1) c_{m + e_mu} = f_mu c_m + sum_nu A_{mu nu} c_{m - e_nu}
(Miatto & Quesada, Quantum 4, 366 (2020)), run degree by degree on the flat
basis; Gamma(B) builds each column from the column of its parent m - e_mu
the same way. General products are exact convolutions, a shift-add over the
nonzeros of the sparser factor: FFT noise of ~1e-16 in high-degree entries,
under m! weights up to ~1e150, would swamp the inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    GaussFockError,
    InvalidAlphaError,
    NotInDiscError,
    NotSymmetricError,
    _require,
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


class FockTensor:
    """Coefficients of a truncated symmetric-Fock vector.

    vector holds them in basis_indices order, read-only. FockTensor(dim,
    cutoff, coeffs) takes the dense grid of shape (cutoff+1,)^dim and keeps
    its entries of total degree up to the cutoff (make_tensor also checks
    that the others vanish). .coeffs is that grid, built on first read and
    kept, read-only.
    """

    def __init__(self, dim: int, cutoff: int, coeffs):
        b = _basis(dim, cutoff)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (cutoff + 1,) * dim:
            raise DimensionMismatchError(
                f"expected coefficient grid of shape {(cutoff + 1,) * dim}, "
                f"got {coeffs.shape}")
        self._init(dim, cutoff, coeffs.reshape(-1)[b.key])

    @classmethod
    def _of(cls, dim: int, cutoff: int, vector: np.ndarray) -> FockTensor:
        F = cls.__new__(cls)
        F._init(dim, cutoff, np.asarray(vector, dtype=complex))
        return F

    def _init(self, dim: int, cutoff: int, vector: np.ndarray) -> None:
        vector.flags.writeable = False
        self.dim, self.cutoff, self.vector, self._coeffs = (
            dim, cutoff, vector, None)

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            shape = (self.cutoff + 1,) * self.dim
            if math.prod(shape) > MAX_GRID_ENTRIES:
                raise GaussFockError(
                    f"grid of shape ({self.cutoff + 1},)^{self.dim} exceeds "
                    "the size guard")
            c = np.zeros(shape, dtype=complex)
            c.flat[_basis(self.dim, self.cutoff).key] = self.vector
            c.flags.writeable = False
            self._coeffs = c
        return self._coeffs


class FockOperator:
    """Operator in the ordered occupation basis of basis_indices.

    It holds one dense or sparse (B, B) matrix A, B the basis size, and acts
    as A, or as exp(A) when weyl sets that flag. .matrix is a dense A itself;
    otherwise A.toarray(), or scipy.linalg.expm of it, computed on first read
    and kept.
    """

    def __init__(self, dim: int, cutoff: int, matrix):
        size = _basis(dim, cutoff).size
        if np.shape(matrix) != (size, size):
            raise DimensionMismatchError(
                f"expected operator matrix of shape {(size, size)}, "
                f"got {np.shape(matrix)}")
        self.dim = dim
        self.cutoff = cutoff
        self._A = matrix
        self._exp = False

    @cached_property
    def matrix(self) -> np.ndarray:
        if isinstance(self._A, np.ndarray):
            return self._A
        _check_dense(self._A.shape[0])
        dense = self._A.toarray()
        if self._exp:
            # imported here, like scipy.sparse in _ladder: see the note there
            import scipy.linalg
            dense = scipy.linalg.expm(dense)
        return dense


def _check_size(dim: int, cutoff: int) -> None:
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if cutoff < 0:
        raise GaussFockError("cutoff must be nonnegative")
    if cutoff > MAX_CUTOFF:
        raise GaussFockError(
            f"cutoff {cutoff} exceeds {MAX_CUTOFF}, the largest degree whose "
            "factorial weight fits in float64")
    # two (size, dim) tables, down and up, guarded as one; grid keys are int64
    if (math.comb(cutoff + dim, dim) * dim > MAX_GRID_ENTRIES
            or (cutoff + 1) ** dim > np.iinfo(np.int64).max):
        raise GaussFockError(f"flat basis of dimension {dim} and cutoff "
                             f"{cutoff} exceeds the size guard")


def _check_dense(size: int) -> None:
    if size * size > MAX_GRID_ENTRIES:
        raise GaussFockError(
            f"dense operator of shape ({size}, {size}) exceeds the size guard")


def _factorials(cutoff: int) -> np.ndarray:
    """k! for k = 0..cutoff, as float64 (exact to ~1e-14 up to 170!)."""
    return np.cumprod(np.concatenate([[1.0], np.arange(1.0, cutoff + 1)]))


@dataclass(frozen=True, eq=False)
class _Basis:
    """The flat basis with its lowering and raising tables.

    idx[i] is the i-th multi-index, ordered by (total degree, lexicographic),
    key[i] = idx[i] @ strides its position in the flattened grid, and
    positions start[n]:start[n+1] hold degree n. weight[i] is idx[i]! and
    order sorts key. down[i, mu] and up[i, mu] are the positions of idx[i]
    -/+ e_mu, or size off the basis; callers pad their arrays with a zero
    there. parent[i] = down[i, axis[i]] for the first axis with
    idx[i, axis] > 0: the edge along which the recurrences build entry i.
    """

    idx: np.ndarray
    key: np.ndarray
    down: np.ndarray
    up: np.ndarray
    start: np.ndarray
    axis: np.ndarray
    parent: np.ndarray
    weight: np.ndarray
    order: np.ndarray
    strides: np.ndarray
    size: int


@lru_cache(maxsize=32)
def _basis(dim: int, cutoff: int) -> _Basis:
    _check_size(dim, cutoff)
    # grid keys in base cutoff+1 sort like the multi-indices they encode
    strides = (cutoff + 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    levels = [np.zeros(1, dtype=np.int64)]
    raises = []
    for _ in range(cutoff):
        kids = (levels[-1][:, None] + strides).ravel()
        level, inverse = np.unique(kids, return_inverse=True)
        levels.append(level)
        raises.append(inverse.reshape(-1, dim))
    start = np.cumsum([0] + [len(level) for level in levels])
    key = np.concatenate(levels)
    idx = (key[:, None] // strides % (cutoff + 1)).astype(np.int32)
    size = len(key)
    down, up = (np.full((size, dim), size, dtype=np.int32) for _ in range(2))
    for n, inverse in enumerate(raises):
        up[start[n]:start[n + 1]] = inverse + start[n + 1]
    below = np.arange(start[cutoff])           # all but the top degree
    down[up[below], np.arange(dim)] = below[:, None]
    axis = np.argmax(idx > 0, axis=1)
    parent = down[np.arange(size), axis]
    weight = np.prod(_factorials(cutoff)[idx], axis=1)
    order = np.argsort(key)
    for a in (idx, key, down, up, start, axis, parent, weight, order, strides):
        a.flags.writeable = False
    return _Basis(idx, key, down, up, start, axis, parent, weight, order,
                  strides, size)


def _position(b: _Basis, keys) -> np.ndarray:
    """Flat positions of the basis entries with the given grid keys, or with
    the multi-indices in the rows of a (k, dim) array."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim == 2:
        keys = keys @ b.strides
    return b.order[np.searchsorted(b.key, keys, sorter=b.order)]


@lru_cache(maxsize=32)
def basis_indices(dim: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """Occupation multi-indices ordered by (total degree, lexicographic)."""
    return tuple(map(tuple, _basis(dim, cutoff).idx.tolist()))


def make_tensor(dim: int, cutoff: int, coeffs) -> FockTensor:
    """Validate shape and the vanishing of entries beyond the cutoff."""
    F = FockTensor(dim, cutoff, coeffs)
    if np.count_nonzero(coeffs) > np.count_nonzero(F.vector):
        raise GaussFockError(
            "coefficients with total degree beyond the cutoff must vanish")
    return F


def vacuum_tensor(dim: int, cutoff: int) -> FockTensor:
    c = np.zeros(_basis(dim, cutoff).size, dtype=complex)
    c[0] = 1.0
    return FockTensor._of(dim, cutoff, c)


def _common(F: FockTensor, G: FockTensor) -> _Basis:
    if F.dim != G.dim or F.cutoff != G.cutoff:
        raise DimensionMismatchError(
            "tensors must share dimension and cutoff")
    return _basis(F.dim, F.cutoff)


def symmetric_product(F: FockTensor, G: FockTensor) -> FockTensor:
    """F v G: plain coefficient convolution truncated at the cutoff.

    E_m v E_n = E_{m+n}, so the product of coefficient vectors is their
    discrete convolution, summed exactly as a shift-add over the nonzeros of
    the sparser factor. The entries n of degree up to cutoff - |m| land on
    m + n, found by its grid key key(m) + key(n): no digit of m + n exceeds
    the cutoff, so the base-(cutoff+1) addition carries nothing.
    """
    b = _common(F, G)
    a, c = F.vector, G.vector
    if np.count_nonzero(a) > np.count_nonzero(c):
        a, c = c, a
    out = np.zeros(b.size, dtype=complex)
    nz = np.flatnonzero(a)
    for i, n in zip(nz, np.searchsorted(b.start, nz, side="right") - 1):
        src = slice(0, b.start[F.cutoff - n + 1])
        out[_position(b, b.key[i] + b.key[src])] += a[i] * c[src]
    return FockTensor._of(F.dim, F.cutoff, out)


def inner(F: FockTensor, G: FockTensor) -> complex:
    """(F|G) = sum_m m! conj(c_m) d_m, conjugate-linear in F."""
    b = _common(F, G)
    return complex(np.sum(b.weight * np.conj(F.vector) * G.vector))


def tensor_norm(F: FockTensor) -> float:
    W = _basis(F.dim, F.cutoff).weight
    return float(np.sqrt(np.sum(W * np.abs(F.vector) ** 2)))


def degree_norms(F: FockTensor) -> np.ndarray:
    """Fock norms of the homogeneous components, indexed by degree."""
    b = _basis(F.dim, F.cutoff)
    return np.sqrt(np.add.reduceat(b.weight * np.abs(F.vector) ** 2,
                                   b.start[:-1]))


def tensor_residual(F: FockTensor, G: FockTensor) -> float:
    """Fock norm of the difference."""
    b = _common(F, G)
    return float(np.sqrt(np.sum(b.weight * np.abs(F.vector - G.vector) ** 2)))


def exp_vector(f, cutoff: int) -> FockTensor:
    """exp f = sum_n f^{vn}/n!, coefficients prod f_mu^{m_mu}/m_mu!."""
    f = as_vector(f)
    d = f.shape[0]
    b = _basis(d, cutoff)
    lines = np.power(f[:, None], np.arange(cutoff + 1)) / _factorials(cutoff)
    return FockTensor._of(d, cutoff, np.prod(lines[np.arange(d), b.idx],
                                             axis=1))


def _check_symmetric(A: np.ndarray) -> None:
    _require(hs_norm(A - A.T), 1e-10 * (1.0 + operator_norm(A)),
             NotSymmetricError, "quadratic tensor parameter must be symmetric")


def omega_tensor(A, cutoff: int) -> FockTensor:
    """Omega(A) = 1/2 sum_{mu,nu} A_{mu,nu} e_mu v e_nu for symmetric A."""
    A = as_matrix(A)
    d = A.shape[0]
    b = _basis(d, cutoff)
    _check_symmetric(A)
    out = np.zeros(b.size, dtype=complex)
    if cutoff >= 2:
        rows = np.arange(b.start[2], b.start[3])   # e_mu + e_nu, mu <= nu
        mu, nu = b.axis[rows], b.axis[b.parent[rows]]
        out[rows] = np.where(mu == nu, 0.5, 1.0) * A[mu, nu]
    return FockTensor._of(d, cutoff, out)


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
    return FockTensor._of(d, cutoff, c[:-1])


def exp_omega(A, cutoff: int) -> FockTensor:
    """exp Omega(A) = sum_{n <= cutoff/2} Omega(A)^{vn} / n!.

    Requires ||A|| < 1 so the series has summable Fock norm.
    """
    A = as_matrix(A)
    _require(operator_norm(A), np.nextafter(1.0, 0.0), NotInDiscError,
             "exp Omega requires operator norm below 1, got {residual:.6f}")
    _check_symmetric(A)
    return _gaussian(A, np.zeros(A.shape[0], dtype=complex), 1.0, cutoff)


def represent_state(x: UltracoherentState, cutoff: int) -> FockTensor:
    """Truncated coefficients of exp(log_amp) (exp Omega(Z) v exp f)."""
    return _gaussian(x.Z.Z, x.f, np.exp(x.log_amp), cutoff)


def apply_operator(op: FockOperator, F: FockTensor) -> FockTensor:
    if op.dim != F.dim or op.cutoff != F.cutoff:
        raise DimensionMismatchError(
            "operator and tensor must share dimension and cutoff")
    if not op._exp:
        return FockTensor._of(F.dim, F.cutoff, op._A @ F.vector)
    # imported here, like scipy.sparse in _ladder: see the note there
    from scipy.sparse.linalg import expm_multiply
    # once the generator's 1-norm exceeds about 63, expm_multiply estimates
    # norms with onenormest, which draws from numpy's global RNG; the
    # caller's random stream is put back as it was
    rng_state = np.random.get_state()
    try:
        out = expm_multiply(op._A, F.vector)
    finally:
        np.random.set_state(rng_state)
    return FockTensor._of(F.dim, F.cutoff, out)


def _ladder(b: _Basis, raising, lowering):
    """CSR matrix of a+(raising) + a(lowering); None leaves a half out.

    Row i holds raising[mu] at column down[i, mu] and lowering[mu] *
    (idx[i, mu] + 1) at up[i, mu], where these exist. down lies a degree
    below i and rises with mu, up a degree above and falls with mu, so with
    up read backwards every row's columns come out sorted.
    """
    # imported here: at module level it raised the peak memory of a process
    # that imports gaussfock and gaussfock.cli and runs one d=2 circuit from
    # 32.6 to 54.1 MB (3 runs each on 2 cores, all within 0.1 MB)
    from scipy.sparse import csr_array

    halves = []
    if raising is not None:
        halves.append((b.down, np.broadcast_to(raising, b.down.shape)))
    if lowering is not None:
        halves.append((b.up[:, ::-1], lowering[::-1] * (b.idx[:, ::-1] + 1)))
    cols, vals = map(np.hstack, zip(*halves))
    pos = np.flatnonzero(cols < b.size)   # flat: row i owns [i w, (i + 1) w)
    indptr = np.searchsorted(pos, np.arange(0, cols.size + 1, cols.shape[1]))
    return csr_array((vals.ravel()[pos], cols.ravel()[pos], indptr),
                     shape=(b.size, b.size))


def create(f, cutoff: int) -> FockOperator:
    """Creation operator a+(f): E_m -> sum_mu f_mu E_{m + e_mu}."""
    f = as_vector(f)
    d = f.shape[0]
    return FockOperator(d, cutoff, _ladder(_basis(d, cutoff), f, None))


def annihilate(f, cutoff: int) -> FockOperator:
    """Annihilation a(f): E_m -> sum_mu f_mu m_mu E_{m - e_mu}.

    Linear (not conjugate-linear) in f; the adjoint of create(f) is
    annihilate(f*).
    """
    f = as_vector(f)
    d = f.shape[0]
    return FockOperator(d, cutoff, _ladder(_basis(d, cutoff), None, f))


def gamma(B, cutoff: int) -> FockOperator:
    """Second quantization: Gamma(B) E_m = prod_mu (B e_mu)^{v m_mu}.

    Degree by degree, the column of m = p + e_mu is (B e_mu) v (column of
    p); its entry r gathers sum_nu B[nu, mu] (column of p)[r - e_nu].
    """
    B = as_matrix(B)
    d = B.shape[0]
    b = _basis(d, cutoff)
    _check_dense(b.size)
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

    apply_operator computes W(h) v from the sparse G with expm_multiply;
    .matrix, built on first read, is scipy.linalg.expm of the dense G.
    """
    h = as_vector(h)
    d = h.shape[0]
    op = FockOperator(d, cutoff, _ladder(_basis(d, cutoff), h, -involution(h)))
    op._exp = True
    return op


def alpha_norm(F: FockTensor, alpha: float) -> float:
    """Weighted norm sqrt(sum_n alpha^{-2n} ||F_n||^2)."""
    if not (alpha > 0):
        raise InvalidAlphaError("alpha must be strictly positive")
    dn = degree_norms(F)
    scale = np.power(float(alpha), -np.arange(F.cutoff + 1))
    return float(np.linalg.norm(scale * dn))


@np.errstate(over="ignore", invalid="ignore")   # a NaN or inf is refused later
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
            f"no valid scaling parameter for ||Z|| = {s[0]:.6f}")
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


def _log_tail_bounds(x: UltracoherentState, cutoffs: np.ndarray
                     ) -> np.ndarray:
    """log tail_bound(x, N) for each N in cutoffs, from one bound profile;
    refused when the least of them is NaN or overflows float64."""
    log_g, log_c = _bound_profile(x)
    log_bounds = np.min((cutoffs[:, None] + 1) * log_g + log_c, axis=1)
    _require(np.min(log_bounds), np.log(np.finfo(float).max), GaussFockError,
             "tail bound exp({residual:.3e}) overflows float64")
    return log_bounds


def tail_bound(x: UltracoherentState, cutoff: int) -> float:
    """Upper bound on the Fock norm of the degrees dropped beyond the cutoff.

    Uses the scaling identity that the degree-n component of Phi(Z, f) times
    g^{-n} is the degree-n component of Phi(Z/g^2, f/g), so the dropped mass
    is at most the geometric tail g^{cutoff+1} (1-g^2)^{-1/2} ||Phi(Z/g^2, f/g)||
    for any g in (sqrt||Z||, 1); the bound is minimized over a grid of g.
    Zero for the vacuum.
    """
    return math.exp(_log_tail_bounds(x, np.array([cutoff]))[0])


def cutoff_for(x: UltracoherentState, budget: float) -> int:
    """Least cutoff N with tail_bound(x, N) <= budget.

    The bound is evaluated for every N up to MAX_CUTOFF from one bound
    profile. Raises GaussFockError, as tail_bound does, when the least
    bound is NaN or overflows float64, and when no cutoff up to MAX_CUTOFF
    meets the budget.
    """
    if not budget > 0:
        raise GaussFockError(f"tail budget must be positive, got {budget}")
    log_bounds = _log_tail_bounds(x, np.arange(MAX_CUTOFF + 1))
    within = np.flatnonzero(log_bounds <= math.log(budget))
    if not within.size:
        raise GaussFockError(
            f"no cutoff up to {MAX_CUTOFF} brings the tail bound below "
            f"{budget:g}")
    return int(within[0])
