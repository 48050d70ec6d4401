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
vectors through one matrix A, as A or as exp(A). The package builds every A
as a row table, each row a fixed number of entries at columns kept with the
basis, so a build computes only their values: one routine for a+(f), a(f)
and the generator a+(h) - a(h*) of the displacement W(h) of weyl, and gamma
for Gamma(B), by degree blocks. exp(A) is the Chebyshev propagator
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)). Only a read of
.matrix makes a dense matrix; for W(h), it propagates the identity.

The coefficients of exp(Omega(A)) v exp(f) obey the recurrence
(m_mu + 1) c_{m + e_mu} = f_mu c_m + sum_nu A_{mu nu} c_{m - e_nu}
(Miatto & Quesada, Quantum 4, 366 (2020)), run degree by degree on the flat
basis from per-degree step tables of the basis: each degree is one gather of
[f | A] by mu, one gather of the coefficients at the parent and its lower
neighbours, and one einsum. Builds that may overflow run under
errors._quiet, the package's one switch of numpy's error state, and every
FockTensor and every .matrix read refuses an entry that overflows float64
or is NaN with a GaussFockError. Gamma(B) builds each column from the
column of its parent m - e_mu the same way. General products are exact
convolutions, a shift-add over the nonzeros of the sparser factor: FFT
noise of ~1e-16 in high-degree entries, under m! weights up to ~1e150,
would swamp the inner products.
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
    _quiet,
    _require,
)
from .linalg import (
    _exp,
    _finite_value,
    _require_finite,
    as_matrix,
    as_vector,
    hs_norm,
    involution,
    operator_norm,
)
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
# cap on rho = 2 ||h|| sqrt(cutoff), the norm bound of the Weyl generator: it
# holds the propagator to at most 5600 terms, one row-table matvec each, and
# admits every h whose truncation is meaningful (||h||^2 well below the
# cutoff, at most 170) with a wide margin
MAX_WEYL_RHO = 4096.0


class FockTensor:
    """Coefficients of a truncated symmetric-Fock vector.

    vector holds them in basis_indices order, read-only. FockTensor(dim,
    cutoff, coeffs) takes the dense grid of shape (cutoff+1,)^dim and keeps
    its entries of total degree up to the cutoff (make_tensor also checks
    that the others vanish). .coeffs is that grid, built on first read and
    kept, read-only. Both constructors refuse a coefficient that overflows
    float64 or is NaN.
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
        _finite_value("Fock coefficient", np.abs(vector.view(float)).max())
        vector.flags.writeable = False
        self.dim, self.cutoff, self.vector = dim, cutoff, vector

    @cached_property
    def coeffs(self) -> np.ndarray:
        shape = (self.cutoff + 1,) * self.dim
        if math.prod(shape) > MAX_GRID_ENTRIES:
            raise GaussFockError(
                f"grid of shape ({self.cutoff + 1},)^{self.dim} exceeds "
                "the size guard")
        c = np.zeros(shape, dtype=complex)
        c.flat[_basis(self.dim, self.cutoff).key] = self.vector
        c.flags.writeable = False
        return c


class FockOperator:
    """Operator in the ordered occupation basis of basis_indices.

    It holds one (B, B) matrix A, B the basis size: the row table of
    _ladder or gamma, or a caller's dense matrix. It acts as A, or as exp(A)
    when weyl sets _h, the h of W(h). .matrix is a dense A itself;
    otherwise A.toarray(), or for W(h) the propagator applied to the
    identity, computed on first read and kept. It refuses an entry that
    overflowed float64 or is NaN.
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
        self._h = None

    @cached_property
    def matrix(self) -> np.ndarray:
        A = self._A
        if not isinstance(A, np.ndarray):
            size = A.shape[0]
            if size * size > MAX_GRID_ENTRIES:
                raise GaussFockError(f"dense operator of shape ({size}, "
                                     f"{size}) exceeds the size guard")
            if self._h is None:
                A = A.toarray()
            else:
                # W(h) on the identity, k columns per (size, w, k) gather
                k = max(1, MAX_GRID_ENTRIES // A.vals.size)
                A = np.hstack([_propagate(self, np.eye(
                    size, min(k, size - j), -j, dtype=complex))
                    for j in range(0, size, k)])
        _require_finite("matrix", A)
        return A


def _check_size(dim: int, cutoff: int) -> None:
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if cutoff < 0:
        raise GaussFockError("cutoff must be nonnegative")
    if cutoff > MAX_CUTOFF:
        raise GaussFockError(
            f"cutoff {cutoff} exceeds {MAX_CUTOFF}, the largest degree whose "
            "factorial weight fits in float64")
    # size * dim bounds each of the (size, dim) tables down and up, built
    # with the basis; the step table src of _Basis.steps, (size - 1, dim + 1)
    # and built only for a Gaussian, then holds at most twice as many
    # entries. Grid keys are int64
    if (math.comb(cutoff + dim, dim) * dim > MAX_GRID_ENTRIES
            or (cutoff + 1) ** dim > np.iinfo(np.int64).max):
        raise GaussFockError(f"flat basis of dimension {dim} and cutoff "
                             f"{cutoff} exceeds the size guard")


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
    steps, ladder_cols, gamma_cols and indices are built on first read: the
    tables of the Gaussian recurrence, of the ladder operators and of gamma,
    and idx as tuples.
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

    @cached_property
    def steps(self) -> tuple[tuple[slice, np.ndarray, np.ndarray, np.ndarray],
                             ...]:
        """(rows, mu, src, inv) for each degree n >= 1, rows the slice
        start[n]:start[n+1] and mu = axis[rows]. Row k of src is
        (parent, down[parent, 0..dim-1]) of entry i = rows.start + k, and
        inv[k] = 1 / idx[i, mu[k]]. src and inv are views of one table each,
        read-only."""
        rows = np.arange(1, self.size)      # row 0, the vacuum, has no parent
        p = self.parent[rows]
        src = np.column_stack([p, self.down[p]]).astype(np.intp)
        inv = 1.0 / self.idx[rows, self.axis[rows]]
        src.flags.writeable = inv.flags.writeable = False
        out = []
        for lo, hi in zip(self.start[1:-1], self.start[2:]):
            k = slice(lo - 1, hi - 1)
            out.append((slice(lo, hi), self.axis[lo:hi], src[k], inv[k]))
        return tuple(out)

    @cached_property
    def ladder_cols(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column tables of _ladder's row tables, as intp and read-only:
        down, up read backwards, and the two side by side."""
        down = self.down.astype(np.intp)
        up = np.ascontiguousarray(self.up[:, ::-1], dtype=np.intp)
        cols = (down, up, np.hstack([down, up]))
        for c in cols:
            c.flags.writeable = False
        return cols

    @cached_property
    def gamma_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Column tables of gamma's row table, as intp and read-only, refused
        beyond MAX_GRID_ENTRIES: cols, where a row of degree n holds the
        columns start[n] + j of its degree block, then the pad column size up
        to the width of the top degree's block; and for each row the column
        of its parent within the block below."""
        widths = np.diff(self.start)
        if self.size * widths[-1] > MAX_GRID_ENTRIES:
            raise GaussFockError(f"row table of shape ({self.size}, "
                                 f"{widths[-1]}) exceeds the size guard")
        cols = np.repeat(self.start[:-1], widths)[:, None] + np.arange(
            widths[-1], dtype=np.intp)
        cols[cols >= np.repeat(self.start[1:], widths)[:, None]] = self.size
        parent = self.parent - np.repeat(np.r_[0, self.start[:-2]], widths)
        cols.flags.writeable = parent.flags.writeable = False
        return cols, parent

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """idx as tuples, the value of basis_indices."""
        return tuple(map(tuple, self.idx.tolist()))


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


def basis_indices(dim: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """Occupation multi-indices ordered by (total degree, lexicographic)."""
    return _basis(dim, cutoff).indices


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


@_quiet
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


@_quiet
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
        rows = slice(b.start[2], b.start[3])   # e_mu + e_nu, mu <= nu
        mu, nu = b.axis[rows], b.axis[b.parent[rows]]
        out[rows] = np.where(mu == nu, 0.5, 1.0) * A[mu, nu]
    return FockTensor._of(d, cutoff, out)


@_quiet
def _gaussian(A: np.ndarray, f: np.ndarray, log_c0: complex,
              cutoff: int) -> FockTensor:
    """exp(log_c0) (exp Omega(A) v exp f) truncated at the cutoff, by the
    recurrence
    (m_mu + 1) c_{m + e_mu} = f_mu c_m + sum_nu A_{mu nu} c_{m - e_nu}.

    Row k of [f | A][mu] pairs with row k of c[src], (c_p, c_{p - e_nu}) for
    the parent p = m - e_mu of entry m, so each degree is one einsum over
    the step tables of _Basis.steps.
    """
    d = A.shape[0]
    b = _basis(d, cutoff)
    ext = np.column_stack([f, A])
    c = np.zeros(b.size + 1, dtype=complex)    # c[b.size] = 0 is the pad
    c[0] = np.exp(log_c0)
    for rows, mu, src, inv in b.steps:
        c[rows] = np.einsum("kj,kj->k", ext.take(mu, 0), c[src]) * inv
    return FockTensor._of(d, cutoff, c[:-1])


def exp_omega(A, cutoff: int) -> FockTensor:
    """exp Omega(A) = sum_{n <= cutoff/2} Omega(A)^{vn} / n!.

    Requires ||A|| < 1 so the series has summable Fock norm.
    """
    A = as_matrix(A)
    _require(operator_norm(A), np.nextafter(1.0, 0.0), NotInDiscError,
             "exp Omega requires operator norm below 1, got {residual:.12g}")
    _check_symmetric(A)
    return _gaussian(A, np.zeros(A.shape[0], dtype=complex), 0.0, cutoff)


def represent_state(x: UltracoherentState, cutoff: int) -> FockTensor:
    """Truncated coefficients of exp(log_amp) (exp Omega(Z) v exp f)."""
    return _gaussian(x.Z.Z, x.f, x.log_amp, cutoff)


@_quiet
def apply_operator(op: FockOperator, F: FockTensor) -> FockTensor:
    if op.dim != F.dim or op.cutoff != F.cutoff:
        raise DimensionMismatchError(
            "operator and tensor must share dimension and cutoff")
    out = op._A @ F.vector if op._h is None else _propagate(op, F.vector)
    return FockTensor._of(F.dim, F.cutoff, out)


def _propagate(op: FockOperator, v: np.ndarray) -> np.ndarray:
    """W(h) v, for the op of weyl and v a vector or a (size, k) block, by
    the Chebyshev propagator of Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967
    (1984)). Its generator G = op._A is skew-Hermitian with norm at most
    rho = 2 ||h|| sqrt(cutoff) in the orthonormal frame, where a+(h) maps
    degree n to n + 1 with norm ||h|| sqrt(n + 1) and a(h*) is its adjoint;
    at cutoff 0, G = 0. A rho above MAX_WEYL_RHO is refused.

    With S = diag(sqrt(m!)) the vectors E_m / sqrt(m!) are orthonormal, so
    H = -i S G S^-1 is Hermitian with ||H|| <= rho, exp(G) = S^-1 exp(iH) S,
    and exp(i rho x) = J_0(rho) + 2 sum_k i^k J_k(rho) T_k(x) on [-1, 1]. S
    commutes through each polynomial, S^-1 T_k(H / rho) S = T_k(-iG / rho),
    so the series runs on G itself: u_k = i^k T_k(-iG / rho) v obeys
    u_{k+1} = (2 / rho) G u_k + u_{k-1}, and
    exp(G) v = J_0 u_0 + 2 sum_{k <= K} J_k u_k, one matvec per term of the
    row table G with its values scaled once by 2 / rho. The terms dropped
    beyond K weigh at most 2 sum_{j>K} |J_j(rho)| <= 2^-53 times ||v|| in
    the Fock norm (see _terms).
    """
    rho = (2.0 * math.sqrt(op.cutoff) * math.hypot(*np.abs(op._h))
           if op.cutoff else 0.0)
    _require(rho, MAX_WEYL_RHO, GaussFockError,
             "Weyl action needs 2 |h| sqrt(cutoff) at most {tol:g}, "
             "got {residual:.6g}")
    J = _bessel(rho)
    out = J[0] * v
    if J.size == 1:
        return out
    step = _RowTable(op._A.cols, op._A.vals * (2.0 / rho))
    prev, cur = v, 0.5 * (step @ v)
    for c in 2.0 * J[1:-1]:
        out += c * cur
        nxt = step @ cur
        nxt += prev
        prev, cur = cur, nxt
    out += 2.0 * J[-1] * cur
    return out


def _terms(rho: float, tol: float | np.ndarray):
    """Least K with 2 sum_{j>K} (rho/2)^j / j! <= tol, for rho > 0; one K
    per entry of an array tol.

    The sum bounds 2 sum_{j>K} |J_j(rho)|, since |J_j(x)| <= (x/2)^j / j!
    for x >= 0. It is summed in the log domain up to j = e^2 rho/2 + 121:
    from j >= e^2 rho/2 on, j! >= (j/e)^j makes each term at most e^-j, so
    the rest is below e^-121, under the last bit of any tol used here.
    """
    x = rho / 2.0
    j = np.arange(1.0, math.ceil(math.e ** 2 * x) + 122)
    log_terms = j * math.log(x) - np.cumsum(np.log(j))
    # -log sum_{j>K} (rho/2)^j / j! for K = 0, 1, ..., nondecreasing
    neg_log_tails = -np.logaddexp.accumulate(log_terms[::-1])[::-1]
    return np.searchsorted(neg_log_tails, -np.log(np.divide(tol, 2.0)))


def _bessel(rho: float) -> np.ndarray:
    """J_0(rho), ..., J_K(rho) with K = _terms(rho, 2^-53); [1.0] for rho
    below 2^-54, where K = 0 and J_0(rho) = 1 - rho^2/4 rounds to 1.

    Miller's backward recurrence J_{k-1} = (2k / rho) J_k - J_{k+1}, started
    from J_{M+1} = 0 and J_M = 1 at M = _terms(rho, 2^-106), runs toward the
    dominant solution, so its values are the J_k up to one factor with an
    absolute error of about |J_{M+1}(rho)| <= 2^-107; the factor is fixed by
    J_0 + 2 sum_k J_{2k} = 1. Whenever a value passes 1e250, all of them are
    scaled by 1e-250, so none overflows; the high orders that then underflow
    lie far below 2^-53.
    """
    if rho < 2.0 ** -54:
        return np.ones(1)
    K, M = _terms(rho, np.array([2.0 ** -53, 2.0 ** -106]))
    f = [1.0]                      # f[i] is proportional to J_{M - i}
    high, low = 0.0, 1.0
    for k in range(M, 0, -1):
        high, low = low, 2.0 * k / rho * low - high
        f.append(low)
        if abs(low) > 1e250:
            f = [c * 1e-250 for c in f]
            high, low = high * 1e-250, low * 1e-250
    f = np.array(f[::-1])
    return f[:K + 1] / (f[0] + 2.0 * f[2::2].sum())


class _RowTable:
    """A (size, size) matrix with a fixed number of entries per row.

    Row i holds vals[i, j] at column cols[i, j]; an entry off the basis
    points at the pad column size and holds exactly 0. A product with a
    vector or a (size, k) block sums each row of the gathered, zero-padded
    operand in column order, as a CSR matvec does; toarray scatters densely.
    """

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self.cols, self.vals = cols, vals
        self.shape = (len(cols),) * 2

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        padded = np.concatenate([v, np.zeros_like(v[:1])])
        return np.einsum("ij,ij...->i...", self.vals, padded[self.cols])

    def toarray(self) -> np.ndarray:
        size = self.shape[0]
        flat = np.zeros(size * size + 1, dtype=complex)   # last entry: the pad
        keys = np.arange(0, size * size, size)[:, None] + self.cols
        # += adds each entry to a zero, so a -0.0 entry reads 0.0, as in CSR
        flat[np.where(self.cols < size, keys, size * size)] += self.vals
        return flat[:-1].reshape(size, size)


@_quiet   # an entry that overflowed is refused in its action
def _ladder(b: _Basis, raising, lowering) -> _RowTable:
    """Row table of a+(raising) + a(lowering); None leaves a half out.

    Row i holds raising[mu] at column down[i, mu] and lowering[mu] *
    (idx[i, mu] + 1) at up[i, mu], where these exist. down lies a degree
    below i and rises with mu, up a degree above and falls with mu, so with
    up read backwards every row's columns rise: the half of
    _Basis.ladder_cols that each operand needs.
    """
    halves = []
    if raising is not None:
        halves.append(np.broadcast_to(raising, b.down.shape))
    if lowering is not None:
        halves.append(lowering[::-1] * (b.idx[:, ::-1] + 1))
    down, up, both = b.ladder_cols
    cols = both if len(halves) == 2 else up if raising is None else down
    vals = np.where(cols < b.size, np.hstack(halves), 0)
    return _RowTable(cols, vals)


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


@_quiet   # an entry that overflowed is refused in its action
def gamma(B, cutoff: int) -> FockOperator:
    """Second quantization: Gamma(B) E_m = prod_mu (B e_mu)^{v m_mu}.

    Gamma(B) keeps the total degree, so a row of its row table holds the
    columns of its degree block (_Basis.gamma_cols). Degree by degree, the
    column of m = p + e_mu is (B e_mu) v (column of p); its entry r gathers
    sum_nu B[nu, mu] (column of p)[r - e_nu].
    """
    B = as_matrix(B)
    d = B.shape[0]
    b = _basis(d, cutoff)
    cols, parent = b.gamma_cols
    Bmu, down = B[:, b.axis], b.down[:, :, None]
    V = np.zeros((b.size + 1, cols.shape[1]), dtype=complex)  # last row: pad
    V[0, 0] = 1.0
    for n in range(1, cutoff + 1):
        rows = slice(b.start[n], b.start[n + 1])
        p = parent[rows]
        V[rows, :len(p)] = sum(
            Bmu[nu, rows] * V[down[rows, nu], p] for nu in range(d))
    return FockOperator(d, cutoff, _RowTable(cols, V[:-1]))


def weyl(h, cutoff: int) -> FockOperator:
    """Displacement W(h) = exp(G) with G = a+(h) - a(h*) truncated.

    The operator holds the row table of G. apply_operator computes W(h) v,
    and .matrix, built on first read, W(h) on the identity, both by the
    Chebyshev propagator of _propagate.
    """
    h = as_vector(h)
    d = h.shape[0]
    op = FockOperator(d, cutoff, _ladder(_basis(d, cutoff), h, -involution(h)))
    op._h = h
    return op


def alpha_norm(F: FockTensor, alpha: float) -> float:
    """Weighted norm sqrt(sum_n alpha^{-2n} ||F_n||^2)."""
    if not (alpha > 0):
        raise InvalidAlphaError("alpha must be strictly positive")
    dn = degree_norms(F)
    scale = np.power(float(alpha), -np.arange(F.cutoff + 1))
    return float(np.linalg.norm(scale * dn))


@_quiet   # a NaN or inf is refused later
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
    # margins of 1e-4, narrowed only beyond ||Z|| = 0.9992 so that every
    # disc point keeps a grid of 96 points
    margin = min(1e-4, (1.0 - np.sqrt(s[0])) / 4.0)
    g = np.linspace(np.sqrt(s[0]) + margin, 1.0 - margin, 96)
    g = g[(g * g > s[0]) & (g < 1.0)]
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
    _exp("tail bound", np.min(log_bounds))
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
