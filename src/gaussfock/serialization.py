"""JSON interchange formats.

Scalars: a complex number is a two-element array [re, im]. A vector is an
array of complex scalars. A matrix is {"rows": r, "cols": c, "data": [...]}
with data the row-major flat list of complex scalars. Composites:

    symplectic element  {"dim": d, "U": matrix, "V": matrix}
    disc point          {"dim": d, "Z": matrix}
    state               {"dim": d, "Z": matrix, "f": vector, "log_amp": [re, im]}
    tensor dump         {"dim": d, "cutoff": N, "entries": [[[m...], [re, im]], ...]}

Decoders validate structure and re-run the domain constructors, so a loaded
object carries the same guarantees as a freshly built one.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import GaussFockError
from .fock import FockTensor, _basis, _position
from .siegel import SiegelPoint, make_point
from .states import UltracoherentState, make_state
from .symplectic import SymplecticElement, make_symplectic

__all__ = [
    "encode_complex", "decode_complex",
    "encode_vector", "decode_vector",
    "encode_matrix", "decode_matrix",
    "encode_symplectic", "decode_symplectic",
    "encode_point", "decode_point",
    "encode_state", "decode_state",
    "encode_tensor", "decode_tensor",
    "load_json", "dump_json",
]


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj: Any) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in obj)):
        raise GaussFockError(f"expected [re, im], got {obj!r}")
    return complex(obj[0], obj[1])


def encode_vector(f) -> list:
    return [encode_complex(z) for z in np.asarray(f, dtype=complex)]


def decode_vector(obj: Any) -> np.ndarray:
    if not isinstance(obj, list):
        raise GaussFockError("expected a JSON array for a vector")
    return np.array([decode_complex(z) for z in obj], dtype=complex)


def encode_matrix(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise GaussFockError(f"expected a matrix, got shape {A.shape}")
    return {
        "rows": A.shape[0],
        "cols": A.shape[1],
        "data": [encode_complex(z) for z in A.ravel()],
    }


def decode_matrix(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise GaussFockError("expected an object for a matrix")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise GaussFockError(f"matrix object is missing key {exc}") from None
    if not (_is_count(rows) and _is_count(cols) and isinstance(data, list)):
        raise GaussFockError("matrix rows/cols must be ints, data an array")
    if len(data) != rows * cols:
        raise GaussFockError(
            f"matrix data has {len(data)} entries, expected {rows * cols}")
    flat = np.array([decode_complex(z) for z in data], dtype=complex)
    return flat.reshape(rows, cols)


def encode_symplectic(r: SymplecticElement) -> dict:
    return {"dim": r.dim, "U": encode_matrix(r.U), "V": encode_matrix(r.V)}


def decode_symplectic(obj: Any, tol: float = 1e-10) -> SymplecticElement:
    _expect_keys(obj, ("dim", "U", "V"), "symplectic element")
    U = decode_matrix(obj["U"])
    V = decode_matrix(obj["V"])
    _expect_dim(obj["dim"], U.shape[0], "symplectic element")
    return make_symplectic(U, V, tol=tol)


def encode_point(p: SiegelPoint) -> dict:
    return {"dim": p.dim, "Z": encode_matrix(p.Z)}


def decode_point(obj: Any) -> SiegelPoint:
    _expect_keys(obj, ("dim", "Z"), "disc point")
    Z = decode_matrix(obj["Z"])
    _expect_dim(obj["dim"], Z.shape[0], "disc point")
    return make_point(Z)


def encode_state(x: UltracoherentState) -> dict:
    return {
        "dim": x.dim,
        "Z": encode_matrix(x.Z.Z),
        "f": encode_vector(x.f),
        "log_amp": encode_complex(x.log_amp),
    }


def decode_state(obj: Any) -> UltracoherentState:
    _expect_keys(obj, ("dim", "Z", "f", "log_amp"), "state")
    Z = decode_matrix(obj["Z"])
    f = decode_vector(obj["f"])
    _expect_dim(obj["dim"], Z.shape[0], "state")
    return make_state(Z, f, decode_complex(obj["log_amp"]))


def encode_tensor(F: FockTensor, threshold: float = 0.0) -> dict:
    """Sparse entry dump; entries with |c| <= threshold are omitted."""
    b = _basis(F.dim, F.cutoff)
    # lexicographic, as in the grid
    kept = b.order[np.abs(F.vector[b.order]) > threshold]
    entries = [[m, encode_complex(z)]
               for m, z in zip(b.idx[kept].tolist(), F.vector[kept])]
    return {"dim": F.dim, "cutoff": F.cutoff, "entries": entries}


def decode_tensor(obj: Any) -> FockTensor:
    _expect_keys(obj, ("dim", "cutoff", "entries"), "tensor dump")
    dim, cutoff = obj["dim"], obj["cutoff"]
    if not (_is_count(dim) and _is_count(cutoff)):
        raise GaussFockError("tensor dim and cutoff must be ints")
    b = _basis(dim, cutoff)
    coeffs = {}
    for entry in obj["entries"]:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], list)):
            raise GaussFockError(f"bad tensor entry {entry!r}")
        m, z = entry
        if len(m) != dim or not all(_is_count(k) and k <= cutoff for k in m):
            raise GaussFockError(f"bad occupation index {m!r}")
        coeffs[tuple(m)] = decode_complex(z)
    if any(sum(m) > cutoff and z != 0 for m, z in coeffs.items()):
        raise GaussFockError(
            "coefficients with total degree beyond the cutoff must vanish")
    kept = [m for m in coeffs if sum(m) <= cutoff]
    vector = np.zeros(b.size, dtype=complex)
    vector[_position(b, np.array(kept, dtype=np.int64).reshape(-1, dim))] = [
        coeffs[m] for m in kept]
    return FockTensor._of(dim, cutoff, vector)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GaussFockError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GaussFockError(f"malformed JSON in {path}: {exc}") from exc


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _expect_keys(obj: Any, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise GaussFockError(f"expected an object for a {what}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise GaussFockError(f"{what} is missing keys {missing}")


def _is_count(value: Any) -> bool:
    """A nonnegative JSON int; a bool, though a Python int, is not one."""
    return type(value) is int and value >= 0


def _expect_dim(dim: Any, actual: int, what: str) -> None:
    if not (_is_count(dim) and dim == actual):
        raise GaussFockError(
            f"{what} declares dim {dim!r} but carries size {actual}")
