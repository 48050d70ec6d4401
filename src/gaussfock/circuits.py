"""A small textual circuit language and its Gaussian normal form.

Grammar (whitespace-insensitive, one gate per line, '#' starts a comment,
an optional ';' may close a line):

    D(mode, r, phi)        displace mode by r * e^{i phi}
    S(mode, r, phi)        squeeze: U = cosh r, V = e^{i phi} sinh r on mode
    BS(i, j, theta, phi)   passive coupling [[cos t, -e^{i phi} sin t],
                                             [e^{-i phi} sin t, cos t]]
    R(mode, theta)         phase rotation e^{i theta} on mode
    SYMP("file.json")      raw symplectic element loaded from JSON

Gates apply top to bottom. compile_circuit folds the list into the normal
form e^{log_phase} W(h) T(R) by pushing displacements left through the
intertwining relation T(R) W(f) = W(R f) T(R), merging displacements with the
Weyl composition phase, and accruing the representation multiplier for each
symplectic merge; run applies the normal form to the vacuum. The sequential
route (gate by gate on the state) agrees with the normal form including the
global phase.

compile_circuit runs one stacked pass. It builds the gates as arrays
with one fancy-indexed assignment per gate kind (SYMP files load one at a
time): the n symplectic gates as (n, d, d) stacks Ug, Vg and the D shifts
as rows. It folds the running products (U3, V3) = Ug (U1, V1) +
Vg (V1~, U1~) with one (2, d, d) update per gate, keeping every product,
and runs each check once over the whole stack, with the formulas and
decisions of the single-element routes: the constraints and log det|U| of
every product, by symplectic._check_pairs, the very check make_symplectic
runs, and the multiplier of every gate with the product before it; the
result is built from the last product's entry. No gate is decided again:
S, BS and R are group elements by construction, and a SYMP file was
decided by its own make_symplectic as it loaded, once per compile, so the
gates' SVD of V gives only their log det|U|. Two SVDs in all, two stacked
solves and one stacked eigvals serve any circuit length. The multiplier's
||M||, which only scales a pass/fail test, is taken only if ||M||_F does
not clear its floor. The phase and displacement are then folded in gate
order into one running vector. The result is byte for byte the
gate-by-gate fold through compose and multiplier.

The checks run in the order of one gate's stages: build (mode range, SYMP
file), finite gate entries, finite product entries, product constraints,
multiplier, finite displacement into the gate and finite D shift. A
failing pass may raise for a later gate at an earlier stage, so
compile_circuit then bisects for the shortest failing prefix and raises
its error, the first failure in (gate, stage) order. This is exact: each
check decides every entry on its own and a non-finite displacement stays
non-finite through later gates, so failure is monotone in prefix length;
in the shortest failing prefix only the last gate fails, and the check
order picks its first failing stage. After a pass, compile_circuit
refuses a displacement or phase that overflowed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    CircuitSyntaxError,
    DimensionMismatchError,
    GaussFockError,
    ModeOutOfRangeError,
    _quiet,
)
from .linalg import _require_finite
from .representation import _multiplier, act
from .serialization import decode_symplectic, load_json
from .states import UltracoherentState, make_state, vacuum, weyl_apply
from .symplectic import (SymplecticElement, _check_pairs, _element,
                         _log_det_abs_u, make_symplectic)

__all__ = [
    "Gate",
    "CompiledCircuit",
    "parse",
    "pretty",
    "compile_circuit",
    "run",
    "run_sequential",
]

# (mode arguments, parameters) per gate kind; SYMP's one parameter is its
# quoted file name.
_GATE_ARGS = {"D": (1, 2), "S": (1, 2), "BS": (2, 2), "R": (1, 1),
              "SYMP": (0, 1)}

# A gate line is a head, then one argument at a time, then a tail. Each
# pattern always matches, and each piece after a blank run is optional, so
# where a piece is missing, the match ends at the column where it was due.
_HEAD = re.compile(r"[ \t]*(?:([A-Za-z]+)[ \t]*(\()?)?")
_ARG = re.compile(r'[ \t]*(?:([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?'
                  r'|"[^"]*")[ \t]*([,)])?)?')
_TAIL = re.compile(r"[ \t]*;?[ \t]*(?:#.*)?")


@dataclass(frozen=True)
class Gate:
    """One parsed gate: kind, integer mode arguments, float parameters."""

    kind: str
    modes: tuple[int, ...]
    params: tuple[float, ...]
    source: str | None = None   # SYMP file reference

    def __str__(self) -> str:
        if self.kind == "SYMP":
            return f'SYMP("{self.source}")'
        args = [str(m) for m in self.modes] + [repr(p) for p in self.params]
        return f"{self.kind}({', '.join(args)})"


@dataclass(frozen=True)
class CompiledCircuit:
    """Normal form e^{log_phase} W(h) T(element) of a gate list."""

    displacement: np.ndarray
    element: SymplecticElement
    log_phase: complex


def _expected(lineno: int, raw: str, pos: int, what: str
              ) -> CircuitSyntaxError:
    found = repr(raw[pos]) if pos < len(raw) else "end of line"
    return CircuitSyntaxError(lineno, pos + 1,
                              f"expected {what}, found {found}")


def parse(text: str) -> list[Gate]:
    """Parse circuit source into a gate list.

    Raises CircuitSyntaxError with 1-based line and column on malformed
    input, and ModeOutOfRangeError for negative or fractional mode indices.
    """
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        head = _HEAD.match(raw)
        pos = head.end()
        if head[1] is None:
            if pos == len(raw) or raw[pos] == "#":
                continue
            raise _expected(lineno, raw, pos, "a gate name")
        kind = head[1].upper()
        if kind not in _GATE_ARGS:
            raise CircuitSyntaxError(lineno, head.end(1) + 1,
                                     f"unknown gate '{kind}'")
        if head[2] is None:
            raise _expected(lineno, raw, pos, "'('")
        n_modes, n_params = _GATE_ARGS[kind]
        args = []
        for k in range(n_modes + n_params, 0, -1):
            arg = _ARG.match(raw, pos)
            value = arg[1]
            if value is None or (value[0] == '"') != (kind == "SYMP"):
                pos = arg.start(1) if value else arg.end()
                if kind != "SYMP":
                    raise _expected(lineno, raw, pos, "a number")
                if raw.startswith('"', pos):
                    raise CircuitSyntaxError(lineno, pos + 1,
                                             "unterminated string")
                raise _expected(lineno, raw, pos, "a quoted file name")
            sep = "," if k > 1 else ")"
            if arg[2] != sep:
                pos = arg.start(2) if arg[2] else arg.end()
                raise _expected(lineno, raw, pos, f"'{sep}'")
            args.append(value)
            pos = arg.end()
        if kind == "SYMP":
            gate = Gate("SYMP", (), (), args[0][1:-1])
        else:
            values = [float(v) for v in args]
            for v in values[:n_modes]:
                if not v.is_integer():
                    raise ModeOutOfRangeError(
                        f"line {lineno}: mode index must be an integer, got {v}")
                if v < 0:
                    raise ModeOutOfRangeError(
                        f"line {lineno}: mode index must be nonnegative, got {int(v)}")
            gate = Gate(kind, tuple(int(v) for v in values[:n_modes]),
                        tuple(values[n_modes:]))
        tail = _TAIL.match(raw, pos).end()
        if tail < len(raw):
            raise CircuitSyntaxError(lineno, tail + 1,
                                     "unexpected trailing input")
        gates.append(gate)
    return gates


def pretty(gates: list[Gate]) -> str:
    """Render gates back to source; parse(pretty(g)) == g."""
    return "\n".join(str(g) for g in gates) + ("\n" if gates else "")


def _check_modes(gate: Gate, dim: int) -> None:
    for m in gate.modes:
        if m >= dim:
            raise ModeOutOfRangeError(
                f"gate {gate} addresses mode {m}, but dimension is {dim}")
    if gate.kind == "BS" and gate.modes[0] == gate.modes[1]:
        raise ModeOutOfRangeError(
            f"gate {gate} must couple two distinct modes")


@_quiet
def _gate_arrays(gates: list[Gate], dim: int, base_dir: str, loaded: dict
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gates as arrays, each in gate order, not yet checked finite.

    Returns the (n, d, d) stacks Ug, Vg of the symplectic gates and the
    (m, d) shifts of the D gates. The entries of every S, BS and R gate,
    and of every D gate, are set by one fancy-indexed assignment per kind;
    a SYMP file is loaded and validated here, one at a time, unless loaded,
    the caller's memo of elements by path, holds it already. A parameter
    that overflows leaves a non-finite entry, without a numpy warning, for
    the caller to refuse with a typed error. A mode out of range, a bad
    SYMP file or an unknown kind raises for its gate.
    """
    rows = {"D": [], "S": [], "BS": [], "R": []}   # (index, *modes, *params)
    symp = []
    n = 0
    for gate in gates:
        _check_modes(gate, dim)
        if gate.kind == "D":
            rows["D"].append((len(rows["D"]),) + gate.modes + gate.params)
            continue
        if gate.kind == "SYMP":
            path = gate.source
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            if path not in loaded:
                loaded[path] = decode_symplectic(load_json(path))
            element = loaded[path]
            if element.dim != dim:
                raise DimensionMismatchError(
                    f"{gate} has dimension {element.dim}, circuit declares "
                    f"{dim}")
            symp.append((n, element))
        elif gate.kind in rows:
            rows[gate.kind].append((n,) + gate.modes + gate.params)
        else:
            raise DimensionMismatchError(
                f"gate {gate} is not a symplectic gate")
        n += 1
    Ug = np.zeros((n, dim, dim), dtype=complex)
    Ug[:] = np.eye(dim)
    Vg = np.zeros((n, dim, dim), dtype=complex)
    h = np.zeros((len(rows["D"]), dim), dtype=complex)
    for k, element in symp:
        Ug[k], Vg[k] = element.U, element.V
    cols = {kind: np.array(rows[kind], dtype=float).T
            for kind in rows if rows[kind]}
    if "D" in cols:
        j, mode, r, phi = cols["D"]
        j, mode = j.astype(int), mode.astype(int)
        h[j, mode] = r * np.exp(1j * phi)
    if "S" in cols:
        k, mode, r, phi = cols["S"]
        k, mode = k.astype(int), mode.astype(int)
        Ug[k, mode, mode] = np.cosh(r)
        Vg[k, mode, mode] = np.exp(1j * phi) * np.sinh(r)
    if "BS" in cols:
        k, i, j, theta, phi = cols["BS"]
        k, i, j = k.astype(int), i.astype(int), j.astype(int)
        Ug[k, i, i] = Ug[k, j, j] = np.cos(theta)
        Ug[k, i, j] = -np.exp(1j * phi) * np.sin(theta)
        Ug[k, j, i] = np.exp(-1j * phi) * np.sin(theta)
    if "R" in cols:
        k, mode, theta = cols["R"]
        k, mode = k.astype(int), mode.astype(int)
        Ug[k, mode, mode] = np.exp(1j * theta)
    return Ug, Vg, h


@_quiet   # an entry that overflowed is refused by the checks
def _stacked_pass(gates: list[Gate], dim: int, base_dir: str,
                  loaded: dict) -> CompiledCircuit:
    """The fold over (n, d, d) stacks, its checks in the order of one gate's
    stages, no gate's constraints among them; any failure raises a
    GaussFockError. loaded is _gate_arrays' memo of SYMP elements."""
    Ug, Vg, hd = _gate_arrays(gates, dim, base_dir, loaded)
    n = len(Ug)
    # P[k] = (U, V) of the product of the first k gates.
    P = np.empty((n + 1, 2, dim, dim), dtype=complex)
    P[0, 0], P[0, 1] = np.eye(dim), 0.0
    for k, (ug, vg) in enumerate(zip(Ug, Vg)):
        p = P[k]
        np.add(ug @ p, vg @ np.conj(p[::-1]), out=P[k + 1])
    PU, PV = P[:, 0], P[:, 1]
    _require_finite("matrix", Ug, Vg)
    log_det_g = _log_det_abs_u(np.linalg.svd(Vg, compute_uv=False))
    _require_finite("matrix", P)
    # P[0], the identity, passes with residual 0.
    res_p, log_det_p = _check_pairs(PU, PV)
    chi = _multiplier(Ug, PU[:-1], PU[1:], log_det_g,
                      log_det_p[:-1], log_det_p[1:])
    log_chi = iter(np.log(chi))
    shifts = iter(hd)
    h = h_last = np.zeros(dim, dtype=complex)
    log_phase = 0.0 + 0.0j
    k = 0
    for gate in gates:
        h_last = h
        if gate.kind == "D":
            hg = next(shifts)
            log_phase += -1j * np.vdot(hg, h).imag
            h = hg + h
        else:
            log_phase += next(log_chi)
            h = Ug[k] @ h + Vg[k] @ np.conj(h)
            k += 1
    # h_last, the input to the last gate, stands for every gate's input.
    _require_finite("vector", hd, h_last)
    element = _element(PU[n], PV[n], res_p[n], log_det_p[n])
    return CompiledCircuit(h, element, complex(log_phase))


def compile_circuit(gates: list[Gate], dim: int,
                    base_dir: str = ".") -> CompiledCircuit:
    """Fold a gate list into the normal form e^{log_phase} W(h) T(R).

    The stacked pass is the only route. If it fails, the shortest failing
    prefix, found by bisection, raises the first failure in (gate, stage)
    order; the module docstring says why that is exact. Each SYMP file is
    loaded at most once per call, however many passes run.
    """
    if dim < 1:
        raise DimensionMismatchError("circuit dimension must be at least 1")
    loaded = {}
    try:
        cc = _stacked_pass(gates, dim, base_dir, loaded)
    except GaussFockError as exc:
        error = exc
    else:
        _require_finite("vector", cc.displacement, cc.log_phase)
        return cc
    # gates[:lo] passes and gates[:hi] fails with error.
    lo, hi = 0, len(gates)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _stacked_pass(gates[:mid], dim, base_dir, loaded)
            lo = mid
        except GaussFockError as exc:
            hi, error = mid, exc
    raise error


def run(gates: list[Gate], dim: int, base_dir: str = ".") -> UltracoherentState:
    """State produced by the circuit on the vacuum, via the normal form."""
    cc = compile_circuit(gates, dim, base_dir)
    out = weyl_apply(cc.displacement, act(cc.element, vacuum(dim)))
    return make_state(out.Z, out.f, out.log_amp + cc.log_phase)


def run_sequential(gates: list[Gate], dim: int,
                   base_dir: str = ".") -> UltracoherentState:
    """Gate-by-gate application; must match run() including the phase.
    Gates come from the compile's builder; each SYMP file loads once."""
    state = vacuum(dim)
    loaded = {}
    for gate in gates:
        Ug, Vg, h = _gate_arrays([gate], dim, base_dir, loaded)
        if gate.kind == "D":
            state = weyl_apply(h[0], state)
        else:
            state = act(make_symplectic(Ug[0], Vg[0]), state)
    return state
