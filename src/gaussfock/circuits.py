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

compile_circuit works on stacks. It builds the n symplectic gates as
(n, d, d) stacks Ug, Vg; folds the running products U3 = Ug U1 + Vg V1~,
V3 = Ug V1 + Vg U1~ with matmuls alone, keeping every product; and then
runs each check once over the whole stack, with the formulas and
tolerances of the single-element routes: the constraint residual of every
gate and every product (make_symplectic's kernel), log det|U| of both, and
the multiplier of every gate with the product before it. The phase and
displacement are then folded in gate order. The result is byte for byte the
gate-by-gate fold through compose and multiplier.

A gate-by-gate fold checks gate i in this order: build it (mode range, a
SYMP file, finite entries), validate it, validate its product, evaluate its
multiplier, then check the displacement it acts on. The stacked fold raises
the same error for the first failure in (gate, stage) order: each stage
runs only on the gates before the first failure found so far, and the
error is raised by the single-element route on the failing entry.
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
    InternalInconsistencyError,
    ModeOutOfRangeError,
)
from .linalg import as_vector, mat_conj
from .representation import _multiplier, act
from .serialization import decode_symplectic, load_json
from .states import UltracoherentState, make_state, vacuum, weyl_apply
from .symplectic import (
    DEFAULT_TOL,
    SymplecticElement,
    _constraint_residual,
    _log_det_abs_u,
    identity,
    make_symplectic,
    symplectic_form,
)

__all__ = [
    "Gate",
    "CompiledCircuit",
    "parse",
    "pretty",
    "compile_circuit",
    "run",
    "run_sequential",
]

_GATE_ARITY = {"D": 3, "S": 3, "BS": 4, "R": 2, "SYMP": 1}
_INT_ARGS = {"D": 1, "S": 1, "BS": 2, "R": 1, "SYMP": 0}

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z]+")


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


class _LineParser:
    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str):
        raise CircuitSyntaxError(self.lineno, self.pos + 1, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of line"
            self.error(f"expected '{ch}', found {found!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error("expected a gate name")
        self.pos = m.end()
        return m.group()

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group())

    def string(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.error("expected a quoted file name")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.error("unterminated string")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        return value


def parse(text: str) -> list[Gate]:
    """Parse circuit source into a gate list.

    Raises CircuitSyntaxError with 1-based line and column on malformed
    input, and ModeOutOfRangeError for negative or fractional mode indices.
    """
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        lp = _LineParser(raw, lineno)
        if lp.at_end():
            continue
        kind = lp.name().upper()
        if kind not in _GATE_ARITY:
            lp.error(f"unknown gate '{kind}'")
        lp.expect("(")
        if kind == "SYMP":
            source = lp.string()
            lp.expect(")")
            gate = Gate("SYMP", (), (), source)
        else:
            args = []
            for k in range(_GATE_ARITY[kind]):
                if k:
                    lp.expect(",")
                args.append(lp.number())
            lp.expect(")")
            n_int = _INT_ARGS[kind]
            modes = []
            for v in args[:n_int]:
                if v != int(v):
                    raise ModeOutOfRangeError(
                        f"line {lineno}: mode index must be an integer, got {v}")
                if v < 0:
                    raise ModeOutOfRangeError(
                        f"line {lineno}: mode index must be nonnegative, got {int(v)}")
                modes.append(int(v))
            gate = Gate(kind, tuple(modes), tuple(args[n_int:]))
        lp.skip_ws()
        if lp.pos < len(lp.text) and lp.text[lp.pos] == ";":
            lp.pos += 1
        if not lp.at_end():
            lp.error("unexpected trailing input")
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


def _gate_matrices(gate: Gate, dim: int,
                   base_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) of one symplectic gate, not yet validated.

    A parameter that overflows leaves a non-finite entry, without a numpy
    warning, for make_symplectic to refuse with a typed error. A SYMP file
    is loaded and validated here.
    """
    _check_modes(gate, dim)
    if gate.kind == "SYMP":
        path = gate.source
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        r = decode_symplectic(load_json(path))
        if r.dim != dim:
            raise DimensionMismatchError(
                f"{gate} has dimension {r.dim}, circuit declares {dim}")
        return r.U, r.V
    if gate.kind not in ("S", "BS", "R"):
        raise DimensionMismatchError(f"gate {gate} is not a symplectic gate")
    U = np.eye(dim, dtype=complex)
    V = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if gate.kind == "S":
            mode, = gate.modes
            r, phi = gate.params
            U[mode, mode] = np.cosh(r)
            V[mode, mode] = np.exp(1j * phi) * np.sinh(r)
        elif gate.kind == "BS":
            i, j = gate.modes
            theta, phi = gate.params
            U[i, i] = U[j, j] = np.cos(theta)
            U[i, j] = -np.exp(1j * phi) * np.sin(theta)
            U[j, i] = np.exp(-1j * phi) * np.sin(theta)
        else:
            mode, = gate.modes
            theta, = gate.params
            U[mode, mode] = np.exp(1j * theta)
    return U, V


def _gate_element(gate: Gate, dim: int, base_dir: str) -> SymplecticElement:
    return make_symplectic(*_gate_matrices(gate, dim, base_dir))


def _displacement_vector(gate: Gate, dim: int) -> np.ndarray:
    _check_modes(gate, dim)
    mode, = gate.modes
    r, phi = gate.params
    h = np.zeros(dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        h[mode] = r * np.exp(1j * phi)
    return h


def _first_false(ok: np.ndarray) -> int:
    return int(np.argmin(ok)) if not ok.all() else len(ok)


def _first_rejected(U: np.ndarray, V: np.ndarray) -> int:
    """Index of the first pair of the stacks make_symplectic rejects, else n.

    The residual runs only on the prefix before the first non-finite pair.
    """
    finite = np.isfinite(U).all(axis=(1, 2)) & np.isfinite(V).all(axis=(1, 2))
    n = _first_false(finite)
    return _first_false(_constraint_residual(U[:n], V[:n]) <= DEFAULT_TOL)


def _raised(check, *args) -> GaussFockError:
    """The error the single-element route raises where a stack check failed."""
    try:
        check(*args)
    except GaussFockError as exc:
        return exc
    raise InternalInconsistencyError(
        f"{check.__name__} accepts an entry its stacked check rejected")


def compile_circuit(gates: list[Gate], dim: int,
                    base_dir: str = ".") -> CompiledCircuit:
    """Fold a gate list into the normal form e^{log_phase} W(h) T(R).

    The stages and the order of their checks are in the module docstring.
    """
    if dim < 1:
        raise DimensionMismatchError("circuit dimension must be at least 1")
    # Each stage runs on the gates before `stop`, the first gate known to
    # fail, whose error is `error`; a stage that fails earlier moves both.
    stop, error = len(gates), None

    # 1. Build: mode checks, SYMP files, displacement vectors, gate stacks.
    n = sum(gate.kind != "D" for gate in gates)
    Ug = np.empty((n, dim, dim), dtype=complex)
    Vg = np.empty((n, dim, dim), dtype=complex)
    where, shifts = [], {}      # gate index of each stack entry; D vectors
    for i, gate in enumerate(gates):
        try:
            if gate.kind == "D":
                shifts[i] = as_vector(_displacement_vector(gate, dim))
            else:
                k = len(where)
                Ug[k], Vg[k] = _gate_matrices(gate, dim, base_dir)
                where.append(i)
        except GaussFockError as exc:
            stop, error = i, exc
            break
    n = len(where)
    Ug, Vg = Ug[:n], Vg[:n]

    # 2. Validate every gate element.
    j = _first_rejected(Ug, Vg)
    if j < n:
        stop, error, n = where[j], _raised(make_symplectic, Ug[j], Vg[j]), j

    # 3. Fold the running products U1 -> U3 = Ug U1 + Vg V1~, and validate
    #    each. PU[k], PV[k] is the product of the first k gates.
    PU = np.empty((n + 1, dim, dim), dtype=complex)
    PV = np.empty((n + 1, dim, dim), dtype=complex)
    PU[0], PV[0] = np.eye(dim), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            PU[k + 1] = Ug[k] @ PU[k] + Vg[k] @ mat_conj(PV[k])
            PV[k + 1] = Ug[k] @ PV[k] + Vg[k] @ mat_conj(PU[k])
    j = _first_rejected(PU[1:], PV[1:])
    if j < n:
        stop, error, n = where[j], _raised(make_symplectic, PU[j + 1],
                                           PV[j + 1]), j

    # 4. Fold the displacement, and the Weyl phases of the D gates. A gate
    #    checks its incoming h last, after its multiplier, so a failure here
    #    keeps a symplectic gate's own multiplier in stage 5.
    h = np.zeros(dim, dtype=complex)
    terms = []      # log_phase increments in gate order; None for a chi
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(stop):
            if not np.isfinite(h).all():
                stop, error = i, _raised(as_vector, h)
                n = k + (gates[i].kind != "D")
                break
            if i in shifts:
                terms.append(-1j * symplectic_form(shifts[i], h))
                h = shifts[i] + h
            else:
                h = Ug[k] @ h + Vg[k] @ np.conj(h)
                terms.append(None)
                k += 1

    # 5. The multiplier of every gate with its running product.
    log_det_g = _log_det_abs_u(Vg[:n])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Long after a multiplier fails its modulus check, products can be
        # too squeezed for eigvalsh to resolve I + VV+: 5000 of verify's
        # random d=4 gates fail at gate 1325 and reach ||U|| ~ 1e10 near
        # gate 4000. Those logs come out NaN, silently, behind the gate
        # that raises first; a NaN before any failure fails its own gate's
        # modulus check.
        log_det_p = _log_det_abs_u(PV[:n + 1])
    args = (Ug[:n], PU[:n], PU[1:n + 1], log_det_g, log_det_p[:n],
            log_det_p[1:])
    try:
        chi = _multiplier(*args)
    except GaussFockError:
        # The stack raised its first failing check; replaying gate by gate
        # raises the first failing gate's, as the sequential fold does.
        for k in range(n):
            _multiplier(*(a[k] for a in args))
        raise
    if error is not None:
        raise error

    log_chi = iter(np.log(chi))
    log_phase = 0.0 + 0.0j
    for term in terms:
        log_phase += next(log_chi) if term is None else term
    element = make_symplectic(PU[n], PV[n]) if n else identity(dim)
    return CompiledCircuit(h, element, complex(log_phase))


def run(gates: list[Gate], dim: int, base_dir: str = ".") -> UltracoherentState:
    """State produced by the circuit on the vacuum, via the normal form."""
    cc = compile_circuit(gates, dim, base_dir)
    out = weyl_apply(cc.displacement, act(cc.element, vacuum(dim)))
    return make_state(out.Z, out.f, out.log_amp + cc.log_phase)


def run_sequential(gates: list[Gate], dim: int,
                   base_dir: str = ".") -> UltracoherentState:
    """Gate-by-gate application; must match run() including the phase."""
    state = vacuum(dim)
    for gate in gates:
        if gate.kind == "D":
            state = weyl_apply(_displacement_vector(gate, dim), state)
        else:
            state = act(_gate_element(gate, dim, base_dir), state)
    return state
