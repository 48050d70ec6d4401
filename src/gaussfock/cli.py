"""Command line interface.

Subcommands: overlap, apply, compose, run, verify, takagi, demo free-field.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import circuits, fock, representation as rep, states
from . import serialization as ser
from . import symplectic as sp
from . import verify as ver
from .errors import GaussFockError
from .linalg import takagi


def _common_flags(p: argparse.ArgumentParser, tol: bool = True) -> None:
    if tol:
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numerical tolerance (default 1e-9)")
    p.add_argument("--format", choices=("json", "text"), default=None,
                   help="output format (default json; verify defaults to text)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: read it,
    do not modify it."""
    parser = argparse.ArgumentParser(
        prog="gaussfock",
        description="Gaussian states on bosonic Fock space: overlaps, "
                    "symplectic actions, circuits, and self-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", help="inner product of two states")
    p.add_argument("--state-a", required=True, metavar="A.json")
    p.add_argument("--state-b", required=True, metavar="B.json")
    p.add_argument("--oracle", action="store_true",
                   help="also compare against the truncated-space oracle")
    p.add_argument("--cutoff", type=int, default=None,
                   help="oracle cutoff (default: chosen so the tail bound "
                        "is at most 1e-8)")
    _common_flags(p, tol=False)
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser("apply", help="apply a symplectic element to a state")
    p.add_argument("--symplectic", required=True, metavar="R.json")
    p.add_argument("--state", required=True, metavar="X.json")
    _common_flags(p)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("compose",
                       help="group product a*b (b acts first) and multiplier")
    p.add_argument("--a", required=True, metavar="R1.json")
    p.add_argument("--b", required=True, metavar="R2.json")
    _common_flags(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("run", help="run a circuit file on the vacuum")
    p.add_argument("--circuit", required=True, metavar="C.txt")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--normal-form", action="store_true",
                   help="print the compiled displacement/element/phase "
                        "instead of the output state")
    _common_flags(p, tol=False)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", action="append", default=None,
                   choices=["all"] + sorted(ver.SUITES),
                   help="suite name, repeatable (default all)")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=42,
                   help="random seed (default 42)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("takagi",
                       help="factor a complex symmetric matrix as F diag(a) F^T")
    p.add_argument("--matrix", required=True, metavar="A.json")
    _common_flags(p)
    p.set_defaults(handler=_cmd_takagi)

    p = sub.add_parser("demo", help="worked demonstrations")
    dsub = p.add_subparsers(dest="demo_command", required=True)
    q = dsub.add_parser("free-field",
                        help="one-parameter subgroup conjugated from a "
                             "diagonal free evolution")
    q.add_argument("--symplectic", required=True, metavar="R.json")
    q.add_argument("--spectrum", required=True, metavar="M.json")
    q.add_argument("--t", required=True, type=float)
    _common_flags(q)
    q.set_defaults(handler=_cmd_demo_free_field)

    return parser


def _emit(payload: dict, lines: list[str], fmt: str | None,
          body: dict | None = None) -> None:
    """Print payload as JSON, or the lines and then body as JSON in text."""
    if fmt == "text":
        print("\n".join(lines))
        payload = body
    if payload is not None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _cmd_overlap(args) -> int:
    a = ser.decode_state(ser.load_json(args.state_a))
    b = ser.decode_state(ser.load_json(args.state_b))
    val = states.overlap(a, b)
    payload: dict = {"overlap": ser.encode_complex(val)}
    lines = [f"overlap = {val.real:+.12e} {val.imag:+.12e}j"]
    if args.oracle:
        cutoff = args.cutoff
        if cutoff is None:
            cutoff = max(fock.cutoff_for(a, 1e-8), fock.cutoff_for(b, 1e-8))
        oracle_val = fock.inner(fock.represent_state(a, cutoff),
                                fock.represent_state(b, cutoff))
        diff = abs(val - oracle_val)
        rel = diff / max(abs(val), abs(oracle_val), 1e-300)
        payload.update({
            "oracle": ser.encode_complex(oracle_val),
            "cutoff": cutoff,
            "abs_difference": diff,
            "rel_difference": rel,
        })
        lines += [
            f"oracle  = {oracle_val.real:+.12e} {oracle_val.imag:+.12e}j"
            f"  (cutoff {cutoff})",
            f"difference: abs {diff:.3e}, rel {rel:.3e}",
        ]
    _emit(payload, lines, args.format)
    return 0


def _cmd_apply(args) -> int:
    r = ser.decode_symplectic(ser.load_json(args.symplectic), tol=args.tol)
    x = ser.decode_state(ser.load_json(args.state))
    y = rep.act(r, x)
    payload = ser.encode_state(y)
    _emit(payload, ["output state:"], args.format, payload)
    return 0


def _cmd_compose(args) -> int:
    ra = ser.decode_symplectic(ser.load_json(args.a), tol=args.tol)
    rb = ser.decode_symplectic(ser.load_json(args.b), tol=args.tol)
    prod = sp.compose(ra, rb, tol=args.tol)
    chi = rep._element_multiplier(ra, rb, prod)
    payload = {"product": ser.encode_symplectic(prod),
               "multiplier": ser.encode_complex(chi)}
    lines = [f"multiplier = {chi.real:+.12e} {chi.imag:+.12e}j",
             "product element:"]
    _emit(payload, lines, args.format, payload["product"])
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GaussFockError(f"cannot read circuit file: {exc}") from exc
    gates = circuits.parse(text)
    base = os.path.dirname(os.path.abspath(args.circuit))
    if args.normal_form:
        cc = circuits.compile_circuit(gates, args.dim, base_dir=base)
        payload = {
            "displacement": ser.encode_vector(cc.displacement),
            "element": ser.encode_symplectic(cc.element),
            "log_phase": ser.encode_complex(cc.log_phase),
        }
        header = "compiled normal form:"
    else:
        out = circuits.run(gates, args.dim, base_dir=base)
        payload = ser.encode_state(out)
        header = "output state:"
    _emit(payload, [header], args.format, payload)
    return 0


def _cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = sorted(ver.SUITES)
    t0 = time.perf_counter()
    results = ver.run_suites(names, args.seed, args.trials, args.tol)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results)
    payload = {
        "passed": ok,
        "elapsed_seconds": elapsed,
        "checks": [{"suite": r.suite, "name": r.name,
                    "residual": r.residual, "tol": r.tol,
                    "passed": r.passed} for r in results],
    }
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    lines = [f"[{'pass' if r.passed else 'FAIL'}] {r.suite}: "
             f"{r.name:<{width - len(r.suite) - 2}}"
             f"  residual {r.residual:.3e}  (tol {r.tol:.1e})"
             for r in results]
    lines.append(f"{'ok' if ok else 'FAILED'}: "
                 f"{sum(r.passed for r in results)}/{len(results)} checks "
                 f"in {elapsed:.1f} s")
    _emit(payload, lines, args.format or "text")
    return 0 if ok else 1


def _cmd_takagi(args) -> int:
    A = ser.decode_matrix(ser.load_json(args.matrix))
    F, alphas = takagi(A, tol=args.tol)
    resid = float(np.linalg.norm(A - F @ np.diag(alphas) @ F.T))
    payload = {"F": ser.encode_matrix(F),
               "alphas": [float(a) for a in alphas],
               "residual": resid}
    lines = [f"alphas = {', '.join(f'{a:.12g}' for a in alphas)}",
             f"reconstruction residual = {resid:.3e}",
             "factor F:"]
    _emit(payload, lines, args.format, payload["F"])
    return 0


def _cmd_demo_free_field(args) -> int:
    r = ser.decode_symplectic(ser.load_json(args.symplectic), tol=args.tol)
    raw = ser.decode_vector(ser.load_json(args.spectrum))
    if np.any(np.abs(raw.imag) > 0):
        raise GaussFockError("spectrum must be a real vector")
    element = sp.conjugated_free_field(r, raw.real, args.t, tol=args.tol)
    payload = ser.encode_symplectic(element)
    header = f"conjugated free-field element at t = {args.t}:"
    _emit(payload, [header], args.format, payload)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GaussFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
