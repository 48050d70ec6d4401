"""Benchmark workloads: seeded inputs, one round of operations, checks.

A workload builder takes the imported package, the seed and a scratch
directory, writes whatever input files the command line needs there, and
returns one round: a fixed list of operations. The harness repeats whole
rounds. Each operation's ``run`` is the timed call into the program; its
``check`` runs afterwards, outside the timed region, and returns None or a
description of what is wrong.

Input sizes are stratified rather than drawn: the spectra of the disc points,
the lengths of the displacement vectors and the gate mix are fixed per slot
in the round, and the seed draws only frames, directions, phases and gate
order. So every seed costs about the same and the spread between seeds stays
small, while the values checked still change with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import numpy as np

import reference as ref

# tolerances as in `gaussfock verify` and tests/test_acceptance.py
MASTER_TOL = 1e-6        # closed form against the truncated oracle, relative
IDENTITY_TOL = 1e-9      # group, ray and circuit identities
MOEBIUS_SYM_TOL = 1e-10  # symmetry of a Moebius image
MODULUS_TOL = 1e-10      # |chi| = 1
CCR_TOL = 1e-10          # commutation relations below the cutoff


class OperationFailed(Exception):
    """The command line reported an error through a nonzero exit code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    cutoffs: int = 0          # cutoffs the operation chooses
    argv: list[str] | None = None   # command line, for CLI operations


def _cli(gf, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gf.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit code {code}")
    return buf.getvalue()


def _enc_c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _enc_matrix(A) -> dict:
    return {"rows": A.shape[0], "cols": A.shape[1],
            "data": [_enc_c(z) for z in A.ravel()]}


def _enc_state(x) -> dict:
    Z, f, la = x
    return {"dim": Z.shape[0], "Z": _enc_matrix(Z),
            "f": [_enc_c(z) for z in f], "log_amp": _enc_c(la)}


def _dec_matrix(obj) -> np.ndarray:
    data = np.array(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _dec_state(obj):
    f = np.array(obj["f"], dtype=float).reshape(-1, 2)
    return (_dec_matrix(obj["Z"]), f[:, 0] + 1j * f[:, 1],
            complex(*obj["log_amp"]))


def _dec_c(pair) -> complex:
    return complex(pair[0], pair[1])


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _log_amp(rng) -> complex:
    return complex(rng.uniform(-0.2, 0.2), rng.uniform(-1.5, 1.5))


# --------------------------------------------------------------------------
# oracle-overlap: `gaussfock overlap --oracle` at d = 1, 2, 3

# verify's master check: ||Z|| < 0.6, 0.6, 0.45 and ||f|| < 1.0, 1.0, 0.9
_ORACLE_Z = {1: 0.6, 2: 0.6, 3: 0.45}
_ORACLE_F = {1: 1.0, 2: 1.0, 3: 0.9}
_ORACLE_SHAPE = {1: (1.0,), 2: (1.0, 0.5), 3: (1.0, 0.6, 0.3)}
# per-slot fractions of the norm caps, stratified over (0.05, 1) and paired
# as a Latin square, so every round pairs small and large states alike
_SLOTS = 8
_ORACLE_ZX = tuple(0.05 + 0.95 * (k + 0.5) / _SLOTS for k in range(_SLOTS))
_ORACLE_ZY = tuple(_ORACLE_ZX[(3 * k + 5) % _SLOTS] for k in range(_SLOTS))
_ORACLE_FX = _ORACLE_ZX[::-1]
_ORACLE_FY = tuple(_ORACLE_ZX[(5 * k + 2) % _SLOTS] for k in range(_SLOTS))


def _oracle_references():
    """Per slot, the displacement in the Takagi frame of Z, drawn once.

    The seed then moves each state along its orbit under the passive
    unitaries K: Z -> K Z K^T, f -> K f. The tail bound, and with it the
    cutoff and the oracle's cost, is the same all along an orbit.
    """
    rng = np.random.default_rng(20040)
    out = {}
    for d in (1, 2, 3):
        for k in range(len(_ORACLE_ZX)):
            for side, fs in (("x", _ORACLE_FX), ("y", _ORACLE_FY)):
                out[d, k, side] = _ORACLE_F[d] * fs[k] * ref.unit_vector(d, rng)
    return out


_ORACLE_REF_F = _oracle_references()


def oracle_overlap(gf, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for d in (1, 2, 3):
        shape = np.array(_ORACLE_SHAPE[d])
        for k in range(len(_ORACLE_ZX)):
            pair = []
            for side, zs in (("x", _ORACLE_ZX), ("y", _ORACLE_ZY)):
                K = ref.unitary(d, rng)
                Z = (K * (_ORACLE_Z[d] * zs[k] * shape)) @ K.T
                f = K @ _ORACLE_REF_F[d, k, side]
                pair.append((Z, f, _log_amp(rng)))
            x, y = pair
            pa = _write_json(os.path.join(workdir, f"ov-{d}-{k}-a.json"),
                             _enc_state(x))
            pb = _write_json(os.path.join(workdir, f"ov-{d}-{k}-b.json"),
                             _enc_state(y))
            argv = ["overlap", "--state-a", pa, "--state-b", pb, "--oracle"]
            expect = np.exp(ref.log_overlap(x, y))
            ops.append(Op(f"overlap-d{d}",
                          lambda argv=argv: _cli(gf, argv),
                          lambda out, e=expect: check_oracle_overlap(out, e),
                          cutoffs=1, argv=argv))
    return ops


def check_oracle_overlap(out: str, expect: complex) -> str | None:
    res = json.loads(out)
    closed, oracle = _dec_c(res["overlap"]), _dec_c(res["oracle"])
    rel = abs(closed - oracle) / max(abs(closed), abs(oracle), 1e-300)
    if not rel <= MASTER_TOL:
        return f"closed form and oracle differ by {rel:.3e} relative"
    rel = abs(closed - expect) / max(abs(expect), 1e-300)
    if not rel <= IDENTITY_TOL:
        return f"closed form differs from the reference by {rel:.3e}"
    return None


# --------------------------------------------------------------------------
# oracle-operators: fock.gamma, fock.weyl, create/annihilate on the flat basis

# three cutoffs around each of (1, 60), (2, 24), (3, 10), so that costs
# spread evenly rather than in three steps
OPERATOR_SIZES = ((1, 50), (1, 60), (1, 70), (2, 22), (2, 24), (2, 26),
                  (3, 9), (3, 10), (3, 11))
_GAMMA_F = 0.7     # |f| of the exponential vector Gamma(K) acts on
_WEYL_H = 0.6      # |h| of the displacement


def _tensor_entries(indices, coeffs) -> dict:
    return {"entries": [[list(m), _enc_c(c)] for m, c in zip(indices, coeffs)]}


def _entry_map(gf, F) -> dict:
    return {tuple(m): _dec_c(c)
            for m, c in gf.serialization.encode_tensor(F)["entries"]}


def oracle_operators(gf, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    fock, ser = gf.fock, gf.serialization
    ops = []
    for d, N in OPERATOR_SIZES:
        idx = ref.basis(d, N)
        weights = ref.fock_weights(idx)

        K = ref.unitary(d, rng)
        f = _GAMMA_F * ref.unit_vector(d, rng)
        expf = ser.decode_tensor({"dim": d, "cutoff": N, **_tensor_entries(
            idx, ref.exp_coefficients(f, idx))})
        want = ref.exp_coefficients(K @ f, idx)
        ops.append(Op(f"gamma-d{d}",
                      lambda K=K, N=N, T=expf: fock.apply_operator(
                          fock.gamma(K, N), T),
                      lambda out, i=idx, w=want, wt=weights: check_gamma(
                          gf, out, i, w, wt)))

        # equal moduli, random phases: the 1-norm of the generator, which
        # sets the squarings in expm, does not depend on the seed
        h = _WEYL_H / np.sqrt(d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        vac = ser.decode_tensor({"dim": d, "cutoff": N,
                                 "entries": [[[0] * d, [1.0, 0.0]]]})
        low = idx[:comb(N // 3 + d, d)]
        col = np.exp(-0.5 * np.vdot(h, h).real) * ref.exp_coefficients(h, low)
        u, v = (_GAMMA_F * ref.unit_vector(d, rng) for _ in range(2))
        # the ladder operators for the CCR ride along with W(h), which is
        # built from the same create/annihilate matrices
        ops.append(Op(f"weyl-d{d}",
                      lambda h=h, u=u, v=v, N=N, T=vac: (
                          fock.apply_operator(fock.weyl(h, N), T),
                          (fock.create(u, N), fock.annihilate(u.conj(), N),
                           fock.create(v, N), fock.annihilate(v.conj(), N))),
                      lambda out, i=low, w=col, u=u, v=v,
                      n=comb(N - 1 + d, d): check_weyl(gf, out[0], i, w)
                      or check_ccr(out[1], u, v, n)))
    return ops


def check_gamma(gf, out, indices, want, weights) -> str | None:
    got = _entry_map(gf, out)
    diff = np.array([got.get(m, 0.0) for m in indices]) - want
    res = float(np.sqrt(np.sum(weights * np.abs(diff) ** 2)))
    if not res <= IDENTITY_TOL:
        return f"Gamma(K) exp f misses exp(K f) by {res:.3e} in Fock norm"
    return None


def check_weyl(gf, out, low, want) -> str | None:
    got = _entry_map(gf, out)
    err = float(np.max(np.abs(np.array([got.get(m, 0.0) for m in low]) - want)))
    if not err <= IDENTITY_TOL:
        return f"vacuum column of W(h) off by {err:.3e} below degree N/3"
    return None


def check_ccr(out, u, v, n_below) -> str | None:
    cu, au, cv, av = (np.asarray(op.matrix) for op in out)
    X, Y = cu - au, cv - av
    keep = slice(0, n_below)
    comm = X[keep] @ Y[:, keep] - Y[keep] @ X[:, keep]
    want = -2j * np.vdot(u, v).imag * np.eye(n_below)
    err = float(np.max(np.abs(comm - want)))
    if not err <= CCR_TOL:
        return f"[a(u), a(v)] off the CCR by {err:.3e} below the cutoff"
    return None


# --------------------------------------------------------------------------
# calculus-d96: closed forms at d = 96, where LAPACK dominates

CALCULUS_DIM = 96
_CALC_Z = (0.3, 0.55)      # ||Z|| per input set
_CALC_F = (0.5, 0.9)       # ||f|| per input set
_CALC_SQUEEZE = 1.5        # squeeze parameters uniform in [0, 1.5]


def calculus_d96(gf, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    sp, rep = gf.symplectic, gf.representation
    states, siegel = gf.states, gf.siegel
    d = CALCULUS_DIM
    ops = []
    for zn, fn in zip(_CALC_Z, _CALC_F):
        x, y = ((zn * ref.symmetric_direction(d, rng),
                 fn * ref.unit_vector(d, rng), _log_amp(rng)) for _ in range(2))
        r1, r2 = (ref.random_element(d, rng, _CALC_SQUEEZE) for _ in range(2))
        px, py = (states.make_state(*s) for s in (x, y))
        pr1, pr2 = (sp.make_symplectic(*r) for r in (r1, r2))

        expect = np.exp(ref.log_overlap(x, y))
        ops.append(Op("overlap", lambda a=px, b=py: states.overlap(a, b),
                      lambda out, e=expect: check_overlap(out, e)))
        ops.append(Op("act", lambda r=pr1, a=px, b=py: (rep.act(r, a),
                                                         rep.act(r, b)),
                      lambda out, e=expect: check_act(out, e)))
        two_step = ref.act(r2, ref.act(r1, x))
        ops.append(Op("compose-multiplier",
                      lambda a=pr2, b=pr1: (sp.compose(a, b),
                                            rep.multiplier(a, b)),
                      lambda out, r1=r1, r2=r2, x=x, t=two_step:
                      check_composition(out, r1, r2, x, t)))
        direct = ref.moebius(ref.compose(r2, r1), x[0])
        ops.append(Op("moebius", lambda r=pr1, p=px.Z: siegel.moebius(r, p),
                      lambda out, r2=r2, t=direct: check_moebius(
                          out.Z, r2, t)))
        ops.append(Op("polar", lambda r=pr1: sp.polar_factorize(r),
                      lambda out, r=r1: check_polar(out, r)))
    return ops


def _triple(s):
    return (np.asarray(s.Z.Z), np.asarray(s.f), complex(s.log_amp))


def check_overlap(out, expect) -> str | None:
    rel = abs(out - expect) / max(abs(expect), 1e-300)
    if not rel <= IDENTITY_TOL:
        return f"overlap differs from the reference by {rel:.3e}"
    return None


def check_act(out, before) -> str | None:
    after = np.exp(ref.log_overlap(_triple(out[0]), _triple(out[1])))
    rel = abs(after - before) / max(abs(before), 1e-300)
    if not rel <= IDENTITY_TOL:
        return f"T(r) changes an overlap by {rel:.3e} relative"
    return None


def check_composition(out, r1, r2, x, two_step) -> str | None:
    r3, chi = out
    U3, V3 = ref.compose(r2, r1)
    scale = 1.0 + np.linalg.norm(U3, 2)
    dev = max(np.linalg.norm(r3.U - U3), np.linalg.norm(r3.V - V3)) / scale
    if not dev <= IDENTITY_TOL:
        return f"product differs from (U2U1 + V2V1~, ...) by {dev:.3e}"
    if not abs(abs(chi) - 1.0) <= MODULUS_TOL:
        return f"|chi| - 1 = {abs(chi) - 1.0:.3e}"
    Z, f, la = ref.act((np.asarray(r3.U), np.asarray(r3.V)), x)
    res = ref.state_residual(two_step, (Z, f, la + np.log(chi)))
    if not res <= IDENTITY_TOL:
        return f"T(r2)T(r1)x misses chi T(r2 r1)x by {res:.3e}"
    return None


def check_moebius(W, r2, direct) -> str | None:
    """direct is r2 r1 applied to Z by the reference; W is r1 applied by
    the program."""
    W = np.asarray(W)
    asym = np.linalg.norm(W - W.T)
    if not asym <= MOEBIUS_SYM_TOL * (1.0 + np.linalg.norm(W, 2)):
        return f"Moebius image is not symmetric: {asym:.3e}"
    if not np.linalg.norm(W, 2) < 1.0:
        return "Moebius image left the disc"
    via = ref.moebius(r2, W)
    dev = np.linalg.norm(via - direct)
    if not dev <= IDENTITY_TOL:
        return f"Moebius cocycle off by {dev:.3e}"
    return None


def check_polar(out, r) -> str | None:
    K1, A, K2 = (np.asarray(m) for m in out)
    U, V = r
    eye = np.eye(U.shape[0])
    for name, K in (("K1", K1), ("K2", K2)):
        dev = np.linalg.norm(ref.adj(K) @ K - eye)
        if not dev <= IDENTITY_TOL:
            return f"{name} is not unitary: {dev:.3e}"
    lam = np.diag(A)
    if np.any(A != np.diag(lam)) or np.any(np.iscomplex(lam)):
        return "squeeze factor is not real diagonal"
    lam = lam.real
    rec_u = K1 @ (np.cosh(lam)[:, None] * K2)
    rec_v = K1 @ (np.sinh(lam)[:, None] * K2.conj())
    dev = max(np.linalg.norm(rec_u - U), np.linalg.norm(rec_v - V)) \
        / (1.0 + np.linalg.norm(U, 2))
    if not dev <= IDENTITY_TOL:
        return f"polar factors recompose with residual {dev:.3e}"
    return None


# --------------------------------------------------------------------------
# circuits-d4: `gaussfock run` on 150-gate circuits at d = 4

CIRCUIT_DIM = 4
CIRCUITS_PER_ROUND = 12
# lengths 100..200 gates, about 150 on average, a fifth of them displacements
_LENGTHS = tuple(100 + round(100 * c / (CIRCUITS_PER_ROUND - 1))
                 for c in range(CIRCUITS_PER_ROUND))
_WITH_SYMP = (0, 7)          # these circuits trade three R gates for SYMP
_SYMP_PER_CIRCUIT = 3
_WITH_INVERSE = (1, 4, 7, 10)    # these are followed by their inverse
_SQUEEZE_MAX = 0.5
_SYMP_SQUEEZE = 0.5


def _gate_lines(kinds, rng, d, symp_files) -> tuple[list[str], list[str]]:
    """Source lines of a gate list and of its gate-by-gate inverse."""
    fwd, inv = [], []
    tau = 2.0 * np.pi
    for kind in kinds:
        m = int(rng.integers(0, d))
        if kind == "D":
            r, phi = rng.uniform(0.0, 0.8), rng.uniform(0.0, tau)
            fwd.append(f"D({m}, {r!r}, {phi!r})")
            inv.append(f"D({m}, {r!r}, {phi + np.pi!r})")
        elif kind == "S":
            r, phi = rng.uniform(0.0, _SQUEEZE_MAX), rng.uniform(0.0, tau)
            fwd.append(f"S({m}, {r!r}, {phi!r})")
            inv.append(f"S({m}, {-r!r}, {phi!r})")
        elif kind == "R":
            theta = rng.uniform(0.0, tau)
            fwd.append(f"R({m}, {theta!r})")
            inv.append(f"R({m}, {-theta!r})")
        elif kind == "BS":
            n = int((m + 1 + rng.integers(0, d - 1)) % d)
            theta, phi = rng.uniform(0.0, tau), rng.uniform(0.0, tau)
            fwd.append(f"BS({m}, {n}, {theta!r}, {phi!r})")
            inv.append(f"BS({m}, {n}, {-theta!r}, {phi!r})")
        else:
            name, inv_name = symp_files.pop()
            fwd.append(f'SYMP("{name}")')
            inv.append(f'SYMP("{inv_name}")')
    return fwd, inv[::-1]


def circuits_d4(gf, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    d = CIRCUIT_DIM
    ops = []
    for c in range(CIRCUITS_PER_ROUND):
        n = _LENGTHS[c]
        n_d = n // 5
        n_s = n_r = (n - n_d) // 3
        kinds = (["D"] * n_d + ["S"] * n_s + ["R"] * n_r
                 + ["BS"] * (n - n_d - n_s - n_r))
        symp_files = []
        if c in _WITH_SYMP:
            for j in range(_SYMP_PER_CIRCUIT):
                kinds[kinds.index("R")] = "SYMP"
                U, V = ref.random_element(d, rng, _SYMP_SQUEEZE)
                name, inv_name = f"symp-{c}-{j}.json", f"symp-{c}-{j}-inv.json"
                _write_json(os.path.join(workdir, name),
                            {"dim": d, "U": _enc_matrix(U), "V": _enc_matrix(V)})
                _write_json(os.path.join(workdir, inv_name),
                            {"dim": d, "U": _enc_matrix(ref.adj(U)),
                             "V": _enc_matrix(-V.T)})
                symp_files.append((name, inv_name))
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        fwd, inv = _gate_lines(kinds, rng, d, symp_files)
        inverse = c in _WITH_INVERSE
        lines = fwd + inv if inverse else fwd
        path = os.path.join(workdir, f"circuit-{c}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        argv = ["run", "--circuit", path, "--dim", str(d)]
        run = (lambda argv=argv: _cli(gf, argv))
        if inverse:
            ops.append(Op("circuit+inverse", run, check_round_trip))
        else:
            ops.append(Op("circuit", run, _sequential_check(gf, path, d)))
    return ops


def _sequential_check(gf, path: str, d: int):
    """Check against circuits.run_sequential, computed once per circuit."""
    cache = {}

    def check(out: str) -> str | None:
        x = _dec_state(json.loads(out))
        if "seq" not in cache:
            with open(path, encoding="utf-8") as fh:
                gates = gf.circuits.parse(fh.read())
            cache["seq"] = _triple(gf.circuits.run_sequential(
                gates, d, base_dir=os.path.dirname(path)))
        return check_plain_circuit(x, cache["seq"])

    return check


def check_plain_circuit(x, seq) -> str | None:
    dev = abs(ref.norm(x) - 1.0)
    if not dev <= IDENTITY_TOL:
        return f"output norm is off 1 by {dev:.3e}"
    res = ref.state_residual(x, seq)
    if not res <= IDENTITY_TOL:
        return f"normal form misses sequential execution by {res:.3e}"
    return None


def check_round_trip(out: str) -> str | None:
    x = _dec_state(json.loads(out))
    Z, f, _ = x
    if not (np.linalg.norm(Z) <= IDENTITY_TOL
            and np.linalg.norm(f) <= IDENTITY_TOL):
        return (f"round trip leaves ||Z|| = {np.linalg.norm(Z):.3e}, "
                f"||f|| = {np.linalg.norm(f):.3e}")
    vac = (np.zeros_like(Z), np.zeros_like(f), 0j)
    fid = abs(np.exp(ref.log_overlap(x, vac)))
    nrm = ref.norm(x)
    if not (abs(fid - 1.0) <= IDENTITY_TOL and abs(nrm - 1.0) <= IDENTITY_TOL):
        return f"|(out|vac)| = {fid:.12f}, ||out|| = {nrm:.12f}, not 1"
    return None


def oracle(gf, seed: int, workdir: str) -> list[Op]:
    """Both oracle layouts in one round: the dense grid behind
    `overlap --oracle` and the flat basis behind the operators."""
    return (oracle_overlap(gf, seed, workdir)
            + oracle_operators(gf, seed, workdir))


# BENCHMARK.json gates circuits-d4 and oracle; the others run by name
WORKLOADS = {
    "circuits-d4": circuits_d4,
    "oracle": oracle,
    "calculus-d96": calculus_d96,
    "oracle-overlap": oracle_overlap,
    "oracle-operators": oracle_operators,
}
