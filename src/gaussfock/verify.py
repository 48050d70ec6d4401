"""Self-check suites behind the `verify` CLI subcommand.

Each suite (symplectic, siegel, overlap, representation, oracle, dsl) is a
generator over reproducible random instances: it yields ("check name",
residual) for every residual of the identities it owns, and nothing else.
run_suite does the reduction in one place. It reports every check in the
suite's fixed order, keeps the worst residual of each, lets a NaN stick so
that it fails, and applies the tolerance.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from . import circuits, fock, representation as rep, siegel, states, symplectic as sp
from .errors import GaussFockError
from .linalg import hs_norm, involution, mat_adjoint, mat_conj, operator_norm

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]

# what a suite yields: (check name, residual) for every residual it measures
_Residuals = Iterator[tuple[str, float]]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def suite_symplectic(rng: np.random.Generator, trials: int) -> _Residuals:
    for _ in range(trials):
        d = int(rng.integers(1, 7))
        r = sp.random_element(d, rng)
        U, V = r.U, r.V
        eye = np.eye(d)
        nu, nv = operator_norm(U), operator_norm(V)
        herm, sym = 1 + nu * nu, max(nu * nv, 1e-30)
        Uad, Vad = mat_adjoint(U), mat_adjoint(V)
        yield "row constraints", hs_norm(U @ Uad - V @ Vad - eye) / herm
        yield "row constraints", hs_norm(U @ V.T - V @ U.T) / sym
        yield "column constraints", hs_norm(
            Uad @ U - V.T @ mat_conj(V) - eye) / herm
        yield "column constraints", hs_norm(U.T @ mat_conj(V) - Vad @ U) / sym
        Ui = np.linalg.inv(U)
        yield "transposed inverse pair", hs_norm(Ui @ V - (Ui @ V).T)
        yield "transposed inverse pair", hs_norm(
            mat_conj(V) @ Ui - (mat_conj(V) @ Ui).T)
        X = Ui @ V
        Y = mat_conj(V) @ Ui
        yield "inverse gram identities", hs_norm(
            eye - X @ mat_adjoint(X) - np.linalg.inv(Uad @ U))
        yield "inverse gram identities", hs_norm(
            eye - mat_adjoint(Y) @ Y - np.linalg.inv(U @ Uad))
        yield "norm identity", abs(
            operator_norm(X) ** 2 - (1.0 - 1.0 / operator_norm(U) ** 2))
        r2 = sp.random_element(d, rng)
        r3 = sp.random_element(d, rng)
        left = sp.compose(sp.compose(r3, r2), r)
        right = sp.compose(r3, sp.compose(r2, r))
        ri = sp.inverse(r)
        yield "group axioms", hs_norm(left.U - right.U)
        yield "group axioms", hs_norm(left.V - right.V)
        yield "group axioms", hs_norm(sp.compose(r, ri).U - eye)
        yield "group axioms", hs_norm(sp.compose(ri, r).V)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        yield "form invariance", abs(
            sp.symplectic_form(sp.apply(r, f), sp.apply(r, g))
            - sp.symplectic_form(f, g))
        K1, A, K2 = sp.polar_factorize(r)
        rec = sp.compose(sp.from_unitary(K1),
                         sp.compose(sp.squeeze(A), sp.from_unitary(K2)))
        yield "polar refactorization", hs_norm(rec.U - U) / (1 + nu)
        yield "polar refactorization", hs_norm(rec.V - V) / (1 + nu)
        m = rng.uniform(0.0, 2.0, size=d)
        t = float(rng.uniform(-3.0, 3.0))
        ff = sp.conjugated_free_field(r, m, t)
        route = sp.compose(r, sp.compose(
            sp.from_unitary(np.diag(np.exp(-1j * m * t))), sp.inverse(r)))
        yield "free field conjugation", hs_norm(ff.U - route.U)
        yield "free field conjugation", hs_norm(ff.V - route.V)


def suite_siegel(rng: np.random.Generator, trials: int) -> _Residuals:
    for _ in range(trials):
        d = int(rng.integers(1, 6))
        p = siegel.random_point(d, rng, max_norm=0.85)
        r = sp.random_element(d, rng)
        U, V = r.U, r.V
        Z = p.Z
        left = np.linalg.solve((mat_conj(U) + mat_conj(V) @ Z).T,
                               (U @ Z + V).T).T
        right = np.linalg.solve(mat_adjoint(U) + Z @ mat_adjoint(V),
                                V.T + Z @ U.T)
        yield "moebius dual forms", hs_norm(left - right)
        img = siegel.moebius(r, p)
        yield "image symmetry", hs_norm(img.Z - img.Z.T)
        yield "disc preservation", (
            0.0 if img.op_norm < 1.0 - siegel.DISC_MARGIN else 1.0)
        r2 = sp.random_element(d, rng)
        via = siegel.moebius(r2, img)
        direct = siegel.moebius(sp.compose(r2, r), p)
        yield "cocycle", hs_norm(via.Z - direct.Z)
        tr = siegel.transport_from_origin(p)
        back = siegel.moebius(tr, siegel.origin(d))
        yield "origin transport", hs_norm(back.Z - Z)
        K = sp.random_element(d, rng, squeeze_scale=0.0).U
        kimg = siegel.moebius(sp.from_unitary(K), p)
        yield "unitary stabilizer", hs_norm(kimg.Z - K @ Z @ K.T)


def suite_overlap(rng: np.random.Generator, trials: int) -> _Residuals:
    z0 = states.make_state(np.array([[0.5]]), np.zeros(1), 0.0)
    yield "scalar determinant case", abs(states.overlap(z0, z0) - 0.75 ** -0.5)
    for _ in range(trials):
        d = int(rng.integers(1, 5))
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        ef = states.make_state(np.zeros((d, d)), f, 0.0)
        eg = states.make_state(np.zeros((d, d)), g, 0.0)
        yield "coherent reduction", (
            abs(states.overlap(ef, eg) - np.exp(np.vdot(f, g)))
            / abs(np.exp(np.vdot(f, g))))
        x = states.random_state(d, rng)
        y = states.random_state(d, rng)
        oxy = states.overlap(x, y)
        yield "hermitian symmetry", (
            abs(oxy - np.conj(states.overlap(y, x))) / max(abs(oxy), 1e-12))
        A, B = x.Z.Z, y.Z.Z
        quad = states.make_state(A, np.zeros(d), 0.0)
        yb = states.make_state(B, g, 0.0)
        M = np.eye(d) - mat_adjoint(A) @ B
        expect = np.exp(-0.5 * np.sum(np.log(np.linalg.eigvals(M)))
                        + 0.5 * (g @ np.linalg.solve(M, mat_adjoint(A) @ g)))
        got = states.overlap(quad, yb)
        yield "quadratic special case", abs(got - expect) / max(abs(expect), 1e-12)
        n2 = states.norm(x) ** 2
        yield "norm dual route", (
            abs(n2 - states.norm_squared_direct(x)) / max(n2, 1e-12))
        h = rng.normal(size=d) + 1j * rng.normal(size=d)
        wx = states.weyl_apply(h, x)
        yield "weyl invariance", (
            abs(states.norm(wx) - states.norm(x)) / max(states.norm(x), 1e-12))
        h2 = rng.normal(size=d) + 1j * rng.normal(size=d)
        lhs = states.weyl_apply(h, states.weyl_apply(h2, x))
        rhs = states.scaled(states.weyl_apply(h + h2, x),
                            states.weyl_phase(h, h2))
        yield "weyl relations", states.state_residual(lhs, rhs)
        yield "weyl relations", states.state_residual(
            states.weyl_apply(-h, states.weyl_apply(h, x)), x)
        hh = states.displacement_to_origin(x)
        yield "displacement equation", float(
            np.linalg.norm(hh - A @ involution(hh) - x.f))
        hd, tr, amp = states.factor_displaced_squeezed(x)
        rec = states.scaled(
            states.weyl_apply(hd, rep.act(tr, states.vacuum(d))), amp)
        yield "displaced factorization", states.state_residual(rec, x)
    pts = [states.random_state(int(rng.integers(1, 4)), rng) for _ in range(6)]
    for k in range(0, len(pts) - 2, 3):
        trio = [s for s in pts if s.dim == pts[k].dim][:3]
        if len(trio) >= 2:
            G = np.array([[states.overlap(a, b) for b in trio] for a in trio])
            lo = float(np.min(np.linalg.eigvalsh((G + mat_adjoint(G)) / 2)))
            yield "gram positivity", max(-lo, 0.0)


def suite_representation(rng: np.random.Generator, trials: int) -> _Residuals:
    for _ in range(trials):
        d = int(rng.integers(1, 5))
        r1 = sp.random_element(d, rng)
        r2 = sp.random_element(d, rng)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        tf = rep.act_on_exponential(r1, f)
        tg = rep.act_on_exponential(r1, g)
        expect = np.exp(np.vdot(f, g))
        yield "exponential unitarity", (
            abs(states.overlap(tf, tg) - expect) / abs(expect))
        x = states.random_state(d, rng)
        yield "ray composition", rep.check_composition(r2, r1, x)
        yield "multiplier modulus", abs(abs(rep.multiplier(r2, r1)) - 1.0)
        h = rng.normal(size=d) + 1j * rng.normal(size=d)
        yield "intertwining", rep.check_intertwining(r1, h, x)
        K = sp.random_element(d, rng, squeeze_scale=0.0).U
        ku = sp.from_unitary(K)
        conj_el = sp.compose(ku, sp.compose(r1, sp.inverse(ku)))
        lhs = rep.act(conj_el, x)
        rhs = rep.act(ku, rep.act(r1, rep.act(sp.inverse(ku), x)))
        yield "unitary covariance", states.state_residual(lhs, rhs)
        y = states.random_state(d, rng)
        left = states.overlap(rep.adjoint_act(r1, y), x)
        right = states.overlap(y, rep.act(r1, x))
        yield "adjoint property", abs(left - right) / max(abs(right), 1e-12)
        r3 = sp.compose(r2, r1)
        q1 = states.bilinear_pairing(
            f, mat_adjoint(r1.V) @ np.linalg.solve(mat_adjoint(r1.U), f))
        x1 = rep.act_on_exponential(r1, f)
        M2 = mat_adjoint(r2.U) + x1.Z.Z @ mat_adjoint(r2.V)
        q2 = states.bilinear_pairing(
            x1.f, mat_adjoint(r2.V) @ np.linalg.solve(M2, x1.f))
        q3 = states.bilinear_pairing(
            f, mat_adjoint(r3.V) @ np.linalg.solve(mat_adjoint(r3.U), f))
        yield "quadratic form accumulation", abs((q1 + q2) - q3) / (1.0 + abs(q3))


def suite_oracle(rng: np.random.Generator, trials: int) -> _Residuals:
    for _ in range(min(trials, 12)):
        d = int(rng.integers(1, 4))
        zc, fc = ([0.6, 0.6, 0.45][d - 1], [1.0, 1.0, 0.9][d - 1])
        x = states.random_state(d, rng, zc, fc)
        y = states.random_state(d, rng, zc, fc)
        N = max(fock.cutoff_for(x, 1e-8), fock.cutoff_for(y, 1e-8))
        got = fock.inner(fock.represent_state(x, N),
                         fock.represent_state(y, N))
        want = states.overlap(x, y)
        yield "master overlap comparison", abs(got - want) / max(abs(want), abs(got))
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(6, 11))
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        f *= 0.7 / max(np.linalg.norm(f), 1e-12)
        g *= 0.7 / max(np.linalg.norm(g), 1e-12)
        N_exp = 34
        got = fock.inner(fock.exp_vector(f, N_exp), fock.exp_vector(g, N_exp))
        yield "exponential inner product", (
            abs(got - np.exp(np.vdot(f, g))) / abs(np.exp(np.vdot(f, g))))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = (A + A.T) / 2
        om = fock.omega_tensor(A, N)
        yield "quadratic tensor pairing", abs(
            fock.tensor_norm(om) ** 2 - 0.5 * hs_norm(A) ** 2)
        yield "quadratic tensor pairing", abs(
            fock.inner(fock.omega_tensor(np.conj(A), N), fock.symmetric_product(
                _line_tensor(f, N), _line_tensor(g, N)))
            - states.bilinear_pairing(f, A @ g))
        cm = fock.create(f, N).matrix
        am = fock.annihilate(involution(f), N).matrix
        cg = fock.create(g, N).matrix
        ag = fock.annihilate(involution(g), N).matrix
        comm = (cm - am) @ (cg - ag) - (cg - ag) @ (cm - am)
        # on the degrees up to N - 1, the first entries of the flat basis
        below = comb(N - 1 + d, d)
        expect = -2j * sp.symplectic_form(f, g) * np.eye(below)
        yield "ccr at cutoff", float(np.max(np.abs(comm[:below, :below] - expect)))
        dw = min(d, 2)
        Nw = [30, 20][dw - 1]
        fw = f[:dw] * (0.5 / 0.7)
        gw = g[:dw] * (0.5 / 0.7)
        # the vacuum column of W(f) W(g) against that of W(f + g), computed
        # as actions on the vacuum
        vac = fock.vacuum_tensor(dw, Nw)
        # on the degrees up to Nw // 3, the first entries of the flat basis
        low = comb(Nw // 3 + dw, dw)
        prod = fock.apply_operator(fock.weyl(fw, Nw), fock.apply_operator(
            fock.weyl(gw, Nw), vac)).vector[:low]
        merged = states.weyl_phase(fw, gw) * fock.apply_operator(
            fock.weyl(fw + gw, Nw), vac).vector[:low]
        yield "weyl matrix relations", float(np.max(np.abs(prod - merged)))
        Ng = [30, 20][dw - 1]
        K = sp.random_element(dw, rng, squeeze_scale=0.0).U
        gk = fock.gamma(K, Ng)
        lhs = fock.apply_operator(gk, fock.exp_vector(f[:dw], Ng))
        rhs = fock.exp_vector(K @ f[:dw], Ng)
        yield "second quantization", fock.tensor_residual(lhs, rhs)
        Fh = _random_tensor(d, N, rng, int(rng.integers(0, 5)))
        Gh = _random_tensor(d, N, rng, int(rng.integers(0, 5)))
        nf, ng = fock.tensor_norm(Fh), fock.tensor_norm(Gh)
        kf = int(np.argmax(fock.degree_norms(Fh) > 0)) if nf else 0
        kg = int(np.argmax(fock.degree_norms(Gh) > 0)) if ng else 0
        bound = np.sqrt(comb(kf + kg, kf)) * nf * ng
        got = fock.tensor_norm(fock.symmetric_product(Fh, Gh))
        yield "degree norm bound", max(got - bound, 0.0) / (1 + bound)
        alpha, beta = rng.uniform(0.15, 0.45, size=2)
        gam = float(rng.uniform(alpha + beta + 0.02, 1.0))
        Fr = _random_tensor(d, N, rng, 0, min(N // 2, 5))
        Gr = _random_tensor(d, N, rng, 0, min(N // 2, 5))
        c = 1.0 / np.sqrt(1.0 - ((alpha + beta) / gam) ** 2)
        lhs_n = fock.alpha_norm(fock.symmetric_product(Fr, Gr), gam)
        rhs_n = c * fock.alpha_norm(Fr, alpha) * fock.alpha_norm(Gr, beta)
        yield "alpha product bound", max(lhs_n - rhs_n, 0.0) / (1 + rhs_n)
    for _ in range(min(trials, 6)):
        d = int(rng.integers(1, 3))
        x = states.random_state(d, rng, 0.5, 0.8)
        N = 24
        big = fock.represent_state(x, 2 * N + 10)
        dn = fock.degree_norms(big)
        true_tail = float(np.sqrt(np.sum(dn[N + 1:] ** 2)))
        bound = fock.tail_bound(x, N)
        yield "tail bound soundness", max(true_tail - bound, 0.0) / (1 + bound)


def suite_dsl(rng: np.random.Generator, trials: int) -> _Residuals:
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        gates = _random_gates(d, rng)
        text = circuits.pretty(gates)
        yield "parse pretty round trip", float(circuits.parse(text) != gates)
        out = circuits.run(gates, d)
        seq = circuits.run_sequential(gates, d)
        yield "normal form agreement", states.state_residual(out, seq)
        inv = [_inverse_gate(g) for g in reversed(gates)]
        round_trip = circuits.run(gates + inv, d)
        nrm = states.norm(round_trip)
        fid = abs(states.overlap(round_trip, states.vacuum(d))) / nrm
        yield "inverse circuit fidelity", abs(1.0 - fid)
        yield "norm preservation", abs(states.norm(out) - 1.0)


def _line_tensor(f: np.ndarray, cutoff: int) -> fock.FockTensor:
    """f as a degree-1 tensor, a+(f) applied to the vacuum."""
    return fock.apply_operator(fock.create(f, cutoff),
                               fock.vacuum_tensor(len(f), cutoff))


def _random_tensor(d: int, cutoff: int, rng: np.random.Generator, low: int,
                   high: int | None = None) -> fock.FockTensor:
    """Gaussian coefficients in the degrees low..high (high defaults to low)."""
    c = rng.normal(size=(cutoff + 1,) * d) + 1j * rng.normal(size=(cutoff + 1,) * d)
    deg = np.indices((cutoff + 1,) * d).sum(axis=0)
    c[(deg < low) | (deg > (low if high is None else high))] = 0.0
    return fock.FockTensor(d, cutoff, c)


def _random_gates(d: int, rng: np.random.Generator) -> list[circuits.Gate]:
    kinds = ["D", "S", "R"] + (["BS"] if d >= 2 else [])
    gates = []
    for _ in range(int(rng.integers(2, 9))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "D":
            gates.append(circuits.Gate("D", (int(rng.integers(0, d)),),
                                       (float(rng.uniform(0, 0.8)),
                                        float(rng.uniform(0, 2 * np.pi)))))
        elif kind == "S":
            gates.append(circuits.Gate("S", (int(rng.integers(0, d)),),
                                       (float(rng.uniform(0, 0.6)),
                                        float(rng.uniform(0, 2 * np.pi)))))
        elif kind == "R":
            gates.append(circuits.Gate("R", (int(rng.integers(0, d)),),
                                       (float(rng.uniform(0, 2 * np.pi)),)))
        else:
            i = int(rng.integers(0, d))
            j = int((i + 1 + rng.integers(0, d - 1)) % d)
            gates.append(circuits.Gate("BS", (i, j),
                                       (float(rng.uniform(0, 2 * np.pi)),
                                        float(rng.uniform(0, 2 * np.pi)))))
    return gates


def _inverse_gate(g: circuits.Gate) -> circuits.Gate:
    if g.kind == "D":
        return circuits.Gate("D", g.modes, (g.params[0], g.params[1] + np.pi))
    if g.kind == "S":
        return circuits.Gate("S", g.modes, (-g.params[0], g.params[1]))
    if g.kind == "BS":
        return circuits.Gate("BS", g.modes, (-g.params[0], g.params[1]))
    if g.kind == "R":
        return circuits.Gate("R", g.modes, (-g.params[0],))
    raise GaussFockError(f"cannot invert {g}")


SUITES = {
    "symplectic": suite_symplectic,
    "siegel": suite_siegel,
    "overlap": suite_overlap,
    "representation": suite_representation,
    "oracle": suite_oracle,
    "dsl": suite_dsl,
}


# each suite's checks in report order; one the draws never reach reports 0
_CHECKS = {
    "symplectic": (
        "row constraints", "column constraints", "transposed inverse pair",
        "inverse gram identities", "norm identity", "group axioms",
        "form invariance", "polar refactorization", "free field conjugation"),
    "siegel": (
        "moebius dual forms", "image symmetry", "disc preservation",
        "cocycle", "origin transport", "unitary stabilizer"),
    "overlap": (
        "scalar determinant case", "coherent reduction", "hermitian symmetry",
        "quadratic special case", "norm dual route", "weyl invariance",
        "weyl relations", "displacement equation", "displaced factorization",
        "gram positivity"),
    "representation": (
        "exponential unitarity", "ray composition", "multiplier modulus",
        "intertwining", "unitary covariance", "adjoint property",
        "quadratic form accumulation"),
    "oracle": (
        "exponential inner product", "quadratic tensor pairing",
        "ccr at cutoff", "weyl matrix relations", "second quantization",
        "master overlap comparison", "degree norm bound",
        "alpha product bound", "tail bound soundness"),
    "dsl": (
        "parse pretty round trip", "normal form agreement",
        "inverse circuit fidelity", "norm preservation"),
}

# checks held to their own tolerance instead of the caller's
_FIXED_TOL = {"master overlap comparison": 1e-6}


def run_suite(name: str, seed: int, trials: int,
              tol: float) -> list[CheckResult]:
    """The worst residual of each check; np.maximum, unlike max, keeps NaN."""
    if trials < 1:
        raise GaussFockError(f"trials must be at least 1, got {trials}")
    peak = dict.fromkeys(_CHECKS[name], 0.0)
    for check, residual in SUITES[name](np.random.default_rng(seed), trials):
        peak[check] = np.maximum(peak[check], residual)
    return [CheckResult(name, k, float(v), _FIXED_TOL.get(k, tol))
            for k, v in peak.items()]


def run_suites(names: list[str], seed: int, trials: int,
               tol: float) -> list[CheckResult]:
    out = []
    for name in names:
        out.extend(run_suite(name, seed, trials, tol))
    return out
