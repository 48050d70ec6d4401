"""Acceptance checks: every guarantee the package advertises, end to end.

Each test prints one PASS/FAIL line with the measured figure next to its
bound (run with -s to see them all); the asserts carry the same numbers.
"""

import time
from math import comb

import numpy as np

from gaussfock import circuits, fock, representation as rep, siegel, states
from gaussfock import symplectic as sp
from gaussfock import verify as ver
from gaussfock.linalg import (
    hs_norm,
    involution,
    mat_adjoint,
    mat_conj,
    operator_norm,
    takagi,
)


def report(label, value, bound, note=""):
    ok = bool(value <= bound)
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{note}]" if note else ""
    print(f"[{tag}] {label}: {value:.3e} (bound {bound:.1e}){suffix}")
    return ok


def pick_cutoff(x, y, budget=1e-8):
    return max(fock.cutoff_for(x, budget), fock.cutoff_for(y, budget))


class TestOverlapOracle:
    def test_overlap_master_oracle(self):
        rng = np.random.default_rng(20260817)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 4))
            x = states.random_state(d, rng, max_z=0.6, max_f=1.0)
            y = states.random_state(d, rng, max_z=0.6, max_f=1.0)
            n = pick_cutoff(x, y)
            got = fock.inner(fock.represent_state(x, n),
                             fock.represent_state(y, n))
            want = states.overlap(x, y)
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        ok = report("closed-form overlap vs truncated oracle, 50 draws",
                    worst, 1e-6, note=f"{elapsed:.1f} s")
        assert ok
        assert elapsed <= 30.0

    def test_scalar_determinant_value(self):
        const = 0.75 ** -0.5
        x = states.make_state(np.array([[0.5]]), np.zeros(1), 0.0)
        closed = abs(states.overlap(x, x) - const)
        F = fock.exp_omega(np.array([[0.5]]), 40)
        series = abs(fock.inner(F, F) - const)
        ok = report("scalar determinant value, closed form", closed, 1e-10)
        ok &= report("scalar determinant value, cutoff-40 series",
                     series, 1e-8)
        assert ok


class TestSymplecticIdentities:
    def test_pair_constraint_identities(self):
        rng = np.random.default_rng(3030)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(1, 7))
            r = sp.random_element(d, rng)
            U, V = r.U, r.V
            eye = np.eye(d)
            Uad, Vad = mat_adjoint(U), mat_adjoint(V)
            X = np.linalg.solve(U, V)
            Y = mat_conj(V) @ np.linalg.inv(U)
            res = [
                hs_norm(U @ Uad - V @ Vad - eye),
                hs_norm(U @ V.T - V @ U.T),
                hs_norm(Uad @ U - V.T @ mat_conj(V) - eye),
                hs_norm(U.T @ mat_conj(V) - Vad @ U),
                hs_norm(X - X.T),
                hs_norm(Y - Y.T),
                hs_norm(eye - X @ mat_adjoint(X) - np.linalg.inv(Uad @ U)),
                hs_norm(eye - mat_adjoint(Y) @ Y - np.linalg.inv(U @ Uad)),
                abs(operator_norm(X) ** 2 - (1.0 - operator_norm(U) ** -2)),
            ]
            worst = max(worst, max(res))
        assert report("group constraint identities, 200 elements, d <= 6",
                      worst, 1e-10)


class TestDiscGeometry:
    def test_disc_geometry(self):
        rng = np.random.default_rng(4040)
        worst_forms = worst_cocycle = worst_transport = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            r1 = sp.random_element(d, rng)
            r2 = sp.random_element(d, rng)
            p = siegel.random_point(d, rng, max_norm=0.9)
            Z = p.Z
            left = np.linalg.solve(
                (mat_conj(r1.U) + mat_conj(r1.V) @ Z).T,
                (r1.U @ Z + r1.V).T).T
            right = np.linalg.solve(
                mat_adjoint(r1.U) + Z @ mat_adjoint(r1.V),
                r1.V.T + Z @ r1.U.T)
            worst_forms = max(worst_forms, hs_norm(left - right))
            q = siegel.moebius(r1, p)
            assert operator_norm(q.Z) < 1.0
            two_step = siegel.moebius(r2, q)
            one_step = siegel.moebius(sp.compose(r2, r1), p)
            worst_cocycle = max(worst_cocycle,
                                hs_norm(two_step.Z - one_step.Z))
            back = siegel.moebius(siegel.transport_from_origin(p),
                                  siegel.origin(d))
            worst_transport = max(worst_transport, hs_norm(back.Z - Z))
        ok = report("Moebius action, two matrix forms", worst_forms, 1e-10)
        ok &= report("Moebius cocycle over compositions", worst_cocycle, 1e-9)
        ok &= report("transport from origin reconstructs the point",
                     worst_transport, 1e-10)
        assert ok


class TestRepresentation:
    def test_overlap_preservation(self):
        rng = np.random.default_rng(5050)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            r = sp.random_element(d, rng)
            f = 0.9 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            g = 0.9 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            got = states.overlap(rep.act_on_exponential(r, f),
                                 rep.act_on_exponential(r, g))
            want = np.exp(np.vdot(f, g))
            worst = max(worst, abs(got - want) / abs(want))
        assert report("overlap preservation under the representation",
                      worst, 1e-9)

    def test_ray_composition_and_multiplier(self):
        rng = np.random.default_rng(6060)
        worst = worst_mod = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            r1 = sp.random_element(d, rng)
            r2 = sp.random_element(d, rng)
            x = states.random_state(d, rng)
            worst = max(worst, rep.check_composition(r2, r1, x))
            worst_mod = max(worst_mod,
                            abs(abs(rep.multiplier(r2, r1)) - 1.0))
        ok = report("ray composition closes with the multiplier",
                    worst, 1e-9)
        ok &= report("multiplier stays unimodular", worst_mod, 1e-10)
        assert ok

    def test_displacement_intertwining(self):
        rng = np.random.default_rng(7070)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            r = sp.random_element(d, rng)
            h = rng.normal(size=d) + 1j * rng.normal(size=d)
            x = states.random_state(d, rng)
            worst = max(worst, rep.check_intertwining(r, h, x))
        assert report("displacement intertwining without phase correction",
                      worst, 1e-9)

    def test_weyl_relations(self):
        rng = np.random.default_rng(8080)
        worst = worst_inv = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            g = rng.normal(size=d) + 1j * rng.normal(size=d)
            x = states.random_state(d, rng)
            lhs = states.weyl_apply(f, states.weyl_apply(g, x))
            rhs = states.scaled(states.weyl_apply(f + g, x),
                                states.weyl_phase(f, g))
            worst = max(worst, states.state_residual(lhs, rhs))
            rt = states.weyl_apply(f, states.weyl_apply(-f, x))
            worst_inv = max(worst_inv, states.state_residual(rt, x))
        ok = report("phased Weyl composition at the state level",
                    worst, 1e-10)
        ok &= report("displacement inverse round trip", worst_inv, 1e-12)
        assert ok


class TestTakagi:
    def test_takagi_reconstruction(self):
        rng = np.random.default_rng(9090)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(1, 9))
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            A = (A + A.T) / 2
            F, alphas = takagi(A)
            worst = max(worst, hs_norm(A - F @ np.diag(alphas) @ F.T))
        assert report("Takagi reconstruction, 200 matrices, d <= 8",
                      worst, 1e-10)


class TestOracleInternal:
    def test_oracle_internal_consistency(self):
        rng = np.random.default_rng(1111)
        worst_ccr = 0.0
        for d, n in ((1, 8), (2, 7)):
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            g = rng.normal(size=d) + 1j * rng.normal(size=d)
            af = fock.create(f, n).matrix - fock.annihilate(
                involution(f), n).matrix
            ag = fock.create(g, n).matrix - fock.annihilate(
                involution(g), n).matrix
            comm = af @ ag - ag @ af
            want = -2j * sp.symplectic_form(f, g) * np.eye(comm.shape[0])
            keep = [i for i, m in enumerate(fock.basis_indices(d, n))
                    if sum(m) <= n - 1]
            worst_ccr = max(worst_ccr, float(np.max(
                np.abs((comm - want)[np.ix_(keep, keep)]))))
        ok = report("canonical commutation relations below the cutoff",
                    worst_ccr, 1e-10)

        violations = 0
        margin_prod = margin_alpha = np.inf
        for _ in range(250):
            d = int(rng.integers(1, 4))
            n = 8
            j, k = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            F = _homogeneous(rng, d, j, n)
            G = _homogeneous(rng, d, k, n)
            lhs = fock.tensor_norm(fock.symmetric_product(F, G))
            rhs = np.sqrt(comb(j + k, j)) * fock.tensor_norm(F) \
                * fock.tensor_norm(G)
            margin_prod = min(margin_prod, rhs - lhs)
            violations += lhs > rhs * (1 + 1e-12) + 1e-12
        for _ in range(250):
            d = int(rng.integers(1, 4))
            n = 8
            alpha, beta = rng.uniform(0.15, 0.45, size=2)
            gam = float(rng.uniform(alpha + beta + 0.02, 1.0))
            F = _low_degree(rng, d, n)
            G = _low_degree(rng, d, n)
            c = 1.0 / np.sqrt(1.0 - ((alpha + beta) / gam) ** 2)
            lhs = fock.alpha_norm(fock.symmetric_product(F, G), gam)
            rhs = c * fock.alpha_norm(F, alpha) * fock.alpha_norm(G, beta)
            margin_alpha = min(margin_alpha, rhs - lhs)
            violations += lhs > rhs * (1 + 1e-12)
        ok &= report("norm bound violations over 500 samples",
                     violations, 0,
                     note=f"margins {margin_prod:.2e}, {margin_alpha:.2e}")
        assert ok


def _homogeneous(rng, d, degree, cutoff):
    c = rng.normal(size=(cutoff + 1,) * d) \
        + 1j * rng.normal(size=(cutoff + 1,) * d)
    deg = np.indices((cutoff + 1,) * d).sum(axis=0)
    c[deg != degree] = 0.0
    return fock.make_tensor(d, cutoff, c)


def _low_degree(rng, d, cutoff):
    c = rng.normal(size=(cutoff + 1,) * d) \
        + 1j * rng.normal(size=(cutoff + 1,) * d)
    deg = np.indices((cutoff + 1,) * d).sum(axis=0)
    c[deg > 4] = 0.0
    return fock.make_tensor(d, cutoff, c)


def _random_gates(rng, dim):
    gates = []
    for _ in range(int(rng.integers(2, 7))):
        kind = rng.choice(["D", "S", "R", "BS"] if dim > 1 else ["D", "S", "R"])
        mode = int(rng.integers(0, dim))
        if kind == "D":
            gates.append(circuits.Gate("D", (mode,),
                                       (float(rng.uniform(0, 1.2)),
                                        float(rng.uniform(-np.pi, np.pi)))))
        elif kind == "S":
            gates.append(circuits.Gate("S", (mode,),
                                       (float(rng.uniform(-0.8, 0.8)),
                                        float(rng.uniform(-np.pi, np.pi)))))
        elif kind == "R":
            gates.append(circuits.Gate("R", (mode,),
                                       (float(rng.uniform(-np.pi, np.pi)),)))
        else:
            other = int(rng.integers(0, dim - 1))
            other += other >= mode
            gates.append(circuits.Gate("BS", (mode, other),
                                       (float(rng.uniform(-1.2, 1.2)),
                                        float(rng.uniform(-np.pi, np.pi)))))
    return gates


class TestCircuits:
    def test_circuit_normal_form(self):
        rng = np.random.default_rng(1212)
        worst = worst_norm = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            gates = _random_gates(rng, d)
            fast = circuits.run(gates, d)
            slow = circuits.run_sequential(gates, d)
            worst = max(worst, states.state_residual(fast, slow))
            worst_norm = max(worst_norm, abs(states.norm(fast) - 1.0))
        ok = report("compiled normal form vs sequential execution",
                    worst, 1e-9)
        ok &= report("circuit outputs stay normalized", worst_norm, 1e-9)
        assert ok


class TestFreeField:
    def test_free_field_subgroup(self):
        rng = np.random.default_rng(1313)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 5))
            r1 = sp.random_element(d, rng)
            m = rng.uniform(0.1, 3.0, size=d)
            t = float(rng.uniform(-2.0, 2.0))
            direct = sp.conjugated_free_field(r1, m, t)
            free = sp.from_unitary(np.diag(np.exp(-1j * m * t)))
            routed = sp.compose(r1, sp.compose(free, sp.inverse(r1)))
            worst = max(worst,
                        max(hs_norm(direct.U - routed.U),
                            hs_norm(direct.V - routed.V)))
        assert report("free-field conjugation vs composed route",
                      worst, 1e-10)


class TestSelfCheck:
    def test_self_check_suite(self):
        names = sorted(ver.SUITES)
        t0 = time.perf_counter()
        first = ver.run_suites(names, seed=42, trials=40, tol=1e-9)
        elapsed = time.perf_counter() - t0
        second = ver.run_suites(names, seed=42, trials=40, tol=1e-9)
        ok = all(r.passed for r in first)
        deterministic = ([r.residual for r in first]
                         == [r.residual for r in second])
        ok_line = report("self-check suites, all checks",
                         sum(not r.passed for r in first), 0,
                         note=f"{len(first)} checks, {elapsed:.1f} s, "
                              f"deterministic={deterministic}")
        assert ok_line and ok
        assert deterministic
        assert elapsed < 60.0
