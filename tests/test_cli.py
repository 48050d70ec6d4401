"""End-to-end tests of the command line interface, run in process."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussfock import cli, serialization as ser, states
from gaussfock import symplectic as sp

rng = np.random.default_rng(607)


def write(tmp_path, name, payload):
    path = tmp_path / name
    ser.dump_json(payload, str(path))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOverlap:
    def test_json_output(self, tmp_path, capsys):
        a = states.random_state(2, rng)
        b = states.random_state(2, rng)
        pa = write(tmp_path, "a.json", ser.encode_state(a))
        pb = write(tmp_path, "b.json", ser.encode_state(b))
        code, out, _ = run_cli(capsys, ["overlap", "--state-a", pa,
                                        "--state-b", pb])
        assert code == 0
        payload = json.loads(out)
        got = complex(*payload["overlap"])
        assert got == pytest.approx(states.overlap(a, b), rel=1e-12)

    def test_oracle_comparison(self, tmp_path, capsys):
        a = states.random_state(1, rng, max_z=0.4, max_f=0.6)
        b = states.random_state(1, rng, max_z=0.4, max_f=0.6)
        pa = write(tmp_path, "a.json", ser.encode_state(a))
        pb = write(tmp_path, "b.json", ser.encode_state(b))
        code, out, _ = run_cli(capsys, ["overlap", "--state-a", pa,
                                        "--state-b", pb, "--oracle"])
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_difference"] < 1e-6
        assert payload["cutoff"] >= 20

    def test_explicit_cutoff_respected(self, tmp_path, capsys):
        a = states.vacuum(1)
        pa = write(tmp_path, "a.json", ser.encode_state(a))
        code, out, _ = run_cli(capsys, ["overlap", "--state-a", pa,
                                        "--state-b", pa, "--oracle",
                                        "--cutoff", "12"])
        payload = json.loads(out)
        assert code == 0
        assert payload["cutoff"] == 12
        assert payload["abs_difference"] < 1e-12

    def test_text_format(self, tmp_path, capsys):
        a = states.vacuum(1)
        pa = write(tmp_path, "a.json", ser.encode_state(a))
        code, out, _ = run_cli(capsys, ["overlap", "--state-a", pa,
                                        "--state-b", pa, "--format", "text"])
        assert code == 0
        assert out.startswith("overlap = +1.0")

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["overlap",
                                        "--state-a", str(tmp_path / "no.json"),
                                        "--state-b", str(tmp_path / "no.json")])
        assert code == 2
        assert "error:" in err


class TestApply:
    def test_matches_library(self, tmp_path, capsys):
        from gaussfock.representation import act
        r = sp.random_element(2, rng)
        x = states.random_state(2, rng)
        pr = write(tmp_path, "r.json", ser.encode_symplectic(r))
        px = write(tmp_path, "x.json", ser.encode_state(x))
        code, out, _ = run_cli(capsys, ["apply", "--symplectic", pr,
                                        "--state", px])
        assert code == 0
        got = ser.decode_state(json.loads(out))
        assert states.state_residual(got, act(r, x)) < 1e-12

    def test_invalid_element_rejected(self, tmp_path, capsys):
        obj = ser.encode_symplectic(sp.identity(2))
        obj["V"]["data"][0] = [5.0, 0.0]
        pr = write(tmp_path, "r.json", obj)
        px = write(tmp_path, "x.json", ser.encode_state(states.vacuum(2)))
        code, _, err = run_cli(capsys, ["apply", "--symplectic", pr,
                                        "--state", px])
        assert code == 2
        assert "constraints" in err


class TestCompose:
    def test_product_and_multiplier(self, tmp_path, capsys):
        from gaussfock.representation import multiplier
        ra = sp.random_element(2, rng)
        rb = sp.random_element(2, rng)
        pa = write(tmp_path, "ra.json", ser.encode_symplectic(ra))
        pb = write(tmp_path, "rb.json", ser.encode_symplectic(rb))
        code, out, _ = run_cli(capsys, ["compose", "--a", pa, "--b", pb])
        assert code == 0
        payload = json.loads(out)
        got = ser.decode_symplectic(payload["product"])
        want = sp.compose(ra, rb)
        assert np.allclose(got.U, want.U) and np.allclose(got.V, want.V)
        chi = complex(*payload["multiplier"])
        assert abs(chi) == pytest.approx(1.0, abs=1e-12)
        assert chi == pytest.approx(multiplier(ra, rb), rel=1e-12)

    def test_multiplier_accepts_what_tol_accepts(self, tmp_path, capsys):
        # residual 2.227e-10: inside --tol 1e-9, outside the library's 1e-10
        r = sp.random_element(2, np.random.default_rng(3), 0.5)
        obj = ser.encode_symplectic(r)
        obj["U"]["data"][0][0] += 4e-10
        assert ser.decode_symplectic(obj, tol=1e-9).validation_residual > 1e-10
        pa = write(tmp_path, "ra.json", obj)
        pb = write(tmp_path, "rb.json", ser.encode_symplectic(sp.identity(2)))
        code, out, err = run_cli(capsys, ["compose", "--a", pa, "--b", pb])
        assert code == 0, err
        chi = complex(*json.loads(out)["multiplier"])
        assert chi == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_output_state(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("S(0, 0.5, 0.0)\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, ["run", "--circuit", str(path),
                                        "--dim", "1"])
        assert code == 0
        got = ser.decode_state(json.loads(out))
        assert got.Z.Z[0, 0] == pytest.approx(np.tanh(0.5))

    def test_normal_form_output(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("D(0, 1.0, 0.0)\nS(0, 0.4, 0.0)\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, ["run", "--circuit", str(path),
                                        "--dim", "1", "--normal-form"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"displacement", "element", "log_phase"}
        elem = ser.decode_symplectic(payload["element"])
        assert elem.U[0, 0] == pytest.approx(np.cosh(0.4))

    def test_symp_gate_resolved_relative_to_circuit(self, tmp_path, capsys):
        write(tmp_path, "elem.json",
              ser.encode_symplectic(sp.squeeze(np.array([[0.3]]))))
        path = tmp_path / "c.txt"
        path.write_text('SYMP("elem.json")\n', encoding="utf-8")
        code, out, _ = run_cli(capsys, ["run", "--circuit", str(path),
                                        "--dim", "1"])
        assert code == 0
        got = ser.decode_state(json.loads(out))
        assert got.Z.Z[0, 0] == pytest.approx(np.tanh(0.3))

    @pytest.mark.parametrize("line", ["S(0, 800, 0)", "R(0, 1e400)"])
    def test_nonfinite_gate_is_input_error(self, tmp_path, capsys, line):
        path = tmp_path / "c.txt"
        path.write_text(line + "\n", encoding="utf-8")
        # no numpy warning either: the test run turns them into errors
        code, _, err = run_cli(capsys, ["run", "--circuit", str(path),
                                        "--dim", "1"])
        assert code == 2
        assert "must be finite" in err

    def test_syntax_error_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("S(0, 0.5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["run", "--circuit", str(path),
                                        "--dim", "1"])
        assert code == 2
        assert "line 1" in err


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "symplectic",
                                        "--trials", "4"])
        assert code == 0
        assert "[pass]" in out
        assert out.strip().splitlines()[-1].startswith("ok:")

    def test_json_format_lists_checks(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "siegel",
                                        "--trials", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert all(c["suite"] == "siegel" for c in payload["checks"])

    def test_deterministic_under_fixed_seed(self, capsys):
        argv = ["verify", "--suite", "overlap", "--trials", "4",
                "--format", "json", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        r1 = [c["residual"] for c in json.loads(out1)["checks"]]
        r2 = [c["residual"] for c in json.loads(out2)["checks"]]
        assert r1 == r2

    def test_two_suites_in_order(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "dsl",
                                        "--suite", "representation",
                                        "--trials", "3", "--format", "json"])
        assert code == 0
        suites = [c["suite"] for c in json.loads(out)["checks"]]
        assert suites == sorted(suites, key=["dsl", "representation"].index)


    @pytest.mark.parametrize("argv", [["--trials", "0"],
                                      ["--trials", "-5", "--suite", "dsl"]])
    def test_trials_below_one_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, ["verify"] + argv)
        assert code == 2
        assert "trials must be at least 1" in err
        assert "ok:" not in out


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            code, _, _ = run_cli(capsys, ["verify", "--suite", "dsl",
                                          "--trials", "1"])
            assert code == 0
        assert built.count("gaussfock") == 1


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "gaussfock", "verify", "--suite", "siegel",
             "--trials", "2", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


class TestTakagi:
    def test_factors_symmetric_matrix(self, tmp_path, capsys):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = A + A.T
        pa = write(tmp_path, "a.json", ser.encode_matrix(A))
        code, out, _ = run_cli(capsys, ["takagi", "--matrix", pa])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] < 1e-10
        F = ser.decode_matrix(payload["F"])
        alphas = np.array(payload["alphas"])
        assert np.linalg.norm(A - F @ np.diag(alphas) @ F.T) < 1e-10

    def test_non_symmetric_rejected(self, tmp_path, capsys):
        pa = write(tmp_path, "a.json",
                   ser.encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        code, _, err = run_cli(capsys, ["takagi", "--matrix", pa])
        assert code == 2
        assert "symmetric" in err


class TestDemo:
    def test_free_field_element(self, tmp_path, capsys):
        r = sp.random_element(2, rng)
        spectrum = np.array([1.0, 2.5])
        pr = write(tmp_path, "r.json", ser.encode_symplectic(r))
        pm = write(tmp_path, "m.json", ser.encode_vector(spectrum))
        code, out, _ = run_cli(capsys, ["demo", "free-field",
                                        "--symplectic", pr, "--spectrum", pm,
                                        "--t", "0.8"])
        assert code == 0
        got = ser.decode_symplectic(json.loads(out))
        want = sp.conjugated_free_field(r, spectrum, 0.8)
        assert np.allclose(got.U, want.U) and np.allclose(got.V, want.V)

    def test_complex_spectrum_rejected(self, tmp_path, capsys):
        r = sp.identity(1)
        pr = write(tmp_path, "r.json", ser.encode_symplectic(r))
        pm = write(tmp_path, "m.json", ser.encode_vector(np.array([1.0 + 1j])))
        code, _, err = run_cli(capsys, ["demo", "free-field",
                                        "--symplectic", pr, "--spectrum", pm,
                                        "--t", "1.0"])
        assert code == 2
        assert "real" in err
