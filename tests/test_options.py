"""Inventory of the package's public names and settable options.

Lists every public name of each layer, every tolerance-like parameter of the
library's public functions and every option of each command-line subcommand.
A new name or knob, or a removed one, shows up as a diff of the expected
sets below.
"""

import argparse
import importlib
import inspect

from gaussfock import cli

LAYERS = ("linalg", "symplectic", "siegel", "states", "representation",
          "fock", "circuits", "serialization")


def tolerance_parameters() -> set[str]:
    found = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"gaussfock.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            home = fn.__module__.rsplit(".", 1)[-1]
            found.update(f"{home}.{fn.__name__}({p})"
                         for p in inspect.signature(fn).parameters
                         if "tol" in p or "margin" in p)
    return found


def cli_options() -> dict[str, set[str]]:
    out = {}

    def walk(parser: argparse.ArgumentParser, path: str) -> None:
        opts = out.setdefault(path, set())
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}".strip())
            elif action.option_strings and action.dest != "help":
                opts.add(max(action.option_strings, key=len))

    walk(cli.build_parser(), "")
    return out


def test_public_names():
    assert {layer: set(importlib.import_module(f"gaussfock.{layer}").__all__)
            for layer in LAYERS} == {
        "linalg": {
            "involution", "mat_conj", "mat_adjoint", "operator_norm",
            "hs_norm", "eig_log_det", "takagi", "as_vector", "as_matrix"},
        "symplectic": {
            "SymplecticElement", "make_symplectic", "identity",
            "from_unitary", "squeeze", "compose", "inverse", "apply",
            "symplectic_form", "polar_factorize", "conjugated_free_field",
            "random_element", "log_det_abs_u"},
        "siegel": {
            "SiegelPoint", "make_point", "origin", "moebius",
            "transport_from_origin", "random_point"},
        "states": {
            "UltracoherentState", "make_state", "vacuum", "coherent",
            "bilinear_pairing", "hermitian_inner", "overlap", "norm",
            "norm_squared_direct", "bargmann_eval", "weyl_apply",
            "weyl_phase", "displacement_to_origin",
            "factor_displaced_squeezed", "scaled", "state_residual",
            "random_state"},
        "representation": {
            "act_on_exponential", "act", "adjoint_act", "multiplier",
            "check_composition", "check_intertwining"},
        "fock": {
            "FockTensor", "FockOperator", "make_tensor", "vacuum_tensor",
            "basis_indices", "symmetric_product", "inner", "tensor_norm",
            "degree_norms", "tensor_residual", "exp_vector", "omega_tensor",
            "exp_omega", "represent_state", "create", "annihilate", "gamma",
            "weyl", "apply_operator", "alpha_norm", "tail_bound",
            "cutoff_for"},
        "circuits": {
            "Gate", "CompiledCircuit", "parse", "pretty", "compile_circuit",
            "run", "run_sequential"},
        "serialization": {
            "encode_complex", "decode_complex", "encode_vector",
            "decode_vector", "encode_matrix", "decode_matrix",
            "encode_symplectic", "decode_symplectic", "encode_point",
            "decode_point", "encode_state", "decode_state", "encode_tensor",
            "decode_tensor", "load_json", "dump_json"},
    }


def test_library_tolerance_parameters():
    assert tolerance_parameters() == {
        "linalg.takagi(tol)",
        "symplectic.make_symplectic(tol)",
        "symplectic.compose(tol)",
        "symplectic.conjugated_free_field(tol)",
        "serialization.decode_symplectic(tol)",
    }


def test_cli_options():
    assert cli_options() == {
        "": set(),
        "overlap": {"--state-a", "--state-b", "--oracle", "--cutoff",
                    "--format"},
        "apply": {"--symplectic", "--state", "--tol", "--format"},
        "compose": {"--a", "--b", "--tol", "--format"},
        "run": {"--circuit", "--dim", "--normal-form", "--format"},
        "verify": {"--suite", "--trials", "--tol", "--seed", "--format"},
        "takagi": {"--matrix", "--tol", "--format"},
        "demo": set(),
        "demo free-field": {"--symplectic", "--spectrum", "--t", "--tol",
                            "--format"},
    }
