"""Inventory of the package's settable options.

Lists every tolerance-like parameter of the library's public functions and
every option of each command-line subcommand. A new knob, or a removed one,
shows up as a diff of the expected sets below.
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
