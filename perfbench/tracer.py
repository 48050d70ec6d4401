"""Per-layer tracing of gaussfock, installed from outside the package.

Each public function of a layer module (its ``__all__``, or its public
top-level functions when it has none) is replaced by a wrapper that records
a span: function, start, end, parent span and operation id. The wrapper is
installed on the defining module and on every gaussfock module that imported
the name directly (``states.operator_norm`` is ``linalg.operator_norm``), so
calls between layers are seen whichever way the caller spells them.

Self time is a span's duration minus the time its child spans cover; calls
run on one thread, so children never overlap and that time is their sum.
Counts and self times are accumulated for every call; spans are kept in
memory up to ``span_cap`` and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb

LAYERS = ("linalg", "symplectic", "siegel", "states", "representation",
          "fock", "circuits", "serialization", "cli")


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == mod.__name__]
    out = []
    for name in names:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        out.append(name)
    return out


class Tracer:
    """Wraps the layer functions of an imported gaussfock package."""

    def __init__(self, package, span_cap: int = 50_000):
        self.active = False
        self.op_id = -1
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []
        self.span_count = 0
        self.grid_entries = 0
        self.basis_states = 0
        self._stack: list[list] = []
        self._fock_tensor = package.fock.FockTensor
        self._install(package)

    def _install(self, package) -> None:
        originals = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        clock = time.perf_counter
        is_fock = qualname.startswith("fock.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            sid = self.span_count
            self.span_count += 1
            frame.append(sid)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[0]
                if len(self.spans) < self.span_cap:
                    self.spans.append((idx, t0, t1, parent, self.op_id))
            if is_fock and isinstance(result, self._fock_tensor):
                self.grid_entries += int(result.coeffs.size)
                self.basis_states += comb(result.cutoff + result.dim,
                                          result.dim)
            return result

        return wrapper

    def reset(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.spans = []
        self.span_count = 0
        self.grid_entries = 0
        self.basis_states = 0

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per function and per layer."""
        out: dict[str, list] = {}
        for name, n, s in zip(self.names, self.calls, self.self_s):
            out[name] = [n, s]
            layer = out.setdefault(name.split(".")[0], [0, 0.0])
            layer[0] += n
            layer[1] += s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent",
                                  "operation"]
        payload["spans_recorded"] = len(self.spans)
        payload["spans_total"] = self.span_count
        payload["spans"] = [[self.names[i], t0, t1, p, op]
                            for i, t0, t1, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
