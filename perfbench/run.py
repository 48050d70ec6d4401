"""Benchmark harness for gaussfock.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process, one closed loop: each
operation starts after the previous one returned, on one thread, with the
BLAS pool fixed at BLAS_THREADS. The loop repeats whole rounds of the
workload's operations until the operations have taken --seconds in total
and at least MIN_OPS have run. Every output is checked outside the timed
region. The last line of standard output is the result as JSON.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 wraps
the package's layer functions (see tracer.py), reports the per-layer metrics
per operation and writes the spans to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
MIN_OPS = 100            # so that latency p90 has ten samples beyond it
WALL_LIMIT_S = 100.0     # stop early, at a round boundary, past this
SETUP_PROBES = 2         # extra set-ups in child processes, for setup_s


class CannotRun(Exception):
    pass


def setup(workload: str, seed: int, workdir: Path, trace: bool):
    """Import the package, build the inputs and warm up.

    The warm-up runs the first operation of each kind once, which loads the
    code paths, the BLAS pool and the package's caches for that kind.

    Returns (seconds, package, tracer or None, ops). Timing starts before
    numpy is imported, so set-up includes every import the program needs.
    """
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import gaussfock
    # the package's __init__ does not import cli; the workloads and the
    # tracer reach every layer as an attribute of the package
    from gaussfock import (circuits, cli, errors, fock, linalg,  # noqa: F401
                           representation, serialization, siegel, states,
                           symplectic)
    if not Path(gaussfock.__file__).resolve().is_relative_to(src.resolve()):
        raise CannotRun(f"gaussfock imported from {gaussfock.__file__}, "
                        f"not from {src}")
    import workloads
    if workload not in workloads.WORKLOADS:
        raise CannotRun(f"unknown workload {workload!r}; choose from "
                        f"{', '.join(workloads.WORKLOADS)}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(gaussfock)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[workload](gaussfock, seed, str(workdir))
    for op in {op.kind: op for op in reversed(ops)}.values():
        if tracer:
            tracer.active = True
        try:
            op.run()
        except (errors.GaussFockError, workloads.OperationFailed):
            pass
        finally:
            if tracer:
                tracer.active = False
    return time.perf_counter() - t0, gaussfock, tracer, ops


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(gf, ops, tracer, seconds: float):
    """Closed loop over whole rounds; returns latencies and counts."""
    import workloads
    failures = (gf.errors.GaussFockError, workloads.OperationFailed)
    latencies: list[float] = []
    attempted = failed = cutoffs = rounds = 0
    timed = 0.0
    problems: list[str] = []
    clock = time.perf_counter
    wall0 = clock()
    while (rounds == 0 or timed < seconds or attempted < MIN_OPS) \
            and clock() - wall0 < WALL_LIMIT_S:
        for op in ops:
            attempted += 1
            if tracer:
                tracer.op_id = attempted
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
            except failures as exc:
                out = exc
            t1 = clock()
            if tracer:
                tracer.active = False
            timed += t1 - t0
            if isinstance(out, failures):
                failed += 1
                print(f"failed: {op.kind}: {out}", file=sys.stderr)
                continue
            latencies.append(t1 - t0)
            cutoffs += op.cutoffs
            err = op.check(out)
            if err is not None:
                problems.append(f"{op.kind}: {err}")
        rounds += 1
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "cutoffs": cutoffs, "rounds": rounds, "timed_s": timed,
            "wall_s": clock() - wall0, "problems": problems}


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    lat = res["latencies"]
    return {
        "ops_per_s": len(lat) / res["timed_s"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(res: dict, tracer) -> dict[str, float]:
    totals = tracer.totals()
    ops = res["attempted"]
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = self_s / ops
    tail_calls = totals["fock.tail_bound"][0]
    out["fock.cutoff_yield"] = res["cutoffs"] / tail_calls if tail_calls else 0.0
    out["fock.grid_fill"] = (tracer.basis_states / tracer.grid_entries
                             if tracer.grid_entries else 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        setup_s, gf, tracer, ops = setup(args.workload, args.seed, workdir,
                                         bool(args.trace))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + ([] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        if tracer:
            tracer.reset()
        res = measure(gf, ops, tracer, args.seconds)
    except (ImportError, CannotRun) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(res, setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(res, tracer) if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "blas_threads": BLAS_THREADS,
              "nproc": os.cpu_count(), "rounds": res["rounds"],
              "ops_per_round": len(ops), "timed_s": res["timed_s"],
              "wall_s": res["wall_s"], "setups_s": setups,
              "end_to_end": e2e, "result": result,
              "latencies_s": res["latencies"]}
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.write(str(RESULTS / f"trace-{stem}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "traced_end_to_end": e2e, "per_layer": values})
    print(f"ops_attempted={res['attempted']} ops_failed={res['failed']} "
          f"rounds={res['rounds']} timed_s={res['timed_s']:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
