"""Benchmark worker: one fresh process that sets up a workload and runs passes.

``run.py`` starts it from the root of a checkout with ``src`` on
``PYTHONPATH`` and the BLAS/OpenMP thread counts pinned.  It prints ``ready`` once the package is imported and the
workload's inputs are built, so the parent can time set-up, then runs:

* one memory pass with ``tracemalloc`` on, untimed; it is also the warm-up;
* ``--trace 0``: timed passes, at least ``MIN_TIMED_PASSES`` and as many
  more as fit in ``--seconds``;
* ``--trace 1``: one timed pass, then one traced pass.

Every pass writes into its own temporary directory, removed after the pass,
and is checked before the next one starts.  The result goes to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import workloads as wl
from run import OUT_DIR, exit_on_sigterm
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
MIB = 2.0**20

# Timed passes per run at least, sized so that each run's median is steady
# within the bound of run_s while all runs fit the benchmark's time budget.
# On a 2-core Xeon a pass of ladder takes ~11.5 s, of nls-bounds ~8 s (with
# per-pass swings of up to 30 %) and of lemmas ~2 s.
MIN_TIMED_PASSES = {"ladder": 2, "nls-bounds": 5, "lemmas": 8}

CALL_COUNTS = (
    "manybody.symmetry_residual",
    "manybody.manybody_energy",
    "manybody.pair_phase_array",
    "onebody.evolve_effective",
    "counting.compute_report",
    "counting.project_p",
)


@dataclass
class Pass:
    seconds: float = 0.0
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    out_bytes: int = 0
    mfl1_bytes: int = 0
    peak_bytes: int = 0


def _dir_bytes(path: str) -> tuple[int, int]:
    total = mfl1 = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            size = os.path.getsize(os.path.join(dirpath, name))
            total += size
            mfl1 += size if name.endswith(".mfl1") else 0
    return total, mfl1


def run_one(workload: str, inputs: dict, work: str, reference: dict | None,
            memory: bool = False) -> Pass:
    """One pass through the entry point, then its checks; never raises."""
    out = tempfile.mkdtemp(prefix="pass-", dir=work)
    p = Pass()
    try:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = wl.run_pass(workload, inputs, out)
            finally:
                p.seconds = time.perf_counter() - start
                if memory:
                    p.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        p.values, p.problems = wl.check_pass(workload, result, out)
        p.out_bytes, p.mfl1_bytes = _dir_bytes(out)
        if reference is not None:
            p.problems += wl.reference_deviation(p.values, reference)[1]
    except Exception:  # a failed pass is counted, and the run goes on
        p.problems.append(traceback.format_exc(limit=4))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return p


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass, peak_bytes: int,
              reference: dict | None) -> dict:
    s = tracer.summary()
    calls, inclusive = s["calls"], s["inclusive_s"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s["layer_self_s"].get(layer, 0.0)
        m[f"{layer}.errors"] = s["layer_errors"].get(layer, 0)
    evolve_s = inclusive.get("manybody.evolve_manybody", 0.0)
    m["manybody.entry_steps"] = tracer.entry_steps
    m["manybody.entry_steps_per_s"] = tracer.entry_steps / evolve_s if evolve_s else 0.0
    m["manybody.state_mib"] = tracer.state_bytes / MIB
    m["manybody.peak_over_state"] = peak_bytes / tracer.state_bytes if tracer.state_bytes else 0.0
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = calls.get(name, 0)
    reports = calls.get("counting.compute_report", 0)
    m["counting.report_ms"] = (1e3 * inclusive["counting.compute_report"] / reports
                               if reports else 0.0)
    m["grids.write_mfl1_mib"] = traced.mfl1_bytes / MIB
    m["harness.out_mib"] = traced.out_bytes / MIB
    m["trace.overhead_s"] = traced.seconds - untraced.seconds
    m["check.max_dev"] = (wl.reference_deviation(traced.values, reference)[0]
                          if reference is not None else 0.0)
    return m


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def measure(args, inputs: dict, work: str, reference: dict | None) -> dict:
    started = time.perf_counter()
    passes = [run_one(args.workload, inputs, work, reference, memory=True)]
    peak = passes[0].peak_bytes
    result = {"peak_bytes": peak, "env": environment()}
    if args.trace:
        untraced = run_one(args.workload, inputs, work, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_one(args.workload, inputs, work, reference)
        finally:
            tracer.uninstall()
        if traced.values != untraced.values:
            traced.problems.append("traced pass outputs differ from the untraced pass")
        passes += [untraced, traced]
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        result["per_layer"] = per_layer(tracer, traced, untraced, peak, reference)
        result["spans_file"] = os.path.relpath(spans_path)
    else:
        timed, timed_start = [], time.perf_counter()
        while True:
            p = run_one(args.workload, inputs, work, reference)
            passes.append(p)
            timed.append(p.seconds)
            now = time.perf_counter()
            typical = statistics.median(timed)
            if now + typical > started + args.budget:
                break
            if (len(timed) >= MIN_TIMED_PASSES[args.workload]
                    and now - timed_start + typical > args.seconds):
                break
        result["run_s"] = timed
    failed = [p for p in passes if p.problems]
    result["attempted"] = len(passes)
    result["failed"] = len(failed)
    result["problems"] = [line for p in failed for line in p.problems][:20]
    return result


def write_reference(args, inputs: dict, work: str):
    p = run_one(args.workload, inputs, work, None)
    if p.problems:
        raise SystemExit("reference pass failed:\n" + "\n".join(p.problems))
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[args.workload] = {"seed": args.seed, "values": p.values}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=150.0,
                    help="seconds after set-up by which the last pass must end")
    ap.add_argument("--result", default=None)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        inputs = wl.setup(args.workload, args.seed, work)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.write_reference:
            write_reference(args, inputs, work)
            return 0
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            entry = json.load(fh).get(args.workload)
        reference = entry["values"] if entry and entry["seed"] == args.seed else None
        result = measure(args, inputs, work, reference)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
