"""Benchmark entry point for the confinedbose package.

    python3 perfbench/run.py --workload ladder --seed 7 --seconds 15 --trace 0

Run it from the root of a checkout.  It starts fresh worker processes
(``worker.py``) with ``src`` on ``PYTHONPATH``, times their set-up, lets the
last one run the passes, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones
with ``--trace 1``.  The lines before it give each metric's samples and
quartiles, the environment and any failed check.

Exit code 0 means the run measured (``correct`` says whether the program's
outputs passed); any other code means there was nothing to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_run"  # work files (removed) and span dumps (kept)
TIME_LIMIT = 170.0  # seconds; a run must end within 180
SETUP_PROBES = 2  # set-up-only processes started before the worker
# Set in the worker's environment, so before numpy is imported there; one
# BLAS thread was no slower than two on this 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
MIB = 2.0**20


class BenchError(Exception):
    """The run could not measure anything."""


def _quartiles(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median}


def _cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            res = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10, check=True)
            out[level.lower()] = int(res.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            out[level.lower()] = None
    return out


def _start_worker(args, extra, deadline):
    """Start a worker and wait until it reports ``ready``; returns (proc, seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        seconds = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not finish set-up (exit code {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, seconds


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.abspath(OUT_DIR)
    env.update((var, THREADS) for var in THREAD_VARS)
    return env


def _stop(proc):
    """End the worker; SIGTERM first, so that it removes its work directory."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    proc.stdout.close()


def exit_on_sigterm(signum, frame):
    """Turn SIGTERM into SystemExit, so ``finally`` blocks still clean up."""
    raise SystemExit(128 + signum)


def _wait(proc, deadline):
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        _stop(proc)
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def measure(args, spec: dict) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="result-", dir=OUT_DIR)
    try:
        setup_s = []
        for _ in range(SETUP_PROBES if not args.trace else 0):
            proc, seconds = _start_worker(args, ["--setup-only"], deadline)
            _wait(proc, deadline)
            setup_s.append(seconds)
        result_path = os.path.join(scratch, "result.json")
        budget = deadline - time.perf_counter() - 15.0
        proc, seconds = _start_worker(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--budget", f"{budget:.1f}", "--result", result_path], deadline)
        setup_s.append(seconds)
        _wait(proc, deadline)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["per_layer"]
        samples = {}
    else:
        metrics = {
            "run_s": statistics.median(result["run_s"]),
            "setup_s": statistics.median(setup_s),
            "peak_mem_mib": result["peak_bytes"] / MIB,
            "pass_rate": (attempted - failed) / attempted,
        }
        samples = {"run_s": _quartiles(result["run_s"]), "setup_s": _quartiles(setup_s)}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    env = {**result["env"], "nproc": os.cpu_count(), **_cache_sizes()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "samples": samples, "problems": result["problems"],
                      "spans_file": result.get("spans_file")}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    if not os.path.isfile(os.path.join("src", "confinedbose", "__init__.py")):
        print("perfbench: run from the root of a confinedbose checkout (no src/confinedbose)",
              file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        line = measure(args, spec)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
