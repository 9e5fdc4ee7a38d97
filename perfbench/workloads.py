"""The three benchmark workloads: seeded inputs, one pass each, output checks.

Every pass goes through a real entry point of the package (``cli.main`` or
``harness.verify_lemmas``).  The benchmark generates the configs it hands
the program from the workload seed; the program never sees the seed of the
ladder and nls-bounds workloads, only the initial wavepacket it selects.

Why these workloads:

* ``ladder``: the criterion-12 N-ladder (m = 48, N = 2, 3, 4).  The N = 4
  state is 81 MiB and its ~5-tensor working set outgrows the 300 MiB L3, so
  the exact many-body step and the reports on that state dominate.
* ``nls-bounds``: the two-confined-axes NLS demo (m = 1024, N = 2), a 16 MiB
  cache-resident state with a time-dependent potential and a report every
  10 steps; the only workload that reaches ``bounds`` and the second
  ``evolve_effective`` of the ``bounds`` subcommand.
* ``lemmas``: the projector-algebra suite on small random tensors; no
  dynamics at all, so it is the control for one-body and many-body changes.

The package is imported inside the functions: ``run.py`` imports this module
for its constants and must not load numpy before the workers' thread counts
are pinned.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = ("ladder", "nls-bounds", "lemmas")
DEFAULT_SEED = 7

LADDER_STEPS = 1  # one step at dt = 0.01: the N = 4 point alone costs ~10 s
NLS_STEPS = 10  # one report interval of the demo's cadence
LEMMA_STATES = 40  # random states per particle count (the CLI uses 20)

REFERENCE_ATOL = 1e-8  # results may move at roundoff (~5e-15) between versions
INVARIANT_ATOL = 1e-9  # mass drift, symmetry residual, sum of p_k, trace-norm sandwich

_LADDER_BASE = {
    "regime": "hartree-theta0",
    "free": {"extents": [12.0], "points": [16]},
    "confined": {"intervals": [[-0.5, 0.5]], "points": [3], "eps": 0.2},
    "interaction": {"kind": "gaussian-bump", "amplitude": 2.5, "radius": 2.4, "sigma": 0.8},
    "n_particles": 2,
    "theta": 0.0,
    "nu": None,
    "potential": {"kind": "none"},
    "mode_index": 0,
    "dt": 0.01,
    "ladder": {"particle_counts": [2, 3, 4], "eps_rule": "fixed"},
    "memory_cap_bytes": 2147483648,
}

_NLS_BASE = {
    "regime": "nls-theta",
    "free": {"extents": [16.0], "points": [64]},
    "confined": {"intervals": [[-0.5, 0.5], [-0.5, 0.5]], "points": [4, 4], "eps": 0.66},
    "interaction": {"kind": "gaussian-bump", "amplitude": 1.7, "radius": 2.0, "sigma": 0.5},
    "n_particles": 2,
    "theta": 0.28,
    "nu": 0.6,
    "potential": {"kind": "gaussian", "amplitude": 0.5, "sigma": 2.0, "omega": 1.0},
    "mode_index": 0,
    "dt": 0.005,
    "report_stride": 10,
    "ladder": None,
    "memory_cap_bytes": 2147483648,
}

# Ranges of the seeded initial Gaussian.  Every corner keeps the packet's
# edge mass below the program's 1e-8 guard (worst corner ~1e-9 on the
# ladder grid, whose last node sits at x = 5.25).
_PACKET_RANGES = {
    "ladder": {"center": (-0.25, 0.25), "momentum": (-1.0, 1.0), "width": (0.7, 0.8)},
    "nls-bounds": {"center": (-0.5, 0.5), "momentum": (-1.0, 1.0), "width": (0.9, 1.1)},
}


def make_config(workload: str, seed: int) -> dict:
    """The config document handed to the program for ``workload`` and ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    ranges = _PACKET_RANGES[workload]
    initial = {
        "kind": "gaussian",
        "center": [rng.uniform(*ranges["center"])],
        "momentum": [rng.uniform(*ranges["momentum"])],
        "width": rng.uniform(*ranges["width"]),
    }
    if workload == "ladder":
        base, steps, stride = _LADDER_BASE, LADDER_STEPS, LADDER_STEPS
    else:
        base, steps, stride = _NLS_BASE, NLS_STEPS, _NLS_BASE["report_stride"]
    return {**base, "initial": initial, "time_horizon": round(steps * base["dt"], 12),
            "report_stride": stride, "seed": seed}


def setup(workload: str, seed: int, work_dir: str) -> dict:
    """Build the inputs of one workload: config file, specs, initial states.

    Building the initial states runs the program's own edge-mass guard, so a
    seed that falls outside it fails here, before any pass.
    """
    from confinedbose import harness

    if workload == "lemmas":
        return {"seed": seed, "n_states": LEMMA_STATES}
    path = os.path.join(work_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_config(workload, seed), fh, indent=2)
    cfg = harness.ExperimentConfig.load(path)
    counts = cfg.ladder["particle_counts"] if cfg.ladder else [cfg.n_particles]
    for n in counts:
        harness.initial_state(cfg.model_spec(n_particles=n), cfg.initial)
    return {"config": path}


def run_pass(workload: str, inputs: dict, out_dir: str):
    """One pass through the package's entry point; returns what it returned."""
    from confinedbose import cli, harness

    if workload == "lemmas":
        return harness.verify_lemmas(seed=inputs["seed"], n_states=inputs["n_states"])
    command = "ladder" if workload == "ladder" else "bounds"
    return cli.main([command, "--config", inputs["config"], "--out", out_dir, "--workers", "1"])


# -- checks -------------------------------------------------------------------


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _report_values(prefix: str, reports, values: dict):
    for i, r in enumerate(reports):
        key = f"{prefix}r{i}."
        for name in ("t", "alpha", "beta", "beta_tilde", "E_psi", "E_phi"):
            values[key + name] = float(r[name])
        for k, p in enumerate(r["p_k"]):
            values[f"{key}p{k}"] = float(p)


def _check_run_dir(run_dir: str) -> tuple[list[str], list]:
    """Invariant violations of one ``run_single`` output directory, and its reports."""
    from confinedbose.counting import CountingReport
    from confinedbose.errors import InvariantError

    problems, mass_drift, symmetry = [], 0.0, 0.0
    for name in ("onebody.csv", "manybody.csv"):
        for row in _read_csv(os.path.join(run_dir, name)):
            mass_drift = max(mass_drift, abs(float(row["mass"]) - 1.0))
            symmetry = max(symmetry, float(row.get("symmetry_residual", 0.0)))
    if mass_drift > INVARIANT_ATOL:
        problems.append(f"{run_dir}: mass drift {mass_drift:.3e}")
    if symmetry > INVARIANT_ATOL:
        problems.append(f"{run_dir}: symmetry residual {symmetry:.3e}")
    with open(os.path.join(run_dir, "counting.json"), encoding="utf-8") as fh:
        reports = json.load(fh)
    for r in reports:
        try:
            CountingReport(**{**r, "p_k": tuple(r["p_k"])}).validate()
        except InvariantError as exc:
            problems.append(f"{run_dir} t={r['t']}: {exc}")
        if abs(math.fsum(r["p_k"]) - 1.0) > INVARIANT_ATOL:
            problems.append(f"{run_dir} t={r['t']}: p_k does not sum to one")
        a, tr = r["alpha"], r["trace_distance"]
        if not a - INVARIANT_ATOL <= tr <= math.sqrt(max(8.0 * a, 0.0)) + INVARIANT_ATOL:
            problems.append(f"{run_dir} t={r['t']}: trace distance {tr:.3e} outside "
                            f"[alpha, sqrt(8 alpha)] with alpha {a:.3e}")
    return problems, reports


def check_pass(workload: str, result, out_dir: str) -> tuple[dict, list[str]]:
    """Checked values of one pass and the invariants it violates (any seed)."""
    values: dict = {}
    problems: list[str] = []
    if workload == "lemmas":
        for c in result:
            values[f"{c.name}.passed"] = bool(c.passed)
            values[f"{c.name}.worst"] = float(c.worst)
            if not c.passed:
                problems.append(f"lemma {c.name} failed: worst {c.worst:.3e}")
        return values, problems
    if result != 0:
        problems.append(f"cli exited with code {result}")
        return values, problems
    if workload == "ladder":
        with open(os.path.join(out_dir, "rate_fit.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        if not fit["complete"]:
            problems.append(f"ladder fit incomplete: {fit['note']}")
        for n in _LADDER_BASE["ladder"]["particle_counts"]:
            found, reports = _check_run_dir(os.path.join(out_dir, f"N{n}"))
            problems += found
            _report_values(f"N{n}.", reports, values)
    else:
        found, reports = _check_run_dir(out_dir)
        problems += found
        _report_values("", reports, values)
        with open(os.path.join(out_dir, "bounds.json"), encoding="utf-8") as fh:
            values["below_envelope"] = bool(json.load(fh)["below_envelope"])
    return values, problems


def reference_deviation(values: dict, reference: dict) -> tuple[float, list[str]]:
    """Largest absolute deviation from the reference, and the mismatches."""
    problems = []
    if set(values) != set(reference):
        differ = sorted(set(reference) ^ set(values))
        problems.append(f"checked values differ from the reference in keys {differ[:5]}")
    worst = 0.0
    for key, ref in reference.items():
        if key not in values:
            continue
        got = values[key]
        if isinstance(ref, bool):
            if got != ref:
                problems.append(f"{key}: {got} != reference {ref}")
            continue
        dev = abs(got - ref)
        worst = max(worst, dev)
        if not dev <= REFERENCE_ATOL:
            problems.append(f"{key}: {got!r} deviates from reference {ref!r} by {dev:.3e}")
    return worst, problems
