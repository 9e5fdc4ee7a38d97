"""Batch experiment runner: configured runs, N-ladders, lemma verification.

A single JSON document fully specifies a run (domains, scaling regime,
interaction, initial data, time grid, ladder, seed); outputs are CSV/JSON
files written atomically, byte-reproducible for a fixed (config, seed).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import counting as cnt
from .errors import ConfigError, GuardError, InvariantError
from .grids import ConfinedDomain, FreeDomain, GridFunction, _atomic_write, norm, write_mfl1
from .manybody import (
    DEFAULT_MEMORY_CAP,
    _energy_and_residual,
    _permutation_average,
    evolve_manybody,
    product_state,
    working_set_bytes,
)
from .model import ExternalPotential, InteractionProfile, ModelSpec
from .onebody import OneBodyState, chi_mode, evolve_effective
from .onebody import trajectory_rows as onebody_rows

__all__ = [
    "ExperimentConfig",
    "RateFit",
    "run_single",
    "run_ladder",
    "verify_lemmas",
    "LemmaCheck",
    "initial_state",
    "read_config_document",
    "read_eps_list",
]


def read_config_document(path) -> dict:
    """The JSON object in the file ``path``; an unreadable file or a document
    that is not an object is a ``ConfigError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return document


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def read_eps_list(path) -> tuple[float, ...]:
    """The ``eps_list`` of the ``coulomb-norms`` document ``path``, (0.1, 0.05,
    0.025) without a document or a list; an entry that is not a number is a
    ``ConfigError``."""
    document = read_config_document(path) if path else {}
    eps_list = document.get("eps_list", [0.1, 0.05, 0.025])
    if not isinstance(eps_list, list) or not all(_is_number(eps) for eps in eps_list):
        raise ConfigError("eps_list must be a list of numbers")
    return tuple(eps_list)


_INITIAL_KEYS = ("kind", "width", "center", "momentum")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment (JSON round-trippable)."""

    regime: str
    free: dict
    confined: dict
    interaction: dict
    n_particles: int = 2
    theta: float = 0.0
    nu: float | None = None
    potential: dict = field(default_factory=lambda: {"kind": "none"})
    mode_index: int = 0
    initial: dict = field(default_factory=lambda: {"kind": "gaussian", "width": 1.0})
    time_horizon: float = 0.5
    dt: float = 5e-3
    report_stride: int = 10
    ladder: dict | None = None
    seed: int = 0
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        """Type checks of the scalar fields and ``initial``; ``model_spec`` checks the model."""
        for name in ("n_particles", "mode_index", "report_stride", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer")
        for name in ("theta", "time_horizon", "dt", "memory_cap_bytes"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number")
        if self.report_stride < 1:
            raise ConfigError("report_stride must be positive")
        if self.ladder is not None and not isinstance(self.ladder, dict):
            raise ConfigError("ladder must be an object")
        if not isinstance(self.initial, dict):
            raise ConfigError("initial must be an object")
        unknown = sorted(set(self.initial) - set(_INITIAL_KEYS))
        if unknown:
            raise ConfigError(f"unknown initial keys {unknown}; known: {_INITIAL_KEYS}")
        if not _is_number(self.initial.get("width", 1.0)):
            raise ConfigError("initial width must be a number")
        for key in ("center", "momentum"):
            entries = self.initial.get(key, [])
            if not isinstance(entries, list) or not all(_is_number(v) for v in entries):
                raise ConfigError(f"initial {key} must be a list of numbers")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad config field: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_document(path))

    def to_dict(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def model_spec(self, n_particles: int | None = None) -> ModelSpec:
        """The model objects this document describes; a malformed domain,
        interaction or potential entry is a ``ConfigError``."""
        try:
            return ModelSpec(
                free=FreeDomain(tuple(self.free["extents"]), tuple(self.free["points"])),
                confined=ConfinedDomain(
                    tuple(tuple(iv) for iv in self.confined["intervals"]),
                    tuple(self.confined["points"]),
                    eps=self.confined.get("eps", 1.0),
                ),
                n_particles=self.n_particles if n_particles is None else n_particles,
                interaction=InteractionProfile(**self.interaction),
                regime=self.regime,
                theta=self.theta,
                nu=self.nu,
                potential=ExternalPotential(**self.potential),
                mode_index=self.mode_index,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model in config: {exc}") from exc


def initial_state(spec: ModelSpec, initial: dict) -> OneBodyState:
    """Normalized initial Phi on the free grid times the configured mode."""
    kind = initial.get("kind", "gaussian")
    if kind != "gaussian":
        raise ConfigError(f"unknown initial state kind {kind!r}")
    width = float(initial.get("width", 1.0))
    center = initial.get("center", [0.0] * spec.free.dim)
    momentum = initial.get("momentum", [0.0] * spec.free.dim)
    if len(center) != spec.free.dim or len(momentum) != spec.free.dim:
        raise ConfigError(f"initial center and momentum need {spec.free.dim} entries, "
                          "one per free axis")
    xs = spec.free.meshgrid()
    r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
    phase = sum(k * x for k, x in zip(momentum, xs))
    values = np.exp(-r2 / (4.0 * width**2) + 1j * phase)
    phi = GridFunction(spec.free, values)
    phi = phi.copy_with(phi.values / norm(phi))
    edge = max(
        float(np.max(np.abs(np.take(phi.values, idx, axis=a)) ** 2)) * spec.free.cell_volume
        for a in range(spec.free.dim)
        for idx in (0, -1)
    )
    if edge > 1e-8:
        raise GuardError("initial wavepacket carries mass near the box boundary")
    return OneBodyState(phi, chi_mode(spec.confined, spec.mode_index), t=0.0)


def _csv(path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def run_single(config: ExperimentConfig, out_dir, counting_reports: bool = True) -> dict:
    """Run one configured experiment; returns a summary dict.

    Writes onebody.csv, manybody.csv, counting.csv/.json, final-state MFL1
    snapshots and run_meta.json into ``out_dir`` (atomically).  The many-body
    run is streamed: each snapshot gets its manybody.csv row and counting
    report as it arrives, before the next is requested, since the evolver
    lends each one from its single buffer; the last one stays valid for the
    final MFL1 file.  The CSVs and reports share one evaluation of each
    snapshot's diagnostics, with one density matrix for the mass, energy and
    report.  The summary holds ``terminal_beta`` (the last report's beta, for
    the ladder fit), the report ``times`` and ``alphas``, the ``reports``, the
    one-body trajectory ``onebody`` and its ``sup_phi`` = sup |phi|,
    ``sup_Phi`` = sup |Phi| and ``H2_phi`` = ||phi||_{H^2} per state.
    """
    os.makedirs(out_dir, exist_ok=True)
    spec = config.model_spec()
    if working_set_bytes(spec) > config.memory_cap_bytes:
        raise GuardError(
            "configured run exceeds the memory cap; reduce the grid, N, or raise the cap"
        )
    one0 = initial_state(spec, config.initial)
    ones = evolve_effective(one0, spec, config.time_horizon, config.dt,
                            stride=config.report_stride)
    manys = evolve_manybody(
        product_state(one0, spec.n_particles), spec, config.time_horizon, config.dt,
        stride=config.report_stride, memory_cap=config.memory_cap_bytes,
    )

    one_rows, sup_free = onebody_rows(ones, spec)
    many_rows, reports = [], []
    for mb, ob, one_row in zip(manys, ones, one_rows):
        e_psi, residual, gamma = _energy_and_residual(mb, spec)
        many_rows.append((mb.t, math.sqrt(np.trace(gamma).real), e_psi, residual))
        if counting_reports:
            reports.append(cnt.compute_report(mb, ob, e_psi, one_row[2], gamma))
        del gamma  # state-sized at N = 2: freed before the next step, which needs a slab
    _csv(os.path.join(out_dir, "onebody.csv"), "t,mass,E_phi,sup_phi,H2_phi", one_rows)
    _csv(os.path.join(out_dir, "manybody.csv"), "t,mass,E_psi,symmetry_residual", many_rows)
    if counting_reports:
        _atomic_write(
            os.path.join(out_dir, "counting.json"),
            json.dumps([r.to_dict() for r in reports], indent=1),
        )
        _atomic_write(
            os.path.join(out_dir, "counting.csv"),
            "\n".join([cnt.CountingReport.csv_header()] + [r.csv_row() for r in reports]) + "\n",
        )

    write_mfl1(os.path.join(out_dir, "final_onebody.mfl1"), spec.free,
               ones[-1].phi_free.values)
    write_mfl1(os.path.join(out_dir, "final_manybody.mfl1"), spec.domain,
               mb.values, n_particles=spec.n_particles)
    meta = {
        "config": config.to_dict(),
        "prefactor_convention": "1/(N-1)" if spec.regime == "hartree-theta0" else "1/N",
        "coupling_length_a": spec.coupling_length,
        "seed": config.seed,
    }
    if spec.mode_index > 0:
        meta["note"] = ("exploratory run: excited confined mode; the singular-regime "
                        "bounds assume the ground mode")
    _atomic_write(os.path.join(out_dir, "run_meta.json"), json.dumps(meta, indent=2))
    summary = {
        "terminal_beta": reports[-1].beta if reports else None,
        "times": [r.t for r in reports],
        "alphas": [r.alpha for r in reports],
        "reports": reports,
        "onebody": ones,
        "sup_phi": [row[3] for row in one_rows],
        "H2_phi": [row[4] for row in one_rows],
        "sup_Phi": sup_free,
    }
    return summary


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(terminal functional) against log N."""

    particle_counts: tuple[int, ...]
    terminal_values: tuple[float, ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    complete: bool
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(self.__dict__, default=list)


_RESIDUAL_CEILING = 0.25  # log-space; 3-point desk fits must not overstate slopes


def fit_rate(ns, values, complete: bool = True, note: str = "") -> RateFit:
    ns = tuple(int(n) for n in ns)
    values = tuple(float(v) for v in values)
    if len(ns) < 3:
        return RateFit(ns, values, None, None, None, complete, "fewer than 3 ladder points")
    if any(v <= 1e-14 for v in values):  # zero up to roundoff
        return RateFit(ns, values, None, None, None, complete,
                       "degenerate ladder (terminal values vanish); no slope")
    logn = np.log(np.asarray(ns, dtype=float))
    logv = np.log(np.asarray(values, dtype=float))
    coeffs = np.polyfit(logn, logv, 1)
    fitvals = np.polyval(coeffs, logn)
    residual = float(np.max(np.abs(fitvals - logv)))
    if residual > _RESIDUAL_CEILING:
        return RateFit(ns, values, None, float(coeffs[1]), residual, complete,
                       "residual above threshold; slope withheld")
    return RateFit(ns, values, float(coeffs[0]), float(coeffs[1]), residual, complete, note)


def _ladder_eps(config: ExperimentConfig, n: int) -> float:
    ladder = config.ladder or {}
    rule = ladder.get("eps_rule", "fixed")
    if rule == "fixed":
        return config.confined.get("eps", 1.0)
    if rule == "power":
        nu = ladder.get("nu", config.nu)
        if not _is_number(nu):
            raise ConfigError("eps_rule 'power' needs nu, a number")
        return float(n) ** (-float(nu))
    if rule == "list":
        eps_list, counts = ladder.get("eps_list"), list(ladder["particle_counts"])
        if not (isinstance(eps_list, list) and len(eps_list) >= len(counts)
                and all(_is_number(eps) for eps in eps_list)):
            raise ConfigError("eps_rule 'list' needs an eps_list with a number per point")
        return float(eps_list[counts.index(n)])
    raise ConfigError(f"unknown eps rule {rule!r}")


def _ladder_point(config: ExperimentConfig, n: int) -> ExperimentConfig:
    """The single-run config of the ladder point with N = ``n``."""
    return ExperimentConfig.from_dict(
        {**config.to_dict(), "n_particles": n,
         "confined": {**config.confined, "eps": _ladder_eps(config, n)}, "ladder": None}
    )


def run_ladder(config: ExperimentConfig, out_dir) -> RateFit:
    """Run the N-ladder and fit the log-log slope of the terminal beta.

    The points run one after another.  Failing points leave partial results
    and mark the fit incomplete.
    """
    if not config.ladder or not config.ladder.get("particle_counts"):
        raise ConfigError("ladder config with particle_counts is required")
    ns = config.ladder["particle_counts"]
    if not isinstance(ns, (list, tuple)) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in ns):
        raise ConfigError("ladder particle_counts must be a list of integers")
    if len(set(ns)) < len(ns):
        raise ConfigError("ladder particle_counts must be distinct")
    if len(ns) < 3:
        raise ConfigError("a rate fit needs at least 3 ladder points")
    os.makedirs(out_dir, exist_ok=True)

    jobs = []
    for n in ns:
        cfg_n = _ladder_point(config, n)
        if working_set_bytes(cfg_n.model_spec()) > config.memory_cap_bytes:
            raise GuardError(f"ladder point N={n} exceeds the memory cap")
        jobs.append((n, cfg_n))

    results: dict[int, float | None] = {}
    failures: list[str] = []
    for n, cfg_n in jobs:
        try:
            summary = run_single(cfg_n, os.path.join(out_dir, f"N{n}"))
            results[n] = summary["terminal_beta"]
        except (GuardError, ConfigError, InvariantError) as exc:
            failures.append(f"N={n}: {exc}")
            results[n] = None

    good_ns = [n for n in ns if results.get(n) is not None]
    good_vals = [results[n] for n in good_ns]
    complete = len(good_ns) == len(ns)
    note = "; ".join(failures)
    if len(good_ns) < 3:
        fit = RateFit(tuple(good_ns), tuple(good_vals), None, None, None, complete,
                      note or "fewer than 3 successful points")
    else:
        fit = fit_rate(good_ns, good_vals, complete=complete, note=note)
    _csv(os.path.join(out_dir, "ladder.csv"), "N,terminal_beta",
         [(n, results[n]) for n in good_ns])
    _atomic_write(os.path.join(out_dir, "rate_fit.json"), fit.to_json())
    _atomic_write(os.path.join(out_dir, "plot_ladder.py"), _PLOT_STUB)
    return fit


_PLOT_STUB = """\
# Stub: log-log plot of the ladder produced alongside this file.
import csv
import math

import matplotlib.pyplot as plt

ns, vals = [], []
with open("ladder.csv") as fh:
    for row in csv.DictReader(fh):
        ns.append(float(row["N"]))
        vals.append(float(list(row.values())[1]))
plt.loglog(ns, vals, "o-")
plt.xlabel("N")
plt.ylabel("terminal functional")
plt.savefig("ladder.png", dpi=150)
"""


# -- lemma verification -------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    worst: float
    tolerance: float
    cases: int


def _random_symmetric(rng, dim: int, n: int) -> np.ndarray:
    raw = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    acc = _permutation_average(raw, n, 1)
    return acc / np.linalg.norm(acc.ravel())


def _random_unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


_LEMMA_DIM = 4  # one-body dimension of the random lemma states


def verify_lemmas(seed: int = 0, particle_counts=(2, 3, 4, 5), n_states: int = 20,
                  corruption: str | None = None) -> list[LemmaCheck]:
    """Run the projector-algebra invariant suite on random symmetric states.

    Returns one check row per invariant; ``corruption`` deliberately breaks
    an ingredient ('phi-norm') as a negative control.  weight-composition mostly checks
    H^2 = 1 of the reflector frame of ``hat_apply``; number-identity, hat-p-commutation
    and occupation-routes check that frame against ``project_q``/``_p`` and the enumeration.
    """
    rng = np.random.default_rng(seed)
    dim = _LEMMA_DIM
    tol_tight, tol_bound = 1e-9, 1e-10

    worst = {name: 0.0 for name in (
        "reference-normalization", "completeness", "number-identity",
        "weight-composition", "hat-p-commutation", "shift-identity",
        "weight-difference-bound", "trace-sandwich", "alpha-two-routes",
        "occupation-routes",
    )}
    cases = 0
    for n in particle_counts:
        for _ in range(n_states):
            cases += 1
            phi = _random_unit(rng, dim)
            if corruption == "phi-norm":
                phi = phi * 1.01
            worst["reference-normalization"] = max(
                worst["reference-normalization"], abs(np.linalg.norm(phi) - 1.0)
            )
            if corruption == "phi-norm":
                phi = phi / np.linalg.norm(phi)
            psi = _random_symmetric(rng, dim, n)

            comps = cnt.occupancy_components(psi, phi)
            total = sum(comps)
            worst["completeness"] = max(
                worst["completeness"], float(np.linalg.norm((total - psi).ravel()))
            )
            for k, c in enumerate(comps):
                qsum = np.zeros_like(c)
                for axis in range(n):
                    qsum += cnt.project_q(c, phi, axis)
                worst["number-identity"] = max(
                    worst["number-identity"],
                    float(np.linalg.norm((qsum - k * c).ravel())),
                )

            f = cnt.WeightFunction(rng.normal(size=n + 1))
            g = cnt.WeightFunction(rng.normal(size=n + 1))
            fg_psi = cnt.hat_apply(f * g, psi, phi)
            f_g_psi = cnt.hat_apply(f, cnt.hat_apply(g, psi, phi), phi)
            worst["weight-composition"] = max(
                worst["weight-composition"],
                float(np.linalg.norm((fg_psi - f_g_psi).ravel())),
            )
            for axis in (0, n - 1):
                a = cnt.hat_apply(f, cnt.project_p(psi, phi, axis), phi)
                b = cnt.project_p(cnt.hat_apply(f, psi, phi), phi, axis)
                worst["hat-p-commutation"] = max(
                    worst["hat-p-commutation"], float(np.linalg.norm((a - b).ravel()))
                )

            tmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for j, k in ((0, 2), (1, 1), (2, 0), (0, 0)):
                resid = cnt.shift_identity_residual(f, j, k, tmat, psi, phi,
                                                    variant=cases % 2)
                worst["shift-identity"] = max(worst["shift-identity"], resid)

            for tag in ("k/N", "n"):
                for l in (1, 2):
                    lhs, rhs = cnt.weight_difference_bound(tag, l, psi, phi)
                    worst["weight-difference-bound"] = max(
                        worst["weight-difference-bound"], lhs - rhs
                    )

            a_q = cnt.alpha(psi, phi)
            a_g = cnt.alpha_density_route(psi, phi)
            worst["alpha-two-routes"] = max(worst["alpha-two-routes"], abs(a_q - a_g))

            gamma = cnt.density_matrix(psi.reshape((dim,) * n))
            tr = cnt.trace_distance(gamma, phi)
            violation = max(a_q - tr, tr - math.sqrt(8.0 * a_q))
            worst["trace-sandwich"] = max(worst["trace-sandwich"], violation)

            pk_fast = cnt.occupation_distribution(psi, phi)
            pk_enum = cnt.occupation_distribution_enumeration(psi, phi)
            pk_binom = cnt.occupation_distribution_binomial(psi, phi)
            worst["occupation-routes"] = max(
                worst["occupation-routes"],
                float(np.max(np.abs(pk_fast - pk_enum))),
                float(np.max(np.abs(pk_fast - pk_binom))),
            )

    tolerances = {
        "reference-normalization": 1e-10,
        "completeness": tol_bound,
        "number-identity": tol_bound,
        "weight-composition": tol_bound,
        "hat-p-commutation": tol_bound,
        "shift-identity": tol_tight,
        "weight-difference-bound": tol_bound,
        "trace-sandwich": tol_tight,
        "alpha-two-routes": tol_bound,
        "occupation-routes": tol_tight,
    }
    return [
        LemmaCheck(name, bool(worst[name] <= tolerances[name]), float(worst[name]),
                   tolerances[name], cases)
        for name in worst
    ]
