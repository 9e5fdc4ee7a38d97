"""Batch experiment runner: configured runs, N-ladders, lemma verification.

A single JSON document fully specifies a run (domains, scaling regime,
interaction, initial data, time grid, ladder, seed); outputs are CSV/JSON
files written atomically, byte-reproducible for a fixed (config, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import counting as cnt
from .errors import ConfigError, GuardError, InvariantError
from .grids import (
    ConfinedDomain, FreeDomain, GridFunction, _atomic_write, norm, step_count, write_mfl1,
)
from .manybody import (
    DEFAULT_MEMORY_CAP,
    _energy_and_residual,
    _permutation_average,
    check_memory_cap,
    evolve_manybody,
    product_state,
)
from .model import ExternalPotential, InteractionProfile, ModelSpec
from .onebody import OneBodyState, chi_mode, evolve_effective, trajectory_rows

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
    """A finite int or float: bools, NaN and infinities are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def _holds_bool(value) -> bool:
    """Whether a JSON value is a boolean, or a list or object holding one."""
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return isinstance(value, bool) or any(map(_holds_bool, items))


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
        """Type checks of the scalar fields, ``initial`` and the model entries
        (numbers, never booleans), and the time grid (``grids.step_count``);
        ``model_spec`` checks the model's values."""
        for name in ("n_particles", "mode_index", "report_stride", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer")
        for name in ("theta", "time_horizon", "dt", "memory_cap_bytes"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number")
        if self.nu is not None and not _is_number(self.nu):
            raise ConfigError("nu must be a number or null")
        for name in ("free", "confined", "interaction", "potential"):
            if _holds_bool(getattr(self, name)):
                raise ConfigError(f"{name} takes numbers, not booleans")
        step_count(self.time_horizon, self.dt)
        if self.memory_cap_bytes <= 0:
            raise ConfigError("memory_cap_bytes must be positive")
        if self.report_stride < 1:
            raise ConfigError("report_stride must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.ladder is not None and not isinstance(self.ladder, dict):
            raise ConfigError("ladder must be an object")
        if not isinstance(self.initial, dict):
            raise ConfigError("initial must be an object")
        unknown = sorted(set(self.initial) - set(_INITIAL_KEYS))
        if unknown:
            raise ConfigError(f"unknown initial keys {unknown}; known: {_INITIAL_KEYS}")
        width = self.initial.get("width", 1.0)
        if not (_is_number(width) and width > 0):
            raise ConfigError("initial width must be a positive number")
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


def run_single(config: ExperimentConfig, out_dir, counting_reports: bool = True):
    """Run one configured experiment; returns (reports, states, rows).

    Writes onebody.csv, manybody.csv, counting.csv/.json, final-state MFL1
    snapshots and run_meta.json into ``out_dir`` (atomically), which is
    created only once the model, the memory cap and the time grid have been
    checked.  The many-body run is streamed: each snapshot gets its
    manybody.csv row and counting report as it arrives, before the next is
    requested, since the evolver lends each one from its single buffer; the
    last one stays valid for the final MFL1 file.  The CSVs and reports
    share one evaluation of each snapshot's diagnostics, with one
    ``manybody.OneBodyDensity`` for the mass, energy and report.  Returns
    the counting reports (empty without ``counting_reports``), the one-body
    trajectory and its onebody.csv rows (``onebody.trajectory_rows``), which
    ``bounds.run_envelope`` turns into the run's bound report.
    """
    spec = config.model_spec()
    check_memory_cap(spec, config.memory_cap_bytes)
    one0 = initial_state(spec, config.initial)
    ones = evolve_effective(one0, spec, config.time_horizon, config.dt,
                            stride=config.report_stride)
    manys = evolve_manybody(
        product_state(one0, spec.n_particles), spec, config.time_horizon, config.dt,
        stride=config.report_stride, memory_cap=config.memory_cap_bytes,
    )
    os.makedirs(out_dir, exist_ok=True)

    one_rows = trajectory_rows(ones, spec)
    many_rows, reports = [], []
    for mb, ob, one_row in zip(manys, ones, one_rows):
        e_psi, residual, gamma = _energy_and_residual(mb, spec)
        many_rows.append((mb.t, math.sqrt(gamma.trace()), e_psi, residual))
        if counting_reports:
            reports.append(cnt.compute_report(mb, ob, e_psi, one_row[2], gamma))
        del gamma  # an N >= 3 gamma is not held through the next step
    _csv(os.path.join(out_dir, "onebody.csv"), "t,mass,E_phi,sup_phi,H2_phi", one_rows)
    _csv(os.path.join(out_dir, "manybody.csv"), "t,mass,E_psi,symmetry_residual", many_rows)
    if counting_reports:
        docs = [asdict(r) for r in reports]
        _atomic_write(os.path.join(out_dir, "counting.json"), json.dumps(docs, indent=1))
        for doc in docs:
            doc["p_k"] = ";".join(f"{p:.12g}" for p in doc["p_k"])
        _csv(os.path.join(out_dir, "counting.csv"),
             ",".join(f.name for f in fields(cnt.CountingReport)),
             [doc.values() for doc in docs])

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
    return reports, ones, one_rows


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
        return RateFit(ns, values, None, None, None, complete,
                       note or "fewer than 3 ladder points")
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

    The points run one after another, once every point's model, memory cap
    and initial state are checked; ``out_dir`` is made only then.  Points
    that fail while running leave partial results and mark the fit incomplete.
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
    jobs = []
    for n in ns:
        cfg_n = _ladder_point(config, n)
        spec_n = cfg_n.model_spec()
        check_memory_cap(spec_n, config.memory_cap_bytes)
        initial_state(spec_n, cfg_n.initial)
        jobs.append((n, cfg_n))
    os.makedirs(out_dir, exist_ok=True)

    results: dict[int, float] = {}  # terminal beta of each point that ran
    failures: list[str] = []
    for n, cfg_n in jobs:
        try:
            reports, _, _ = run_single(cfg_n, os.path.join(out_dir, f"N{n}"))
            results[n] = reports[-1].beta
        except (GuardError, ConfigError, InvariantError) as exc:
            failures.append(f"N={n}: {exc}")

    good_ns = [n for n in ns if n in results]
    fit = fit_rate(good_ns, [results[n] for n in good_ns], complete=len(good_ns) == len(ns),
                   note="; ".join(failures))
    _csv(os.path.join(out_dir, "ladder.csv"), "N,terminal_beta",
         [(n, results[n]) for n in good_ns])
    _atomic_write(os.path.join(out_dir, "rate_fit.json"), fit.to_json())
    return fit


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

# invariant name -> tolerance on its worst violation, in report order
_LEMMA_TOLERANCES = {
    "reference-normalization": 1e-10,
    "completeness": 1e-10,
    "number-identity": 1e-10,
    "weight-composition": 1e-10,
    "hat-p-commutation": 1e-10,
    "shift-identity": 1e-9,
    "weight-difference-bound": 1e-10,
    "trace-sandwich": 1e-9,
    "alpha-two-routes": 1e-10,
    "occupation-routes": 1e-9,
}


def _number_frame_checks(psi, phi, n):
    """|phi| = 1, sum_k P_k psi = psi, and sum_i q_i = k on the k-th component."""
    yield "reference-normalization", abs(np.linalg.norm(phi) - 1.0)
    comps = cnt.occupancy_components(psi, phi)
    yield "completeness", float(np.linalg.norm((sum(comps) - psi).ravel()))
    for k, c in enumerate(comps):
        qsum = sum(cnt.project_q(c, phi, axis) for axis in range(n))
        yield "number-identity", float(np.linalg.norm((qsum - k * c).ravel()))


def _weighted_operator_checks(rng, psi, phi, n, variant):
    """(fg)^ = f^ g^, f^ p_i = p_i f^, the shift identity and the weight-difference
    bound, for random weights f, g and a random two-body block T drawn here."""
    f = rng.normal(size=n + 1)
    g = rng.normal(size=n + 1)
    fg = cnt.hat_apply(f * g, psi, phi)
    f_g = cnt.hat_apply(f, cnt.hat_apply(g, psi, phi), phi)
    yield "weight-composition", float(np.linalg.norm((fg - f_g).ravel()))
    for axis in (0, n - 1):
        a = cnt.hat_apply(f, cnt.project_p(psi, phi, axis), phi)
        b = cnt.project_p(cnt.hat_apply(f, psi, phi), phi, axis)
        yield "hat-p-commutation", float(np.linalg.norm((a - b).ravel()))
    tmat = rng.normal(size=(_LEMMA_DIM,) * 2) + 1j * rng.normal(size=(_LEMMA_DIM,) * 2)
    for j, k in ((0, 2), (1, 1), (2, 0), (0, 0)):
        yield "shift-identity", cnt.shift_identity_residual(f, j, k, tmat, psi, phi, variant)
    for tag in ("k/N", "n"):
        for l in (1, 2):
            lhs, rhs = cnt.weight_difference_bound(tag, l, psi, phi)
            yield "weight-difference-bound", lhs - rhs


def _route_checks(psi, phi, n):
    """alpha by q_1 and by gamma, alpha <= Tr|gamma - p| <= sqrt(8 alpha), and
    p(k) by the frame, the pattern enumeration and the binomial shortcut."""
    a_q = cnt.alpha(psi, phi)
    yield "alpha-two-routes", abs(a_q - cnt.alpha_density_route(psi, phi))
    tr = cnt.trace_distance(cnt.density_matrix(psi.reshape((_LEMMA_DIM,) * n)), phi)
    yield "trace-sandwich", max(a_q - tr, tr - math.sqrt(8.0 * a_q))
    pk_fast = cnt.occupation_distribution(psi, phi)
    for oracle in (cnt.occupation_distribution_enumeration, cnt.occupation_distribution_binomial):
        yield "occupation-routes", float(np.max(np.abs(pk_fast - oracle(psi, phi))))


def verify_lemmas(seed: int = 0, particle_counts=(2, 3, 4, 5),
                  n_states: int = 20) -> list[LemmaCheck]:
    """Run the projector-algebra invariant suite on random symmetric states.

    Returns one check row per ``_LEMMA_TOLERANCES`` entry, with its largest
    violation over every state.  Each state draws phi, psi, then the weights
    and two-body block of ``_weighted_operator_checks``; the three check
    generators run one after another, and each frees its state-sized vectors
    when it is exhausted, so the traced peak is that of one group of checks.
    weight-composition mostly checks H^2 = 1 of the reflector frame of
    ``hat_apply``; number-identity, hat-p-commutation and occupation-routes
    check that frame against ``project_q``/``_p`` and the enumeration.  A
    negative seed is a ``ConfigError``.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(_LEMMA_TOLERANCES, 0.0)
    cases = 0
    for n in particle_counts:
        for _ in range(n_states):
            cases += 1
            phi = _random_unit(rng, _LEMMA_DIM)
            psi = _random_symmetric(rng, _LEMMA_DIM, n)
            for name, violation in itertools.chain(
                    _number_frame_checks(psi, phi, n),
                    _weighted_operator_checks(rng, psi, phi, n, cases % 2),
                    _route_checks(psi, phi, n)):
                worst[name] = max(worst[name], violation)
    return [LemmaCheck(name, bool(worst[name] <= tol), float(worst[name]), tol, cases)
            for name, tol in _LEMMA_TOLERANCES.items()]
