"""Experiment harness: configs, runs, ladders, lemma suite, CLI contract."""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from confinedbose import counting, harness, manybody, onebody
from confinedbose.cli import main
from confinedbose.errors import ConfigError, GuardError
from confinedbose.harness import (
    ExperimentConfig,
    fit_rate,
    run_ladder,
    run_single,
    verify_lemmas,
)
from confinedbose.counting import CountingReport, compute_report
from confinedbose.grids import _SLAB_BYTES
from confinedbose.manybody import (
    _LANCZOS_BASIS,
    ManyBodyState,
    _energy_and_residual,
    estimate_state_bytes,
    product_state,
    working_set_bytes,
)

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
NLS_DEMO = json.loads((DEMO_CONFIGS / "nls_theta_two_confined.json").read_text())

BASE = {
    "regime": "hartree-theta0",
    "free": {"extents": [12.0], "points": [16]},
    "confined": {"intervals": [[-0.5, 0.5]], "points": [3], "eps": 0.5},
    "interaction": {"kind": "gaussian-bump", "amplitude": 1.5, "radius": 2.4, "sigma": 0.8},
    "n_particles": 2,
    "initial": {"kind": "gaussian", "width": 0.8},
    "time_horizon": 0.05,
    "dt": 5e-3,
    "report_stride": 5,
    "seed": 7,
}


def config(**overrides):
    return ExperimentConfig.from_dict({**BASE, **overrides})


def test_config_round_trip_identity(tmp_path):
    cfg = config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    again = ExperimentConfig.load(path)
    assert again == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**BASE, "bogus": 1})


def test_run_single_zero_interaction_alpha_series(tmp_path):
    cfg = config(interaction={"kind": "gaussian-bump", "amplitude": 0.0,
                              "radius": 1.5, "sigma": 0.5})
    reports, _, _ = run_single(cfg, tmp_path / "run")
    assert max(abs(r.alpha) for r in reports) < 1e-10
    for name in ("onebody.csv", "manybody.csv", "counting.csv", "counting.json",
                 "final_onebody.mfl1", "final_manybody.mfl1", "run_meta.json"):
        assert (tmp_path / "run" / name).exists()
    meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
    assert meta["prefactor_convention"] == "1/(N-1)"


def test_run_single_deterministic_outputs(tmp_path):
    cfg = config()
    run_single(cfg, tmp_path / "a")
    run_single(cfg, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == ["counting.csv", "counting.json", "final_manybody.mfl1",
                     "final_onebody.mfl1", "manybody.csv", "onebody.csv", "run_meta.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_single_memory_guard(tmp_path):
    cfg = config(memory_cap_bytes=1000)
    with pytest.raises(GuardError):
        run_single(cfg, tmp_path / "run")


TWO_CONFINED_AXES = {  # m = 64 * 4 * 4 = 1024, the NLS demo's one-body grid
    "free": {"extents": [16.0], "points": [64]},
    "confined": {"intervals": [[-0.5, 0.5], [-0.5, 0.5]], "points": [4, 4], "eps": 0.66},
}
TWO_FREE_AXES = {  # m = 16 * 16 * 3 = 768, the Hartree demo's one-body grid
    "free": {"extents": [12.0, 12.0], "points": [16, 16]},
    "confined": {"intervals": [[-0.5, 0.5]], "points": [3], "eps": 0.2},
}


def confined_square(points):  # m = 16 * points^2: the pair table outgrows a slab
    return {"confined": {"intervals": [[-0.5, 0.5], [-0.5, 0.5]], "points": [points] * 2,
                         "eps": 0.5}}


@pytest.mark.parametrize("n, overrides, steps, tight", [
    pytest.param(3, {}, 1, False, id="N3-m48-1step"),
    pytest.param(3, {}, 9, False, id="N3-m48-9steps"),
    # fused full kicks between reports and the potential substep, all in place
    pytest.param(3, {"report_stride": 3, "potential": {"kind": "gaussian", "amplitude": 0.8,
                                                       "sigma": 2.0, "omega": 3.0}},
                 9, False, id="N3-m48-9steps-stride3-potential"),
    pytest.param(2, {}, 1, False, id="N2-m48"),
    pytest.param(2, TWO_CONFINED_AXES, 1, True, id="N2-m1024"),
    pytest.param(2, TWO_FREE_AXES, 1, True, id="N2-m768"),
    # the snapshot's pair energy rebuilds a 1 MiB (2.4 MiB) real table and its kernel
    pytest.param(2, confined_square(8), 1, True, id="N2-m1024-8x8"),
    pytest.param(2, confined_square(10), 1, True, id="N2-m1600-10x10"),
    pytest.param(4, {}, 1, True, id="N4-m48"),
])
def test_run_single_peak_within_working_set(tmp_path, traced_peak, n, overrides, steps, tight):
    # a report at every step unless overridden; at N = 2 gamma is read through the state
    cfg = config(**{"n_particles": n, "dt": 1e-2, "time_horizon": steps * 1e-2,
                    "report_stride": 1, **overrides})
    _, peak = traced_peak(lambda: run_single(cfg, tmp_path / "run"))
    model = working_set_bytes(cfg.model_spec())
    assert peak <= model
    if tight:  # where the state dominates, the model is close, not just an upper bound
        assert model <= 1.25 * peak


@pytest.mark.parametrize("n, grid", [
    pytest.param(4, {}, id="N4-m48"),
    pytest.param(2, TWO_CONFINED_AXES, id="N2-m1024"),
])
def test_snapshot_diagnostics_peak(traced_peak, n, grid):
    # one snapshot's energy and counting report, traced beyond psi.  The
    # terms are those of working_set_bytes, the larger of two moments.  The
    # energy's pair term rebuilds the real pair table (2^d_f m_f m_c^2
    # reals), first beside its kernel C (m_f m_c^2), then beside its rho_2
    # buffer (at most a slab); it forms no m^2-sized array.  The report's
    # occupation chain holds one 1/m-sized link, a slab of walk scratch
    # (psi and its rows are not copied) and two 1/m^2-sized arrays, beside
    # the m^2-sized gamma at N >= 3 (at N = 2 it is read through psi, not
    # formed), then the trace distance's Lanczos basis, whose few m-sized
    # work vectors fit the freed scratch.  No allowance is granted.
    cfg = config(n_particles=n, **grid)
    spec = cfg.model_spec()
    one = harness.initial_state(spec, cfg.initial)
    state = product_state(one, n)
    e_phi = onebody.effective_energy(one, spec)
    m = math.prod(spec.domain.shape)
    state_bytes = estimate_state_bytes(spec)

    def diagnostics():
        e_psi, _, gamma = _energy_and_residual(state, spec)
        compute_report(state, one, e_psi, e_phi, gamma)

    _, peak = traced_peak(diagnostics)
    kernel = 8 * math.prod(spec.free.shape) * math.prod(spec.confined.shape) ** 2
    table = 2**spec.free.dim * kernel
    pair_terms = table + max(kernel, _SLAB_BYTES, 16 * m)
    gamma_bytes = 16 * m**2 if n > 2 else 0
    report_terms = (state_bytes // m + max(_SLAB_BYTES, state_bytes // m**2)
                    + 2 * (state_bytes // m**2) + gamma_bytes + 16 * m * _LANCZOS_BASIS)
    assert peak <= max(pair_terms, report_terms)


def test_run_single_peak_independent_of_report_count(tmp_path, traced_peak):
    # m = 48, N = 3, 10 steps: 11 reported snapshots against 2
    peaks = {}
    for stride in (1, 10):
        cfg = config(n_particles=3, dt=1e-2, time_horizon=0.1, report_stride=stride)
        peaks[stride] = traced_peak(lambda: run_single(cfg, tmp_path / f"stride{stride}"))[1]
    assert abs(peaks[1] - peaks[10]) <= estimate_state_bytes(cfg.model_spec())


def test_run_single_evaluates_residual_once_per_state(tmp_path, monkeypatch):
    # one step at stride 1: the guard's value serves the t = 0 row, so the
    # two snapshots take one transposition residual each
    calls = []
    residual = manybody._transposition_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(manybody, "_transposition_residual", counted)
    run_single(config(time_horizon=5e-3, report_stride=1), tmp_path / "run")
    assert len(calls) == 2

    # the cache rests on read-only values; the caller's array keeps its flag
    domain = config().model_spec().domain
    values = np.zeros(domain.shape * 2, dtype=np.complex128)
    state = ManyBodyState(domain, values)
    first = (0,) * values.ndim
    with pytest.raises(ValueError):
        state.values[first] = 1.0
    assert values.flags.writeable
    values[first] = 1.0
    assert state.values[first] == 1.0  # a view, not a copy


def test_fit_rate_contracts():
    few = fit_rate((2, 3), (0.1, 0.05))
    assert few.slope is None and "fewer" in few.note

    degenerate = fit_rate((2, 3, 4), (0.0, 0.0, 0.0))
    assert degenerate.slope is None and "degenerate" in degenerate.note

    clean = fit_rate((2, 3, 4), [1.0 / n for n in (2, 3, 4)])
    assert clean.slope == pytest.approx(-1.0, abs=1e-12)
    assert clean.residual < 1e-12

    noisy = fit_rate((2, 3, 4), (0.1, 0.9, 0.05))
    assert noisy.slope is None and "withheld" in noisy.note


def test_run_ladder_zero_interaction_degenerate(tmp_path):
    cfg = config(
        free={"extents": [16.0], "points": [8]},
        interaction={"kind": "gaussian-bump", "amplitude": 0.0, "radius": 1.5, "sigma": 0.5},
        ladder={"particle_counts": [2, 3, 4], "eps_rule": "fixed"},
        time_horizon=0.02, dt=5e-3, report_stride=4,
    )
    fit = run_ladder(cfg, tmp_path / "ladder")
    assert fit.complete
    assert fit.slope is None and "degenerate" in fit.note
    assert (tmp_path / "ladder" / "rate_fit.json").exists()


LADDER_FAILING_AT_4 = dict(
    regime="nls-theta", theta=0.3,
    free={"extents": [6.0], "points": [16]},
    confined={"intervals": [[-0.5, 0.5]], "points": [3], "eps": 0.5},
    interaction={"kind": "gaussian-bump", "amplitude": 1.0, "radius": 2.0, "sigma": 0.6},
    initial={"kind": "gaussian", "width": 0.4},
    time_horizon=0.01, dt=0.01, report_stride=1,
    ladder={"particle_counts": [2, 3, 4], "eps_rule": "fixed"},
)


def test_run_ladder_keeps_points_before_a_failure(tmp_path):
    # the scaled support shrinks with N: only N = 4 trips the resolvability guard
    fit = run_ladder(config(**LADDER_FAILING_AT_4), tmp_path / "ladder")
    assert not fit.complete
    assert fit.particle_counts == (2, 3)
    assert "N=4" in fit.note
    rows = (tmp_path / "ladder" / "ladder.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # header and the two good points
    cfg = write_config(tmp_path, **LADDER_FAILING_AT_4)
    assert main(["ladder", "--config", cfg, "--out", str(tmp_path / "cli")]) == 3


def test_run_ladder_dt_sensitivity(tmp_path):
    # halving the step perturbs terminal values within the O(dt^2) budget
    # and moves the fitted slope by well under 0.05
    base = dict(
        free={"extents": [16.0], "points": [8]},
        interaction={"kind": "gaussian-bump", "amplitude": 2.0, "radius": 6.2, "sigma": 1.6},
        ladder={"particle_counts": [2, 3, 4], "eps_rule": "fixed"},
        time_horizon=0.4, report_stride=100,
    )
    slopes = {}
    for dt in (1e-2, 5e-3):
        fit = run_ladder(config(dt=dt, **base), tmp_path / f"dt{dt}")
        assert fit.slope is not None
        slopes[dt] = fit.slope
    assert abs(slopes[1e-2] - slopes[5e-3]) <= 0.05


def test_run_ladder_requires_three_points(tmp_path):
    cfg = config(ladder={"particle_counts": [2, 3], "eps_rule": "fixed"})
    with pytest.raises(ConfigError):
        run_ladder(cfg, tmp_path / "ladder")


def test_ladder_eps_rules():
    # power: eps = N^-nu, the coupled confinement; nu from the ladder or the config
    power = config(ladder={"particle_counts": [2, 3, 4], "eps_rule": "power", "nu": 0.6})
    for n in (2, 3, 4):
        assert harness._ladder_eps(power, n) == pytest.approx(n ** -0.6, rel=1e-15)
    from_config = config(nu=0.7, ladder={"particle_counts": [2, 3, 4], "eps_rule": "power"})
    assert harness._ladder_eps(from_config, 4) == pytest.approx(4 ** -0.7, rel=1e-15)
    listed = config(ladder={"particle_counts": [2, 3, 4], "eps_rule": "list",
                            "eps_list": [0.5, 0.25, 0.125]})
    assert [harness._ladder_eps(listed, n) for n in (2, 3, 4)] == [0.5, 0.25, 0.125]

    no_nu = config(ladder={"particle_counts": [2, 3, 4], "eps_rule": "power"})
    with pytest.raises(ConfigError, match="needs nu"):
        harness._ladder_eps(no_nu, 2)
    unknown = config(ladder={"particle_counts": [2, 3, 4], "eps_rule": "cubic"})
    with pytest.raises(ConfigError, match="unknown eps rule"):
        harness._ladder_eps(unknown, 2)


# every shipped experiment config; coulomb_eps.json is the coulomb-norms eps list
EXPERIMENT_CONFIGS = sorted(p for p in DEMO_CONFIGS.glob("*.json") if p.name != "coulomb_eps.json")


@pytest.mark.parametrize("path", EXPERIMENT_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_build_every_model(path):
    cfg = ExperimentConfig.load(path)
    counts = cfg.ladder["particle_counts"] if cfg.ladder else [cfg.n_particles]
    for n in counts:
        spec = harness._ladder_point(cfg, n).model_spec()
        assert spec.n_particles == n
        assert spec.eps == harness._ladder_eps(cfg, n)
        assert working_set_bytes(spec) <= cfg.memory_cap_bytes


def test_verify_lemmas_pass_and_seed_stability():
    checks_a = verify_lemmas(seed=1, particle_counts=(2, 3), n_states=4)
    checks_b = verify_lemmas(seed=99, particle_counts=(2, 3), n_states=4)
    assert all(c.passed for c in checks_a)
    outcomes_a = {c.name: c.passed for c in checks_a}
    outcomes_b = {c.name: c.passed for c in checks_b}
    assert outcomes_a == outcomes_b


def test_verify_lemmas_negative_control(monkeypatch):
    # one p(k) route broken by 1e-6 fails occupation-routes and no other check
    frame_route = counting.occupation_distribution
    monkeypatch.setattr(counting, "occupation_distribution",
                        lambda psi, phi: frame_route(psi, phi) + 1e-6)
    checks = verify_lemmas(seed=1, particle_counts=(2,), n_states=2)
    assert [c.name for c in checks if not c.passed] == ["occupation-routes"]


# -- CLI ------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, **overrides}), encoding="utf-8")
    return str(path)


def test_cli_requires_config(tmp_path):
    assert main(["counting", "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("argv", [
    pytest.param(["bounds", "--nope"], id="unknown-flag"),
    pytest.param(["ladder", "--workers", "two"], id="workers-not-integer"),
    pytest.param([], id="no-subcommand"),
])
def test_cli_usage_error_is_config_error(capsys, argv):
    # exit 2 is an invariant failure, so argparse's own exit code is not used
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: confinedbose" in capsys.readouterr().out


LIST_LADDER = {"particle_counts": [2, 3, 4], "eps_rule": "list"}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, document", [
    pytest.param("counting", "{not json", id="not-json"),
    pytest.param("simulate-onebody", {"interaction": {**BASE["interaction"], "width": 1.0}},
                 id="interaction-key"),
    pytest.param("simulate-onebody", {"potential": {"kind": "none", "depth": 1.0}},
                 id="potential-key"),
    pytest.param("simulate-onebody", {"free": {"extents": [12.0]}}, id="free-points-missing"),
    pytest.param("simulate-onebody", {"free": {"extents": [12.0], "points": [12]}},
                 id="free-points-12"),
    pytest.param("simulate-onebody", {"free": {"extents": [12.0], "points": [16.7]}},
                 id="free-points-fractional"),
    pytest.param("simulate-onebody", {"free": {"extents": [12.0], "points": ["16"]}},
                 id="free-points-string"),
    pytest.param("simulate-onebody", {"confined": {**BASE["confined"], "points": [3.9]}},
                 id="confined-points-fractional"),
    pytest.param("simulate-onebody",
                 {"interaction": {"kind": "tabulated", "table": [[0.0, 1.0], [1.0, 0.0]]}},
                 id="tabulated"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": [0.5]}}, id="eps-list-short"),
    pytest.param("ladder", {"ladder": LIST_LADDER}, id="eps-list-missing"),
    pytest.param("simulate-onebody", {"initial": {"kind": "gaussian", "width": "x"}},
                 id="width-string"),
    pytest.param("simulate-onebody", {"dt": "x"}, id="dt-string"),
    pytest.param("simulate-onebody", {"time_horizon": None}, id="time-horizon-null"),
    pytest.param("simulate-onebody", {"report_stride": "x"}, id="stride-string"),
    pytest.param("simulate-onebody", {"report_stride": 0}, id="stride-zero-onebody"),
    pytest.param("simulate-manybody", {"report_stride": 0}, id="stride-zero-manybody"),
    pytest.param("ladder", {"ladder": [2, 3, 4]}, id="ladder-list"),
    pytest.param("simulate-onebody",
                 {"free": {"extents": [12.0, 12.0], "points": [16, 16]},
                  "initial": {"kind": "gaussian", "width": 0.8, "center": [0.0]}},
                 id="center-short"),
    pytest.param("simulate-onebody",
                 {"initial": {"kind": "gaussian", "width": 0.8, "momentum": [1.0, 0.0]}},
                 id="momentum-long"),
    pytest.param("simulate-onebody",
                 {"initial": {"kind": "gaussian", "width": 0.8, "centre": [0.0]}},
                 id="initial-key"),
    pytest.param("simulate-manybody",
                 {"initial": {"kind": "gaussian", "width": 0.8, "center": ["a"]}},
                 id="center-string"),
    pytest.param("simulate-manybody", {"mode_index": "1"}, id="mode-index-string"),
    pytest.param("simulate-manybody", {"memory_cap_bytes": "x"}, id="memory-cap-string"),
    pytest.param("counting", {"dt": float("nan")}, id="dt-nan"),
    pytest.param("counting", {"time_horizon": float("inf")}, id="time-horizon-inf"),
    pytest.param("counting", {"time_horizon": -0.5}, id="time-horizon-negative"),
    pytest.param("counting", {"memory_cap_bytes": float("nan")}, id="memory-cap-nan"),
    pytest.param("counting", {"memory_cap_bytes": 0}, id="memory-cap-zero"),
    pytest.param("simulate-manybody", {"memory_cap_bytes": -5}, id="memory-cap-negative"),
    pytest.param("coulomb-norms", None, id="coulomb-missing-file"),
    pytest.param("coulomb-norms", "{not json", id="coulomb-not-json"),
    pytest.param("coulomb-norms", {"eps_list": ["x"]}, id="coulomb-eps-string"),
    pytest.param("coulomb-norms", {"eps_list": 0.1}, id="coulomb-eps-not-list"),
    pytest.param("ladder", {"ladder": {"particle_counts": [2, 3, "x"]}}, id="counts-string"),
    pytest.param("ladder", {"ladder": {"particle_counts": [2, 2.5, 4]}}, id="counts-float"),
    pytest.param("ladder", {"ladder": {"particle_counts": [2, 3, True]}}, id="counts-bool"),
    pytest.param("ladder", {"ladder": {"particle_counts": "234"}}, id="counts-string-list"),
    pytest.param("ladder", {"ladder": {"particle_counts": [2, 2, 3]}}, id="counts-repeated"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": ["x", 0.2, 0.2]}},
                 id="eps-list-string"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": [None, 0.2, 0.2]}},
                 id="eps-list-null"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": 0.2}}, id="eps-list-number"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": [True, 0.2, 0.2]}},
                 id="eps-list-bool"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_list": ["0.2", 0.2, 0.2]}},
                 id="eps-list-numeric-string"),
    pytest.param("ladder", {"ladder": {**LIST_LADDER, "eps_rule": "power", "nu": "x"}},
                 id="nu-string"),
    pytest.param("simulate-manybody", {"nu": NAN}, id="nu-nan"),
    pytest.param("simulate-manybody", {"nu": INF}, id="nu-inf"),
    pytest.param("simulate-manybody", {"nu": True}, id="nu-bool"),
    pytest.param("simulate-onebody", {"interaction": {**BASE["interaction"], "amplitude": NAN}},
                 id="interaction-amplitude-nan"),
    pytest.param("simulate-onebody", {"interaction": {**BASE["interaction"], "sigma": NAN}},
                 id="interaction-sigma-nan"),
    pytest.param("simulate-onebody", {"interaction": {**BASE["interaction"], "sigma": 0.0}},
                 id="interaction-sigma-zero"),
    pytest.param("simulate-onebody",
                 {"regime": "nls-theta", "theta": 0.3,
                  "interaction": {**BASE["interaction"], "radius": INF}},
                 id="interaction-radius-inf"),
    pytest.param("simulate-onebody", {"potential": {"kind": "gaussian", "amplitude": NAN}},
                 id="potential-amplitude-nan"),
    pytest.param("simulate-onebody",
                 {"potential": {"kind": "gaussian", "amplitude": 0.5, "omega": INF}},
                 id="potential-omega-inf"),
    pytest.param("simulate-onebody",
                 {"potential": {"kind": "gaussian", "amplitude": 0.5, "sigma": 0.0}},
                 id="potential-sigma-zero"),
    pytest.param("simulate-onebody", {"free": {"extents": [NAN], "points": [16]}},
                 id="free-extent-nan"),
    pytest.param("simulate-onebody", {"initial": {"kind": "gaussian", "width": 0.0}},
                 id="initial-width-zero"),
    pytest.param("simulate-onebody", {"initial": {"kind": "gaussian", "width": -0.8}},
                 id="initial-width-negative"),
    pytest.param("simulate-manybody", {"seed": -1}, id="seed-negative"),
    pytest.param("simulate-onebody",
                 {"confined": {**BASE["confined"], "intervals": [[-INF, 0.5]]}},
                 id="confined-interval-inf"),
    pytest.param("ladder", {"ladder": {"particle_counts": [2, 3, 4]},
                            "initial": {**BASE["initial"], "center": [0.0, 0.0]}},
                 id="ladder-center-long"),
    pytest.param("coulomb-norms", {"eps_list": [0.1, 0.9]}, id="coulomb-eps-above-half"),
    # an NLS run's coupling b is defined for the ground confined mode only
    pytest.param("bounds", json.dumps({**NLS_DEMO, "mode_index": 1, "time_horizon": 0.05}),
                 id="nls-excited-mode"),
])
def test_cli_bad_config_file(tmp_path, capsys, command, document):
    # every config is refused before --out is made and before a result is printed
    path = tmp_path / "broken.json"
    if document is not None:  # None: the file does not exist
        text = document if isinstance(document, str) else json.dumps({**BASE, **document})
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command",
                         ["counting", "simulate-manybody", "bounds", "simulate-onebody", "ladder"])
def test_cli_refused_time_grid_leaves_no_directory(tmp_path, capsys, command):
    # the model, the memory cap and the time grid are checked before --out is made
    name = "ladder_theta0" if command == "ladder" else "hartree_theta0_one_confined"
    document = json.loads((DEMO_CONFIGS / f"{name}.json").read_text())
    path = tmp_path / "negative_horizon.json"
    path.write_text(json.dumps({**document, "time_horizon": -0.5}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 4
    assert "T must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_counting_above_4096_one_body_points(tmp_path):
    # m = 64 x 64 x 2 = 8192 passes the memory guard, so the whole run completes
    document = json.loads((DEMO_CONFIGS / "hartree_theta0_one_confined.json").read_text())
    document.update(free={**document["free"], "points": [64, 64]},
                    confined={**document["confined"], "points": [2]},
                    n_particles=1, time_horizon=0.01, dt=0.005, report_stride=1)
    path = tmp_path / "m8192.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["counting", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "counting.csv").exists()


def test_cli_rejects_singular_exponent(tmp_path, capsys):
    # an interaction key that no computation reads is refused, not silently kept
    cfg = write_config(tmp_path, interaction={**BASE["interaction"], "singular_exponent": 1.8})
    assert main(["simulate-onebody", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "singular_exponent" in err


@pytest.mark.parametrize("overrides", [{"theta": 0.2}, {"theta": 0.28, "nu": 0.9}],
                         ids=["theta", "nu"])
def test_cli_bounds_rejects_rate_parameters_before_the_run(tmp_path, overrides):
    cfg = write_config(tmp_path, regime="nls-theta", **overrides)
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 4
    assert not (out / "counting.csv").exists()


def test_cli_simulate_and_counting(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["counting", "--config", cfg, "--out", str(out)]) == 0
    # counting.csv holds the counting.json reports: a header of the report's
    # fields, then one row each at 12 digits, p_k joined with ';'
    reports = json.loads((out / "counting.json").read_text())
    header, *rows = (out / "counting.csv").read_text().splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(CountingReport)]
    assert len(rows) == len(reports)
    for row, doc in zip(rows, reports):
        cells = dict(zip(header.split(","), row.split(",")))
        assert [float(p) for p in cells.pop("p_k").split(";")] == pytest.approx(
            doc.pop("p_k"), rel=1e-11, abs=1e-15)
        assert {k: float(v) for k, v in cells.items()} == pytest.approx(doc, rel=1e-11)
    out2 = tmp_path / "ob"
    assert main(["simulate-onebody", "--config", cfg, "--out", str(out2)]) == 0
    assert (out2 / "onebody.csv").exists()
    out3 = tmp_path / "mb"
    assert main(["simulate-manybody", "--config", cfg, "--out", str(out3)]) == 0
    assert (out3 / "manybody.csv").exists()
    assert not (out3 / "counting.csv").exists()


def test_cli_seed_zero_overrides_config(tmp_path):
    cfg = write_config(tmp_path)  # the config's seed is 7
    out = tmp_path / "s0"
    assert main(["simulate-manybody", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 0 and meta["config"]["seed"] == 0


def test_cli_guard_exit_code(tmp_path):
    # a refused memory cap, or a ladder point's initial state with mass at the box
    # edge, leaves no --out behind, for a run and for the ladder's points
    edge = {"ladder": {"particle_counts": [2, 3, 4]},
            "initial": {**BASE["initial"], "center": [5.0]}}
    for command, overrides in (("counting", {"memory_cap_bytes": 1000}),
                               ("ladder", {**LADDER_FAILING_AT_4, "memory_cap_bytes": 1000}),
                               ("ladder", edge)):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate-onebody", "simulate-manybody", "counting",
                                     "ladder", "verify-lemmas", "bounds", "coulomb-norms"])
def test_cli_refuses_parallel_workers(tmp_path, command):
    # every run is sequential: any --workers other than 1 is refused up front
    cfg = write_config(tmp_path, **LADDER_FAILING_AT_4)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", "2"]) == 4
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate-onebody", "simulate-manybody", "counting",
                                     "bounds", "ladder"])
def test_cli_refuses_coulomb_kind_without_directory(tmp_path, capsys, command):
    # the interaction is one bounded profile; the Coulomb quadratures build their own inputs
    document = json.loads((DEMO_CONFIGS / "ladder_theta0.json").read_text())
    path = tmp_path / "coulomb.json"
    path.write_text(json.dumps({**document, "interaction": {"kind": "coulomb", "amplitude": 1.0,
                                                           "radius": 0.5}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown interaction kind 'coulomb'" in err
    assert not out.exists()



def test_cli_verify_lemmas(tmp_path):
    out = tmp_path / "v"
    assert main(["verify-lemmas", "--out", str(out), "--seed", "3"]) == 0
    table = json.loads((out / "verify_lemmas.json").read_text())
    assert all(entry["passed"] for entry in table.values())


def test_cli_verify_lemmas_refuses_negative_seed(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify-lemmas", "--out", str(out), "--seed", "-1"]) == 4
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_coulomb_norms(tmp_path):
    eps_cfg = tmp_path / "eps.json"
    eps_cfg.write_text(json.dumps({"eps_list": [0.1]}), encoding="utf-8")
    out = tmp_path / "c"
    assert main(["coulomb-norms", "--config", str(eps_cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "coulomb_norms.json").read_text())
    assert rows[0]["linf_defect"] <= 0.01


def test_cli_bounds_hartree(tmp_path, monkeypatch):
    calls = []
    sup_norms = onebody.sup_norms

    def counted(state):
        calls.append(1)
        return sup_norms(state)

    monkeypatch.setattr(onebody, "sup_norms", counted)
    cfg = write_config(tmp_path, time_horizon=0.05, dt=5e-3, report_stride=2)
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["regime"] == "mean-field"
    assert report["below_envelope"] is True
    assert len(calls) == 6  # one per one-body snapshot: 10 steps, stride 2


def test_cli_bounds_short_range_reuses_run(tmp_path, monkeypatch):
    calls, norm_calls = [], []
    evolve, sup_norms = onebody.evolve_effective, onebody.sup_norms

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    def counted_norms(state):
        norm_calls.append(1)
        return sup_norms(state)

    monkeypatch.setattr(onebody, "evolve_effective", counted)
    monkeypatch.setattr(harness, "evolve_effective", counted)
    monkeypatch.setattr(onebody, "sup_norms", counted_norms)
    demo = json.loads((DEMO_CONFIGS / "nls_theta_two_confined.json").read_text())
    demo["confined"]["points"] = [2, 2]
    demo["time_horizon"] = 10 * demo["dt"]
    path = tmp_path / "nls.json"
    path.write_text(json.dumps(demo), encoding="utf-8")
    out = tmp_path / "b"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "bounds.json").read_text())
    counting = json.loads((out / "counting.json").read_text())
    assert report["regime"] == "short-range"
    assert report["times"] == [r["t"] for r in counting]
    assert len(calls) == 1
    assert len(norm_calls) == len(counting)  # one per one-body snapshot
