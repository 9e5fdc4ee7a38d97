"""Command-line front end: `python -m confinedbose <subcommand> ...`.

Exit codes: 0 success, 2 invariant failure, 3 guard violation, 4 config
or usage error.  All heavy lifting lives in the library, including which
envelope bounds a run (``bounds.run_envelope``); this module only parses
flags, loads configs and writes result files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import coulomb_confined_norms, run_envelope, run_rate
from .errors import ConfigError, GuardError, InvariantError
from .grids import _atomic_write
from .harness import ExperimentConfig, read_eps_list, run_ladder, run_single, verify_lemmas
from .onebody import trajectory_rows

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_GUARD = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError`` (exit 4); subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="confinedbose")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate-onebody", "simulate-manybody", "counting", "ladder",
                 "verify-lemmas", "bounds", "coulomb-norms"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=1)
    return p


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this subcommand requires --config")
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    return cfg


def _cmd_simulate_onebody(args) -> int:
    from .harness import _csv, initial_state
    from .onebody import evolve_effective

    cfg = _load_config(args)
    spec = cfg.model_spec()
    states = evolve_effective(initial_state(spec, cfg.initial), spec,
                              cfg.time_horizon, cfg.dt, stride=cfg.report_stride)
    os.makedirs(args.out, exist_ok=True)
    _csv(os.path.join(args.out, "onebody.csv"),
         "t,mass,E_phi,sup_phi,H2_phi", trajectory_rows(states, spec))
    return EXIT_OK


def _cmd_run_single(args) -> int:
    run_single(_load_config(args), args.out, counting_reports=args.command == "counting")
    return EXIT_OK


def _cmd_ladder(args) -> int:
    fit = run_ladder(_load_config(args), args.out)
    if not fit.complete:
        print(f"ladder incomplete: {fit.note}", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    checks = verify_lemmas(seed=args.seed or 0)
    os.makedirs(args.out, exist_ok=True)
    table = {c.name: {"passed": c.passed, "worst": c.worst,
                      "tolerance": c.tolerance, "cases": c.cases} for c in checks}
    _atomic_write(os.path.join(args.out, "verify_lemmas.json"), json.dumps(table, indent=2))
    failed = [c.name for c in checks if not c.passed]
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} "
              f"(worst {c.worst:.3e}, tol {c.tolerance:.1e}, {c.cases} cases)")
    if failed:
        print("failed invariants: " + ", ".join(failed), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    spec = cfg.model_spec()
    run_rate(spec)  # a theta or nu outside its window exits before the run writes
    report = run_envelope(spec, *run_single(cfg, args.out, counting_reports=True))
    _atomic_write(os.path.join(args.out, "bounds.json"), report.to_json())
    print(f"below_envelope: {report.below_envelope}")
    return EXIT_OK


def _cmd_coulomb_norms(args) -> int:
    eps_list = read_eps_list(args.config)
    norms = [coulomb_confined_norms(eps) for eps in eps_list]  # every eps checked first
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for eps, res in zip(eps_list, norms):
        rows.append({"eps": eps, "l1_defect": res.l1_defect,
                     "linf_defect": res.linf_defect,
                     "log_divergence": res.log_divergence})
        print(f"eps={eps}: L1 defect {res.l1_defect:.6g}, "
              f"Linf defect {res.linf_defect:.6g}, log term {res.log_divergence:.6g}")
    _atomic_write(os.path.join(args.out, "coulomb_norms.json"), json.dumps(rows, indent=2))
    return EXIT_OK


_COMMANDS = {
    "simulate-onebody": _cmd_simulate_onebody,
    "simulate-manybody": _cmd_run_single,
    "counting": _cmd_run_single,
    "ladder": _cmd_ladder,
    "verify-lemmas": _cmd_verify_lemmas,
    "bounds": _cmd_bounds,
    "coulomb-norms": _cmd_coulomb_norms,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.workers != 1:
            raise ConfigError("every run is sequential; --workers must be 1")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
