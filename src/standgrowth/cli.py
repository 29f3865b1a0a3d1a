"""Command-line interface.

Subcommands::

    standgrowth simulate SCENARIO POLICY [--horizon H] [--step DT] --out FILE
    standgrowth times    SCENARIO [--out FILE]
    standgrowth optimize SCENARIO [--intervals N] [--levels SPEC] [--out FILE]
    standgrowth verify   SCENARIO [--policies N] [--seed S] [--out FILE]

POLICY is one of ``zero``, ``max``, ``e0``, ``esup``, ``et:T`` (T a number),
or ``pw:FILE`` pointing at a JSON file ``{"breakpoints": [...], "levels":
[...]}`` where a level is a rate or ``"hold"``.

Exit codes: 0 success, 1 configuration or validation error, 2 constraint exit
before the requested horizon, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .analysis import EnvelopeRefs, audit_trajectory, check_hypotheses
from .config import ConfigError, load_scenario
from .dynamics import (HOLD, InfeasibleBoundary, NonViable, Policy, integrate,
                       json_text, sample_policies, write_events_json,
                       write_trajectory_csv)
from .optimizer import NoFeasiblePolicy, brute_force
from .trajectories import build_policy, characteristic_times, validity_diagnostics

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONSTRAINT = 2
EXIT_VERIFY = 3


def _parse_policy(spec: str, scenario) -> Policy:
    if spec in ("zero", "max", "e0", "esup"):
        return build_policy(scenario, spec)
    if spec.startswith("et:"):
        try:
            T = float(spec[3:])
        except ValueError:
            raise ConfigError(
                f"et:T needs a numeric target horizon T (got {spec[3:]!r})") from None
        return build_policy(scenario, "et", T=T)
    if spec.startswith("pw:"):
        return _read_piecewise(spec[3:])
    raise ConfigError(f"unknown policy spec {spec!r} "
                      "(expected zero|max|e0|esup|et:T|pw:FILE)")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_piecewise(path: str) -> Policy:
    """Policy from a JSON object {"breakpoints": [numbers], "levels": [rates or "hold"]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict) or not {"breakpoints", "levels"} <= data.keys():
        raise ConfigError(f'{path}: a piecewise policy must be a JSON object with '
                          f'"breakpoints" and "levels" lists')
    bps, levels = data["breakpoints"], data["levels"]
    if not isinstance(bps, list) or not all(_is_number(b) for b in bps):
        raise ConfigError(f'{path}: "breakpoints" must be a list of numbers '
                          f'(got {json.dumps(bps)})')
    if not isinstance(levels, list) or not all(lv == HOLD or _is_number(lv) for lv in levels):
        raise ConfigError(f'{path}: "levels" must be a list of rates or "hold" '
                          f'(got {json.dumps(levels)})')
    return Policy.piecewise(bps, levels)


def _horizon(args, loaded) -> float:
    if getattr(args, "horizon", None) is not None:
        return args.horizon
    if loaded.run.horizon is not None:
        return loaded.run.horizon
    raise ConfigError("no horizon: pass --horizon or set [run] horizon in the scenario")


def _emit(payload: dict, out) -> None:
    """Write ``payload`` as JSON to the file ``out``, or to stdout without one."""
    text = json_text(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    policy = _parse_policy(args.policy, scenario)
    horizon = _horizon(args, loaded)
    step = args.step if args.step is not None else loaded.run.step
    traj = integrate(scenario, policy, horizon, step=step)
    out = args.out
    write_trajectory_csv(traj, scenario.env, out)
    sidecar = out[:-4] + ".events.json" if out.endswith(".csv") else out + ".events.json"
    write_events_json(traj, sidecar)
    print(f"wrote {out} and {sidecar} "
          f"({len(traj.t)} samples, validity end {traj.validity_end:g})")
    if traj.validity_end < horizon * (1.0 - 1e-12):
        kinds = ", ".join(ev.kind for ev in traj.events if ev.terminal)
        print(f"constraint exit before horizon: {kinds} at t={traj.validity_end:g}")
        return EXIT_CONSTRAINT
    return EXIT_OK


def cmd_times(args) -> int:
    loaded = load_scenario(args.scenario)
    times = characteristic_times(loaded.scenario, T=loaded.run.horizon)
    payload = times.to_json_dict()
    payload["validity"] = validity_diagnostics(loaded.scenario).to_json_dict()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_optimize(args) -> int:
    loaded = load_scenario(args.scenario)
    if loaded.economics is None:
        raise ConfigError(f"{loaded.path}: optimization needs an [economics] section")
    horizon = _horizon(args, loaded)
    levels = tuple(args.levels.split(","))
    result = brute_force(loaded.scenario, loaded.economics, horizon,
                         n_intervals=args.intervals, levels=levels,
                         terminal_n_min=args.terminal_n_min,
                         candidates_csv=args.candidates_csv)
    _emit(result.to_json_dict(), args.out)
    if args.out:
        print(f"wrote {args.out}")
    print(f"best value {result.best_value:.6g} with policy kind "
          f"{result.best_policy.kind} ({result.enumerated} candidates enumerated, "
          f"{result.feasible} feasible)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.policies < 1:
        raise ConfigError(f"--policies must be at least 1 (got {args.policies})")
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    horizon = _horizon(args, loaded)
    rng = np.random.default_rng(args.seed)
    refs = EnvelopeRefs.build(scenario, horizon, step=args.step)
    xi_m = refs.xi_lower_bound()
    hyp = check_hypotheses(scenario)

    policies = sample_policies(scenario, args.policies, rng, horizon)
    total_violations = []
    audited = 0
    for i, policy in enumerate(policies):
        traj = integrate(scenario, policy, horizon, step=args.step,
                         fault_s_drift=args.inject_fault)
        report = audit_trajectory(scenario, traj, refs, xi_m=xi_m)
        audited += 1
        for v in report.violations:
            total_violations.append({"policy": i, **v.to_json_dict()})

    ok = hyp.all_pass and not total_violations
    payload = {
        "scenario": loaded.path,
        "seed": args.seed,
        "policies_audited": audited,
        "hypotheses": hyp.to_json_dict(),
        "violations": total_violations,
        "pass": ok,
    }
    _emit(payload, args.out)

    rows = [("H1 energy decreasing+convex", hyp.h1_energy),
            ("H2 competition shape", hyp.h2_competition),
            ("H3 ceiling rate below e_max", hyp.h3_ceiling_rate),
            ("H4 elasticity bounded below", hyp.h4_elasticity),
            (f"envelope audit ({audited} policies)", not total_violations)]
    width = max(len(r[0]) for r in rows)
    for name, passed in rows:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="standgrowth", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"standgrowth {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one policy and export CSV+JSON")
    sim.add_argument("scenario")
    sim.add_argument("policy", help="zero|max|e0|esup|et:T|pw:FILE")
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--step", type=float, default=None)
    sim.add_argument("--out", default="trajectory.csv")
    sim.set_defaults(func=cmd_simulate)

    tim = sub.add_parser("times", help="characteristic times and validity diagnostics")
    tim.add_argument("scenario")
    tim.add_argument("--out", default=None)
    tim.set_defaults(func=cmd_times)

    opt = sub.add_parser("optimize", help="brute-force thinning-schedule search")
    opt.add_argument("scenario")
    opt.add_argument("--intervals", type=int, default=8)
    opt.add_argument("--levels", default="0,max,hold",
                     help="comma list of rates, 'max', or 'hold'")
    opt.add_argument("--horizon", type=float, default=None)
    opt.add_argument("--terminal-n-min", action="store_true",
                     help="only compare schedules ending at n_min")
    opt.add_argument("--candidates-csv", default=None,
                     help="also write per-candidate screening values")
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)

    ver = sub.add_parser("verify", help="hypothesis checks and envelope audits")
    ver.add_argument("scenario")
    ver.add_argument("--policies", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--horizon", type=float, default=None)
    ver.add_argument("--step", type=float, default=None)
    ver.add_argument("--out", default=None)
    ver.add_argument("--inject-fault", type=float, default=0.0,
                     help="testing aid: per-step multiplicative basal-area drift")
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleBoundary, NonViable, NoFeasiblePolicy) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
