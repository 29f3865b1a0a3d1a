"""Seeded inputs, operations and correctness oracles of the three workloads.

Every workload is a closed loop: one client runs one operation at a time.
A workload object yields an endless, seed-determined stream of :class:`Op`
values; work done by the stream itself between two operations (building the
audit references) happens inside the timed loop but outside every operation's
latency.  Each operation's oracle checks its output; the worker runs it with
the loop clock stopped.

* ``search``: ``brute_force(scenario, econ, H, n_intervals=8)``, cycling over
  the bundled scenarios but ``convex_price_power`` with H drawn from the
  admissible window of each.
* ``search_convex``: the same operation on ``convex_price_power`` alone, where
  ``check_prop2`` is known to mislabel the optimum, so about half of its
  operations fail.
* ``audit``: ``integrate`` plus ``audit_trajectory`` of one sampled policy,
  in blocks of ten policies per scenario (half of them terminal).
* ``cli``: one ``python -m standgrowth.cli`` command, cycling through
  ``times``, ``simulate esup``, ``simulate et:T``, ``optimize`` and ``verify``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import standgrowth as sg
import standgrowth.cli  # noqa: F401  (binds sg.cli)

SCENARIOS = ("concave_price_power", "convex_price_power", "fagacees",
             "linear_growth", "low_energy")
# ``check_prop2`` reports ``E0Optimal`` on ``convex_price_power`` over about
# half of its window while another schedule is better; that scenario runs as
# ``search_convex`` so the gated ``search`` has no failing operation.
SEARCH_SCENARIOS = tuple(name for name in SCENARIOS if name != "convex_price_power")
CANONICAL_OF_BRANCH = {"E0Optimal": "E0", "EsupOptimal": "Esup", "ETOptimal": "ET"}
# Additive recurrence by the golden ratio: with a uniform random offset every
# draw is uniform on [0, 1), and any prefix of the sequence is spread evenly,
# so the share of horizons falling into a given sub-window is nearly the same
# for every seed.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SEARCH_INTERVALS = 8
FINER = 8                     # oracle step: 8x finer than the default step
VALUE_RTOL = 1e-9             # fine re-integration and canonical-tie tolerance
IBP_RTOL = 1e-6               # objective against its by-parts twin
AUDIT_POLICIES = 10           # per scenario block: 5 free, 5 terminal
CLI_COMMANDS = ("times", "simulate_esup", "simulate_et", "optimize", "verify")
CLI_INTERVALS = 5
CLI_POLICIES = 10


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Op:
    """One operation: ``run()`` is timed, ``check(output)`` is the oracle.

    ``check`` returns a list of failure messages (empty when correct) and
    may record accuracy figures in ``accuracy``.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    accuracy: dict = field(default_factory=dict)


class Context:
    """The bundled scenarios and their admissible horizon windows."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.loaded = {name: sg.load_scenario(self.path(name)) for name in SCENARIOS}
        self.windows = {name: self._window(loaded.scenario)
                        for name, loaded in self.loaded.items()}

    def path(self, name: str) -> str:
        return str(self.root / "scenarios" / f"{name}.ini")

    @staticmethod
    def _window(scenario) -> tuple[float, float]:
        """Open window (t0_n, t_upper) of admissible horizons, capped at t_star."""
        p = scenario.params
        lo = sg.time_to_count(p, scenario.initial.n, p.n_min)
        t_upper = sg.t_cap0(scenario)
        hi = p.t_star if sg.is_unreachable(t_upper) else min(t_upper, p.t_star)
        return lo, hi


def _in_window(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * min(max(u, 1e-9), 1.0 - 1e-9)


# ---------------------------------------------------------------------------
# search


def check_search(scenario, econ, horizon: float, result, accuracy: dict) -> list:
    """Oracle for one ``brute_force`` result."""
    failures = []
    canon = [v for v in result.canonical_values.values() if v is not None]
    best = result.best_value
    if canon:
        best_canon = max(canon)
        tie = 1e-12 * max(1.0, abs(best), abs(best_canon))
        if best < best_canon - tie:
            failures.append(f"best_value {best!r} below best canonical {best_canon!r}")
    traj = sg.integrate(scenario, result.best_policy, horizon,
                        step=horizon / (4096 * FINER))
    fine = sg.objective(scenario, econ, traj)
    ibp = sg.objective_ibp(scenario, econ, traj)
    accuracy["objective_rel_err"] = rel_err(best, fine)
    accuracy["ibp_rel_err"] = rel_err(ibp, fine)
    if accuracy["objective_rel_err"] > VALUE_RTOL:
        failures.append(f"best_value {best!r} differs from the {FINER}x finer "
                        f"objective {fine!r}")
    if accuracy["ibp_rel_err"] > IBP_RTOL:
        failures.append(f"objective_ibp {ibp!r} differs from objective {fine!r}")
    branch = result.condition_report.branch
    name = CANONICAL_OF_BRANCH.get(branch)
    if name is not None:
        value = result.canonical_values.get(name)
        if value is None or rel_err(value, best) > VALUE_RTOL:
            failures.append(f"condition_report {branch} but {name}={value!r} does not "
                            f"tie best_value {best!r} (gap {result.gap:+.4g}, "
                            f"best kind {result.best_policy.kind})")
    return failures


class Search:
    """Revenue-optimal schedule search, cycling over ``scenarios``."""

    def __init__(self, ctx: Context, seed: int, workdir: Path,
                 candidates_csv: bool = False, scenarios=SEARCH_SCENARIOS,
                 name: str = "search") -> None:
        self.ctx = ctx
        self.seed = seed
        self.workdir = Path(workdir)
        self.candidates_csv = candidates_csv
        self.scenarios = tuple(scenarios)
        self.name = name
        self.ops_per_round = len(self.scenarios)

    def horizons(self):
        names = self.scenarios
        offsets = np.random.default_rng([self.seed, 1]).uniform(size=len(names))
        for i in itertools.count():
            j, r = i % len(names), i // len(names)
            lo, hi = self.ctx.windows[names[j]]
            yield names[j], _in_window(lo, hi, (offsets[j] + r * GOLDEN) % 1.0)

    def ops(self):
        for i, (name, horizon) in enumerate(self.horizons()):
            yield self._op(i, name, horizon)

    def _op(self, i: int, name: str, horizon: float) -> Op:
        loaded = self.ctx.loaded[name]
        scenario, econ = loaded.scenario, loaded.economics
        csv_path = str(self.workdir / f"candidates{i}.csv") if self.candidates_csv else None
        accuracy = {}
        return Op(label=f"{name} H={horizon:.6g}",
                  run=lambda: sg.brute_force(scenario, econ, horizon,
                                             n_intervals=SEARCH_INTERVALS,
                                             candidates_csv=csv_path),
                  check=lambda result: check_search(scenario, econ, horizon, result,
                                                    accuracy),
                  accuracy=accuracy)


# ---------------------------------------------------------------------------
# audit


def check_audit(report) -> list:
    failures = []
    if not report.hypotheses.all_pass:
        failures.append(f"hypotheses failed: {report.hypotheses.to_json_dict()}")
    if report.violations:
        v = report.violations[0]
        failures.append(f"{len(report.violations)} violations, first {v.quantity} "
                        f"at t={v.time:.6g}")
    return failures


class Audit:
    """Envelope audits of sampled policies; references built per block."""

    name = "audit"
    ops_per_round = len(SCENARIOS) * AUDIT_POLICIES

    def __init__(self, ctx: Context, seed: int, fault_s_drift: float = 0.0) -> None:
        self.ctx = ctx
        self.seed = seed
        self.fault_s_drift = fault_s_drift

    def ops(self):
        for block in itertools.count():
            name = SCENARIOS[block % len(SCENARIOS)]
            loaded = self.ctx.loaded[name]
            scenario, horizon = loaded.scenario, loaded.run.horizon
            rng = np.random.default_rng([self.seed, 2, block])
            half = AUDIT_POLICIES // 2
            policies = [(p, False) for p in sg.sample_policies(scenario, half, rng, horizon)]
            policies += [(p, True) for p in sg.sample_policies(scenario, half, rng, horizon,
                                                               terminal=True)]
            refs = sg.EnvelopeRefs.build(scenario, horizon, with_terminal=True)
            xi_m = sg.xi_lower_bound(scenario, horizon)
            for k, (policy, terminal) in enumerate(policies):
                yield self._op(f"{name} block{block} policy{k}", scenario, horizon,
                               policy, terminal, refs, xi_m)

    def _op(self, label, scenario, horizon, policy, terminal, refs, xi_m) -> Op:
        fault = self.fault_s_drift

        def run():
            traj = sg.integrate(scenario, policy, horizon, fault_s_drift=fault)
            return sg.audit_trajectory(scenario, traj, refs, terminal=terminal, xi_m=xi_m)

        return Op(label=label, run=run, check=check_audit)


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli_subprocess(root: Path, argv: list) -> CliResult:
    """Run ``python -m standgrowth.cli`` from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    proc = subprocess.run([sys.executable, "-m", "standgrowth.cli", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def cli_inprocess(argv: list) -> CliResult:
    """Call ``standgrowth.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sg.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def expected_times(scenario_path: str) -> str:
    """The ``times`` output computed in-process from the library."""
    loaded = sg.load_scenario(scenario_path)
    payload = sg.characteristic_times(loaded.scenario, T=loaded.run.horizon).to_json_dict()
    payload["validity"] = sg.validity_diagnostics(loaded.scenario).to_json_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _finite_csv(path: str) -> tuple[list, int]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    bad = sum(1 for row in rows[1:] for x in row if not math.isfinite(float(x)))
    return rows, bad


class Cli:
    """Fresh ``python -m standgrowth.cli`` processes (or in-process ``main``)."""

    name = "cli"
    ops_per_round = len(CLI_COMMANDS)

    def __init__(self, ctx: Context, seed: int, workdir: Path,
                 inprocess: bool = False) -> None:
        self.ctx = ctx
        self.seed = seed
        self.workdir = Path(workdir)
        self.inprocess = inprocess

    def invoke(self, argv: list) -> CliResult:
        if self.inprocess:
            return cli_inprocess(argv)
        return cli_subprocess(self.ctx.root, argv)

    def ops(self):
        for r in itertools.count():
            rng = np.random.default_rng([self.seed, 3, r])
            perm = rng.permutation(len(SCENARIOS))
            u = rng.uniform()
            verify_seed = int(rng.integers(0, 2**31 - 1))
            for c, command in enumerate(CLI_COMMANDS):
                name = SCENARIOS[perm[c]]
                yield self._op(r * len(CLI_COMMANDS) + c, command, name, u, verify_seed)

    def _op(self, i: int, command: str, name: str, u: float, verify_seed: int) -> Op:
        path = self.ctx.path(name)
        out = str(self.workdir / f"op{i}")
        if command == "times":
            argv = ["times", path]
            check = lambda res: self._check_times(res, path)
        elif command.startswith("simulate"):
            if command == "simulate_esup":
                spec = "esup"
            else:
                spec = f"et:{_in_window(*self.ctx.windows[name], u):.6f}"
            argv = ["simulate", path, spec, "--out", out + ".csv"]
            check = lambda res: self._check_simulate(res, out, name, spec)
        elif command == "optimize":
            argv = ["optimize", path, "--intervals", str(CLI_INTERVALS), "--out", out + ".json"]
            check = lambda res: self._check_optimize(res, out + ".json")
        else:
            argv = ["verify", path, "--policies", str(CLI_POLICIES),
                    "--seed", str(verify_seed), "--out", out + ".json"]
            check = lambda res: self._check_verify(res, argv, out)
        return Op(label=" ".join(argv[:1] + [name] + argv[2:3]),
                  run=lambda: self.invoke(argv), check=check)

    @staticmethod
    def _exit(res: CliResult, expected: int = 0) -> list:
        if res.code != expected:
            return [f"exit code {res.code}, expected {expected}: {res.stderr.strip()[-300:]}"]
        return []

    def _check_times(self, res: CliResult, path: str) -> list:
        failures = self._exit(res)
        try:
            json.loads(res.stdout)
        except ValueError as exc:
            return failures + [f"times output does not parse: {exc}"]
        if res.stdout != expected_times(path):
            failures.append("times output differs from characteristic_times "
                            "plus validity_diagnostics")
        return failures

    def _check_simulate(self, res: CliResult, out: str, name: str, spec: str) -> list:
        """Compare with the same policy integrated in-process.

        A stand may leave its validity domain before the horizon (exit code
        2), so the expected exit code comes from the in-process trajectory.
        """
        loaded = self.ctx.loaded[name]
        scenario, horizon = loaded.scenario, loaded.run.horizon
        if spec == "esup":
            policy = sg.build_policy(scenario, "esup")
        else:
            policy = sg.build_policy(scenario, "et", T=float(spec[3:]))
        traj = sg.integrate(scenario, policy, horizon, step=loaded.run.step)
        constrained = traj.validity_end < horizon * (1.0 - 1e-12)
        failures = self._exit(res, sg.cli.EXIT_CONSTRAINT if constrained else 0)
        rows, bad = _finite_csv(out + ".csv")
        if rows[0] != ["t", "s", "n", "r", "e", "h"] or len(rows) != len(traj.t) + 1 or bad:
            failures.append(f"trajectory CSV has {len(rows) - 1} rows ({bad} non-finite), "
                            f"expected {len(traj.t)}")
        with open(out + ".events.json") as fh:
            events = json.load(fh)
        if (events["validity_end"] != traj.validity_end
                or [e["kind"] for e in events["events"]] != [e.kind for e in traj.events]):
            failures.append(f"events differ from the library's: {events}")
        return failures

    def _check_optimize(self, res: CliResult, out_json: str) -> list:
        failures = self._exit(res)
        with open(out_json) as fh:
            result = json.load(fh)
        if result["enumerated"] != 3 ** CLI_INTERVALS or not math.isfinite(result["best_value"]):
            failures.append(f"optimize result malformed: enumerated={result['enumerated']}, "
                            f"best_value={result['best_value']}")
        return failures

    def _check_verify(self, res: CliResult, argv: list, out: str) -> list:
        failures = self._exit(res)
        with open(out + ".json", "rb") as fh:
            first = fh.read()
        report = json.loads(first)
        if not report["pass"] or report["policies_audited"] != CLI_POLICIES:
            failures.append(f"verify report failed: {len(report['violations'])} violations")
        again = self.invoke(argv[:-1] + [out + ".again.json"])
        failures += self._exit(again)
        with open(out + ".again.json", "rb") as fh:
            if fh.read() != first:
                failures.append("two verify runs with the same seed differ")
        return failures


WORKLOADS = ("search", "search_convex", "audit", "cli")


def make(name: str, ctx: Context, seed: int, workdir: Path, trace: bool = False):
    """The named workload; ``trace`` selects the traced run's variant."""
    if name == "search":
        return Search(ctx, seed, workdir, candidates_csv=trace)
    if name == "search_convex":
        return Search(ctx, seed, workdir, candidates_csv=trace,
                      scenarios=("convex_price_power",), name=name)
    if name == "cli":
        return Cli(ctx, seed, workdir, inprocess=trace)
    if name == "audit":
        return Audit(ctx, seed)
    raise ValueError(f"unknown workload {name!r}")
