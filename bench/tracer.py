"""In-memory span tracer around the public functions of each package module.

The tracer wraps functions from outside the package: it replaces every
module attribute that refers to a wrapped function, so calls made through a
name imported from another module (``optimizer.integrate``,
``cli.audit_trajectory``, ``standgrowth.brute_force``) are traced as well.
Each span records its name, start, end, parent span and operation id.  A
span's self time is its duration minus the time its child spans cover.

:class:`LayerStats` adds the counters and accuracy figures of this package's
layers; :func:`layer_metrics` turns one traced pass into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "standgrowth"
LAYERS = ("cli", "config", "model", "dynamics", "trajectories", "analysis",
          "economics", "optimizer")
# Public class-level entry points traced as spans, beside module functions.
CLASS_SPANS = (("analysis", "EnvelopeRefs", "build"),)
# Private helpers timed without a span, so they stay in their caller's self
# time: the screen is part of ``brute_force``'s own work.
TIMERS = (("optimizer", "_screen_candidates"),)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


class Tracer:
    """Installs span wrappers; ``op`` tags every span started while set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.timers: Counter = Counter()
        self.op = None
        self.hooks: dict = {}
        self.originals: dict = {}
        self._stack: list[int] = []
        self._patches: list = []

    def _span_wrapper(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _timer_wrapper(self, name: str, fn):
        timers = self.timers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += time.perf_counter() - t0

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                self.originals[name] = fn
                wrappers[fn] = self._span_wrapper(name, fn)
        for layer, fname in TIMERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            fn = getattr(module, fname)
            name = f"{layer}.{fname}"
            self.originals[name] = fn
            wrappers[fn] = self._timer_wrapper(name, fn)
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for layer, cls_name, meth in CLASS_SPANS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self.originals[name] = raw.__func__
            self._patch(cls, meth, classmethod(self._span_wrapper(name, raw.__func__)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """Write the spans as JSON lines; ``parent`` is a line index or -1."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


class LayerStats:
    """Counters and accuracy figures gathered by hooks on the traced spans."""

    def __init__(self, tracer: Tracer, scenarios) -> None:
        self.tracer = tracer
        self.samples = 0
        self.events = 0
        self.duplicates = 0
        self.violations = 0
        self.event_errors: list[float] = []
        self.searches: list[dict] = []
        self.objective_values: dict = {}
        self._seen: set = set()
        self._traj_key: dict = {}
        traj = importlib.import_module(f"{PACKAGE}.trajectories")
        dyn = importlib.import_module(f"{PACKAGE}.dynamics")
        self._hold = dyn.HOLD
        self._default_steps = dyn.DEFAULT_STEPS
        self._integrate_sig = inspect.signature(dyn.integrate)
        self._brute_force_sig = inspect.signature(
            importlib.import_module(f"{PACKAGE}.optimizer").brute_force)
        self._closed_forms = {}
        for scenario in scenarios:
            p = scenario.params
            self._closed_forms[scenario] = {
                "RdiHitOne": traj.t_sup0(scenario),
                "ExitPoint": traj.t_cap0(scenario),
                "NMinHit": traj.time_to_count(p, scenario.initial.n, p.n_min),
            }
        tracer.hooks.update({
            "dynamics.integrate": self._on_integrate,
            "economics.objective": self._on_objective,
            "optimizer.brute_force": self._on_brute_force,
            "analysis.audit_trajectory": self._on_audit,
        })

    def _on_integrate(self, span, args, kwargs, traj) -> None:
        bound = self._integrate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        scenario, policy, horizon = a["scenario"], a["policy"], float(a["horizon"])
        step = a["step"] if a["step"] is not None else horizon / self._default_steps
        key = (scenario, policy.breakpoints, policy.levels, horizon, float(step),
               a["on_n_min"], a["fault_s_drift"])
        if (span.op, key) in self._seen:
            self.duplicates += 1
        self._seen.add((span.op, key))
        self._traj_key[id(traj)] = key
        self.samples += len(traj.t)
        self._event_errors(scenario, policy, traj)

    def _event_errors(self, scenario, policy, traj) -> None:
        """Compare event times with closed-form roots where they apply.

        Within the first policy segment, the first ceiling hit without
        cutting is t_sup0, the exit of the pure ceiling-riding policy is
        t_cap0, and the floor reached by cutting at e_max from the start is
        t0_n.
        """
        forms = self._closed_forms.get(scenario)
        first = policy.levels[0]
        b0 = policy.breakpoints[0] if policy.breakpoints else math.inf
        e_max = scenario.params.e_max
        seen = set()
        for ev in traj.events:
            if ev.kind == "HorizonEnd":
                continue
            self.events += 1
            if forms is None or ev.kind in seen or ev.time > b0 * (1.0 + 1e-9):
                continue
            seen.add(ev.kind)
            if ev.kind == "RdiHitOne" and (first is self._hold or first == 0.0):
                ref = forms["RdiHitOne"]
            elif ev.kind == "ExitPoint" and first is self._hold and not policy.breakpoints:
                ref = forms["ExitPoint"]
            elif ev.kind == "NMinHit" and first is not self._hold and first == e_max:
                ref = forms["NMinHit"]
            else:
                continue
            if isinstance(ref, float):
                self.event_errors.append(abs(ev.time - ref))

    def _on_objective(self, span, args, kwargs, value) -> None:
        traj = args[2] if len(args) > 2 else kwargs["traj"]
        key = self._traj_key.get(id(traj))
        if key is not None:
            self.objective_values[(span.op, key)] = value

    def _on_brute_force(self, span, args, kwargs, result) -> None:
        bound = self._brute_force_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        self.searches.append({"op": span.op, "args": dict(bound.arguments),
                              "enumerated": result.enumerated,
                              "feasible": result.feasible})

    def _on_audit(self, span, args, kwargs, report) -> None:
        self.violations += len(report.violations)

    def screen_errors(self) -> list[float]:
        """Screen value of each re-scored contender against its fine objective.

        The contenders are the ``rescore_top`` finite screen values in the
        order ``brute_force`` ranks them, read back from ``candidates_csv``.
        """
        optimizer = importlib.import_module(f"{PACKAGE}.optimizer")
        errors = []
        for search in self.searches:
            a = search["args"]
            if a["candidates_csv"] is None:
                continue
            with open(a["candidates_csv"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            values = np.array([float(r["approx_value"]) if r["approx_value"] else -np.inf
                               for r in rows])
            order = np.argsort(-values, kind="stable")
            top = [i for i in order[:max(a["rescore_top"], 1)] if np.isfinite(values[i])]
            horizon = float(a["horizon"])
            step = a["fine_step"] if a["fine_step"] is not None else horizon / 4096
            for i in top:
                codes = np.array([optimizer._HOLD_CODE if c == "hold" else float(c)
                                  for c in rows[i]["levels"].split("|")])
                policy = optimizer._levels_to_policy(codes, horizon, a["n_intervals"])
                key = (a["scenario"], policy.breakpoints, policy.levels, horizon,
                       float(step), "clamp", 0.0)
                fine = self.objective_values.get((search["op"], key))
                if fine is not None:
                    errors.append(abs(values[i] - fine) / max(abs(fine), 1e-300))
        return errors


def layer_metrics(tracer: Tracer, stats: LayerStats) -> dict:
    """Per-layer metrics of one traced pass.

    Counts are totals over the pass; times are means per call (zero for a
    layer the workload never calls).
    """
    self_t = tracer.self_times()
    calls: Counter = Counter()
    self_sum: defaultdict = defaultdict(float)
    dur_sum: defaultdict = defaultdict(float)
    for span, st in zip(tracer.spans, self_t):
        calls[span.name] += 1
        self_sum[span.name] += st
        dur_sum[span.name] += span.duration

    def per_call(name, total=self_sum):
        return total[name] / calls[name] if calls[name] else 0.0

    integ = "dynamics.integrate"
    rescore = sum(1 for s in tracer.spans
                  if s.name == integ and s.parent >= 0
                  and tracer.spans[s.parent].name == "optimizer.brute_force")
    t_sup0_in_ct = sum(1 for i, s in enumerate(tracer.spans)
                       if s.name == "trajectories.t_sup0"
                       and tracer.has_ancestor(i, "trajectories.characteristic_times"))
    enumerated = sum(s["enumerated"] for s in stats.searches)
    feasible = sum(s["feasible"] for s in stats.searches)
    screen_errors = stats.screen_errors()
    return {
        "config.load_scenario_ms": per_call("config.load_scenario") * 1e3,
        "dynamics.integrate.calls": calls[integ],
        "dynamics.integrate.self_s": per_call(integ),
        "dynamics.integrate.samples": stats.samples,
        "dynamics.integrate.us_per_sample":
            self_sum[integ] / stats.samples * 1e6 if stats.samples else 0.0,
        "dynamics.integrate.events": stats.events,
        "dynamics.integrate.duplicate_calls": stats.duplicates,
        "dynamics.event_time_err_max": max(stats.event_errors, default=0.0),
        "optimizer.brute_force.self_s": per_call("optimizer.brute_force"),
        "optimizer.screen_us_per_candidate":
            tracer.timers["optimizer._screen_candidates"] / enumerated * 1e6
            if enumerated else 0.0,
        "optimizer.candidates_enumerated": enumerated,
        "optimizer.feasible_ratio": feasible / enumerated if enumerated else 0.0,
        "optimizer.rescore_integrations": rescore,
        "optimizer.check_prop2.self_s": per_call("optimizer.check_prop2"),
        "optimizer.screen_rel_err_max": max(screen_errors, default=0.0),
        "analysis.envelope_refs_build_s": per_call("analysis.EnvelopeRefs.build", dur_sum),
        "analysis.xi_lower_bound.self_s": per_call("analysis.xi_lower_bound"),
        "analysis.audit_trajectory.self_ms": per_call("analysis.audit_trajectory") * 1e3,
        "analysis.check_hypotheses.calls": calls["analysis.check_hypotheses"],
        "analysis.violations": stats.violations,
        "economics.objective.calls": calls["economics.objective"],
        "economics.objective.self_ms": per_call("economics.objective") * 1e3,
        "trajectories.characteristic_times.self_ms":
            per_call("trajectories.characteristic_times") * 1e3,
        "trajectories.t_sup0.calls":
            t_sup0_in_ct / calls["trajectories.characteristic_times"]
            if calls["trajectories.characteristic_times"] else 0.0,
        "trajectories.build_policy.calls": calls["trajectories.build_policy"],
    }
