"""Integration of the stand dynamics under a thinning policy.

The state (s, n) evolves by

    ds/dt = g(r(n, s)) / n * V(t)
    dn/dt = -e(t)

subject to 0 <= e <= e_max, n >= n_min, and the density ceiling r <= 1.
Off the ceiling, integration is classic fixed-step fourth-order Runge-Kutta
with this event handling:

* when r crosses 1 inside a step without cutting, the crossing time is the
  closed form of :meth:`Scenario.ceiling_time`; under a positive rate the
  crossing ends the run, and its time is bisected on the step fraction
  (time tolerance 1e-9).  The count at a crossing is n - e * h_cross;
* when n crosses n_min inside a step, the rate is constant, so the crossing
  time (n - n_min)/e is exact;
* while a policy rides the density ceiling, the applied control is the
  ceiling-holding rate (q/2) V(t)/s, and each step follows the closed-form
  count relation on r = 1 (:meth:`Scenario.arc_count_after`) with s =
  (A n)**(-2/q); the arc's exhaustion time is closed-form as well
  (:meth:`Scenario.arc_exhaustion_time`);
* the integration stops at the corner (r, n) = (1, n_min), the only point
  through which a stand can leave its validity domain.

Policies are piecewise: each segment holds either a constant thinning rate or
``HOLD``, meaning "grow freely until the density ceiling, then ride it".
``HOLD`` is the string ``"hold"``, the same spelling as in ``pw:`` files and
JSON, so no level needs translating.  Once n reaches n_min no further trees
can be cut, so the applied rate is clamped to zero from that moment on (the
crossing is recorded as an NMinHit event); pass ``on_n_min="error"`` to treat
such a crossing as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rootfind import bisect
from .model import Environment, Scenario, boundary_control, rdi

__all__ = [
    "HOLD",
    "Policy",
    "TrajectoryEvent",
    "Trajectory",
    "InfeasibleBoundary",
    "NonViable",
    "integrate",
    "sample_policies",
    "write_trajectory_csv",
    "write_events_json",
    "json_text",
]

EXIT_REL_TOL = 1e-7         # relative tolerance for the (r, n) = (1, n_min) corner
DEFAULT_STEPS = 4096        # default number of steps over the horizon
SAMPLED_MAX_SEGMENTS = 6    # most segments of a policy from sample_policies
HOLD = "hold"               # level that grows freely, then rides the density ceiling


def _rate(level) -> float:
    """The thinning rate of a level that is not ``HOLD``."""
    try:
        return float(level)
    except (TypeError, ValueError):
        raise ValueError(f'levels must be rates or "{HOLD}" (got {level!r})') from None


class InfeasibleBoundary(RuntimeError):
    """Holding the density ceiling would require a rate above e_max."""


class NonViable(RuntimeError):
    """The policy would push the tree count below n_min."""


@dataclass(frozen=True)
class Policy:
    """Piecewise thinning schedule.

    ``levels[i]`` applies on ``[breakpoints[i-1], breakpoints[i])`` (with the
    outer segments extending to 0 and +inf); each level is a rate in
    ``[0, e_max]`` or ``HOLD``; :meth:`piecewise` maps any level equal to
    ``"hold"`` to that constant.  ``kind`` tags the canonical constructions
    ("zero", "max", "e0", "et", "esup", "custom"); ``meta`` carries their
    characteristic times.
    """

    breakpoints: tuple[float, ...]
    levels: tuple
    kind: str = "custom"
    meta: tuple = ()

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more level than breakpoints")
        if not all(math.isfinite(b) for b in self.breakpoints):
            raise ValueError(f"breakpoints must be finite (got {self.breakpoints})")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints and self.breakpoints[0] <= 0.0:
            raise ValueError("breakpoints must be positive")
        for lv in self.levels:
            if lv != HOLD and not 0.0 <= _rate(lv) < math.inf:
                raise ValueError(f"thinning rates must be finite and non-negative (got {lv})")

    @classmethod
    def zero(cls) -> "Policy":
        return cls((), (0.0,), kind="zero")

    @classmethod
    def max_rate(cls, e_max: float) -> "Policy":
        return cls((), (float(e_max),), kind="max")

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], levels: Sequence) -> "Policy":
        return cls(tuple(float(b) for b in breakpoints),
                   tuple(HOLD if lv == HOLD else _rate(lv) for lv in levels))

    def meta_dict(self) -> dict:
        return dict(self.meta)

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": self.kind,
            "breakpoints": list(self.breakpoints),
            "levels": [lv if lv == HOLD else float(lv) for lv in self.levels],
            "meta": {k: v for k, v in self.meta},
        }


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: str               # "RdiHitOne" | "NMinHit" | "ExitPoint" | "HorizonEnd"
    terminal: bool


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the stand dynamics under one policy.

    Arrays share a common length: ``t`` (sample times, strictly increasing),
    ``s``, ``n``, ``e`` (control in effect on ``[t[i], t[i+1])``), ``r``
    (density index), ``drdt`` (density rate at the sample), and ``on_arc``
    (True where the state rides the density ceiling).  ``validity_end`` is
    the last time the solution is defined; ``exited`` marks departure through
    the (1, n_min) corner.  ``breaks`` lists the control-regime change times,
    which quadratures use as panel boundaries.
    """

    t: np.ndarray
    s: np.ndarray
    n: np.ndarray
    e: np.ndarray
    r: np.ndarray
    drdt: np.ndarray
    on_arc: np.ndarray
    events: tuple[TrajectoryEvent, ...]
    validity_end: float
    exited: bool
    breaks: tuple[float, ...]

    def __post_init__(self) -> None:
        for arr in (self.t, self.s, self.n, self.e, self.r, self.drdt, self.on_arc):
            arr.flags.writeable = False

    def interp_s(self, times) -> np.ndarray:
        return np.interp(times, self.t, self.s)

    def interp_n(self, times) -> np.ndarray:
        return np.interp(times, self.t, self.n)


def _drdt_values(scenario: Scenario, t, s, n, e) -> np.ndarray:
    """dr/dt = r [(q/2) (ds/dt)/s - e/n], from r = A n s**(q/2)."""
    r = rdi(scenario.params, n, s)
    return r * (scenario.params.q / 2.0 * scenario.growth_rate(t, s, n) / s - e / n)


class _Recorder:
    """Accumulates samples and events during integration."""

    def __init__(self) -> None:
        self.t: list[float] = []
        self.s: list[float] = []
        self.n: list[float] = []
        self.e: list[float] = []
        self.arc: list[bool] = []
        self.events: list[TrajectoryEvent] = []
        self.breaks: set[float] = set()

    def add(self, t: float, s: float, n: float, e: float, arc: bool) -> None:
        if self.t and t - self.t[-1] < 1e-13:
            # Collapse zero-width intervals created by events landing on nodes.
            self.s[-1], self.n[-1], self.e[-1], self.arc[-1] = s, n, e, arc
            return
        self.t.append(t)
        self.s.append(s)
        self.n.append(n)
        self.e.append(e)
        self.arc.append(arc)


def integrate(scenario: Scenario, policy: Policy, horizon: float,
              step: float | None = None, *, on_n_min: str = "clamp",
              fault_s_drift: float = 0.0) -> Trajectory:
    """Integrate the stand dynamics under ``policy`` up to ``horizon``.

    ``step`` is the nominal step size (default ``horizon / 4096``); steps are
    aligned to policy breakpoints so the control is smooth inside every span.
    ``on_n_min`` selects what happens when thinning would push n below n_min:
    ``"clamp"`` freezes the rate at zero (recording an NMinHit event) and
    ``"error"`` raises :class:`NonViable`.  ``fault_s_drift`` multiplies s by
    ``1 + fault_s_drift`` after every step; it exists solely so verification
    harnesses can prove they detect a corrupted integrator, and must be
    finite and above -1 so that s stays positive.

    Raises :class:`InfeasibleBoundary` when holding the density ceiling would
    require a rate above e_max.
    """
    p = scenario.params
    growth = scenario.growth
    env_v = scenario.env.v
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive (got {horizon})")
    if horizon > p.t_star * (1.0 + 1e-12):
        raise ValueError(f"horizon {horizon} exceeds the model validity limit t_star={p.t_star}")
    if on_n_min not in ("clamp", "error"):
        raise ValueError(f"on_n_min must be 'clamp' or 'error' (got {on_n_min})")
    for lv in policy.levels:
        if lv != HOLD and float(lv) > p.e_max * (1.0 + 1e-12):
            raise ValueError(f"policy rate {lv} exceeds e_max={p.e_max}")
    if step is None:
        step = horizon / DEFAULT_STEPS
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive (got {step})")
    if not (math.isfinite(fault_s_drift) and fault_s_drift > -1.0):
        raise ValueError(f"fault_s_drift must be finite and above -1 (got {fault_s_drift})")

    A, q2, e_max, n_min = p.A, p.q / 2.0, p.e_max, p.n_min
    arc_exp = -2.0 / p.q                    # s on the ceiling: (A n) ** arc_exp
    g = growth.g

    def rk4_free(t: float, s: float, n: float, h: float, e: float) -> tuple[float, float]:
        h2 = 0.5 * h
        k1 = g(A * n * s ** q2) / n * env_v(t)
        n1 = n - h2 * e
        vmid = env_v(t + h2)
        k2 = g(A * n1 * (s + h2 * k1) ** q2) / n1 * vmid
        k3 = g(A * n1 * (s + h2 * k2) ** q2) / n1 * vmid
        n2 = n - h * e
        k4 = g(A * n2 * (s + h * k3) ** q2) / n2 * env_v(t + h)
        return s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), n2

    t = 0.0
    s = scenario.initial.s
    n = scenario.initial.n
    exhausted = n <= n_min * (1.0 + 1e-12)
    on_arc = False

    rec = _Recorder()
    rec.breaks.add(0.0)

    def finish(end_time: float, terminal_kind: str, exited: bool) -> Trajectory:
        rec.events.append(TrajectoryEvent(end_time, terminal_kind, True))
        rec.breaks.add(end_time)
        ts = np.asarray(rec.t)
        ss = np.asarray(rec.s)
        ns = np.asarray(rec.n)
        es = np.asarray(rec.e)
        arcs = np.asarray(rec.arc, dtype=bool)
        rs = rdi(p, ns, ss)
        dr = _drdt_values(scenario, ts, ss, ns, es)
        brks = tuple(sorted(b for b in rec.breaks if b <= end_time + 1e-12))
        return Trajectory(t=ts, s=ss, n=ns, e=es, r=rs, drdt=dr, on_arc=arcs,
                          events=tuple(rec.events), validity_end=end_time,
                          exited=exited, breaks=brks)

    def near_corner(nv: float) -> bool:
        return nv <= n_min * (1.0 + EXIT_REL_TOL)

    def exit_at(t_exit: float, arc: bool) -> Trajectory:
        """Stop at the (1, n_min) corner, under the ceiling-holding rate on an arc."""
        s_bar = p.s_bar
        rec.add(t_exit, s_bar, n_min,
                boundary_control(p, scenario.env, s_bar, t_exit) if arc else 0.0, arc)
        return finish(t_exit, "ExitPoint", True)

    r = A * n * s ** q2
    rec.add(0.0, s, n, 0.0, False)  # e backfilled below once the first span is known

    # Level i holds from bounds[i]: breakpoints are positive and increasing.
    bounds = [0.0] + [b for b in policy.breakpoints if b < horizon] + [horizon]
    for ta, tb, level in zip(bounds, bounds[1:], policy.levels):
        hold = level == HOLD
        rate = 0.0 if hold else float(level)
        rec.breaks.add(ta)
        if not hold:
            on_arc = False
        elif r >= 1.0 - 1e-9:
            # Entering a hold span already at the ceiling.
            if near_corner(n):
                return exit_at(t, True)
            on_arc = True
            s = p.ceiling_s(n)
        if rec.t and abs(rec.t[-1] - ta) < 1e-13:
            # Backfill the control column of the span-opening sample.
            rec.e[-1] = (boundary_control(p, scenario.env, s, t) if on_arc
                         else (0.0 if exhausted else rate))
            rec.arc[-1] = on_arc
        n_steps = max(1, round((tb - ta) / step))
        h_nom = (tb - ta) / n_steps
        while t < tb - 1e-13 * max(1.0, tb):
            h = min(h_nom, tb - t)
            # The closing step of a span snaps to the boundary so breakpoint
            # sample times are exact and the control backfill can match them.
            t_after_full = tb if tb - t <= h * (1.0 + 1e-9) else t + h
            if on_arc:
                e_req = q2 * env_v(t) / s
                if e_req > e_max * (1.0 + 1e-9):
                    raise InfeasibleBoundary(
                        f"ceiling-holding rate {e_req:.6g} exceeds e_max={e_max} at t={t:.6g}")
                n1 = scenario.arc_count_after(n, env_v.integral(t, t_after_full))
                if n1 < n_min:
                    return exit_at(min(scenario.arc_exhaustion_time(t, n), t_after_full), True)
                t = t_after_full
                n = n1
                s = (A * n) ** arc_exp
                if fault_s_drift:
                    s *= 1.0 + fault_s_drift
                rec.add(t, s, n, q2 * env_v(t) / s, True)
            else:
                e = 0.0 if exhausted else rate
                hit_n_min = False
                if e > 0.0 and n - e * h < n_min:
                    if on_n_min == "error":
                        raise NonViable(
                            f"policy would cut below n_min={n_min} near t={t:.6g}")
                    h = (n - n_min) / e
                    t_after_full = t + h
                    hit_n_min = True
                s1, n1 = rk4_free(t, s, n, h, e)
                r1 = A * n1 * s1 ** q2
                if r1 > 1.0:
                    if r >= 1.0 - 1e-12:
                        h_cross = 0.0
                    elif e == 0.0:
                        h_cross = min(max(scenario.ceiling_time(t, s, n) - t, 0.0), h)
                    else:
                        def r_excess(hh: float) -> float:
                            s2, n2 = rk4_free(t, s, n, hh, e)
                            return A * n2 * s2 ** q2 - 1.0
                        h_cross = bisect(r_excess, 0.0, h)
                    t = t + h_cross
                    n = n - h_cross * e
                    if near_corner(n):
                        return exit_at(t, False)
                    # The state is placed exactly on the ceiling.
                    s = p.ceiling_s(n)
                    if not hold:
                        rec.add(t, s, n, e, False)
                        return finish(t, "RdiHitOne", False)
                    on_arc = True
                    rec.events.append(TrajectoryEvent(t, "RdiHitOne", False))
                    rec.breaks.add(t)
                    rec.add(t, s, n, boundary_control(p, scenario.env, s, t), True)
                    r = 1.0
                    continue
                t = t_after_full
                s, n = s1, n1
                if fault_s_drift:
                    s *= 1.0 + fault_s_drift
                if hit_n_min:
                    n = n_min
                    exhausted = True
                    e = 0.0
                    rec.events.append(TrajectoryEvent(t, "NMinHit", False))
                    rec.breaks.add(t)
                rec.add(t, s, n, e, False)
            r = A * n * s ** q2

    return finish(horizon, "HorizonEnd", False)


def sample_policies(scenario: Scenario, count: int, rng: np.random.Generator,
                    horizon: float, *, terminal: bool = False) -> list[Policy]:
    """Random piecewise policies for sweeps and stress tests.

    Levels are drawn from {0, HOLD, uniform rate}; with ``terminal=True`` the
    final segment cuts at e_max for long enough that the stand reaches n_min
    before the horizon (the integrator's clamp then pins n(T) = n_min).
    """
    p = scenario.params
    if count < 0:
        raise ValueError(f"policy count must be non-negative (got {count})")
    policies = []
    for _ in range(count):
        k = int(rng.integers(1, SAMPLED_MAX_SEGMENTS + 1))
        bps = np.sort(rng.uniform(0.0, horizon, size=k - 1))
        bps = [float(b) for b in bps if 1e-6 < b < horizon - 1e-6]
        levels = []
        for _ in range(len(bps) + 1):
            u = rng.uniform()
            if u < 0.30:
                levels.append(0.0)
            elif u < 0.55:
                levels.append(HOLD)
            else:
                levels.append(float(rng.uniform(0.0, p.e_max)))
        if terminal:
            need = (scenario.initial.n - p.n_min) / p.e_max
            t_cut = horizon - need * float(rng.uniform(1.05, 1.6))
            t_cut = max(t_cut, horizon * 0.05)
            bps = [b for b in bps if b < t_cut - 1e-6] + [t_cut]
            levels = levels[:len(bps)] + [p.e_max]
        policies.append(Policy.piecewise(bps, levels))
    return policies


def write_trajectory_csv(trajectory: Trajectory, env: Environment, path) -> None:
    """Write samples as CSV with the fixed header t,s,n,r,e,h."""
    h_vals = env.h0(trajectory.t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "n", "r", "e", "h"])
        for i in range(len(trajectory.t)):
            writer.writerow([f"{trajectory.t[i]:.12g}", f"{trajectory.s[i]:.12g}",
                             f"{trajectory.n[i]:.12g}", f"{trajectory.r[i]:.12g}",
                             f"{trajectory.e[i]:.12g}", f"{h_vals[i]:.12g}"])


def json_text(payload) -> str:
    """The package's JSON layout: two-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_events_json(trajectory: Trajectory, path) -> None:
    """Write the events sidecar (times, kinds, validity end, exit flag)."""
    payload = {
        "events": [{"time": ev.time, "kind": ev.kind, "terminal": ev.terminal}
                   for ev in trajectory.events],
        "validity_end": trajectory.validity_end,
        "exited": trajectory.exited,
    }
    with open(path, "w") as fh:
        fh.write(json_text(payload))
