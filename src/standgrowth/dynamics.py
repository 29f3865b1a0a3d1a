"""Integration of the stand dynamics under a thinning policy.

The state (s, n) evolves by

    ds/dt = g(r(n, s)) / n * V(t)
    dn/dt = -e(t)

subject to 0 <= e <= e_max, n >= n_min, and the density ceiling r <= 1.
Samples lie on a fixed grid aligned to the policy breakpoints.  A run is a
sequence of spans.  Each starts from a state under one control, steps over
the grid of :func:`_span_grid` towards the end of its policy segment, and
returns its samples with the event that ends it early, or None:
``("RdiHitOne", t, n)``, ``("NMinHit", t, n_min)`` or ``("ExitPoint", t,
n_min)``.  Each kind of span is solved by its own method:

* **free** (rate 0, a ``HOLD`` level below the ceiling, or any level once n
  has reached n_min): the count is constant and the density equation
  separates, so the samples are a closed form
  (:meth:`Scenario.uncut_s_after`).  The ceiling hit is the closed form of
  :meth:`Scenario.ceiling_time`, taken from the last sample before it;
* **arc** (a ``HOLD`` level on the ceiling): the applied control is the
  ceiling-holding rate (q/2) V(t)/s, the count follows the closed-form
  relation on r = 1 (:meth:`Scenario.arc_count_after`) from the span start
  with s = (A n)**(-2/q), up to the closed-form exhaustion time
  (:meth:`Scenario.arc_exhaustion_time`);
* **cut** (a positive rate): every count is the closed form n - e (tau - t)
  from the span start, and the samples are :meth:`Scenario.cut_s_after`
  from there: a closed form under power growth, four-node Gauss-Legendre
  collocation per step under fagacees growth, exact to rounding at the
  integrator's steps.  A crossing of r = 1 is the root of the density
  inside its step, bisected to rounding; the span is spent at the first
  grid time whose count is at most :func:`_spent_count`, or at
  t + (n - n_min)/e where that is earlier;
* the integration stops at the corner (r, n) = (1, n_min), the only point
  through which a stand can leave its validity domain.

A stand reaching the ceiling meets one junction decision, :func:`_on_ceiling`:
it leaves through the corner, rides the ceiling under ``HOLD`` if the
ceiling-holding rate is within e_max (:class:`InfeasibleBoundary` if not),
or stops with a terminal RdiHitOne; a ride carries on into a next ``HOLD``
segment.  The decision and the arc and cut spans (:func:`_arc_rows`,
:func:`_cut_rows`) take blocks of stands, one row each: :func:`integrate`
calls them on one row, the optimizer's screen on blocks of its rows.

The spans only solve the dynamics.  :func:`integrate` has one span call, one
place where the run's options apply (the fault drift of s, and ``on_n_min``)
and one switch over the events.  A recorder merges samples less than 1e-13
apart and lists the spans.

Policies are piecewise: each segment holds either a constant thinning rate or
``HOLD``, meaning "grow freely until the density ceiling, then ride it".
``HOLD`` is the string ``"hold"``, the same spelling as in ``pw:`` files and
JSON, so no level needs translating.  Once n reaches n_min no further trees
can be cut, so the applied rate is clamped to zero from that moment on (the
crossing is recorded as an NMinHit event); pass ``on_n_min="error"`` to treat
such a crossing as a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rootfind import bisect
from .model import Environment, Scenario, StandParams, boundary_control, rdi

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
CEILING_REL_TOL = 1e-12     # relative tolerance at which a density is on the ceiling
SPENT_REL_TOL = 1e-12       # relative tolerance at which a count has reached n_min
DEFAULT_STEPS = 4096        # default number of steps over the horizon
SAMPLED_MAX_SEGMENTS = 6    # most segments of a policy from sample_policies
HOLD = "hold"               # level that grows freely, then rides the density ceiling


def _spent_count(p: StandParams) -> float:
    """The count at or below which a stand is spent: no tree is left to cut."""
    return p.n_min * (1.0 + SPENT_REL_TOL)


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
    ``[0, e_max]`` or ``HOLD``.  Construction stores breakpoints and rates as
    floats and any level equal to ``"hold"`` as that constant.  ``kind`` tags
    the canonical constructions ("zero", "max", "e0", "et", "esup",
    "custom"); ``meta`` carries their characteristic times.
    """

    breakpoints: tuple[float, ...]
    levels: tuple
    kind: str = "custom"
    meta: tuple = ()

    def __post_init__(self) -> None:
        # Numbers are stored as floats, so equal schedules compare and hash equal.
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "levels",
                           tuple(HOLD if lv == HOLD else _rate(lv) for lv in self.levels))
        if len(self.levels) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more level than breakpoints")
        if not all(math.isfinite(b) for b in self.breakpoints):
            raise ValueError(f"breakpoints must be finite (got {self.breakpoints})")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints and self.breakpoints[0] <= 0.0:
            raise ValueError("breakpoints must be positive")
        for lv in self.levels:
            if lv != HOLD and not 0.0 <= lv < math.inf:
                raise ValueError(f"thinning rates must be finite and non-negative (got {lv})")

    @classmethod
    def zero(cls) -> "Policy":
        return cls((), (0.0,), kind="zero")

    @classmethod
    def max_rate(cls, e_max: float) -> "Policy":
        return cls((), (float(e_max),), kind="max")

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], levels: Sequence) -> "Policy":
        return cls(tuple(breakpoints), tuple(levels))

    def meta_dict(self) -> dict:
        return dict(self.meta)

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": self.kind,
            "breakpoints": list(self.breakpoints),
            "levels": list(self.levels),
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
    the (1, n_min) corner.  ``spans`` lists the pieces the integrator
    solved, in order from 0, each starting where the one before ended, as
    ``(kind, start, end)`` with kind ``"free"`` (uncut, below the ceiling),
    ``"arc"`` (on the ceiling) or ``"cut"`` (thinning at a positive rate);
    the objective sums over them.
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
    spans: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        for arr in (self.t, self.s, self.n, self.e, self.r, self.drdt, self.on_arc):
            arr.flags.writeable = False

    def interp_s(self, times) -> np.ndarray:
        return np.interp(times, self.t, self.s)

    def interp_n(self, times) -> np.ndarray:
        return np.interp(times, self.t, self.n)


def _drdt_values(scenario: Scenario, t, s, n, e, r) -> np.ndarray:
    """dr/dt = r [(q/2) (ds/dt)/s - e/n] at the density r = A n s**(q/2)."""
    dsdt = scenario.growth.g(r) / n * scenario.env.v(t)
    return r * (scenario.params.q / 2.0 * dsdt / s - e / n)


class _Recorder:
    """Accumulates the sample columns span by span, and the events and spans.

    All samples pass through :meth:`add`, which applies the one collapse
    rule.
    """

    def __init__(self, t: float, s: float, n: float) -> None:
        # Columns t, s, n, e, on_arc, each a list of per-span arrays.
        self.cols: tuple[list, ...] = ([np.array([t])], [np.array([s])], [np.array([n])],
                                       [np.zeros(1)], [np.zeros(1, dtype=bool)])
        self.events: list[TrajectoryEvent] = []
        self.spans: list[tuple[str, float, float]] = []

    def span(self, e0: float, arc: bool, t, s, n, e) -> None:
        """Open a span at the last sample under control ``e0`` (on the
        ceiling when ``arc``), then add the span's samples."""
        self.cols[3][-1][-1] = e0
        self.cols[4][-1][-1] = arc
        self.add(t, s, n, e, arc)

    def add(self, t, s, n, e, arc: bool) -> None:
        """Append samples.  A sample less than 1e-13 after the previous one
        merges into it: the earlier time stays, with the later state."""
        t, s, n, e = np.atleast_1d(t, s, n, e)
        state = (s, n, e, np.full(t.size, arc))
        kept = (t - np.concatenate(([self.cols[0][-1][-1]], t[:-1])) >= 1e-13).nonzero()[0]
        if kept.size < t.size:
            # The state of a run of merged samples is that of its last one.
            last = np.append(kept, t.size) - 1
            if last[0] >= 0:
                for col, new in zip(self.cols[1:], state):
                    col[-1][-1] = new[last[0]]
            t, state = t[kept], tuple(new[last[1:]] for new in state)
        if t.size:
            for col, new in zip(self.cols, (t,) + state):
                col.append(new)

    def finish(self, scenario: Scenario, end_time: float, terminal_kind: str,
               exited: bool) -> Trajectory:
        """The trajectory, ending with a terminal event at ``end_time``."""
        self.events.append(TrajectoryEvent(end_time, terminal_kind, True))
        ts, ss, ns, es, arcs = (np.concatenate(col) for col in self.cols)
        rs = rdi(scenario.params, ns, ss)
        return Trajectory(t=ts, s=ss, n=ns, e=es, r=rs,
                          drdt=_drdt_values(scenario, ts, ss, ns, es, rs), on_arc=arcs,
                          events=tuple(self.events), validity_end=end_time,
                          exited=exited, spans=tuple(self.spans))


def _span_grid(t: float, tb: float, h_nom: float) -> np.ndarray:
    """Sample times after ``t`` of a span ending at ``tb``.

    Steps of ``h_nom`` are added in order (``np.cumsum`` accumulates
    sequentially, so the times are those of ``t += h_nom``); the closing
    step snaps to ``tb``, and stepping stops within 1e-13 * max(1, tb) of it.
    """
    t_stop = tb - 1e-13 * max(1.0, tb)
    # One step more than fits, so the last time lies past tb and ends there.
    ts = np.concatenate(([t], np.full(int((tb - t) / h_nom) + 2, h_nom))).cumsum()
    left = tb - ts
    ends = (ts >= t_stop) | (left <= np.minimum(h_nom, left) * (1.0 + 1e-9))
    k = int(ends.argmax())
    return ts[1:k + 1] if ts[k] >= t_stop else np.append(ts[1:k + 1], tb)


# The spans share one signature: the opening state (t, s, n) and control e,
# and the sample times ``ts`` after t, those of :func:`_span_grid`.  Each
# solves the dynamics alone and returns its samples as (t, s, n, e) arrays,
# up to its event, and the event or None; the run's options are applied by
# integrate.

def _free_span(scenario: Scenario, t: float, s: float, n: float, e: float, ts):
    """Uncut growth from (t, s, n) below the ceiling, in closed form, up to
    ``("RdiHitOne", t, n)`` where the density reaches 1
    (:meth:`Scenario.ceiling_time`)."""
    if scenario.params.density(n, s) >= 1.0 - CEILING_REL_TOL:
        return (np.empty(0),) * 4, ("RdiHitOne", t, n)
    t_hit = float(scenario.ceiling_time(t, s, n))
    k = int(ts.searchsorted(t_hit))                # the step that reaches the ceiling
    ss = scenario.uncut_s_after(s, n, scenario.env.v.integral(t, ts[:k]))
    samples = ts[:k], ss, np.full(k, n), np.zeros(k)
    if k == ts.size:
        return samples, None
    if k:
        # Located from the start of that step, as a stepping integrator would.
        t_k, s_k = float(ts[k - 1]), float(ss[-1])
        t_hit = t_k + min(max(float(scenario.ceiling_time(t_k, s_k, n)) - t_k, 0.0),
                          float(ts[k]) - t_k)
    return samples, ("RdiHitOne", t_hit, n)


def _arc_span(scenario: Scenario, t: float, s: float, n: float, e: float, ts):
    """The density ceiling ridden from (t, s, n) under the ceiling-holding
    rate ``e``, by :func:`_arc_rows`, up to ``("ExitPoint", t, n_min)``
    where the count runs out.  Whether the ride is feasible is decided once,
    where it starts, by :func:`_on_ceiling`."""
    p = scenario.params
    ts = np.append(t, ts)
    ns, jb, ends, t_exit = _arc_rows(scenario, np.array([t]), np.array([n]), ts)
    ts, ns = ts[1:jb[0] + 1], ns[0, 1:jb[0] + 1]
    ss = p.ceiling_s(ns)
    event = ("ExitPoint", float(t_exit[0]), p.n_min) if ends[0] else None
    return (ts, ss, ns, boundary_control(p, scenario.env, ss, ts)), event


def _cut_span(scenario: Scenario, t: float, s: float, n: float, e: float, ts):
    """Thinning at the rate ``e`` > 0 from (t, s, n), to each grid time, by
    :func:`_cut_rows`.  A spent span ends at its spent time with
    ``("NMinHit", t, n_min)`` and a last sample at n_min with e = 0; a
    span crossing the ceiling first, in that step or an earlier one, ends
    with ``("RdiHitOne", t, n)`` at the crossing instead."""
    (ts,), (ss,), (ns,), _, (j_spent,), (j_cross,), t_c, n_c = _cut_rows(
        scenario, np.append(t, ts), np.array([s]), np.array([n]), np.array([e]))
    es = np.full(ts.size, e)
    if j_cross < ts.size:
        return ((ts[1:j_cross], ss[1:j_cross], ns[1:j_cross], es[1:j_cross]),
                ("RdiHitOne", float(t_c[0]), float(n_c[0])))
    event = None
    if j_spent < ts.size:
        es[-1], event = 0.0, ("NMinHit", float(ts[-1]), scenario.params.n_min)
    return (ts[1:], ss[1:], ns[1:], es[1:]), event


def _on_ceiling(scenario: Scenario, t, n, hold):
    """The junction decision for stands reaching the ceiling at (t, n), one
    row each, under ``HOLD`` where ``hold``: the ceiling basal area s, the
    ceiling-holding rate (q/2) V/s there, and which stands are at the corner,
    which ride, and which would need a rate above e_max to ride; the rest
    stop.  Along an arc (q/2) V/s only falls, so only its start is checked."""
    p = scenario.params
    s = p.ceiling_s(n)
    e = boundary_control(p, scenario.env, s, t)
    corner = n <= p.n_min * (1.0 + EXIT_REL_TOL)
    over = hold & ~corner & (e > p.e_max * (1.0 + 1e-9))
    return s, e, corner, hold & ~corner & ~over, over


def _arc_rows(scenario: Scenario, t0, n0, T):
    """Stands riding the ceiling from (t0, n0), one row each, over grid
    times T from at or before every t0: the counts by
    :meth:`Scenario.arc_count_after` from t0 (n0 up to it); the last index
    ``jb`` before the count falls below n_min (T's last where it does not);
    which rows run out (``ends``); and their exit times,
    :meth:`Scenario.arc_exhaustion_time` or T[jb + 1], whichever is first."""
    T0 = t0[:, None]
    n = scenario.arc_count_after(n0[:, None], scenario.env.v.integral(T0, np.maximum(T, T0)))
    below = (n < scenario.params.n_min) & (T > T0)
    ends = below.any(axis=1)
    jb = np.where(ends, below.argmax(axis=1) - 1, T.size - 1)
    t_exit = (np.minimum(scenario.arc_exhaustion_time(t0[ends], n0[ends]), T[jb[ends] + 1])
              if ends.any() else np.zeros(0))
    return n, jb, ends, t_exit


def _cut_rows(scenario: Scenario, T, s0, n0, e):
    """Stands thinned at the rates ``e`` > 0 from (T[0], s0, n0), one row
    each, over the grid times T: the closed-form counts n0 - e (T - T[0])
    and :meth:`Scenario.cut_s_after` from T[0].

    A stand is spent at the first grid time whose count is at most
    :func:`_spent_count`, or at T[0] + (n0 - n_min)/e where that is
    earlier, and stays there at n_min: its later steps are empty, so its
    solve is the one it gets alone.  The solve stops at the block's last
    spent time.  A stand crosses the ceiling in the first step that ends
    above it, unless it is spent before that step ends, at the root of
    :func:`_cut_crossings`, with the closed-form count from T[0].

    Returns the times (rows x solved grid times), s, n and the density r
    there; the spent index and the index of the step end past the
    crossing, each T.size where there is none; and the crossing time and
    count of each crossing row, in row order.
    """
    p, S = scenario.params, T.size - 1
    n = n0[:, None] - e[:, None] * (T - T[0])
    spent = n <= _spent_count(p)
    j_spent = np.where(spent.any(axis=1), spent.argmax(axis=1), S + 1)
    m = min(int(j_spent.max()), S) + 1
    t_spent = np.minimum(T[0] + (n0 - p.n_min) / e, T[np.minimum(j_spent, S)])
    times = np.where(spent[:, :m], t_spent[:, None], T[:m])
    n = np.where(spent[:, :m], p.n_min, n[:, :m])
    s = np.concatenate((s0[:, None], scenario.cut_s_after(s0, times, n)), axis=1)
    r = p.density(n, s)
    over = r[:, 1:] > 1.0
    j_cross = np.where(over.any(axis=1), over.argmax(axis=1) + 1, S + 1)
    j_cross[j_cross > j_spent] = S + 1
    c = (j_cross <= S).nonzero()[0]
    i = j_cross[c]
    t = times[c, i - 1]
    t_c = t + _cut_crossings(scenario, t, s[c, i - 1], n[c, i - 1], e[c], times[c, i] - t)
    return times, s, n, r, j_spent, j_cross, t_c, n0[c] - (t_c - T[0]) * e[c]


def _cut_crossings(scenario: Scenario, t, s, n, e, h):
    """How far into cut steps from (t, s, n), at the rates ``e`` and of
    lengths ``h``, the density reaches 1: the roots hh of
    A n s**(q/2) - 1 along :meth:`Scenario.cut_s_after` over [t, t + hh],
    bisected together to the rounding of t + h.  A step whose density
    starts within ``CEILING_REL_TOL`` of 1 crosses at its start; one whose
    one-step solve rounds the density at its end below 1 crosses at that
    end."""
    density = scenario.params.density

    def excess(hh, k):
        """Density less 1 at hh into the steps ``k``."""
        n_h = n[k] - hh * e[k]
        s_h = scenario.cut_s_after(s[k], np.stack((t[k], t[k] + hh), axis=-1),
                                   np.stack((n[k], n_h), axis=-1))[:, 0]
        return density(n_h, s_h) - 1.0

    hh = np.where(density(n, s) < 1.0 - CEILING_REL_TOL, h, 0.0)
    k = (hh > 0.0).nonzero()[0]
    if k.size:
        k = k[excess(hh[k], k) > 0.0]
        hh[k] = bisect(lambda x: excess(x, k), 0.0, h[k], xtol=np.spacing(t[k] + h[k]))
    return hh


def integrate(scenario: Scenario, policy: Policy, horizon: float,
              step: float | None = None, *, on_n_min: str = "clamp",
              fault_s_drift: float = 0.0) -> Trajectory:
    """Integrate the stand dynamics under ``policy`` up to ``horizon``.

    ``step`` is the nominal step size (default ``horizon / 4096``); steps are
    aligned to policy breakpoints so the control is smooth inside every span.
    ``on_n_min`` selects what happens when thinning would push n below n_min:
    ``"clamp"`` freezes the rate at zero (recording an NMinHit event) and
    ``"error"`` raises :class:`NonViable` at the time n reaches n_min (a
    ceiling crossing within that step or before it ends the run first).
    ``fault_s_drift`` multiplies each span's s by ``1 + fault_s_drift``
    once per step after the span is solved (compounded along free and cut
    spans, once per sample on the ceiling, where s follows the count); it
    exists solely so verification harnesses can prove they detect a
    corrupted integrator, and must be finite and above -1 so that s stays
    positive.

    Raises :class:`InfeasibleBoundary` when holding the density ceiling would
    require a rate above e_max, naming the time the ride starts.
    """
    p = scenario.params
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive (got {horizon})")
    if horizon > p.t_star * (1.0 + 1e-12):
        raise ValueError(f"horizon {horizon} exceeds the model validity limit t_star={p.t_star}")
    if on_n_min not in ("clamp", "error"):
        raise ValueError(f"on_n_min must be 'clamp' or 'error' (got {on_n_min})")
    for lv in policy.levels:
        if lv != HOLD and lv > p.e_max * (1.0 + 1e-12):
            raise ValueError(f"policy rate {lv} exceeds e_max={p.e_max}")
    if step is None:
        step = horizon / DEFAULT_STEPS
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive (got {step})")
    if not (math.isfinite(fault_s_drift) and fault_s_drift > -1.0):
        raise ValueError(f"fault_s_drift must be finite and above -1 (got {fault_s_drift})")

    n_min = p.n_min
    t = 0.0
    s = scenario.initial.s
    n = scenario.initial.n
    on_arc = False
    rec = _Recorder(t, s, n)

    def exit_at(t_exit: float, arc: bool) -> Trajectory:
        """Stop at the (1, n_min) corner, under the ceiling-holding rate on an arc."""
        s_bar = p.s_bar
        rec.add(t_exit, s_bar, n_min,
                boundary_control(p, scenario.env, s_bar, t_exit) if arc else 0.0, arc)
        return rec.finish(scenario, t_exit, "ExitPoint", True)

    # Level i holds from bounds[i]: breakpoints are positive and increasing.
    bounds = [0.0] + [b for b in policy.breakpoints if b < horizon] + [horizon]
    for ta, tb, level in zip(bounds, bounds[1:], policy.levels):
        hold = level == HOLD
        on_arc = on_arc and hold        # a ride carries on into a hold segment
        h_nom = (tb - ta) / max(1, round((tb - ta) / step))
        while t < tb - 1e-13 * max(1.0, tb):
            if on_arc:
                kind, span, e = "arc", _arc_span, boundary_control(p, scenario.env, s, t)
            elif hold or level == 0.0 or n <= _spent_count(p):
                kind, span, e = "free", _free_span, 0.0
            else:
                kind, span, e = "cut", _cut_span, level
            (ts, ss, ns, es), event = span(scenario, t, s, n, e, _span_grid(t, tb, h_nom))
            if fault_s_drift:
                # Compounded per step, but once per sample on the ceiling, where
                # s follows the count.
                ss = ss * (1.0 + fault_s_drift) ** (1 if on_arc else np.arange(1, ss.size + 1))
            rec.span(e, on_arc, ts, ss, ns, es)
            t0 = t
            if ts.size:
                t, s, n = float(ts[-1]), float(ss[-1]), float(ns[-1])
            if event is not None:
                t, n = event[1], event[2]
            if t > t0:
                rec.spans.append((kind, t0, t))
            if event is None:
                continue
            if event[0] == "NMinHit":
                if on_n_min == "error":
                    raise NonViable(f"policy would cut below n_min={n_min} at t={t:.6g}")
                rec.events.append(TrajectoryEvent(t, "NMinHit", False))
                continue
            # An arc's ExitPoint is at n_min, so at the corner.
            (s,), (e_arc,), (corner,), (rides,), (over,) = _on_ceiling(
                scenario, t, np.array([n]), hold)
            if corner:
                return exit_at(t, on_arc)
            if over:
                raise InfeasibleBoundary(f"ceiling-holding rate {e_arc:.6g} exceeds "
                                         f"e_max={p.e_max} at t={t:.6g}")
            if not rides:
                rec.add(t, s, n, e, False)
                return rec.finish(scenario, t, "RdiHitOne", False)
            on_arc = True
            rec.events.append(TrajectoryEvent(t, "RdiHitOne", False))
            rec.add(t, s, n, e_arc, True)

    return rec.finish(scenario, horizon, "HorizonEnd", False)


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
    """Write samples as CSV with the fixed header t,s,n,r,e,h: each value
    to 12 significant digits, lines ending in CRLF, as ``csv.writer``
    writes them (no value needs quoting).  The rows are formatted as one
    string."""
    cols = (trajectory.t, trajectory.s, trajectory.n, trajectory.r, trajectory.e,
            env.h0(trajectory.t))
    row = ",".join(["%.12g"] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("t,s,n,r,e,h\r\n")
        fh.write("".join(row % values for values in zip(*(col.tolist() for col in cols))))


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
