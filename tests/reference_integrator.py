"""The fixed-step integrator that the closed-form spans of ``integrate`` replaced.

Kept as the reference for the differential test (``test_integrator_reference.py``):
one scalar loop steps every span with RK4 or with the ceiling-arc relation,
free growth and ceiling riding included.  Its body is ``integrate`` as it
stood before the spans were split by kind, with changes that give both
the same event rules and make it a sharper reference:

* it bisects a ceiling crossing under a positive rate to the rounding of
  its time, as ``integrate`` locates it;
* a segment's opening sample takes the segment's control whenever the
  previous segment stopped within its stopping tolerance of the breakpoint
  (1e-13 relative past t = 1), as in ``integrate``'s recorder, and a
  segment shorter than that tolerance takes no step and lists no span;
* under a positive rate, the count at every step and event is the closed
  form n - e (tau - t) from the segment start, as in ``integrate``'s cut
  spans (s keeps its RK4 steps), and the run is spent at the first grid
  time whose count is at most ``_spent_count``, or at the time the closed
  form reaches n_min where that is earlier;
* it can take the steps where the stand changes fast in finer RK4
  substeps (off by default).

It lists its spans by the kind ``integrate`` would solve each with, so the
test compares the two runs' span kinds too.
"""

import math

import numpy as np

from standgrowth._rootfind import bisect
from standgrowth.dynamics import (DEFAULT_STEPS, EXIT_REL_TOL, HOLD, InfeasibleBoundary,
                                  NonViable, Policy, Trajectory, TrajectoryEvent,
                                  _drdt_values, _spent_count)
from standgrowth.model import Scenario, boundary_control, rdi


class _Recorder:
    """Accumulates samples and events during integration."""

    def __init__(self) -> None:
        self.t: list[float] = []
        self.s: list[float] = []
        self.n: list[float] = []
        self.e: list[float] = []
        self.arc: list[bool] = []
        self.events: list[TrajectoryEvent] = []
        self.spans: list[tuple[str, float, float]] = []
        self.open: tuple[str, float] | None = None     # kind and start of the open span

    def span_to(self, t: float) -> None:
        """Close the open span at ``t``; it is listed when it has length."""
        if self.open is not None and t > self.open[1]:
            self.spans.append((*self.open, t))
        self.open = None

    def start_span(self, kind: str, t: float) -> None:
        """Close the open span at ``t`` and open one of ``kind`` there."""
        self.span_to(t)
        self.open = (kind, t)

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


def reference_integrate(scenario: Scenario, policy: Policy, horizon: float,
                        step: float | None = None, *, on_n_min: str = "clamp",
                        fault_s_drift: float = 0.0, free_resolution: float | None = None,
                        cut_resolution: float | None = None) -> Trajectory:
    """Integrate the stand dynamics under ``policy`` up to ``horizon``.

    ``step`` is the nominal step size (default ``horizon / 4096``); steps are
    aligned to policy breakpoints so the control is smooth inside every span.
    ``on_n_min`` selects what happens when thinning would push n below n_min:
    ``"clamp"`` freezes the rate at zero (recording an NMinHit event) and
    ``"error"`` raises :class:`NonViable`.  ``fault_s_drift`` multiplies s by
    ``1 + fault_s_drift`` after every step; it exists solely so verification
    harnesses can prove they detect a corrupted integrator, and must be
    finite and above -1 so that s stays positive.  With ``free_resolution``
    (at rate 0) or ``cut_resolution`` (at a positive rate), a step advances
    s by as many RK4 substeps as keep the relative growth of s in each, plus
    the share of the count it removes, at most that fraction, while the
    counts stay the closed form: a finer reference where the stand changes
    fast, on the same grid, with the same counts.

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

    def rk4_step(t: float, s: float, n: float, h: float, e: float) -> tuple[float, float]:
        resolution = cut_resolution if e > 0.0 else free_resolution
        m = 1
        if resolution is not None:
            share = h * (g(A * n * s ** q2) / n * env_v(t) / s + e / (n - h * e))
            m = math.ceil(share / resolution)
        if m <= 1:
            return rk4_free(t, s, n, h, e)
        hs = h / m
        for i in range(m):
            s, _ = rk4_free(t + i * hs, s, n - i * hs * e, hs, e)
        return s, n - h * e

    t = 0.0
    s = scenario.initial.s
    n = scenario.initial.n
    exhausted = n <= _spent_count(p)
    on_arc = False

    rec = _Recorder()

    def start_span() -> None:
        """Open a span at t, of the kind that ``integrate`` would step."""
        rec.start_span("arc" if on_arc else "free" if exhausted or hold or rate == 0.0
                       else "cut", t)

    def finish(end_time: float, terminal_kind: str, exited: bool) -> Trajectory:
        rec.events.append(TrajectoryEvent(end_time, terminal_kind, True))
        rec.span_to(end_time)
        ts = np.asarray(rec.t)
        ss = np.asarray(rec.s)
        ns = np.asarray(rec.n)
        es = np.asarray(rec.e)
        arcs = np.asarray(rec.arc, dtype=bool)
        rs = rdi(p, ns, ss)
        dr = _drdt_values(scenario, ts, ss, ns, es, rs)
        return Trajectory(t=ts, s=ss, n=ns, e=es, r=rs, drdt=dr, on_arc=arcs,
                          events=tuple(rec.events), validity_end=end_time,
                          exited=exited, spans=tuple(rec.spans))

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
        if not hold:
            on_arc = False
        elif r >= 1.0 - 1e-9:
            # Entering a hold span already at the ceiling.
            if near_corner(n):
                return exit_at(t, True)
            on_arc = True
            s = p.ceiling_s(n)
        if t >= tb - 1e-13 * max(1.0, tb):
            # A segment shorter than the stopping tolerance takes no step.
            rec.span_to(t)
            continue
        if rec.t and abs(rec.t[-1] - ta) < 1e-13 * max(1.0, ta):
            # Backfill the control column of the span-opening sample.
            rec.e[-1] = (boundary_control(p, scenario.env, s, t) if on_arc
                         else (0.0 if exhausted else rate))
            rec.arc[-1] = on_arc
        start_span()
        t_a, n_a = t, n                 # a cut's counts are closed-form from here
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
                if e > 0.0:
                    # Spent at the first grid time whose count is at most
                    # _spent_count, or at the exact time where that is earlier.
                    if n_a - (t_after_full - t_a) * e <= _spent_count(p):
                        if on_n_min == "error":
                            raise NonViable(
                                f"policy would cut below n_min={n_min} near t={t:.6g}")
                        t_after_full = min(t_a + (n_a - n_min) / e, t_after_full)
                        h = t_after_full - t
                        hit_n_min = True
                s1, _ = rk4_step(t, s, n, h, e)
                n1 = n_a - (t_after_full - t_a) * e if e > 0.0 else n
                r1 = A * n1 * s1 ** q2
                if r1 > 1.0:
                    if r >= 1.0 - 1e-12:
                        h_cross = 0.0
                    elif e == 0.0:
                        h_cross = min(max(scenario.ceiling_time(t, s, n) - t, 0.0), h)
                    else:
                        def r_excess(hh: float) -> float:
                            s2, n2 = rk4_step(t, s, n, hh, e)
                            return A * n2 * s2 ** q2 - 1.0
                        h_cross = bisect(r_excess, 0.0, h, xtol=math.ulp(t + h))
                    t = t + h_cross
                    if e > 0.0:
                        n = n_a - (t - t_a) * e
                    if near_corner(n):
                        return exit_at(t, False)
                    # The state is placed exactly on the ceiling.
                    s = p.ceiling_s(n)
                    if not hold:
                        rec.add(t, s, n, e, False)
                        return finish(t, "RdiHitOne", False)
                    on_arc = True
                    rec.events.append(TrajectoryEvent(t, "RdiHitOne", False))
                    start_span()
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
                    start_span()
                rec.add(t, s, n, e, False)
            r = A * n * s ** q2

    return finish(horizon, "HorizonEnd", False)
