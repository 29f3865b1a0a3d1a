"""Inequality audits: hypothesis checks, envelope bounds, and thresholds.

The analytical results about the dynamics take the form of sampled
inequalities along trajectories, all anchored to the two reference policies:
the fast, cut-first trajectory (subscript "lo" here) and the slow,
ceiling-riding trajectory (subscript "hi").  For any admissible policy

* counts are sandwiched: n_lo(t) <= n(t) <= n_hi(t);
* basal area dominates the slow reference: s(t) >= s_hi(t), and for power
  growth is itself dominated by the fast reference: s(t) <= s_lo(t);
* per-tree growth g(r)/n is sandwiched between its values on the two
  references and is nondecreasing in time;
* the relative basal-area increase s'/s is bounded below by xi_m computed
  from the slow reference.

The weighted-product orderings of n s**b against the references are not
audited, because every one of them has counterexamples among admissible
policies.  Audits respect the side conditions: inequalities proved only for
the power family are skipped for other growth functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, integrate
from .model import Scenario, boundary_control, rdi
from .trajectories import build_policy

__all__ = [
    "HypothesisReport",
    "XiLowerBound",
    "EnvelopeRefs",
    "Violation",
    "BoundReport",
    "check_h3",
    "check_hypotheses",
    "b_star",
    "xi_lower_bound",
    "audit_trajectory",
]

AUDIT_TOL = 1e-6        # relative tolerance of the sampled inequality checks
GAMMA_UPPER_CAP = 1.0 - 1e-9   # above this the b_star threshold is treated as infinite


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail record per model hypothesis, with a witness where failed.

    H1 and H2 hold by construction, so only H3 (witness: the margin, read
    at t = 0) and H4 (witness: ``gamma_lower``) can fail.
    """

    h1_energy: bool
    h2_competition: bool
    h3_ceiling_rate: bool
    h4_elasticity: bool
    h3_margin: float
    witnesses: tuple = ()

    @property
    def all_pass(self) -> bool:
        return (self.h1_energy and self.h2_competition
                and self.h3_ceiling_rate and self.h4_elasticity)

    def to_json_dict(self) -> dict:
        return {
            "H1_energy_decreasing_convex": self.h1_energy,
            "H2_competition_shape": self.h2_competition,
            "H3_ceiling_rate_below_e_max": self.h3_ceiling_rate,
            "H4_elasticity_bounded_below": self.h4_elasticity,
            "H3_margin": float(self.h3_margin),
            "witnesses": [list(w) for w in self.witnesses],
        }


def check_h3(scenario: Scenario) -> tuple[bool, float]:
    """Ceiling-rate feasibility: (q/2) V(t) / s(0) < e_max for all t.

    s(0) bounds the basal area from below at every time, because s never
    decreases, so the check is conservative.  V never increases, so the rate
    peaks at t = 0 and is read there.  Returns (pass, margin); the margin is
    e_max minus that peak rate.
    """
    p = scenario.params
    rate = boundary_control(p, scenario.env, scenario.initial.s, 0.0)
    margin = float(p.e_max - rate)
    return margin > 0.0, margin


def check_hypotheses(scenario: Scenario) -> HypothesisReport:
    """The four standing model hypotheses, read off the scenario's types.

    H1 (V positive, non-increasing, convex) and H2 (g increasing, concave,
    g(0) = 0, g(1) = 1, and g(r) > r when it amplifies) hold by
    construction: :class:`GrowthEnergy` admits only exponential or
    hyperbolic V with v0 > 0 and lambda >= 0, and :class:`GrowthFunction`
    only fagacees with p > 0 and power with theta in [0, 1).  H3 is
    :func:`check_h3`, and H4 is ``growth.gamma_lower > 0``.
    """
    witnesses = []
    h3, margin = check_h3(scenario)
    if not h3:
        witnesses.append(("H3", margin))
    gamma_lower = scenario.growth.gamma_lower
    h4 = gamma_lower > 0.0
    if not h4:
        witnesses.append(("H4", gamma_lower))
    return HypothesisReport(h1_energy=True, h2_competition=True, h3_ceiling_rate=h3,
                            h4_elasticity=h4, h3_margin=margin,
                            witnesses=tuple(witnesses))


def b_star(scenario: Scenario) -> float:
    """Threshold above which the n s**b sandwich reverses (feeds ``alpha_star``).

    Undefined (raises ValueError) when the elasticity upper bound reaches 1,
    which makes the threshold infinite.
    """
    p = scenario.params
    growth = scenario.growth
    gl, gu = growth.gamma_lower, growth.gamma_upper
    if gu >= GAMMA_UPPER_CAP:
        raise ValueError("b_star is undefined: elasticity upper bound reaches 1")
    r_floor = rdi(p, p.n_min, scenario.initial.s)
    g_floor = float(growth.g(r_floor))
    q2 = p.q / 2.0
    return float((1.0 + q2 * (1.0 / g_floor - gl)) / (1.0 - gu))


@dataclass(frozen=True)
class XiLowerBound:
    """Lower bound xi_m(t) for the relative basal-area increase s'(t)/s(t).

    Built from the slow (ceiling-riding) reference trajectory: xi_m =
    s_hi' / (s_hi**(q/2) * s_cap**(1-q/2)) where s_cap is the maximal basal
    area, replaced by the fast reference s_lo(t) for power growth (a sharper
    bound because s never exceeds s_lo there).
    """

    t: np.ndarray
    values: np.ndarray
    form: str                 # "power" | "general"

    def __call__(self, times):
        return np.interp(times, self.t, self.values)


@dataclass(frozen=True)
class EnvelopeRefs:
    """Reference trajectories the envelope inequalities compare against.

    The fast reference is frozen at the exit corner (s_cap, n_min) past its
    own exit, which keeps its envelopes valid for later times; the slow
    reference never exits before any admissible horizon.  ``terminal`` holds
    the exact-target policy trajectory used for end-constrained audits.
    """

    scenario: Scenario
    fast: Trajectory
    slow: Trajectory
    terminal: Trajectory | None = None

    @classmethod
    def build(cls, scenario: Scenario, horizon: float, step: float | None = None,
              with_terminal: bool = False) -> "EnvelopeRefs":
        fast = integrate(scenario, build_policy(scenario, "e0"), horizon, step=step)
        slow = integrate(scenario, build_policy(scenario, "esup"), horizon, step=step)
        term = None
        if with_terminal:
            term = integrate(scenario, build_policy(scenario, "et", T=horizon),
                             horizon, step=step)
        return cls(scenario=scenario, fast=fast, slow=slow, terminal=term)

    def fast_sn(self, times) -> tuple[np.ndarray, np.ndarray]:
        p = self.scenario.params
        s, n = self.fast.interp_s(times), self.fast.interp_n(times)
        if self.fast.exited:
            past = np.asarray(times) > self.fast.validity_end
            s = np.where(past, p.s_bar, s)
            n = np.where(past, p.n_min, n)
        return s, n

    def slow_sn(self, times) -> tuple[np.ndarray, np.ndarray]:
        return self.slow.interp_s(times), self.slow.interp_n(times)

    def terminal_sn(self, times) -> tuple[np.ndarray, np.ndarray]:
        if self.terminal is None:
            raise ValueError("terminal reference was not built")
        return self.terminal.interp_s(times), self.terminal.interp_n(times)

    def xi_lower_bound(self) -> XiLowerBound:
        """xi_m on the slow reference's samples, capped by the fast reference's
        s under power growth (form "power") or by s_bar (form "general")."""
        p = self.scenario.params
        form = "power" if self.scenario.growth.kind == "power" else "general"
        if form == "power":
            s_cap = self.fast_sn(self.slow.t)[0]
        else:
            s_cap = np.full_like(self.slow.t, p.s_bar)
        slow = self.slow
        vals = self.scenario.growth_rate(slow.t, slow.s, slow.n) \
            / (slow.s ** (p.q / 2.0) * s_cap ** (1.0 - p.q / 2.0))
        return XiLowerBound(t=slow.t, values=vals, form=form)


def xi_lower_bound(scenario: Scenario, horizon: float,
                   step: float | None = None) -> XiLowerBound:
    """Standalone xi_m: integrates both references, then reads the bound off them.

    Callers that already hold :class:`EnvelopeRefs` use
    :meth:`EnvelopeRefs.xi_lower_bound` instead.
    """
    return EnvelopeRefs.build(scenario, horizon, step=step).xi_lower_bound()


@dataclass(frozen=True)
class Violation:
    time: float
    quantity: str
    lhs: float
    rhs: float

    def to_json_dict(self) -> dict:
        return {"time": self.time, "quantity": self.quantity,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of auditing one trajectory against the analytical bounds."""

    hypotheses: HypothesisReport
    xi_m: XiLowerBound | None
    violations: tuple[Violation, ...] = ()
    checks_run: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": self.hypotheses.to_json_dict(),
            "xi_m_form": None if self.xi_m is None else self.xi_m.form,
            "checks_run": list(self.checks_run),
            "violations": [v.to_json_dict() for v in self.violations],
            "clean": self.clean,
        }


def _collect(violations: list, mask: np.ndarray, times: np.ndarray, name: str,
             lhs: np.ndarray, rhs: np.ndarray, cap: int = 16) -> None:
    bad = np.flatnonzero(mask)
    for i in bad[:cap]:
        violations.append(Violation(time=float(times[i]), quantity=name,
                                    lhs=float(lhs[i]), rhs=float(rhs[i])))


def audit_trajectory(scenario: Scenario, traj: Trajectory, refs: EnvelopeRefs,
                     *, terminal: bool = False,
                     xi_m: XiLowerBound | None = None) -> BoundReport:
    """Check the envelope and monotonicity bounds at every trajectory sample.

    ``terminal=True`` additionally audits the end-constrained envelopes
    (requires refs.terminal and only makes sense for trajectories ending at
    n_min).  The report carries the scenario's :func:`check_hypotheses`.
    """
    p = scenario.params
    growth = scenario.growth
    power = growth.kind == "power"
    ts = traj.t
    s, n = traj.s, traj.n
    s_lo, n_lo = refs.fast_sn(ts)
    s_hi, n_hi = refs.slow_sn(ts)
    violations: list[Violation] = []
    checks: list[str] = []

    def rel_le(name: str, lhs, rhs, scale=None) -> None:
        checks.append(name)
        sc = np.abs(rhs) if scale is None else scale
        _collect(violations, lhs > rhs + AUDIT_TOL * np.maximum(sc, 1e-300), ts, name, lhs, rhs)

    # Count sandwich and basal-area envelopes.
    rel_le("n_ge_fast", n_lo, n)
    rel_le("n_le_slow", n, n_hi)
    rel_le("s_ge_slow", s_hi, s)
    if power:
        rel_le("s_le_fast", s, s_lo)
    if terminal:
        s_T, n_T = refs.terminal_sn(ts)
        rel_le("n_le_terminal", n, n_T)
        if power:
            # The latest-cutting terminal policy has the slowest growth, so
            # it bounds the basal area from below on the terminal class.
            rel_le("s_ge_terminal", s_T, s)

    # Per-tree growth sandwich and its monotonicity in time.
    gpt = growth.g(rdi(p, n, s)) / n
    gpt_hi = growth.g(rdi(p, n_hi, s_hi)) / n_hi
    rel_le("growth_per_tree_ge_slow", gpt_hi, gpt)
    if power:
        gpt_lo = growth.g(rdi(p, n_lo, s_lo)) / n_lo
        rel_le("growth_per_tree_le_fast", gpt, gpt_lo)
    checks.append("growth_per_tree_nondecreasing")
    diffs = np.diff(gpt)
    _collect(violations, diffs < -AUDIT_TOL * np.abs(gpt[:-1]), ts[1:],
             "growth_per_tree_nondecreasing", -diffs, np.zeros_like(diffs))

    # Relative-increase floor.
    if xi_m is not None:
        checks.append("xi_ge_xi_m")
        xi = scenario.growth_rate(ts, s, n) / s
        bound = xi_m(ts)
        _collect(violations, xi < bound - AUDIT_TOL * np.maximum(np.abs(bound), 1e-300),
                 ts, "xi_ge_xi_m", bound, xi)

    return BoundReport(
        hypotheses=check_hypotheses(scenario),
        xi_m=xi_m,
        violations=tuple(violations),
        checks_run=tuple(checks),
    )

