"""Named thinning policies and their characteristic times.

Five names cover the policies the model and its searches use, and
:func:`build_policy` is the one constructor that knows what each means:

* ``zero`` never cut;
* ``max``  cut at e_max throughout;
* ``e0``   cut at e_max until the count reaches n_min, then stop;
* ``esup`` grow freely until the density ceiling, then ride it down to n_min;
* ``et``   the intermediate family indexed by a target horizon T at which the
           count reaches n_min exactly.

The last three are the canonical policies that organize the reachable set of
the dynamics.  Their switch times have closed defining equations in terms of
the cumulative energy.  With zero cutting the count is constant and separating
variables in the density equation gives the ceiling-hit time t_up as the root of

    (q/2) n0**(2/q-1) A**(2/q) * Energy(0, t_up) = Int_{r0}^{1} u**(2/q-1)/g(u) du,

whose right side is elementary for every growth variant
(:meth:`GrowthFunction.density_integral`); :meth:`Scenario.ceiling_time`
solves it from any uncut state, and t_up is its case at t = 0,
:attr:`Scenario.t_sup0`.

On the ceiling itself (r = 1) the count obeys a separable equation whose
integral form is

    n(T)**(1-2/q) = n(t_up)**(1-2/q) + A**(2/q) (1-q/2) * Energy(t_up, T),

which yields the ceiling-exhaustion time T_exit (count n_min reached on the
arc), :attr:`Scenario.t_cap0`, and, equivalently, the maximal exit time.  The
cumulative energy has a closed-form inverse (:meth:`GrowthEnergy.time_at`),
so t_up and T_exit are closed forms too, which the scenario computes once
and :func:`t_sup0` and :func:`t_cap0` read; only the arc-leaving time of
``et`` is found by bracketed bisection.  A time that never comes within
t_star is ``math.inf`` (:data:`UNREACHABLE`), as the closed forms return it,
so it compares correctly against any horizon; JSON writes it as ``null``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rootfind import bisect
from .dynamics import HOLD, Policy, integrate
from .model import Scenario, StandParams, energy

__all__ = [
    "UNREACHABLE",
    "is_unreachable",
    "CharacteristicTimes",
    "ValidityDiagnostics",
    "time_to_count",
    "t_sup0",
    "t_cap0",
    "build_policy",
    "characteristic_times",
    "validity_diagnostics",
]


UNREACHABLE = math.inf      # a characteristic time that does not exist within t_star
# Steps over [0, t_star] of the cut-first run that measures the minimal exit time.
EXTREMAL_STEPS = 8192
# A horizon or target this far (relative) past the ceiling-exhaustion time
# still counts as reaching it: et names esup there, and a search still admits
# the horizon.  Beyond it no et policy and no admissible trajectory exists.
EXHAUSTION_REL_TOL = 1e-9


def is_unreachable(value) -> bool:
    return value == UNREACHABLE


def time_to_count(params: StandParams, n0: float, n: float) -> float:
    """Time to thin from n0 down to n at the maximal rate: (n0 - n) / e_max."""
    if n > n0:
        raise ValueError(f"target count {n} exceeds start count {n0}")
    return (n0 - n) / params.e_max


def t_sup0(scenario: Scenario) -> float:
    """First time the density reaches the ceiling under zero cutting
    (:attr:`Scenario.t_sup0`); :data:`UNREACHABLE` beyond t_star."""
    return scenario.t_sup0


def t_cap0(scenario: Scenario) -> float:
    """Time at which the ceiling arc started at t_sup0 exhausts the stand
    (:attr:`Scenario.t_cap0`); :data:`UNREACHABLE` when t_sup0 is, or beyond
    t_star."""
    return scenario.t_cap0


def build_policy(scenario: Scenario, kind: str, T: float | None = None) -> Policy:
    """Construct a named policy: ``"zero"``, ``"max"``, ``"e0"``, ``"esup"``,
    or ``"et"`` (needs T).

    ``esup`` and ``et`` read t_sup0 and t_cap0 off the scenario, which
    computes each once.  Degenerate identifications: ``et`` with T at or
    below the pure-cutting time returns the ``e0`` policy, and T at the
    ceiling-exhaustion time returns ``esup``.  T beyond that window is a
    domain error.
    """
    p = scenario.params
    if kind == "zero":
        return Policy.zero()
    if kind == "max":
        return Policy.max_rate(p.e_max)

    if kind == "e0":
        t0n = time_to_count(p, scenario.initial.n, p.n_min)
        if t0n == 0.0:
            return Policy((), (0.0,), kind="e0", meta=(("t_cut_end", 0.0),))
        return Policy((t0n,), (p.e_max, 0.0), kind="e0", meta=(("t_cut_end", t0n),))
    if kind not in ("esup", "et"):
        raise ValueError(f"unknown policy kind {kind!r}")
    t_up, t_exhaust = scenario.t_sup0, scenario.t_cap0
    if kind == "esup":
        meta = (("t_rdi_one", None if is_unreachable(t_up) else t_up),
                ("t_exhaust", None if is_unreachable(t_exhaust) else t_exhaust))
        return Policy((), (HOLD,), kind="esup", meta=meta)

    if T is None:
        raise ValueError("the et policy needs a target horizon T")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"target horizon must be finite and positive (got {T})")
    n0 = scenario.initial.n
    t0n = time_to_count(p, n0, p.n_min)
    if T <= t0n * (1.0 + 1e-12):
        return build_policy(scenario, "e0")

    if T <= t0n + t_up:
        # Short horizon: grow freely, then one maximal-rate burst ending at T.
        t_switch = T - t0n
        return Policy((t_switch,), (0.0, p.e_max), kind="et",
                      meta=(("T", T), ("t_switch", t_switch)))
    if T < t_exhaust * (1.0 - 1e-12):
        # Long horizon: free growth, ceiling arc, then a maximal-rate burst.
        # The arc-leaving time solves (T - t) e_max = n_arc(t) - n_min, which
        # is strictly decreasing in t because the arc rate stays below e_max.
        def excess(t: float) -> float:
            n_arc = scenario.arc_count_after(n0, scenario.env.v.integral(t_up, t))
            return (n_arc - p.n_min) - (T - t) * p.e_max

        t_switch = bisect(excess, t_up, T)
        return Policy((t_switch,), (HOLD, p.e_max), kind="et",
                      meta=(("T", T), ("t_switch", t_switch), ("t_rdi_one", t_up)))
    if T <= t_exhaust * (1.0 + EXHAUSTION_REL_TOL):
        return build_policy(scenario, "esup")
    raise ValueError(f"target horizon T={T} exceeds the ceiling-exhaustion time "
                     f"{t_exhaust}; no policy reaches n_min exactly at T")


@dataclass(frozen=True)
class CharacteristicTimes:
    """Bundle of the named times of a scenario (JSON-exportable).

    ``t_lower`` and ``t_upper`` are the minimal and maximal times to reach the
    exit corner (r, n) = (1, n_min).  ``t_lower`` comes from integrating the
    cut-first policy; its minimality is established only for the power growth
    family, so other growth functions carry ``t_lower_heuristic=True``.  The
    slow, ceiling-riding policy attains ``t_upper``, which is ``t_cap0``.
    """

    t0_n: float                   # time to thin from n(0) to n_min at e_max
    t_sup0: float                 # first ceiling hit under zero cutting
    t_cap0: float                 # ceiling-arc exhaustion time
    t_lower: float                # minimal exit time
    t_lower_heuristic: bool
    t_star_switch: float | None = None   # arc-leaving time of et(T), if requested

    @property
    def t_upper(self) -> float:
        """Maximal exit time."""
        return self.t_cap0

    def to_json_dict(self) -> dict:
        def enc(v):
            if v is None or is_unreachable(v):
                return None
            return float(v)

        return {
            "t0_n_min": float(self.t0_n),
            "t_sup0": enc(self.t_sup0),
            "t_cap0": enc(self.t_cap0),
            "t_lower": enc(self.t_lower),
            "t_upper": enc(self.t_upper),
            "t_lower_heuristic": bool(self.t_lower_heuristic),
            "t_star_switch": enc(self.t_star_switch),
        }


def characteristic_times(scenario: Scenario, T: float | None = None) -> CharacteristicTimes:
    """The named times of ``scenario``, with the arc-leaving time of et(T)
    when ``T`` is given.

    A finite T beyond the ceiling-exhaustion time has no et policy and gives
    ``t_star_switch=None``; a T that is not finite and positive is an error.
    """
    p = scenario.params
    cut_first = integrate(scenario, build_policy(scenario, "e0"), p.t_star,
                          step=p.t_star / EXTREMAL_STEPS)
    t_switch = None
    if T is not None and not (math.isfinite(T)
                              and T > scenario.t_cap0 * (1.0 + EXHAUSTION_REL_TOL)):
        t_switch = build_policy(scenario, "et", T).meta_dict().get("t_switch")
    return CharacteristicTimes(
        t0_n=time_to_count(p, scenario.initial.n, p.n_min),
        t_sup0=scenario.t_sup0,
        t_cap0=scenario.t_cap0,
        t_lower=cut_first.validity_end if cut_first.exited else UNREACHABLE,
        t_lower_heuristic=scenario.growth.kind != "power",
        t_star_switch=t_switch,
    )


@dataclass(frozen=True)
class ValidityDiagnostics:
    """Sufficient-condition check for reachability of the exit corner.

    ``exit_reachable`` uses the growth lower bound ds/dt >= A s**(q/2) V: when
    even that slow path overshoots the maximal basal area by t_star, every
    admissible trajectory must leave the validity domain earlier.
    ``exit_unreachable`` uses ds/dt <= V/n_min: when even the fastest path
    cannot lift s to the ceiling-corner value, no trajectory exits.  Both are
    sufficient conditions only; neither holding is reported as indeterminate.
    """

    exit_reachable: bool
    exit_unreachable: bool
    reachable_margin: float      # s-power units; positive when reachable holds
    unreachable_margin: float    # m² slack; positive when unreachable holds

    @property
    def classification(self) -> str:
        if self.exit_reachable:
            return "reachable"
        if self.exit_unreachable:
            return "unreachable"
        return "indeterminate"

    def to_json_dict(self) -> dict:
        return {
            "exit_reachable": self.exit_reachable,
            "exit_unreachable": self.exit_unreachable,
            "reachable_margin": float(self.reachable_margin),
            "unreachable_margin": float(self.unreachable_margin),
            "classification": self.classification,
        }


def validity_diagnostics(scenario: Scenario) -> ValidityDiagnostics:
    p = scenario.params
    s0 = scenario.initial.s
    total = energy(scenario.env, 0.0, p.t_star)
    expo = 1.0 - p.q / 2.0
    reach_lhs = s0 ** expo + p.A * expo * total
    reach_margin = reach_lhs - p.s_bar ** expo
    unreach_margin = p.s_bar - (s0 + total / p.n_min)
    return ValidityDiagnostics(
        exit_reachable=reach_margin >= 0.0,
        exit_unreachable=unreach_margin > 0.0,
        reachable_margin=reach_margin,
        unreachable_margin=unreach_margin,
    )
