"""Search for the revenue-optimal thinning schedule.

Two independent routes to the same question:

* :func:`check_prop2` evaluates closed-form sufficient conditions under which
  a canonical policy is provably optimal: with power growth, a price convex
  enough in basal area (alpha above a threshold derived from the
  reversed-sandwich exponent) and a small enough effective discount make the
  cut-first policy optimal; a price concave enough makes the ceiling-riding
  policy optimal, and with a terminal count constraint the exact-target
  policy takes its place.

* :func:`brute_force` enumerates piecewise-constant policies over equal time
  intervals with the semantic level set {0, e_max, ride-the-ceiling}, which
  spans the bang-bang-plus-singular-arc structure of the candidate optima.
  A vectorized coarse-step integrator screens the candidates as a prefix
  tree, stepping each shared prefix of segments once, and ranks them
  on the by-parts form of the objective, whose integrand depends on the
  state alone and so is second order in the step; the best few are
  re-integrated at a fine step together with the canonical policies, and the
  exact objective decides.

Ties are broken toward earlier cutting (lexicographically larger cumulative
harvest), then by enumeration order, so results are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import EnvelopeRefs, XiLowerBound, b_star, xi_lower_bound
from .dynamics import EXIT_REL_TOL, HOLD, Policy, integrate
from .economics import EconomicModel, _revenue_rate, delta_h, objective, price
from .model import Scenario
from .trajectories import EXHAUSTION_REL_TOL, build_policy, t_cap0, time_to_count

__all__ = [
    "Prop2Report",
    "SearchResult",
    "CanonicalComparison",
    "check_prop2",
    "brute_force",
    "compare_canonicals",
    "NoFeasiblePolicy",
]

CANONICAL_NAMES = ("E0", "ET", "Esup", "Zero", "Max")
PROP2_GRID = 1024       # time samples of the sufficient-condition margins
MAX_CANDIDATES = 3 ** 10  # schedules one brute_force may enumerate


class NoFeasiblePolicy(RuntimeError):
    """Every enumerated candidate violated the constraints."""


@dataclass(frozen=True)
class Prop2Report:
    """Which sufficient-optimality branch applies, with worst-case margins."""

    branch: str | None            # "E0Optimal" | "EsupOptimal" | "ETOptimal" | None
    alpha_margin: float | None    # alpha - alpha_star (branch i) or bound - alpha (ii)
    discount_margin: float | None  # min over the grid of rhs - delta_h
    alpha_star: float | None
    concave_bound: float | None
    xi_form: str | None

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "alpha_margin": self.alpha_margin,
            "discount_margin": self.discount_margin,
            "alpha_star": self.alpha_star,
            "concave_bound": self.concave_bound,
            "xi_form": self.xi_form,
        }


def _require_admissible_horizon(scenario: Scenario, horizon: float) -> None:
    """Reject a horizon that is not finite and positive or exceeds the maximal
    exit time (beyond it no admissible trajectory exists)."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive (got {horizon})")
    t_upper = t_cap0(scenario)
    if horizon > t_upper * (1.0 + EXHAUSTION_REL_TOL):
        raise ValueError(f"horizon {horizon} exceeds the maximal exit time {t_upper}")


def check_prop2(scenario: Scenario, econ: EconomicModel, horizon: float,
                *, terminal_n_min: bool = False,
                xi_m: XiLowerBound | None = None) -> Prop2Report:
    """Evaluate the sufficient-optimality conditions on a time grid.

    Requires the horizon not to exceed the maximal exit time (beyond it no
    admissible trajectory exists).  Returns the first satisfied branch:
    convex-price cut-first optimality (power growth only), then concave-price
    ceiling-riding optimality (``ETOptimal`` instead when ``terminal_n_min``).
    """
    p = scenario.params
    growth = scenario.growth
    _require_admissible_horizon(scenario, horizon)

    if xi_m is None:
        xi_m = xi_lower_bound(scenario, horizon)
    ts = np.linspace(horizon / PROP2_GRID, horizon, PROP2_GRID)
    dh = delta_h(econ, scenario.env, ts)
    xv = xi_m(ts)

    alpha_star = None
    if growth.kind == "power" and growth.theta > 0.0:
        theta = growth.theta
        try:
            alpha_star = 1.0 + (b_star(scenario) - p.q / 2.0) * (1.0 - theta)
        except ValueError:
            alpha_star = None
        if alpha_star is not None and econ.alpha > alpha_star:
            margin = float(np.min(econ.alpha * (1.0 - theta) * xv - dh))
            if margin >= 0.0:
                return Prop2Report(branch="E0Optimal",
                                   alpha_margin=float(econ.alpha - alpha_star),
                                   discount_margin=margin, alpha_star=alpha_star,
                                   concave_bound=None, xi_form=xi_m.form)

    gl = growth.gamma_lower
    concave_bound = (1.0 - p.q / 2.0 * gl) / (1.0 - gl) if gl < 1.0 else np.inf
    if econ.alpha < concave_bound:
        margin = float(np.min(econ.alpha * gl * xv - dh))
        if margin >= 0.0:
            branch = "ETOptimal" if terminal_n_min else "EsupOptimal"
            return Prop2Report(branch=branch,
                               alpha_margin=float(concave_bound - econ.alpha),
                               discount_margin=margin, alpha_star=alpha_star,
                               concave_bound=float(concave_bound), xi_form=xi_m.form)

    return Prop2Report(branch=None, alpha_margin=None, discount_margin=None,
                       alpha_star=alpha_star,
                       concave_bound=None if np.isinf(concave_bound) else float(concave_bound),
                       xi_form=xi_m.form)


# ---------------------------------------------------------------------------
# Coarse vectorized screening integrator for the enumeration.

_HOLD_CODE = -1.0


def _screen_candidates(scenario: Scenario, econ: EconomicModel, horizon: float,
                       codes: np.ndarray, k: int, steps_total: int = 1024):
    """Approximate objectives of every k-interval schedule over ``codes``.

    The schedules form a prefix tree: two that agree on their first j
    segments share their state through segment j.  The pass starts from one
    row, and at each segment start it repeats every row once per level and
    tiles the levels, so each shared prefix is stepped once and the leaves
    come out in ``itertools.product(codes, repeat=k)`` order.

    One fixed-step pass vectorized across rows, under the event rules
    of ``integrate``: free growth takes RK4 steps; an uncut row reaches the
    density ceiling at :meth:`Scenario.ceiling_time`; riders follow the arc
    relation (:meth:`Scenario.arc_count_after`) from the step's start or
    their crossing, up to the exact exhaustion time
    (:meth:`Scenario.arc_exhaustion_time`); a crossing at n_min is the exit
    corner.  A row crossing elsewhere under a positive rate dies; the
    ceiling time at its starting count only decides its corner test.
    Values are the by-parts objective, its integrand (shared with
    ``objective_ibp``) summed by the per-step trapezoid; it depends on the
    state alone and only kinks where the control jumps, so the ranking is
    second order in the step.  A row reaching the exit corner adds its
    trapezoid up to the exit time at the corner state, then freezes.  The
    rate clamp at n_min perturbs only the state, at second order; winners
    are re-integrated exactly.  Returns (values, feasible, n_end).
    """
    p = scenario.params
    env = scenario.env
    growth_rate, env_v = scenario.growth_rate, env.v
    A, q2, n_min, s_bar = p.A, p.q / 2.0, p.n_min, p.s_bar
    m, c = 1, len(codes)                    # rows: the prefixes stepped so far
    steps_per = max(1, int(np.ceil(steps_total / k)))
    h = horizon / (k * steps_per)

    s = np.full(m, scenario.initial.s)
    n = np.full(m, scenario.initial.n)
    on_arc = np.zeros(m, dtype=bool)
    dead = np.zeros(m, dtype=bool)
    done = np.zeros(m, dtype=bool)          # dead or exited: value frozen
    t_exit = np.empty(m)
    t = 0.0
    # The growth rate at each step end is the next step's first RK4 stage.
    dsdt = growth_rate(t, s, n)
    rate = _revenue_rate(econ, env, s, n, t, dsdt)
    value = np.full(m, price(econ, env, scenario.initial.s, t) * scenario.initial.n)

    for _seg in range(k):
        s, n, on_arc, dead, done, t_exit, dsdt, rate, value = (
            np.repeat(x, c) for x in (s, n, on_arc, dead, done, t_exit, dsdt, rate, value))
        m = s.size
        seg_levels = np.tile(codes, m // c)
        hold_mask = seg_levels == _HOLD_CODE
        on_arc &= hold_mask          # numeric segments leave the ceiling
        # Hold rows grow freely; ceiling riders' results are replaced below.
        e_level = np.where(hold_mask, 0.0, np.maximum(seg_levels, 0.0))
        for _ in range(steps_per):
            if done.all():
                break
            # Clamp the rate so the count cannot undershoot n_min in the step.
            e = np.minimum(e_level, np.maximum(n - n_min, 0.0) / h)
            n_mid, n_new = n - h / 2 * e, n - h * e
            k2 = growth_rate(t + h / 2, s + h / 2 * dsdt, n_mid)
            k3 = growth_rate(t + h / 2, s + h / 2 * k2, n_mid)
            k4 = growth_rate(t + h, s + h * k3, n_new)
            s_new = s + h / 6 * (dsdt + 2 * k2 + 2 * k3 + k4)

            exiting = np.zeros(m, dtype=bool)
            t_arc, n_arc = t, n              # where each rider's arc starts
            crossing = ~done & ~on_arc & (A * n_new * s_new ** q2 > 1.0)
            if crossing.any():
                idx = np.flatnonzero(crossing)
                t_c = np.clip(scenario.ceiling_time(t, s[idx], n[idx]), t, t + h)
                n_c = n[idx] - (t_c - t) * e[idx]
                at_corner = n_c <= n_min * (1.0 + EXIT_REL_TOL)
                rides = ~at_corner & hold_mask[idx]
                t_exit[idx[at_corner]] = t_c[at_corner]
                exiting[idx[at_corner]] = True
                dead[idx[~at_corner & ~rides]] = True
                if rides.any():
                    on_arc[idx[rides]] = True
                    t_arc, n_arc = np.full(m, t), n.copy()
                    t_arc[idx[rides]], n_arc[idx[rides]] = t_c[rides], n_c[rides]

            riding = on_arc & ~done
            if riding.any():
                n_end = scenario.arc_count_after(n_arc, env_v.integral(t_arc, t + h))
                ends = riding & (n_end < n_min)
                if ends.any():
                    t_from = t_arc[ends] if np.ndim(t_arc) else t_arc
                    t_exit[ends] = np.minimum(
                        scenario.arc_exhaustion_time(t_from, n_arc[ends]), t + h)
                    exiting |= ends
                n_new = np.where(riding, n_end, n_new)
                s_new = np.where(riding, p.ceiling_s(n_new), s_new)

            if exiting.any():
                te = t_exit[exiting]
                corner = _revenue_rate(econ, env, s_bar, n_min, te,
                                       growth_rate(te, s_bar, n_min))
                value[exiting] += 0.5 * (te - t) * (rate[exiting] + corner)
                s_new[exiting], n_new[exiting] = s_bar, n_min
            done |= dead               # rows breaking the ceiling keep their last state
            s = np.where(done, s, s_new)
            n = np.where(done, n, n_new)
            done |= exiting
            t += h
            dsdt = growth_rate(t, s, n)
            rate_new = _revenue_rate(econ, env, s, n, t, dsdt)
            value += np.where(done, 0.0, 0.5 * h * (rate + rate_new))
            rate = rate_new

    value[dead] = -np.inf
    return value, ~dead, n


def _levels_to_policy(levels_row: np.ndarray, horizon: float, k: int) -> Policy:
    bps = [horizon * (i + 1) / k for i in range(k - 1)]
    levels = [HOLD if code == _HOLD_CODE else float(code) for code in levels_row]
    # Merge equal adjacent levels so the integrator sees minimal spans.
    merged_b, merged_l = [], [levels[0]]
    for b, lv in zip(bps, levels[1:]):
        if lv == merged_l[-1]:
            continue
        merged_b.append(b)
        merged_l.append(lv)
    return Policy.piecewise(merged_b, merged_l)


@dataclass(frozen=True)
class SearchResult:
    best_policy: Policy
    best_value: float
    canonical_values: dict
    condition_report: Prop2Report
    gap: float                     # best minus best canonical value; 0 on a tie
    enumerated: int
    feasible: int

    def to_json_dict(self) -> dict:
        return {
            "best_policy": self.best_policy.describe(),
            "best_value": self.best_value,
            "canonical_values": self.canonical_values,
            "condition_report": self.condition_report.to_json_dict(),
            "gap": self.gap,
            "enumerated": self.enumerated,
            "feasible": self.feasible,
        }


def _cumulative_cut_key(traj, horizon: float) -> tuple:
    ts = np.linspace(0.0, min(horizon, traj.validity_end), 129)
    return tuple(np.round(-traj.interp_n(ts), 9))


def _covers(traj, horizon: float) -> bool:
    """Whether a run counts over the horizon: it exited at the corner, or it
    stayed valid up to the horizon."""
    return traj.exited or traj.validity_end >= horizon * (1.0 - 1e-12)


def _tie_tol(a: float, b: float) -> float:
    """Objective values within this of each other tie in the search."""
    return 1e-12 * max(1.0, abs(a), abs(b))


def canonical_policies(scenario: Scenario, horizon: float) -> dict[str, Policy]:
    """The five named policies entering every search, deduplicated by window."""
    p = scenario.params
    names = (("E0", "e0"), ("Esup", "esup"), ("Zero", "zero"), ("Max", "max"))
    out = {name: build_policy(scenario, kind) for name, kind in names}
    t0n = time_to_count(p, scenario.initial.n, p.n_min)
    t_exhaust = t_cap0(scenario)
    if t0n < horizon <= t_exhaust * (1.0 + EXHAUSTION_REL_TOL):
        out["ET"] = build_policy(scenario, "et", T=horizon)
    return out


def brute_force(scenario: Scenario, econ: EconomicModel, horizon: float,
                n_intervals: int = 8, levels: tuple = ("0", "max", "hold"),
                *, terminal_n_min: bool = False, fine_step: float | None = None,
                rescore_top: int = 8, candidates_csv=None) -> SearchResult:
    """Enumerate interval policies and return the revenue maximizer.

    ``levels`` entries are rates, ``"0"``/``"max"``/``"hold"``, or floats.
    Enumeration is capped at 10 intervals and at most 3^10 candidates
    (``MAX_CANDIDATES``), whatever the number of levels.  Candidates that
    would break the density ceiling are discarded; candidates that exhaust
    the stand early clear-cut at the exit corner.  With ``terminal_n_min``
    only schedules ending at n(T) = n_min compete.  The screening pass runs
    at roughly 1024 steps over the horizon; the best ``rescore_top``
    candidates and all canonical policies are re-integrated at ``fine_step``
    (default horizon/4096) before the final comparison.  A horizon that is
    not finite and positive, or exceeds the maximal exit time, is rejected
    before any candidate is screened.
    """
    p = scenario.params
    _require_admissible_horizon(scenario, horizon)
    if not 1 <= n_intervals <= 10:
        raise ValueError("n_intervals must lie in 1..10")
    codes = []
    for lv in levels:
        if lv == HOLD:
            codes.append(_HOLD_CODE)
        elif lv == "max":
            codes.append(p.e_max)
        else:
            try:
                val = float(lv)
            except (TypeError, ValueError):
                raise ValueError(f"level {lv!r} must be a rate in [0, e_max], "
                                 "'max' or 'hold'") from None
            if not 0.0 <= val <= p.e_max:
                raise ValueError(f"level {lv} outside [0, e_max]")
            codes.append(val)
    if not codes:
        raise ValueError("levels must name at least one level")
    codes = np.array(sorted(set(codes)))

    count = codes.size ** n_intervals
    if count > MAX_CANDIDATES:
        raise ValueError(f"{codes.size} levels over {n_intervals} intervals make "
                         f"{count} candidates; the cap is {MAX_CANDIDATES} (3^10)")

    values, feasible, n_end = _screen_candidates(
        scenario, econ, horizon, codes, n_intervals)
    if terminal_n_min:
        reaches = n_end <= p.n_min * (1.0 + 1e-6)
        values = np.where(reaches, values, -np.inf)
        feasible = feasible & reaches

    if candidates_csv is not None:
        with open(candidates_csv, "w") as fh:
            fh.write("candidate,levels,approx_value,feasible\n")
            for i, row in enumerate(itertools.product(codes, repeat=n_intervals)):
                lv = "|".join("hold" if c == _HOLD_CODE else f"{c:g}" for c in row)
                v = "" if not np.isfinite(values[i]) else f"{values[i]:.10g}"
                fh.write(f"{i},{lv},{v},{int(feasible[i])}\n")

    order = np.argsort(-values, kind="stable")
    top = [i for i in order[:max(rescore_top, 1)] if np.isfinite(values[i])]

    fine_step = fine_step if fine_step is not None else horizon / 4096
    refs = EnvelopeRefs.build(scenario, horizon, step=fine_step)
    contenders: list[tuple[str, Policy]] = []
    for i in top:
        row = codes[list(np.unravel_index(i, (codes.size,) * n_intervals))]
        contenders.append((f"cand{i}", _levels_to_policy(row, horizon, n_intervals)))
    canon = canonical_policies(scenario, horizon)
    # Each schedule is integrated once: a contender may repeat a canonical
    # policy (all-hold is Esup), and the references are E0 and Esup.
    fine_trajs = {(canon[name].breakpoints, canon[name].levels): traj
                  for name, traj in (("E0", refs.fast), ("Esup", refs.slow))}
    canonical_values: dict[str, float | None] = {name: None for name in CANONICAL_NAMES}

    best = None   # (value, cut_key, order_idx, name, policy)
    for idx, (name, policy) in enumerate(itertools.chain(
            canon.items(), contenders)):
        schedule = (policy.breakpoints, policy.levels)
        traj = fine_trajs.get(schedule)
        if traj is None:
            traj = fine_trajs[schedule] = integrate(scenario, policy, horizon, step=fine_step)
        if not _covers(traj, horizon) or (
                terminal_n_min and traj.n[-1] > p.n_min * (1.0 + 1e-6)):
            continue
        val = objective(scenario, econ, traj)
        if name in canonical_values:
            canonical_values[name] = val
        tie_tol = _tie_tol(val, 0.0 if best is None else best[0])
        if best is None or val > best[0] + tie_tol:
            best = (val, _cumulative_cut_key(traj, horizon), idx, name, policy)
        elif val >= best[0] - tie_tol:
            cut_key = _cumulative_cut_key(traj, horizon)
            if cut_key > best[1]:
                best = (val, cut_key, idx, name, policy)

    if best is None:
        raise NoFeasiblePolicy("no candidate satisfied the constraints")

    cond = check_prop2(scenario, econ, horizon, terminal_n_min=terminal_n_min,
                       xi_m=refs.xi_lower_bound())
    feasible_canon = [v for v in canonical_values.values() if v is not None]
    gap = float("nan")
    if feasible_canon:
        top = max(feasible_canon)
        # A tie with a canonical policy is no gain: report 0, not rounding noise.
        gap = 0.0 if abs(best[0] - top) <= _tie_tol(best[0], top) else best[0] - top
    return SearchResult(
        best_policy=best[4],
        best_value=float(best[0]),
        canonical_values=canonical_values,
        condition_report=cond,
        gap=float(gap),
        enumerated=int(values.size),
        feasible=int(np.count_nonzero(feasible)),
    )


@dataclass(frozen=True)
class CanonicalComparison:
    values: dict
    dominant: str | None
    cut_first_dominates: bool
    margins: dict


def compare_canonicals(scenario: Scenario, econ: EconomicModel, horizon: float,
                       step: float | None = None) -> CanonicalComparison:
    """Objective of each canonical policy; flags whether cut-first wins.

    Policies that cannot stay inside the constraints over the horizon are
    reported with value None.
    """
    values: dict[str, float | None] = {name: None for name in CANONICAL_NAMES}
    for name, policy in canonical_policies(scenario, horizon).items():
        traj = integrate(scenario, policy, horizon, step=step)
        if _covers(traj, horizon):
            values[name] = objective(scenario, econ, traj)
    feasible = {k: v for k, v in values.items() if v is not None}
    dominant = None
    if feasible:
        # Ties within 1e-9 relative resolve in the listed canonical order
        # (Max with the n_min clamp reproduces E0 exactly, for example).
        top = max(feasible.values())
        dominant = next(k for k, v in feasible.items()
                        if v >= top - 1e-9 * max(1.0, abs(top)))
    e0_val = values.get("E0")
    margins = {}
    if e0_val is not None:
        margins = {k: e0_val - v for k, v in feasible.items() if k != "E0"}
    return CanonicalComparison(
        values=values,
        dominant=dominant,
        cut_first_dominates=dominant == "E0",
        margins=margins,
    )

