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
  A coarse pass on one fixed grid screens the candidates as a prefix tree
  that keeps one row per distinct state: prefixes whose states are
  bit-equal (rate 0 and ``hold`` below the ceiling, every level of a spent
  stand) share a row, so each state is advanced once, by its span kind,
  on blocks of rows, through the cut and arc spans and the ceiling decision
  of ``integrate`` (``dynamics._cut_rows``, ``_arc_rows`` and
  ``_on_ceiling``) and the closed form of uncut growth.
  It ranks them on the by-parts form of the objective, whose integrand
  n dP/dt depends on the state alone and is smooth between events: exact
  on an uncut piece, solved at its end alone, and fourth order in the step
  on the others.  Of the best few, each screened state is re-integrated
  once at a fine step, by its first contender in enumeration order,
  together with the canonical policies, and the exact objective decides.
  Max, which the n_min clamp makes E0, shares E0's run, and Zero, which
  grows as Esup does up to the ceiling, reads Esup's.  The E0 and Esup
  runs are the references of :func:`check_prop2`'s xi floor.

:func:`compare_canonicals` scores the canonical policies through the same
re-score, which integrates each distinct schedule once and gives no run to
a schedule whose ceiling ride needs a rate above e_max.
:meth:`CanonicalComparison.from_values` makes the same comparison from the
canonical values a search carries, without integrating again.

Ties are broken toward earlier cutting (lexicographically larger cumulative
harvest), then toward the run met first: the canonical policies, then the
contenders by screen rank, equal screen values in enumeration order.  So
results are deterministic, and since the candidates of one screened state
share one run, rounding between their runs decides no tie.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import EnvelopeRefs, XiLowerBound, b_star, xi_lower_bound
from .dynamics import (HOLD, InfeasibleBoundary, Policy, _arc_rows, _cut_rows,
                       _on_ceiling, _spent_count, integrate)
from .economics import (EconomicModel, _revenue_rate_from, _revenue_time_factors,
                        delta_h, objective, price, revenue_rate)
from .model import _CUT_CELLS, Scenario, StandParams
from .trajectories import EXHAUSTION_REL_TOL, build_policy, time_to_count

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
        return asdict(self)


# The report without a ceiling-riding reference: no floor, so no claim.
_NO_CLAIM = Prop2Report(branch=None, alpha_margin=None, discount_margin=None,
                        alpha_star=None, concave_bound=None, xi_form=None)


def _require_admissible_horizon(scenario: Scenario, horizon: float) -> None:
    """Reject a horizon that is not finite and positive or exceeds the maximal
    exit time t_cap0 (beyond it no admissible trajectory exists)."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive (got {horizon})")
    if horizon > scenario.t_cap0 * (1.0 + EXHAUSTION_REL_TOL):
        raise ValueError(f"horizon {horizon} exceeds the maximal exit time {scenario.t_cap0}")


def check_prop2(scenario: Scenario, econ: EconomicModel, horizon: float,
                *, terminal_n_min: bool = False) -> Prop2Report:
    """Evaluate the sufficient-optimality conditions on a time grid.

    Requires the horizon not to exceed the maximal exit time (beyond it no
    admissible trajectory exists).  Returns the first satisfied branch:
    convex-price cut-first optimality (power growth only), then concave-price
    ceiling-riding optimality (``ETOptimal`` instead when ``terminal_n_min``).
    The floor is read off the E0 and Esup references, integrated at the
    default step (horizon/4096); where riding the ceiling needs a rate above
    e_max there is no Esup reference, and the report makes no claim (every
    field None).
    """
    _require_admissible_horizon(scenario, horizon)
    try:
        xi_m = xi_lower_bound(scenario, horizon)
    except InfeasibleBoundary:
        return _NO_CLAIM
    return _prop2_report(scenario, econ, horizon, terminal_n_min, xi_m)


def _prop2_report(scenario: Scenario, econ: EconomicModel, horizon: float,
                  terminal_n_min: bool, xi_m: XiLowerBound) -> Prop2Report:
    """:func:`check_prop2` on an admissible horizon, with its floor ``xi_m``."""
    p = scenario.params
    growth = scenario.growth
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
# Screening of the enumeration: the prefix tree, one segment at a time.

_HOLD_CODE = -1.0
_GRID_CELLS = 1 << 15     # (rows x grid times) cells per block of a closed-form pass


def _reaches_n_min(p: StandParams, n):
    """Whether a final count ``n`` ends at n_min, for ``terminal_n_min``."""
    return n <= p.n_min * (1.0 + 1e-6)


def _screen_candidates(scenario: Scenario, econ: EconomicModel, horizon: float,
                       codes: np.ndarray, k: int, steps_total: int = 256):
    """Approximate objectives of every k-interval schedule over ``codes``.

    The schedules form a prefix tree: two that agree on their first j
    segments share their state through segment j.  The pass keeps one row
    per distinct state and a map from each prefix, in
    ``itertools.product(codes, repeat=j)`` order, to its row.  At each
    segment start a row gets one child per level, or one child alone where
    its level can no longer matter (a done row, or one spent off the
    ceiling); after the segment, rows whose states are bit-equal merge, as
    rate 0 and ``hold`` below the ceiling do, and every level of a spent
    stand.  So each distinct state is advanced once, and the leaves are read
    through the map.

    Every row is advanced, segment by segment, on one fixed grid of about
    ``steps_total`` steps by :class:`_Segment`, which sums the by-parts
    objective piece by piece; a row reaching the exit corner freezes there.
    Returns (values, feasible, n_end): -inf values for dead rows, and the
    count where each row stopped.
    """
    c = len(codes)
    grid, steps_per, h, rows = _screen_start(scenario, econ, horizon, k, steps_total)
    spent = _spent_count(scenario.params)
    leaf = np.zeros(1, dtype=np.intp)        # prefix -> its row
    for seg in range(k):
        # A done row, or one spent off the ceiling, advances alike under
        # every level: it gets one child, which every level's prefix maps to.
        spread = ~(rows.done | (~rows.on_arc & (rows.n <= spent)))
        width = np.where(spread, c, 1)
        first = width.cumsum() - width
        parent = np.repeat(np.arange(width.size), width)
        rows = rows.take(parent)
        leaf = (first[leaf, None] + spread[leaf, None] * np.arange(c)).ravel()
        times = grid[seg * steps_per:(seg + 1) * steps_per + 1]
        _Segment(scenario, econ, times, h, rows).advance(
            codes[np.arange(parent.size) - first[parent]])
        rows, merged = rows.unique()
        leaf = merged[leaf]
    value = np.where(rows.dead, -np.inf, rows.value)
    return value[leaf], ~rows.dead[leaf], rows.n[leaf]


def _screen_start(scenario: Scenario, econ: EconomicModel, horizon: float, k: int,
                  steps_total: int):
    """The screen's grid (times accumulated as ``t += h`` would), steps per
    segment, step, and the one row of the initial state."""
    steps_per = max(1, int(np.ceil(steps_total / k)))
    h = horizon / (k * steps_per)
    grid = np.cumsum(np.concatenate(([0.0], np.full(k * steps_per, h))))
    s0, n0 = scenario.initial.s, scenario.initial.n
    rows = _Rows(s=np.full(1, s0), n=np.full(1, n0),
                 rate=np.atleast_1d(revenue_rate(scenario, econ, s0, n0, 0.0)),
                 value=np.full(1, price(econ, scenario.env, s0, 0.0) * n0),
                 on_arc=np.zeros(1, dtype=bool), dead=np.zeros(1, dtype=bool),
                 done=np.zeros(1, dtype=bool))
    return grid, steps_per, h, rows


@dataclass
class _Rows:
    """State of every prefix: (s, n), by-parts integrand ``rate`` and
    accumulated ``value``; ``done`` rows (dead or exited) are frozen."""

    s: np.ndarray
    n: np.ndarray
    rate: np.ndarray
    value: np.ndarray
    on_arc: np.ndarray
    dead: np.ndarray
    done: np.ndarray

    def take(self, idx: np.ndarray) -> _Rows:
        """The rows ``idx``, in that order."""
        return _Rows(*(getattr(self, f.name)[idx] for f in fields(self)))

    def unique(self) -> tuple[_Rows, np.ndarray]:
        """One row per bit-equal state, its first in row order, and the index
        of each row's state among them.

        The keys are the bit patterns of ``s``, ``n``, ``rate`` and
        ``value`` and the three flags packed into one; one stable
        ``np.lexsort`` brings equal keys together, and each run of them is
        one state."""
        flags = (self.on_arc.view(np.uint8) | self.dead.view(np.uint8) << 1
                 | self.done.view(np.uint8) << 2)
        key = np.stack([flags, self.value.view(np.uint64), self.rate.view(np.uint64),
                        self.n.view(np.uint64), self.s.view(np.uint64)], dtype=np.uint64)
        order = np.lexsort(key)
        key = key[:, order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = first.cumsum() - 1
        return self.take(order[first]), inverse


class _Segment:
    """One segment of the screen on its grid times T[0..S].

    Each live row is advanced by the span kind of its state, under the
    span solutions and event rules of ``integrate``:

    * **cut**: a positive rate with n above n_min, by
      :func:`dynamics._cut_rows`.  A spent row leaves at its spent time as
      a free row; a row crossing the ceiling exits at the corner or dies;
    * **free**: rate 0, a ``hold`` level below the ceiling, or any level at
      n_min.  The row is solved at the end of its piece alone: the segment
      end, by :meth:`Scenario.uncut_s_after` from the row's start, or its
      :meth:`Scenario.ceiling_time`, placed on the ceiling, where a
      ``hold`` row starts its arc;
    * **arc**: a ``hold`` row on the ceiling, by :func:`dynamics._arc_rows`,
      up to the step in which the count runs out, where the row exits.

    A row reaching the ceiling meets ``integrate``'s junction decision,
    :func:`dynamics._on_ceiling`, in :meth:`_cross`.

    Each run of one kind is a piece, and each piece is summed on its own:
    its by-parts integrand is smooth inside it, and kinks only at its ends.
    A free piece keeps its count n, so it adds n [P(s, t)] between its
    ends, exactly; a cut or arc piece is summed by :meth:`_gregory`.  Each
    row's place is one time ``t0``: a free row ends its piece at the time
    of its change, with its state, ``rate`` and ``value`` there, and a cut
    or arc row writes them at the last grid time before its change, then
    moves them on to the time of the change by the trapezoid of that
    partial step (:meth:`_move`).  A cut or arc piece starts at the last
    grid time at or before its t0, because a cut row starts at T[0], and
    an arc at T[0] or at a free row's ceiling hit, never at a cut row's
    crossing: a cut level is never ``hold``.  The cut rows run first, then
    the free rows, then the arcs.  The time factors (V and those of the
    by-parts integrand) are taken once per grid time.
    """

    def __init__(self, scenario: Scenario, econ: EconomicModel, times: np.ndarray,
                 h: float, rows: _Rows) -> None:
        self.scenario, self.econ, self.T, self.h, self.rows = scenario, econ, times, h, rows
        self.S = times.size - 1
        self.V = scenario.env.v(times)
        self.factors = _revenue_time_factors(econ, scenario.env, times)
        self.t0 = np.full(rows.s.size, times[0])

    def advance(self, levels: np.ndarray) -> None:
        """Advance every live row across the segment under its level code.
        Cut rows leaving spent join ``free``, and rows reaching the ceiling
        to ride it join ``riding``."""
        rows, p = self.rows, self.scenario.params
        self.hold = levels == _HOLD_CODE
        rows.on_arc &= self.hold     # numeric segments leave the ceiling
        live = ~rows.done
        cut = live & ~rows.on_arc & (levels > 0.0) & (rows.n > _spent_count(p))
        self.free = live & ~rows.on_arc & ~cut
        self.riding = live & rows.on_arc
        for idx in self._blocks(cut, _CUT_CELLS):
            self._cut(idx, levels[idx])
        self._free(self.free.nonzero()[0])
        for idx in self._blocks(self.riding):
            self._arc(idx)

    def _blocks(self, mask: np.ndarray, per_time: int = 1):
        """The rows of ``mask`` in blocks of about ``_GRID_CELLS`` cells, with
        ``per_time`` cells per row and grid time."""
        idx = mask.nonzero()[0]
        size = max(1, _GRID_CELLS // ((self.S + 1) * per_time))
        return (idx[i:i + size] for i in range(0, idx.size, size))

    def _grid_rate(self, s, n, growth):
        """By-parts integrand on (rows x grid times) states whose growth per
        energy is ``growth``, over as many grid times as they have columns."""
        m = s.shape[1]
        return _revenue_rate_from(self.econ, tuple(f[:m] for f in self.factors), s, n,
                                  growth * self.V[:m])

    def _move(self, idx, t, s, n, rate) -> None:
        """Move the rows on from their last sample, at t0, to the state
        (s, n) at ``t``, with integrand ``rate`` there, adding the trapezoid
        of that partial step."""
        rows = self.rows
        rows.value[idx] += 0.5 * (t - self.t0[idx]) * (rows.rate[idx] + rate)
        rows.s[idx], rows.n[idx], rows.rate[idx] = s, n, rate
        self.t0[idx] = t

    def _exit(self, idx, te) -> None:
        """Rows reaching the corner at ``te`` move there, then freeze."""
        sc = self.scenario
        s_bar, n_min = sc.params.s_bar, sc.params.n_min
        self._move(idx, te, s_bar, n_min, revenue_rate(sc, self.econ, s_bar, n_min, te))
        self.rows.done[idx] = True

    def _cross(self, idx, t_c, n_c) -> None:
        """Rows crossing the ceiling at (t_c, n_c), their state written at
        the step start, under :func:`dynamics._on_ceiling`: the corner exits,
        a ride moves there and rides on, and the rest dies, keeping its last
        state, a ``hold`` row whose ride needs a rate above e_max among them."""
        s_c, _, corner, rides, _ = _on_ceiling(self.scenario, t_c, n_c, self.hold[idx])
        self._exit(idx[corner], t_c[corner])
        dies = idx[~corner & ~rides]
        self.rows.dead[dies] = self.rows.done[dies] = True
        idx, t_c, s_c, n_c = idx[rides], t_c[rides], s_c[rides], n_c[rides]
        self._move(idx, t_c, s_c, n_c, revenue_rate(self.scenario, self.econ, s_c, n_c, t_c))
        self.riding[idx] = True

    def _cut(self, idx, e) -> None:
        """Thinning of the rows ``idx`` from T[0] at the rates ``e``, by
        :func:`dynamics._cut_rows`, whose densities the integrand reuses, up
        to the step in which each crosses the ceiling (a cut level is never
        ``hold``, so :meth:`_cross` exits it at the corner or kills it) or
        to its spent time, where it leaves as a free row with the state of
        the same solve."""
        sc, rows, S, n_min = self.scenario, self.rows, self.S, self.scenario.params.n_min
        times, s, n, r, j_spent, j_cross, t_c, n_c = _cut_rows(
            sc, self.T, rows.s[idx], rows.n[idx], e)
        # The columns past the block's last spent time were not solved; no
        # piece reaches them.
        R = np.zeros((idx.size, S + 1))
        R[:, :s.shape[1]] = self._grid_rate(s, n, sc.growth.g(r) / n)
        crosses = j_cross <= S
        self._sum(idx, s, n, R, np.where(crosses, j_cross - 1, np.minimum(j_spent - 1, S)))
        i = (~crosses & (j_spent <= S)).nonzero()[0]       # the rows leaving spent
        if i.size:
            t_i, s_i = times[i, j_spent[i]], s[i, j_spent[i]]
            self._move(idx[i], t_i, s_i, n_min, revenue_rate(sc, self.econ, s_i, n_min, t_i))
            self.free[idx[i[t_i < self.T[S]]]] = True
        if crosses.any():
            self._cross(idx[crosses], t_c, n_c)

    def _free(self, idx) -> None:
        """Uncut growth of the rows ``idx`` from their start t0, solved at
        the end of the piece alone: the segment end, by
        :meth:`Scenario.uncut_s_after`, or the :meth:`Scenario.ceiling_time`
        hit, placed on the ceiling.  The count is fixed, so the piece's
        by-parts integral is n [P(s, t)] between its ends, exactly."""
        sc, econ, env, rows, T = self.scenario, self.econ, self.scenario.env, self.rows, self.T
        t0, s0, n0 = self.t0[idx], rows.s[idx], rows.n[idx]
        t_hit = sc.ceiling_time(t0, s0, n0)
        hits = t_hit <= T[-1]
        t = np.where(hits, t_hit, T[-1])
        s = sc.params.ceiling_s(n0)
        grows = ~hits
        s[grows] = sc.uncut_s_after(s0[grows], n0[grows], env.v.integral(t0[grows], T[-1]))
        rows.value[idx] += n0 * (price(econ, env, s, t) - price(econ, env, s0, t0))
        rows.s[idx], rows.rate[idx] = s, revenue_rate(sc, econ, s, n0, t)
        self.t0[idx] = t
        if hits.any():
            self._cross(idx[hits], t_hit[hits], n0[hits])

    def _arc(self, idx) -> None:
        """Rows ``idx`` riding the ceiling from (t0, n) by
        :func:`dynamics._arc_rows`, up to the step in which the count falls
        below n_min, where they exit."""
        sc, rows = self.scenario, self.rows
        n, jb, ends, t_exit = _arc_rows(sc, self.t0[idx], rows.n[idx], self.T)
        s = sc.params.ceiling_s(n)
        self._sum(idx, s, n, self._grid_rate(s, n, sc.growth_per_energy(s, n)), jb)
        rows.on_arc[idx[~ends]] = True
        if ends.any():
            self._exit(idx[ends], t_exit)

    def _sum(self, idx, s, n, R, jb) -> None:
        """Add to the rows' values their pieces from t0 to grid index ``jb``,
        by :meth:`_gregory` on the integrand ``R`` with the row's ``rate``
        at the piece's start, and write their state (s, n) and integrand at
        ``jb``, or at t0 where that lies after T[jb]."""
        rows, T, t0 = self.rows, self.T, self.t0[idx]
        ar = np.arange(idx.size)
        j0 = T.searchsorted(t0, side="right") - 1         # the grid time at or before t0
        R[ar, j0] = rows.rate[idx]
        rows.value[idx] = self._gregory(rows.value[idx], R, j0, t0, jb)
        rows.s[idx], rows.n[idx], rows.rate[idx] = s[ar, jb], n[ar, jb], R[ar, jb]
        self.t0[idx] = np.maximum(T[jb], t0)

    def _gregory(self, value, R, j0, t0, jb):
        """``value`` plus the integral of the rows' integrand ``R`` over their
        pieces, from t0 to grid index jb: the trapezoid over a first partial
        step, where t0 lies after T[j0], and Gregory's end-corrected
        trapezoid over the full steps after it (Davis & Rabinowitz, Methods
        of Numerical Integration, 2nd ed., 1984, section 2.9).  The
        correction takes the second differences at both ends of a piece of
        at least two full steps, so the rule is fourth order in the step;
        over two steps it is Simpson's rule."""
        T, h = self.T, self.h
        ar = np.arange(j0.size)
        a = j0 + (t0 > T[j0])           # the first full step's start
        J = np.arange(1, self.S + 1)
        full = (J > a[:, None]) & (J <= jb[:, None])
        value = value + h / 2 * np.where(full, R[:, :-1] + R[:, 1:], 0.0).sum(axis=1)
        part = (a > j0) & (jb >= a)
        if part.any():
            r, a0 = ar[part], a[part]
            value[part] += 0.5 * (T[a0] - t0[part]) * (R[r, j0[part]] + R[r, a0])
        ends = jb - a >= 2
        if ends.any():
            r, a, b = ar[ends], a[ends], jb[ends]
            value[ends] -= h / 24 * (3 * R[r, a] - 4 * R[r, a + 1] + R[r, a + 2]
                                     + 3 * R[r, b] - 4 * R[r, b - 1] + R[r, b - 2])
        return value


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


def _fine_runs(scenario: Scenario, econ: EconomicModel, horizon: float,
               policies: dict[str, Policy], *, step: float | None = None,
               terminal_n_min: bool = False) -> dict[str, tuple]:
    """Fine run and objective of each named policy: name -> (trajectory or
    None, value or None), in the order of ``policies``.

    Each distinct schedule is integrated once, and Max shares E0's run:
    with the n_min clamp, cutting at e_max throughout is E0's dynamics.
    Zero grows as Esup does up to Esup's first RdiHitOne: without one Zero
    has Esup's run, and where Zero's stop there would not cover the horizon
    it has no run; it runs alone only where Esup has no run, or the hit
    covers the horizon.  A schedule whose ceiling ride needs a rate above
    e_max has no run; a run has a value when it covers the horizon and,
    with ``terminal_n_min``, ends at n_min.
    """
    by_schedule = {}
    runs = {}
    for name, policy in policies.items():
        schedule = (policy.breakpoints, policy.levels)
        if name == "Max" and "E0" in runs:
            by_schedule[schedule] = runs["E0"]
        esup = runs["Esup"][0] if name == "Zero" and "Esup" in runs else None
        if esup is not None and schedule not in by_schedule:
            hit = next((ev.time for ev in esup.events if ev.kind == "RdiHitOne"), None)
            if hit is None or hit < horizon * (1.0 - 1e-12):
                by_schedule[schedule] = runs["Esup"] if hit is None else (None, None)
        if schedule not in by_schedule:
            try:
                traj = integrate(scenario, policy, horizon, step=step)
            except InfeasibleBoundary:
                traj = None
            counts = traj is not None and _covers(traj, horizon) and (
                not terminal_n_min or _reaches_n_min(scenario.params, traj.n[-1]))
            by_schedule[schedule] = (traj, objective(scenario, econ, traj) if counts else None)
        runs[name] = by_schedule[schedule]
    return runs


def _canonical_values(runs: dict[str, tuple]) -> dict[str, float | None]:
    """The values of the canonical policies among ``runs``, None where absent."""
    return {name: runs[name][1] if name in runs else None for name in CANONICAL_NAMES}


def canonical_policies(scenario: Scenario, horizon: float) -> dict[str, Policy]:
    """The five named policies entering every search, deduplicated by window,
    each by :func:`build_policy`; ET only where the horizon lies in
    (t0_n, t_cap0]."""
    p = scenario.params
    out = {"E0": build_policy(scenario, "e0"), "Esup": build_policy(scenario, "esup"),
           "Zero": build_policy(scenario, "zero"), "Max": build_policy(scenario, "max")}
    t0n = time_to_count(p, scenario.initial.n, p.n_min)
    if t0n < horizon <= scenario.t_cap0 * (1.0 + EXHAUSTION_REL_TOL):
        out["ET"] = build_policy(scenario, "et", horizon)
    return out


def _contenders(values: np.ndarray, n_end: np.ndarray, rescore_top: int) -> list[int]:
    """The candidates a search re-scores: of the ``rescore_top`` best finite
    screen values, in rank order (equal values in enumeration order), the
    first of each screened state.

    Candidates of one prefix-tree row share their screen ``(value, n_end)``
    bit for bit, and their runs differ only by rounding; a later one
    repeating an earlier one's pair is that row again, and is left out.
    """
    order = np.argsort(-values, kind="stable")
    states, out = set(), []
    for i in order[:rescore_top]:
        state = (float(values[i]), float(n_end[i]))
        if np.isfinite(state[0]) and state not in states:
            states.add(state)
            out.append(int(i))
    return out


def _pick_best(runs: dict[str, tuple], named: dict[str, Policy], horizon: float):
    """(value, policy) of the best run with a value, None without one.

    Runs within :func:`_tie_tol` tie; among them the lexicographically larger
    cumulative harvest wins, then the run met first in ``runs``.
    """
    best = None   # (value, cut_key, policy)
    for name, (traj, val) in runs.items():
        if val is None:
            continue
        tie_tol = _tie_tol(val, 0.0 if best is None else best[0])
        if best is None or val > best[0] + tie_tol:
            best = (val, _cumulative_cut_key(traj, horizon), named[name])
        elif val >= best[0] - tie_tol:
            cut_key = _cumulative_cut_key(traj, horizon)
            if cut_key > best[1]:
                best = (val, cut_key, named[name])
    return None if best is None else (best[0], best[2])


def brute_force(scenario: Scenario, econ: EconomicModel, horizon: float,
                n_intervals: int = 8, levels: tuple = ("0", "max", "hold"),
                *, terminal_n_min: bool = False, fine_step: float | None = None,
                rescore_top: int = 8, candidates_csv=None) -> SearchResult:
    """Enumerate interval policies and return the revenue maximizer.

    ``levels`` entries are rates, ``"0"``/``"max"``/``"hold"``, or floats.
    Enumeration is capped at 10 intervals and at most 3^10 candidates
    (``MAX_CANDIDATES``), whatever the number of levels.  Candidates that
    would break the density ceiling, or whose ride along it needs a rate
    above e_max, are discarded; candidates that exhaust the stand early
    clear-cut at the exit corner.  With ``terminal_n_min`` only schedules
    ending at n(T) = n_min compete.  The screening pass runs at roughly 256
    steps.  Of the best ``rescore_top`` candidates (a positive int), each
    screened state once, by its first contender in enumeration order, and
    all canonical policies are re-integrated at ``fine_step`` (default
    horizon/4096), each distinct schedule once, before the final comparison.
    The fine E0 and Esup runs are the references of ``condition_report``;
    where Esup has no run, the report makes no claim (every field None).  A
    horizon that is not finite and positive, or exceeds the maximal exit
    time, is rejected before any candidate is screened.
    """
    p = scenario.params
    _require_admissible_horizon(scenario, horizon)
    if not 1 <= n_intervals <= 10:
        raise ValueError("n_intervals must lie in 1..10")
    if isinstance(rescore_top, bool) or not isinstance(rescore_top, (int, np.integer)) \
            or rescore_top < 1:
        raise ValueError(f"rescore_top must be a positive integer (got {rescore_top!r})")
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
        reaches = _reaches_n_min(p, n_end)
        values = np.where(reaches, values, -np.inf)
        feasible = feasible & reaches

    if candidates_csv is not None:
        with open(candidates_csv, "w") as fh:
            fh.write("candidate,levels,approx_value,feasible\n")
            for i, row in enumerate(itertools.product(codes, repeat=n_intervals)):
                lv = "|".join("hold" if c == _HOLD_CODE else f"{c:g}" for c in row)
                v = "" if not np.isfinite(values[i]) else f"{values[i]:.10g}"
                fh.write(f"{i},{lv},{v},{int(feasible[i])}\n")

    # A contender may repeat a canonical policy (all-hold is Esup); it is
    # integrated once.
    named = canonical_policies(scenario, horizon)
    for i in _contenders(values, n_end, rescore_top):
        row = codes[list(np.unravel_index(i, (codes.size,) * n_intervals))]
        named[f"cand{i}"] = _levels_to_policy(row, horizon, n_intervals)
    runs = _fine_runs(scenario, econ, horizon, named, step=fine_step,
                      terminal_n_min=terminal_n_min)
    canonical_values = _canonical_values(runs)
    best = _pick_best(runs, named, horizon)
    if best is None:
        raise NoFeasiblePolicy("no candidate satisfied the constraints")

    # The fine E0 and Esup runs are the references; without a ceiling ride
    # there is no Esup run and no claim.
    fast, slow = runs["E0"][0], runs["Esup"][0]
    cond = _NO_CLAIM if slow is None else _prop2_report(
        scenario, econ, horizon, terminal_n_min,
        EnvelopeRefs(scenario, fast=fast, slow=slow).xi_lower_bound())
    feasible_canon = [v for v in canonical_values.values() if v is not None]
    gap = float("nan")
    if feasible_canon:
        top = max(feasible_canon)
        # A tie with a canonical policy is no gain: report 0, not rounding noise.
        gap = 0.0 if abs(best[0] - top) <= _tie_tol(best[0], top) else best[0] - top
    return SearchResult(
        best_policy=best[1],
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

    @classmethod
    def from_values(cls, values: dict) -> CanonicalComparison:
        """Compare canonical values (name -> value, None where infeasible),
        such as :func:`compare_canonicals` computes or a search's
        ``canonical_values`` carries."""
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
        return cls(
            values=values,
            dominant=dominant,
            cut_first_dominates=dominant == "E0",
            margins=margins,
        )


def compare_canonicals(scenario: Scenario, econ: EconomicModel,
                       horizon: float) -> CanonicalComparison:
    """Objective of each canonical policy, run at the search's default fine
    step (horizon/4096); flags whether cut-first wins.

    Policies that cannot stay inside the constraints over the horizon are
    reported with value None.
    """
    return CanonicalComparison.from_values(_canonical_values(
        _fine_runs(scenario, econ, horizon, canonical_policies(scenario, horizon))))
