"""The flat screen that the prefix-tree ``_screen_candidates`` replaced.

Kept as the reference for the differential test (``test_screen_tree.py``):
it steps every row of a full (3^k, k) level matrix over every segment, so it
is slow but plainly in enumeration order.  It takes RK4 steps where the
screen solves the dynamics in closed form or by collocation, but follows the
screen's event rules, locating a cut row's crossing by the screen's own
crossing code, and sums each piece by the same rules, n [P(s, t)]
between the ends of an uncut piece and Gregory's end-corrected trapezoid
over the others, so the two differ by the RK4 error and rounding.
"""

import numpy as np

from standgrowth.dynamics import EXIT_REL_TOL, _cut_crossings, _spent_count
from standgrowth.economics import EconomicModel, price, revenue_rate
from standgrowth.model import Scenario, boundary_control
from standgrowth.optimizer import _HOLD_CODE

# Weights of a piece's first three grid samples in its start correction.
_HEAD = np.array([3.0, -4.0, 1.0, 0.0])


def _rk4(growth_rate, t, s, n, e, h):
    """s after one RK4 step of length ``h`` at the rate ``e`` from (t, s, n)."""
    n_mid, n_new = n - h / 2 * e, n - h * e
    k1 = growth_rate(t, s, n)
    k2 = growth_rate(t + h / 2, s + h / 2 * k1, n_mid)
    k3 = growth_rate(t + h / 2, s + h / 2 * k2, n_mid)
    k4 = growth_rate(t + h, s + h * k3, n_new)
    return s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def flat_screen(scenario: Scenario, econ: EconomicModel, horizon: float,
                levels_matrix: np.ndarray, steps_total: int = 1024, substeps: int = 1):
    """Approximate objectives for a batch of interval-coded policies.

    One fixed-step pass vectorized across candidates, under the event rules
    of ``integrate``: growth off the ceiling takes RK4 steps, each split
    into ``substeps`` equal RK4 steps at its rate.  A cut row is spent at
    the exact time its count reaches n_min, or at the step end where the
    count there is at or below the spent count, and the step is split
    there; the row grows uncut for the rest of it.  An uncut row reaches
    the density ceiling at :meth:`Scenario.ceiling_time`, where the step is
    split: a ``hold`` row rides the ceiling from there by the arc relation
    (:meth:`Scenario.arc_count_after`), up to the exact exhaustion time
    (:meth:`Scenario.arc_exhaustion_time`), unless riding needs a rate
    above e_max.  A cut row crosses the ceiling where the screen's cut rows
    do, at the root that :func:`dynamics._cut_crossings` bisects along the
    cut from the step start.  A crossing at n_min is the exit corner; any
    other crossing kills the row.

    Values are the by-parts objective, its integrand (shared with
    ``objective_ibp``) summed over each piece: a run of one span kind within
    one segment, bounded by events and segment ends.  An uncut piece keeps
    its count n, so each of its steps adds n [P(s, t)] between the step's
    ends, and a ceiling hit ends it at the ceiling basal area of n.  On the
    other pieces a partial step, at either end of a piece, takes the
    trapezoid; the full steps take Gregory's end-corrected trapezoid where
    the piece has at least two.  A row reaching the exit corner freezes
    there.  Returns (values, feasible, n_end).
    """
    p = scenario.params
    env = scenario.env
    growth_rate = scenario.growth_rate
    A, q2, n_min, s_bar = p.A, p.q / 2.0, p.n_min, p.s_bar
    spent_count = _spent_count(p)
    m, k = levels_matrix.shape
    steps_per = max(1, int(np.ceil(steps_total / k)))
    h = horizon / (k * steps_per)

    def advance_s(t, s, n, e, length):
        """s after ``length`` at the rate ``e`` from (t, s, n)."""
        hs = length / substeps
        for i in range(substeps):
            s = _rk4(growth_rate, t + i * hs, s, n - i * hs * e, e, hs)
        return s

    s = np.full(m, scenario.initial.s)
    n = np.full(m, scenario.initial.n)
    on_arc = np.zeros(m, dtype=bool)
    dead = np.zeros(m, dtype=bool)
    done = np.zeros(m, dtype=bool)          # dead or exited: value frozen
    t = 0.0
    rate = np.full(m, revenue_rate(scenario, econ, scenario.initial.s, scenario.initial.n, t))
    value = np.full(m, price(econ, env, scenario.initial.s, t) * scenario.initial.n)
    # Per piece: its grid samples so far, its start correction, and its
    # last three grid samples' integrand, latest first.
    seen = np.zeros(m, dtype=np.intp)
    head = np.zeros(m)
    last = np.zeros((3, m))

    def grid_sample(R, rows):
        """The rows of the mask ``rows`` reach a grid time with integrand
        ``R`` (done rows may be among them: their pieces are never read
        again)."""
        head[rows] += (_HEAD[np.minimum(seen, 3)] * R)[rows]
        seen[rows] += 1
        last[:, rows] = np.stack((R, last[0], last[1]))[:, rows]

    def end_piece(idx):
        """The rows' pieces end at their last grid sample: Gregory's end
        corrections where a piece has at least two full steps."""
        ends = idx[seen[idx] >= 3]
        value[ends] -= h / 24 * (head[ends] + 3 * last[0, ends] - 4 * last[1, ends]
                                 + last[2, ends])
        seen[idx], head[idx] = 0, 0.0

    def move(idx, t_to, s_to, n_to):
        """The rows' partial step from their piece time to ``t_to``, where
        their piece ends and they take the state (s_to, n_to)."""
        R = revenue_rate(scenario, econ, s_to, n_to, t_to)
        value[idx] += 0.5 * (t_to - t_from[idx]) * (rate[idx] + R)
        end_piece(idx)
        s[idx], n[idx], rate[idx], t_from[idx], s_from[idx] = s_to, n_to, R, t_to, s_to

    def exit_at(idx, te):
        move(idx, te, s_bar, n_min)
        done[idx] = True

    def die(idx):
        dead[idx] = done[idx] = True

    def off_ceiling(rows, t0, e, t_end, n_end):
        """The rows of the mask ``rows`` grow from their state at ``t0`` up
        to ``t_end`` at the rates ``e``, to the counts ``n_end`` (values for
        every row, so that the steps run on whole arrays).  A row ending
        above the ceiling crosses it at the ceiling time from its start
        instead, or a cut row at its root from :func:`_cut_crossings`: at
        n_min it exits, a ``hold`` row rides from there, unless
        riding needs a rate above e_max, and any other row dies.  Returns
        which rows stayed below the ceiling."""
        s_end = advance_s(t0, s, n, e, t_end - t0)
        below = A * n_end * s_end ** q2 <= 1.0
        np.copyto(s, s_end, where=rows & below)
        np.copyto(n, n_end, where=rows & below)
        x = np.flatnonzero(rows & ~below)
        if not x.size:
            return below
        t0 = np.broadcast_to(t0, (m,))[x]
        t_c = np.clip(scenario.ceiling_time(t0, s[x], n[x]), t0, t_end[x])
        c = e[x] > 0.0
        t_c[c] = t0[c] + _cut_crossings(scenario, t0[c], s[x[c]], n[x[c]], e[x[c]],
                                        t_end[x[c]] - t0[c])
        # An uncut piece ends at the hit, on the ceiling.
        u = e[x] == 0.0
        xu, t_u, s_u = x[u], t_c[u], p.ceiling_s(n[x[u]])
        value[xu] += n[xu] * (price(econ, env, s_u, t_u)
                              - price(econ, env, s_from[xu], t_from[xu]))
        s[xu], s_from[xu], t_from[xu] = s_u, s_u, t_u
        at_corner = np.maximum(n[x] - (t_c - t0) * e[x], n_min) <= n_min * (1.0 + EXIT_REL_TOL)
        exit_at(x[at_corner], t_c[at_corner])
        rides = ~at_corner & hold[x]
        die(x[~at_corner & ~rides])
        r, t_r = x[rides], t_c[rides]
        s_r = p.ceiling_s(n[r])
        over = boundary_control(p, env, s_r, t_r) > p.e_max * (1.0 + 1e-9)
        die(r[over])
        move(r[~over], t_r[~over], s_r[~over], n[r[~over]])
        on_arc[r[~over]] = True
        return below

    for seg in range(k):
        seg_levels = levels_matrix[:, seg]
        hold = seg_levels == _HOLD_CODE
        on_arc &= hold          # numeric segments leave the ceiling
        e_level = np.where(hold, 0.0, np.maximum(seg_levels, 0.0))
        grid_sample(rate, ~done)        # every live row starts a piece
        for _ in range(steps_per):
            if done.all():
                break
            t1 = t + h
            t_from = np.full(m, t)      # where each row's current piece picks up
            s_from = s.copy()           # and the basal area there

            off = ~done & ~on_arc
            e = np.where(off & (n > spent_count), e_level, 0.0)
            n_end = n - h * e
            spent = (e > 0.0) & (n_end <= spent_count)
            t_end = np.full(m, t1)
            t_end[spent] = np.minimum(t + (n[spent] - n_min) / e[spent], t1)
            n_end[spent] = n_min
            left = spent & off_ceiling(off, t, e, t_end, n_end)
            if left.any():
                # The cut's piece ends where it is spent; the row grows uncut
                # for the rest of the step.
                i = np.flatnonzero(left)
                move(i, t_end[i], s[i], n_min)
                off_ceiling(left, t_end, np.zeros(m), np.full(m, t1), n)

            a = np.flatnonzero(~done & on_arc)
            if a.size:
                ta = t_from[a]
                n_end = scenario.arc_count_after(n[a], env.v.integral(ta, t1))
                ends = n_end < n_min
                if ends.any():
                    exit_at(a[ends], np.minimum(
                        scenario.arc_exhaustion_time(ta[ends], n[a[ends]]), t1))
                n[a[~ends]] = n_end[~ends]
                s[a[~ends]] = p.ceiling_s(n_end[~ends])

            live = ~done
            uncut = live & ~on_arc & ((e == 0.0) | left)
            R = revenue_rate(scenario, econ, s, n, t1)
            width = np.where(t_from > t, t1 - t_from, h)
            step = np.where(uncut, n * (price(econ, env, s, t1)
                                        - price(econ, env, s_from, t_from)),
                            0.5 * width * (rate + R))
            value[live] += step[live]
            rate[live] = R[live]
            grid_sample(R, ~uncut)
            t = t1
        end_piece(np.flatnonzero(~done))

    value[dead] = -np.inf
    return value, ~dead, n
