"""The flat screen that the prefix-tree ``_screen_candidates`` replaced.

Kept as the reference for the differential test (``test_screen_tree.py``):
it steps every row of a full (3^k, k) level matrix over every segment, so it
is slow but plainly in enumeration order.  Its body is the screen as it stood
before prefix sharing.
"""

import numpy as np

from standgrowth.dynamics import EXIT_REL_TOL
from standgrowth.economics import (EconomicModel, _revenue_rate_from,
                                   _revenue_time_factors, price)
from standgrowth.model import Scenario
from standgrowth.optimizer import _HOLD_CODE


def _rk4(growth_rate, t, s, n, e, h, k1):
    """s after one RK4 step of length ``h`` at the rate ``e`` from (t, s, n),
    whose first stage ``k1`` is given."""
    n_mid, n_new = n - h / 2 * e, n - h * e
    k2 = growth_rate(t + h / 2, s + h / 2 * k1, n_mid)
    k3 = growth_rate(t + h / 2, s + h / 2 * k2, n_mid)
    k4 = growth_rate(t + h, s + h * k3, n_new)
    return s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def flat_screen(scenario: Scenario, econ: EconomicModel, horizon: float,
                levels_matrix: np.ndarray, steps_total: int = 1024, substeps: int = 1):
    """Approximate objectives for a batch of interval-coded policies.

    One fixed-step pass vectorized across candidates, under the event rules
    of ``integrate``: growth off the ceiling takes RK4 steps, each step
    split into ``substeps`` equal RK4 steps at its rate; an uncut row
    reaches the density ceiling at :meth:`Scenario.ceiling_time`; riders
    follow the arc relation (:meth:`Scenario.arc_count_after`) from the
    step's start or their crossing, up to the exact exhaustion time
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
    m, k = levels_matrix.shape
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
    rate = _revenue_rate_from(econ, _revenue_time_factors(econ, env, t), s, n, dsdt)
    value = np.full(m, price(econ, env, scenario.initial.s, t) * scenario.initial.n)

    for seg in range(k):
        seg_levels = levels_matrix[:, seg]
        hold_mask = seg_levels == _HOLD_CODE
        on_arc &= hold_mask          # numeric segments leave the ceiling
        # Hold rows grow freely; ceiling riders' results are replaced below.
        e_level = np.where(hold_mask, 0.0, np.maximum(seg_levels, 0.0))
        for _ in range(steps_per):
            if done.all():
                break
            # Clamp the rate so the count cannot undershoot n_min in the step.
            e = np.minimum(e_level, np.maximum(n - n_min, 0.0) / h)
            hs = h / substeps
            s_new = _rk4(growth_rate, t, s, n, e, hs, dsdt)
            for i in range(1, substeps):
                t_i, n_i = t + i * hs, n - i * hs * e
                s_new = _rk4(growth_rate, t_i, s_new, n_i, e, hs, growth_rate(t_i, s_new, n_i))
            n_new = n - h * e

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
                corner = _revenue_rate_from(econ, _revenue_time_factors(econ, env, te),
                                            s_bar, n_min, growth_rate(te, s_bar, n_min))
                value[exiting] += 0.5 * (te - t) * (rate[exiting] + corner)
                s_new[exiting], n_new[exiting] = s_bar, n_min
            done |= dead               # rows breaking the ceiling keep their last state
            s = np.where(done, s, s_new)
            n = np.where(done, n, n_new)
            done |= exiting
            t += h
            dsdt = growth_rate(t, s, n)
            rate_new = _revenue_rate_from(econ, _revenue_time_factors(econ, env, t), s, n, dsdt)
            value += np.where(done, 0.0, 0.5 * h * (rate + rate_new))
            rate = rate_new

    value[dead] = -np.inf
    return value, ~dead, n
