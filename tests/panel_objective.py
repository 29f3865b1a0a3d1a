"""The sample-panel objective pair that the span walk of ``economics`` replaced.

Kept as the reference for the differential test (``test_economics.py``).
It splits the composite Simpson sums at panel boundaries: the samples
nearest to 0, the span starts and the trajectory's end, as the integrator's
recorder listed them.  Sampled rates are right-continuous, so each panel's
closing rate is patched to the panel's own left limit.
"""

import numpy as np

from standgrowth.economics import _simpson, price, revenue_rate
from standgrowth.model import boundary_control


def panel_breaks(traj) -> tuple:
    """0, the span starts and the end time, sorted."""
    return tuple(sorted({0.0, traj.validity_end}.union(start for _, start, _ in traj.spans)))


def _panel_indices(t, breaks) -> list:
    """Sample indices nearest to the panel boundary times."""
    idx = {0, len(t) - 1}
    for b in breaks:
        idx.add(int(np.argmin(np.abs(t - b))))
    return sorted(idx)


def _piecewise_simpson(t, y, breaks) -> float:
    """Composite Simpson split at the given panel boundaries."""
    total = 0.0
    idx = _panel_indices(t, breaks)
    for a, b in zip(idx, idx[1:]):
        total += _simpson(y[a:b + 1], t[a:b + 1])
    return float(total)


def _left_rates(scenario, traj, a, b):
    """Control values on panel [t_a, t_b] with the panel's own left-limit at t_b."""
    e = traj.e[a:b + 1].copy()
    if traj.on_arc[a]:
        e[-1] = boundary_control(scenario.params, scenario.env, traj.s[b], traj.t[b])
    else:
        e[-1] = e[0]
    return e


def panel_objective(scenario, econ, traj) -> float:
    """Thinning integral by panels plus the final clear-cut value."""
    t, s = traj.t, traj.s
    pr = price(econ, scenario.env, s, t)
    total = 0.0
    idx = _panel_indices(t, panel_breaks(traj))
    for a, b in zip(idx, idx[1:]):
        e_panel = _left_rates(scenario, traj, a, b)
        total += _simpson(pr[a:b + 1] * e_panel, t[a:b + 1])
    total += float(pr[-1] * traj.n[-1])
    return float(total)


def panel_objective_ibp(scenario, econ, traj) -> float:
    """The by-parts objective by panels."""
    t = traj.t
    y = revenue_rate(scenario, econ, traj.s, traj.n, t)
    total = _piecewise_simpson(t, y, panel_breaks(traj))
    total += float(price(econ, scenario.env, traj.s[0], t[0]) * traj.n[0])
    return float(total)
