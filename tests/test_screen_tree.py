"""The screen against the flat screen it replaced.

``flat_screen`` steps every schedule with vectorized RK4 through every
segment; ``_screen_candidates`` shares prefixes and solves uncut and
ceiling-riding rows in closed form.  The two differ only by the flat
screen's RK4 error and rounding, so on the bundled scenarios they agree to
1e-12 relative, with the same feasibility, the same ties and the same
ranking; where a generated scenario leaves a larger gap, it must shrink at
a finer step as that RK4 error does.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import standgrowth as sg
from standgrowth import optimizer
from standgrowth.optimizer import _HOLD_CODE, _screen_candidates

from conftest import load, scenarios, window_horizon
from flat_screen import flat_screen

SCENARIOS = ["concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
             "linear_growth.ini", "low_energy.ini"]
RTOL = 1e-12
TOP = 8                     # the contenders brute_force re-scores by default


def _flat(scn, econ, horizon, codes, k, steps_total=1024):
    """``flat_screen`` called as ``_screen_candidates`` is."""
    matrix = np.array(list(itertools.product(codes, repeat=k)))
    return flat_screen(scn, econ, horizon, matrix, steps_total)


def _top(values):
    return np.argsort(-values, kind="stable")[:TOP]


def _rel_gap(got, want):
    """Relative gap of finite values (dead rows are -inf in both)."""
    finite = np.isfinite(want)
    gap = np.zeros(want.size)
    gap[finite] = np.abs(got[finite] - want[finite]) / np.abs(want[finite])
    return gap


def _assert_matches_flat(scn, econ, horizon: float, codes: tuple, k: int) -> None:
    codes = np.array(codes)
    values, feasible, n_end = _screen_candidates(scn, econ, horizon, codes, k)
    ref_values, ref_feasible, ref_n_end = _flat(scn, econ, horizon, codes, k)
    assert np.array_equal(feasible, ref_feasible)
    assert np.array_equal(np.isfinite(values), ref_feasible)
    assert np.all(_rel_gap(values, ref_values) <= RTOL)
    np.testing.assert_allclose(n_end, ref_n_end, rtol=RTOL, atol=0.0)
    # Schedules the flat screen scores bit-equal stay tied.
    _, group = np.unique(ref_values, return_inverse=True)
    for g in np.flatnonzero(np.bincount(group) > 1):
        assert np.unique(values[group == g]).size == 1, ref_values[group == g][0]
    assert np.array_equal(_top(values), _top(ref_values))


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("u, k", [(0.1, 2), (0.5, 2), (0.9, 2), (0.5, 8)])
def test_tree_matches_flat_screen(name, u, k):
    loaded = load(name)
    e_max = loaded.scenario.params.e_max
    _assert_matches_flat(loaded.scenario, loaded.economics,
                         window_horizon(loaded.scenario, u), (_HOLD_CODE, 0.0, e_max), k)


def test_tree_matches_flat_screen_with_four_levels(concave_price):
    e_max = concave_price.scenario.params.e_max
    _assert_matches_flat(concave_price.scenario, concave_price.economics,
                         window_horizon(concave_price.scenario, 0.5),
                         (_HOLD_CODE, 0.0, e_max / 2, e_max), 4)


def test_tree_matches_flat_screen_through_arc_exits(concave_price):
    """Rides down the ceiling to n_min, which the window cases above do not
    reach: cutting for H/8 and then holding exits at 28.23 of H = 29."""
    e_max = concave_price.scenario.params.e_max
    _assert_matches_flat(concave_price.scenario, concave_price.economics, 29.0,
                         (_HOLD_CODE, e_max), 8)


@given(scn=scenarios(), horizon=st.floats(5.0, 60.0), k=st.sampled_from([2, 4]))
@settings(max_examples=30, deadline=None)
def test_generated_scenarios_match_flat_screen(scn, horizon, k):
    """Same feasibility and ranking up to ties; a gap above 1e-12 is the flat
    screen's RK4 error, so it shrinks at least 16x at a 4x finer step, down
    to the rounding that the flat screen's 4096 sequential steps may
    accumulate: each rounds the basal area by about 2**-53 relative, and a
    rider's count by 2**-53 / |1 - 2/q|, as the arc relation raises to the
    power 1/(1 - 2/q).  One drawn rider's gap went 1.1e-12, 3.3e-13,
    5.7e-13, 1.2e-12 and 3.1e-12 at 1024 to 16384 steps (q = 1.25): past
    2048 steps it grows with the step count."""
    econ = sg.EconomicModel(k=1.0, alpha=2.0, delta=0.01)
    codes = np.array((_HOLD_CODE, 0.0, scn.params.e_max))
    values, feasible, _ = _screen_candidates(scn, econ, horizon, codes, k)
    ref_values, ref_feasible, _ = _flat(scn, econ, horizon, codes, k)
    assert np.array_equal(feasible, ref_feasible)
    # The same ranking, but candidates whose flat values tie to 1e-12 may
    # trade places: their order there is rounding.  One draw starts 3e-14
    # trees above n_min; the flat screen ranks the schedules that cut them
    # first by one ulp, while both screens give all nine schedules the same
    # value to 2e-16.
    ranked, want = ref_values[_top(values)], ref_values[_top(ref_values)]
    assert np.array_equal(np.isfinite(ranked), np.isfinite(want))
    assert np.all(_rel_gap(ranked, want) <= RTOL)
    gap = _rel_gap(values, ref_values)
    wide = gap > RTOL
    if wide.any():
        fine = _screen_candidates(scn, econ, horizon, codes, k, steps_total=4096)[0]
        ref_fine = _flat(scn, econ, horizon, codes, k, steps_total=4096)[0]
        floor = 4096 * 2.0 ** -53 * (1.0 + 1.0 / abs(1.0 - 2.0 / scn.params.q))
        assert np.all(_rel_gap(fine[wide], ref_fine[wide]) <= gap[wide] / 16.0 + floor)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("k", [5, 8])
def test_search_result_unchanged_by_flat_screen(monkeypatch, name, k):
    """brute_force picks the same schedule, values and counts whichever
    screen ranks its candidates."""
    loaded = load(name)
    scn, econ = loaded.scenario, loaded.economics
    for u in (0.1, 0.5, 0.9):
        horizon = window_horizon(scn, u)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_screen_candidates", _flat)
            want = sg.brute_force(scn, econ, horizon, n_intervals=k).to_json_dict()
        got = sg.brute_force(scn, econ, horizon, n_intervals=k).to_json_dict()
        assert got == want, (u, horizon)
