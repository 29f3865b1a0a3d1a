"""The prefix-tree screen against the flat screen it replaced.

Both must return bit-identical (values, feasible, n_end): the tree only
changes which rows are stepped, not the arithmetic of any row.
"""

import itertools

import numpy as np
import pytest

import standgrowth as sg
from standgrowth.optimizer import _HOLD_CODE, _screen_candidates

from conftest import load
from flat_screen import flat_screen

SCENARIOS = ["concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
             "linear_growth.ini", "low_energy.ini"]


def _window_horizon(scn, u: float) -> float:
    p = scn.params
    t0n = sg.time_to_count(p, scn.initial.n, p.n_min)
    t_upper = sg.t_cap0(scn)
    t_upper = p.t_star if sg.is_unreachable(t_upper) else min(t_upper, p.t_star)
    return t0n + u * (t_upper - t0n)


def _assert_same_screen(loaded, horizon: float, codes: tuple, k: int) -> None:
    scn, econ = loaded.scenario, loaded.economics
    codes = np.array(codes)
    tree = _screen_candidates(scn, econ, horizon, codes, k)
    flat = flat_screen(scn, econ, horizon,
                       np.array(list(itertools.product(codes, repeat=k))))
    for got, want in zip(tree, flat):
        assert np.array_equal(got, want), (horizon, codes, k)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("u, k", [(0.1, 2), (0.5, 2), (0.9, 2), (0.5, 8)])
def test_tree_matches_flat_screen(name, u, k):
    loaded = load(name)
    e_max = loaded.scenario.params.e_max
    _assert_same_screen(loaded, _window_horizon(loaded.scenario, u),
                        (_HOLD_CODE, 0.0, e_max), k)


def test_tree_matches_flat_screen_with_four_levels(concave_price):
    e_max = concave_price.scenario.params.e_max
    _assert_same_screen(concave_price, _window_horizon(concave_price.scenario, 0.5),
                        (_HOLD_CODE, 0.0, e_max / 2, e_max), 4)
