"""The screen against the screens it replaced.

``flat_screen`` steps every schedule with vectorized RK4 through every
segment; ``_screen_candidates`` shares prefixes and solves uncut and
ceiling-riding rows in closed form.  Both follow the same event rules and
sum each piece by Gregory's rule, so they differ only by the flat screen's
RK4 error and rounding: on the bundled scenarios, on the same grid of
``STEPS`` steps, they agree to 1e-12 relative, with the same feasibility,
the same ties and the same ranking; where a generated scenario leaves a
larger gap, it must shrink at a finer step as that RK4 error does.

``unmerged_screen`` is the prefix tree with one row per prefix.  The screen
merges rows whose states are bit-equal and advances the same per-row
arithmetic, so the two agree bit for bit.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import standgrowth as sg
from standgrowth import optimizer
from standgrowth.optimizer import _HOLD_CODE, _screen_candidates

from conftest import load, scenarios, window_horizon
from flat_screen import flat_screen
from reference_integrator import reference_integrate
from unmerged_screen import unmerged_screen

SCENARIOS = ["concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
             "linear_growth.ini", "low_energy.ini"]
RTOL = 1e-12
TOP = 8                     # the contenders brute_force re-scores by default
# Both screens' grid in the flat comparisons: the flat screen's RK4 error at
# the screen's default grid is above RTOL.
STEPS = 1024


def _flat(scn, econ, horizon, codes, k, substeps=1):
    """``flat_screen`` called as ``_screen_candidates`` is, on ``STEPS``."""
    matrix = np.array(list(itertools.product(codes, repeat=k)))
    return flat_screen(scn, econ, horizon, matrix, steps_total=STEPS, substeps=substeps)


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
    values, feasible, n_end = _screen_candidates(scn, econ, horizon, codes, k, STEPS)
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


def _corner_stand(scn):
    """``scn`` started just inside the exit corner, 1e-8 above n_min and
    1e-9 below the ceiling, where each positive level's cut row crosses the
    ceiling within ``EXIT_REL_TOL`` of n_min in its first step and exits at
    the corner."""
    n0 = scn.params.n_min * (1.0 + 1e-8)
    return dataclasses.replace(
        scn, initial=sg.StandState(0.0, float(scn.params.ceiling_s(n0)) * (1.0 - 1e-9), n0))


def test_tree_matches_flat_screen_with_four_levels(concave_price):
    e_max = concave_price.scenario.params.e_max
    _assert_matches_flat(concave_price.scenario, concave_price.economics,
                         window_horizon(concave_price.scenario, 0.5),
                         (_HOLD_CODE, 0.0, e_max / 2, e_max), 4)
    # e_max/100 cuts into the ceiling: at H = 30, 8 of the screen's cut rows
    # cross it above n_min and die there.
    _assert_matches_flat(concave_price.scenario, concave_price.economics, 30.0,
                         (_HOLD_CODE, 0.0, e_max / 100), 5)
    _assert_matches_flat(_corner_stand(concave_price.scenario), concave_price.economics, 5.0,
                         (_HOLD_CODE, 0.0, e_max / 100, e_max), 3)


def test_tree_matches_flat_screen_through_arc_exits(concave_price):
    """Rides down the ceiling to n_min, which the window cases above do not
    reach: cutting for H/8 and then holding exits at 28.23 of H = 29."""
    e_max = concave_price.scenario.params.e_max
    _assert_matches_flat(concave_price.scenario, concave_price.economics, 29.0,
                         (_HOLD_CODE, e_max), 8)


def _fast_cut_stand():
    """A fagacees stand that e_max thins by a third of n_min per step of
    1024 over H = 44, so that its cuts reach n_min well inside a step,
    where both screens split that step.  The flat screen's RK4 error is
    large here: the widest gap is 3.1e-9, and it shrinks 253x when each RK4
    step is split in four."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy("exponential", 2.5, 0.0)
    return sg.Scenario(
        params=sg.StandParams(q=1.25, A=0.015625, n_min=100.0, e_max=808.4353485124308,
                              t_star=150.0),
        growth=sg.GrowthFunction.fagacees(1.0),
        env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=0.0057982373094215625, n=200.0))


@given(scn=scenarios(), horizon=st.floats(5.0, 60.0), k=st.sampled_from([2, 4]))
@example(scn=_fast_cut_stand(), horizon=44.0, k=4)
@settings(max_examples=30, deadline=None)
def test_generated_scenarios_match_flat_screen(scn, horizon, k):
    """Same feasibility and ranking up to ties; a gap above 1e-12 is the flat
    screen's RK4 error, so on the same grid it shrinks at least 16x when
    each RK4 step is split in four, down to the rounding that 4096
    sequential RK4 steps may accumulate: each rounds the basal area by
    about 2**-53 relative, and a rider's count by 2**-53 / |1 - 2/q|, as
    the arc relation raises to the power 1/(1 - 2/q).  The grid stays
    fixed because a finer grid also changes both screens' sums and the cut
    crossings they locate from a step start; the gaps of
    :func:`_fast_cut_stand` shrink at least 240x this way."""
    econ = sg.EconomicModel(k=1.0, alpha=2.0, delta=0.01)
    codes = np.array((_HOLD_CODE, 0.0, scn.params.e_max))
    values, feasible, _ = _screen_candidates(scn, econ, horizon, codes, k, STEPS)
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
        ref_fine = _flat(scn, econ, horizon, codes, k, substeps=4)[0]
        floor = 4096 * 2.0 ** -53 * (1.0 + 1.0 / abs(1.0 - 2.0 / scn.params.q))
        assert np.all(_rel_gap(values[wide], ref_fine[wide]) <= gap[wide] / 16.0 + floor)


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


def _assert_matches_unmerged(scn, econ, horizon: float, codes: tuple, k: int) -> None:
    codes = np.array(codes)
    got = _screen_candidates(scn, econ, horizon, codes, k)
    want = unmerged_screen(scn, econ, horizon, codes, k)
    for name, a, b in zip(("values", "feasible", "n_end"), got, want):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("k", [2, 5, 8])
def test_merged_rows_match_unmerged_tree(name, k):
    loaded = load(name)
    e_max = loaded.scenario.params.e_max
    for u in (0.1, 0.5, 0.9):
        _assert_matches_unmerged(loaded.scenario, loaded.economics,
                                 window_horizon(loaded.scenario, u), (_HOLD_CODE, 0.0, e_max), k)


def test_merged_rows_match_unmerged_tree_with_four_levels_and_arc_exits(concave_price):
    scn, econ = concave_price.scenario, concave_price.economics
    e_max = scn.params.e_max
    _assert_matches_unmerged(scn, econ, window_horizon(scn, 0.5),
                             (_HOLD_CODE, 0.0, e_max / 2, e_max), 4)
    _assert_matches_unmerged(scn, econ, 29.0, (_HOLD_CODE, e_max), 8)
    _assert_matches_unmerged(scn, econ, 30.0, (_HOLD_CODE, 0.0, e_max / 100), 5)
    _assert_matches_unmerged(_corner_stand(scn), econ, 5.0,
                             (_HOLD_CODE, 0.0, e_max / 100, e_max), 3)


def _spent_stand():
    """A fagacees stand started at n_min, so that all 243 schedules of k = 5
    grow uncut to the exit corner and share one value.  Gregory's end
    corrections summed by a matrix product rounded differently with the
    number of rows, and so broke the bit-for-bit match here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy("exponential", 2.614224817439556, 0.0)
    return sg.Scenario(
        params=sg.StandParams(q=1.9, A=0.01, n_min=100.0, e_max=9.86974146655062,
                              t_star=150.0),
        growth=sg.GrowthFunction.fagacees(2.614224817439556),
        env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=0.5032580812748568, n=100.0))


@given(scn=scenarios(), horizon=st.floats(5.0, 60.0), k=st.sampled_from([2, 5]))
@example(scn=_spent_stand(), horizon=5.0, k=5)
@settings(max_examples=30, deadline=None)
def test_generated_scenarios_match_unmerged_tree(scn, horizon, k):
    econ = sg.EconomicModel(k=1.0, alpha=2.0, delta=0.01)
    _assert_matches_unmerged(scn, econ, horizon, (_HOLD_CODE, 0.0, scn.params.e_max), k)


def test_merge_groups_rows_as_unique_rows():
    """``_Rows.unique`` (one lexsort over the keys) against the
    ``np.unique(axis=0)`` grouping it replaced: the same partition of the
    rows, each group kept as its first row, on keys with duplicates, both
    signed zeros and every combination of the three flags."""
    rng = np.random.default_rng(7)
    size = 400
    pool = np.array([0.0, -0.0, 1.5, 2.0 ** -1074, 3.0])

    def column():
        return pool[rng.integers(0, pool.size, size)]

    flags = rng.integers(0, 8, size)
    rows = optimizer._Rows(s=column(), n=column(), rate=column(), value=column(),
                           on_arc=flags & 1 > 0, dead=flags & 2 > 0, done=flags & 4 > 0)
    key = np.stack([rows.s.view(np.uint64), rows.n.view(np.uint64),
                    rows.rate.view(np.uint64), rows.value.view(np.uint64),
                    rows.on_arc, rows.dead, rows.done], axis=1, dtype=np.uint64)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    assert np.unique(key[:, 4:], axis=0).shape[0] == 8
    assert first.size < size

    merged, group = rows.unique()
    assert merged.s.size == first.size
    # The same partition: two rows share a state in one iff in the other.
    pairs = np.unique(np.stack([group, inverse.reshape(-1)], axis=1), axis=0)
    assert pairs.shape[0] == first.size
    # Each state is its group's first row, bit for bit.
    assert np.array_equal(np.sort(np.unique(group, return_index=True)[1]), np.sort(first))
    back = merged.take(group)
    for f in dataclasses.fields(rows):
        want, got = getattr(rows, f.name), getattr(back, f.name)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), f.name


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_state_and_level_advanced_once(monkeypatch, name):
    """No two rows entering a segment share a bit-equal state and a level,
    and far fewer rows than prefixes are advanced."""
    loaded = load(name)
    scn = loaded.scenario
    codes = np.array((_HOLD_CODE, 0.0, scn.params.e_max))
    k = 8
    advance = optimizer._Segment.advance
    entering = []

    def spy(segment, levels):
        rows = segment.rows
        entering.append(np.stack([rows.s.view(np.uint64), rows.n.view(np.uint64),
                                  rows.rate.view(np.uint64), rows.value.view(np.uint64),
                                  rows.on_arc, rows.dead, rows.done, levels.view(np.uint64)],
                                 axis=1, dtype=np.uint64))
        advance(segment, levels)

    monkeypatch.setattr(optimizer._Segment, "advance", spy)
    _screen_candidates(scn, loaded.economics, window_horizon(scn, 0.5), codes, k)
    assert len(entering) == k
    for key in entering:
        assert np.unique(key, axis=0).shape[0] == key.shape[0]
    assert sum(key.shape[0] for key in entering) < codes.size ** k / 10


@pytest.mark.parametrize("name", SCENARIOS)
def test_constant_schedule_independent_of_its_batch(name):
    """Each row is spent at n_min on its own, so a constant schedule
    gets the same value and final count screened alone as among every
    schedule over (hold, 0, e_max)."""
    loaded = load(name)
    scn, econ = loaded.scenario, loaded.economics
    codes = np.array((_HOLD_CODE, 0.0, scn.params.e_max))
    k = 5
    for u in (0.1, 0.9):
        horizon = window_horizon(scn, u)
        values, _, n_end = _screen_candidates(scn, econ, horizon, codes, k)
        for i, code in enumerate(codes):
            leaf = np.ravel_multi_index((i,) * k, (codes.size,) * k)
            alone_values, _, alone_n_end = _screen_candidates(scn, econ, horizon,
                                                              codes[i:i + 1], k)
            assert alone_values[0] == values[leaf], (u, code)
            assert alone_n_end[0] == n_end[leaf], (u, code)


def test_row_independent_of_its_batch(concave_price):
    """A row whose count lands above n_min but within ``_spent_count`` of it
    at a grid time is spent there, at n_min, whether or not another row of
    its batch is spent in that step.  ``integrate`` and the reference, cut
    from the same state to a breakpoint at that grid time, both record
    NMinHit there, with n = n_min."""
    scn, econ = concave_price.scenario, concave_price.economics
    p = scn.params
    grid, _, h, root = optimizer._screen_start(scn, econ, 10.0, 1, 64)
    near = p.n_min + h * p.e_max * (1.0 + 1e-13)
    assert p.n_min < near - grid[1] * p.e_max <= sg.dynamics._spent_count(p)

    def advance(counts):
        rows = root.take(np.zeros(len(counts), dtype=np.intp))
        rows.n = np.array(counts)
        optimizer._Segment(scn, econ, grid, h, rows).advance(np.full(len(counts), p.e_max))
        return rows.take(np.zeros(1, dtype=np.intp))

    alone = advance([near])
    among = advance([near, p.n_min + 0.5 * h * p.e_max])
    for name in ("s", "n", "rate", "value"):
        assert getattr(alone, name).view(np.uint64) == getattr(among, name).view(np.uint64), name
    assert alone.n[0] == p.n_min

    start = dataclasses.replace(scn, initial=sg.StandState(0.0, float(root.s[0]), near))
    policy = sg.Policy.piecewise([grid[1]], [p.e_max, 0.0])
    for run in (sg.integrate, reference_integrate):
        traj = run(start, policy, 10.0, h)
        assert traj.events[0].kind == "NMinHit" and traj.events[0].time == grid[1], run
        assert traj.n[1] == p.n_min, run
