"""The closed-form spans of ``integrate`` against the stepping integrator
they replaced (``reference_integrator.py``).

Both share the sample grid and the event rules; every span differs only
by the reference's RK4 error and rounding.  Times before the first
event are the same floats.  An event time comes from the state (a ceiling
hit, an exhaustion, n_min after an arc), so from there on the regridded
times carry that event's difference, which is held to the same relative
tolerance as s and n.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import standgrowth as sg
from conftest import load, scenarios
from reference_integrator import reference_integrate

SCENARIO_FILES = ("concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
                  "linear_growth.ini", "low_energy.ini")
RTOL = 1e-12


def policies(scenario, horizon, seed):
    rng = np.random.default_rng(seed)
    named = [sg.build_policy(scenario, kind) for kind in ("zero", "max", "e0", "esup")]
    try:
        # A target inside the horizon: at T = horizon the count reaches n_min
        # at the horizon itself, a tie between NMinHit and HorizonEnd that
        # the last bit of the count decides.
        named.append(sg.build_policy(scenario, "et", T=0.9 * horizon))
    except ValueError:      # no et policy reaches n_min exactly at this target
        pass
    return (named + sg.sample_policies(scenario, 6, rng, horizon)
            + sg.sample_policies(scenario, 4, rng, horizon, terminal=True))


def run_both(scenario, policy, horizon, step, reference_scenario=None, **resolution):
    """Both integrators at ``step``, checked for the same grid, events and
    span kinds; ``resolution`` is passed to the reference."""
    ref = reference_integrate(reference_scenario or scenario, policy, horizon, step,
                              **resolution)
    new = sg.integrate(scenario, policy, horizon, step)
    assert [ev.kind for ev in new.events] == [ev.kind for ev in ref.events]
    assert new.exited == ref.exited
    assert new.t.shape == ref.t.shape
    before = ref.t < ref.events[0].time
    assert np.array_equal(new.t[before], ref.t[before])
    assert np.array_equal(new.on_arc, ref.on_arc)
    assert [kind for kind, _, _ in new.spans] == [kind for kind, _, _ in ref.spans]
    return new, ref


def state_part(scenario, traj):
    """The control column with the ceiling-holding rate (q/2) V(t)/s on the
    arc samples divided by V(t): its part that depends on the state alone."""
    return np.where(traj.on_arc, traj.e / scenario.env.v(traj.t), traj.e)


def assert_values_agree(scenario, new, ref):
    np.testing.assert_allclose([ev.time for ev in new.events],
                               [ev.time for ev in ref.events], rtol=RTOL, atol=0.0)
    # Past an event the grid starts from its time, so t inherits its gap.
    # On the ceiling, e = (q/2) V(t)/s carries that relative gap times
    # -t V'/V (lambda t on an exponential V, above 3 at late times), so
    # there its state part (q/2)/s is held to the tolerance, as t is.
    for got, want in ((new.t, ref.t), (new.s, ref.s), (new.n, ref.n),
                      (state_part(scenario, new), state_part(scenario, ref))):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


class ArcsFromStart:
    """``scenario`` with the ceiling relation continued from the start of
    each arc.  The reference composes :meth:`Scenario.arc_count_after` step
    by step, so each step's rounding adds up (1/|1 - 2/q| amplifies it);
    here each step evaluates the relation once from the arc's start count,
    with the energy summed with compensation.  In exact arithmetic the two
    are the same relation."""

    def __init__(self, scenario):
        self._scenario = scenario
        self._arcs = {}     # count returned -> (arc start count, energy, its rounding)

    def __getattr__(self, name):
        return getattr(self._scenario, name)

    def arc_count_after(self, n, amount):
        start, total, lost = self._arcs.get(n, (n, 0.0, 0.0))
        new_total = total + amount      # Neumaier's compensated sum
        lost += (total - new_total) + amount if abs(total) >= abs(amount) \
            else (amount - new_total) + total
        n1 = self._scenario.arc_count_after(start, new_total + lost)
        self._arcs[n1] = (start, new_total, lost)
        return n1


def assert_matches_reference(scenario, policy, horizon):
    step = horizon / sg.dynamics.DEFAULT_STEPS
    new, ref = run_both(scenario, policy, horizon, step)
    try:
        assert_values_agree(scenario, new, ref)
    except AssertionError:
        # The reference itself can be off by more than RTOL.  Its RK4 error
        # adds up where the stand changes fast: under fast early growth,
        # and over fast cuts, which integrate solves exactly (a cut at
        # e_max can take a sparse stand to n_min in a handful of steps).
        # At a 4x finer step it falls 256-fold, and where the stand changes
        # by more than 0.1 % in a step the reference takes substeps.  A
        # finer grid alone would not do: over tens of thousands of steps
        # the reference's rounding adds up to 1e-12.  The rounding of its
        # step-by-step ceiling relation adds up over thousands of arc
        # steps; ArcsFromStart removes it.  CHANGES.md checks such draws
        # against the exact solution.
        new, ref = run_both(scenario, policy, horizon, step / 4, ArcsFromStart(scenario),
                            free_resolution=1e-3, cut_resolution=1e-3)
        assert_values_agree(scenario, new, ref)


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_bundled_scenarios(name):
    loaded = load(name)
    scenario = loaded.scenario
    for horizon in (loaded.run.horizon, scenario.params.t_star):
        for policy in policies(scenario, horizon, seed=17):
            assert_matches_reference(scenario, policy, horizon)


# The events of e0 up to t_star: NMinHit at its breakpoint, then the exit
# through the corner, or the horizon where the stand never reaches it.
E0_EVENTS = {
    "concave_price_power.ini": ["NMinHit", "ExitPoint"],
    "convex_price_power.ini": ["NMinHit", "ExitPoint"],
    "fagacees.ini": ["NMinHit", "ExitPoint"],
    "linear_growth.ini": ["NMinHit", "ExitPoint"],
    "low_energy.ini": ["NMinHit", "HorizonEnd"],
}


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_n_min_reached_at_a_breakpoint(name):
    """e0 cuts until t0_n, its breakpoint, where the closed-form count is
    n_min.  The same cut stopped 1.25e-12 earlier ends with its count above
    n_min but within SPENT_REL_TOL of it, and is spent at its breakpoint
    too.  Both runs record NMinHit at the breakpoint and then the events of
    ``E0_EVENTS`` (``run_both`` checks that the reference records the same
    kinds; ``test_bundled_scenarios`` runs e0 too, and compares values).  et waits until its breakpoint tb, then cuts at e_max; the
    count is n - e (t - tb) from the cut's start, so NMinHit falls at
    tb + (n - n_min)/e to the bit at any step."""
    loaded = load(name)
    scenario = loaded.scenario
    p = scenario.params
    e0 = sg.build_policy(scenario, "e0")
    rate = e0.levels[0]
    count = p.n_min * (1.0 + 0.5 * sg.dynamics.SPENT_REL_TOL)
    near = sg.Policy.piecewise([(scenario.initial.n - count) / rate], e0.levels)
    assert p.n_min < scenario.initial.n - near.breakpoints[0] * rate <= count * (1.0 + 1e-15)
    for policy in (e0, near):
        new, ref = run_both(scenario, policy, p.t_star, p.t_star / sg.dynamics.DEFAULT_STEPS)
        assert [ev.kind for ev in new.events] == E0_EVENTS[name]
        assert new.events[0].time == ref.events[0].time == policy.breakpoints[0]
        assert new.n[new.t == policy.breakpoints[0]] == p.n_min

    horizon = loaded.run.horizon
    et = sg.build_policy(scenario, "et", T=0.9 * horizon)
    (tb,), (_, rate) = et.breakpoints, et.levels
    for steps in (256, 1024, 4096, 32768):
        traj = sg.integrate(scenario, et, horizon, horizon / steps)
        (n_tb,) = traj.n[traj.t == tb]
        hits = [ev.time for ev in traj.events if ev.kind == "NMinHit"]
        assert hits == [tb + (n_tb - p.n_min) / rate], steps


# A draw whose arc control e differed by 1.76e-12 relative from the
# reference's, from t = 46 on, while its times differed by 5e-13.
LATE_ARC_DRAW = sg.Scenario(
    params=sg.StandParams(q=1.4762042300047575, A=0.026156803672090362, n_min=100.0,
                          e_max=171.62305703584335, t_star=150.0),
    growth=sg.GrowthFunction.power(0.25),
    env=sg.Environment(v=sg.GrowthEnergy("exponential", 2.875, 0.07421875),
                       h0=sg.DominantHeight(30.0, 20.0)),
    initial=sg.StandState(t=0.0, s=0.024729119936240874, n=110.00000000000001))


# A draw whose terminal policies put their last breakpoint 5e-15 before the
# horizon: integrate takes no step in that last segment, and the reference
# listed it as a span ("free", 4.999999999999995, 5.0).
with warnings.catch_warnings():
    warnings.simplefilter("ignore")     # lambda = 0 warns by design
    SHORT_LAST_SEGMENT_DRAW = sg.Scenario(
        params=sg.StandParams(q=1.5, A=0.015625, n_min=100.0, e_max=6.853166573936408,
                              t_star=150.0),
        growth=sg.GrowthFunction.power(0.0),
        env=sg.Environment(v=sg.GrowthEnergy("exponential", 1.0, 0.0),
                           h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=0.21887692117461713, n=100.00000000000003))


@given(scn=scenarios(), horizon=st.floats(5.0, 60.0), seed=st.integers(0, 2 ** 32 - 1))
@example(scn=LATE_ARC_DRAW, horizon=57.3623369829145, seed=1)
@example(scn=SHORT_LAST_SEGMENT_DRAW, horizon=5.0, seed=0)
@settings(max_examples=15, deadline=None)
def test_generated_scenarios(scn, horizon, seed):
    for policy in policies(scn, horizon, seed):
        assert_matches_reference(scn, policy, horizon)
