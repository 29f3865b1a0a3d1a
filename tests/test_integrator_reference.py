"""The closed-form spans of ``integrate`` against the stepping integrator
they replaced (``reference_integrator.py``).

Both share the sample grid and the event rules; every span differs only
by the reference's RK4 error and rounding.  Times before the first
event are the same floats.  An event time comes from the state (a ceiling
hit, an exhaustion, n_min after an arc), so from there on the regridded
times carry that event's difference, which is held to the same relative
tolerance as s and n.
"""

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


@pytest.mark.parametrize("name", ["concave_price_power.ini", "convex_price_power.ini",
                                  "linear_growth.ini"])
def test_n_min_reached_at_a_breakpoint(name):
    """e0 cuts until t0_n, its breakpoint, where the count reaches n_min to
    within rounding.  The span accumulates its count step by step, as the
    reference does, and records NMinHit at the breakpoint before the stand
    exits, as the reference does (``run_both`` compares the event kinds;
    ``test_bundled_scenarios`` runs this policy too, and compares values)."""
    scenario = load(name).scenario
    horizon = scenario.params.t_star
    policy = sg.build_policy(scenario, "e0")
    new, ref = run_both(scenario, policy, horizon, horizon / sg.dynamics.DEFAULT_STEPS)
    assert [ev.kind for ev in new.events] == ["NMinHit", "ExitPoint"]
    assert new.events[0].time == pytest.approx(policy.breakpoints[0], rel=1e-12, abs=0.0)


# A draw whose arc control e differed by 1.76e-12 relative from the
# reference's, from t = 46 on, while its times differed by 5e-13.
LATE_ARC_DRAW = sg.Scenario(
    params=sg.StandParams(q=1.4762042300047575, A=0.026156803672090362, n_min=100.0,
                          e_max=171.62305703584335, t_star=150.0),
    growth=sg.GrowthFunction.power(0.25),
    env=sg.Environment(v=sg.GrowthEnergy("exponential", 2.875, 0.07421875),
                       h0=sg.DominantHeight(30.0, 20.0)),
    initial=sg.StandState(t=0.0, s=0.024729119936240874, n=110.00000000000001))


@given(scn=scenarios(), horizon=st.floats(5.0, 60.0), seed=st.integers(0, 2 ** 32 - 1))
@example(scn=LATE_ARC_DRAW, horizon=57.3623369829145, seed=1)
@settings(max_examples=15, deadline=None)
def test_generated_scenarios(scn, horizon, seed):
    for policy in policies(scn, horizon, seed):
        assert_matches_reference(scn, policy, horizon)
