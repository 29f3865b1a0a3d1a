import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

import standgrowth as sg

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def load(name: str) -> sg.LoadedScenario:
    return sg.load_scenario(SCENARIO_DIR / name)


def window_horizon(scn, u: float) -> float:
    """The horizon a fraction ``u`` into the admissible window (t0_n, t_upper),
    with t_upper capped at t_star."""
    p = scn.params
    t0n = sg.time_to_count(p, scn.initial.n, p.n_min)
    t_upper = sg.t_cap0(scn)
    t_upper = p.t_star if sg.is_unreachable(t_upper) else min(t_upper, p.t_star)
    return t0n + u * (t_upper - t0n)


@pytest.fixture(scope="session")
def convex_price():
    """Power theta=0.3, alpha=6: cut-first optimal regime."""
    return load("convex_price_power.ini")


@pytest.fixture(scope="session")
def concave_price():
    """Power theta=0.5, alpha=1: ceiling-riding optimal regime."""
    return load("concave_price_power.ini")


@pytest.fixture(scope="session")
def linear_growth():
    return load("linear_growth.ini")


@pytest.fixture(scope="session")
def fagacees():
    return load("fagacees.ini")


@pytest.fixture(scope="session")
def low_energy():
    return load("low_energy.ini")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


_REFS_CACHE: dict = {}


def envelope_refs(scenario, horizon, step=None, with_terminal=False):
    """Session-cached reference trajectories (they are expensive to build)."""
    key = (id(scenario), horizon, step, with_terminal)
    if key not in _REFS_CACHE:
        _REFS_CACHE[key] = sg.EnvelopeRefs.build(scenario, horizon, step=step,
                                                 with_terminal=with_terminal)
    return _REFS_CACHE[key]


_XI_CACHE: dict = {}


def xi_bound(scenario, horizon, step=None):
    key = (id(scenario), horizon, step)
    if key not in _XI_CACHE:
        _XI_CACHE[key] = sg.xi_lower_bound(scenario, horizon, step=step)
    return _XI_CACHE[key]


@st.composite
def scenarios(draw):
    """Valid scenarios over all three growth variants and both energy
    families, lambda = 0 included, on the scale of the bundled ones.

    e_max exceeds the ceiling-holding rate (q/2) V(t)/s(t) at t = 0, which
    bounds it for all t because V never increases and s never decreases, so
    riding the ceiling is always feasible.
    """
    q = draw(st.floats(1.2, 1.9))
    A = draw(st.floats(0.01, 0.03))
    n_min = draw(st.floats(100.0, 200.0))
    n0 = n_min * draw(st.floats(1.0, 3.0))
    r0 = draw(st.floats(0.1, 0.9))
    s0 = (r0 / (A * n0)) ** (2.0 / q)
    v0 = draw(st.floats(0.5, 4.0))
    e_max = draw(st.floats(1.5, 4.0)) * q / 2.0 * v0 / s0
    growth = draw(st.one_of(
        st.builds(sg.GrowthFunction.power, st.floats(0.0, 0.9)),
        st.builds(sg.GrowthFunction.fagacees, st.floats(0.2, 10.0)),
        st.just(sg.GrowthFunction.linear())))
    family = draw(st.sampled_from(["exponential", "hyperbolic"]))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.005, 0.08)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy(family, v0, lam)
    return sg.Scenario(
        params=sg.StandParams(q=q, A=A, n_min=n_min, e_max=e_max, t_star=150.0),
        growth=growth, env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
        initial=sg.StandState(t=0.0, s=s0, n=n0))
