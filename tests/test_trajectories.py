import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

import standgrowth as sg
from conftest import load, scenarios
from standgrowth._rootfind import bisect


def with_env(loaded, v0=None, lam=None):
    scn = loaded.scenario
    v = scn.env.v
    new_v = sg.GrowthEnergy(v.family, v0 if v0 is not None else v.v0,
                            lam if lam is not None else v.lam)
    return dataclasses.replace(scn, env=dataclasses.replace(scn.env, v=new_v))


class TestTimeToCount:
    def test_linear_rate(self, convex_price):
        p = convex_price.scenario.params
        assert sg.time_to_count(p, 1000.0, 600.0) == pytest.approx(10.0)
        assert sg.time_to_count(p, 300.0, 300.0) == 0.0

    def test_rejects_growth_targets(self, convex_price):
        with pytest.raises(ValueError):
            sg.time_to_count(convex_price.scenario.params, 300.0, 400.0)


class TestDensityIntegral:
    # Differential test: the closed forms behind t_sup0 against adaptive
    # quadrature, which t_sup0 used before.  The oracle integrates in
    # v = ln u, where the integrand u**b * u/g(u) stays smooth even for r_lo
    # near 0 and q near 2.
    @staticmethod
    def quad_oracle(growth, b, r_lo):
        def integrand(v):
            u = math.exp(v)
            return u ** b * (u / growth.g(u))

        val, _ = quad(integrand, math.log(r_lo), 0.0, epsrel=1e-12, epsabs=0.0,
                      limit=200)
        return val

    @given(q=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           theta=st.floats(0.0, 1.0, exclude_max=True),
           p=st.floats(0.0, exclude_min=True, allow_infinity=False),
           r_lo=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_quadrature(self, q, theta, p, r_lo):
        b = 2.0 / q - 1.0
        for growth in (sg.GrowthFunction.power(theta), sg.GrowthFunction.linear(),
                       sg.GrowthFunction.fagacees(p)):
            assert growth.density_integral(r_lo, b) == pytest.approx(
                self.quad_oracle(growth, b, r_lo), rel=1e-9)


class TestCeilingHitTime:
    def test_linear_growth_closed_form(self, linear_growth):
        # With a linear competition factor the ceiling-hit time solves
        # s0**(1-q/2) + A (1-q/2) Energy(0,t) = sbar0**(1-q/2) in closed form.
        scn = linear_growth.scenario
        p = scn.params
        expo = 1.0 - p.q / 2.0
        sbar0 = (p.A * scn.initial.n) ** (-2.0 / p.q)
        target = (sbar0 ** expo - scn.initial.s ** expo) / (p.A * expo)
        # Invert the exponential-energy antiderivative directly.
        lam, v0 = scn.env.v.lam, scn.env.v.v0
        expected = -np.log(1.0 - lam * target / v0) / lam
        assert sg.t_sup0(scn) == pytest.approx(expected, abs=1e-7)

    def test_fagacees_antiderivative_oracle(self, fagacees):
        # Oracle: exact antiderivative of u**(2/q-1) (u+p)/((1+p)u) compared
        # against the quadrature-based solver through the energy inverse.
        scn = fagacees.scenario
        p = scn.params
        shape = scn.growth.p
        r0 = scn.rdi0

        def antider(u):
            # Int u**0.25 (u+p)/((1+p)u) du for q = 1.6.
            return (0.8 * u ** 1.25 + 4.0 * shape * u ** 0.25) / (1.0 + shape)

        rhs = antider(1.0) - antider(r0)
        coeff = p.q / 2.0 * scn.initial.n ** (2.0 / p.q - 1.0) * p.A ** (2.0 / p.q)
        lam, v0 = scn.env.v.lam, scn.env.v.v0
        expected = -np.log(1.0 - lam * rhs / coeff / v0) / lam
        assert sg.t_sup0(scn) == pytest.approx(expected, rel=1e-9)

    def test_zero_policy_event_matches(self):
        # The integrator takes an uncut crossing from the same closed form at
        # its step's start, so only the RK4 state error separates the two.
        for name, horizon in (("concave_price_power.ini", 20.0),
                              ("convex_price_power.ini", 20.0), ("fagacees.ini", 20.0),
                              ("linear_growth.ini", 20.0), ("low_energy.ini", 60.0)):
            scn = load(name).scenario
            t_up = sg.t_sup0(scn)
            traj = sg.integrate(scn, sg.Policy.zero(), horizon, step=horizon / 4096)
            stop = [ev for ev in traj.events if ev.kind == "RdiHitOne"]
            assert len(stop) == 1, name
            assert stop[0].time == pytest.approx(t_up, abs=1e-12), name

    def test_near_ceiling_start_gives_tiny_time(self, convex_price):
        scn = convex_price.scenario
        p = scn.params
        s0 = 0.08
        n0 = 0.999999 / (p.A * s0 ** (p.q / 2.0))
        scn2 = dataclasses.replace(scn, initial=sg.StandState(t=0.0, s=s0, n=n0))
        assert sg.t_sup0(scn2) < 1e-3

    def test_unreachable_when_energy_too_small(self, low_energy):
        scn = with_env(low_energy, v0=0.01)
        assert sg.is_unreachable(sg.t_sup0(scn))


class TestCeilingTime:
    """Differential test: the closed-form ceiling time against uncut growth
    integrated by scipy with a terminal r = 1 event, from states sampled on
    generated scenarios.  At rtol 1e-12 the oracle itself strayed by up to
    4.2e-9 over 200 draws; at 1e-13 by at most 5.1e-10 over 500.  Its event
    is located on the dense output, which drifts over long steps: on linear
    growth with constant supply one step spanned the crossing at t = 45.46
    and placed it 1.8e-8 late, so steps are capped at 1."""

    SPAN = 200.0

    @given(scn=scenarios(), t0=st.floats(0.0, 40.0), r0=st.floats(0.05, 0.99),
           n_scale=st.floats(1.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_ivp(self, scn, t0, r0, n_scale):
        p, g, v = scn.params, scn.growth.g, scn.env.v
        n = p.n_min * n_scale
        s0 = (r0 / (p.A * n)) ** (2.0 / p.q)

        def excess(t, y):
            return p.A * n * y[0] ** (p.q / 2.0) - 1.0

        excess.terminal = True
        sol = solve_ivp(lambda t, y: [g(p.A * n * y[0] ** (p.q / 2.0)) / n * v(t)],
                        (t0, t0 + self.SPAN), [s0], method="DOP853", events=excess,
                        rtol=1e-13, atol=1e-16 * s0, max_step=1.0)
        t_hit = scn.ceiling_time(t0, s0, n)
        if sol.t_events[0].size:
            assert t_hit == pytest.approx(sol.t_events[0][0], abs=1e-8)
        else:
            assert t_hit > t0 + self.SPAN * (1.0 - 1e-9)

    def test_inf_when_exponential_supply_runs_out(self, low_energy):
        scn = with_env(low_energy, v0=0.01)
        init = scn.initial
        assert scn.ceiling_time(0.0, init.s, init.n) == math.inf


class TestCeilingExhaustion:
    def test_degenerate_start_at_floor(self, convex_price):
        scn = convex_price.scenario
        scn2 = dataclasses.replace(
            scn, initial=sg.StandState(t=0.0, s=0.08, n=scn.params.n_min))
        assert sg.t_cap0(scn2) == pytest.approx(sg.t_sup0(scn2), abs=1e-12)

    def test_esup_exit_event_matches(self):
        for name in ("concave_price_power.ini", "convex_price_power.ini", "fagacees.ini",
                     "linear_growth.ini"):
            scn = load(name).scenario
            t_ex = sg.t_cap0(scn)
            traj = sg.integrate(scn, sg.build_policy(scn, "esup"), 50.0)
            assert traj.exited, name
            assert traj.validity_end == pytest.approx(t_ex, abs=1e-11), name

    def test_doubling_energy_speeds_exhaustion(self, convex_price):
        scn = convex_price.scenario
        fast = with_env(convex_price, v0=2.0 * scn.env.v.v0)
        assert sg.t_cap0(fast) < sg.t_cap0(scn)


class TestClosedFormTimes:
    """t_sup0 and t_cap0 invert the energy in closed form; the oracle bisects
    the defining energy equations, as the solvers did before."""

    @staticmethod
    def bisect_root(f, hi):
        """Root of the increasing f on [0, hi], None when f(hi) < 0."""
        return None if f(hi) < 0.0 else bisect(f, 0.0, hi, xtol=1e-12)

    @given(scn=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_match_bisection_on_energy_equations(self, scn):
        p = scn.params
        # Ceiling hit: coeff * Energy(0, t_up) = Int_r0^1 u**(2/q-1)/g(u) du.
        target = scn.growth.density_integral(scn.rdi0, 2.0 / p.q - 1.0)
        coeff = p.q / 2.0 * scn.initial.n ** (2.0 / p.q - 1.0) * p.A ** (2.0 / p.q)
        # Exhaustion: Energy(t_up, T) = need, i.e. Energy(0, T) = target/coeff + need,
        # which keeps the oracle's error in t_up out of T.
        expo = 1.0 - 2.0 / p.q
        need = (p.n_min ** expo - scn.initial.n ** expo) \
            / (p.A ** (2.0 / p.q) * (1.0 - p.q / 2.0))
        t_up = self.bisect_root(lambda T: coeff * sg.energy(scn.env, 0.0, T) - target,
                                p.t_star)
        t_cap = None if t_up is None else self.bisect_root(
            lambda T: sg.energy(scn.env, 0.0, T) - (target / coeff + need), p.t_star)
        for closed, oracle in ((sg.t_sup0(scn), t_up), (sg.t_cap0(scn), t_cap)):
            assert sg.is_unreachable(closed) == (oracle is None)
            if oracle is not None:
                assert closed == pytest.approx(oracle, abs=1e-9)


class TestBuildPolicy:
    def test_cut_first_shape(self):
        params = sg.StandParams(q=1.6, A=0.001, n_min=400.0, e_max=40.0, t_star=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.02),
                             h0=sg.DominantHeight(30.0, 20.0))
        scn = sg.Scenario(params=params, growth=sg.GrowthFunction.power(0.3), env=env,
                          initial=sg.StandState(t=0.0, s=0.05, n=1000.0))
        pol = sg.build_policy(scn, "e0")
        assert pol.breakpoints == (15.0,)
        assert pol.levels == (40.0, 0.0)

    def test_exact_target_at_cut_time_reduces_to_cut_first(self, convex_price):
        scn = convex_price.scenario
        t0n = sg.time_to_count(scn.params, scn.initial.n, scn.params.n_min)
        assert sg.build_policy(scn, "et", T=t0n) == sg.build_policy(scn, "e0")

    def test_exact_target_at_exhaustion_reduces_to_ceiling(self, convex_price):
        scn = convex_price.scenario
        t_ex = sg.t_cap0(scn)
        assert sg.build_policy(scn, "et", T=t_ex).kind == "esup"

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["fagacees.ini", "low_energy.ini"])
    def test_exact_target_must_be_finite_and_positive(self, name, T):
        with pytest.raises(ValueError, match="target horizon must be finite and positive"):
            sg.build_policy(load(name).scenario, "et", T=T)

    def test_exact_target_beyond_exhaustion_rejected(self, convex_price):
        scn = convex_price.scenario
        with pytest.raises(ValueError):
            sg.build_policy(scn, "et", T=sg.t_cap0(scn) + 1.0)

    def test_short_horizon_switch_time(self, convex_price):
        scn = convex_price.scenario
        t0n = sg.time_to_count(scn.params, scn.initial.n, scn.params.n_min)
        t_up = sg.t_sup0(scn)
        T = t0n + 0.5 * t_up
        pol = sg.build_policy(scn, "et", T=T)
        assert pol.breakpoints == (pytest.approx(T - t0n),)
        assert pol.levels == (0.0, scn.params.e_max)
        traj = sg.integrate(scn, pol, T)
        assert traj.n[-1] == pytest.approx(scn.params.n_min, rel=1e-9)

    def test_long_horizon_switch_consistency(self, convex_price):
        # The arc-leaving time satisfies both the count relation along the
        # ceiling and the exact-depletion condition at the horizon.
        scn = convex_price.scenario
        p = scn.params
        T = 30.0
        pol = sg.build_policy(scn, "et", T=T)
        md = pol.meta_dict()
        t_switch = md["t_switch"]
        n_at_switch = scn.arc_count_after(
            scn.initial.n, scn.env.v.integral(md["t_rdi_one"], t_switch))
        assert (T - t_switch) * p.e_max == pytest.approx(n_at_switch - p.n_min,
                                                         rel=1e-9)
        traj = sg.integrate(scn, pol, T)
        assert traj.n[-1] == pytest.approx(p.n_min, rel=1e-7)
        assert traj.interp_n(t_switch) == pytest.approx(n_at_switch, rel=1e-7)


class TestExtremalTimes:
    def test_linear_growth_times_coincide(self, linear_growth):
        scn = linear_growth.scenario
        p = scn.params
        ext = sg.characteristic_times(scn)
        expo = 1.0 - p.q / 2.0
        target = (p.s_bar ** expo - scn.initial.s ** expo) / (p.A * expo)
        lam, v0 = scn.env.v.lam, scn.env.v.v0
        expected = -np.log(1.0 - lam * target / v0) / lam
        assert ext.t_upper == pytest.approx(expected, abs=1e-7)
        assert ext.t_lower == pytest.approx(expected, rel=1e-5)
        assert not ext.t_lower_heuristic

    def test_ordering_power(self, convex_price):
        ext = sg.characteristic_times(convex_price.scenario)
        assert ext.t_lower <= ext.t_upper
        assert not ext.t_lower_heuristic

    def test_fagacees_lower_time_is_heuristic(self, fagacees):
        assert sg.characteristic_times(fagacees.scenario).t_lower_heuristic

    def test_random_policy_exits_bracketed(self, concave_price, rng):
        scn = concave_price.scenario
        ext = sg.characteristic_times(scn)
        lo, hi = ext.t_lower, ext.t_upper
        tol = 1e-5 * hi
        seen = 0
        policies = sg.sample_policies(scn, 120, rng, scn.params.t_star) + \
            sg.sample_policies(scn, 80, rng, scn.params.t_star, terminal=True)
        for policy in policies:
            traj = sg.integrate(scn, policy, scn.params.t_star,
                                step=scn.params.t_star / 2048)
            if traj.exited:
                seen += 1
                assert lo - tol <= traj.validity_end <= hi + tol
        assert seen >= 40   # the sweep must actually exercise exits


class TestCharacteristicTimes:
    def test_bundle_consistency(self, convex_price):
        ct = sg.characteristic_times(convex_price.scenario, T=30.0)
        assert ct.t_sup0 < ct.t_cap0
        assert ct.t_lower <= ct.t_upper
        assert ct.t_upper == pytest.approx(sg.t_cap0(convex_price.scenario))
        assert ct.t_star_switch is not None
        d = ct.to_json_dict()
        assert set(d) == {"t0_n_min", "t_sup0", "t_cap0", "t_lower", "t_upper",
                          "t_lower_heuristic", "t_star_switch"}

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -5.0])
    def test_invalid_target_raises(self, convex_price, T):
        with pytest.raises(ValueError, match="target horizon must be finite and positive"):
            sg.characteristic_times(convex_price.scenario, T=T)

    def test_target_beyond_exhaustion_has_no_switch(self, convex_price):
        scn = convex_price.scenario
        for T in (sg.t_cap0(scn) * 1.01, 1e6):
            assert sg.characteristic_times(scn, T=T).t_star_switch is None

    def test_unreachable_encoding(self, low_energy):
        ct = sg.characteristic_times(low_energy.scenario)
        assert sg.is_unreachable(ct.t_upper)
        assert ct.to_json_dict()["t_upper"] is None


class TestUnreachableIsInf:
    """On low_energy the stand reaches the ceiling but never exhausts on it."""

    def test_t_cap0_is_inf(self, low_energy):
        t_cap = sg.t_cap0(low_energy.scenario)
        assert t_cap == math.inf
        assert sg.is_unreachable(t_cap)
        assert not sg.is_unreachable(sg.t_sup0(low_energy.scenario))

    def test_long_exact_target_rides_then_cuts(self, low_energy):
        scn = low_energy.scenario
        p = scn.params
        t0n = sg.time_to_count(p, scn.initial.n, p.n_min)
        T = 0.5 * (t0n + sg.t_sup0(scn) + p.t_star)
        assert t0n + sg.t_sup0(scn) < T < p.t_star
        pol = sg.build_policy(scn, "et", T=T)
        assert pol.kind == "et"
        assert pol.levels == (sg.HOLD, p.e_max)

    def test_horizon_t_star_is_admitted_with_et(self, low_energy):
        from standgrowth.optimizer import _require_admissible_horizon, canonical_policies
        t_star = low_energy.scenario.params.t_star
        _require_admissible_horizon(low_energy.scenario, t_star)
        assert "ET" in canonical_policies(low_energy.scenario, t_star)


class TestValidityDiagnostics:
    def test_low_energy_unreachable(self, low_energy):
        diag = sg.validity_diagnostics(low_energy.scenario)
        assert diag.classification == "unreachable"

    def test_energy_scaling_flips_to_reachable(self, low_energy):
        scn = with_env(low_energy, v0=10.0 * low_energy.scenario.env.v.v0)
        diag = sg.validity_diagnostics(scn)
        assert diag.classification == "reachable"

    def test_never_both(self, convex_price, low_energy):
        for scn in (convex_price.scenario, low_energy.scenario):
            d = sg.validity_diagnostics(scn)
            assert not (d.exit_reachable and d.exit_unreachable)

    def test_reachable_agrees_with_integrator(self, convex_price):
        # Guaranteed-reachable diagnosis must be backed by an actual exit.
        diag = sg.validity_diagnostics(convex_price.scenario)
        assert diag.classification == "reachable"
        traj = sg.integrate(convex_price.scenario,
                            sg.build_policy(convex_price.scenario, "esup"),
                            convex_price.scenario.params.t_star)
        assert traj.exited


class TestPowerClosedForm:
    def test_basal_area_reconstruction(self, convex_price, rng):
        # Oracle: quadrature of V/n**theta over the integrated count path.
        scn = convex_price.scenario
        p = scn.params
        theta = scn.growth.theta
        m = 1.0 - p.q / 2.0 * (1.0 - theta)
        for policy in sg.sample_policies(scn, 3, rng, 25.0):
            traj = sg.integrate(scn, policy, 25.0)

            def integrand(u):
                return scn.env.v(u) / traj.interp_n(u) ** theta

            for t_probe in (6.0, 14.0, min(24.0, traj.validity_end)):
                if t_probe > traj.validity_end:
                    continue
                val, _ = quad(integrand, 0.0, t_probe, limit=300,
                              points=[start for _, start, _ in traj.spans if start < t_probe])
                expected = (scn.initial.s ** m
                            + p.A ** (1.0 - theta) * m * val) ** (1.0 / m)
                assert traj.interp_s(t_probe) == pytest.approx(expected, rel=1e-5)
