import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import standgrowth as sg
from standgrowth._rootfind import BracketError, bisect

import newton_uncut


def energy_quad(env, t0, t1, rtol=1e-10):
    """Cumulative energy by adaptive quadrature: the oracle for the closed forms."""
    val, _ = quad(env.v.value, t0, t1, epsrel=rtol, limit=200)
    return float(val)


def make_params(**kw):
    base = dict(q=1.6, A=0.001, n_min=100.0, e_max=40.0, t_star=150.0)
    base.update(kw)
    return sg.StandParams(**base)


class TestRdi:
    def test_unit_density(self):
        p = make_params()
        assert sg.rdi(p, 1000.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_vanishes_with_s(self):
        p = make_params()
        assert sg.rdi(p, 1000.0, 1e-12) < 1e-9

    def test_power_evaluation_matches_log_form(self):
        # Oracle: log r = log A + log n + (q/2) log s.
        p = make_params()
        expected = math.exp(math.log(0.001) + math.log(1000.0) + 0.8 * math.log(0.05))
        assert expected == pytest.approx(0.09102821015130401, rel=1e-12)
        assert sg.rdi(p, 1000.0, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        p = make_params()
        with pytest.raises(ValueError):
            sg.rdi(p, -1.0, 0.05)
        with pytest.raises(ValueError):
            sg.rdi(p, 100.0, 0.0)

    @given(n=st.floats(1.0, 1e5), s=st.floats(1e-4, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_log_form_identity(self, n, s):
        p = make_params()
        direct = sg.rdi(p, n, s)
        via_logs = math.exp(math.log(p.A) + math.log(n) + p.q / 2.0 * math.log(s))
        assert direct == pytest.approx(via_logs, rel=1e-12)


class TestGrowthFunction:
    def test_endpoints(self):
        assert sg.GrowthFunction.fagacees(2.0).g(1.0) == pytest.approx(1.0)
        assert sg.GrowthFunction.power(0.3).g(0.0) == pytest.approx(0.0)

    def test_fagacees_direct_substitution(self):
        g = sg.GrowthFunction.fagacees(2.0)
        assert g.g(0.5) == pytest.approx(3.0 * 0.5 / 2.5, rel=1e-15)

    @pytest.mark.parametrize("g", [sg.GrowthFunction.fagacees(2.0),
                                   sg.GrowthFunction.power(0.35),
                                   sg.GrowthFunction.linear()],
                             ids=["fagacees", "power", "linear"])
    def test_slope_of_r_over_g_is_one_minus_gamma_over_g(self, g):
        # Oracle: central finite difference of r/g(r); d/dr [r/g] = (1 - gamma)/g.
        eps = 1e-6
        for r in (0.1, 0.4, 0.9):
            fd = ((r + eps) / g.g(r + eps) - (r - eps) / g.g(r - eps)) / (2.0 * eps)
            assert (1.0 - g.gamma(r)) / g.g(r) == pytest.approx(fd, rel=1e-8, abs=1e-9)

    def test_gamma_closed_forms(self):
        assert sg.GrowthFunction.power(0.3).gamma(0.77) == pytest.approx(0.7)
        assert sg.GrowthFunction.linear().gamma(0.2) == pytest.approx(1.0)
        assert sg.GrowthFunction.fagacees(2.0).gamma(0.5) == pytest.approx(0.8)

    @given(r=st.floats(1e-3, 1.0), p_shape=st.floats(0.2, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_is_elasticity(self, r, p_shape):
        g = sg.GrowthFunction.fagacees(p_shape)
        assert g.gamma(r) == pytest.approx(r * g.g_prime(r) / g.g(r), rel=1e-12)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            sg.GrowthFunction.fagacees(-1.0)
        with pytest.raises(ValueError):
            sg.GrowthFunction.power(1.0)


class TestLinearIsPowerZero:
    """Linear growth is the power family at theta = 0, with the same values
    bit for bit as the closed forms g(r) = r, g' = gamma = 1."""

    RS = np.concatenate([np.linspace(1e-4, 1.0, 257), [1.0, 0.5, 1e-12]])

    def test_same_function(self):
        assert sg.GrowthFunction.linear() == sg.GrowthFunction.power(0.0)
        assert sg.GrowthFunction.linear().kind == "power"
        assert not sg.GrowthFunction.linear().amplifies
        assert sg.GrowthFunction.power(0.01).amplifies

    @pytest.mark.parametrize("r", [RS, 1.0, 0.37])
    def test_closed_forms_bit_for_bit(self, r):
        g = sg.GrowthFunction.linear()
        assert np.array_equal(g.g(r), r)
        assert np.array_equal(g.g_prime(r), np.ones_like(np.asarray(r)))
        assert np.array_equal(g.gamma(r), np.ones_like(np.asarray(r)))
        for b in (0.25, 2.0 / 1.6 - 1.0, 2.0 / 1.9 - 1.0):
            assert np.array_equal(g.density_integral(r, b),
                                  -np.expm1(b * np.log(r)) / b)


class TestGrowthInvariants:
    """Sampled shape properties of every admissible competition function."""

    FUNCS = [sg.GrowthFunction.fagacees(0.7), sg.GrowthFunction.fagacees(3.0),
             sg.GrowthFunction.power(0.2), sg.GrowthFunction.power(0.65)]

    def test_amplification_monotonicity_concavity(self, rng):
        rs = rng.uniform(1e-4, 1.0 - 1e-4, size=1000)
        eps = 1e-5
        for g in self.FUNCS:
            vals = g.g(rs)
            assert np.all(vals > rs)
            assert np.all(g.g_prime(rs) > 0.0)
            second = g.g(rs + eps) + g.g(rs - eps) - 2.0 * vals
            assert np.all(second <= 1e-12)

    def test_gamma_bounds(self, rng):
        # The slope of r/g times g is 1 - gamma: at most 1, and positive
        # unless growth is linear.
        rs = rng.uniform(1e-4, 1.0, size=1000)
        for g in self.FUNCS + [sg.GrowthFunction.linear()]:
            gam = g.gamma(rs)
            assert np.all(gam >= -1e-12)
            if g.amplifies:
                assert np.all(gam < 1.0)
            assert np.all(gam <= 1.0 + 1e-12)

    def test_r_over_g_nondecreasing(self, rng):
        rs = np.sort(rng.uniform(1e-4, 1.0, size=1000))
        for g in self.FUNCS:
            ratio = rs / g.g(rs)
            assert np.all(np.diff(ratio) >= -1e-15)

    def test_gamma_bracket(self, rng):
        rs = rng.uniform(1e-4, 1.0, size=1000)
        for g in self.FUNCS:
            vals = g.gamma(rs)
            assert np.all(vals >= g.gamma_lower)
            assert np.all(vals <= g.gamma_upper)
            assert 0.0 < g.gamma_lower <= g.gamma_upper <= 1.0


class TestEnvironment:
    def test_energy_closed_form(self):
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 1.0, 0.05),
                             h0=sg.DominantHeight(30.0, 20.0))
        # Oracle: antiderivative (1 - exp(-lam T)) v0 / lam.
        assert sg.energy(env, 0.0, 10.0) == pytest.approx(7.8693868057473315, rel=1e-12)

    def test_energy_empty_interval(self):
        env = sg.Environment(v=sg.GrowthEnergy("hyperbolic", 2.0, 0.1),
                             h0=sg.DominantHeight(30.0, 20.0))
        assert sg.energy(env, 3.0, 3.0) == 0.0

    def test_energy_additivity(self):
        env = sg.Environment(v=sg.GrowthEnergy("hyperbolic", 2.0, 0.1),
                             h0=sg.DominantHeight(30.0, 20.0))
        total = sg.energy(env, 0.0, 25.0)
        assert sg.energy(env, 0.0, 7.0) + sg.energy(env, 7.0, 25.0) == \
            pytest.approx(total, rel=1e-13)

    @pytest.mark.parametrize("family,lam", [("exponential", 0.05), ("hyperbolic", 0.08)])
    def test_energy_matches_quadrature(self, family, lam):
        env = sg.Environment(v=sg.GrowthEnergy(family, 1.7, lam),
                             h0=sg.DominantHeight(30.0, 20.0))
        for t0, t1 in [(0.0, 12.0), (5.0, 90.0)]:
            assert sg.energy(env, t0, t1) == pytest.approx(
                energy_quad(env, t0, t1), rel=1e-10)

    def test_v_convex_midpoint(self, rng):
        for family in ("exponential", "hyperbolic"):
            v = sg.GrowthEnergy(family, 2.0, 0.04)
            a = rng.uniform(0.0, 150.0, size=500)
            b = rng.uniform(0.0, 150.0, size=500)
            assert np.all(v((a + b) / 2.0) <= (v(a) + v(b)) / 2.0 + 1e-14)

    @pytest.mark.parametrize("family", ["exponential", "hyperbolic"])
    @pytest.mark.parametrize("lam", [0.0, 0.04])
    def test_v_positive_non_increasing(self, family, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # lam = 0 warns
            v = sg.GrowthEnergy(family, 2.0, lam)
        vals = v(np.linspace(0.0, 150.0, 1001))
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] == 2.0

    def test_constant_energy_flagged(self):
        with pytest.warns(UserWarning):
            v = sg.GrowthEnergy("exponential", 1.0, 0.0)
        assert v.weakly_decreasing
        assert sg.GrowthEnergy("exponential", 1.0, 0.01).weakly_decreasing is False

    def test_height_family_shape(self):
        h = sg.DominantHeight(30.0, 20.0)
        ts = np.linspace(0.5, 120.0, 200)
        vals = h(ts)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(np.diff(vals)) < 0.0)
        assert h(0.0) == 0.0


class TestBoundaryControl:
    def make_env(self, v0=2.0, lam=0.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return sg.Environment(v=sg.GrowthEnergy("exponential", v0, lam),
                                  h0=sg.DominantHeight(30.0, 20.0))

    def test_direct_formula(self):
        p = make_params()
        env = self.make_env(v0=2.0)
        assert sg.boundary_control(p, env, 0.1, 0.0) == pytest.approx(16.0, rel=1e-14)

    def test_zero_energy_limit(self):
        p = make_params()
        env = self.make_env(v0=1e-300)
        assert sg.boundary_control(p, env, 0.1, 3.0) == pytest.approx(0.0, abs=1e-290)

    def test_freezes_density_on_ceiling(self):
        p = make_params(A=0.01741, n_min=150.0)
        env = self.make_env(v0=2.0, lam=0.02)
        growth = sg.GrowthFunction.power(0.3)
        scn = sg.Scenario(params=p, growth=growth, env=env,
                          initial=sg.StandState(t=0.0, s=0.08, n=300.0))
        # Riding the ceiling, the applied rate is the boundary control.
        traj = sg.integrate(scn, sg.build_policy(scn, "esup"), 40.0)
        assert np.count_nonzero(traj.on_arc) > 100
        np.testing.assert_allclose(traj.drdt[traj.on_arc], 0.0, rtol=0.0, atol=1e-14)


class TestScenarioValidation:
    def test_q_range_cited_in_message(self):
        with pytest.raises(ValueError, match="1 < q < 2"):
            make_params(q=2.5)

    def test_initial_density_must_be_below_one(self):
        p = make_params(A=0.01741, n_min=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.02),
                             h0=sg.DominantHeight(30.0, 20.0))
        with pytest.raises(ValueError, match="RDI"):
            sg.Scenario(params=p, growth=sg.GrowthFunction.linear(), env=env,
                        initial=sg.StandState(t=0.0, s=0.4, n=500.0))

    def test_initial_time_must_be_zero(self):
        p = make_params(A=0.01741, n_min=150.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 2.0, 0.02),
                             h0=sg.DominantHeight(30.0, 20.0))
        with pytest.raises(ValueError, match="t = 0"):
            sg.Scenario(params=p, growth=sg.GrowthFunction.linear(), env=env,
                        initial=sg.StandState(t=1.0, s=0.05, n=300.0))


class TestFiniteInputs:
    """Every constructor rejects NaN and infinite values, naming the field."""

    VALID = {
        "StandParams": (sg.StandParams, dict(q=1.6, A=0.001, n_min=100.0, e_max=40.0,
                                             t_star=150.0)),
        "StandState": (sg.StandState, dict(t=0.0, s=0.05, n=300.0)),
        "fagacees": (sg.GrowthFunction, dict(kind="fagacees", p=3.0)),
        "power": (sg.GrowthFunction, dict(kind="power", theta=0.3)),
        "GrowthEnergy": (sg.GrowthEnergy, dict(family="exponential", v0=2.0, lam=0.02)),
        "DominantHeight": (sg.DominantHeight, dict(h_inf=30.0, tau=20.0)),
        "EconomicModel": (sg.EconomicModel, dict(k=1.0, alpha=2.0, delta=0.01)),
    }

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("ctor,field,name", [
        ("StandParams", "q", "q"), ("StandParams", "A", "A"),
        ("StandParams", "n_min", "n_min"), ("StandParams", "e_max", "e_max"),
        ("StandParams", "t_star", "t_star"),
        ("StandState", "t", "t"), ("StandState", "s", "s"), ("StandState", "n", "n"),
        ("fagacees", "p", "p"), ("power", "theta", "theta"),
        ("GrowthEnergy", "v0", "v0"), ("GrowthEnergy", "lam", "lambda"),
        ("DominantHeight", "h_inf", "h_inf"), ("DominantHeight", "tau", "tau"),
        ("EconomicModel", "k", "k"), ("EconomicModel", "alpha", "alpha"),
        ("EconomicModel", "delta", "delta"),
    ])
    def test_non_finite_rejected(self, ctor, field, name, value):
        cls, valid = self.VALID[ctor]
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            cls(**{**valid, field: value})


@pytest.mark.parametrize("call,error,message", [
    (lambda scn: sg.GrowthFunction(kind="bogus"), ValueError,
     r"^unknown growth variant 'bogus'$"),
    (lambda scn: scn.env.v.integral(5.0, 3.0), ValueError,
     r"^empty interval: t0=5\.0 > t1=3\.0$"),
    (lambda scn: scn.env.v.integral(np.array([5.0]), np.array([3.0])), ValueError,
     r"^empty interval: t0=\[5\.\] > t1=\[3\.\]$"),
    (lambda scn: scn.uncut_s_after(math.nan, 300.0, 1.0), RuntimeError,
     r"^uncut growth inversion did not converge from s=nan, n=300\.0$"),
    (lambda scn: sg.boundary_control(scn.params, scn.env, 0.0, 1.0), ValueError,
     r"^boundary control requires s > 0$"),
    (lambda scn: sg.energy(scn.env, 3.0, 1.0), ValueError,
     r"^need 0 <= t0 <= t1 \(got t0=3\.0, t1=1\.0\)$"),
    (lambda scn: bisect(lambda x: x + 1, 0, 1), BracketError,
     r"^no sign change on \[0\.0, 1\.0\]"),
], ids=["growth_kind", "empty_interval", "empty_interval_arrays", "uncut_nan",
        "boundary_control_s", "energy_interval", "bisect_bracket"])
def test_input_guard_names_its_invariant(fagacees, call, error, message):
    """Each guard raises with a message naming the invariant it enforces
    (the uncut inversion under fagacees growth, where it iterates)."""
    with pytest.raises(error, match=message):
        call(fagacees.scenario)


class TestEnergyInverse:
    """``time_at`` inverts ``integral`` in its upper limit, in closed form."""

    @staticmethod
    def energy(family, v0, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # lambda = 0 warns by design
            return sg.GrowthEnergy(family, v0, lam)

    @given(family=st.sampled_from(["exponential", "hyperbolic"]),
           v0=st.floats(0.1, 10.0),
           lam=st.one_of(st.just(0.0), st.floats(1e-4, 0.2)),
           t0=st.floats(0.0, 100.0), span=st.floats(1e-3, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, family, v0, lam, t0, span):
        v = self.energy(family, v0, lam)
        amount = v.integral(t0, t0 + span)
        t1 = v.time_at(t0, amount)
        assert v.integral(t0, t1) == pytest.approx(amount, rel=1e-12)

    def test_exponential_supply_runs_out(self):
        v = sg.GrowthEnergy("exponential", 2.0, 0.05)
        left = 2.0 * math.exp(-0.05 * 10.0) / 0.05     # all energy after t = 10
        assert v.time_at(10.0, 0.999 * left) < math.inf
        assert v.time_at(10.0, left * (1.0 + 1e-9)) == math.inf
        np.testing.assert_array_equal(v.time_at(10.0, np.array([0.0, 2.0 * left])),
                                      [10.0, math.inf])


class TestCutRelation:
    """``cut_s_after``: the separated basal-area relation of a power-growth
    stand whose count falls linearly."""

    @staticmethod
    def scenario(theta=0.4, lam=0.03):
        params = make_params(A=0.02, n_min=150.0, e_max=60.0)
        env = sg.Environment(v=sg.GrowthEnergy("exponential", 1.5, lam),
                             h0=sg.DominantHeight(30.0, 20.0))
        return sg.Scenario(params=params, growth=sg.GrowthFunction.power(theta), env=env,
                           initial=sg.StandState(t=0.0, s=0.01, n=400.0))

    def test_gauss_nodes_are_legendre(self):
        # Written out in the model so that it does not import numpy.polynomial.
        from standgrowth.model import _GAUSS_W, _GAUSS_X
        nodes, weights = np.polynomial.legendre.leggauss(4)
        np.testing.assert_allclose(nodes, [-_GAUSS_X[1], -_GAUSS_X[0], _GAUSS_X[0], _GAUSS_X[1]],
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(weights, [_GAUSS_W[1], _GAUSS_W[0], _GAUSS_W[0], _GAUSS_W[1]],
                                   rtol=2e-15, atol=0.0)

    def test_constant_count_is_uncut_growth(self):
        scn = self.scenario()
        times = np.linspace(2.0, 6.0, 9)
        got = scn.cut_s_after(0.01, times, np.full(times.size, 300.0))
        want = scn.uncut_s_after(0.01, 300.0, scn.env.v.integral(2.0, times[1:]))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 0.8])
    def test_matches_quadrature_of_the_relation(self, theta):
        # Oracle: the count-weighted energy by adaptive quadrature, here over
        # a cut from 400 to 160 trees at 60 trees per year.
        scn = self.scenario(theta)
        p, rate = scn.params, 60.0
        k = 1.0 - p.q / 2.0 * (1.0 - theta)
        times = np.linspace(1.0, 5.0, 33)
        got = scn.cut_s_after(0.01, times, 400.0 - rate * (times - 1.0))
        amounts = [quad(lambda u: (400.0 - rate * (u - 1.0)) ** -theta * scn.env.v(u), 1.0, t1,
                        epsabs=0.0, epsrel=1e-13)[0] for t1 in times[1:]]
        want = (0.01 ** k + k * p.A ** (1.0 - theta) * np.array(amounts)) ** (1.0 / k)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_broadcasts_one_grid_over_many_stands(self):
        scn = self.scenario()
        times = np.linspace(0.0, 3.0, 7)
        counts = np.array([400.0, 300.0])[:, None] - np.array([60.0, 20.0])[:, None] * times
        s = np.array([0.01, 0.02])
        both = scn.cut_s_after(s, times, counts)
        for i in range(2):
            np.testing.assert_array_equal(both[i], scn.cut_s_after(s[i], times, counts[i]))


def fagacees_scenario(p_shape=3.0, lam=0.02, q=1.6, A=0.01741, s0=0.08, n0=300.0,
                      family="exponential", v0=2.0, n_min=150.0, e_max=40.0):
    params = make_params(q=q, A=A, n_min=n_min, e_max=e_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # lambda = 0 warns by design
        v = sg.GrowthEnergy(family, v0, lam)
    return sg.Scenario(params=params, growth=sg.GrowthFunction.fagacees(p_shape),
                       env=sg.Environment(v=v, h0=sg.DominantHeight(30.0, 20.0)),
                       initial=sg.StandState(t=0.0, s=s0, n=n0))


class TestCutCollocation:
    """``cut_s_after`` under fagacees growth: four-node Gauss-Legendre
    collocation, solved by Picard sweeps."""

    def test_collocation_matrix_is_legendre(self):
        # Written out in the model so that it does not import numpy.polynomial.
        from standgrowth.model import _GAUSS_A, _GAUSS_NODES
        nodes, weights = np.polynomial.legendre.leggauss(4)
        np.testing.assert_allclose(_GAUSS_NODES, nodes, rtol=1e-15, atol=0.0)
        for k in range(4):
            others = np.delete(nodes, k)
            lagrange = np.polynomial.Polynomial.fromroots(others) / np.prod(nodes[k] - others)
            antiderivative = lagrange.integ(lbnd=-1.0)
            np.testing.assert_allclose([row[k] for row in _GAUSS_A], antiderivative(nodes),
                                       rtol=1e-13, atol=1e-15)
            assert antiderivative(1.0) == pytest.approx(weights[k], rel=1e-14)

    @pytest.mark.parametrize("lam, family", [(0.02, "exponential"), (0.05, "hyperbolic"),
                                             (0.0, "exponential")])
    @pytest.mark.parametrize("steps", [16, 256])
    def test_matches_an_ode_solver(self, lam, family, steps):
        # Oracle: DOP853 at rtol 1e-13, one solve per checked time so that
        # no value is interpolated.  The cut runs from 300 to 160 trees.
        from scipy.integrate import solve_ivp
        scn = fagacees_scenario(lam=lam, family=family)
        rate = 5.0
        times = np.linspace(1.0, 29.0, steps + 1)
        got = scn.cut_s_after(0.08, times, 300.0 - rate * (times - 1.0))

        def dsdt(t, s):
            return scn.growth_rate(t, s, 300.0 - rate * (t - 1.0))

        for i in (steps // 4, steps // 2, steps):
            sol = solve_ivp(dsdt, (1.0, times[i]), [0.08], method="DOP853",
                            rtol=1e-13, atol=0.0)
            assert got[i - 1] == pytest.approx(sol.y[0, -1], rel=1e-12, abs=0.0)

    def test_stand_independent_of_its_batch(self):
        # Stands that need different numbers of sweeps give, bit for bit,
        # what each gives alone.
        scn = fagacees_scenario()
        times = np.linspace(0.0, 6.0, 97)
        rates = np.array([[0.0], [5.0], [40.0], [20.0]])
        counts = np.maximum(np.array([[300.0], [280.0], [300.0], [200.0]]) - rates * times, 150.0)
        s = np.array([0.08, 0.02, 0.1, 0.05])
        both = scn.cut_s_after(s, times, counts)
        for i in range(s.size):
            np.testing.assert_array_equal(both[i], scn.cut_s_after(s[i], times, counts[i]))

    def test_constant_count_is_uncut_growth(self):
        scn = fagacees_scenario()
        times = np.linspace(2.0, 6.0, 9)
        got = scn.cut_s_after(0.05, times, np.full(times.size, 300.0))
        want = scn.uncut_s_after(0.05, 300.0, scn.env.v.integral(2.0, times[1:]))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("growth", ["fagacees", "power"])
    def test_zero_stands_give_no_rows(self, growth):
        # A block of no stands, on a grid of four steps, in either family.
        scn = fagacees_scenario() if growth == "fagacees" else TestCutRelation.scenario()
        times = np.linspace(0.0, 2.0, 5)
        s = scn.cut_s_after(np.empty(0), times, np.empty((0, times.size)))
        assert s.shape == (0, times.size - 1)

    def test_sweep_cap_fails_loudly(self, monkeypatch):
        from standgrowth import model
        monkeypatch.setattr(model, "_PICARD_MAX_SWEEPS", 3)
        scn = fagacees_scenario()
        times = np.linspace(0.0, 20.0, 65)
        with pytest.raises(RuntimeError, match="did not converge"):
            scn.cut_s_after(0.08, times, 300.0 - 5.0 * times)

    @given(q=st.floats(1.2, 1.9), A=st.floats(0.01, 0.03), n_min=st.floats(100.0, 200.0),
           n_ratio=st.floats(1.05, 3.0), r0=st.floats(0.02, 0.9), v0=st.floats(0.5, 4.0),
           p_shape=st.floats(0.2, 10.0), family=st.sampled_from(["exponential", "hyperbolic"]),
           lam=st.one_of(st.just(0.0), st.floats(0.005, 0.08)),
           e_ratio=st.floats(1.5, 4.0), slow=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_sweep_cap_never_reached(self, q, A, n_min, n_ratio, r0, v0, p_shape, family,
                                     lam, e_ratio, slow):
        # The scale of the generated scenarios of conftest, at densities from
        # 0.02 and rates from e_max down to e_max / 100: cut over up to 150
        # years in 4096 steps, a stand grows up to several hundredfold.
        n0 = n_min * n_ratio
        s0 = (r0 / (A * n0)) ** (2.0 / q)
        e_max = e_ratio * q / 2.0 * v0 / s0
        scn = fagacees_scenario(p_shape=p_shape, lam=lam, q=q, A=A, s0=s0, n0=n0,
                                family=family, v0=v0, n_min=n_min, e_max=e_max)
        rate = e_max * 10.0 ** -slow
        times = np.linspace(0.0, min(150.0, (n0 - n_min) / rate), 4097)
        s = scn.cut_s_after(s0, times, np.maximum(n0 - rate * times, n_min))
        assert np.all(np.isfinite(s))
        assert np.all(np.diff(s) > 0.0) and s[0] > s0


class TestUncutNewton:
    """Newton's method in log r from two expm1 a step, against the
    exp/log/power iteration it replaced (``newton_uncut.py``)."""

    @given(q=st.floats(1.0001, 1.9999), p_shape=st.floats(0.1, 20.0),
           n=st.floats(50.0, 600.0), lg_r0=st.floats(-3.0, -1e-6),
           fraction=st.floats(0.0, 1.0), family=st.sampled_from(["exponential", "hyperbolic"]))
    # D - target is ill-conditioned at small amounts from a sparse stand:
    # the reference's s was off by 2.8e-14 relative here, above a bound of
    # 8 ulps of log r0.
    @example(q=1.125, p_shape=8.0, n=50.0, lg_r0=-3.0, fraction=0.03125, family="exponential")
    @settings(max_examples=60, deadline=None)
    def test_matches_exp_log_iteration(self, q, p_shape, n, lg_r0, fraction, family):
        A = 0.01741
        r0 = 10.0 ** lg_r0
        s = (r0 / (A * n)) ** (2.0 / q)
        scn = fagacees_scenario(p_shape=p_shape, q=q, A=A, s0=s, n0=n, n_min=n,
                                family=family)
        # Amounts from 0 up to the one that reaches the ceiling.
        b = 2.0 / q - 1.0
        full = scn.growth.density_integral(r0, b) / (q / 2.0 * n ** b * A ** (2.0 / q))
        amount = full * fraction * np.linspace(0.0, 1.0, 17) ** 0.5
        got = scn.uncut_s_after(s, n, amount)
        want = newton_uncut.uncut_s_after(scn, s, n, amount)
        # Both invert D to rounding.  The target D(r0) - c * amount carries
        # a few ulps of D(r0), which move the root in x = log r by that over
        # |dD/dx| = r**(b+1) / g(r), largest at r0 since the slope grows with
        # r; log r0 carries a few ulps of itself.  So x is off by a few ulps
        # of |log r0| + kappa, kappa = D(r0) g(r0) / r0**(b+1) (290 at
        # r0 = 1e-3, q = 1.125), and s by that over q/2.  On 20000 draws
        # over these ranges the gap reaches a quarter of this bound.
        kappa = scn.growth.density_integral(r0, b) * scn.growth.g(r0) / r0 ** (b + 1.0)
        tol = 8.0 * np.finfo(float).eps * max(1.0, -math.log(r0) + kappa) / (q / 2.0)
        np.testing.assert_allclose(got, want, rtol=tol, atol=0.0)


class TestUncutArrays:
    @pytest.mark.parametrize("p_shape", [3.0, 0.3])
    def test_array_results_equal_scalar_calls(self, p_shape):
        # Each element stops its Newton iterates on its own, so an array call
        # gives, bit for bit, what the scalar calls give.
        scn = fagacees_scenario(p_shape=p_shape)
        s = np.array([0.08, 0.02, 0.1, 0.05])[:, None]
        n = np.array([300.0, 280.0, 160.0, 200.0])[:, None]
        amount = scn.env.v.integral(0.0, np.linspace(0.0, 4.0, 9))
        amount = np.minimum(amount, 0.999 * scn.env.v.integral(
            0.0, scn.ceiling_time(0.0, s, n)))
        got = scn.uncut_s_after(s, n, amount)
        assert got.shape == (4, 9)
        for i, j in np.ndindex(got.shape):
            want = scn.uncut_s_after(float(s[i, 0]), float(n[i, 0]), float(amount[i, j]))
            assert got[i, j].view(np.uint64) == np.float64(want).view(np.uint64), (i, j)
