"""Core state, parameter, and function families of the stand-growth model.

The stand is described by two state variables: the basal area per tree ``s``
(cross-section at 1.3 m, in m²) and the tree count ``n``.  Density is measured
by the relative density index (RDI)

    r(n, s) = A * n * s**(q/2),

the ratio of the actual tree count to the self-thinning maximum
``n_max(s) = exp(C0) * s**(-q/2)`` (Reineke's rule, with ``A = exp(-C0)``).
Valid stands keep ``r <= 1`` and ``n >= n_min``.

Growth is driven by a stand-level energy supply ``V(t)`` (basal-area increment
per year at full density), reduced at lower density by a competition factor
``g(r)``; each tree then grows at ``g(r)/n * V(t)``.  Thinning removes trees at
a rate ``e(t)`` bounded by ``e_max``.  The dominant height ``h0(t)`` is an
output only: it never feeds back into the dynamics.

This module holds the immutable parameter/state containers (with the
density index ``StandParams.density`` and the ceiling basal area
``StandParams.ceiling_s``), the two competition families for ``g``
(hyperbolic and power; linear growth is power with theta = 0) with their
derived functionals, the environment families for ``V`` (with the
closed-form energy and its inverse) and ``h0``, and the pointwise operations
(``rdi``, ``boundary_control``, ``energy``).  :class:`Scenario` holds the
closed forms of the dynamics:

* ``growth_rate``: the per-tree growth g(r)/n * V(t), and its state factor
  ``growth_per_energy``;
* ``ceiling_time``: when uncut growth reaches the ceiling r = 1;
* ``uncut_s_after``: the basal area along uncut growth below the ceiling;
* ``cut_s_after``: the basal area of a stand while it is thinned, in
  closed form under power growth and by four-node Gauss-Legendre
  collocation under fagacees growth;
* ``arc_count_after`` and ``arc_exhaustion_time``: the count along the
  ceiling, and when it reaches n_min.

All of them accept scalars or numpy arrays.  Their cases from the initial
state, ``t_sup0`` (the first ceiling hit without cutting) and ``t_cap0``
(the exhaustion of the arc started there), are computed once per scenario.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "StandParams",
    "StandState",
    "GrowthFunction",
    "GrowthEnergy",
    "DominantHeight",
    "Environment",
    "Scenario",
    "rdi",
    "boundary_control",
    "energy",
]

# Margin added to sampled/closed-form elasticity bounds so that strict
# bracketing holds at floating-point resolution.
_GAMMA_MARGIN = 1e-9
# Elasticity of the Fagacees family tends to 1 as r -> 0; its reported upper
# bound is taken at this offset from 0.
_GAMMA_EDGE = 1e-6
# Iteration cap of the Newton inversion in Scenario.uncut_s_after.
_NEWTON_MAX_ITER = 50
# The four-node Gauss-Legendre rule on [-1, 1] of Scenario.cut_s_after: nodes
# -x, +x for each x below, with weight w.  Written out (they are those of
# numpy.polynomial.legendre.leggauss(4)) so that the model does not import
# numpy.polynomial.
_GAUSS_X = (0.33998104358485626, 0.8611363115940526)
_GAUSS_W = (0.6521451548625461, 0.34785484513745385)
# The nodes in ascending order, and the rule's collocation matrix on them:
# entry [j][k] is the integral from -1 to node j of the Lagrange polynomial
# of node k, so that row j sums to 1 + node j (evaluated in 60-digit
# arithmetic and rounded).  Stored column-major, so that the einsum of a
# sweep's node update loops innermost over the nodes or steps, not the summed
# k: node j is its step start plus a[j][0] f0 + ... + a[j][3] f3, summed in
# that order (row-major, or by BLAS's A @ f, some blocks sum in another order).
_GAUSS_NODES = (-_GAUSS_X[1], -_GAUSS_X[0], _GAUSS_X[0], _GAUSS_X[1])
_GAUSS_A = np.asfortranarray((
    (0.17392742256872692, -0.05320836016999759, 0.02525492537880945, -0.007110299371591367),
    (0.37623623499973613, 0.32607257743127305, -0.05576085720494179, 0.013471001189076312),
    (0.33438384394837756, 0.7079060120674879, 0.32607257743127305, -0.028381389862282287),
    (0.3549651445090452, 0.6268902294837367, 0.7053535150325437, 0.17392742256872692),
))
# Picard sweeps of a fagacees cut span: a stand is solved once a sweep moves
# none of its step-end values by more than _PICARD_TOL times its last one
# (four units in the last place), and a stand still moving after
# _PICARD_MAX_SWEEPS fails.
_PICARD_TOL = 2.0 ** -50
_PICARD_MAX_SWEEPS = 64
# Cells per stand and step that Scenario.cut_s_after keeps, for sizing
# blocks: about the node arrays of a fagacees sweep (counts, energy, basal
# area and growth), four cells each.
_CUT_CELLS = 4 * len(_GAUSS_NODES)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_finite(fields: dict) -> None:
    """Reject NaN and infinite values, naming the offending field."""
    for name, value in fields.items():
        _require(value is None or math.isfinite(value),
                 f"{name} must be finite (got {value})")


@dataclass(frozen=True)
class StandParams:
    """Species/site constants of the stand.

    q        Reineke exponent, must satisfy 1 < q < 2.
    A        self-thinning coefficient exp(-C0) (trees^-1 * m^-q).
    n_min    minimum tree count kept in the stand.
    e_max    maximum thinning rate (trees/year).
    t_star   validity horizon of the model (years).
    """

    q: float
    A: float
    n_min: float
    e_max: float
    t_star: float

    def __post_init__(self) -> None:
        _require_finite({"q": self.q, "A": self.A, "n_min": self.n_min,
                         "e_max": self.e_max, "t_star": self.t_star})
        _require(1.0 < self.q < 2.0, f"q must satisfy 1 < q < 2 (got {self.q})")
        _require(self.A > 0.0, f"A must be positive (got {self.A})")
        _require(self.n_min > 0.0, f"n_min must be positive (got {self.n_min})")
        _require(self.e_max > 0.0, f"e_max must be positive (got {self.e_max})")
        _require(self.t_star > 0.0, f"t_star must be positive (got {self.t_star})")
        _require(np.isfinite(self.s_bar) and self.s_bar > 0.0,
                 "derived maximal basal area (A*n_min)**(-2/q) must be finite and positive")

    def ceiling_s(self, n):
        """Basal area (A n)**(-2/q) at which a stand of n trees sits on the
        density ceiling r = 1."""
        return (self.A * n) ** (-2.0 / self.q)

    def density(self, n, s):
        """Relative density index r = A n s**(q/2) of n trees of basal area s."""
        return self.A * n * s ** (self.q / 2.0)

    @property
    def s_bar(self) -> float:
        """Largest basal area compatible with the density ceiling at n = n_min."""
        return float(self.ceiling_s(self.n_min))


@dataclass(frozen=True)
class StandState:
    """Instantaneous state: time t (years), basal area s (m²), tree count n."""

    t: float
    s: float
    n: float

    def __post_init__(self) -> None:
        _require_finite({"t": self.t, "s": self.s, "n": self.n})
        _require(self.s > 0.0, f"s must be positive (got {self.s})")
        _require(self.n > 0.0, f"n must be positive (got {self.n})")


@dataclass(frozen=True)
class GrowthFunction:
    """Competition reduction factor g(r) with its derived functionals.

    Two families:

    * ``fagacees``: g(r) = (1+p) r / (r+p), p > 0 (hyperbolic saturation);
    * ``power``:    g(r) = r**(1-theta), 0 <= theta < 1.

    :meth:`linear` is ``power(0.0)``, g(r) = r: the degenerate case in which
    competition does not amplify per-tree growth (g(r) > r fails).

    Derived quantities: the elasticity ``gamma(r) = r g'(r) / g(r)``, with
    its bounds ``gamma_lower`` and ``gamma_upper`` over densities in (0, 1),
    and the density integral behind the ceiling-hit time.  The derivative
    of r/g(r) is (1 - gamma(r)) / g(r).
    """

    kind: str
    p: float | None = None
    theta: float | None = None
    gamma_lower: float = field(init=False)
    gamma_upper: float = field(init=False)

    def __post_init__(self) -> None:
        _require_finite({"p": self.p, "theta": self.theta})
        if self.kind == "fagacees":
            _require(self.p is not None and self.p > 0.0,
                     f"fagacees shape p must be positive (got {self.p})")
            lo = self.p / (1.0 + self.p)           # attained at r = 1
            hi = self.p / (self.p + _GAMMA_EDGE)   # sup 1 approached as r -> 0
        elif self.kind == "power":
            _require(self.theta is not None and 0.0 <= self.theta < 1.0,
                     f"power exponent theta must lie in [0, 1) (got {self.theta})")
            lo = hi = 1.0 - self.theta
        else:
            raise ValueError(f"unknown growth variant {self.kind!r}")
        object.__setattr__(self, "gamma_lower", max(lo - _GAMMA_MARGIN, 0.0))
        object.__setattr__(self, "gamma_upper", min(hi + _GAMMA_MARGIN, 1.0))

    @classmethod
    def fagacees(cls, p: float) -> "GrowthFunction":
        return cls(kind="fagacees", p=p)

    @classmethod
    def power(cls, theta: float) -> "GrowthFunction":
        return cls(kind="power", theta=theta)

    @classmethod
    def linear(cls) -> "GrowthFunction":
        return cls.power(0.0)

    # The closed forms below are polymorphic in r (float or ndarray).

    def g(self, r):
        if self.kind == "fagacees":
            return (1.0 + self.p) * r / (r + self.p)
        return r ** (1.0 - self.theta)

    def g_prime(self, r):
        if self.kind == "fagacees":
            return (1.0 + self.p) * self.p / (r + self.p) ** 2
        return (1.0 - self.theta) * r ** (-self.theta)

    def density_integral(self, r, b: float):
        """Int_r^1 u**b / g(u) du for 0 < r <= 1 and b > 0, in closed form:
        :meth:`density_at_log` at log r."""
        return self.density_at_log(np.log(r), b)[0]

    def density_at_log(self, x, b: float):
        """The density integral D at x = log r, and its slope dD/dx =
        -r**(b+1) / g(r).

        Both families reduce to tails Int_r^1 u**(c-1) du = (1 - r**c)/c,
        evaluated as -expm1(c x)/c so that no digits cancel as r -> 1 or
        c -> 0 (the latter as q -> 2 with b = 2/q - 1).  The slope is a sum
        of the same expm1 terms, so a Newton step in x takes no exp, log or
        power.
        """
        if self.kind == "fagacees":
            rb, rb1 = np.expm1(b * x), np.expm1((b + 1.0) * x)
            w = self.p / (1.0 + self.p)
            return (-rb1 / (b + 1.0) / (1.0 + self.p) - rb / b * w,
                    -(1.0 + rb1) / (1.0 + self.p) - (1.0 + rb) * w)
        rc = np.expm1((b + self.theta) * x)
        return -rc / (b + self.theta), -(1.0 + rc)

    def gamma(self, r):
        """Elasticity r g'(r) / g(r); lies in (0, 1] under concavity."""
        if self.kind == "fagacees":
            return self.p / (r + self.p)
        res = 1.0 - self.theta
        return np.full_like(np.asarray(r, dtype=float), res) if np.ndim(r) else res

    @property
    def amplifies(self) -> bool:
        """True when g(r) > r on (0, 1) (fails only for linear growth, theta = 0)."""
        return self.kind == "fagacees" or self.theta > 0.0


@dataclass(frozen=True)
class GrowthEnergy:
    """Stand-level energy available for basal-area growth, V(t) (m²/year).

    Two families, both positive, non-increasing, and convex:

    * ``exponential``: V(t) = v0 * exp(-lam * t)
    * ``hyperbolic``:  V(t) = v0 / (1 + lam * t)

    ``lam = 0`` (constant supply) is accepted for testing convenience even
    though the model calls for strictly decreasing energy; construction then
    sets ``weakly_decreasing`` and emits a warning.
    """

    family: str
    v0: float
    lam: float
    weakly_decreasing: bool = field(init=False)

    def __post_init__(self) -> None:
        _require(self.family in ("exponential", "hyperbolic"),
                 f"unknown energy family {self.family!r}")
        _require_finite({"v0": self.v0, "lambda": self.lam})
        _require(self.v0 > 0.0, f"v0 must be positive (got {self.v0})")
        _require(self.lam >= 0.0, f"lambda must be non-negative (got {self.lam})")
        object.__setattr__(self, "weakly_decreasing", self.lam == 0.0)
        if self.weakly_decreasing:
            warnings.warn("lambda = 0 gives a constant (only weakly decreasing) "
                          "energy supply", stacklevel=2)

    def value(self, t):
        if self.family == "exponential":
            return self.v0 * np.exp(-self.lam * t)
        return self.v0 / (1.0 + self.lam * t)

    __call__ = value

    def integral(self, t0, t1):
        """Closed-form cumulative energy over [t0, t1] (floats or ndarrays)."""
        # np.any only for arrays: it would triple the cost of a ceiling step.
        arrays = isinstance(t0, np.ndarray) or isinstance(t1, np.ndarray)
        if (t1 < t0).any() if arrays else t1 < t0:
            raise ValueError(f"empty interval: t0={t0} > t1={t1}")
        # Written in expm1/log1p so that no digits cancel over short spans.
        if self.lam == 0.0:
            return self.v0 * (t1 - t0)
        if self.family == "exponential":
            return -self.v0 * np.exp(-self.lam * t0) * np.expm1(-self.lam * (t1 - t0)) / self.lam
        return self.v0 / self.lam * np.log1p(self.lam * (t1 - t0) / (1.0 + self.lam * t0))

    def time_at(self, t0, amount):
        """Inverse of :meth:`integral` in its upper limit: the time t1 >= t0
        with ``integral(t0, t1) == amount`` for ``amount >= 0``.

        ``inf`` where the supply left after t0 (v0 exp(-lam t0) / lam for the
        exponential family) falls short of ``amount``.  Polymorphic in
        ``amount`` and ``t0`` (float or ndarray).
        """
        amount = np.asarray(amount, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.lam == 0.0:
                t1 = t0 + amount / self.v0
            elif self.family == "hyperbolic":
                # 1 + lam t1 = (1 + lam t0) exp(lam amount / v0)
                t1 = t0 + (1.0 + self.lam * t0) * np.expm1(self.lam * amount / self.v0) / self.lam
            else:
                # exp(-lam t1) = exp(-lam t0) (1 - y), y the share of the supply used
                y = self.lam * amount / self.v0 * np.exp(self.lam * t0)
                t1 = np.where(y < 1.0, t0 - np.log1p(-y) / self.lam, np.inf)
        return t1 if np.ndim(t1) else float(t1)


@dataclass(frozen=True)
class DominantHeight:
    """Dominant height h0(t) (m): saturating family h_inf * t / (t + tau).

    Positive, increasing, and concave for t > 0, with h0(0) = 0.
    """

    h_inf: float
    tau: float
    family: str = "saturating"

    def __post_init__(self) -> None:
        _require(self.family == "saturating",
                 f"unknown height family {self.family!r}")
        _require_finite({"h_inf": self.h_inf, "tau": self.tau})
        _require(self.h_inf > 0.0, f"h_inf must be positive (got {self.h_inf})")
        _require(self.tau > 0.0, f"tau must be positive (got {self.tau})")

    def value(self, t):
        return self.h_inf * t / (t + self.tau)

    __call__ = value

    def derivative(self, t):
        return self.h_inf * self.tau / (t + self.tau) ** 2


@dataclass(frozen=True)
class Environment:
    """Growth-energy supply V and dominant-height output h0.

    The realized tree height equals ``h0`` because all trees share the same
    basal area, so ``h0`` doubles as the per-tree height output.
    """

    v: GrowthEnergy
    h0: DominantHeight


@dataclass(frozen=True)
class Scenario:
    """Full problem instance: parameters, growth function, environment, start."""

    params: StandParams
    growth: GrowthFunction
    env: Environment
    initial: StandState

    def __post_init__(self) -> None:
        # Led by the key, so that a scenario file error cites the t line.
        _require(self.initial.t == 0.0,
                 f"t = 0 is required of the initial state (got {self.initial.t})")
        _require(self.initial.n >= self.params.n_min,
                 f"initial n={self.initial.n} below n_min={self.params.n_min}")
        r0 = self.rdi0
        _require(r0 < 1.0, f"initial RDI must be below 1 (got {r0})")

    @property
    def rdi0(self) -> float:
        return float(rdi(self.params, self.initial.n, self.initial.s))

    @cached_property
    def t_sup0(self) -> float:
        """First time the density reaches the ceiling under zero cutting: the
        t = 0 case of :meth:`ceiling_time`, ``inf`` beyond t_star."""
        root = self.ceiling_time(0.0, self.initial.s, self.initial.n)
        return math.inf if root > self.params.t_star else root

    @cached_property
    def t_cap0(self) -> float:
        """When the ceiling arc started at :attr:`t_sup0` reaches n_min:
        :meth:`arc_exhaustion_time`, ``inf`` beyond t_star or when t_sup0 is."""
        if self.t_sup0 == math.inf:
            # Not left to the closed form: with a hyperbolic supply, the energy
            # inverse from t = inf can be inf * 0 = NaN, which no comparison catches.
            return math.inf
        root = self.arc_exhaustion_time(self.t_sup0, self.initial.n)
        return math.inf if root > self.params.t_star else root

    def growth_rate(self, t, s, n):
        """Basal-area growth per tree ds/dt = g(r)/n * V(t) at the state (t, s, n)."""
        return self.growth_per_energy(s, n) * self.env.v(t)

    def growth_per_energy(self, s, n):
        """The state factor g(r)/n of :meth:`growth_rate`, so that a caller
        stepping many states over one time grid takes V(t) once per time."""
        return self.growth.g(self.params.density(n, s)) / n

    def ceiling_time(self, t, s, n):
        """Time t1 at which a stand growing uncut from (t, s, n), below the
        density ceiling, reaches r = 1; ``inf`` when the energy never suffices.

        At constant count the density equation separates into

            Int_r^1 u**(2/q-1)/g(u) du = (q/2) A**(2/q) n**(2/q-1) * Energy(t, t1).
        """
        p = self.params
        b = 2.0 / p.q - 1.0
        r = p.density(n, s)
        coeff = p.q / 2.0 * n ** b * p.A ** (2.0 / p.q)
        return self.env.v.time_at(t, self.growth.density_integral(r, b) / coeff)

    def uncut_s_after(self, s, n, amount):
        """Basal area of a stand that grows uncut from (s, n), below the
        density ceiling, while it absorbs ``amount`` of growth energy.

        The relation of :meth:`ceiling_time` solved for the density:
        D(r1) = D(r) - (q/2) A**(2/q) n**b * amount, with D the density
        integral.  Power growth inverts it explicitly,

            s1**k = s**k + k A**(1-theta) n**(-theta) * amount,
            k = 1 - (q/2)(1-theta);

        fagacees by Newton's method in x = log r from the starting density,
        on D and its slope from :meth:`GrowthFunction.density_at_log`: sums
        of expm1(b x) and expm1((b+1) x), so a step takes two expm1 and no
        exp, log or power.  D is decreasing and concave in x, so the first
        step lands at or above the root (clipped to r = 1) and the later ones
        descend to it monotonically.  Each element stops on its own: one step
        after its step falls below 1e-9, as convergence is quadratic, so an
        element's result does not depend on the array it comes in.  ``s``,
        ``n`` and ``amount`` (floats or ndarrays) broadcast against each
        other, and ``amount`` must not carry a stand past the ceiling.
        """
        p, growth = self.params, self.growth
        q2 = p.q / 2.0
        if growth.kind == "power":
            k, coef = self._power_terms()
            return (s ** k + coef * n ** (-growth.theta) * amount) ** (1.0 / k)
        b = 2.0 / p.q - 1.0
        # Powers by np.power on arrays, so that those of scalars round as
        # those of arrays do.
        s, n = np.asarray(s, dtype=float), np.asarray(n, dtype=float)
        x_a = np.log(p.density(n, s))
        target = (growth.density_at_log(x_a, b)[0]
                  - q2 * n ** b * p.A ** (2.0 / p.q) * np.asarray(amount, dtype=float))
        x = np.full(np.shape(target), x_a)
        polish = np.zeros(x.shape, dtype=bool)    # within 1e-9: one step left
        done = np.zeros(x.shape, dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            d, slope = growth.density_at_log(x, b)
            x_new = np.minimum(x - (d - target) / slope, 0.0)
            dx = np.abs(x_new - x)
            x = np.where(done, x, x_new)
            done |= polish
            if done.all() or not np.isfinite(dx).all():
                break
            polish = dx < 1e-9
        if not (done.all() and np.isfinite(x).all()):
            raise RuntimeError(f"uncut growth inversion did not converge from s={s}, n={n}")
        s1 = s * np.exp((x - x_a) / q2)
        return s1 if np.ndim(s1) else float(s1)

    def _power_terms(self) -> tuple[float, float]:
        """The exponent k = 1 - (q/2)(1-theta) of the power-growth relations
        and their coefficient k A**(1-theta)."""
        p, theta = self.params, self.growth.theta
        k = 1.0 - p.q / 2.0 * (1.0 - theta)
        return k, k * p.A ** (1.0 - theta)

    def cut_s_after(self, s, times, counts):
        """Basal area of a stand thinned from (times[0], s, counts[0]), at
        each later time of ``times``, its count linear between the
        ``counts`` of successive times.

        Under power growth the basal-area equation separates at any count:

            s1**k = s**k + k A**(1-theta) Int n(tau)**(-theta) V(tau) dtau,

        the relation of :meth:`uncut_s_after` with the count inside the
        integral.  The integral is summed over the steps between successive
        times, by a four-node Gauss-Legendre rule on each; with n linear the
        integrand is smooth, and at the integrator's steps the rule is exact
        to rounding.  Fagacees growth does not separate while the count
        falls, and each step is solved by collocation at the same four
        nodes (:meth:`_collocate`), the eighth-order implicit Runge-Kutta
        method, as exact to rounding at those steps.  ``times`` and
        ``counts`` run along their last axis and broadcast against each
        other (one time grid for many stands), with ``s`` one value per
        stand.  Returns s at ``times[..., 1:]``.
        """
        half_t = 0.5 * (times[..., 1:] - times[..., :-1])
        half_n = 0.5 * (counts[..., 1:] - counts[..., :-1])
        # The energy and the count at the nodes of every step, node first.
        x = np.reshape(_GAUSS_NODES, (-1,) + (1,) * max(half_t.ndim, half_n.ndim))
        v_nodes = self.env.v(times[..., :-1] + half_t + x * half_t)
        n_nodes = counts[..., :-1] + half_n + x * half_n
        if self.growth.kind == "fagacees":
            return self._collocate(s, half_t, v_nodes, n_nodes)
        f = v_nodes * n_nodes ** -self.growth.theta
        step = _GAUSS_W[0] * (f[1] + f[2]) + _GAUSS_W[1] * (f[0] + f[3])
        k, coef = self._power_terms()
        weighted = (half_t * step).cumsum(axis=-1)
        return (np.asarray(s)[..., None] ** k + coef * weighted) ** (1.0 / k)

    def _collocate(self, s, half_t, v_nodes, n_nodes):
        """:meth:`cut_s_after` for fagacees growth, from the half steps and
        the energy and counts at the nodes of every step (node first).

        The collocation conditions of every step of a span are solved at
        once by Picard sweeps.  Each sweep evaluates ds/dt at the nodes,
        sums each step's increment by the Gauss weights and accumulates
        the increments along time, then sets the node values from the step
        starts by the collocation matrix.  g <= 1 + p bounds ds/dt and s
        only grows, so the sweeps converge everywhere, the error of sweep m
        shrinking by about (q/2) ln(s_end/s_start) / m.  Each stand stops on
        its own (``_PICARD_TOL``), so its result does not depend on the
        stands it is solved with.
        """
        m = half_t.shape[-1]
        lead = np.broadcast_shapes(np.shape(s), half_t.shape[:-1], n_nodes.shape[1:-1])
        # (node, stand, step), the stands flattened.
        full, shape = (len(_GAUSS_NODES),) + lead + (m,), (len(_GAUSS_NODES), math.prod(lead), m)
        n_nodes = np.broadcast_to(n_nodes, full).reshape(shape)
        # The half step goes into the energy, so that a node's growth over
        # the step is growth_per_energy times it.
        vh = np.broadcast_to(v_nodes * half_t, full).reshape(shape)
        s0 = np.broadcast_to(np.asarray(s, dtype=float), lead).reshape(-1, 1)
        out = np.empty(shape[1:])
        if not (m and shape[1]):
            return out.reshape(lead + (m,))
        g, density = self.growth.g, self.params.density
        nodes = np.broadcast_to(s0, shape)
        stands = np.arange(shape[1])        # the stands still sweeping
        ends = None
        for _ in range(_PICARD_MAX_SWEEPS):
            f = g(density(n_nodes, nodes)) / n_nodes * vh
            last = ends
            ends = s0 + (_GAUSS_W[0] * (f[1] + f[2]) + _GAUSS_W[1] * (f[0] + f[3])).cumsum(axis=-1)
            starts = np.concatenate((s0, ends[:, :-1]), axis=1)
            nodes = starts + np.einsum("jk,ksm->jsm", _GAUSS_A, f)
            if last is None:
                continue
            solved = np.abs(ends - last).max(axis=1) <= _PICARD_TOL * ends[:, -1]
            if solved.any():
                out[stands[solved]] = ends[solved]
                left = ~solved
                if not left.any():
                    return out.reshape(lead + (m,))
                stands, s0, ends = stands[left], s0[left], ends[left]
                nodes, n_nodes, vh = nodes[:, left], n_nodes[:, left], vh[:, left]
        raise RuntimeError(f"fagacees cut span did not converge in {_PICARD_MAX_SWEEPS} "
                           f"sweeps from s={s0[:, 0]}")

    # Along the density ceiling r = 1 the control is (q/2) V/s and s =
    # (A n)**(-2/q), so the count obeys dn/dt = -(q/2) A**(2/q) n**(2/q) V(t),
    # which separates into
    #
    #     n(t1)**(1-2/q) = n(t0)**(1-2/q) + A**(2/q) (1-q/2) * Energy(t0, t1).
    #
    # The two methods below are that relation solved for the count and for
    # the time; both are polymorphic in n (float or ndarray).

    def _arc_terms(self) -> tuple[float, float]:
        q = self.params.q
        return 1.0 - 2.0 / q, self.params.A ** (2.0 / q) * (1.0 - q / 2.0)

    def arc_count_after(self, n, amount):
        """Count on the density ceiling after a stand at count ``n`` absorbs
        ``amount`` of growth energy."""
        expo, coef = self._arc_terms()
        return (n ** expo + coef * amount) ** (1.0 / expo)

    def arc_exhaustion_time(self, t, n):
        """Time at which a stand riding the density ceiling from (t, n)
        reaches n_min; ``inf`` when the energy supply never suffices."""
        expo, coef = self._arc_terms()
        return self.env.v.time_at(t, (self.params.n_min ** expo - n ** expo) / coef)


# ---------------------------------------------------------------------------
# Pointwise operations.


def rdi(params: StandParams, n, s):
    """Relative density index r = A * n * s**(q/2)."""
    if np.any(np.asarray(n) <= 0.0) or np.any(np.asarray(s) <= 0.0):
        raise ValueError("rdi requires n > 0 and s > 0")
    return params.density(n, s)


def boundary_control(params: StandParams, env: Environment, s, t):
    """Thinning rate (q/2) V(t)/s that freezes the RDI on the r = 1 ceiling."""
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("boundary control requires s > 0")
    return params.q / 2.0 * env.v(t) / s


def energy(env: Environment, t0: float, t1: float) -> float:
    """Cumulative growth energy over [t0, t1] (closed form per family)."""
    if not 0.0 <= t0 <= t1:
        raise ValueError(f"need 0 <= t0 <= t1 (got t0={t0}, t1={t1})")
    return float(env.v.integral(t0, t1))

