"""Timber price model and the revenue objective of a thinning schedule.

A tree of basal area s sold at time t is worth

    P(s, t) = k * s**alpha * h0(t) * exp(-delta * t)

(price per unit volume proxy k s**alpha, times height, discounted at rate
delta; thinning costs are netted into k).  Since d/dt[h0 e^{-delta t}] =
-(delta - h0'/h0) h0 e^{-delta t}, the effective discount is

    delta_h(t) = delta - h0'(t) / h0(t),

negative while height growth outpaces monetary discounting.

The planning objective over a horizon T sums discounted thinning revenue and
the final clear-cut:

    J = Int_0^T P(s, t) e(t) dt + P(s(T), T) n(T).

Integrating by parts (dn/dt = -e) gives the equivalent form

    J = Int_0^T dP(s(t), t)/dt * n(t) dt + P(s(0), 0) n(0),

whose integrand k e^{-delta t} n s**alpha [alpha h0 (ds/dt)/s + h0' - delta h0]
depends on the state alone, with the clear-cut inside the integral.
``objective`` and ``objective_ibp`` compute the two forms independently, as
sums over the spans that the integrator recorded (``Trajectory.spans``),
inside each of which the control is smooth: composite Simpson on the
span's samples.  The direct form skips free spans, where e = 0, and takes a
cut span's constant rate and the ceiling-holding rate (q/2) V(t)/s at each
arc sample, so no rate is read across a jump.  Agreeing values are a strong
end-to-end check of the integration.  The search's screen sums the same
integrand (``revenue_rate``) piece by piece between the events, where the
control jumps and the integrand kinks.  Where the stand grows uncut, n is
fixed and the integrand n dP/dt integrates exactly to n [P(s, t)] between
the piece's ends; the other pieces take Gregory's end-corrected
trapezoid, so that ranking is fourth order in the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .model import Environment, Scenario, _require_finite, boundary_control

__all__ = [
    "EconomicModel",
    "price",
    "delta_h",
    "objective",
    "objective_ibp",
    "revenue_rate",
]


@dataclass(frozen=True)
class EconomicModel:
    """Price scale k, basal-area exponent alpha, discount rate delta."""

    k: float
    alpha: float
    delta: float

    def __post_init__(self) -> None:
        _require_finite({"k": self.k, "alpha": self.alpha, "delta": self.delta})
        if self.k <= 0.0:
            raise ValueError(f"k must be positive (got {self.k})")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive (got {self.alpha})")
        if self.delta < 0.0:
            raise ValueError(f"delta must be non-negative (got {self.delta})")


def price(econ: EconomicModel, env: Environment, s, t):
    """Discounted per-tree price k s**alpha h0(t) exp(-delta t)."""
    return econ.k * s ** econ.alpha * env.h0(t) * np.exp(-econ.delta * t)


def delta_h(econ: EconomicModel, env: Environment, t):
    """Effective discount delta - h0'(t)/h0(t); singular where h0 vanishes."""
    h = env.h0(t)
    if np.any(np.asarray(h) == 0.0):
        raise ZeroDivisionError("delta_h is singular where h0(t) = 0")
    return econ.delta - env.h0.derivative(t) / h


def _ratio(num, den):
    """num / den, with 0 where den vanishes."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples ``y`` at nodes ``x`` (1-D, len >= 2).

    The arithmetic is that of ``scipy.integrate.simpson`` (1.17) step for
    step, so results match it to the last bit: Simpson's rule for irregular
    spacing on consecutive interval pairs, Cartwright's correction for the
    last interval when the sample count is even, and the trapezoid for two
    samples.
    """
    n = len(y)
    if n == 2:
        return float(0.5 * (x[1] - x[0]) * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = _ratio(h0, h1)
    total = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - _ratio(1.0, h0divh1))
                                 + y[1:stop + 1:2] * (hsum * _ratio(hsum, h0 * h1))
                                 + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2 == 0:
        # 0-d arrays like scipy's: numpy's scalar power rounds differently.
        a, b = h[-2:-1].reshape(()), h[-1:].reshape(())
        alpha = _ratio(2 * b ** 2 + 3 * a * b, 6 * (b + a))
        beta = _ratio(b ** 2 + 3.0 * a * b, 6 * a)
        eta = _ratio(1 * b ** 3, 6 * a * (a + b))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def _span_samples(traj: Trajectory) -> list[tuple[str, int, int]]:
    """The spans of ``traj`` as ``(kind, a, b)``, with ``a`` and ``b`` the
    samples nearest to the span's start and end (the earlier one on a tie):
    a sample that an event merged into lies up to 1e-13 before the event.
    Spans whose ends fall on one sample are left out."""
    t = traj.t
    if t.size < 2:
        return []
    ends = np.array([(start, end) for _, start, end in traj.spans]).reshape(-1, 2)
    i = np.searchsorted(t, ends).clip(1, t.size - 1)
    idx = np.where(ends - t[i - 1] <= t[i] - ends, i - 1, i).tolist()
    return [(kind, a, b) for (kind, _, _), (a, b) in zip(traj.spans, idx) if b > a]


def objective(scenario: Scenario, econ: EconomicModel, traj: Trajectory) -> float:
    """Discounted revenue: thinning integral plus final clear-cut value.

    The thinning integral is a composite Simpson sum over each span that
    cuts: at the span's constant rate on a cut span, at the ceiling-holding
    rate of each sample on an arc.  Free spans cut nothing.  The final term
    values the remaining trees at the last valid time of the trajectory
    (the horizon, or the exit corner when the stand leaves its validity
    domain earlier).
    """
    t, s = traj.t, traj.s
    pr = price(econ, scenario.env, s, t)
    total = 0.0
    for kind, a, b in _span_samples(traj):
        if kind == "free":
            continue
        e = traj.e[a] if kind == "cut" else \
            boundary_control(scenario.params, scenario.env, s[a:b + 1], t[a:b + 1])
        total += _simpson(pr[a:b + 1] * e, t[a:b + 1])
    total += float(pr[-1] * traj.n[-1])
    return float(total)


def _revenue_time_factors(econ: EconomicModel, env: Environment, t) -> tuple:
    """The factors of the by-parts integrand that depend on time alone:
    k exp(-delta t), alpha h0(t), h0'(t) and delta h0(t)."""
    h = env.h0(t)
    return econ.k * np.exp(-econ.delta * t), econ.alpha * h, env.h0.derivative(t), econ.delta * h


def _revenue_rate_from(econ: EconomicModel, factors: tuple, s, n, dsdt):
    """By-parts integrand at a state moving at ds/dt = dsdt, given the time
    factors of :func:`_revenue_time_factors` at its time.

    Uses h0' - delta h0 directly so the expression stays finite at t = 0
    where the effective discount itself is singular.
    """
    disc, alpha_h, dh, delta_h0 = factors
    return disc * n * s ** econ.alpha * (alpha_h * dsdt / s + dh - delta_h0)


def revenue_rate(scenario: Scenario, econ: EconomicModel, s, n, t):
    """Integrand of the by-parts objective: d/dt[P(s(t), t)] * n at a state."""
    return _revenue_rate_from(econ, _revenue_time_factors(econ, scenario.env, t), s, n,
                              scenario.growth_rate(t, s, n))


def objective_ibp(scenario: Scenario, econ: EconomicModel, traj: Trajectory) -> float:
    """Objective via the integration-by-parts form (independent route): a
    composite Simpson sum of :func:`revenue_rate` over each span."""
    t = traj.t
    y = revenue_rate(scenario, econ, traj.s, traj.n, t)
    total = 0.0
    for _, a, b in _span_samples(traj):
        total += _simpson(y[a:b + 1], t[a:b + 1])
    total += float(price(econ, scenario.env, traj.s[0], t[0]) * traj.n[0])
    return float(total)
