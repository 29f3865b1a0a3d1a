"""The fagacees uncut inversion that ``Scenario.uncut_s_after`` replaced.

Kept as the reference for the differential test (``test_model.py``).  It
runs Newton's method in x = log r on the density integral D, taking
r = exp(x) at every step, D from ``GrowthFunction.density_integral`` (which
takes log r again) and the slope as -r**(b+1) / g(r).  Each element stops
on its own, one step after its step falls below 1e-9.
"""

import numpy as np

from standgrowth.model import _NEWTON_MAX_ITER


def uncut_s_after(scenario, s, n, amount):
    """Basal area of a fagacees stand growing uncut from (s, n) while it
    absorbs ``amount`` of growth energy."""
    p, growth = scenario.params, scenario.growth
    assert growth.kind == "fagacees"
    q2 = p.q / 2.0
    b = 2.0 / p.q - 1.0
    s, n = np.asarray(s, dtype=float), np.asarray(n, dtype=float)
    x_a = np.log(p.A * n * s ** q2)
    target = (growth.density_integral(np.exp(x_a), b)
              - q2 * n ** b * p.A ** (2.0 / p.q) * np.asarray(amount, dtype=float))
    x = np.full(np.shape(target), x_a)
    polish = np.zeros(x.shape, dtype=bool)    # within 1e-9: one step left
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        r = np.exp(x)
        slope = -np.power(r, b + 1.0) / growth.g(r)     # dD/d(log r)
        x_new = np.minimum(x - (growth.density_integral(r, b) - target) / slope, 0.0)
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
