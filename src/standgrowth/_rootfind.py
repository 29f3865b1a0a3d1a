"""Bracketed bisection for the two times the model has no closed form for.

The arc-leaving time of the exact-target policy ``et`` solves a monotone
equation with a known bracket, and a ceiling crossing under a positive
thinning rate is the root of the density inside one integrator step
(``dynamics._cut_crossing``).  Bisection locates both, with a guaranteed
absolute tolerance on the root.  Every other characteristic and event time
is a closed form.
"""

from __future__ import annotations

from typing import Callable

TIME_TOL = 1e-9
MAX_ITER = 200


class BracketError(RuntimeError):
    """``f`` does not change sign on the given bracket."""


def bisect(f: Callable[[float], float], lo: float, hi: float,
           xtol: float = TIME_TOL, max_iter: int = MAX_ITER) -> float:
    """Root of ``f`` in ``[lo, hi]``; ``f(lo)`` and ``f(hi)`` must not share a sign."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}] (f(lo)={flo}, f(hi)={fhi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < xtol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
