"""Bracketed bisection for the two times the model has no closed form for.

* The arc-leaving time of the exact-target policy ``et`` solves a monotone
  equation with a known bracket.
* A ceiling crossing under a positive thinning rate under fagacees growth,
  inside one integrator step: the count then falls while the basal area
  grows, and the density equation does not separate.  Such a crossing ends
  the run; the integrator bisects it to the rounding of its time.  Under
  power growth the equation separates at any count, and the crossing is the
  root of a smooth function (``dynamics._cut_crossing``).

Bisection gives a guaranteed absolute tolerance on either root.  Every other
characteristic and event time is a closed form.
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
