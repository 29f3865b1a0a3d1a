"""Bracketed bisection for the two times the model has no closed form for.

The arc-leaving time of the exact-target policy ``et`` solves a monotone
equation with a known bracket, and a ceiling crossing under a positive
thinning rate is the root of the density inside one integrator step
(``dynamics._cut_crossings``, which bisects all the crossings of a block of
stands at once).  Bisection locates both, elementwise, with a guaranteed
absolute tolerance on each root; a scalar bracket runs the same iterates on
floats.  Every other characteristic and event time is a closed form.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

TIME_TOL = 1e-9
MAX_ITER = 200


class BracketError(RuntimeError):
    """``f`` does not change sign on the given bracket."""


def bisect(f: Callable, lo, hi, xtol=TIME_TOL):
    """Roots of ``f`` in ``[lo, hi]``, elementwise: ``f`` maps an array of
    points to its values there, each on its own, and ``f(lo)`` and
    ``f(hi)`` must not share a sign.  Each element stops, as it would
    alone, where ``f`` vanishes or its bracket is narrower than its
    ``xtol``.  Returns an array for array brackets; scalar brackets step on
    floats, without an array operation per step, and return a float."""
    scalar = np.ndim(lo) == np.ndim(hi) == 0
    if scalar:
        lo, hi = float(lo), float(hi)
    else:
        lo, hi = (np.array(b, dtype=float) for b in np.broadcast_arrays(lo, hi))
    flo, fhi = f(lo), f(hi)
    if np.any(flo * fhi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}] (f(lo)={flo}, f(hi)={fhi})")
    if scalar:
        if flo == 0.0 or fhi == 0.0:
            return lo if flo == 0.0 else hi
        for _ in range(MAX_ITER):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0 or hi - lo < xtol:
                return mid
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)
    root = np.where(flo == 0.0, lo, hi)
    left = (flo != 0.0) & (fhi != 0.0)      # the elements still bisecting
    for _ in range(MAX_ITER):
        if not left.any():
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        stop = left & ((fm == 0.0) | (hi - lo < xtol))
        root[stop] = mid[stop]
        left &= ~stop
        lower = flo * fm < 0.0
        hi = np.where(lower, mid, hi)
        lo, flo = np.where(lower, lo, mid), np.where(lower, flo, fm)
    root[left] = 0.5 * (lo + hi)[left]
    return root
