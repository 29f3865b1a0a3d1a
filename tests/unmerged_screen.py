"""The prefix tree without merged rows, which ``_screen_candidates`` replaced.

Kept as the reference for the differential test (``test_screen_tree.py``):
every prefix keeps its own row, so each segment advances c^j rows in
``itertools.product`` order, however many of them share a state.  Its
``_Segment`` and its grid are the screen's own, on the screen's default
number of steps, so the two must agree bit for bit.
"""

import inspect

import numpy as np

from standgrowth.optimizer import _Segment, _screen_candidates, _screen_start

STEPS = inspect.signature(_screen_candidates).parameters["steps_total"].default


def unmerged_screen(scenario, econ, horizon: float, codes: np.ndarray, k: int):
    """``_screen_candidates`` with one row per prefix."""
    c = len(codes)
    grid, steps_per, h, rows = _screen_start(scenario, econ, horizon, k, STEPS)
    for seg in range(k):
        rows = rows.take(np.repeat(np.arange(rows.s.size), c))
        times = grid[seg * steps_per:(seg + 1) * steps_per + 1]
        _Segment(scenario, econ, times, h, rows).advance(np.tile(codes, rows.s.size // c))
    return np.where(rows.dead, -np.inf, rows.value), ~rows.dead, rows.n
