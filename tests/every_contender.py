"""The re-score that integrated every contender, which ``brute_force`` replaced.

Kept as the reference for the differential test (``test_optimizer.py``).
It screens the default level set, then re-integrates each of the best
``rescore_top`` finite screen values on its own, with the canonical
policies, and picks the best run by the search's tie rule.  Candidates of
one screened state each get a run of their own, so rounding between those
runs can decide a tie among them.
"""

import numpy as np

from standgrowth.optimizer import (_HOLD_CODE, _canonical_values, _fine_runs,
                                   _levels_to_policy, _pick_best, _reaches_n_min,
                                   _screen_candidates, canonical_policies)


def screen(scenario, econ, horizon: float, n_intervals: int, terminal_n_min: bool):
    """Codes, screen values and final counts of the default level set, with
    the terminal constraint applied as ``brute_force`` applies it."""
    p = scenario.params
    codes = np.array(sorted({_HOLD_CODE, 0.0, p.e_max}))
    values, _, n_end = _screen_candidates(scenario, econ, horizon, codes, n_intervals)
    if terminal_n_min:
        values = np.where(_reaches_n_min(p, n_end), values, -np.inf)
    return codes, values, n_end


def every_contender_search(scenario, econ, horizon: float, n_intervals: int,
                           terminal_n_min: bool = False, rescore_top: int = 8):
    """(best, canonical values, contenders): ``best`` is (value, policy),
    None where no run has a value, and the contenders map each re-scored
    candidate index to its policy."""
    codes, values, _ = screen(scenario, econ, horizon, n_intervals, terminal_n_min)
    order = np.argsort(-values, kind="stable")
    top = [i for i in order[:max(rescore_top, 1)] if np.isfinite(values[i])]
    named = canonical_policies(scenario, horizon)
    contenders = {}
    for i in top:
        row = codes[list(np.unravel_index(i, (codes.size,) * n_intervals))]
        contenders[int(i)] = named[f"cand{i}"] = _levels_to_policy(row, horizon, n_intervals)
    runs = _fine_runs(scenario, econ, horizon, named, terminal_n_min=terminal_n_min)
    return _pick_best(runs, named, horizon), _canonical_values(runs), contenders
