"""Fingerprint of the package's outputs, for refactors that must not move them.

Prints one line per case, ``<case> <sha256>``, over the bits of:

* the screen and the search: ``_screen_candidates``'s arrays and
  ``brute_force(...).to_json_dict()`` on the five bundled scenarios, for
  k in {5, 8}, horizons 0.1, 0.3, 0.5, 0.7 and 0.9 into the admissible
  window, and the levels (0, e_max, hold), (0, e_max/100, hold) and
  (0, 0.5, hold);
* ``integrate`` at each scenario's ``[run] horizon``: the sample columns,
  events, spans and ``objective`` of 150 ``sample_policies`` and 50
  terminal ones (rng 11), the named policies zero, max, e0 and esup,
  ``hold|hold|e_max`` switching at 0.6 H and 0.8 H, and a constant
  e_max/100;
* the ``verify --policies 20`` report at seeds 0, 1 and 7, and with
  ``--inject-fault 1e-4 --seed 3 --policies 15``.

A case that raises hashes its exception's type and message.  Run it from
the repository root, before and after a change, and diff the outputs:

    PYTHONPATH=src python tests/fingerprint.py > before.txt

It is not a test module, so pytest does not collect it; it takes about ten
seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np

import standgrowth as sg
from standgrowth.cli import main
from standgrowth.dynamics import HOLD, Policy, integrate, sample_policies
from standgrowth.economics import objective
from standgrowth.optimizer import _HOLD_CODE, _screen_candidates, brute_force

from conftest import window_horizon

# Relative, so that the verify reports, which name their scenario file, do
# not depend on where the checkout lies.
SCENARIOS = sorted(pathlib.Path("scenarios").glob("*.ini"))


def _digest(*parts) -> str:
    """SHA-256 over the parts: arrays by their bytes, the rest by ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _guarded(fn):
    """``fn()``'s parts, or its exception's type and message."""
    try:
        return fn()
    except Exception as exc:        # the failure is part of the output
        return (type(exc).__name__, str(exc))


def screen_cases():
    for path in SCENARIOS:
        loaded = sg.load_scenario(path)
        scn, econ, e_max = loaded.scenario, loaded.economics, loaded.scenario.params.e_max
        for k in (5, 8):
            for u in (0.1, 0.3, 0.5, 0.7, 0.9):
                H = window_horizon(scn, u)
                for name, levels in (("max", (0.0, e_max)), ("slow", (0.0, e_max / 100)),
                                     ("half", (0.0, 0.5))):
                    codes = np.array(sorted(levels + (_HOLD_CODE,)))
                    screen = _guarded(lambda: _screen_candidates(scn, econ, H, codes, k))
                    search = _guarded(lambda: json.dumps(
                        brute_force(scn, econ, H, k, levels + (HOLD,)).to_json_dict(),
                        sort_keys=True))
                    yield f"screen/{path.stem}/k{k}/u{u}/{name}", _digest(*screen, search)


def _run_parts(scn, econ, policy, H):
    traj = integrate(scn, policy, H)
    return (traj.t, traj.s, traj.n, traj.e, traj.r, traj.drdt, traj.on_arc, traj.events,
            traj.validity_end, traj.exited, traj.spans, objective(scn, econ, traj))


def integrate_cases():
    for path in SCENARIOS:
        loaded = sg.load_scenario(path)
        scn, econ, H, e_max = (loaded.scenario, loaded.economics, loaded.run.horizon,
                               loaded.scenario.params.e_max)
        rng = np.random.default_rng(11)
        policies = {f"sampled{i}": pol for i, pol in enumerate(
            sample_policies(scn, 150, rng, H) + sample_policies(scn, 50, rng, H, terminal=True))}
        for kind in ("zero", "max", "e0", "esup"):
            policies[kind] = sg.build_policy(scn, kind)
        policies["ride"] = Policy.piecewise([0.6 * H, 0.8 * H], [HOLD, HOLD, e_max])
        policies["slow"] = Policy.piecewise([], [e_max / 100])
        for name, policy in policies.items():
            yield (f"integrate/{path.stem}/{name}",
                   _digest(*_guarded(lambda: _run_parts(scn, econ, policy, H))))


def verify_cases():
    runs = [(f"seed{seed}", ["--policies", "20", "--seed", str(seed)]) for seed in (0, 1, 7)]
    runs.append(("fault", ["--inject-fault", "1e-4", "--seed", "3", "--policies", "15"]))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "verify.json")
        for path in SCENARIOS:
            for name, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(["verify", str(path), *argv, "--out", out])
                with open(out, "rb") as fh:
                    yield f"verify/{path.stem}/{name}", _digest(code, fh.read())


if __name__ == "__main__":
    for cases in (screen_cases, integrate_cases, verify_cases):
        for case, digest in cases():
            print(case, digest)
