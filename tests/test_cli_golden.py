"""The CLI's JSON outputs on the bundled scenarios, pinned to ``golden/``.

Keys, strings, integers, booleans and nulls must match exactly; floats to
a relative 1e-12, so that other numpy builds, whose last bits may differ,
pass too.  The ``scenario`` path is written as the file name alone.

After a change that moves the outputs on purpose, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import math
import pathlib

import pytest

from standgrowth.cli import main

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
SCENARIOS = ("concave_price_power", "convex_price_power", "fagacees", "linear_growth",
             "low_energy")
COMMANDS = {
    "times": ["times"],
    "optimize": ["optimize", "--intervals", "5"],
    "verify": ["verify", "--policies", "5", "--seed", "0"],
}
RTOL = 1e-12


def cli_json(command: str, scenario: str, tmp_path: pathlib.Path) -> dict:
    """The JSON that ``command`` writes for ``scenario``, its path reduced
    to the file name."""
    out = tmp_path / f"{scenario}.{command}.json"
    argv = COMMANDS[command]
    assert main([argv[0], str(SCENARIO_DIR / f"{scenario}.ini"), *argv[1:],
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    if "scenario" in payload:
        payload["scenario"] = pathlib.Path(payload["scenario"]).name
    return payload


def assert_same(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} against {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} against {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), \
            f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_output_matches_golden(scenario, command, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{scenario}.{command}.json").read_text())
    assert_same(cli_json(command, scenario, tmp_path), want)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for command in COMMANDS:
                payload = cli_json(command, scenario, pathlib.Path(tmp))
                (GOLDEN_DIR / f"{scenario}.{command}.json").write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")
