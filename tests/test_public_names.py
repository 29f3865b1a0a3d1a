import importlib

import pytest

import standgrowth as sg

MODULES = ("analysis", "cli", "config", "dynamics", "economics", "model",
           "optimizer", "trajectories")
# Second copies of formulas that have one home: the GrowthFunction methods,
# Scenario.growth_rate, Trajectory.drdt and Scenario.arc_count_after.
DELETED = ("g_eval", "script_g", "gamma", "rhs", "drdt", "arc_count")


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    mod = sg if module is None else importlib.import_module(f"standgrowth.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


@pytest.mark.parametrize("name", DELETED)
def test_deleted_formula_copies_are_gone(name):
    assert name not in sg.__all__
    assert not hasattr(sg, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"standgrowth.{module}"), name)


def test_no_second_copy_on_the_types():
    assert not hasattr(sg.GrowthFunction, "script_g")
    assert not hasattr(sg.StandState, "rdi")
