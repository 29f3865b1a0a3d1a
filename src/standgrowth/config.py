"""Scenario files: a flat INI-style format with strict validation.

Sections and keys mirror the model types one-to-one::

    [stand]            # StandParams
    q = 1.6
    A = 0.01741
    n_min = 150
    e_max = 40
    t_star = 150

    [growth]           # GrowthFunction
    variant = power    # power | fagacees | linear (= power, theta = 0)
    theta = 0.3        # power only
    # p = 3.0          # fagacees only

    [environment]      # Environment
    v_family = exponential   # exponential | hyperbolic
    v0 = 2.0
    lambda = 0.02
    h_family = saturating
    h_inf = 30.0
    tau = 20.0

    [initial]          # StandState at t = 0
    s = 0.08
    n = 300

    [economics]        # EconomicModel (optional section)
    k = 1.0
    alpha = 6.0
    delta = 0.0

    [run]              # defaults for the command line (optional section)
    horizon = 30
    step = 0.01

Unknown sections or keys are rejected, and every validation failure is
reported with the offending file line.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .economics import EconomicModel
from .model import (DominantHeight, Environment, GrowthEnergy, GrowthFunction,
                    Scenario, StandParams, StandState)

__all__ = ["ConfigError", "RunConfig", "LoadedScenario", "load_scenario"]

_SCHEMA = {
    "stand": {"q", "A", "n_min", "e_max", "t_star"},
    "growth": {"variant", "p", "theta"},
    "environment": {"v_family", "v0", "lambda", "h_family", "h_inf", "tau"},
    "initial": {"t", "s", "n"},
    "economics": {"k", "alpha", "delta"},
    "run": {"horizon", "step"},
}
_REQUIRED_SECTIONS = ("stand", "growth", "environment", "initial")


class ConfigError(ValueError):
    """Scenario file failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    horizon: float | None = None
    step: float | None = None


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    economics: EconomicModel | None
    run: RunConfig
    path: str


def _line_index(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to the 1-based line number in the raw text."""
    index: dict[tuple[str, str], int] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            index[(section, "")] = lineno
            continue
        if "=" in stripped and section is not None:
            key = stripped.split("=", 1)[0].strip()
            index[(section, key)] = lineno
    return index


class _Reader:
    def __init__(self, path: str) -> None:
        self.path = path
        with open(path) as fh:
            text = fh.read()
        self.lines = _line_index(text)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           delimiters=("=",), strict=True)
        parser.optionxform = str  # keys are case-sensitive, mirroring field names
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        self.parser = parser

    def fail(self, section: str, key: str, message: str) -> None:
        lineno = self.lines.get((section, key)) or self.lines.get((section, "")) or 0
        raise ConfigError(f"{self.path}:{lineno}: [{section}] {key}: {message}")

    def check_schema(self) -> None:
        for section in self.parser.sections():
            if section not in _SCHEMA:
                lineno = self.lines.get((section, ""), 0)
                raise ConfigError(f"{self.path}:{lineno}: unknown section [{section}]")
            for key in self.parser[section]:
                if key not in _SCHEMA[section]:
                    self.fail(section, key, "unknown key")
        for section in _REQUIRED_SECTIONS:
            if section not in self.parser:
                raise ConfigError(f"{self.path}: missing required section [{section}]")

    def get_float(self, section: str, key: str, required: bool = True) -> float | None:
        if key not in self.parser[section]:
            if required:
                self.fail(section, key, "missing required key")
            return None
        raw = self.parser[section][key]
        try:
            return float(raw)
        except ValueError:
            self.fail(section, key, f"not a number: {raw!r}")

    def get_str(self, section: str, key: str) -> str:
        if key not in self.parser[section]:
            self.fail(section, key, "missing required key")
        return self.parser[section][key].strip()

    def forbid(self, section: str, key: str, reason: str) -> None:
        if section in self.parser and key in self.parser[section]:
            self.fail(section, key, reason)


def load_scenario(path) -> LoadedScenario:
    """Parse and validate a scenario file.

    Raises :class:`ConfigError` with a file:line reference naming the violated
    invariant on any problem.
    """
    path = str(path)
    reader = _Reader(path)
    reader.check_schema()

    def build(section: str, key: str, ctor, **kwargs):
        """Construct ``ctor``; a failure cites the key that its message
        starts with, or ``key`` when it names none."""
        try:
            return ctor(**kwargs)
        except ValueError as exc:
            named = str(exc).split(" ", 1)[0]
            reader.fail(section, named if (section, named) in reader.lines else key, str(exc))

    params = build("stand", "q", StandParams,
                   q=reader.get_float("stand", "q"),
                   A=reader.get_float("stand", "A"),
                   n_min=reader.get_float("stand", "n_min"),
                   e_max=reader.get_float("stand", "e_max"),
                   t_star=reader.get_float("stand", "t_star"))

    variant = reader.get_str("growth", "variant")
    if variant == "power":
        reader.forbid("growth", "p", "only meaningful for the fagacees variant")
        growth = build("growth", "theta", GrowthFunction.power,
                       theta=reader.get_float("growth", "theta"))
    elif variant == "fagacees":
        reader.forbid("growth", "theta", "only meaningful for the power variant")
        growth = build("growth", "p", GrowthFunction.fagacees,
                       p=reader.get_float("growth", "p"))
    elif variant == "linear":
        reader.forbid("growth", "p", "not meaningful for the linear variant")
        reader.forbid("growth", "theta", "not meaningful for the linear variant")
        growth = GrowthFunction.linear()
    else:
        reader.fail("growth", "variant",
                    f"must be power, fagacees, or linear (got {variant!r})")

    v_family = reader.get_str("environment", "v_family")
    if v_family not in ("exponential", "hyperbolic"):
        reader.fail("environment", "v_family",
                    f"must be exponential or hyperbolic (got {v_family!r})")
    v = build("environment", "v0", GrowthEnergy, family=v_family,
              v0=reader.get_float("environment", "v0"),
              lam=reader.get_float("environment", "lambda"))
    h_family = reader.get_str("environment", "h_family")
    if h_family != "saturating":
        reader.fail("environment", "h_family",
                    f"must be saturating (got {h_family!r})")
    h0 = build("environment", "h_inf", DominantHeight,
               h_inf=reader.get_float("environment", "h_inf"),
               tau=reader.get_float("environment", "tau"))
    env = Environment(v=v, h0=h0)

    t0 = reader.get_float("initial", "t", required=False) or 0.0
    initial = build("initial", "s", StandState, t=t0,
                    s=reader.get_float("initial", "s"),
                    n=reader.get_float("initial", "n"))
    scenario = build("initial", "n", Scenario, params=params, growth=growth,
                     env=env, initial=initial)

    econ = None
    if "economics" in reader.parser:
        econ = build("economics", "k", EconomicModel,
                     k=reader.get_float("economics", "k"),
                     alpha=reader.get_float("economics", "alpha"),
                     delta=reader.get_float("economics", "delta"))

    run = RunConfig()
    if "run" in reader.parser:
        values = {}
        for key in ("horizon", "step"):
            value = reader.get_float("run", key, required=False)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                reader.fail("run", key, f"{key} must be finite and positive (got {value})")
            values[key] = value
        run = RunConfig(**values)

    return LoadedScenario(scenario=scenario, economics=econ, run=run, path=path)
