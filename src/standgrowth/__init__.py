"""Controlled growth of even-aged forest stands.

A two-state model (basal area per tree, tree count) driven by a declining
energy supply and controlled by a bounded thinning rate, under the Reineke
self-thinning density ceiling.  The package provides the event-aware
integrator, the canonical cut-first / ceiling-riding / exact-target policies
with their characteristic times, envelope and monotonicity audits, a timber
revenue objective, and a brute-force schedule optimizer with closed-form
sufficient-optimality checks.
"""

from .analysis import (BoundReport, EnvelopeRefs, HypothesisReport, XiLowerBound,
                       audit_trajectory, b_star, check_h3, check_hypotheses,
                       xi_lower_bound)
from .config import ConfigError, LoadedScenario, load_scenario
from .dynamics import (HOLD, InfeasibleBoundary, NonViable, Policy, Trajectory,
                       TrajectoryEvent, integrate, sample_policies, write_events_json,
                       write_trajectory_csv)
from .economics import (EconomicModel, delta_h, objective, objective_ibp, price,
                        revenue_rate)
from .model import (DominantHeight, Environment, GrowthEnergy, GrowthFunction,
                    Scenario, StandParams, StandState, boundary_control, energy, rdi)
from .optimizer import (CanonicalComparison, NoFeasiblePolicy, Prop2Report,
                        SearchResult, brute_force, check_prop2, compare_canonicals)
from .trajectories import (UNREACHABLE, CharacteristicTimes, ValidityDiagnostics,
                           build_policy, characteristic_times, is_unreachable,
                           t_cap0, t_sup0, time_to_count, validity_diagnostics)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "StandParams", "StandState", "GrowthFunction", "GrowthEnergy",
    "DominantHeight", "Environment", "Scenario",
    "rdi", "boundary_control", "energy",
    # dynamics
    "HOLD", "Policy", "Trajectory", "TrajectoryEvent",
    "InfeasibleBoundary", "NonViable",
    "integrate", "sample_policies",
    "write_trajectory_csv", "write_events_json",
    # trajectories
    "UNREACHABLE", "is_unreachable",
    "CharacteristicTimes", "ValidityDiagnostics",
    "time_to_count", "t_sup0", "t_cap0", "build_policy",
    "characteristic_times", "validity_diagnostics",
    # analysis
    "HypothesisReport", "XiLowerBound", "EnvelopeRefs",
    "BoundReport", "check_h3", "check_hypotheses", "b_star",
    "xi_lower_bound", "audit_trajectory",
    # economics
    "EconomicModel", "price", "delta_h", "objective", "objective_ibp",
    "revenue_rate",
    # optimizer
    "Prop2Report", "SearchResult", "CanonicalComparison", "NoFeasiblePolicy",
    "check_prop2", "brute_force", "compare_canonicals",
    # config
    "ConfigError", "LoadedScenario", "load_scenario",
]
