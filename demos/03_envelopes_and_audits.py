"""Envelope bounds: every admissible schedule is pinched between the
cut-first and ceiling-riding references.

Whatever the thinning schedule, the count stays between the two reference
counts, the basal area dominates the ceiling-riding reference's, per-tree
growth g(r)/n is sandwiched and never decreases in time, and the relative
basal-area increase has a computable floor.  The audit below checks all of
this at every sample of a batch of random schedules and reports violations
(there are none).
"""

import pathlib

import numpy as np

import standgrowth as sg

HERE = pathlib.Path(__file__).resolve().parent
scenario = sg.load_scenario(HERE.parent / "scenarios" / "concave_price_power.ini").scenario

HORIZON = 30.0
refs = sg.EnvelopeRefs.build(scenario, HORIZON, with_terminal=True)
xi_m = refs.xi_lower_bound()
rng = np.random.default_rng(5)

clean = 0
for policy in sg.sample_policies(scenario, 25, rng, HORIZON):
    traj = sg.integrate(scenario, policy, HORIZON)
    report = sg.audit_trajectory(scenario, traj, refs, xi_m=xi_m)
    clean += report.clean

print(f"audited 25 random schedules: {clean} clean")
print(f"checks run per trajectory: {len(report.checks_run)}")
for name in report.checks_run:
    print(f"  {name}")

print("\nhypotheses on this scenario:")
for key, val in sg.check_hypotheses(scenario).to_json_dict().items():
    if key != "witnesses":
        print(f"  {key:<34} {val}")

ok, margin = sg.check_h3(scenario)
print(f"\nceiling-holding rate stays below e_max with margin {margin:.2f} trees/yr")
