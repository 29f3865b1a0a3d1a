"""When should the forester cut?  Price shape decides.

Revenue: each tree sold at time t is worth k s^alpha h0(t) e^(-delta t);
whatever remains at the horizon is clear-cut.  Two regimes:

* strongly convex price (alpha high): cut hard immediately so the survivors
  fatten; the cut-first schedule is provably optimal and the brute-force
  search over bang-bang/ceiling schedules confirms it.
* gently sloped price (alpha low): keep as many trees growing as possible;
  riding the density ceiling wins, falsifying the cut-early intuition.
"""

import pathlib

import standgrowth as sg

HERE = pathlib.Path(__file__).resolve().parent
SCN = HERE.parent / "scenarios"
HORIZON = 30.0

for name in ("convex_price_power.ini", "concave_price_power.ini"):
    loaded = sg.load_scenario(SCN / name)
    scenario, econ = loaded.scenario, loaded.economics
    print(f"\n=== {name} (alpha = {econ.alpha}) ===")

    # The search carries the fine canonical values and the condition report,
    # so nothing is integrated twice.
    result = sg.brute_force(scenario, econ, HORIZON, n_intervals=6)
    report = result.condition_report
    print(f"sufficient-condition branch: {report.branch} "
          f"(alpha margin {report.alpha_margin:.3f})")

    comparison = sg.CanonicalComparison.from_values(result.canonical_values)
    for pol, val in comparison.values.items():
        shown = "infeasible over this horizon" if val is None else f"{val:12.4f}"
        print(f"  {pol:<5} {shown}")
    print(f"  dominant canonical policy: {comparison.dominant}")

    print(f"  brute force over {result.enumerated} schedules "
          f"({result.feasible} feasible): best {result.best_value:.4f} "
          f"with a {result.best_policy.kind!r} policy, "
          f"gap to best canonical {result.gap:.2e}")

print("\nWith the terminal requirement n(T) = n_min, the exact-target schedule")
loaded = sg.load_scenario(SCN / "concave_price_power.ini")
res = sg.brute_force(loaded.scenario, loaded.economics, HORIZON,
                     n_intervals=6, terminal_n_min=True)
print(f"takes over: best policy kind = {res.best_policy.kind!r} "
      f"(value {res.best_value:.4f})")
