"""A/B comparison: debt-aware learner vs threshold-voting baseline.

Both policies see the identical workload (the seed feeds separate generator
streams for arrivals and exploration).  Writes the CSV bundles under
demos/out/ and prints the comparison.  A 90-minute horizon keeps this quick;
the full experiment uses 21600 s.

Run:  python3 demos/04_policy_showdown.py
"""

from elastidebt import compare, default_config, emit_csv, paired_experiment

HORIZON = 5400.0

base = default_config(horizon=HORIZON)
debt_aware, voting = paired_experiment(base, seed=7)

for label, report in (("debt-aware", debt_aware), ("voting", voting)):
    t = report.totals
    print(
        f"{label:10s} utility {t.aggregate_utility:8.3f}  "
        f"failed {t.failed_fraction:.4f}  cost {t.total_cost:6.3f}  "
        f"adaptations {t.adaptations}  wall {report.wall_clock:.1f}s"
    )

summary = compare(debt_aware.totals, voting.totals)
print()
for line in summary.lines("debt-aware", "voting"):
    print(line)

emit_csv(debt_aware, "demos/out/debt-aware")
emit_csv(voting, "demos/out/voting")
print("\nCSV bundles written under demos/out/")

print("\nprovisioning trajectory (every 6th window):")
for row_da, row_vo in list(zip(debt_aware.rows, voting.rows))[::6]:
    print(
        f"  t={row_da.time:6.0f}  debt-aware vms={row_da.ready_vms:2d} "
        f"(ideal {row_da.ideal_vms:2d})  voting vms={row_vo.ready_vms:2d} "
        f"(ideal {row_vo.ideal_vms:2d})"
    )
