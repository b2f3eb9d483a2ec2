"""Inside the debt-aware agent: states, preconditions, Q values, debts.

Run:  python3 demos/03_learning_agent.py
"""

from elastidebt import (
    DebtAwarePolicy,
    LearningParams,
    SimConfig,
    Simulation,
    allowed_actions,
    default_profile,
    generate_trace,
)
from elastidebt.policies import Level, StateKey

# --- 1. the 9-cell state grid and its action preconditions -------------------

print("state grid -> allowed actions:")
for ql in Level:
    for il in Level:
        state = StateKey(ql, il)
        actions = ",".join(a.value for a in allowed_actions(state))
        print(f"  queued={ql.value:6s} idle-near-cycle={il.value:6s} -> {actions}")

# --- 2. one learning hour: watch debts feed the table ------------------------

cfg = SimConfig()
trace = generate_trace(default_profile(), 3600.0, seed=11)
policy = DebtAwarePolicy(LearningParams(), seed=99)
result = Simulation(cfg).run(trace, policy, 3600.0)

print(f"\none hour, {len(result.records)} adaptations:")
for rec in result.records[:8]:
    per = {a.value: f"{u:+.4f}" for a, u in rec.per_action_utilities.items()}
    print(
        f"  t={rec.time:6.0f} state=({rec.state.queued_level.value},"
        f"{rec.state.billing_idle_level.value}) chose {rec.action_taken.value:8s} "
        f"debt {rec.debt:+.5f}  candidates {per}"
    )

print("\nlearned Q values (state, action -> value, visits):")
for queued, idle, action, q, visits in policy.qtable.rows():
    print(f"  ({queued},{idle}) {action:8s} q={q:+.4f} visits={visits}")

# the windows' utilities add up to the run's, as the report's totals do
utility = sum(win.breakdown.utility for win in result.windows)
total_debt = sum(rec.debt for rec in result.records)
print(f"\naggregate utility {utility:+.3f}, total debt {total_debt:+.4f}")
