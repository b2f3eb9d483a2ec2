"""Window utility, SLA penalties and elasticity-debt valuation.

The utility of a monitoring window is revenue from successful requests minus
per-request SLA penalties minus VM cycle charges.  The elasticity debt of an
adaptation is the (non-positive) gap between the utility its window actually
produced and the best utility any of the candidate actions would have
produced, found by replaying the window from a checkpoint under each
discarded action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .policies import ACTION_ORDER, Action, StateKey


@dataclass
class UtilityBreakdown:
    """Revenue, penalty and operating cost of one monitoring window."""

    revenue: float
    penalty: float
    vm_cost: float
    utility: float
    window: tuple[float, float] = (0.0, 0.0)
    successes: int = 0
    failures: int = 0


@dataclass
class AdaptationRecord:
    """One adaptation decision and its counterfactual valuation."""

    time: float
    state: StateKey
    action_taken: Action
    u_actual: float
    u_ideal: float
    debt: float
    per_action_utilities: dict[Action, float] = field(default_factory=dict)


def penalized_failures(successes: int, failures: int, mode: str, target: float = 0.95) -> int:
    """Failures that actually incur a penalty under the configured SLA mode.

    "per_request" penalizes every failure.  "floor" grants an allowance of
    (1 - target) of the window's completed requests and penalizes only the
    excess.
    """
    if mode == "per_request":
        return failures
    if mode == "floor":
        allowance = int((1.0 - target) * (successes + failures))
        return max(0, failures - allowance)
    raise ValueError(f"unknown sla_mode {mode!r}")


def compute_utility(
    x_s: int,
    x_f: int,
    charged_cycles_per_vm,
    prices,
    window: tuple[float, float] = (0.0, 0.0),
) -> UtilityBreakdown:
    """Window utility from success/failure counts and per-VM cycle charges.

    ``prices`` needs ``price_per_request``, ``penalty_per_request`` and
    ``vm_cost_per_cycle`` attributes (a SimConfig works).
    """
    if x_s < 0 or x_f < 0:
        raise ValueError("request counts must be non-negative")
    revenue = prices.price_per_request * x_s
    penalty = prices.penalty_per_request * x_f
    vm_cost = prices.vm_cost_per_cycle * sum(charged_cycles_per_vm)
    return UtilityBreakdown(
        revenue=revenue,
        penalty=penalty,
        vm_cost=vm_cost,
        utility=revenue - penalty - vm_cost,
        window=window,
        successes=x_s,
        failures=x_f,
    )


def compute_debt(u_actual: float, u_ideal: float) -> float:
    """Elasticity debt: actual minus ideal window utility (non-positive)."""
    return u_actual - u_ideal


def counterfactual_ideal(
    checkpoint,
    candidate_actions: tuple[Action, ...],
    window: float,
    measured: dict[Action, float] | None = None,
) -> tuple[float, dict[Action, float]]:
    """Replay the window once per candidate action and return the best utility.

    ``checkpoint`` must expose ``replay(action, window) -> UtilityBreakdown``
    over a private clone of the simulator state, so the primary run is never
    perturbed.  Candidates whose window utility is already ``measured``
    (the action the primary run took, over the window it just ran) take
    that value and are not replayed.
    """
    if not candidate_actions:
        raise ValueError("candidate action set is empty")
    measured = measured or {}
    per_action: dict[Action, float] = {}
    for action in ACTION_ORDER:
        if action not in candidate_actions:
            continue
        if action in measured:
            per_action[action] = measured[action]
        else:
            per_action[action] = checkpoint.replay(action, window).utility
    return max(per_action.values()), per_action
