"""Window utility, SLA penalties and elasticity-debt valuation.

The utility of a monitoring window is revenue from successful requests minus
per-request SLA penalties minus VM cycle charges.  The elasticity debt of an
adaptation is the (non-positive) gap between the utility its window actually
produced and the best utility any of the candidate actions would have
produced, found by replaying the window from a checkpoint under each
discarded action.

The action the primary run took is not replayed where the primary run has
already measured it.  Retrospectively, its window is the one the primary
run just closed.  Proactively, its window runs past the next decision
point: the primary run's own span up to that point is joined with a
MAINTAIN fork of the next checkpoint over the rest, by adding raw
``WindowCounts`` and computing the utility once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .policies import ACTION_ORDER, Action, StateKey


@dataclass(frozen=True)
class WindowCounts:
    """Raw outcome of a span: completed requests that met and missed the SLA,
    and the billing cycles charged in it.

    Counts of consecutive spans add up; utilities do not, because ``floor``
    SLA mode penalizes only the failures beyond an allowance of the whole
    window.  Spans are therefore joined here and valued once.
    """

    successes: int
    failures: int
    cycles: int

    def __add__(self, other: WindowCounts) -> WindowCounts:
        return WindowCounts(
            self.successes + other.successes,
            self.failures + other.failures,
            self.cycles + other.cycles,
        )

    def __sub__(self, other: WindowCounts) -> WindowCounts:
        return WindowCounts(
            self.successes - other.successes,
            self.failures - other.failures,
            self.cycles - other.cycles,
        )

    def utility(self, config, window: tuple[float, float]) -> UtilityBreakdown:
        """The span's utility under ``config``'s SLA mode and prices."""
        x_f = penalized_failures(self.successes, self.failures, config.sla_mode, config.sla_target)
        breakdown = compute_utility(self.successes, x_f, (self.cycles,), config, window)
        breakdown.counts = self
        return breakdown


@dataclass
class UtilityBreakdown:
    """Revenue, penalty and operating cost of one monitoring window.

    ``failures`` are the penalized ones; ``counts`` holds the raw counts
    the breakdown was computed from, when it was computed from counts.
    """

    revenue: float
    penalty: float
    vm_cost: float
    utility: float
    window: tuple[float, float] = (0.0, 0.0)
    successes: int = 0
    failures: int = 0
    counts: WindowCounts | None = None


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
    perturbed.  Candidates whose window utility is already ``measured`` take
    that value and are not replayed: the action the primary run took, valued
    from the window it just ran (retrospective) or from that window joined
    with a MAINTAIN fork of the next checkpoint (proactive).  A checkpoint
    resumes the MAINTAIN fork it ran for the previous adaptation when
    MAINTAIN is replayed here, so that candidate costs only the extension.
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
