"""Window utility, SLA penalties and elasticity-debt valuation.

The utility of a span is revenue from successful requests minus SLA
penalties minus VM cycle charges, priced once from its raw
``WindowCounts`` by ``WindowCounts.utility``.  The elasticity debt of an
adaptation is the (non-positive) gap between the utility its window actually
produced and the best utility any of the candidate actions would have
produced, found by replaying the window from a checkpoint under each
candidate action up to the window's end.  ``counterfactual_ideal`` returns
each candidate's utility, and an ``AdaptationRecord`` reads the taken
action's utility, the best one and the debt from them.

The taken action is replayed as well, right after the decision: its replay
runs the run's own future, which the run then takes on instead of
dispatching it again (see ``sim.Checkpoint``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .policies import ACTION_ORDER, Action, StateKey


@dataclass(frozen=True)
class WindowCounts:
    """Raw outcome of a span: requests submitted, completed requests that met
    and missed the SLA, and the billing cycles charged in it.

    Counts of consecutive spans add up; utilities do not, because ``floor``
    SLA mode penalizes only the failures beyond an allowance of the whole
    window.  Spans are therefore joined here and valued once.
    """

    submitted: int
    successes: int
    failures: int
    cycles: int

    def __add__(self, other: WindowCounts) -> WindowCounts:
        return WindowCounts(
            self.submitted + other.submitted,
            self.successes + other.successes,
            self.failures + other.failures,
            self.cycles + other.cycles,
        )

    def __sub__(self, other: WindowCounts) -> WindowCounts:
        return WindowCounts(
            self.submitted - other.submitted,
            self.successes - other.successes,
            self.failures - other.failures,
            self.cycles - other.cycles,
        )

    def utility(self, config) -> UtilityBreakdown:
        """The span's utility under ``config``'s prices and SLA mode; the one
        pricing rule.

        "per_request" penalizes every failure.  "floor" allows as many
        failures as the completed requests exceed the successes
        ``sla_target`` requires of them, and penalizes the rest: the
        shortfall below the required successes.
        """
        if self.successes < 0 or self.failures < 0:
            raise ValueError("request counts must be non-negative")
        penalized = self.failures
        if config.sla_mode == "floor":
            # the tolerance keeps 0.28 * 25 = 7.000000000000001 from requiring 8
            required = math.ceil(config.sla_target * (self.successes + self.failures) - 1e-9)
            penalized = max(0, required - self.successes)
        elif config.sla_mode != "per_request":
            raise ValueError(f"unknown sla_mode {config.sla_mode!r}")
        revenue = config.price_per_request * self.successes
        penalty = config.penalty_per_request * penalized
        vm_cost = config.vm_cost_per_cycle * self.cycles
        return UtilityBreakdown(revenue, penalty, vm_cost, revenue - penalty - vm_cost, self)


@dataclass
class UtilityBreakdown:
    """Revenue, penalty and operating cost of one monitoring window, and the
    raw counts they were computed from; the penalized failures show only in
    ``penalty``."""

    revenue: float
    penalty: float
    vm_cost: float
    utility: float
    counts: WindowCounts


@dataclass
class AdaptationRecord:
    """One adaptation decision and its counterfactual valuation.

    Made when the policy decides, from the state it saw, the action it took
    and the ``candidates`` it chose from.  Settling the adaptation fills
    ``per_action_utilities`` with each candidate's window utility; it stays
    empty when debts are not recorded.  The taken action's utility, the best
    one and the debt are read from it, and are 0.0 when it is empty.
    """

    time: float
    state: StateKey
    action_taken: Action
    per_action_utilities: dict[Action, float] = field(default_factory=dict)
    candidates: tuple[Action, ...] = ()

    @property
    def u_actual(self) -> float:
        return self.per_action_utilities.get(self.action_taken, 0.0)

    @property
    def u_ideal(self) -> float:
        return max(self.per_action_utilities.values(), default=0.0)

    @property
    def debt(self) -> float:
        """Elasticity debt: actual minus ideal window utility (non-positive)."""
        return self.u_actual - self.u_ideal


def counterfactual_ideal(
    checkpoint,
    candidate_actions: tuple[Action, ...],
    end: float,
) -> dict[Action, float]:
    """Each candidate action's utility over the window ending at ``end``,
    the one valuation of a checkpoint's candidates.

    ``checkpoint`` must expose ``replay(action, end) -> UtilityBreakdown``
    over a private clone of the simulator state, so the primary run is never
    perturbed.  Every candidate is replayed, the action the run took
    included: its replay is the run's own future.
    """
    if not candidate_actions:
        raise ValueError("candidate action set is empty")
    return {
        action: checkpoint.replay(action, end).utility
        for action in ACTION_ORDER
        if action in candidate_actions
    }
