"""Autoscaling policies: threshold-voting baseline and debt-aware Q-learning.

Both policies share one interface: ``decide(observation) -> Action`` at each
decision point, ``candidates(observation)`` for the action set they choose
from, and ``observe_reward(record, observation)`` called when the previous
decision's window closes, with its ``AdaptationRecord`` and the state it
led to.  The voting baseline ignores rewards entirely.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple


class Action(Enum):
    MAINTAIN = "maintain"
    LAUNCH = "launch"
    RELEASE = "release"

    def __str__(self) -> str:
        return self.value


# fixed order used for argmax tie-breaking and reproducible random draws
ACTION_ORDER = (Action.MAINTAIN, Action.LAUNCH, Action.RELEASE)


class Level(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    def __str__(self) -> str:
        return self.value


class StateKey(NamedTuple):
    """Discretized cluster state: 3 x 3 = 9 possible values."""

    queued_level: Level
    billing_idle_level: Level


# Cut points for discretizing the two observed fractions.  Boundary values
# are exclusive for the outer bands, so a fraction equal to a cut point
# falls to MEDIUM.
QUEUED_LOW = 0.15
QUEUED_HIGH = 0.25
IDLE_LOW = 0.33
IDLE_HIGH = 0.66


# A parameter field's annotation -> the types its value takes and the parser
# of its text: the one rule for every config field and summary cell.
FIELD_TYPES = {
    "float": ((int, float), float),
    "int": (int, int),
    "str": (str, str),
    "str | None": ((str, type(None)), str),
}


_FLOAT_MAX = sys.float_info.max


def check_fields(params, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``params`` whose
    value its FIELD_TYPES entry does not take, or that is a bool or not finite."""
    for f in fields(params):
        if f.type in FIELD_TYPES:
            value = getattr(params, f.name)
            if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[f.type][0]):
                raise error(f"{f.name} must be {f.type}, got {value!r}")
            # an int compares with a float exactly, so one beyond float range
            # fails here as NaN and the infinities do
            if isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise error(f"{f.name} must be finite, got {value}")


@dataclass
class LearningParams:
    """Q-learning hyperparameters.

    The learning rate starts at ``alpha_initial`` and decays per
    (state, action) visit: linearly by ``alpha_decay_step`` per visit, or
    multiplicatively by that factor when ``alpha_decay`` is
    "multiplicative", floored at ``alpha_min``.
    """

    alpha_initial: float = 1.0
    alpha_decay_step: float = 0.1
    alpha_min: float = 0.1
    gamma: float = 0.99
    epsilon: float = 0.1
    alpha_decay: str = "linear"  # or "multiplicative"

    def validate(self) -> None:
        check_fields(self)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        # every rate of the schedule then lies in (0, 1], as q_update requires
        if not 0.0 < self.alpha_min <= self.alpha_initial <= 1.0:
            raise ValueError("need 0 < alpha_min <= alpha_initial <= 1")
        if self.alpha_decay not in ("linear", "multiplicative"):
            raise ValueError(f"unknown alpha_decay {self.alpha_decay!r}")
        step_max = 1.0 if self.alpha_decay == "multiplicative" else math.inf
        if not 0.0 <= self.alpha_decay_step <= step_max:
            raise ValueError(f"a {self.alpha_decay} alpha_decay_step must be in [0, {step_max}]")


@dataclass
class VotingParams:
    """Per-VM CPU thresholds for the voting baseline."""

    lower_cpu: float = 0.25
    upper_cpu: float = 0.95

    def validate(self) -> None:
        check_fields(self)
        if not 0.0 <= self.lower_cpu < self.upper_cpu <= 1.0:
            raise ValueError("need 0 <= lower_cpu < upper_cpu <= 1")


class QTable:
    """Tabular Q(state, action) with per-pair visit counts.

    Absent entries read as 0, which is optimistic for non-positive rewards
    and drives early exploration of every action.
    """

    def __init__(self) -> None:
        self.values: dict[tuple[StateKey, Action], float] = {}
        self.visits: dict[tuple[StateKey, Action], int] = {}

    def get(self, state: StateKey, action: Action) -> float:
        return self.values.get((state, action), 0.0)

    def visit_count(self, state: StateKey, action: Action) -> int:
        return self.visits.get((state, action), 0)

    def rows(self) -> list[tuple[str, str, str, float, int]]:
        """Flat (queued_level, billing_idle_level, action, q, visits) rows in a fixed order."""
        keys = set(self.values) | set(self.visits)
        ordered = sorted(
            keys,
            key=lambda sa: (sa[0][0].value, sa[0][1].value, ACTION_ORDER.index(sa[1])),
        )
        return [
            (s[0].value, s[1].value, a.value, self.get(s, a), self.visit_count(s, a))
            for s, a in ordered
        ]


def discretize_state(obs) -> StateKey:
    """Map the two observed fractions onto the 9-cell state grid."""
    return StateKey(
        queued_level=_level(obs.frac_vms_with_queue, QUEUED_LOW, QUEUED_HIGH),
        billing_idle_level=_level(obs.frac_vms_idle_near_cycle, IDLE_LOW, IDLE_HIGH),
    )


def _level(frac: float, low: float, high: float) -> Level:
    if frac < low:
        return Level.LOW
    if frac > high:
        return Level.HIGH
    return Level.MEDIUM


def allowed_actions(state: StateKey) -> tuple[Action, ...]:
    """Action preconditions pruning pointless exploration.

    Widespread queueing (without widespread idling) forces launch; widespread
    idling near billing boundaries (without queueing) forces release.  When
    both or neither fire, all three actions are available.
    """
    queued_high = state.queued_level is Level.HIGH
    idle_high = state.billing_idle_level is Level.HIGH
    if queued_high and not idle_high:
        return (Action.LAUNCH,)
    if idle_high and not queued_high:
        return (Action.RELEASE,)
    return ACTION_ORDER


def select_action(
    q: QTable,
    state: StateKey,
    allowed: tuple[Action, ...],
    epsilon: float,
    rng: random.Random,
) -> Action:
    """Epsilon-greedy draw: explore uniformly with probability epsilon,
    otherwise exploit the max-Q action (ties broken by ACTION_ORDER)."""
    if not allowed:
        raise ValueError("allowed action set is empty")
    if epsilon > 0.0 and rng.random() < epsilon:
        return allowed[rng.randrange(len(allowed))]
    return max((a for a in ACTION_ORDER if a in allowed), key=lambda a: q.get(state, a))


def q_update(
    q: QTable,
    state: StateKey,
    action: Action,
    reward: float,
    next_state: StateKey,
    allowed_next: tuple[Action, ...],
    alpha: float,
    gamma: float,
) -> None:
    """One temporal-difference update:
    Q(s,a) <- (1-alpha)*Q(s,a) + alpha*(r + gamma*max_{a' in allowed_next} Q(s',a'))."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    target = reward + gamma * max(q.get(next_state, a) for a in allowed_next)
    q.values[(state, action)] = (1.0 - alpha) * q.get(state, action) + alpha * target
    q.visits[(state, action)] = q.visit_count(state, action) + 1


def alpha_for(visit_count: int, params: LearningParams) -> float:
    """Learning rate after ``visit_count`` prior updates of the pair."""
    if visit_count < 0:
        raise ValueError("visit_count must be non-negative")
    if params.alpha_decay == "multiplicative":
        raw = params.alpha_initial * params.alpha_decay_step**visit_count
    else:
        raw = params.alpha_initial - params.alpha_decay_step * visit_count
    return max(params.alpha_min, raw)


def vm_vote(utilization: float, params: VotingParams) -> Action:
    """One VM's vote from its window CPU utilization (thresholds strict)."""
    if utilization > params.upper_cpu:
        return Action.LAUNCH
    if utilization < params.lower_cpu:
        return Action.RELEASE
    return Action.MAINTAIN


def vote_decision(votes: list[Action]) -> Action:
    """Relative majority over the votes; any tie for the top count yields maintain."""
    if not votes:
        raise ValueError("vote set is empty")
    counts = {action: 0 for action in ACTION_ORDER}
    for vote in votes:
        counts[vote] += 1
    top = max(counts.values())
    winners = [a for a in ACTION_ORDER if counts[a] == top]
    return winners[0] if len(winners) == 1 else Action.MAINTAIN


class DebtAwarePolicy:
    """Tabular Q-learning autoscaler rewarded with elasticity debts.

    ``observe_reward(record, obs)`` updates Q for the record's state and
    action with its debt as the reward and the state of ``obs`` as the next
    state, so the policy keeps no copy of its decisions.
    """

    learns = True

    def __init__(
        self,
        params: LearningParams | None = None,
        seed: int = 0,
        qtable: QTable | None = None,
    ) -> None:
        self.params = params or LearningParams()
        self.params.validate()
        self.rng = random.Random(seed)
        self.qtable = qtable or QTable()

    def candidates(self, obs) -> tuple[Action, ...]:
        return allowed_actions(discretize_state(obs))

    def decide(self, obs) -> Action:
        state = discretize_state(obs)
        allowed = allowed_actions(state)
        return select_action(self.qtable, state, allowed, self.params.epsilon, self.rng)

    def observe_reward(self, record, obs) -> None:
        state, action = record.state, record.action_taken
        next_state = discretize_state(obs)
        alpha = alpha_for(self.qtable.visit_count(state, action), self.params)
        q_update(
            self.qtable,
            state,
            action,
            record.debt,
            next_state,
            allowed_actions(next_state),
            alpha,
            self.params.gamma,
        )


class VotingPolicy:
    """Threshold-voting baseline: each ready VM votes from its utilization,
    relative majority wins.  Learns nothing; rewards are ignored."""

    learns = False

    def __init__(self, params: VotingParams | None = None) -> None:
        self.params = params or VotingParams()
        self.params.validate()

    def candidates(self, obs) -> tuple[Action, ...]:
        return ACTION_ORDER

    def decide(self, obs) -> Action:
        utils = obs.per_vm_utilization
        if not utils:
            return Action.MAINTAIN
        votes = [vm_vote(u, self.params) for u in utils]
        return vote_decision(votes)

    def observe_reward(self, record, obs) -> None:
        pass
