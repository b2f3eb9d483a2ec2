import itertools
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_obs
from elastidebt.economics import AdaptationRecord
from elastidebt.experiment import ExperimentReport, ReportTotals, emit_csv, load_qtable
from elastidebt.policies import (
    ACTION_ORDER,
    Action,
    DebtAwarePolicy,
    LearningParams,
    Level,
    QTable,
    StateKey,
    VotingParams,
    VotingPolicy,
    allowed_actions,
    alpha_for,
    discretize_state,
    q_update,
    select_action,
    vm_vote,
    vote_decision,
)

S_LOW_LOW = StateKey(Level.LOW, Level.LOW)
S_HIGH_HIGH = StateKey(Level.HIGH, Level.HIGH)


# -- discretization ------------------------------------------------------------


def test_discretize_examples():
    assert discretize_state(make_obs(frac_queue=0.10, frac_idle=0.50)) == StateKey(
        Level.LOW, Level.MEDIUM
    )
    assert discretize_state(make_obs(frac_queue=0.15, frac_idle=0.33)) == StateKey(
        Level.MEDIUM, Level.MEDIUM
    )
    assert discretize_state(make_obs(frac_queue=0.30, frac_idle=0.70)) == StateKey(
        Level.HIGH, Level.HIGH
    )


def test_all_nine_states_reachable():
    queued = {Level.LOW: 0.10, Level.MEDIUM: 0.20, Level.HIGH: 0.30}
    idle = {Level.LOW: 0.10, Level.MEDIUM: 0.50, Level.HIGH: 0.70}
    seen = set()
    for ql, il in itertools.product(Level, Level):
        obs = make_obs(frac_queue=queued[ql], frac_idle=idle[il])
        state = discretize_state(obs)
        assert state == StateKey(ql, il)
        seen.add(state)
    assert len(seen) == 9


def test_boundary_fractions_fall_to_medium():
    assert discretize_state(make_obs(frac_queue=0.15, frac_idle=0.0)).queued_level is Level.MEDIUM
    assert discretize_state(make_obs(frac_queue=0.25, frac_idle=0.0)).queued_level is Level.MEDIUM
    assert discretize_state(make_obs(frac_queue=0.0, frac_idle=0.33)).billing_idle_level is Level.MEDIUM
    assert discretize_state(make_obs(frac_queue=0.0, frac_idle=0.66)).billing_idle_level is Level.MEDIUM


# -- preconditions -------------------------------------------------------------


def test_allowed_actions_preconditions():
    assert allowed_actions(StateKey(Level.HIGH, Level.LOW)) == (Action.LAUNCH,)
    assert allowed_actions(StateKey(Level.HIGH, Level.MEDIUM)) == (Action.LAUNCH,)
    assert allowed_actions(StateKey(Level.LOW, Level.HIGH)) == (Action.RELEASE,)
    assert allowed_actions(StateKey(Level.MEDIUM, Level.HIGH)) == (Action.RELEASE,)
    assert set(allowed_actions(StateKey(Level.MEDIUM, Level.MEDIUM))) == set(ACTION_ORDER)
    assert set(allowed_actions(S_HIGH_HIGH)) == set(ACTION_ORDER)


# -- action selection ----------------------------------------------------------


def test_select_action_exploits_argmax():
    q = QTable()
    q.values[(S_LOW_LOW, Action.LAUNCH)] = -1.0
    q.values[(S_LOW_LOW, Action.MAINTAIN)] = -0.5
    q.values[(S_LOW_LOW, Action.RELEASE)] = -2.0
    got = select_action(q, S_LOW_LOW, ACTION_ORDER, epsilon=0.0, rng=random.Random(0))
    assert got is Action.MAINTAIN


def test_select_action_tie_breaks_maintain_first():
    q = QTable()  # all zeros
    got = select_action(q, S_LOW_LOW, ACTION_ORDER, epsilon=0.0, rng=random.Random(0))
    assert got is Action.MAINTAIN
    got = select_action(q, S_LOW_LOW, (Action.LAUNCH, Action.RELEASE), 0.0, random.Random(0))
    assert got is Action.LAUNCH


def test_select_action_explores_reproducibly():
    q = QTable()
    rng_a, rng_b = random.Random(7), random.Random(7)
    seq_a = [select_action(q, S_LOW_LOW, ACTION_ORDER, 1.0, rng_a) for _ in range(30)]
    seq_b = [select_action(q, S_LOW_LOW, ACTION_ORDER, 1.0, rng_b) for _ in range(30)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 3  # exploration actually mixes the actions


def test_select_action_stays_within_allowed():
    q = QTable()
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 4)
        allowed = tuple(rng.sample(ACTION_ORDER, n))
        eps = rng.random()
        action = rng.choice(ACTION_ORDER)
        q.values[(S_LOW_LOW, action)] = rng.uniform(-3, 3)
        assert select_action(q, S_LOW_LOW, allowed, eps, rng) in allowed
    with pytest.raises(ValueError):
        select_action(q, S_LOW_LOW, (), 0.0, rng)


def reference_argmax(q, state, allowed):
    """The first action in ACTION_ORDER whose Q value no later one beats."""
    best = None
    for action in ACTION_ORDER:
        if action in allowed and (best is None or q.get(state, action) > q.get(state, best)):
            best = action
    return best


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    # few distinct values, so ties are common; an absent entry reads as 0
    st.dictionaries(st.sampled_from(ACTION_ORDER), st.sampled_from([-1.0, -0.5, 0.0, 0.5])),
    st.lists(st.sampled_from(ACTION_ORDER), min_size=1, max_size=3, unique=True),
)
def test_greedy_selection_matches_reference_argmax(values, allowed):
    q = QTable()
    q.values.update({(S_LOW_LOW, a): v for a, v in values.items()})
    q.values[(S_HIGH_HIGH, Action.RELEASE)] = 9.0  # another state's values are not read
    got = select_action(q, S_LOW_LOW, tuple(allowed), epsilon=0.0, rng=random.Random(0))
    assert got is reference_argmax(q, S_LOW_LOW, allowed)


# -- q update ------------------------------------------------------------------


def test_q_update_alpha_one_overwrites():
    q = QTable()
    q.values[(S_HIGH_HIGH, Action.LAUNCH)] = 10.0
    q_update(q, S_LOW_LOW, Action.MAINTAIN, -3.0, S_HIGH_HIGH, (Action.LAUNCH,), 1.0, 0.5)
    assert q.get(S_LOW_LOW, Action.MAINTAIN) == -3.0 + 0.5 * 10.0


def test_q_update_hand_arithmetic():
    q = QTable()
    q.values[(S_HIGH_HIGH, Action.RELEASE)] = 10.0
    q_update(q, S_LOW_LOW, Action.MAINTAIN, -2.0, S_HIGH_HIGH, ACTION_ORDER, 0.5, 0.99)
    # 0.5*0 + 0.5*(-2 + 0.99*10) = 3.95
    assert q.get(S_LOW_LOW, Action.MAINTAIN) == pytest.approx(3.95)


def test_q_update_decays_toward_zero_when_myopic():
    q = QTable()
    q.values[(S_LOW_LOW, Action.MAINTAIN)] = 8.0
    q_update(q, S_LOW_LOW, Action.MAINTAIN, 0.0, S_LOW_LOW, ACTION_ORDER, 0.25, 0.0)
    # gamma=0: target ignores the 8.0 sitting at (s, maintain) via max? no --
    # max over next includes maintain itself; with gamma=0 the target is r=0
    assert q.get(S_LOW_LOW, Action.MAINTAIN) == pytest.approx(0.75 * 8.0)


def test_q_update_counts_visits_once():
    q = QTable()
    q_update(q, S_LOW_LOW, Action.LAUNCH, -1.0, S_LOW_LOW, ACTION_ORDER, 1.0, 0.9)
    q_update(q, S_LOW_LOW, Action.LAUNCH, -1.0, S_LOW_LOW, ACTION_ORDER, 1.0, 0.9)
    assert q.visit_count(S_LOW_LOW, Action.LAUNCH) == 2
    assert q.visit_count(S_LOW_LOW, Action.MAINTAIN) == 0


def test_q_update_validates_rates():
    q = QTable()
    with pytest.raises(ValueError):
        q_update(q, S_LOW_LOW, Action.LAUNCH, 0.0, S_LOW_LOW, ACTION_ORDER, 0.0, 0.9)
    with pytest.raises(ValueError):
        q_update(q, S_LOW_LOW, Action.LAUNCH, 0.0, S_LOW_LOW, ACTION_ORDER, 0.5, 1.5)


def test_q_values_stay_bounded_with_bounded_rewards():
    # |Q| <= max|r| / (1 - gamma) for gamma < 1
    q = QTable()
    rng = random.Random(11)
    gamma, r_max = 0.9, 2.0
    states = [S_LOW_LOW, S_HIGH_HIGH, StateKey(Level.MEDIUM, Level.MEDIUM)]
    for _ in range(5000):
        s, s2 = rng.choice(states), rng.choice(states)
        a = rng.choice(ACTION_ORDER)
        r = rng.uniform(-r_max, r_max)
        q_update(q, s, a, r, s2, ACTION_ORDER, 0.5, gamma)
    bound = r_max / (1 - gamma) + 1e-9
    assert all(abs(v) <= bound for v in q.values.values())


def test_alpha_schedule():
    params = LearningParams()
    assert alpha_for(0, params) == 1.0
    assert alpha_for(5, params) == pytest.approx(0.5)
    assert alpha_for(50, params) == pytest.approx(0.1)
    multiplicative = LearningParams(alpha_decay="multiplicative")
    assert alpha_for(0, multiplicative) == 1.0
    assert alpha_for(1, multiplicative) == pytest.approx(0.1)
    assert alpha_for(3, multiplicative) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        alpha_for(-1, params)


# -- voting --------------------------------------------------------------------


def test_vm_vote_thresholds_strict():
    params = VotingParams()
    assert vm_vote(0.96, params) is Action.LAUNCH
    assert vm_vote(0.20, params) is Action.RELEASE
    assert vm_vote(0.25, params) is Action.MAINTAIN
    assert vm_vote(0.95, params) is Action.MAINTAIN
    assert vm_vote(0.5, params) is Action.MAINTAIN


def test_vote_decision_majorities_and_ties():
    L, R, M = Action.LAUNCH, Action.RELEASE, Action.MAINTAIN
    assert vote_decision([L, L, L, M, M]) is L
    assert vote_decision([L, L, R, R, M]) is M
    assert vote_decision([M] * 5) is M
    assert vote_decision([R, R, L]) is R
    with pytest.raises(ValueError):
        vote_decision([])


def test_vote_decision_is_permutation_invariant():
    rng = random.Random(3)
    for _ in range(100):
        votes = [rng.choice(ACTION_ORDER) for _ in range(rng.randrange(1, 12))]
        shuffled = votes[:]
        rng.shuffle(shuffled)
        assert vote_decision(votes) is vote_decision(shuffled)


# -- policy objects ------------------------------------------------------------


def test_debt_aware_first_decision_is_maintain():
    policy = DebtAwarePolicy(LearningParams(epsilon=0.0))
    obs = make_obs(frac_queue=0.20, frac_idle=0.50)  # (Medium, Medium)
    assert policy.decide(obs) is Action.MAINTAIN


def test_precondition_dominates_learned_values():
    policy = DebtAwarePolicy(LearningParams(epsilon=0.0))
    state = StateKey(Level.HIGH, Level.LOW)
    policy.qtable.values[(state, Action.LAUNCH)] = -100.0
    obs = make_obs(frac_queue=0.30, frac_idle=0.10)
    assert policy.decide(obs) is Action.LAUNCH  # only allowed action


def test_debt_aware_two_window_hand_trace():
    policy = DebtAwarePolicy(LearningParams(epsilon=0.0))
    obs_mm = make_obs(frac_queue=0.20, frac_idle=0.50)  # (Medium, Medium)
    obs_hl = make_obs(frac_queue=0.30, frac_idle=0.10)  # (High, Low)
    s_mm = StateKey(Level.MEDIUM, Level.MEDIUM)
    s_hl = StateKey(Level.HIGH, Level.LOW)

    assert policy.decide(obs_mm) is Action.MAINTAIN
    # debt -2: launching would have been worth 2 more
    maintained = AdaptationRecord(60.0, s_mm, Action.MAINTAIN, {Action.MAINTAIN: -2.0, Action.LAUNCH: 0.0})
    policy.observe_reward(maintained, obs_hl)
    # alpha starts at 1: Q((M,M),maintain) = -2 + 0.99 * max over {launch} = -2
    assert policy.qtable.get(s_mm, Action.MAINTAIN) == pytest.approx(-2.0)

    assert policy.decide(obs_hl) is Action.LAUNCH
    launched = AdaptationRecord(120.0, s_hl, Action.LAUNCH, {Action.LAUNCH: -1.0, Action.MAINTAIN: 0.0})
    policy.observe_reward(launched, obs_mm)
    # max over allowed (M,M) is 0 from the untouched launch/release entries
    assert policy.qtable.get(s_hl, Action.LAUNCH) == pytest.approx(-1.0)
    # maintain is now dominated; launch wins the 0-0 tie against release
    assert policy.decide(obs_mm) is Action.LAUNCH


def test_epsilon_zero_frozen_table_is_deterministic():
    obs = make_obs(frac_queue=0.20, frac_idle=0.50)
    decisions = set()
    for _ in range(10):
        policy = DebtAwarePolicy(LearningParams(epsilon=0.0), seed=random.randrange(1 << 30))
        decisions.add(policy.decide(obs))
    assert decisions == {Action.MAINTAIN}


def test_policy_separation():
    # the baseline reacts only to utilizations; the learner ignores them
    rich = make_obs(frac_queue=0.9, frac_idle=0.9, utils=[0.5, 0.5])
    poor = make_obs(frac_queue=0.0, frac_idle=0.0, utils=[0.5, 0.5])
    voting = VotingPolicy()
    assert voting.decide(rich) is voting.decide(poor)

    learner = DebtAwarePolicy(LearningParams(epsilon=0.0))
    hot = make_obs(frac_queue=0.2, frac_idle=0.5, utils=[1.0, 1.0, 1.0])
    cold = make_obs(frac_queue=0.2, frac_idle=0.5, utils=[0.0])
    assert learner.decide(hot) is learner.decide(cold)


def test_voting_policy_with_no_ready_vms_maintains():
    assert VotingPolicy().decide(make_obs(ready_vms=0, utils=[])) is Action.MAINTAIN


def test_qtable_round_trip(tmp_path):
    q = QTable()
    q.values[(S_LOW_LOW, Action.LAUNCH)] = -1.25
    q.visits[(S_LOW_LOW, Action.LAUNCH)] = 4
    q.values[(S_HIGH_HIGH, Action.RELEASE)] = 0.1 + 0.2  # no short decimal form
    # emit_csv needs a run's totals; only qtable.csv is read back
    totals = ReportTotals(**{f.name: 0 for f in fields(ReportTotals)})
    emit_csv(ExperimentReport([], totals, 0.0, qtable_rows=q.rows()), str(tmp_path))
    back = load_qtable(str(tmp_path / "qtable.csv"))
    assert back.values == q.values
    assert back.visits == {(S_LOW_LOW, Action.LAUNCH): 4, (S_HIGH_HIGH, Action.RELEASE): 0}


# -- convergence against value iteration ----------------------------------------


def solve_value_iteration(rewards, transitions, states, actions, gamma, tol=1e-10):
    values = {s: 0.0 for s in states}
    while True:
        delta = 0.0
        for s in states:
            best = max(rewards[(s, a)] + gamma * values[transitions[(s, a)]] for a in actions)
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < tol:
            return values


def test_q_learning_matches_value_iteration_fixed_point():
    states = (S_LOW_LOW, S_HIGH_HIGH)
    actions = (Action.MAINTAIN, Action.LAUNCH)
    rewards = {
        (S_LOW_LOW, Action.MAINTAIN): 1.0,
        (S_LOW_LOW, Action.LAUNCH): 0.0,
        (S_HIGH_HIGH, Action.MAINTAIN): -1.0,
        (S_HIGH_HIGH, Action.LAUNCH): 2.0,
    }
    transitions = {
        (S_LOW_LOW, Action.MAINTAIN): S_LOW_LOW,
        (S_LOW_LOW, Action.LAUNCH): S_HIGH_HIGH,
        (S_HIGH_HIGH, Action.MAINTAIN): S_LOW_LOW,
        (S_HIGH_HIGH, Action.LAUNCH): S_HIGH_HIGH,
    }
    gamma = 0.9
    v_star = solve_value_iteration(rewards, transitions, states, actions, gamma)
    q_star = {
        (s, a): rewards[(s, a)] + gamma * v_star[transitions[(s, a)]]
        for s in states
        for a in actions
    }

    q = QTable()
    for _ in range(2000):
        for s in states:
            for a in actions:
                q_update(q, s, a, rewards[(s, a)], transitions[(s, a)], actions, 0.1, gamma)
    for key, expected in q_star.items():
        assert q.get(*key) == pytest.approx(expected, abs=1e-2)
