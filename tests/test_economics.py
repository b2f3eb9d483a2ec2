import random

import pytest

from conftest import captured_checkpoints, direct_replays, dispatch_alone
from elastidebt.economics import (
    compute_debt,
    compute_utility,
    counterfactual_ideal,
    penalized_failures,
)
from elastidebt.policies import ACTION_ORDER, Action, DebtAwarePolicy, VotingPolicy
from elastidebt.sim import Checkpoint, Cluster, SimConfig, run_simulation
from elastidebt.workload import default_profile, generate_trace


def test_classify_examples():
    # a 10 MIPS VM answers 2, 20 and 50 MI in 0.2, 2.0 and 5.0 s against the
    # 2 s SLA: only a response strictly below the limit succeeds
    assert dispatch_alone(2.0) == (0.0, 0.2, True)
    assert dispatch_alone(20.0) == (0.0, 2.0, False)  # strict boundary
    assert dispatch_alone(50.0) == (0.0, 5.0, False)


def test_compute_utility_hand_example():
    # 1000 successes, 50 failures, two VMs charged 3 cycles each
    ub = compute_utility(1000, 50, [3, 3], SimConfig())
    assert ub.revenue == pytest.approx(1.2344, abs=1e-12)
    assert ub.penalty == pytest.approx(0.1, abs=1e-12)
    assert ub.vm_cost == pytest.approx(0.06666, abs=1e-12)
    assert ub.utility == pytest.approx(1.06774, abs=1e-12)
    assert ub.utility == ub.revenue - ub.penalty - ub.vm_cost


def test_compute_utility_edge_cases():
    empty = compute_utility(0, 0, [], SimConfig())
    assert empty.utility == 0.0
    ub = compute_utility(0, 10, [1], SimConfig())
    assert ub.utility == pytest.approx(-0.03111, abs=1e-12)
    with pytest.raises(ValueError):
        compute_utility(-1, 0, [], SimConfig())


def test_compute_utility_is_linear():
    cfg = SimConfig()
    rng = random.Random(4)
    for _ in range(50):
        xs, xf = rng.randrange(2000), rng.randrange(200)
        cyc = [rng.randrange(5) for _ in range(rng.randrange(4))]
        ub = compute_utility(xs, xf, cyc, cfg)
        expected = (
            cfg.price_per_request * xs
            - cfg.penalty_per_request * xf
            - cfg.vm_cost_per_cycle * sum(cyc)
        )
        assert ub.utility == pytest.approx(expected, abs=1e-12)
        doubled = compute_utility(2 * xs, xf, cyc, cfg)
        assert doubled.revenue == pytest.approx(2 * ub.revenue, rel=1e-12)


def test_compute_debt():
    assert compute_debt(5.0, 5.0) == 0.0
    assert compute_debt(4.9, 5.0) == pytest.approx(-0.1)


def test_penalized_failures_modes():
    assert penalized_failures(900, 100, "per_request") == 100
    # floor mode: 5% of 1000 completed = 50 failures are tolerated
    assert penalized_failures(900, 100, "floor", target=0.95) == 50
    assert penalized_failures(990, 10, "floor", target=0.95) == 0
    with pytest.raises(ValueError):
        penalized_failures(1, 1, "sometimes")


def idle_checkpoint(n_vms: int, at: float, cfg: SimConfig) -> Checkpoint:
    cluster = Cluster(cfg)
    for _ in range(n_vms):
        cluster.launch_vm(0.0, initial=True)
    cluster.advance(at, [], 0)
    return Checkpoint(cfg, at, cluster, [], 0)


def test_release_beats_maintain_by_one_cycle_cost_when_idle():
    # two idle VMs, no arrivals: the only utility difference across actions
    # is how many cycle boundaries land inside the window
    cfg = SimConfig(initial_vms=2)
    ckpt = idle_checkpoint(2, 600.0, cfg)
    u_ideal, per_action = counterfactual_ideal(ckpt, ACTION_ORDER, 360.0)
    assert per_action[Action.RELEASE] - per_action[Action.MAINTAIN] == pytest.approx(0.01111)
    assert per_action[Action.MAINTAIN] - per_action[Action.LAUNCH] == pytest.approx(0.01111)
    assert u_ideal == per_action[Action.RELEASE]


def test_equal_candidate_utilities_mean_zero_debt():
    # a single VM: release is refused and collapses onto maintain
    cfg = SimConfig(initial_vms=1)
    ckpt = idle_checkpoint(1, 600.0, cfg)
    _, per_action = counterfactual_ideal(ckpt, (Action.MAINTAIN, Action.RELEASE), 360.0)
    assert per_action[Action.MAINTAIN] == per_action[Action.RELEASE]
    assert compute_debt(per_action[Action.RELEASE], max(per_action.values())) == 0.0


def test_counterfactual_rejects_empty_candidates():
    cfg = SimConfig(initial_vms=1)
    ckpt = idle_checkpoint(1, 600.0, cfg)
    with pytest.raises(ValueError):
        counterfactual_ideal(ckpt, (), 360.0)


def test_replay_does_not_perturb_primary_run():
    # identical baseline runs with and without debt valuation
    cfg = SimConfig()
    trace_a = generate_trace(default_profile(), 1800.0, seed=17)
    trace_b = generate_trace(default_profile(), 1800.0, seed=17)
    with_debt = run_simulation(cfg, trace_a, VotingPolicy(), 1800.0, record_debt=True)
    without = run_simulation(cfg, trace_b, VotingPolicy(), 1800.0, record_debt=False)
    assert [w.ready_vms for w in with_debt.windows] == [w.ready_vms for w in without.windows]
    assert [w.breakdown for w in with_debt.windows] == [w.breakdown for w in without.windows]
    assert with_debt.aggregate_utility == without.aggregate_utility


def test_window_utilities_sum_to_run_total():
    cfg = SimConfig()
    trace = generate_trace(default_profile(), 2400.0, seed=23)
    result = run_simulation(cfg, trace, VotingPolicy(), 2400.0)
    total = sum(w.breakdown.utility for w in result.windows)
    assert total == pytest.approx(result.totals.utility, abs=1e-9)
    assert result.totals.utility == (
        result.totals.revenue - result.totals.penalty - result.totals.vm_cost
    )
    # cycle charges across windows match the whole-run billing exactly
    window_cycle_cost = sum(w.breakdown.vm_cost for w in result.windows)
    assert window_cycle_cost == pytest.approx(result.totals.vm_cost, abs=1e-9)


def test_debts_non_positive_and_zero_iff_action_maximal():
    cfg = SimConfig()
    trace = generate_trace(default_profile(), 2400.0, seed=31)
    result = run_simulation(cfg, trace, VotingPolicy(), 2400.0)
    assert result.records
    for rec in result.records:
        assert rec.debt <= 1e-9
        best = max(rec.per_action_utilities.values())
        assert rec.u_ideal == best
        if rec.debt == 0.0:
            assert rec.per_action_utilities[rec.action_taken] == best
        else:
            assert rec.per_action_utilities[rec.action_taken] < best


def test_retrospective_u_actual_matches_measured_window(monkeypatch):
    # replaying the taken action must reproduce the live window exactly,
    # which is why retrospective valuation takes u_actual from the measured
    # window instead of replaying it (the final window is excluded: its
    # billing true-up has no replay analogue)
    checkpoints = {}
    original = Checkpoint.__init__

    def capturing(self, config, time, *args):
        original(self, config, time, *args)
        checkpoints[time] = self

    replays = []
    replay = Checkpoint.replay

    def counting(self, action, window):
        replays.append(action)
        return replay(self, action, window)

    monkeypatch.setattr(Checkpoint, "__init__", capturing)
    monkeypatch.setattr(Checkpoint, "replay", counting)
    cfg = SimConfig()
    trace = generate_trace(default_profile(), 1800.0, seed=29)
    result = run_simulation(cfg, trace, VotingPolicy(), 1800.0)
    checked = 0
    for win in result.windows[:-1]:
        if win.record is None:
            continue
        rec = win.record
        assert rec.u_actual == win.breakdown.utility
        replayed = replay(checkpoints[rec.time], rec.action_taken, win.end - rec.time)
        assert replayed.utility == win.breakdown.utility
        checked += 1
    assert checked >= 5
    # only the final window replays the taken action as well
    assert len(replays) == 3 * len(result.records) - checked


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"sla_mode": "floor"},
        {"billing_anchor": "at_ready", "decision_interval": 45.0, "billing_cycle": 250.0},
        {"cool_down": 400.0},  # every gap is at least the window: no joins
    ],
)
def test_proactive_u_actual_matches_direct_replay(monkeypatch, overrides):
    # the taken action's window is the primary run's span to the next
    # checkpoint joined with a MAINTAIN fork from there, and MAINTAIN
    # extends the fork the checkpoint already ran; both must equal a direct
    # replay from the adaptation's own checkpoint, bit for bit
    cfg = SimConfig(**overrides)
    window = cfg.decision_interval + cfg.billing_cycle
    replays = []
    replay = Checkpoint.replay

    def counting(self, action, span, start=None):
        replays.append(action)
        return replay(self, action, span, start)

    forks = []
    cluster_init = Cluster.__init__

    def counting_forks(self, config):
        forks.append(config)
        cluster_init(self, config)

    monkeypatch.setattr(Checkpoint, "replay", counting)
    monkeypatch.setattr(Cluster, "__init__", counting_forks)
    trace = generate_trace(default_profile(), 2400.0, seed=31)
    with captured_checkpoints() as checkpoints:
        result = run_simulation(cfg, trace, DebtAwarePolicy(seed=4), 2400.0)
    monkeypatch.undo()
    records = result.records
    assert len(records) >= 5

    joined = [
        i for i in range(len(records) - 1) if records[i].time + window > records[i + 1].time
    ]
    # a record replays MAINTAIN when it is a candidate that was not taken,
    # or in any window not joined; it resumes the fork the join before ran
    resumed = [
        i + 1
        for i in joined
        if Action.MAINTAIN in records[i + 1].per_action_utilities
        and (records[i + 1].action_taken is not Action.MAINTAIN or i + 1 not in joined)
    ]
    if "cool_down" in overrides:
        assert joined == []
    else:
        assert len(joined) == len(records) - 1 and resumed
    # one replay per candidate: the taken action's is the MAINTAIN fork of
    # the next checkpoint, except in the final window
    assert len(replays) == sum(len(rec.per_action_utilities) for rec in records)
    # a resumed MAINTAIN fork builds no cluster; the primary run builds one
    assert len(forks) == 1 + len(replays) - len(resumed)

    for rec in records:
        per_action = rec.per_action_utilities
        assert per_action == direct_replays(checkpoints[rec.time], per_action, window)
        assert rec.u_actual == per_action[rec.action_taken]
        assert rec.u_ideal == max(per_action.values())
