import math
import random
from fractions import Fraction

import pytest

from conftest import captured_checkpoints, direct_replays, dispatch_alone, make_trace
from elastidebt.economics import AdaptationRecord, WindowCounts, counterfactual_ideal
from elastidebt.experiment import ExperimentConfig, run_experiment
from elastidebt.policies import ACTION_ORDER, Action, DebtAwarePolicy, Level, StateKey, VotingPolicy
from elastidebt.sim import Checkpoint, Cluster, SimConfig, Simulation
from elastidebt.workload import default_profile, generate_trace


def test_classify_examples():
    # a 10 MIPS VM answers 2, 20 and 50 MI in 0.2, 2.0 and 5.0 s against the
    # 2 s SLA: only a response strictly below the limit succeeds
    assert dispatch_alone(2.0) == (0.0, 0.2, True)
    assert dispatch_alone(20.0) == (0.0, 2.0, False)  # strict boundary
    assert dispatch_alone(50.0) == (0.0, 5.0, False)


def test_compute_utility_hand_example():
    # 1000 successes, 50 failures, two VMs charged 3 cycles each
    ub = WindowCounts(1050, 1000, 50, 6).utility(SimConfig())
    assert ub.revenue == pytest.approx(1.2344, abs=1e-12)
    assert ub.penalty == pytest.approx(0.1, abs=1e-12)
    assert ub.vm_cost == pytest.approx(0.06666, abs=1e-12)
    assert ub.utility == pytest.approx(1.06774, abs=1e-12)
    assert ub.utility == ub.revenue - ub.penalty - ub.vm_cost
    assert ub.counts == WindowCounts(1050, 1000, 50, 6)


def test_compute_utility_edge_cases():
    empty = WindowCounts(0, 0, 0, 0).utility(SimConfig())
    assert empty.utility == 0.0
    ub = WindowCounts(10, 0, 10, 1).utility(SimConfig())
    assert ub.utility == pytest.approx(-0.03111, abs=1e-12)
    with pytest.raises(ValueError):
        WindowCounts(0, -1, 0, 0).utility(SimConfig())
    with pytest.raises(ValueError):
        WindowCounts(0, 0, -1, 0).utility(SimConfig())


def test_compute_utility_is_linear():
    cfg = SimConfig()
    rng = random.Random(4)
    for _ in range(50):
        xs, xf = rng.randrange(2000), rng.randrange(200)
        cyc = sum(rng.randrange(5) for _ in range(rng.randrange(4)))
        ub = WindowCounts(xs + xf, xs, xf, cyc).utility(cfg)
        expected = (
            cfg.price_per_request * xs
            - cfg.penalty_per_request * xf
            - cfg.vm_cost_per_cycle * cyc
        )
        assert ub.utility == pytest.approx(expected, abs=1e-12)
        doubled = WindowCounts(2 * xs + xf, 2 * xs, xf, cyc).utility(cfg)
        assert doubled.revenue == pytest.approx(2 * ub.revenue, rel=1e-12)


def record(per_action, taken=Action.MAINTAIN):
    return AdaptationRecord(60.0, StateKey(Level.LOW, Level.LOW), taken, per_action)


def test_compute_debt():
    equal = record({Action.MAINTAIN: 5.0, Action.LAUNCH: 5.0})
    assert (equal.u_actual, equal.u_ideal, equal.debt) == (5.0, 5.0, 0.0)
    short = record({Action.MAINTAIN: 4.9, Action.LAUNCH: 5.0})
    assert short.u_actual == 4.9 and short.u_ideal == 5.0
    assert short.debt == pytest.approx(-0.1)


def penalties(successes, failures, mode, target=0.95):
    """Failures penalized in a window of ``successes`` and ``failures``."""
    cfg = SimConfig(sla_mode=mode, sla_target=target, penalty_per_request=1.0)
    return WindowCounts(successes + failures, successes, failures, 0).utility(cfg).penalty


def test_penalized_failures_modes():
    assert penalties(900, 100, "per_request") == 100
    # floor mode: 5% of 1000 completed = 50 failures are tolerated
    assert penalties(900, 100, "floor", target=0.95) == 50
    assert penalties(990, 10, "floor", target=0.95) == 0
    with pytest.raises(ValueError):
        WindowCounts(2, 1, 1, 0).utility(SimConfig(sla_mode="sometimes"))


@pytest.mark.parametrize("target", [0.8, 0.9, 0.95, 0.99])
def test_floor_allowance_is_exact(target):
    # the allowance is the completed requests less the successes the floor
    # requires of them, in exact arithmetic: 1 - 0.9 is 0.0999...98 in
    # binary, which must not cost 10 completed requests their one allowed
    # failure
    exact = Fraction(str(target))
    for n in range(2001):
        allowance = n - math.ceil(exact * n)
        for failures in {0, allowance, allowance + 1, n}:
            if failures <= n:
                expected = max(0, failures - allowance)
                assert penalties(n - failures, failures, "floor", target) == expected, (n, failures)


def idle_checkpoint(n_vms: int, at: float, cfg: SimConfig) -> Checkpoint:
    cluster = Cluster(cfg)
    for _ in range(n_vms):
        cluster.launch_vm(0.0, initial=True)
    empty = make_trace([])
    cluster.advance(at, empty, 0)
    return Checkpoint(at, cluster, empty, 0)


def test_release_beats_maintain_by_one_cycle_cost_when_idle():
    # two idle VMs, no arrivals: the only utility difference across actions
    # is how many cycle boundaries land inside the window
    cfg = SimConfig(initial_vms=2)
    ckpt = idle_checkpoint(2, 600.0, cfg)
    per_action = counterfactual_ideal(ckpt, ACTION_ORDER, 960.0)
    assert per_action[Action.RELEASE] - per_action[Action.MAINTAIN] == pytest.approx(0.01111)
    assert per_action[Action.MAINTAIN] - per_action[Action.LAUNCH] == pytest.approx(0.01111)
    assert max(per_action.values()) == per_action[Action.RELEASE]


def test_equal_candidate_utilities_mean_zero_debt():
    # a single VM: release is refused and collapses onto maintain
    cfg = SimConfig(initial_vms=1)
    ckpt = idle_checkpoint(1, 600.0, cfg)
    per_action = counterfactual_ideal(ckpt, (Action.MAINTAIN, Action.RELEASE), 960.0)
    assert per_action[Action.MAINTAIN] == per_action[Action.RELEASE]
    assert record(per_action, Action.RELEASE).debt == 0.0


def test_counterfactual_rejects_empty_candidates():
    cfg = SimConfig(initial_vms=1)
    ckpt = idle_checkpoint(1, 600.0, cfg)
    with pytest.raises(ValueError):
        counterfactual_ideal(ckpt, (), 960.0)


def test_replay_does_not_perturb_primary_run():
    # identical baseline runs with and without debt valuation
    cfg = SimConfig()
    trace_a = generate_trace(default_profile(), 1800.0, seed=17)
    trace_b = generate_trace(default_profile(), 1800.0, seed=17)
    with_debt = Simulation(cfg).run(trace_a, VotingPolicy(), 1800.0, record_debt=True)
    without = Simulation(cfg).run(trace_b, VotingPolicy(), 1800.0, record_debt=False)
    assert [w.ready_vms for w in with_debt.windows] == [w.ready_vms for w in without.windows]
    assert [w.breakdown for w in with_debt.windows] == [w.breakdown for w in without.windows]
    assert with_debt.counts == without.counts
    assert with_debt.in_flight_at_end == without.in_flight_at_end


def test_window_utilities_sum_to_run_total():
    # the report's money totals are the in-order fold of its windows, bit
    # for bit, under either policy and SLA mode
    for policy in ("voting", "debt-aware"):
        for mode in ("per_request", "floor"):
            config = ExperimentConfig(
                sim=SimConfig(sla_mode=mode),
                profile=default_profile(),
                policy=policy,
                seed=23,
                horizon=2400.0,
            )
            report = run_experiment(config)
            t, result = report.totals, report.result
            revenue = penalty = vm_cost = utility = 0.0
            for win in result.windows:
                revenue += win.breakdown.revenue
                penalty += win.breakdown.penalty
                vm_cost += win.breakdown.vm_cost
                utility += win.breakdown.utility
            assert (t.revenue, t.penalty, t.total_cost, t.aggregate_utility) == (
                revenue,
                penalty,
                vm_cost,
                utility,
            )
            assert t.aggregate_utility == report.rows[-1].cumulative_utility
            assert t.aggregate_utility == pytest.approx(revenue - penalty - vm_cost, abs=1e-9)
            # cycle charges across windows match the whole-run billing exactly
            window_cycles = sum(w.breakdown.counts.cycles for w in result.windows)
            assert window_cycles == result.counts.cycles
            assert vm_cost == pytest.approx(config.sim.vm_cost_per_cycle * window_cycles, abs=1e-9)


def test_debts_non_positive_and_zero_iff_action_maximal():
    cfg = SimConfig()
    trace = generate_trace(default_profile(), 2400.0, seed=31)
    result = Simulation(cfg).run(trace, VotingPolicy(), 2400.0)
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
    # which is why a run may take its state on from that replay (the final
    # window is excluded: its billing true-up has no replay analogue)
    checkpoints = {}
    original = Checkpoint.__init__

    def capturing(self, time, *args):
        original(self, time, *args)
        checkpoints[time] = self

    replays = []
    replay = Checkpoint.replay

    def counting(self, action, end):
        replays.append(action)
        return replay(self, action, end)

    monkeypatch.setattr(Checkpoint, "__init__", capturing)
    monkeypatch.setattr(Checkpoint, "replay", counting)
    cfg = SimConfig()
    trace = generate_trace(default_profile(), 1800.0, seed=29)
    result = Simulation(cfg).run(trace, VotingPolicy(), 1800.0)
    checked = 0
    for win in result.windows[:-1]:
        if win.record is None:
            continue
        rec = win.record
        assert rec.u_actual == win.breakdown.utility
        replayed = replay(checkpoints[rec.time], rec.action_taken, rec.time + (win.end - rec.time))
        assert replayed.utility == win.breakdown.utility
        checked += 1
    assert checked >= 5
    # every candidate is replayed once, the taken action included
    assert len(replays) == 3 * len(result.records)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"sla_mode": "floor"},
        {"billing_anchor": "at_ready", "decision_interval": 45.0, "billing_cycle": 250.0},
        # every gap is longer than the window: no replay passes a checkpoint
        {"cool_down": 400.0},
        # each replay passes one checkpoint and stops before the next
        {"cool_down": 200.0},
    ],
)
def test_proactive_u_actual_matches_direct_replay(monkeypatch, overrides):
    # every candidate is replayed from the adaptation's checkpoint, and the
    # taken action's replay is the run's future: it forks at each later
    # decision point it passes, for the run to take on, and where it stops
    # the next checkpoint's MAINTAIN replay goes on from it; all must equal
    # a direct replay from the adaptation's own checkpoint, bit for bit
    cfg = SimConfig(**overrides)
    window = cfg.decision_interval + cfg.billing_cycle
    horizon = 2400.0
    replays = []
    replay = Checkpoint.replay

    def counting(self, action, end):
        replays.append(action)
        return replay(self, action, end)

    forks = []
    cluster_init = Cluster.__init__

    def counting_forks(self, config):
        forks.append(config)
        cluster_init(self, config)

    monkeypatch.setattr(Checkpoint, "replay", counting)
    monkeypatch.setattr(Cluster, "__init__", counting_forks)
    trace = generate_trace(default_profile(), horizon, seed=31)
    with captured_checkpoints() as checkpoints:
        result = Simulation(cfg).run(trace, DebtAwarePolicy(seed=4), horizon)
    monkeypatch.undo()
    records = result.records
    assert len(records) >= 5

    # a MAINTAIN replay goes on from the previous taken replay when that
    # stopped past its checkpoint
    resumed = [
        i
        for i in range(1, len(records))
        if Action.MAINTAIN in records[i].per_action_utilities
        and records[i - 1].time + window > records[i].time
    ]
    # the taken replay forks at each later decision point, the horizon
    # included, from where it starts to before its end
    points = [rec.time for rec in records] + [horizon]
    kept = []
    for i, rec in enumerate(records):
        carried = i in resumed and rec.action_taken is Action.MAINTAIN
        start = records[i - 1].time + window if carried else rec.time
        kept += [t for t in points[i + 1 :] if start <= t < rec.time + window]
    carried = [i for i in resumed if records[i].action_taken is Action.MAINTAIN]
    if overrides.get("cool_down") == 400.0:
        # every replay stops before the next checkpoint; only the last
        # passes the horizon
        assert resumed == [] and kept == [horizon]
    else:
        # MAINTAIN goes on from the run's future both when it was taken
        # and when it was not
        assert carried and set(resumed) - set(carried)
        assert len(kept) >= len(records)
    # one replay per candidate, the taken action included
    assert len(replays) == sum(len(rec.per_action_utilities) for rec in records)
    # the primary run builds one cluster and each checkpoint forks one;
    # each replay forks one more, except a MAINTAIN replay that goes on,
    # and the taken replay one more at each point it passes
    assert len(forks) == 1 + len(checkpoints) + len(replays) - len(resumed) + len(kept)

    for rec in records:
        per_action = rec.per_action_utilities
        assert per_action == direct_replays(checkpoints[rec.time], per_action, rec.time + window)
        assert rec.u_actual == per_action[rec.action_taken]
        assert rec.u_ideal == max(per_action.values())


def test_run_checkpoints_replay_as_direct_replays(monkeypatch):
    # after a run, replaying every candidate on the checkpoints the run
    # itself built gives the direct replays: a fork that went on as the
    # run's future is no longer reachable from the checkpoint it left
    cfg = SimConfig()
    window = cfg.decision_interval + cfg.billing_cycle
    live = {}
    init = Checkpoint.__init__

    def keeping(self, time, *args):
        init(self, time, *args)
        live[time] = self

    monkeypatch.setattr(Checkpoint, "__init__", keeping)
    trace = generate_trace(default_profile(), 2400.0, seed=31)
    with captured_checkpoints() as checkpoints:
        result = Simulation(cfg).run(trace, DebtAwarePolicy(seed=4), 2400.0)
    monkeypatch.undo()
    assert sum(rec.action_taken is Action.MAINTAIN for rec in result.records) >= 3
    for rec in result.records:
        end = rec.time + window
        per_action = rec.per_action_utilities
        replayed = {a: live[rec.time].replay(a, end).utility for a in per_action}
        assert replayed == direct_replays(checkpoints[rec.time], per_action, end) == per_action, rec.time
