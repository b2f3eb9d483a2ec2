import math
import re
from bisect import bisect_right

import pytest

from conftest import FixedPolicy, dispatch_alone, dispatch_all, make_trace, oracle_cycles, recorded_jobs
from elastidebt.economics import WindowCounts
from elastidebt.policies import ACTION_ORDER, Action, VotingPolicy
from elastidebt.sim import (
    Checkpoint,
    Cluster,
    SimConfig,
    Simulation,
    VmInstance,
    billing_cycles_charged,
    select_release_victim,
)
from elastidebt.workload import WorkloadTrace


def make_vm(vm_id=0, ready=0.0, anchor=0.0):
    return VmInstance(vm_id, ready, anchor)


# -- execution time ----------------------------------------------------------


def test_execution_time_is_work_over_capacity():
    # 10 MIPS VM: an idle VM starts the request on arrival
    assert dispatch_alone(2.0)[:2] == (0.0, 0.2)
    assert dispatch_alone(10.0)[:2] == (0.0, 1.0)
    assert dispatch_alone(5.0)[:2] == (0.0, 0.5)


# -- dispatch ----------------------------------------------------------------


def test_dispatch_prefers_fewest_outstanding():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    # vm0 gets a 10 s and a 0.2 s request, vm1 a 0.2 s one and then a 10 s one
    assert dispatch_all(cluster, 0.0, 100.0, 2.0, 2.0, 100.0) == [0, 1, 0, 1]
    # vm1's first request finishes at 0.2, so an arrival at 0.2 sees vm1
    # holding one request and vm0 two
    assert dispatch_all(cluster, 0.2, 2.0) == [1]


def test_dispatch_tie_breaks_on_lowest_id():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    # equal loads at every step: the lower id wins each tie
    assert dispatch_all(cluster, 0.0, 2.0, 2.0, 2.0, 2.0) == [0, 1, 0, 1]
    assert [len(vm.jobs) for vm in cluster.active.values()] == [2, 2]
    assert dispatch_all(cluster, 0.0, 2.0) == [0]


def test_busy_dispatch_stops_at_first_one_request_vm():
    cluster = Cluster(SimConfig())
    for _ in range(3):
        cluster.launch_vm(0.0, initial=True)
    log = recorded_jobs(cluster)
    trace = make_trace([(0.0, 100.0), (0.1, 100.0), (0.2, 5.0), (0.3, 100.0), (1.0, 2.0), (1.1, 2.0)])
    cluster.advance(1.1, trace, 0)
    # at 1.1 every VM is busy: vm0 holds two requests and vm1 one, so vm1
    # wins and the scan stops before vm2, whose first request finished at 0.7
    assert [vm_id for vm_id, *_ in log] == [0, 1, 2, 0, 2, 1]
    # settling at the end of advance still counts that request, once
    assert (cluster.successes, cluster.failures) == (1, 0)
    assert [len(vm.jobs) for vm in cluster.vms.values()] == [2, 2, 1]
    assert cluster.vms[2].served == pytest.approx(0.5)


def test_dispatch_prefers_idle_higher_id_over_busy_lower_id():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    assert dispatch_all(cluster, 0.0, 2.0) == [0]
    assert dispatch_all(cluster, 0.0, 2.0) == [1]


def test_active_stays_in_id_order_after_release_and_launch():
    cluster = Cluster(SimConfig())
    for _ in range(3):
        cluster.launch_vm(0.0, initial=True)
    cluster.release_vm(1, 10.0)
    new = cluster.launch_vm(10.0, initial=True)
    assert new == 3
    assert list(cluster.active) == [0, 2, 3]
    # vm0 is busy; vm2 and vm3 tie at zero outstanding and the lower id wins
    assert dispatch_all(cluster, 10.0, 2.0) == [0]
    assert dispatch_all(cluster, 10.0, 2.0) == [2]


def test_dispatch_parks_on_idle_pending_vm_over_busy_ready_vms():
    # least-outstanding dispatch counts VMs still spinning up: an empty
    # pending VM beats ready VMs that each have work outstanding
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    pending = cluster.launch_vm(0.0)
    assert dispatch_all(cluster, 10.0, 2.0, 2.0) == [0, 1]
    assert dispatch_all(cluster, 10.0, 2.0) == [pending]
    # it waits for the VM to be ready, so its response misses the SLA
    vm = cluster.active[pending]
    ((start, _, ok),) = vm.jobs
    assert start == vm.ready_at == 105.0
    assert ok is False


def test_replay_cluster_keeps_active_in_id_order(monkeypatch):
    cfg = SimConfig()
    cluster = Cluster(cfg)
    for _ in range(4):
        cluster.launch_vm(0.0, initial=True)
    cluster.release_vm(1, 0.0)
    cluster.launch_vm(0.0)
    cluster.advance(120.0, make_trace([]), 0)
    seen = []
    original = Cluster.advance

    def recording(self, until, trace, idx):
        seen.append(list(self.active))
        return original(self, until, trace, idx)

    monkeypatch.setattr(Cluster, "advance", recording)
    checkpoint = Checkpoint(120.0, cluster, make_trace([]), 0)
    checkpoint.replay(Action.MAINTAIN, 180.0)
    checkpoint.replay(Action.LAUNCH, 180.0)
    assert seen == [[0, 2, 3, 4], [0, 2, 3, 4, 5]]


def test_request_on_pending_vm_waits_for_ready():
    # one VM spinning up (ready at 105): request arriving at t=10 is queued
    # on it and starts exactly at the ready transition
    cfg = SimConfig(initial_vms=1)
    cluster = Cluster(cfg)
    vm_id = cluster.launch_vm(0.0)  # not initial: spins up until 105
    arrivals = make_trace([(10.0, 2.0)])
    cluster.advance(10.0, arrivals, 0)
    ((start, finish, _),) = cluster.active[vm_id].jobs
    assert start == 105.0
    assert finish == pytest.approx(105.2)
    cluster.advance(500.0, arrivals, 1)
    assert cluster.failures == 1
    assert not cluster.active[vm_id].jobs


# -- launch / release --------------------------------------------------------


def test_launch_vm_spin_up():
    cluster = Cluster(SimConfig())
    vm_id = cluster.launch_vm(0.0)
    vm = cluster.active[vm_id]
    assert vm.ready_at == 105.0
    assert vm.anchor == 0.0  # at_request default: billed from the request


def test_two_launches_same_instant_get_distinct_ids():
    cluster = Cluster(SimConfig())
    a = cluster.launch_vm(7.0)
    b = cluster.launch_vm(7.0)
    assert a != b
    assert cluster.active[a].ready_at == cluster.active[b].ready_at == 112.0


def test_billing_anchor_at_ready():
    cfg = SimConfig(billing_anchor="at_ready")
    cluster = Cluster(cfg)
    vm_id = cluster.launch_vm(0.0)
    vm = cluster.active[vm_id]
    assert vm.anchor == 105.0
    # first charged boundary sits one cycle past the anchor
    cluster.advance(405.0, make_trace([]), 0)
    assert cluster.counts(404.0).cycles == 0
    assert cluster.counts(405.0).cycles == 1


def test_release_unknown_or_repeated_vm_errors():
    cluster = Cluster(SimConfig())
    vm_id = cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    with pytest.raises(ValueError, match="unknown"):
        cluster.release_vm(99, 10.0)
    cluster.release_vm(vm_id, 10.0)
    with pytest.raises(ValueError, match="already released"):
        cluster.release_vm(vm_id, 20.0)


def test_released_vm_drains_queue_and_counts_responses():
    cfg = SimConfig(initial_vms=1)
    cluster = Cluster(cfg)
    vm_id = cluster.launch_vm(0.0, initial=True)
    reqs = make_trace([(0.0, 2.0)] * 3)
    cluster.advance(0.0, reqs, 0)  # one executing, two queued
    assert len(cluster.active[vm_id].jobs) == 3
    finishes = [finish for _, finish, _ in cluster.active[vm_id].jobs]
    assert finishes == pytest.approx([0.2, 0.4, 0.6])
    other = cluster.launch_vm(0.0, initial=True)
    cluster.release_vm(vm_id, 0.05)
    cluster.advance(100.0, reqs, 3)
    assert cluster.successes == 3
    assert not cluster.vms[vm_id].jobs
    # released VM accepts no new work
    late = make_trace([(150.0, 2.0)])
    cluster.advance(150.0, late, 0)
    assert [start for start, _, _ in cluster.active[other].jobs] == [150.0]
    cluster.advance(200.0, late, 1)
    assert cluster.vms[vm_id].last_finish == finishes[-1]
    assert cluster.successes == 4
    # the last active VM cannot be released
    with pytest.raises(ValueError, match="last active VM"):
        cluster.release_vm(other, 200.0)
    assert list(cluster.active) == [other]


# -- billing -----------------------------------------------------------------


def test_billing_examples():
    cycle = 300.0
    vm = make_vm(anchor=0.0)
    vm.released_at = 420.0
    assert billing_cycles_charged(vm, 21600.0, cycle) == 2
    assert 2 * 0.01111 == pytest.approx(0.02222)
    vm.released_at = 300.0
    assert billing_cycles_charged(vm, 21600.0, cycle) == 1
    alive = make_vm(anchor=0.0)
    assert billing_cycles_charged(alive, 21600.0, cycle) == 72


def test_billing_sweep_matches_ceil_oracle():
    cycle = 300.0
    for t10 in range(10, 15001, 7):  # release times 1.0 .. 1500.0 in 0.7 steps
        t = t10 / 10.0
        vm = make_vm(anchor=0.0)
        vm.released_at = t
        assert billing_cycles_charged(vm, 21600.0, cycle) == math.ceil(t / cycle), t


def test_billing_never_precedes_anchor():
    vm = make_vm(anchor=600.0)
    with pytest.raises(ValueError):
        billing_cycles_charged(vm, 599.0, 300.0)
    assert billing_cycles_charged(vm, 600.0, 300.0) == 0


# -- utilization -------------------------------------------------------------


def observed_utilization(arrivals, window_end, cfg=None, launch_at=None):
    """Per-VM utilization the observation reports for the window [0, window_end].

    ``arrivals`` are (time, work) pairs; ``launch_at`` launches one VM that
    spins up for ``cfg.spin_up`` seconds.  Work still in flight at the window
    end counts for its elapsed part, as at a decision point.
    """
    sim = Simulation(cfg or SimConfig(initial_vms=1))
    if launch_at is not None:
        sim.cluster.launch_vm(launch_at)
    trace = make_trace(arrivals)
    marks = {vm.id: 0.0 for vm in sim.cluster.active.values()}
    sim.cluster.advance(window_end, trace, 0)
    return sim._observe(window_end, 0.0, marks).per_vm_utilization


def test_utilization_idle_and_busy_window():
    assert observed_utilization([], 1.0) == [0.0]
    # 10 MI on a 10 MIPS VM: busy for the whole 1 s window
    assert observed_utilization([(0.0, 10.0)], 1.0) == [1.0]
    # still executing at the window end: the elapsed part counts
    assert observed_utilization([(0.0, 20.0)], 1.0) == [1.0]


def test_utilization_fractional():
    # one 0.2 s execution inside a 1 s window
    assert observed_utilization([(0.3, 2.0)], 1.0) == [pytest.approx(0.2)]


def test_utilization_counts_only_ready_portion():
    # vm0 is busy all window; vm1 is ready at 0.5 and runs the request
    # parked on it at 0.1 from 0.5 to 0.75: busy half of its ready half
    cfg = SimConfig(initial_vms=1, spin_up=0.5)
    utils = observed_utilization([(0.0, 20.0), (0.1, 2.5)], 1.0, cfg, launch_at=0.0)
    assert utils == [1.0, pytest.approx(0.5)]


def test_utilization_zero_ready_span_reads_zero():
    # a VM that turns ready exactly at the window end has no ready span
    cfg = SimConfig(initial_vms=1, spin_up=1.0)
    assert observed_utilization([], 1.0, cfg, launch_at=0.0) == [0.0, 0.0]


# -- full runs ---------------------------------------------------------------


def test_empty_trace_costs_two_cycles(maintain_policy):
    cfg = SimConfig(initial_vms=1)
    result = Simulation(cfg).run(make_trace([]), maintain_policy, 600.0)
    # no request earns or costs anything; the one VM pays two cycles
    assert result.counts == WindowCounts(submitted=0, successes=0, failures=0, cycles=2)
    assert sum(w.breakdown.revenue for w in result.windows) == 0.0
    assert sum(w.breakdown.penalty for w in result.windows) == 0.0
    assert sum(w.breakdown.utility for w in result.windows) == pytest.approx(-2 * 0.01111)


def test_fifo_queueing_hand_trace(maintain_policy):
    # ten simultaneous 2 MI requests on one 10 MIPS VM finish at 0.2, 0.4, ... 2.0;
    # only the 2.0 s completion misses the strict < 2 s SLA
    cfg = SimConfig(initial_vms=1)
    trace = make_trace([(0.0, 2.0)] * 10)
    sim = Simulation(cfg)
    jobs = recorded_jobs(sim.cluster)
    result = sim.run(trace, maintain_policy, 600.0)
    finishes = sorted(finish for _, _, finish, _ in jobs)
    assert finishes == pytest.approx([0.2 * k for k in range(1, 11)])
    assert [ok for *_, ok in jobs] == [True] * 9 + [False]
    assert result.counts.failures == 1
    assert result.counts.successes == 9


def test_conservation_of_requests():
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 900.0, seed=11)
    result = Simulation(SimConfig()).run(trace, FixedPolicy(Action.MAINTAIN), 900.0)
    counts = result.counts
    assert counts.submitted == len(trace.arrivals)
    assert counts.successes + counts.failures + result.in_flight_at_end == counts.submitted


def test_conservation_holds_at_every_decision_point():
    from elastidebt.workload import default_profile, generate_trace

    sim = Simulation(SimConfig())
    original = sim._observe

    def checked(now, win_start, marks):
        c = sim.cluster
        assert c.submitted - c.successes - c.failures == c.outstanding_requests()
        return original(now, win_start, marks)

    sim._observe = checked
    trace = generate_trace(default_profile(), 1500.0, seed=13)
    result = sim.run(trace, FixedPolicy(Action.MAINTAIN), 1500.0)
    assert len(result.windows) >= 10


def test_adaptations_respect_cool_down():
    from elastidebt.workload import default_profile, generate_trace

    cfg = SimConfig()
    trace = generate_trace(default_profile(), 1800.0, seed=3)
    result = Simulation(cfg).run(trace, FixedPolicy(Action.MAINTAIN), 1800.0)
    times = [rec.time for rec in result.records]
    assert times, "expected at least one adaptation"
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= cfg.cool_down for g in gaps)


def test_last_vm_release_is_refused():
    cfg = SimConfig(initial_vms=1)
    result = Simulation(cfg).run(make_trace([]), FixedPolicy(Action.RELEASE), 1200.0)
    # the single VM survives the whole run and keeps billing
    assert result.counts.cycles == 4
    assert all(w.ready_vms == 1 for w in result.windows)


def test_release_victim_prefers_idle_nearest_boundary():
    cfg = SimConfig()
    cluster = Cluster(cfg)
    a = cluster.launch_vm(0.0, initial=True)  # anchor 0: at t=250, 50s to boundary
    b = cluster.launch_vm(0.0, initial=True)
    cluster.active[b].anchor = 100.0  # at t=250, 150s to boundary
    assert select_release_victim(cluster, 250.0) == a
    # a busy VM is not an idle candidate
    assert dispatch_all(cluster, 250.0, 2.0) == [a]
    assert select_release_victim(cluster, 250.0) == b


def test_release_victim_counts_a_vm_ready_at_the_decision_as_idle():
    # launched at 205, the second VM turns ready at 310 with 195 s to its
    # boundary, nearer than the first VM's 290 s: it is the idle victim
    cluster = Cluster(SimConfig())
    first = cluster.launch_vm(0.0, initial=True)
    second = cluster.launch_vm(205.0)
    assert cluster.active[second].ready_at == 310.0
    assert select_release_victim(cluster, 310.0) == second
    # still pending a moment earlier, it is no idle candidate
    assert select_release_victim(cluster, 309.5) == first


def test_at_ready_anchor_survives_launch_near_horizon():
    # launched at 180 with at_ready anchoring, the VM's anchor (285) lands
    # past the 240 s horizon: it is simply not billed yet, while the initial
    # VM and the t=60 launch (anchored 165) each owe their started cycle
    cfg = SimConfig(billing_anchor="at_ready", initial_vms=1)
    result = Simulation(cfg).run(make_trace([]), FixedPolicy(Action.LAUNCH), 240.0)
    assert result.vms_launched == 3
    assert result.counts.cycles == 2


@pytest.mark.parametrize("horizon", [0.0, -60.0, float("inf"), float("nan")])
def test_run_rejects_a_horizon_that_is_not_positive_and_finite(maintain_policy, horizon):
    with pytest.raises(ValueError, match=r"^horizon must be positive and finite, got "):
        Simulation(SimConfig()).run(make_trace([]), maintain_policy, horizon)


def test_trace_beyond_horizon_rejected(maintain_policy):
    trace = make_trace([(100.0, 2.0)])
    with pytest.raises(ValueError, match="horizon"):
        Simulation(SimConfig()).run(trace, maintain_policy, 50.0)


def test_unordered_trace_rejected(maintain_policy):
    trace = WorkloadTrace([20.0, 10.0], [2.0, 2.0])
    with pytest.raises(ValueError, match="out of order at request 1"):
        Simulation(SimConfig()).run(trace, maintain_policy, 60.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "arrivals, work, index, value",
    [
        pytest.param([NAN], [2.0], 0, "nan", id="nan-only-arrival"),
        pytest.param([NAN, 10.0], [2.0, 2.0], 0, "nan", id="nan-first-arrival"),
        pytest.param([10.0, NAN, 30.0], [2.0, 2.0, 2.0], 1, "nan", id="nan-middle-arrival"),
        pytest.param([10.0, NAN], [2.0, 2.0], 1, "nan", id="nan-last-arrival"),
        pytest.param([-50.0, 10.0], [2.0, 2.0], 0, "-50.0", id="negative-arrival"),
        pytest.param([10.0, 20.0], [2.0, 0.0], 1, "0.0", id="zero-work"),
        pytest.param([10.0, 20.0], [-2.0, 2.0], 0, "-2.0", id="negative-work"),
        pytest.param([10.0, 20.0], [2.0, NAN], 1, "nan", id="nan-work"),
        pytest.param([10.0, 20.0], [INF, 2.0], 0, "inf", id="infinite-work"),
        pytest.param([10.0, 20.0], [2.0, -INF], 1, "-inf", id="negative-infinite-work"),
    ],
)
def test_invalid_trace_columns_rejected(arrivals, work, index, value):
    # what parse_trace rejects in a file fails the same way in columns
    # built directly, before any simulation, naming the request and value
    trace = WorkloadTrace(arrivals, work)
    sim = Simulation(SimConfig(initial_vms=1))
    with pytest.raises(ValueError, match=rf"request {index}\b.* {re.escape(value)}\b"):
        sim.run(trace, VotingPolicy(), 60.0)
    assert sim.cluster.submitted == 0


def test_policy_returning_junk_rejected():
    class Junk(FixedPolicy):
        def decide(self, obs):
            return "scale-up"

    with pytest.raises(TypeError):
        Simulation(SimConfig()).run(make_trace([]), Junk(), 600.0)


def test_policy_offering_junk_candidates_rejected():
    class JunkCandidates(FixedPolicy):
        def candidates(self, obs):
            return (Action.MAINTAIN, "launch")

    with pytest.raises(TypeError, match="'launch'"):
        Simulation(SimConfig()).run(make_trace([]), JunkCandidates(), 600.0)


def test_run_is_deterministic():
    from elastidebt.workload import default_profile, generate_trace

    trace_a = generate_trace(default_profile(), 1200.0, seed=21)
    trace_b = generate_trace(default_profile(), 1200.0, seed=21)
    res_a = Simulation(SimConfig()).run(trace_a, FixedPolicy(Action.MAINTAIN), 1200.0)
    res_b = Simulation(SimConfig()).run(trace_b, FixedPolicy(Action.MAINTAIN), 1200.0)
    assert [w.breakdown for w in res_a.windows] == [w.breakdown for w in res_b.windows]
    assert res_a.counts == res_b.counts
    assert res_a.records == res_b.records


def test_billed_cycles_cover_busy_span():
    from elastidebt.workload import default_profile, generate_trace

    cfg = SimConfig()
    horizon = 1500.0
    trace = generate_trace(default_profile(), horizon, seed=2)
    sim = Simulation(cfg)
    jobs = recorded_jobs(sim.cluster)

    def busy_span(vm_id, by):
        done = [(s, f) for v, s, f, _ in jobs if v == vm_id and f <= by]
        return done[0][0], done[-1][1]

    observe = sim._observe
    interior = []
    cycle = cfg.billing_cycle

    def checked(now, win_start, marks):
        if now < horizon:
            # before the close: each boundary passed so far is charged once,
            # and the cycle in progress is not charged yet
            interior.append(now)
            charged = 0
            for vm in sim.cluster.vms.values():
                cycles = billing_cycles_charged(vm, now, cycle, close=False)
                assert cycles == oracle_cycles(vm, now, cycle)
                charged += cycles
                first_start, last_finish = busy_span(vm.id, now)
                busy = last_finish - first_start
                assert cycles + 1 >= math.ceil(busy / cycle - 1e-9)
            assert sim.cluster.counts(now).cycles == charged
        return observe(now, win_start, marks)

    sim._observe = checked
    # the log holds what the run dispatches itself: without debts, every
    # arrival, where a run with debts takes its spans on from replays
    result = sim.run(trace, FixedPolicy(Action.MAINTAIN), horizon, record_debt=False)
    assert len(jobs) == len(trace)
    assert interior == [60.0 + 120.0 * k for k in range(12)]
    vms = {vm.id: vm for vm in sim.cluster.vms.values()}
    assert len({vm_id for vm_id, *_ in jobs}) == len(vms) == cfg.initial_vms
    charged = 0
    for vm_id, vm in vms.items():
        # the close charges every started cycle
        cycles = billing_cycles_charged(vm, horizon, cycle)
        assert cycles == oracle_cycles(vm, horizon, cycle, close=True)
        charged += cycles
        first_start, last_finish = busy_span(vm_id, horizon)
        busy = last_finish - first_start
        assert cycles >= math.ceil(busy / cycle - 1e-9)
        assert first_start >= vm.anchor
    assert sum(w.breakdown.counts.cycles for w in result.windows) == charged


def test_unrecorded_debts_build_no_checkpoints(monkeypatch):
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 1200.0, seed=5)
    policy = FixedPolicy(Action.LAUNCH)
    recorded = Simulation(SimConfig()).run(trace, policy, 1200.0)
    built = []
    original = Checkpoint.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(Checkpoint, "__init__", counting)
    unrecorded = Simulation(SimConfig()).run(trace, policy, 1200.0, record_debt=False)
    assert built == []
    assert len(unrecorded.records) == len(recorded.records) > 0
    # an unvalued record reads no utility and no debt
    for rec in unrecorded.records:
        assert rec.per_action_utilities == {}
        assert rec.u_actual == rec.u_ideal == rec.debt == 0.0

    def primary(windows):
        return [(w.start, w.end, w.breakdown, w.ready_vms) for w in windows]

    assert primary(unrecorded.windows) == primary(recorded.windows)


class MaintainRuns(FixedPolicy):
    """Learns, and holds MAINTAIN for runs of one to three decisions between
    launches and releases, by a script that reads nothing of the run."""

    learns = True
    SCRIPT = (
        Action.MAINTAIN, Action.LAUNCH,
        Action.MAINTAIN, Action.MAINTAIN, Action.RELEASE,
        Action.MAINTAIN, Action.MAINTAIN, Action.MAINTAIN, Action.RELEASE,
    )

    def __init__(self):
        self.turns = 0

    def decide(self, obs):
        self.turns += 1
        return self.SCRIPT[(self.turns - 1) % len(self.SCRIPT)]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"sla_mode": "floor", "vm_capacity": 4.0},
        {"billing_anchor": "at_ready", "decision_interval": 45.0, "billing_cycle": 250.0},
        {"cool_down": 60.0},
    ],
)
def test_maintaining_run_adopts_its_fork_with_the_same_outcome(overrides):
    # a run that records debts takes on, at each decision point and at the
    # horizon, the state its taken action's replay kept there instead of
    # dispatching that span; it must measure what the run that records no
    # debts, and so has no replay ahead, measures itself.  The horizon is no
    # decision tick: it falls after a cool-down tick past the 15th and last
    # decision, a MAINTAIN after a RELEASE, whose replay runs past it
    from elastidebt.workload import default_profile, generate_trace

    cfg = SimConfig(**overrides)
    interval = cfg.decision_interval
    gap = interval * math.ceil(cfg.cool_down / interval)
    last = interval + 14 * gap
    horizon = last + gap - interval / 2
    trace = generate_trace(default_profile(), horizon, seed=12)

    def run(record_debt):
        sim = Simulation(cfg)
        dispatched = []
        advance = sim.cluster.advance

        def counting(until, trace, idx):
            end = advance(until, trace, idx)
            dispatched.append((until, end - idx))
            return end

        sim.cluster.advance = counting
        return sim.run(trace, MaintainRuns(), horizon, record_debt), dispatched

    recorded, dispatched = run(True)
    unrecorded, direct = run(False)

    def primary(result):
        windows = [(w.start, w.end, w.breakdown, w.ready_vms) for w in result.windows]
        records = [(r.time, r.state, r.action_taken, r.candidates) for r in result.records]
        return windows, records, result.counts, result.in_flight_at_end, result.vms_launched

    assert primary(recorded) == primary(unrecorded)
    assert len(recorded.records) == 15
    assert recorded.records[-1].time == last
    assert recorded.records[-1].action_taken is Action.MAINTAIN
    assert all(rec.per_action_utilities for rec in recorded.records)
    # the run without debts dispatches every arrival itself, once per
    # window; the one with debts only those up to its first decision: each
    # replay of a taken action runs past the next decision point
    closes = [rec.time for rec in recorded.records] + [horizon]
    upto = [bisect_right(trace.arrivals, t) for t in closes]
    assert direct == list(zip(closes, (b - a for a, b in zip([0] + upto, upto))))
    assert sum(n for _, n in direct) == len(trace)
    assert dispatched == [(interval, bisect_right(trace.arrivals, interval))]
    assert trace.arrivals[-1] > last


class MaintainOnly(FixedPolicy):
    """Learns, and offers MAINTAIN alone."""

    learns = True

    def candidates(self, obs):
        return (Action.MAINTAIN,)


@pytest.mark.parametrize(
    "overrides, horizon",
    [
        ({}, 1800.0),
        ({}, 1830.0),
        ({"cool_down": 60.0}, 1800.0),
        # each replay stops before the next decision point
        ({"cool_down": 400.0}, 1800.0),
        ({"decision_interval": 45.0, "billing_cycle": 250.0}, 1800.0),
    ],
    ids=["default", "horizon-1830", "cool-down-60", "cool-down-400", "interval-45-cycle-250"],
)
def test_a_maintaining_run_dispatches_each_arrival_once(monkeypatch, overrides, horizon):
    # the taken action's replay is the run's future, and each replay of
    # MAINTAIN goes on from where the one before stopped: the run and its
    # replays together dispatch every arrival exactly once
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), horizon, seed=12)
    dispatched = []
    advance = Cluster.advance

    def counting(self, until, trace, idx):
        end = advance(self, until, trace, idx)
        dispatched.append(end - idx)
        return end

    monkeypatch.setattr(Cluster, "advance", counting)
    result = Simulation(SimConfig(**overrides)).run(trace, MaintainOnly(), horizon)
    assert len(result.records) >= 4
    assert all(list(rec.per_action_utilities) == [Action.MAINTAIN] for rec in result.records)
    assert result.counts.submitted == len(trace)
    assert sum(dispatched) == len(trace)


class RewardLog(FixedPolicy):
    """Takes each action in turn and logs every reward it is handed."""

    def __init__(self, learns):
        self.learns = learns
        self.turns = 0
        self.rewards = []

    def decide(self, obs):
        self.turns += 1
        return ACTION_ORDER[self.turns % len(ACTION_ORDER)]

    def observe_reward(self, record, obs):
        self.rewards.append((obs.time, record.debt))


@pytest.mark.parametrize("learns", [True, False], ids=["proactive", "retrospective"])
def test_policy_is_rewarded_once_per_record_before_the_horizon(learns):
    from elastidebt.workload import default_profile, generate_trace

    # the horizon is no decision point, so the final window settles a record
    horizon = 1230.0
    trace = generate_trace(default_profile(), horizon, seed=4)
    policy = RewardLog(learns)
    result = Simulation(SimConfig()).run(trace, policy, horizon)
    settled = [(w.end, w.record.debt) for w in result.windows if w.record is not None]
    assert len(settled) == len(result.records) > 2
    assert settled[-1][0] == horizon
    assert any(debt < 0.0 for _, debt in settled[:-1])
    # the record the horizon settles rewards no one: no decision follows it
    assert policy.rewards == settled[:-1]

    unrecorded = RewardLog(learns)
    result = Simulation(SimConfig()).run(trace, unrecorded, horizon, record_debt=False)
    assert len(result.records) == len(settled)
    assert unrecorded.rewards == []


def test_window_sequence_partitions_run(maintain_policy):
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 1000.0, seed=8)
    result = Simulation(SimConfig()).run(trace, maintain_policy, 1000.0)
    assert result.windows[0].start == 0.0
    assert result.windows[-1].end == 1000.0
    for prev, cur in zip(result.windows, result.windows[1:]):
        assert prev.end == cur.start
