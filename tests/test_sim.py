import math

import pytest

from conftest import FixedPolicy, dispatch_alone, make_trace
from elastidebt.policies import Action
from elastidebt.sim import (
    Checkpoint,
    Cluster,
    SimConfig,
    Simulation,
    VmInstance,
    billing_cycles_charged,
    run_simulation,
    select_release_victim,
)
from elastidebt.workload import Request


def make_vm(vm_id=0, ready=0.0, anchor=0.0):
    return VmInstance(vm_id, ready, anchor)


# -- execution time ----------------------------------------------------------


def test_execution_time_is_work_over_capacity():
    # 10 MIPS VM: an idle VM starts the request on arrival
    assert dispatch_alone(2.0)[:2] == (0.0, 0.2)
    assert dispatch_alone(10.0)[:2] == (0.0, 1.0)
    assert dispatch_alone(5.0)[:2] == (0.0, 0.5)


# -- dispatch ----------------------------------------------------------------


def dispatch_all(cluster, now, *works):
    """Dispatch one request per work size at ``now``; returns the chosen VM ids."""
    return [cluster.dispatch(Request(100 + i, now, work), now) for i, work in enumerate(works)]


def recorded_jobs(cluster):
    """Log ``(vm_id, start, finish, ok)`` of every request the cluster dispatches."""
    log = []
    dispatch = cluster.dispatch

    def recording(req, now):
        vm_id = dispatch(req, now)
        log.append((vm_id, *cluster.active[vm_id].jobs[-1]))
        return vm_id

    cluster.dispatch = recording
    return log


def test_dispatch_prefers_fewest_outstanding():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    # vm0 gets a 10 s and a 0.2 s request, vm1 a 0.2 s one and then a 10 s one
    assert dispatch_all(cluster, 0.0, 100.0, 2.0, 2.0, 100.0) == [0, 1, 0, 1]
    # vm1's first request finishes at 0.2, so an arrival at 0.2 sees vm1
    # holding one request and vm0 two
    assert cluster.dispatch(Request(0, 0.2, 2.0), 0.2) == 1


def test_dispatch_tie_breaks_on_lowest_id():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    # equal loads at every step: the lower id wins each tie
    assert dispatch_all(cluster, 0.0, 2.0, 2.0, 2.0, 2.0) == [0, 1, 0, 1]
    assert [vm.outstanding() for vm in cluster.active.values()] == [2, 2]
    assert cluster.dispatch(Request(0, 0.0, 2.0), 0.0) == 0


def test_dispatch_prefers_idle_higher_id_over_busy_lower_id():
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    assert dispatch_all(cluster, 0.0, 2.0) == [0]
    assert cluster.dispatch(Request(0, 0.0, 2.0), 0.0) == 1


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
    assert cluster.dispatch(Request(0, 10.0, 2.0), 10.0) == 2


def test_dispatch_parks_on_idle_pending_vm_over_busy_ready_vms():
    # least-outstanding dispatch counts VMs still spinning up: an empty
    # pending VM beats ready VMs that each have work outstanding
    cluster = Cluster(SimConfig())
    cluster.launch_vm(0.0, initial=True)
    cluster.launch_vm(0.0, initial=True)
    pending = cluster.launch_vm(0.0)
    assert dispatch_all(cluster, 10.0, 2.0, 2.0) == [0, 1]
    assert cluster.dispatch(Request(0, 10.0, 2.0), 10.0) == pending
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
    cluster.advance(120.0, [], 0)
    seen = []
    original = Cluster.advance

    def recording(self, until, arrivals, idx):
        seen.append(list(self.active))
        return original(self, until, arrivals, idx)

    monkeypatch.setattr(Cluster, "advance", recording)
    checkpoint = Checkpoint(cfg, 120.0, cluster, [], 0)
    checkpoint.replay(Action.MAINTAIN, 60.0)
    checkpoint.replay(Action.LAUNCH, 60.0)
    assert seen == [[0, 2, 3, 4], [0, 2, 3, 4, 5]]


def test_request_on_pending_vm_waits_for_ready():
    # one VM spinning up (ready at 105): request arriving at t=10 is queued
    # on it and starts exactly at the ready transition
    cfg = SimConfig(initial_vms=1)
    cluster = Cluster(cfg)
    vm_id = cluster.launch_vm(0.0)  # not initial: spins up until 105
    arrivals = [Request(0, 10.0, 2.0)]
    cluster.advance(10.0, arrivals, 0)
    ((start, finish, _),) = cluster.active[vm_id].jobs
    assert start == 105.0
    assert finish == pytest.approx(105.2)
    cluster.advance(500.0, arrivals, 1)
    assert cluster.failures == 1
    assert cluster.active[vm_id].is_idle()


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
    cluster.advance(405.0, [], 0)
    assert vm.charged_cycles == 1


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
    reqs = [Request(0, 0.0, 2.0), Request(1, 0.0, 2.0), Request(2, 0.0, 2.0)]
    cluster.advance(0.0, reqs, 0)  # one executing, two queued
    assert cluster.active[vm_id].outstanding() == 3
    finishes = [finish for _, finish, _ in cluster.active[vm_id].jobs]
    assert finishes == pytest.approx([0.2, 0.4, 0.6])
    other = cluster.launch_vm(0.0, initial=True)
    cluster.release_vm(vm_id, 0.05)
    cluster.advance(100.0, reqs, 3)
    assert cluster.successes == 3
    assert cluster.retired[vm_id].is_idle()
    # released VM accepts no new work
    late = [Request(3, 150.0, 2.0)]
    cluster.advance(150.0, late, 0)
    assert [start for start, _, _ in cluster.active[other].jobs] == [150.0]
    cluster.advance(200.0, late, 1)
    assert cluster.retired[vm_id].last_finish == finishes[-1]
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
    requests = make_trace(arrivals).requests
    sim.cluster.advance(window_end, requests, 0)
    sim._flush_busy(window_end)
    return sim._observe(window_end, 0.0, 0, 0).per_vm_utilization


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
    result = run_simulation(cfg, make_trace([]), maintain_policy, 600.0)
    assert result.totals.revenue == 0.0
    assert result.totals.penalty == 0.0
    assert result.totals.vm_cost == pytest.approx(2 * 0.01111)
    assert result.aggregate_utility == pytest.approx(-2 * 0.01111)


def test_fifo_queueing_hand_trace(maintain_policy):
    # ten simultaneous 2 MI requests on one 10 MIPS VM finish at 0.2, 0.4, ... 2.0;
    # only the 2.0 s completion misses the strict < 2 s SLA
    cfg = SimConfig(initial_vms=1)
    trace = make_trace([(0.0, 2.0)] * 10, duration=10.0)
    sim = Simulation(cfg)
    jobs = recorded_jobs(sim.cluster)
    result = sim.run(trace, maintain_policy, 600.0)
    finishes = sorted(finish for _, _, finish, _ in jobs)
    assert finishes == pytest.approx([0.2 * k for k in range(1, 11)])
    assert [ok for *_, ok in jobs] == [True] * 9 + [False]
    assert result.totals.failures == 1
    assert result.totals.successes == 9


def test_conservation_of_requests():
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 900.0, seed=11)
    result = run_simulation(SimConfig(), trace, FixedPolicy(Action.MAINTAIN), 900.0)
    assert result.submitted == len(trace.requests)
    assert (
        result.totals.successes + result.totals.failures + result.in_flight_at_end
        == result.submitted
    )


def test_conservation_holds_at_every_decision_point():
    from elastidebt.workload import default_profile, generate_trace

    sim = Simulation(SimConfig())
    original = sim._observe

    def checked(now, win_start, win_succ, win_fail):
        c = sim.cluster
        assert c.submitted - c.successes - c.failures == c.outstanding_requests()
        return original(now, win_start, win_succ, win_fail)

    sim._observe = checked
    trace = generate_trace(default_profile(), 1500.0, seed=13)
    result = sim.run(trace, FixedPolicy(Action.MAINTAIN), 1500.0)
    assert len(result.windows) >= 10


def test_adaptations_respect_cool_down():
    from elastidebt.workload import default_profile, generate_trace

    cfg = SimConfig()
    trace = generate_trace(default_profile(), 1800.0, seed=3)
    result = run_simulation(cfg, trace, FixedPolicy(Action.MAINTAIN), 1800.0)
    times = [rec.time for rec in result.records]
    assert times, "expected at least one adaptation"
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= cfg.cool_down for g in gaps)


def test_last_vm_release_is_refused():
    cfg = SimConfig(initial_vms=1)
    result = run_simulation(cfg, make_trace([]), FixedPolicy(Action.RELEASE), 1200.0)
    # the single VM survives the whole run and keeps billing
    assert result.totals.vm_cost == pytest.approx(4 * 0.01111)
    assert all(w.live_vms == 1 for w in result.windows)


def test_release_victim_prefers_idle_nearest_boundary():
    cfg = SimConfig()
    cluster = Cluster(cfg)
    a = cluster.launch_vm(0.0, initial=True)  # anchor 0: at t=250, 50s to boundary
    b = cluster.launch_vm(0.0, initial=True)
    cluster.active[b].anchor = 100.0  # at t=250, 150s to boundary
    assert select_release_victim(cluster, 250.0) == a
    # a busy VM is not an idle candidate
    assert cluster.dispatch(Request(0, 250.0, 2.0), 250.0) == a
    assert select_release_victim(cluster, 250.0) == b


def test_at_ready_anchor_survives_launch_near_horizon():
    # launched at 180 with at_ready anchoring, the VM's anchor (285) lands
    # past the 240 s horizon: it is simply not billed yet, while the initial
    # VM and the t=60 launch (anchored 165) each owe their started cycle
    cfg = SimConfig(billing_anchor="at_ready", initial_vms=1)
    result = run_simulation(cfg, make_trace([]), FixedPolicy(Action.LAUNCH), 240.0)
    assert result.vms_launched == 3
    assert result.totals.vm_cost == pytest.approx(2 * 0.01111)


def test_trace_beyond_horizon_rejected(maintain_policy):
    trace = make_trace([(100.0, 2.0)])
    with pytest.raises(ValueError, match="horizon"):
        run_simulation(SimConfig(), trace, maintain_policy, 50.0)


def test_unordered_trace_rejected(maintain_policy):
    trace = make_trace([(10.0, 2.0), (20.0, 2.0)])
    trace.requests.reverse()
    with pytest.raises(ValueError, match="out of order"):
        run_simulation(SimConfig(), trace, maintain_policy, 60.0)


def test_policy_returning_junk_rejected():
    class Junk(FixedPolicy):
        def decide(self, obs):
            return "scale-up"

    with pytest.raises(TypeError):
        run_simulation(SimConfig(), make_trace([]), Junk(), 600.0)


def test_run_is_deterministic():
    from elastidebt.workload import default_profile, generate_trace

    trace_a = generate_trace(default_profile(), 1200.0, seed=21)
    trace_b = generate_trace(default_profile(), 1200.0, seed=21)
    res_a = run_simulation(SimConfig(), trace_a, FixedPolicy(Action.MAINTAIN), 1200.0)
    res_b = run_simulation(SimConfig(), trace_b, FixedPolicy(Action.MAINTAIN), 1200.0)
    assert [w.breakdown for w in res_a.windows] == [w.breakdown for w in res_b.windows]
    assert res_a.aggregate_utility == res_b.aggregate_utility


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

    def checked(now, win_start, win_succ, win_fail):
        if now < horizon:
            # before the true-up: each boundary passed so far is charged once,
            # and the cycle in progress is not charged yet
            interior.append(now)
            for vm in sim.cluster.all_vms():
                assert vm.charged_cycles == math.floor((now - vm.anchor) / cfg.billing_cycle + 1e-9)
                first_start, last_finish = busy_span(vm.id, now)
                busy = last_finish - first_start
                assert vm.charged_cycles + 1 >= math.ceil(busy / cfg.billing_cycle - 1e-9)
        return observe(now, win_start, win_succ, win_fail)

    sim._observe = checked
    sim.run(trace, FixedPolicy(Action.MAINTAIN), horizon)
    assert interior == [60.0 + 120.0 * k for k in range(12)]
    vms = {vm.id: vm for vm in sim.cluster.all_vms()}
    assert len({vm_id for vm_id, *_ in jobs}) == len(vms) == cfg.initial_vms
    for vm_id, vm in vms.items():
        first_start, last_finish = busy_span(vm_id, horizon)
        busy = last_finish - first_start
        assert vm.charged_cycles >= math.ceil(busy / cfg.billing_cycle - 1e-9)
        assert first_start >= vm.anchor


def test_unrecorded_debts_build_no_checkpoints(monkeypatch):
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 1200.0, seed=5)
    policy = FixedPolicy(Action.LAUNCH)
    recorded = run_simulation(SimConfig(), trace, policy, 1200.0)
    built = []
    original = Checkpoint.__init__

    def counting(self, *args, **kwargs):
        built.append(args[1])
        original(self, *args, **kwargs)

    monkeypatch.setattr(Checkpoint, "__init__", counting)
    unrecorded = run_simulation(SimConfig(), trace, policy, 1200.0, record_debt=False)
    assert built == []
    assert len(unrecorded.records) == len(recorded.records) > 0

    def primary(windows):
        return [(w.start, w.end, w.submitted, w.breakdown, w.ready_vms, w.live_vms) for w in windows]

    assert primary(unrecorded.windows) == primary(recorded.windows)


def test_window_sequence_partitions_run(maintain_policy):
    from elastidebt.workload import default_profile, generate_trace

    trace = generate_trace(default_profile(), 1000.0, seed=8)
    result = run_simulation(SimConfig(), trace, maintain_policy, 1000.0)
    assert result.windows[0].start == 0.0
    assert result.windows[-1].end == 1000.0
    for prev, cur in zip(result.windows, result.windows[1:]):
        assert prev.end == cur.start
