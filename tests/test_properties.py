"""Property tests over small random configs, fleets and arrival lists.

In the replay tests spin-up, billing cycles, anchors and windows are whole
seconds plus a fraction of 0, 0.001, 0.1 or 1/3 s.  The cluster computes
the cycles charged by a time in closed form and the oracle steps through
the boundaries ``anchor + k * cycle``; neither sums cycles one by one, so
fractional values land on the same boundaries.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FixedPolicy,
    captured_checkpoints,
    direct_replays,
    make_trace,
    oracle_cycles,
    recorded_jobs,
    reference_advance,
)
from elastidebt.economics import WindowCounts
from elastidebt.policies import (
    ACTION_ORDER,
    Action,
    DebtAwarePolicy,
    QTable,
    VotingParams,
    VotingPolicy,
    allowed_actions,
    alpha_for,
    q_update,
)
from elastidebt.sim import (
    Checkpoint,
    Cluster,
    SimConfig,
    Simulation,
    VmInstance,
    billing_cycles_charged,
)
from test_acceptance import build_checkpoint, oracle_utility

T0 = 600.0

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
# Whole runs over up to 60 arrivals take minutes to shrink, so a failing
# run is reported as drawn.  Dropping the shrink phase changes no example.
RUN_SETTINGS = settings(PROPERTY_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])


def seconds(low, high):
    """Whole seconds in [low, high] plus a fraction of 0, 0.001, 0.1 or 1/3."""
    fraction = st.sampled_from([0.0, 0.001, 0.1, 1 / 3])
    return st.builds(lambda whole, part: whole + part, st.integers(low, high), fraction)


@st.composite
def scenarios(draw):
    """A config, an idle ready fleet at T0, a window and arrivals inside it."""
    cfg = SimConfig(
        spin_up=draw(seconds(1, 400)),
        vm_capacity=draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 7.0, 10.0])),
        billing_cycle=draw(seconds(5, 600)),
        sla_response_limit=draw(st.sampled_from([0.25, 1.0, 2.0, 3.7, 30.0])),
        billing_anchor=draw(st.sampled_from(["at_request", "at_ready"])),
    )
    vm_specs = [
        {"id": i, "anchor": T0 - draw(seconds(0, 900)), "ready": T0 - draw(st.integers(0, 300))}
        for i in range(draw(st.integers(1, 4)))
    ]
    # short windows crowd the arrivals; long ones cross billing boundaries
    window = draw(st.one_of(seconds(1, 20), seconds(1, 900)))
    # arrivals on a quarter-second grid make completions tie with arrivals
    # and with the window end; arbitrary floats cover the rest
    arrival = st.one_of(
        st.integers(1, 4 * int(window)).map(lambda q: T0 + q / 4),
        st.floats(T0, T0 + window, exclude_min=True, allow_nan=False),
    )
    work = st.sampled_from([0.5, 1.0, 2.0, 4.0, 20.0, 100.0])
    arrivals = sorted(draw(st.lists(st.tuples(arrival, work), max_size=40)))
    return cfg, vm_specs, window, arrivals


@pytest.fixture
def conserving(monkeypatch):
    """Assert request conservation whenever ``Cluster.advance`` returns."""
    advance = Cluster.advance

    def checked(self, until, trace, idx):
        idx = advance(self, until, trace, idx)
        assert self.submitted == self.successes + self.failures + self.outstanding_requests()
        return idx

    monkeypatch.setattr(Cluster, "advance", checked)


@PROPERTY_SETTINGS
@given(scenarios())
def test_replay_matches_brute_force_oracle(conserving, scenario):
    cfg, vm_specs, window, arrivals = scenario
    checkpoint = build_checkpoint(cfg, vm_specs, arrivals, T0)
    for action in ACTION_ORDER:
        expected = oracle_utility(cfg, vm_specs, action, arrivals, T0, window)
        assert checkpoint.replay(action, T0 + window).utility == expected, action


@PROPERTY_SETTINGS
@given(
    scenarios(),
    st.lists(
        st.tuples(
            st.sampled_from(ACTION_ORDER),
            st.sampled_from([0, 0, 7, 120, 300]),
            seconds(0, 900),
        ),
        max_size=6,
    ),
)
def test_maintain_replay_ignores_earlier_calls(scenario, calls):
    # longer, shorter and equal windows in any order each give what a
    # fresh checkpoint gives
    cfg, vm_specs, _, arrivals = scenario
    checkpoint = build_checkpoint(cfg, vm_specs, arrivals, T0)
    for action, before, after in calls + [(Action.MAINTAIN, 0, 0)] + calls[::-1]:
        # a window opened ``before`` seconds ahead of the checkpoint
        end = (T0 - before) + (before + after)
        fresh = build_checkpoint(cfg, vm_specs, arrivals, T0)
        expected = fresh.replay(action, end)
        assert checkpoint.replay(action, end) == expected, (action, before, after)


@PROPERTY_SETTINGS
@given(scenarios(), st.lists(st.integers(0, 900), max_size=6))
def test_advancing_in_steps_changes_nothing(conserving, scenario, steps):
    cfg, vm_specs, window, arrivals = scenario
    checkpoint = build_checkpoint(cfg, vm_specs, arrivals, T0)
    end = T0 + window
    whole, stepped = checkpoint.cluster.fork(T0), checkpoint.cluster.fork(T0)
    whole.advance(end, checkpoint.trace, 0)
    idx = 0
    for until in sorted(T0 + s for s in steps if s < window):
        idx = stepped.advance(until, checkpoint.trace, idx)
    stepped.advance(end, checkpoint.trace, idx)

    def outcome(cluster):
        vms = [(vm.id, list(vm.jobs)) for vm in cluster.vms.values()]
        return cluster.submitted, cluster.counts(end), vms

    assert outcome(stepped) == outcome(whole)


@st.composite
def dispatch_cases(draw):
    """A config, a fleet, arrivals, and the steps that split their dispatch.

    Arrivals fall on a quarter-second grid and many work sizes are whole
    quarter seconds of service, so arrivals tie with one another and with
    finish times.  Each step advances to a time, then launches a VM, which
    spins up, releases the i-th active VM, which drains what it holds, or
    does neither.
    """
    cfg = SimConfig(
        spin_up=draw(st.sampled_from([0.25, 1.0, 2.5, 10.0])),
        vm_capacity=draw(st.sampled_from([1.0, 2.0, 4.0, 10.0])),
        sla_response_limit=draw(st.sampled_from([0.25, 1.0, 2.0, 5.0])),
        billing_anchor=draw(st.sampled_from(["at_request", "at_ready"])),
    )
    fleet = (draw(st.integers(1, 4)), draw(st.integers(0, 2)))  # ready, pending at 0
    grid = st.integers(0, 60).map(lambda q: q / 4)
    work = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 20.0])
    arrivals = draw(st.lists(st.tuples(grid, work), max_size=60))
    op = st.one_of(st.none(), st.just("launch"), st.integers(0, 5))
    steps = sorted(draw(st.lists(st.tuples(grid, op), max_size=8)), key=lambda step: step[0])
    return cfg, fleet, arrivals, steps


@PROPERTY_SETTINGS
@given(dispatch_cases())
# every VM is busy at 1.0, when vm0's first request finishes: settled, vm0
# holds one request as vm1 does and wins the tie; unsettled, it holds two
@example(case=(SimConfig(vm_capacity=2.0), (2, 0), [(0.0, 2.0), (0.25, 3.0), (0.5, 2.0), (1.0, 2.0)], []))
# the all-busy scan stops at the first VM holding one request.  At 1.1 vm0
# holds two and vm1 one, so vm1 wins; vm2, whose head finished at 0.7, is
# left unsettled until the split at 1.1
@example(
    case=(
        SimConfig(vm_capacity=1.0),
        (3, 0),
        [(0.0, 10.0), (0.1, 10.0), (0.2, 0.5), (0.3, 10.0), (1.0, 0.2), (1.1, 0.2)],
        [(1.1, None)],
    )
)
# at 1.0 vm0 holds two requests and vm1 and vm2 one each: the lower id wins
@example(
    case=(
        SimConfig(vm_capacity=1.0),
        (3, 0),
        [(0.0, 4.0), (0.25, 4.0), (0.5, 4.0), (0.75, 1.0), (1.0, 1.0)],
        [],
    )
)
# vm0's head finishes exactly at the arrival at 1.0: settled, vm0 holds one
# request and wins the tie with vm1, which holds one unsettled
@example(case=(SimConfig(vm_capacity=1.0), (2, 0), [(0.0, 1.0), (0.25, 4.0), (0.5, 2.0), (1.0, 0.5)], []))
# a deep backlog: every load is at least two, so each scan visits every VM
@example(
    case=(
        SimConfig(vm_capacity=1.0),
        (3, 0),
        [(0.0, 10.0)] * 6 + [(0.25, 1.0), (0.5, 1.0), (0.75, 1.0), (1.0, 1.0)],
        [(0.5, None)],
    )
)
def test_advance_dispatches_as_one_arrival_at_a_time(case):
    # the dispatch loop in ``advance`` equals the reference rule applied to
    # one arrival at a time, after every split, launch and release
    cfg, (ready, pending), arrivals, steps = case
    trace = make_trace(arrivals)
    clusters = Cluster(cfg), Cluster(cfg)
    for cluster in clusters:
        for _ in range(ready):
            cluster.launch_vm(0.0, initial=True)
        for _ in range(pending):
            cluster.launch_vm(0.0)

    def state(cluster):
        vms = [(vm.id, list(vm.jobs), vm.last_finish, vm.served) for vm in cluster.vms.values()]
        return cluster.submitted, cluster.successes, cluster.failures, list(cluster.active), vms

    looped, reference = clusters
    idx = ref_idx = 0
    for until, op in steps + [(30.0, None)]:
        idx = looped.advance(until, trace, idx)
        ref_idx = reference_advance(reference, until, trace, ref_idx)
        assert idx == ref_idx
        assert state(looped) == state(reference), until
        if op == "launch":
            for cluster in clusters:
                cluster.launch_vm(until)
        elif op is not None and len(looped.active) > 1:
            victim = list(looped.active)[op % len(looped.active)]
            for cluster in clusters:
                cluster.release_vm(victim, until)
    assert idx == len(arrivals)


class RandomPolicy(FixedPolicy):
    """Seeded uniform choice among all actions; valued retrospectively."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def decide(self, obs):
        return self.rng.choice(ACTION_ORDER)


class ChurnPolicy(RandomPolicy):
    """Seeded launches and releases, releasing twice as often."""

    def decide(self, obs):
        return self.rng.choice([Action.LAUNCH, Action.RELEASE, Action.RELEASE])


def seeded_voting(seed):
    """Voting with thresholds drawn from the seed; low thresholds make it
    launch VMs, which then turn ready inside a window, as well as release."""
    rng = random.Random(seed)
    lower = rng.uniform(0.0, 0.1)
    return VotingPolicy(VotingParams(lower_cpu=lower, upper_cpu=rng.uniform(lower + 0.01, 0.3)))


@st.composite
def runs(draw, policies=(DebtAwarePolicy, RandomPolicy), min_arrivals=0):
    """A config, a horizon that is no multiple of the decision interval,
    at least ``min_arrivals`` arrivals up to the horizon and a policy built
    from ``policies`` with a seed."""
    interval = float(draw(st.integers(5, 300)))
    # zero whole intervals puts the first decision point past the horizon
    horizon = interval * (draw(st.integers(0, 8)) + draw(st.floats(0.01, 0.99)))
    cfg = SimConfig(
        spin_up=draw(st.floats(1.0, 400.0)),
        # a cool-down shorter than the interval lets every decision point adapt
        cool_down=draw(st.floats(1.0, 600.0)),
        # billing cycles may be shorter than the spin-up
        billing_cycle=draw(st.floats(5.0, 600.0)),
        decision_interval=interval,
        initial_vms=draw(st.integers(1, 4)),
        billing_anchor=draw(st.sampled_from(["at_request", "at_ready"])),
        sla_mode=draw(st.sampled_from(["per_request", "floor"])),
    )
    arrival = st.floats(0.0, horizon)
    work = st.sampled_from([0.5, 2.0, 20.0, 100.0])
    arrivals = draw(st.lists(st.tuples(arrival, work), min_size=min_arrivals, max_size=60))
    seed = draw(st.integers(0, 2**16))
    policy = draw(st.sampled_from(policies))
    return cfg, horizon, arrivals, policy(seed=seed)


@settings(RUN_SETTINGS, max_examples=200)
@given(runs())
def test_full_run_invariants(run):
    cfg, horizon, arrivals, policy = run
    decided = []
    decide = policy.decide

    def logged(obs):
        decided.append(obs.time)
        return decide(obs)

    policy.decide = logged
    sim = Simulation(cfg)
    with captured_checkpoints() as checkpoints:
        result = sim.run(make_trace(arrivals), policy, horizon)
    # every decision is settled once, and none is taken at the horizon
    assert decided == [rec.time for rec in result.records]
    assert all(t < horizon for t in decided)
    windows = result.windows
    assert windows[0].start == 0.0 and windows[-1].end == horizon
    assert all(prev.end == cur.start for prev, cur in zip(windows, windows[1:]))
    t = result.counts
    assert t.submitted == len(arrivals)
    assert t.successes + t.failures + result.in_flight_at_end == t.submitted
    # the run's counts are its windows' counts added up, cycles included
    assert sum((w.breakdown.counts for w in windows), WindowCounts(0, 0, 0, 0)) == t
    # each window pays the cycles whose boundaries it passed; the last one
    # closes the bill and pays every started cycle
    vms = sim.cluster.vms.values()
    for win in windows:
        close = win.end == horizon
        charged = sum(
            oracle_cycles(vm, win.end, cfg.billing_cycle, close)
            - oracle_cycles(vm, win.start, cfg.billing_cycle)
            for vm in vms
        )
        assert win.breakdown.counts.cycles == charged, (win.start, win.end)
    assert t.cycles == sum(w.breakdown.counts.cycles for w in windows)
    for rec in result.records:
        assert rec.debt <= 0.0
        best = max(rec.per_action_utilities.values())
        assert (rec.debt == 0.0) == (rec.per_action_utilities[rec.action_taken] == best)
    # every value, whether replayed from a fresh fork or going on from the
    # run's future, equals a direct replay over the record's window, bit
    # for bit
    proactive = isinstance(policy, DebtAwarePolicy)
    for win in windows:
        rec = win.record
        if rec is None:
            continue
        span = cfg.decision_interval + cfg.billing_cycle if proactive else win.end - rec.time
        per_action = rec.per_action_utilities
        assert per_action == direct_replays(checkpoints[rec.time], per_action, rec.time + span)


def rebuilt_utility(cfg, trace, records, candidate, end):
    """The utility of ``candidate`` taken at the last record's time, up to
    ``end``, on a cluster rebuilt from t = 0 that takes each earlier record's
    action at its time: dispatched by ``reference_advance``, billed by
    ``oracle_cycles`` and never forked."""
    cluster = Cluster(cfg)
    for _ in range(cfg.initial_vms):
        cluster.launch_vm(0.0, initial=True)
    idx = 0
    *earlier, last = records
    for rec in earlier:
        idx = reference_advance(cluster, rec.time, trace, idx)
        cluster.apply(rec.action_taken, rec.time)
    t = last.time
    idx = reference_advance(cluster, t, trace, idx)
    before = WindowCounts(cluster.submitted, cluster.successes, cluster.failures, 0)
    cluster.apply(candidate, t)
    reference_advance(cluster, end, trace, idx)
    cycle = cfg.billing_cycle
    cycles = sum(oracle_cycles(vm, end, cycle) - oracle_cycles(vm, t, cycle) for vm in cluster.vms.values())
    after = WindowCounts(cluster.submitted, cluster.successes, cluster.failures, cycles)
    return (after - before).utility(cfg).utility


@settings(RUN_SETTINGS, max_examples=200)
@given(runs())
def test_per_action_utilities_match_a_rebuilt_run(run):
    # an oracle that shares no checkpoint, fork or valuation shortcut with
    # the run: each candidate of each record is valued by running the whole
    # history again from t = 0
    cfg, horizon, arrivals, policy = run
    trace = make_trace(arrivals)
    result = Simulation(cfg).run(trace, policy, horizon)
    proactive = isinstance(policy, DebtAwarePolicy)
    records = []
    for win in result.windows:
        rec = win.record
        if rec is None:
            continue
        records.append(rec)
        end = rec.time + cfg.decision_interval + cfg.billing_cycle if proactive else win.end
        rebuilt = {a: rebuilt_utility(cfg, trace, records, a, end) for a in rec.candidates}
        assert rec.per_action_utilities == rebuilt, rec.time


@RUN_SETTINGS
@given(runs())
def test_ideal_fleet_moves_the_decision_fleet_by_the_ideal_action(run):
    # a valued window's ideal fleet is the fleet the policy saw when it
    # decided, moved by the ideal action: the taken one when its debt is
    # zero, else the first best in ACTION_ORDER
    cfg, horizon, arrivals, policy = run
    fleet = {}
    decide = policy.decide

    def logged(obs):
        fleet[obs.time] = obs.ready_vms + obs.pending_vms
        return decide(obs)

    policy.decide = logged
    result = Simulation(cfg).run(make_trace(arrivals), policy, horizon)
    # each record is settled into one window, in decision order
    assert result.records == [w.record for w in result.windows if w.record is not None]
    delta = {Action.LAUNCH: 1, Action.RELEASE: -1, Action.MAINTAIN: 0}
    for win in result.windows:
        rec = win.record
        if rec is None or not rec.per_action_utilities:
            continue
        per_action = rec.per_action_utilities
        ideal = next(a for a in (rec.action_taken, *ACTION_ORDER) if per_action.get(a) == rec.u_ideal)
        assert win.ideal_vms == max(1, fleet[rec.time] + delta[ideal]), rec.time


@RUN_SETTINGS
@given(runs(policies=(DebtAwarePolicy,)))
def test_q_table_folds_each_record_debt_into_its_state_and_action(run):
    # a Q update needs (s, a, r, s') alone: every record but the one the
    # horizon settles rewards its state and action with its debt, and the
    # next record's state is s'
    cfg, horizon, arrivals, policy = run
    result = Simulation(cfg).run(make_trace(arrivals), policy, horizon)
    params, records = policy.params, result.records
    expected = QTable()
    for rec, nxt in zip(records, records[1:]):
        state, action = rec.state, rec.action_taken
        alpha = alpha_for(expected.visit_count(state, action), params)
        allowed = allowed_actions(nxt.state)
        q_update(expected, state, action, rec.debt, nxt.state, allowed, alpha, params.gamma)
    assert policy.qtable.values == expected.values
    assert policy.qtable.visits == expected.visits


@RUN_SETTINGS
# enough arrivals that VMs launched mid-run get work in their first window
@given(runs(policies=(seeded_voting,), min_arrivals=40))
def test_utilization_is_busy_overlap_with_window(run):
    # each ready VM reports the time its requests ran inside the window,
    # over the part of the window in which it was ready
    cfg, horizon, arrivals, policy = run
    sim = Simulation(cfg)
    jobs = recorded_jobs(sim.cluster)
    observe = sim._observe
    observed = []

    def checked(now, win_start, *rest):
        obs = observe(now, win_start, *rest)
        ready = [vm for vm in sim.cluster.active.values() if vm.ready_at <= now]
        assert len(obs.per_vm_utilization) == len(ready)
        for vm, util in zip(ready, obs.per_vm_utilization):
            low = max(win_start, vm.ready_at)
            busy = sum(
                max(0.0, min(finish, now) - max(start, low))
                for vm_id, start, finish, _ in jobs
                if vm_id == vm.id
            )
            expected = busy / (now - low) if now > low else 0.0
            assert util == pytest.approx(expected, rel=1e-9), (vm.id, win_start, now)
        observed.append(now)
        return obs

    sim._observe = checked
    # the log holds what the run dispatches itself: without debts, every
    # arrival; the observations are the same with debts (see
    # test_maintaining_run_adopts_its_fork_with_the_same_outcome)
    result = sim.run(make_trace(arrivals), policy, horizon, record_debt=False)
    assert len(jobs) == len(arrivals)
    assert observed == [w.end for w in result.windows]


def primary_fingerprint(cluster, policy):
    """Everything a replay could disturb: the primary cluster's counters,
    its next VM id, every VM's fields and schedule, and the policy's Q table."""
    vms = [
        tuple(tuple(vm.jobs) if name == "jobs" else getattr(vm, name) for name in VmInstance.__slots__)
        for vm in cluster.vms.values()
    ]
    qtable = getattr(policy, "qtable", None)
    learned = None if qtable is None else (dict(qtable.values), dict(qtable.visits))
    counters = (cluster.submitted, cluster.successes, cluster.failures, cluster.next_vm_id)
    return counters, list(cluster.active), vms, learned


@settings(RUN_SETTINGS, max_examples=200)
@given(runs(min_arrivals=10))
def test_replays_leave_the_primary_run_untouched(run):
    cfg, horizon, arrivals, policy = run
    sim = Simulation(cfg)
    replay = Checkpoint.replay

    def isolated(self, *args, **kwargs):
        before = primary_fingerprint(sim.cluster, policy)
        result = replay(self, *args, **kwargs)
        assert primary_fingerprint(sim.cluster, policy) == before, self.time
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Checkpoint, "replay", isolated)
        sim.run(make_trace(arrivals), policy, horizon)


@settings(RUN_SETTINGS, max_examples=150)
@given(runs(policies=(ChurnPolicy, seeded_voting), min_arrivals=20))
def test_charged_cycles_cover_each_vm_until_release(run):
    # a released VM drains the work it holds, and that drain is not billed:
    # the bill covers only [anchor, min(release, horizon)]
    cfg, horizon, arrivals, policy = run
    sim = Simulation(cfg)
    sim.run(make_trace(arrivals), policy, horizon, record_debt=False)
    cycle = cfg.billing_cycle
    for vm in sim.cluster.vms.values():
        if vm.anchor > horizon:
            continue
        end = horizon if vm.released_at is None else min(vm.released_at, horizon)
        charged = billing_cycles_charged(vm, horizon, cycle)
        assert charged * cycle >= end - vm.anchor - 1e-9 * cycle, vm.id


def test_forks_drop_only_vms_that_cannot_change_a_window():
    # a checkpoint's fork leaves out released VMs with no work and no cycle
    # still owed; replaying each candidate by hand on a deep copy of the
    # whole primary cluster must give what Checkpoint.replay gives
    dropped, draining = [], []

    @settings(RUN_SETTINGS, max_examples=120)
    # slow VMs keep queues long enough for a released VM to hold work at
    # the next checkpoint
    @given(runs(policies=(ChurnPolicy, seeded_voting), min_arrivals=20), st.sampled_from([0.2, 2.0, 10.0]))
    # pinned: two VMs each take two 500 s requests, and the VM released at
    # 60 s still holds them at every later checkpoint
    @example(
        (SimConfig(initial_vms=2, cool_down=1.0), 250.0, [(0.0, 100.0)] * 4, FixedPolicy(Action.RELEASE)),
        0.2,
    )
    def check(run, capacity):
        cfg, horizon, arrivals, policy = run
        cfg.vm_capacity = capacity
        trace = make_trace(arrivals)
        primaries = {}
        init, replay = Checkpoint.__init__, Checkpoint.replay
        replays = []

        def capturing(self, time, cluster, trace, arrival_idx):
            init(self, time, cluster, trace, arrival_idx)
            primaries[time] = copy.deepcopy(cluster)
            dropped.append(len(cluster.vms) - len(self.vm_snaps))
            draining.extend(vm.id for vm in self.vm_snaps if vm.released_at is not None and vm.jobs)

        def logged(self, action, end):
            result = replay(self, action, end)
            replays.append((self, action, end, result.utility))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Checkpoint, "__init__", capturing)
            mp.setattr(Checkpoint, "replay", logged)
            Simulation(cfg).run(trace, policy, horizon)
        for checkpoint, action, end, utility in replays:
            t = checkpoint.time
            cluster = copy.deepcopy(primaries[t])
            cluster.apply(action, t)
            before = cluster.counts(t)
            cluster.advance(end, trace, checkpoint.arrival_idx)
            assert (cluster.counts(end) - before).utility(cfg).utility == utility, (t, action)

    check()
    # both sides of the rule occur: VMs dropped, and released VMs kept for
    # the work they still hold
    assert sum(dropped) > 0 and draining
