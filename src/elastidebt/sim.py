"""Deterministic simulation of an elastic VM cluster.

The engine models VM spin-up, per-cycle billing, least-loaded dispatch with
per-VM FIFO processing, and periodic decision points where a policy observes
the cluster and launches, releases or maintains capacity.  Checkpoints taken
at decision points can be replayed under alternative actions without
touching the primary run, which is how adaptation debts are valued.

A VM serves its requests in FIFO order at a fixed speed and never preempts,
so each request's start and finish are fixed when it is dispatched; nothing
is queued per request.  Ordering at equal timestamps is fixed: a request
that finishes at time <= t has left its VM before an arrival at t is
dispatched, a VM that turns ready at t serves an arrival at t at once, and
a decision point at t sees every arrival, completion and billing boundary
at or before t.  Remaining ties break on VM id.

The cluster keeps no window state.  Billing, request counts and each VM's
busy time are readings of the cluster at a time, so a monitoring window is
measured by subtracting the readings taken when it opened from those taken
when it closes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields

from . import economics
from .economics import AdaptationRecord, UtilityBreakdown, WindowCounts
from .policies import ACTION_ORDER, Action, check_fields, discretize_state
from .workload import RequestView, WorkloadTrace, first_out_of_order

_EPS = 1e-9
_INF = float("inf")


@dataclass
class SimConfig:
    """Cluster, billing and SLA parameters.

    Defaults model a five-minute billing cycle with 105 s spin-up, 10 MIPS
    VMs serving 2 MI requests against a 2 s response-time SLA.
    """

    spin_up: float = 105.0
    cool_down: float = 120.0
    billing_cycle: float = 300.0
    decision_interval: float = 60.0
    vm_capacity: float = 10.0
    sla_response_limit: float = 2.0
    price_per_request: float = 0.0012344
    penalty_per_request: float = 0.002
    vm_cost_per_cycle: float = 0.01111
    initial_vms: int = 5
    billing_anchor: str = "at_request"  # or "at_ready"
    sla_mode: str = "per_request"  # or "floor"
    sla_target: float = 0.95
    cycle_proximity: float = 60.0  # "close to next billing cycle" cutoff

    def validate(self) -> None:
        check_fields(self)
        # every time, rate and price is positive: each float field but sla_target
        for f in fields(self):
            if f.type == "float" and f.name != "sla_target" and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.initial_vms < 1:
            raise ValueError("initial_vms must be at least 1")
        if self.billing_anchor not in ("at_request", "at_ready"):
            raise ValueError(f"unknown billing_anchor {self.billing_anchor!r}")
        if self.sla_mode not in ("per_request", "floor"):
            raise ValueError(f"unknown sla_mode {self.sla_mode!r}")
        if not 0.0 < self.sla_target <= 1.0:
            raise ValueError("sla_target must be in (0, 1]")


class VmInstance:
    """One virtual machine: lifecycle timestamps and FIFO schedule.

    ``jobs`` holds ``(start, finish, ok)`` for every request assigned to the
    VM whose completion the cluster has not counted yet, in FIFO order;
    ``ok`` says whether the response beats the SLA.  ``last_finish`` is the
    finish of the last request ever assigned (0.0 before any).  Once the
    cluster is settled at time t, ``jobs`` holds exactly the requests still
    outstanding at t, and a ready VM is executing the first of them.
    ``served`` is the total service time of the requests counted so far:
    see ``busy_time``.  Billing needs only ``anchor`` and ``released_at``:
    see ``billing_cycles_charged``.
    """

    __slots__ = (
        "id",
        "ready_at",
        "released_at",
        "anchor",
        "jobs",
        "last_finish",
        "served",
    )

    def __init__(self, vm_id: int, ready_at: float, anchor: float):
        self.id = vm_id
        self.ready_at = ready_at
        self.released_at: float | None = None
        self.anchor = anchor
        self.jobs: deque[tuple[float, float, bool]] = deque()
        self.last_finish = 0.0
        self.served = 0.0

    def clone(self) -> VmInstance:
        """An independent copy of the VM, schedule included."""
        vm = VmInstance(self.id, self.ready_at, self.anchor)
        vm.released_at = self.released_at
        vm.jobs = deque(self.jobs)
        vm.last_finish = self.last_finish
        vm.served = self.served
        return vm


@dataclass
class ClusterObservation:
    """Monitored snapshot handed to a policy at a decision point."""

    time: float
    ready_vms: int
    pending_vms: int
    frac_vms_with_queue: float
    frac_vms_idle_near_cycle: float
    per_vm_utilization: list[float]


def billing_cycles_charged(
    vm: VmInstance, t: float, billing_cycle: float, close: bool = True
) -> int:
    """Cycles charged to the VM by time ``t``; the one billing rule.

    The VM's boundaries are ``anchor + k * billing_cycle`` for k >= 1.  Each
    boundary passed by ``t`` charges the cycle it closes, and a released VM
    stops at the boundary its release rounds up to.  With ``close`` (the
    default) ``t`` closes the bill, as the horizon does, and every started
    cycle is charged.
    """
    if t < vm.anchor:
        raise ValueError("time precedes the VM's billing anchor")
    cycles = (t - vm.anchor) / billing_cycle
    if vm.released_at is not None:
        # a VM released while an at_ready anchor is still ahead owes nothing
        cycles = min(cycles, max(0, math.ceil((vm.released_at - vm.anchor) / billing_cycle - _EPS)))
    return math.ceil(cycles - _EPS) if close else math.floor(cycles + _EPS)


def busy_time(vm: VmInstance, t: float) -> float:
    """Time the VM has spent serving requests by ``t``; the one utilization
    rule.  The VM must be settled at ``t``, as ``Cluster.advance`` leaves it:
    its counted requests give ``served``, and the request it is executing
    adds the part that has elapsed."""
    busy = vm.served
    if vm.jobs:
        start = vm.jobs[0][0]
        if start < t:
            busy += t - start
    return busy


def _time_to_boundary(vm: VmInstance, now: float, billing_cycle: float) -> float:
    """Time from ``now`` to the VM's next billing boundary (a full cycle at one)."""
    return billing_cycle - ((now - vm.anchor) % billing_cycle)


def select_release_victim(cluster: "Cluster", now: float) -> int | None:
    """Pick the VM to release, or None when only one VM is active, so that
    releasing it would leave none.

    Prefers the idle ready VM nearest its next billing boundary (least
    partial-usage waste); otherwise the VM with the least outstanding work.
    """
    active = list(cluster.active.values())
    if len(active) <= 1:
        return None
    cycle = cluster.config.billing_cycle
    idle = [vm for vm in active if vm.ready_at <= now and not vm.jobs]
    if idle:
        victim = min(idle, key=lambda v: (_time_to_boundary(v, now, cycle), v.id))
    else:
        victim = min(active, key=lambda v: (len(v.jobs), v.id))
    return victim.id


class Cluster:
    """Cluster state shared by the primary run and replays.

    ``advance`` holds the dispatch rule: it schedules each arrival on its VM
    when it arrives, then settles every VM at the time it advances to by
    counting the requests finished by then.  Counters,
    ``outstanding_requests`` and each VM's ``jobs`` therefore describe the
    cluster at that time once ``advance`` returns.  The cluster keeps no
    window state: ``counts(t)`` reads the cycles charged by t from each VM's
    anchor and release time, and ``busy_time`` reads a VM's busy time from
    its schedule.

    The trace is only read, one arrival time and one work value at a time:
    a request's schedule and SLA verdict live in its VM's ``jobs``, so the
    primary run and every replay share one trace.

    ``vms`` holds every VM launched and ``active`` those not released, both
    in ascending id order: ``launch_vm`` adds ids in increasing order,
    ``release_vm`` only deletes from ``active`` and ``fork`` inserts in id
    order.  ``active`` is never empty once a VM is launched, because
    ``release_vm`` refuses to release the last active VM.  ``fork`` is the
    one way to copy a cluster.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.vms: dict[int, VmInstance] = {}
        self.active: dict[int, VmInstance] = {}
        self.next_vm_id = 0
        self.submitted = 0
        self.successes = 0
        self.failures = 0
        self.dropped_cycles = 0
        self._capacity = config.vm_capacity
        self._sla_limit = config.sla_response_limit - _EPS

    # -- provisioning ------------------------------------------------------

    def launch_vm(self, now: float, initial: bool = False) -> int:
        vm_id = self.next_vm_id
        self.next_vm_id += 1
        if initial:
            # pre-existing fleet: already running and billed from t=0
            vm = VmInstance(vm_id, now, now)
        else:
            ready = now + self.config.spin_up
            anchor = now if self.config.billing_anchor == "at_request" else ready
            vm = VmInstance(vm_id, ready, anchor)
        self.vms[vm_id] = self.active[vm_id] = vm
        return vm_id

    def release_vm(self, vm_id: int, now: float) -> None:
        """Stop dispatching to the VM; it still finishes the work it holds."""
        vm = self.active.get(vm_id)
        if vm is None:
            if vm_id in self.vms:
                raise ValueError(f"vm {vm_id} is already released")
            raise ValueError(f"unknown vm {vm_id}")
        if len(self.active) == 1:
            raise ValueError(f"vm {vm_id} is the last active VM; arrivals would have nowhere to go")
        vm.released_at = now
        del self.active[vm_id]

    def apply(self, action: Action, now: float) -> None:
        """Carry out a policy action; a release that would leave no VM is skipped."""
        if action is Action.LAUNCH:
            self.launch_vm(now)
        elif action is Action.RELEASE:
            victim = select_release_victim(self, now)
            if victim is not None:
                self.release_vm(victim, now)

    def fork(self, t: float) -> Cluster:
        """An independent copy of the cluster at ``t``: the same config, next
        VM id and counters, and a clone of every VM except released VMs with
        no work left and no cycle still owed after ``t``.  Those cannot
        change any count from ``t`` on, so the copy keeps only the cycles
        they were charged, in ``dropped_cycles``."""
        fork = Cluster(self.config)
        fork.next_vm_id = self.next_vm_id
        fork.submitted, fork.successes, fork.failures = self.submitted, self.successes, self.failures
        fork.dropped_cycles = self.dropped_cycles
        cycle = self.config.billing_cycle
        for vm in self.vms.values():
            if vm.released_at is not None and not vm.jobs and vm.anchor <= t:
                owed = billing_cycles_charged(vm, _INF, cycle, close=False)
                if billing_cycles_charged(vm, t, cycle, close=False) == owed:
                    fork.dropped_cycles += owed
                    continue
            clone = fork.vms[vm.id] = vm.clone()
            if clone.released_at is None:
                fork.active[vm.id] = clone
        return fork

    def outstanding_requests(self) -> int:
        return sum(len(vm.jobs) for vm in self.vms.values())

    def counts(self, t: float, close: bool = False) -> WindowCounts:
        """Requests submitted and counted so far, and billing cycles charged
        by ``t`` (every started one when ``t`` closes the bill)."""
        cycle = self.config.billing_cycle
        charged = self.dropped_cycles + sum(
            billing_cycles_charged(vm, t, cycle, close) for vm in self.vms.values() if vm.anchor <= t
        )
        return WindowCounts(self.submitted, self.successes, self.failures, charged)

    # -- request flow ------------------------------------------------------

    def _settle_vm(self, vm: VmInstance, now: float) -> None:
        """Count the VM's requests that finish by ``now`` and their service time."""
        jobs = vm.jobs
        done = ok = 0
        served = vm.served
        while jobs and jobs[0][1] <= now:
            start, finish, met = jobs.popleft()
            done += 1
            ok += met
            served += finish - start
        vm.served = served
        self.successes += ok
        self.failures += done - ok

    def advance(self, until: float, trace: WorkloadTrace, idx: int) -> int:
        """Dispatch every arrival of the trace from index ``idx`` with time
        <= until, then settle every VM at until; returns the index of the
        first unconsumed arrival.

        Each arrival goes to the live VM with the fewest outstanding
        requests, lowest id on ties.  Live VMs include those still spinning
        up: an arrival can be parked on a pending VM with nothing outstanding
        and starts when it is ready.  A VM has nothing outstanding exactly
        when its last finish is <= the arrival, so the scan stops at the
        first such VM (``active`` is in ascending id order).  Only when every
        VM is busy are their finished requests settled to count the loads,
        and that scan stops at the first VM left holding one request: a busy
        VM still holds its last request, so one is the least load, and every
        VM before it holds more.  The VMs after it are settled later, which
        pops the same requests in the same order, so no count or ``served``
        depends on when.  A request starts at the latest of its arrival, the
        VM's ready time and the VM's last finish; it meets the SLA when its
        response time is below the limit by more than 1e-9 s, so queued jobs
        that sum to the limit (ten 0.2 s jobs, 2.0 s) fail.
        """
        arrivals = trace.arrivals
        end = bisect_right(arrivals, until, idx)
        settle = self._settle_vm
        live = list(self.active.values())
        capacity, limit = self._capacity, self._sla_limit
        for now, work in zip(arrivals[idx:end], trace.work[idx:end]):
            for vm in live:
                if vm.last_finish <= now:
                    start = now if vm.ready_at <= now else vm.ready_at
                    break
            else:
                load = _INF
                for cand in live:
                    jobs = cand.jobs
                    if jobs[0][1] <= now:
                        settle(cand, now)
                    if len(jobs) < load:
                        vm, load = cand, len(jobs)
                        if load == 1:
                            break
                # a busy VM's last finish is after now and after it turned ready
                start = vm.last_finish
            finish = start + work / capacity
            vm.jobs.append((start, finish, finish - now < limit))
            vm.last_finish = finish
        self.submitted += end - idx
        for vm in self.vms.values():
            settle(vm, until)
        return end


class Checkpoint:
    """Replayable snapshot of the cluster at a decision point.

    The checkpoint holds ``cluster.fork(time)``.  ``replay`` forks it again
    into a private cluster, applies one candidate action, runs it with no
    further adaptations to the window's end and returns the utility of the
    span from the checkpoint to that end.  The trace is shared read-only;
    nothing in the primary run is modified.  A fork carries the run's
    counters, so the span's counts are the fork's counts at its end less
    the checkpoint's.

    The run hands two things to the checkpoint before valuing it.
    ``future`` holds the action it takes here, the decision points after
    this one and a list: the replay of that action is the run's own
    future, so it puts its state at each of those points that it passes
    in the list, each ``(time, cluster, arrival index)``, and goes on from
    a fork of it; where it stops, it puts itself.  ``maintain`` is where
    the run's previous taken replay stopped, past this checkpoint: with no
    adaptation since, it is MAINTAIN from here, and a MAINTAIN replay that
    runs at least as far goes on from it instead of forking.  Each is used
    once, and advancing in steps gives the same counts as advancing at
    once, so a replay's result never depends on earlier calls.
    """

    def __init__(self, time: float, cluster: Cluster, trace: WorkloadTrace, arrival_idx: int):
        self.time = time
        self.cluster = cluster.fork(time)
        self.trace = trace
        self.arrival_idx = arrival_idx
        self.future: tuple[Action, list[float], list[tuple[float, Cluster, int]]] | None = None
        self.maintain: tuple[float, Cluster, int] | None = None
        self.vm_snaps = self.cluster.vms.values()  # the VMs it holds, in id order

    def replay(self, action: Action, end: float) -> UtilityBreakdown:
        """Utility of ``action`` from the checkpoint to ``end``."""
        fork = self.maintain if action is Action.MAINTAIN else None
        if fork is not None and fork[0] <= end:
            self.maintain = None
            start, cluster, idx = fork
        else:
            start, cluster, idx = self.time, self.cluster.fork(self.time), self.arrival_idx
            cluster.apply(action, start)
        path = None
        if self.future is not None and self.future[0] is action:
            _, stops, path = self.future
            self.future = None
            for stop in stops:
                if stop >= end:
                    break
                if stop >= start:
                    idx = cluster.advance(stop, self.trace, idx)
                    path.append((stop, cluster, idx))
                    cluster = cluster.fork(stop)
        idx = cluster.advance(end, self.trace, idx)
        if path is not None:
            path.append((end, cluster, idx))
        return (cluster.counts(end) - self.cluster.counts(self.time)).utility(self.cluster.config)


@dataclass
class WindowMetrics:
    """One monitoring window of the primary run."""

    start: float
    end: float
    breakdown: UtilityBreakdown
    ready_vms: int
    ideal_vms: int
    record: AdaptationRecord | None = None


@dataclass
class SimulationResult:
    """What a run measured: its windows, each holding the adaptation record
    it settled, and ``counts``, the cluster's reading of the whole run with
    the bill closed at the horizon.  The report adds up the run's money from
    the windows."""

    windows: list[WindowMetrics]
    counts: WindowCounts
    in_flight_at_end: int
    vms_launched: int
    # the trace's read-only ``WorkloadTrace.requests`` view
    requests: RequestView = field(repr=False)

    @property
    def records(self) -> list[AdaptationRecord]:
        """The adaptation records in decision order, one per settling window."""
        return [win.record for win in self.windows if win.record is not None]


def _check_trace(trace: WorkloadTrace, horizon: float) -> None:
    """Reject what ``parse_trace`` rejects, and arrivals outside [0, horizon].
    Each check is one pass in C that NaN fails; only a failing one looks for
    the request at fault."""
    arrivals, work = trace.arrivals, trace.work
    for i in (0, len(arrivals) - 1) if arrivals else ():
        if not 0.0 <= arrivals[i] <= horizon:
            raise ValueError(f"request {i} arrives at {arrivals[i]!r}, outside [0, horizon {horizon}]")
    i = first_out_of_order(arrivals)
    if i is not None:
        raise ValueError(f"arrivals are out of order at request {i}: {arrivals[i]!r} after {arrivals[i - 1]}")
    if work and not (min(work) > 0.0 and math.isfinite(sum(work))):
        # a sum also overflows on finite values, which pass
        for i, w in enumerate(work):
            if not 0.0 < w < _INF:
                raise ValueError(f"request {i}: work must be positive and finite, got {w!r}")


def _decision_points(config: SimConfig, horizon: float) -> list[float]:
    """The times that close a window: the first decision tick, each first
    tick at least a cool-down after the one before, and the horizon."""
    points: list[float] = []
    k = 1
    while (t := k * config.decision_interval) < horizon:
        if not points or t - points[-1] >= config.cool_down - _EPS:
            points.append(t)
        k += 1
    points.append(horizon)
    return points


class Simulation:
    """Drives a policy over a workload trace on top of a Cluster."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.cluster = Cluster(config)
        self._ran = False
        for _ in range(config.initial_vms):
            self.cluster.launch_vm(0.0, initial=True)

    def run(
        self,
        trace: WorkloadTrace,
        policy,
        horizon: float,
        record_debt: bool = True,
    ) -> SimulationResult:
        """Run ``policy`` over ``trace`` up to ``horizon``.

        Each decision point and the horizon close the window opened by the
        pending adaptation, which the cool-down spaces.  The window is
        measured and, where a decision follows and debts are recorded, the
        adaptation's record is handed to the policy as its reward.  A run
        that records debts values each adaptation right after it decides:
        it replays every candidate from a checkpoint, over a fixed window
        past the adaptation for a learning policy (proactive) and up to the
        next decision point otherwise.  The taken action's replay is the
        run's own future, so from then on the run takes on the states that
        replay kept instead of dispatching the arrivals again.
        """
        if self._ran:
            raise RuntimeError("a Simulation instance runs once; build a fresh one")
        self._ran = True
        if not 0 < horizon < _INF:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        _check_trace(trace, horizon)
        cfg = self.config
        cluster = self.cluster
        points = _decision_points(cfg, horizon)
        learns = getattr(policy, "learns", False)

        windows: list[WindowMetrics] = []
        idx = 0
        win_start = 0.0
        snap, marks = self._open_window(win_start)
        # the pending adaptation's record, and the checkpoint taken before
        # its action (None when debts are not recorded)
        record: AdaptationRecord | None = None
        taken_at: Checkpoint | None = None
        # the run's states ahead of it that the taken replays kept, oldest
        # first; the last is where the latest one stopped
        future: list[tuple[float, Cluster, int]] = []

        for i, t in enumerate(points):
            final = t == horizon
            idx = self._reach(t, trace, idx, future)
            # close the window [win_start, t]; the horizon closes the bill
            counts = cluster.counts(t, close=final) - snap
            obs = self._observe(t, win_start, marks)
            breakdown = counts.utility(cfg)
            if taken_at is not None and not final:
                policy.observe_reward(record, obs)
            windows.append(self._window_metrics(win_start, t, breakdown, obs, record, taken_at))
            if final:
                break

            candidates = tuple(policy.candidates(obs))
            if not all(isinstance(a, Action) for a in candidates):
                raise TypeError(f"policy offered candidates {candidates!r}, not all Actions")
            action = policy.decide(obs)
            if not isinstance(action, Action):
                raise TypeError(f"policy returned {action!r}, not an Action")
            if action not in candidates:
                raise ValueError(f"policy chose {action} outside its candidate set")
            record = AdaptationRecord(t, discretize_state(obs), action, candidates=candidates)
            taken_at = None
            if record_debt:
                taken_at = Checkpoint(t, cluster, trace, idx)
                end = t + cfg.decision_interval + cfg.billing_cycle if learns else points[i + 1]
                path: list[tuple[float, Cluster, int]] = []
                taken_at.future = (action, points[i + 1 :], path)
                taken_at.maintain = future[-1] if future else None
                record.per_action_utilities = economics.counterfactual_ideal(taken_at, candidates, end)
                # MAINTAIN carries on the states kept so far
                future = (future[:-1] if action is Action.MAINTAIN else []) + path
            cluster.apply(action, t)
            win_start = t
            snap, marks = self._open_window(t)

        return SimulationResult(
            windows=windows,
            counts=cluster.counts(horizon, close=True),
            in_flight_at_end=cluster.outstanding_requests(),
            vms_launched=cluster.next_vm_id,
            requests=trace.requests,
        )

    # -- helpers -----------------------------------------------------------

    def _open_window(self, t: float) -> tuple[WindowCounts, dict[int, float]]:
        """The cluster's counts and each active VM's busy time at ``t``, which
        the close of the window opening at ``t`` subtracts."""
        cluster = self.cluster
        return cluster.counts(t), {vm.id: busy_time(vm, t) for vm in cluster.active.values()}

    def _reach(self, t: float, trace: WorkloadTrace, idx: int, future: list) -> int:
        """Bring the run to ``t`` from arrival index ``idx``: take on the
        latest of the states in ``future`` by ``t``, popping them, and
        dispatch what is left up to ``t``; returns the arrival index."""
        at = None
        while future and future[0][0] <= t:
            at, fork, idx = future.pop(0)
        if at is not None:
            self._adopt(fork)
        if at != t:
            idx = self.cluster.advance(t, trace, idx)
        return idx

    def _adopt(self, fork: Cluster) -> None:
        """Take on the state of ``fork``, which ran the run's own trajectory:
        its VMs, ``active`` and request counters.  A VM the fork left out
        is released and done in the run's own copy: it was left out of a
        fork of a state that the run took on before."""
        cluster = self.cluster
        cluster.vms = {i: fork.vms.get(i, vm) for i, vm in cluster.vms.items()}
        cluster.active = fork.active
        cluster.submitted, cluster.successes, cluster.failures = fork.submitted, fork.successes, fork.failures

    def _window_metrics(
        self,
        start: float,
        end: float,
        breakdown: UtilityBreakdown,
        obs: ClusterObservation,
        record: AdaptationRecord | None,
        taken_at: Checkpoint | None,
    ) -> WindowMetrics:
        ideal = len(self.cluster.active)
        if record is not None and record.per_action_utilities:
            # the taken action when its debt is zero, else the first best one
            per_action, best = record.per_action_utilities, record.u_ideal
            ideal_action = next(a for a in (record.action_taken, *ACTION_ORDER) if per_action.get(a) == best)
            delta = {Action.LAUNCH: 1, Action.RELEASE: -1, Action.MAINTAIN: 0}[ideal_action]
            # a fork keeps every unreleased VM: the fleet before the action
            ideal = max(1, len(taken_at.cluster.active) + delta)
        return WindowMetrics(
            start=start,
            end=end,
            breakdown=breakdown,
            ready_vms=obs.ready_vms,
            ideal_vms=ideal,
            record=record,
        )

    def _observe(self, now: float, win_start: float, marks: dict[int, float]) -> ClusterObservation:
        """The observation closing the window opened at ``win_start``;
        ``marks`` holds each VM's busy time there."""
        cfg = self.config
        ready = [vm for vm in self.cluster.active.values() if vm.ready_at <= now]
        n_ready = len(ready)
        pending_vms = len(self.cluster.active) - n_ready
        # a ready VM executes its first outstanding request; the rest wait
        with_queue = sum(1 for vm in ready if len(vm.jobs) > 1)
        idle_near = 0
        for vm in ready:
            if not vm.jobs:
                remaining = _time_to_boundary(vm, now, cfg.billing_cycle)
                if remaining <= cfg.cycle_proximity + _EPS:
                    idle_near += 1
        utils = []
        for vm in ready:
            span = now - max(win_start, vm.ready_at)
            busy = busy_time(vm, now) - marks[vm.id]
            utils.append(min(1.0, max(0.0, busy / span)) if span > 0 else 0.0)
        return ClusterObservation(
            time=now,
            ready_vms=n_ready,
            pending_vms=pending_vms,
            frac_vms_with_queue=with_queue / n_ready if n_ready else 0.0,
            frac_vms_idle_near_cycle=idle_near / n_ready if n_ready else 0.0,
            per_vm_utilization=utils,
        )

