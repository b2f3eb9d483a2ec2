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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

from . import economics
from .economics import AdaptationRecord, UtilityBreakdown, compute_utility, penalized_failures
from .policies import ACTION_ORDER, Action, StateKey, discretize_state
from .workload import Request, WorkloadTrace

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        positive = (
            "spin_up",
            "cool_down",
            "billing_cycle",
            "decision_interval",
            "vm_capacity",
            "sla_response_limit",
            "price_per_request",
            "penalty_per_request",
            "vm_cost_per_cycle",
            "cycle_proximity",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.initial_vms < 1:
            raise ValueError("initial_vms must be at least 1")
        if self.billing_anchor not in ("at_request", "at_ready"):
            raise ValueError(f"unknown billing_anchor {self.billing_anchor!r}")
        if self.sla_mode not in ("per_request", "floor"):
            raise ValueError(f"unknown sla_mode {self.sla_mode!r}")
        if not 0.0 < self.sla_target <= 1.0:
            raise ValueError("sla_target must be in (0, 1]")


class VmInstance:
    """One virtual machine: capacity, lifecycle timestamps and FIFO schedule.

    ``jobs`` holds ``(start, finish, ok)`` for every request assigned to the
    VM whose completion the cluster has not counted yet, in FIFO order;
    ``ok`` says whether the response beats the SLA.  ``last_finish`` is the
    finish of the last request ever assigned (0.0 before any).  Once the
    cluster is settled at time t, ``jobs`` holds exactly the requests still
    outstanding at t, and a ready VM is executing the first of them.
    ``next_cycle`` is the next billing boundary to charge (inf when none is).
    """

    __slots__ = (
        "id",
        "capacity",
        "requested_at",
        "ready_at",
        "released_at",
        "anchor",
        "jobs",
        "last_finish",
        "next_cycle",
        "busy_in_window",
        "charged_cycles",
    )

    def __init__(self, vm_id: int, capacity: float, requested_at: float, ready_at: float, anchor: float):
        self.id = vm_id
        self.capacity = capacity
        self.requested_at = requested_at
        self.ready_at = ready_at
        self.released_at: float | None = None
        self.anchor = anchor
        self.jobs: deque[tuple[float, float, bool]] = deque()
        self.last_finish = 0.0
        self.next_cycle = _INF
        self.busy_in_window = 0.0
        self.charged_cycles = 0

    def outstanding(self) -> int:
        return len(self.jobs)

    def is_idle(self) -> bool:
        return not self.jobs

    def clone(self) -> VmInstance:
        """Same lifecycle, schedule and next boundary; counters start at zero."""
        vm = VmInstance(self.id, self.capacity, self.requested_at, self.ready_at, self.anchor)
        vm.released_at = self.released_at
        vm.jobs = deque(self.jobs)
        vm.last_finish = self.last_finish
        vm.next_cycle = self.next_cycle
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
    window_successes: int
    window_failures: int


def billing_cycles_charged(vm: VmInstance, horizon: float, billing_cycle: float) -> int:
    """Cycles charged by ``horizon``: every started cycle is fully charged.

    A released VM is charged up to its release time rounded up to the next
    cycle boundary; an alive VM is charged for the cycle in progress at the
    horizon.
    """
    if horizon < vm.anchor:
        raise ValueError("horizon precedes the VM's billing anchor")
    end = horizon if vm.released_at is None else min(vm.released_at, horizon)
    span = end - vm.anchor
    if span <= 0:
        return 0
    return max(0, math.ceil(span / billing_cycle - _EPS))


def _charge_end(vm: VmInstance, billing_cycle: float) -> float:
    """Release time rounded up to the next cycle boundary (alive VMs: inf)."""
    if vm.released_at is None:
        return _INF
    # a VM released while an at_ready anchor is still ahead owes nothing
    cycles = billing_cycles_charged(vm, max(vm.released_at, vm.anchor), billing_cycle)
    return vm.anchor + cycles * billing_cycle


def select_release_victim(cluster: "Cluster", now: float) -> int | None:
    """Pick the VM to release, or None when only one VM would remain.

    Prefers the idle ready VM nearest its next billing boundary (least
    partial-usage waste); otherwise the VM with the least outstanding work.
    """
    active = list(cluster.active.values())
    if len(active) <= 1:
        return None
    cycle = cluster.config.billing_cycle
    idle = [vm for vm in active if vm.ready_at <= now and vm.is_idle()]
    if idle:
        victim = min(idle, key=lambda v: (cycle - ((now - v.anchor) % cycle), v.id))
    else:
        victim = min(active, key=lambda v: (v.outstanding(), v.id))
    return victim.id


class Cluster:
    """Cluster state shared by the primary run and replays.

    ``dispatch`` schedules each arrival on its VM when it arrives, and
    ``advance`` settles every VM at the time it advances to: it counts the
    requests finished by then and charges the billing boundaries passed.
    Counters, ``outstanding_requests`` and each VM's ``jobs`` therefore
    describe the cluster at that time once ``advance`` returns.

    Requests are only read: a request's schedule and SLA verdict live in
    its VM's ``jobs``, so the primary run and every replay can share one
    trace.

    ``active`` is kept in ascending id order: ``launch_vm`` adds ids in
    increasing order, ``release_vm`` only deletes and ``Checkpoint.replay``
    inserts in id order.  It is never empty once a VM is launched, because
    ``release_vm`` refuses to release the last active VM.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.active: dict[int, VmInstance] = {}
        self.retired: dict[int, VmInstance] = {}
        self.next_vm_id = 0
        self.window_mark = 0.0
        self.submitted = 0
        self.successes = 0
        self.failures = 0
        self._sla_limit = config.sla_response_limit - _EPS

    # -- provisioning ------------------------------------------------------

    def launch_vm(self, now: float, initial: bool = False) -> int:
        vm_id = self.next_vm_id
        self.next_vm_id += 1
        if initial:
            # pre-existing fleet: already running and billed from t=0
            vm = VmInstance(vm_id, self.config.vm_capacity, now, now, now)
        else:
            ready = now + self.config.spin_up
            anchor = now if self.config.billing_anchor == "at_request" else ready
            vm = VmInstance(vm_id, self.config.vm_capacity, now, ready, anchor)
        vm.next_cycle = vm.anchor + self.config.billing_cycle
        self.active[vm_id] = vm
        return vm_id

    def release_vm(self, vm_id: int, now: float) -> None:
        """Stop dispatching to the VM; it still finishes the work it holds."""
        vm = self.active.get(vm_id)
        if vm is None:
            if vm_id in self.retired:
                raise ValueError(f"vm {vm_id} is already released")
            raise ValueError(f"unknown vm {vm_id}")
        if len(self.active) == 1:
            raise ValueError(f"vm {vm_id} is the last active VM; arrivals would have nowhere to go")
        vm.released_at = now
        del self.active[vm_id]
        self.retired[vm_id] = vm

    def apply(self, action: Action, now: float) -> None:
        """Carry out a policy action; a release that would leave no VM is skipped."""
        if action is Action.LAUNCH:
            self.launch_vm(now)
        elif action is Action.RELEASE:
            victim = select_release_victim(self, now)
            if victim is not None:
                self.release_vm(victim, now)

    def all_vms(self) -> list[VmInstance]:
        vms = list(self.active.values()) + list(self.retired.values())
        vms.sort(key=lambda v: v.id)
        return vms

    def outstanding_requests(self) -> int:
        return sum(len(vm.jobs) for vms in (self.active, self.retired) for vm in vms.values())

    # -- request flow ------------------------------------------------------

    def dispatch(self, req: Request, now: float) -> int:
        """Schedule the request on the live VM with the fewest outstanding
        requests, lowest id on ties, and return that VM's id.

        Live VMs include those still spinning up: an arrival can be parked on
        a pending VM with nothing outstanding and starts when it is ready.
        A VM has nothing outstanding exactly when its last finish is <= now,
        so the scan stops at the first such VM (``active`` is in ascending id
        order).  Only when every VM is busy are their finished requests
        settled to count the loads.  The request starts at the latest of its
        arrival, the VM's ready time and the VM's last finish; it meets the
        SLA when its response time is below the limit by more than 1e-9 s,
        so queued jobs that sum to the limit (ten 0.2 s jobs, 2.0 s) fail.
        """
        for vm in self.active.values():
            if vm.last_finish <= now:
                start = now if vm.ready_at <= now else vm.ready_at
                break
        else:
            vm = None
            load = 0
            for cand in self.active.values():
                jobs = cand.jobs
                if jobs[0][1] <= now:
                    self._settle_vm(cand, now)
                if vm is None or len(jobs) < load:
                    vm, load = cand, len(jobs)
            # a busy VM's last finish is after now and after it turned ready
            start = vm.last_finish
        finish = start + req.work / vm.capacity
        vm.jobs.append((start, finish, finish - req.arrival_time < self._sla_limit))
        vm.last_finish = finish
        return vm.id

    def _settle_vm(self, vm: VmInstance, now: float) -> None:
        """Count the VM's requests that finish by ``now`` and their busy time."""
        jobs = vm.jobs
        mark = self.window_mark
        while jobs and jobs[0][1] <= now:
            start, finish, ok = jobs.popleft()
            if ok:
                self.successes += 1
            else:
                self.failures += 1
            vm.busy_in_window += finish - (start if start > mark else mark)

    def advance(self, until: float, arrivals: list[Request], idx: int) -> int:
        """Dispatch every arrival with time <= until, then settle every VM at
        until and charge its billing boundaries up to then; returns the index
        of the first unconsumed arrival."""
        first = idx
        n = len(arrivals)
        dispatch = self.dispatch
        while idx < n:
            req = arrivals[idx]
            if req.arrival_time > until:
                break
            dispatch(req, req.arrival_time)
            idx += 1
        self.submitted += idx - first
        cycle = self.config.billing_cycle
        for vms in (self.active, self.retired):
            for vm in vms.values():
                self._settle_vm(vm, until)
                # each boundary is the previous one plus a cycle
                while vm.next_cycle <= until:
                    if vm.next_cycle > _charge_end(vm, cycle) + _EPS:
                        vm.next_cycle = _INF
                    else:
                        vm.charged_cycles += 1
                        vm.next_cycle += cycle
        return idx


class Checkpoint:
    """Replayable snapshot of the cluster at a decision point.

    ``replay`` clones the snapshot into a private cluster, applies one
    candidate action, runs the window with no further adaptations and
    returns the window's utility.  Request objects are shared read-only;
    nothing in the primary run is modified.
    """

    def __init__(
        self,
        config: SimConfig,
        time: float,
        cluster: Cluster,
        arrivals: list[Request],
        arrival_idx: int,
    ):
        self.config = config
        self.time = time
        self.arrivals = arrivals
        self.arrival_idx = arrival_idx
        self.next_vm_id = cluster.next_vm_id
        cycle = config.billing_cycle
        self.vm_snaps: list[VmInstance] = []
        for vm in cluster.all_vms():
            if vm.released_at is not None and not vm.jobs and _charge_end(vm, cycle) <= time + _EPS:
                continue  # fully retired: no effect inside any window
            snap = vm.clone()
            # next boundary strictly after the checkpoint; earlier ones are
            # already charged to previous windows
            k = max(1, math.floor((time - vm.anchor) / cycle + _EPS) + 1)
            snap.next_cycle = vm.anchor + k * cycle
            self.vm_snaps.append(snap)

    def replay(self, action: Action, window: float) -> UtilityBreakdown:
        cfg = self.config
        cluster = Cluster(cfg)
        cluster.next_vm_id = self.next_vm_id
        for snap in self.vm_snaps:
            vms = cluster.active if snap.released_at is None else cluster.retired
            vms[snap.id] = snap.clone()
        cluster.apply(action, self.time)

        end = self.time + window
        cluster.advance(end, self.arrivals, self.arrival_idx)

        x_f = penalized_failures(cluster.successes, cluster.failures, cfg.sla_mode, cfg.sla_target)
        cycles = [vm.charged_cycles for vm in cluster.all_vms() if vm.charged_cycles > 0]
        return compute_utility(cluster.successes, x_f, cycles, cfg, window=(self.time, end))


@dataclass
class WindowMetrics:
    """One monitoring window of the primary run."""

    start: float
    end: float
    submitted: int
    breakdown: UtilityBreakdown
    ready_vms: int
    live_vms: int
    ideal_vms: int
    record: AdaptationRecord | None = None


@dataclass
class SimulationResult:
    """Everything a run produced: windows, adaptation records and totals."""

    windows: list[WindowMetrics]
    records: list[AdaptationRecord]
    totals: UtilityBreakdown
    aggregate_utility: float
    submitted: int
    in_flight_at_end: int
    vms_launched: int
    horizon: float
    requests: list[Request] = field(repr=False, default_factory=list)


def _decision_ticks(interval: float, horizon: float):
    """Decision points ``k * interval`` before the horizon, then the horizon."""
    k = 1
    while (t := k * interval) < horizon:
        yield t
        k += 1
    yield horizon


@dataclass
class _Pending:
    """Adaptation awaiting its window close and debt valuation."""

    time: float
    state: StateKey
    action: Action
    candidates: tuple[Action, ...]
    checkpoint: Checkpoint | None  # None when debts are not recorded
    live_vms_before: int


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
        if self._ran:
            raise RuntimeError("a Simulation instance runs once; build a fresh one")
        self._ran = True
        if not 0 < horizon < _INF:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        if trace.requests and trace.requests[-1].arrival_time > horizon:
            raise ValueError("trace extends beyond the horizon")
        prev = -_INF
        for req in trace.requests:
            if req.arrival_time < prev:
                raise ValueError(f"trace arrivals are out of order at request {req.id}")
            prev = req.arrival_time
        cfg = self.config
        cluster = self.cluster
        requests = trace.requests

        windows: list[WindowMetrics] = []
        records: list[AdaptationRecord] = []
        cumulative = 0.0
        idx = 0
        win_start = 0.0
        snap_submitted = snap_succ = snap_fail = 0
        snap_cycles: dict[int, int] = {vm.id: 0 for vm in cluster.active.values()}
        last_adaptation = -_INF
        pending: _Pending | None = None
        learns = getattr(policy, "learns", False)
        debt_mode = getattr(policy, "debt_mode", "proactive" if learns else "retrospective")

        for t in _decision_ticks(cfg.decision_interval, horizon):
            final = t == horizon
            idx = cluster.advance(t, requests, idx)
            if final:
                self._true_up_billing(t)
            elif t - last_adaptation < cfg.cool_down - _EPS:
                continue
            # close the window [win_start, t]
            self._flush_busy(t)
            win_submitted = cluster.submitted - snap_submitted
            win_succ = cluster.successes - snap_succ
            win_fail = cluster.failures - snap_fail
            cycles_by_vm = self._window_cycles(snap_cycles)
            obs = self._observe(t, win_start, win_succ, win_fail)
            x_f = penalized_failures(win_succ, win_fail, cfg.sla_mode, cfg.sla_target)
            breakdown = compute_utility(
                win_succ, x_f, list(cycles_by_vm.values()), cfg, window=(win_start, t)
            )
            cumulative += breakdown.utility

            record = None
            if pending is not None:
                # the horizon billing true-up has no replay analogue, so the
                # final window's measured utility is not comparable
                window_utility = None if final else breakdown.utility
                record = self._settle(
                    pending, t - pending.time, debt_mode, record_debt, window_utility
                )
                records.append(record)
                if record_debt and not final:
                    policy.observe_reward(record.debt, obs)
            windows.append(
                self._window_metrics(win_start, t, win_submitted, breakdown, obs, pending, record)
            )
            if final:
                break

            candidates = tuple(policy.candidates(obs))
            action = policy.decide(obs)
            if not isinstance(action, Action):
                raise TypeError(f"policy returned {action!r}, not an Action")
            if action not in candidates:
                raise ValueError(f"policy chose {action} outside its candidate set")
            checkpoint = Checkpoint(cfg, t, cluster, requests, idx) if record_debt else None
            live_before = len(cluster.active)
            cluster.apply(action, t)
            pending = _Pending(
                time=t,
                state=discretize_state(obs),
                action=action,
                candidates=candidates,
                checkpoint=checkpoint,
                live_vms_before=live_before,
            )
            last_adaptation = t
            win_start = t
            cluster.window_mark = t
            for vm in cluster.active.values():
                vm.busy_in_window = 0.0
            snap_submitted = cluster.submitted
            snap_succ = cluster.successes
            snap_fail = cluster.failures
            snap_cycles = {vm.id: vm.charged_cycles for vm in cluster.all_vms()}

        revenue = sum(w.breakdown.revenue for w in windows)
        penalty = sum(w.breakdown.penalty for w in windows)
        vm_cost = sum(w.breakdown.vm_cost for w in windows)
        totals = UtilityBreakdown(
            revenue=revenue,
            penalty=penalty,
            vm_cost=vm_cost,
            utility=revenue - penalty - vm_cost,
            window=(0.0, horizon),
            successes=cluster.successes,
            failures=cluster.failures,
        )
        return SimulationResult(
            windows=windows,
            records=records,
            totals=totals,
            aggregate_utility=cumulative,
            submitted=cluster.submitted,
            in_flight_at_end=cluster.outstanding_requests(),
            vms_launched=cluster.next_vm_id,
            horizon=horizon,
            requests=requests,
        )

    # -- helpers -----------------------------------------------------------

    def _settle(
        self,
        pending: _Pending,
        elapsed: float,
        debt_mode: str,
        record_debt: bool,
        window_utility: float | None,
    ) -> AdaptationRecord:
        """Value the pending adaptation; ``window_utility`` is what the primary
        run measured over the elapsed window, when that is comparable."""
        if not record_debt:
            return AdaptationRecord(
                time=pending.time,
                state=pending.state,
                action_taken=pending.action,
                u_actual=0.0,
                u_ideal=0.0,
                debt=0.0,
            )
        measured = None
        if debt_mode == "proactive":
            window = self.config.decision_interval + self.config.billing_cycle
        else:
            window = elapsed
            if window_utility is not None:
                # the primary run just ran the taken action over this window
                measured = {pending.action: window_utility}
        u_ideal, per_action = economics.counterfactual_ideal(
            pending.checkpoint, pending.candidates, window, measured
        )
        u_actual = per_action[pending.action]
        return AdaptationRecord(
            time=pending.time,
            state=pending.state,
            action_taken=pending.action,
            u_actual=u_actual,
            u_ideal=u_ideal,
            debt=economics.compute_debt(u_actual, u_ideal),
            per_action_utilities=per_action,
        )

    def _window_metrics(
        self,
        start: float,
        end: float,
        submitted: int,
        breakdown: UtilityBreakdown,
        obs: ClusterObservation,
        pending: _Pending | None,
        record: AdaptationRecord | None,
    ) -> WindowMetrics:
        live = len(self.cluster.active)
        ideal = live
        if record is not None and pending is not None and record.per_action_utilities:
            best = max(record.per_action_utilities.values())
            if record.per_action_utilities[record.action_taken] >= best:
                ideal_action = record.action_taken
            else:
                ideal_action = next(
                    a for a in ACTION_ORDER if record.per_action_utilities.get(a) == best
                )
            delta = {Action.LAUNCH: 1, Action.RELEASE: -1, Action.MAINTAIN: 0}[ideal_action]
            ideal = max(1, pending.live_vms_before + delta)
        return WindowMetrics(
            start=start,
            end=end,
            submitted=submitted,
            breakdown=breakdown,
            ready_vms=obs.ready_vms,
            live_vms=live,
            ideal_vms=ideal,
            record=record,
        )

    def _flush_busy(self, now: float) -> None:
        # in-flight executions contribute their elapsed portion to the closing
        # window; the remainder accrues later because window_mark moves to now
        mark = self.cluster.window_mark
        for vm in self.cluster.active.values():
            if vm.jobs and vm.jobs[0][0] < now:
                vm.busy_in_window += now - max(vm.jobs[0][0], mark)

    def _window_cycles(self, snap: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for vm in self.cluster.all_vms():
            delta = vm.charged_cycles - snap.get(vm.id, 0)
            if delta > 0:
                out[vm.id] = delta
        return out

    def _true_up_billing(self, horizon: float) -> None:
        # cycles started but whose boundary falls past the horizon
        for vm in self.cluster.all_vms():
            if vm.anchor > horizon:  # anchored-at-ready VM still spinning up
                continue
            expected = billing_cycles_charged(vm, horizon, self.config.billing_cycle)
            if expected > vm.charged_cycles:
                vm.charged_cycles = expected

    def _observe(
        self, now: float, win_start: float, win_succ: int, win_fail: int
    ) -> ClusterObservation:
        cfg = self.config
        ready = [vm for vm in self.cluster.active.values() if vm.ready_at <= now]
        n_ready = len(ready)
        pending_vms = len(self.cluster.active) - n_ready
        # a ready VM executes its first outstanding request; the rest wait
        with_queue = sum(1 for vm in ready if len(vm.jobs) > 1)
        idle_near = 0
        for vm in ready:
            if vm.is_idle():
                remaining = cfg.billing_cycle - ((now - vm.anchor) % cfg.billing_cycle)
                if remaining <= cfg.cycle_proximity + _EPS:
                    idle_near += 1
        utils = []
        for vm in ready:
            span = now - max(win_start, vm.ready_at)
            utils.append(min(1.0, max(0.0, vm.busy_in_window / span)) if span > 0 else 0.0)
        return ClusterObservation(
            time=now,
            ready_vms=n_ready,
            pending_vms=pending_vms,
            frac_vms_with_queue=with_queue / n_ready if n_ready else 0.0,
            frac_vms_idle_near_cycle=idle_near / n_ready if n_ready else 0.0,
            per_vm_utilization=utils,
            window_successes=win_succ,
            window_failures=win_fail,
        )


def run_simulation(
    config: SimConfig,
    trace: WorkloadTrace,
    policy,
    horizon: float,
    record_debt: bool = True,
) -> SimulationResult:
    """Build a fresh simulation and run the policy over the trace."""
    return Simulation(config).run(trace, policy, horizon, record_debt=record_debt)
