"""Deterministic discrete-event simulation of an elastic VM cluster.

The engine models VM spin-up, per-cycle billing, least-loaded dispatch with
per-VM FIFO processing, and periodic decision points where a policy observes
the cluster and launches, releases or maintains capacity.  Checkpoints taken
at decision points can be replayed under alternative actions without
touching the primary run, which is how adaptation debts are valued.

Event ordering at equal timestamps is fixed: request completions, then VM
ready transitions, then arrivals, then billing-cycle boundaries, then
decision points; remaining ties break on request/VM id.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from . import economics
from .economics import AdaptationRecord, UtilityBreakdown, compute_utility, penalized_failures
from .policies import ACTION_ORDER, Action, StateKey, discretize_state
from .workload import Request, WorkloadTrace

# event priorities at equal timestamps (decision points are handled outside
# the heap and implicitly carry the highest value)
_PRIO_DONE = 0
_PRIO_READY = 1
_PRIO_ARRIVAL = 2
_PRIO_CYCLE = 3
_PRIO_DECISION = 4

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
    work_per_request: float = 2.0
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
        positive = (
            "spin_up",
            "cool_down",
            "billing_cycle",
            "decision_interval",
            "vm_capacity",
            "work_per_request",
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
    """One virtual machine: capacity, lifecycle timestamps, FIFO queue."""

    __slots__ = (
        "id",
        "capacity",
        "requested_at",
        "ready_at",
        "released_at",
        "anchor",
        "queue",
        "current",
        "current_finish",
        "exec_start",
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
        self.queue: deque[Request] = deque()
        self.current: Request | None = None
        self.current_finish = 0.0
        self.exec_start = 0.0
        self.busy_in_window = 0.0
        self.charged_cycles = 0

    def outstanding(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)

    def is_idle(self) -> bool:
        return self.current is None and not self.queue

    @property
    def busy_until(self) -> float:
        return self.current_finish if self.current is not None else 0.0


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


def service_time(request: Request, vm: VmInstance) -> float:
    """Seconds to execute the request's work on the VM."""
    if vm.capacity <= 0:
        raise ValueError("vm capacity must be positive")
    return request.work / vm.capacity


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
    span = vm.released_at - vm.anchor
    cycles = max(0, math.ceil(span / billing_cycle - _EPS))
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
    """Event-driven cluster state shared by the primary run and replays.

    ``mutate_requests`` controls whether request start/finish timestamps are
    written back into the Request objects; replays leave them untouched so
    the primary run's trace is never perturbed.

    ``active`` is kept in ascending id order: ``launch_vm`` adds ids in
    increasing order, ``release_vm`` only deletes and ``Checkpoint.replay``
    inserts in id order.  Heap entries are ``(time, prio, tiebreak_id, vm)``;
    the first three are unique, so VMs are never compared.
    """

    def __init__(self, config: SimConfig, mutate_requests: bool = True):
        self.config = config
        self.mutate_requests = mutate_requests
        self.active: dict[int, VmInstance] = {}
        self.retired: dict[int, VmInstance] = {}
        self.next_vm_id = 0
        self.backlog: deque[Request] = deque()
        self.heap: list[tuple[float, int, int, VmInstance]] = []
        self.now = 0.0
        self.window_mark = 0.0
        self.submitted = 0
        self.successes = 0
        self.failures = 0

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
            heappush(self.heap, (ready, _PRIO_READY, vm_id, vm))
        self.active[vm_id] = vm
        heappush(self.heap, (vm.anchor + self.config.billing_cycle, _PRIO_CYCLE, vm_id, vm))
        return vm_id

    def release_vm(self, vm_id: int, now: float) -> None:
        vm = self.active.get(vm_id)
        if vm is None:
            if vm_id in self.retired:
                raise ValueError(f"vm {vm_id} is already released")
            raise ValueError(f"unknown vm {vm_id}")
        vm.released_at = now
        del self.active[vm_id]
        self.retired[vm_id] = vm

    def all_vms(self) -> list[VmInstance]:
        vms = list(self.active.values()) + list(self.retired.values())
        vms.sort(key=lambda v: v.id)
        return vms

    def outstanding_requests(self) -> int:
        total = len(self.backlog)
        for vm in self.active.values():
            total += vm.outstanding()
        for vm in self.retired.values():
            total += vm.outstanding()
        return total

    # -- request flow ------------------------------------------------------

    def dispatch(self, req: Request, now: float) -> int | None:
        """Assign the request to the live VM with the fewest outstanding
        requests, lowest id on ties.

        Live VMs include those still spinning up: an arrival can be parked on
        a pending VM with an empty queue and waits there until it is ready.
        The scan relies on ``active`` being in ascending id order: it stops at
        the first VM with nothing outstanding, and only a strictly smaller
        load replaces the best so far.
        """
        best = None
        best_load = 0
        for vm in self.active.values():
            load = len(vm.queue) if vm.current is None else len(vm.queue) + 1
            if load == 0:
                best = vm
                break
            if best is None or load < best_load:
                best, best_load = vm, load
        if best is None:
            self.backlog.append(req)
            return None
        if best.current is None and best.ready_at <= now:
            self._start_exec(best, req, now)
        else:
            best.queue.append(req)
        return best.id

    def _start_exec(self, vm: VmInstance, req: Request, now: float) -> None:
        vm.current = req
        vm.exec_start = now
        finish = now + req.work / vm.capacity
        vm.current_finish = finish
        if self.mutate_requests:
            req.start_time = now
        heappush(self.heap, (finish, _PRIO_DONE, req.id, vm))

    def _drain_backlog(self, now: float) -> None:
        while self.backlog and self.active:
            self.dispatch(self.backlog.popleft(), now)

    # -- event handlers ----------------------------------------------------

    def _on_done(self, vm: VmInstance, now: float) -> None:
        req = vm.current
        assert req is not None
        if self.mutate_requests:
            req.finish_time = now
        if now - req.arrival_time < self.config.sla_response_limit - _EPS:
            self.successes += 1
        else:
            self.failures += 1
        vm.busy_in_window += now - max(vm.exec_start, self.window_mark)
        vm.current = None
        if vm.queue:
            self._start_exec(vm, vm.queue.popleft(), now)
        elif vm.released_at is None and self.backlog:
            self._drain_backlog(now)

    def _on_ready(self, vm: VmInstance, now: float) -> None:
        if vm.current is None and vm.queue:
            self._start_exec(vm, vm.queue.popleft(), now)
        if vm.released_at is None and self.backlog:
            self._drain_backlog(now)

    def _on_cycle(self, vm: VmInstance, now: float) -> None:
        if now > _charge_end(vm, self.config.billing_cycle) + _EPS:
            return
        vm.charged_cycles += 1
        heappush(self.heap, (now + self.config.billing_cycle, _PRIO_CYCLE, vm.id, vm))

    # -- main loop ---------------------------------------------------------

    def advance(self, until: float, arrivals: list[Request], idx: int) -> int:
        """Process every event and arrival with time <= until; returns the
        index of the first unconsumed arrival."""
        heap = self.heap
        n = len(arrivals)
        at = arrivals[idx].arrival_time if idx < n else _INF
        while True:
            if heap:
                top = heap[0]
                ht = top[0]
                take_heap = ht < at or (ht == at and top[1] < _PRIO_ARRIVAL)
            elif at == _INF:
                break
            else:
                take_heap = False
            t = ht if take_heap else at
            if t > until:
                break
            if t < self.now - _EPS:
                raise RuntimeError(f"event time {t} precedes clock {self.now}")
            self.now = t
            if take_heap:
                _, prio, _, vm = heappop(heap)
                if prio == _PRIO_DONE:
                    self._on_done(vm, t)
                elif prio == _PRIO_READY:
                    self._on_ready(vm, t)
                else:
                    self._on_cycle(vm, t)
            else:
                req = arrivals[idx]
                idx += 1
                at = arrivals[idx].arrival_time if idx < n else _INF
                self.submitted += 1
                self.dispatch(req, t)
        self.now = max(self.now, until)
        return idx


class _VmSnap:
    """Frozen per-VM state captured in a checkpoint."""

    __slots__ = (
        "id",
        "capacity",
        "requested_at",
        "ready_at",
        "released_at",
        "anchor",
        "queue",
        "current",
        "current_finish",
    )

    def __init__(self, vm: VmInstance):
        self.id = vm.id
        self.capacity = vm.capacity
        self.requested_at = vm.requested_at
        self.ready_at = vm.ready_at
        self.released_at = vm.released_at
        self.anchor = vm.anchor
        self.queue = list(vm.queue)
        self.current = vm.current
        self.current_finish = vm.current_finish


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
        self.backlog = list(cluster.backlog)
        self.vm_snaps: list[_VmSnap] = []
        for vm in cluster.all_vms():
            if vm.released_at is not None:
                drained = vm.is_idle()
                charges_done = _charge_end(vm, config.billing_cycle) <= time + _EPS
                if drained and charges_done:
                    continue  # fully retired: no effect inside any window
            self.vm_snaps.append(_VmSnap(vm))

    def replay(self, action: Action, window: float) -> UtilityBreakdown:
        cfg = self.config
        cluster = Cluster(cfg, mutate_requests=False)
        cluster.now = self.time
        cluster.window_mark = self.time
        cluster.next_vm_id = self.next_vm_id
        cluster.backlog = deque(self.backlog)
        cycle = cfg.billing_cycle
        for snap in self.vm_snaps:
            vm = VmInstance(snap.id, snap.capacity, snap.requested_at, snap.ready_at, snap.anchor)
            vm.released_at = snap.released_at
            vm.queue = deque(snap.queue)
            vm.current = snap.current
            vm.current_finish = snap.current_finish
            if snap.released_at is None:
                cluster.active[snap.id] = vm
            else:
                cluster.retired[snap.id] = vm
            if vm.current is not None:
                vm.exec_start = self.time  # only the remaining service matters
                heappush(cluster.heap, (vm.current_finish, _PRIO_DONE, vm.current.id, vm))
            if vm.ready_at > self.time:
                heappush(cluster.heap, (vm.ready_at, _PRIO_READY, vm.id, vm))
            # next boundary strictly after the checkpoint; earlier ones are
            # already charged to previous windows
            k = max(1, math.floor((self.time - vm.anchor) / cycle + _EPS) + 1)
            boundary = vm.anchor + k * cycle
            if boundary <= _charge_end(vm, cycle) + _EPS:
                heappush(cluster.heap, (boundary, _PRIO_CYCLE, vm.id, vm))

        if action is Action.LAUNCH:
            cluster.launch_vm(self.time)
        elif action is Action.RELEASE:
            victim = select_release_victim(cluster, self.time)
            if victim is not None:
                cluster.release_vm(victim, self.time)

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
        self.cluster = Cluster(config, mutate_requests=True)
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
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if trace.requests and trace.requests[-1].arrival_time > horizon:
            raise ValueError("trace extends beyond the horizon")
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

        k = 1
        while (t := k * cfg.decision_interval) < horizon:
            idx = cluster.advance(t, requests, idx)
            if t - last_adaptation >= cfg.cool_down - _EPS:
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
                    record = self._settle(pending, t - pending.time, debt_mode, record_debt)
                    records.append(record)
                    if record_debt:
                        policy.observe_reward(record.debt, obs)
                windows.append(
                    self._window_metrics(win_start, t, win_submitted, breakdown, obs, pending, record)
                )

                candidates = tuple(policy.candidates(obs))
                action = policy.decide(obs)
                if not isinstance(action, Action):
                    raise TypeError(f"policy returned {action!r}, not an Action")
                if action not in candidates:
                    raise ValueError(f"policy chose {action} outside its candidate set")
                checkpoint = Checkpoint(cfg, t, cluster, requests, idx) if record_debt else None
                live_before = len(cluster.active)
                self._apply(action, t)
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
            k += 1

        idx = cluster.advance(horizon, requests, idx)
        self._true_up_billing(horizon)
        self._flush_busy(horizon)
        win_submitted = cluster.submitted - snap_submitted
        win_succ = cluster.successes - snap_succ
        win_fail = cluster.failures - snap_fail
        cycles_by_vm = self._window_cycles(snap_cycles)
        obs = self._observe(horizon, win_start, win_succ, win_fail)
        x_f = penalized_failures(win_succ, win_fail, cfg.sla_mode, cfg.sla_target)
        breakdown = compute_utility(
            win_succ, x_f, list(cycles_by_vm.values()), cfg, window=(win_start, horizon)
        )
        cumulative += breakdown.utility
        record = None
        if pending is not None:
            record = self._settle(pending, horizon - pending.time, debt_mode, record_debt)
            records.append(record)
        windows.append(
            self._window_metrics(win_start, horizon, win_submitted, breakdown, obs, pending, record)
        )

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

    def _apply(self, action: Action, now: float) -> None:
        if action is Action.LAUNCH:
            self.cluster.launch_vm(now)
        elif action is Action.RELEASE:
            victim = select_release_victim(self.cluster, now)
            if victim is not None:  # release of the last VM is refused
                self.cluster.release_vm(victim, now)

    def _settle(
        self, pending: _Pending, elapsed: float, debt_mode: str, record_debt: bool
    ) -> AdaptationRecord:
        if not record_debt:
            return AdaptationRecord(
                time=pending.time,
                state=pending.state,
                action_taken=pending.action,
                u_actual=0.0,
                u_ideal=0.0,
                debt=0.0,
            )
        if debt_mode == "proactive":
            window = self.config.decision_interval + self.config.billing_cycle
        else:
            window = elapsed
        u_ideal, per_action = economics.counterfactual_ideal(
            pending.checkpoint, pending.candidates, window
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
            if vm.current is not None:
                vm.busy_in_window += now - max(vm.exec_start, mark)

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
        with_queue = sum(1 for vm in ready if vm.queue)
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
