"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import contextlib
import copy
import io
import math
import random
from bisect import bisect_right
from collections import deque

import pytest

from elastidebt.policies import ACTION_ORDER, Action
from elastidebt.sim import Checkpoint, Cluster, ClusterObservation, SimConfig
from elastidebt.workload import (
    RateProfile,
    TraceParseError,
    TraceValidationError,
    WorkloadTrace,
)


def make_obs(
    time: float = 0.0,
    ready_vms: int = 3,
    pending_vms: int = 0,
    frac_queue: float = 0.0,
    frac_idle: float = 0.0,
    utils: list[float] | None = None,
) -> ClusterObservation:
    return ClusterObservation(
        time=time,
        ready_vms=ready_vms,
        pending_vms=pending_vms,
        frac_vms_with_queue=frac_queue,
        frac_vms_idle_near_cycle=frac_idle,
        per_vm_utilization=utils if utils is not None else [0.5] * ready_vms,
    )


def make_trace(arrivals: list[tuple[float, float]]) -> WorkloadTrace:
    """A trace of ``(arrival, work)`` pairs, sorted."""
    pairs = sorted(arrivals)
    return WorkloadTrace([t for t, _ in pairs], [w for _, w in pairs])


def dispatch_alone(work: float) -> tuple[float, float, bool]:
    """``(start, finish, ok)`` of one request for ``work`` MI arriving at t=0
    on a lone idle default VM."""
    cluster = Cluster(SimConfig())
    vm_id = cluster.launch_vm(0.0, initial=True)
    cluster.advance(0.0, WorkloadTrace([0.0], [work]), 0)
    (job,) = cluster.active[vm_id].jobs
    return job


class _LoggedJobs(deque):
    """A VM's schedule that logs ``(vm_id, start, finish, ok)`` of every
    request appended to it; a fork's clone of it is a plain deque."""

    def __init__(self, vm_id, log, jobs=()):
        super().__init__(jobs)
        self.vm_id = vm_id
        self.log = log

    def append(self, job):
        super().append(job)
        self.log.append((self.vm_id, *job))


def recorded_jobs(cluster):
    """Log ``(vm_id, start, finish, ok)`` of every request the cluster
    dispatches from now on, to VMs it holds now or launches later."""
    log = []

    def logged(vm_id):
        vm = cluster.vms[vm_id]
        vm.jobs = _LoggedJobs(vm_id, log, vm.jobs)
        return vm_id

    for vm_id in cluster.vms:
        logged(vm_id)
    launch = cluster.launch_vm
    cluster.launch_vm = lambda *args, **kwargs: logged(launch(*args, **kwargs))
    return log


def dispatch_all(cluster, now, *works):
    """Dispatch one request per work size, all arriving at ``now``, in one
    ``advance``; returns the chosen VM ids in arrival order."""
    log = recorded_jobs(cluster)
    cluster.advance(now, WorkloadTrace([now] * len(works), list(works)), 0)
    return [vm_id for vm_id, *_ in log]


def reference_settle(cluster, vm, now: float) -> None:
    """Count the VM's requests that finish by ``now``, one at a time."""
    jobs = vm.jobs
    while jobs and jobs[0][1] <= now:
        start, finish, ok = jobs.popleft()
        if ok:
            cluster.successes += 1
        else:
            cluster.failures += 1
        vm.served += finish - start


def reference_dispatch(cluster, now: float, work: float) -> int:
    """The dispatch rule applied to one arrival: the first VM in id order
    with nothing outstanding, else the one with the fewest outstanding
    requests after settling, lowest id on ties; returns its id."""
    for vm in cluster.active.values():
        if vm.last_finish <= now:
            start = now if vm.ready_at <= now else vm.ready_at
            break
    else:
        vm = None
        load = 0
        for cand in cluster.active.values():
            jobs = cand.jobs
            if jobs[0][1] <= now:
                reference_settle(cluster, cand, now)
            if vm is None or len(jobs) < load:
                vm, load = cand, len(jobs)
        start = vm.last_finish
    finish = start + work / cluster.config.vm_capacity
    vm.jobs.append((start, finish, finish - now < cluster.config.sla_response_limit - 1e-9))
    vm.last_finish = finish
    return vm.id


def reference_advance(cluster, until: float, trace: WorkloadTrace, idx: int) -> int:
    """``Cluster.advance`` by way of ``reference_dispatch``, one arrival at a time."""
    end = bisect_right(trace.arrivals, until, idx)
    for i in range(idx, end):
        reference_dispatch(cluster, trace.arrivals[i], trace.work[i])
        cluster.submitted += 1
    for vm in cluster.vms.values():
        reference_settle(cluster, vm, until)
    return end


def reference_rate_at(profile: RateProfile, t: float) -> float:
    """The rate at ``t`` by a scan of the segment list from its start: the
    first segment with ``start <= t < end``, the last one also at its end."""
    for seg in profile.segments:
        if seg.start <= t < seg.end or (t == seg.end and seg is profile.segments[-1]):
            raw = seg.base_rate + seg.amplitude * math.sin(2.0 * math.pi * t / seg.period)
            return max(0.0, raw)
    return 0.0


def reference_poisson_arrivals(profile: RateProfile, duration: float, seed: int) -> list[float]:
    """Poisson arrivals with the rate looked up afresh at every step: each
    gap is drawn at the rate where it starts, and a zero rate steps 1 s,
    up to ``duration`` however far past the profile that is."""
    rng = random.Random(seed)
    times = []
    t = 0.0
    while t <= duration:
        r = reference_rate_at(profile, t)
        if r <= 0.0:
            t += 1.0
            continue
        t += rng.expovariate(r)
        if t <= duration:
            times.append(t)
    return times


def reference_parse(source) -> WorkloadTrace:
    """``parse_trace`` one line at a time: split each line on whitespace,
    skip blanks and comments, convert and range-check both fields, then
    sort the columns by a stable sort of the arrivals."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    arrivals, work = [], []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 2:
            raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            arrival, w = float(fields[0]), float(fields[1])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric field in {raw.strip()!r}") from None
        if not 0.0 <= arrival < math.inf:
            raise TraceValidationError(
                f"line {lineno}: arrival time must be non-negative and finite, got {arrival}"
            )
        if not 0.0 < w < math.inf:
            raise TraceValidationError(f"line {lineno}: work must be positive and finite, got {w}")
        arrivals.append(arrival)
        work.append(w)
    order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    return WorkloadTrace([arrivals[i] for i in order], [work[i] for i in order])


def oracle_cycles(vm, t: float, cycle: float, close: bool = False) -> int:
    """Cycles charged to ``vm`` by ``t``, counted boundary by boundary.

    Boundary k is ``anchor + k * cycle`` and closes cycle k.  A released VM
    is charged up to the first boundary at or after its release.  By ``t``
    every cycle whose boundary has passed is charged; when ``t`` closes the
    bill, every cycle that has started.  Comparisons allow 1e-9 of a cycle,
    as the simulator does.
    """
    tol = 1e-9 * cycle
    last = math.inf
    if vm.released_at is not None:
        last = 0
        while vm.anchor + last * cycle < vm.released_at - tol:
            last += 1
    count = 0
    while count < last:
        k = count + 1
        if close:
            due = vm.anchor + (k - 1) * cycle < t - tol
        else:
            due = vm.anchor + k * cycle <= t + tol
        if not due:
            break
        count = k
    return count


@contextlib.contextmanager
def captured_checkpoints():
    """Yield a dict that maps each checkpoint time to an unreplayed copy of
    the checkpoint built then, made before the run hands the checkpoint its
    future and its MAINTAIN fork: a direct replay of the copy forks afresh,
    and shares nothing with the forks the run made or takes on."""
    captured: dict[float, Checkpoint] = {}
    original = Checkpoint.__init__

    def capturing(self, time, *args):
        original(self, time, *args)
        captured[time] = copy.copy(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Checkpoint, "__init__", capturing)
        yield captured


def direct_replays(checkpoint: Checkpoint, actions, end: float) -> dict[Action, float]:
    """Each action's utility from a fresh fork of the checkpoint up to ``end``."""
    return {a: Checkpoint.replay(copy.copy(checkpoint), a, end).utility for a in actions}


class FixedPolicy:
    """Test stub that always answers with one action and never learns."""

    learns = False

    def __init__(self, action: Action = Action.MAINTAIN):
        self.action = action

    def candidates(self, obs):
        return ACTION_ORDER

    def decide(self, obs):
        return self.action

    def observe_reward(self, record, obs):
        pass


@pytest.fixture
def maintain_policy():
    return FixedPolicy(Action.MAINTAIN)
