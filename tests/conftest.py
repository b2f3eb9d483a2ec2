"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import contextlib
import copy
import math

import pytest

from elastidebt.policies import ACTION_ORDER, Action
from elastidebt.sim import Checkpoint, Cluster, ClusterObservation, SimConfig
from elastidebt.workload import WorkloadTrace


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
    cluster.dispatch(0.0, work)
    (job,) = cluster.active[vm_id].jobs
    return job


def recorded_jobs(cluster):
    """Log ``(vm_id, start, finish, ok)`` of every request the cluster dispatches."""
    log = []
    dispatch = cluster.dispatch

    def recording(now, work):
        vm_id = dispatch(now, work)
        log.append((vm_id, *cluster.active[vm_id].jobs[-1]))
        return vm_id

    cluster.dispatch = recording
    return log


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
    the checkpoint built then; a direct replay of the copy shares nothing
    with the forks the run made."""
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

    def observe_reward(self, reward, obs):
        pass


@pytest.fixture
def maintain_policy():
    return FixedPolicy(Action.MAINTAIN)
