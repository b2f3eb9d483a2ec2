"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import contextlib
import copy

import pytest

from elastidebt.policies import ACTION_ORDER, Action
from elastidebt.sim import Checkpoint, Cluster, ClusterObservation, SimConfig
from elastidebt.workload import Request, WorkloadTrace


def make_obs(
    time: float = 0.0,
    ready_vms: int = 3,
    pending_vms: int = 0,
    frac_queue: float = 0.0,
    frac_idle: float = 0.0,
    utils: list[float] | None = None,
    successes: int = 0,
    failures: int = 0,
) -> ClusterObservation:
    return ClusterObservation(
        time=time,
        ready_vms=ready_vms,
        pending_vms=pending_vms,
        frac_vms_with_queue=frac_queue,
        frac_vms_idle_near_cycle=frac_idle,
        per_vm_utilization=utils if utils is not None else [0.5] * ready_vms,
        window_successes=successes,
        window_failures=failures,
    )


def make_trace(arrivals: list[tuple[float, float]], duration: float | None = None) -> WorkloadTrace:
    reqs = [Request(id=i, arrival_time=t, work=w) for i, (t, w) in enumerate(sorted(arrivals))]
    if duration is None:
        duration = reqs[-1].arrival_time if reqs else 0.0
    return WorkloadTrace(requests=reqs, duration=duration)


def dispatch_alone(work: float) -> tuple[float, float, bool]:
    """``(start, finish, ok)`` of one request for ``work`` MI arriving at t=0
    on a lone idle default VM."""
    cluster = Cluster(SimConfig())
    vm_id = cluster.launch_vm(0.0, initial=True)
    cluster.dispatch(Request(0, 0.0, work), 0.0)
    (job,) = cluster.active[vm_id].jobs
    return job


@contextlib.contextmanager
def captured_checkpoints():
    """Yield a dict that maps each checkpoint time to an unreplayed copy of
    the checkpoint built then; a direct replay of the copy shares nothing
    with the forks the run made."""
    captured: dict[float, Checkpoint] = {}
    original = Checkpoint.__init__

    def capturing(self, config, time, *args):
        original(self, config, time, *args)
        captured[time] = copy.copy(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Checkpoint, "__init__", capturing)
        yield captured


def direct_replays(checkpoint: Checkpoint, actions, window: float) -> dict[Action, float]:
    """Each action's utility from a fresh fork of the checkpoint over ``window``."""
    return {a: Checkpoint.replay(copy.copy(checkpoint), a, window).utility for a in actions}


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
