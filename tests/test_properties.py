"""Property tests over small random configs, fleets and arrival lists.

In the replay tests spin-up, billing cycles, anchors and windows are whole
seconds so that billing boundaries sum exactly: the cluster adds one cycle
per boundary while the oracle multiplies.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FixedPolicy, captured_checkpoints, direct_replays, make_trace
from elastidebt.policies import ACTION_ORDER, Action, DebtAwarePolicy
from elastidebt.sim import Cluster, SimConfig, run_simulation
from test_acceptance import build_checkpoint, oracle_utility

T0 = 600.0

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@st.composite
def scenarios(draw):
    """A config, an idle ready fleet at T0, a window and arrivals inside it."""
    cfg = SimConfig(
        spin_up=float(draw(st.integers(1, 400))),
        vm_capacity=draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 7.0, 10.0])),
        billing_cycle=float(draw(st.integers(5, 600))),
        sla_response_limit=draw(st.sampled_from([0.25, 1.0, 2.0, 3.7, 30.0])),
        billing_anchor=draw(st.sampled_from(["at_request", "at_ready"])),
    )
    vm_specs = [
        {"id": i, "anchor": T0 - draw(st.integers(0, 900)), "ready": T0 - draw(st.integers(0, 300))}
        for i in range(draw(st.integers(1, 4)))
    ]
    # short windows crowd the arrivals; long ones cross billing boundaries
    window = float(draw(st.one_of(st.integers(1, 20), st.integers(1, 900))))
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

    def checked(self, until, arrivals, idx):
        idx = advance(self, until, arrivals, idx)
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
        assert checkpoint.replay(action, window).utility == expected, action


@PROPERTY_SETTINGS
@given(
    scenarios(),
    st.lists(
        st.tuples(
            st.sampled_from(ACTION_ORDER),
            st.sampled_from([0, 0, 7, 120, 300]),
            st.integers(0, 900),
        ),
        max_size=6,
    ),
)
def test_maintain_replay_ignores_earlier_calls(scenario, calls):
    # the paused MAINTAIN fork is resumed only for a window reaching at
    # least as far; longer, shorter and equal windows in any order each
    # give what a fresh checkpoint gives
    cfg, vm_specs, _, arrivals = scenario
    checkpoint = build_checkpoint(cfg, vm_specs, arrivals, T0)
    for action, before, after in calls + [(Action.MAINTAIN, 0, 0)] + calls[::-1]:
        # a window opened ``before`` seconds ahead of the checkpoint
        start, window = T0 - before, float(before + after)
        fresh = build_checkpoint(cfg, vm_specs, arrivals, T0)
        expected = fresh.replay(action, window, start=start)
        assert checkpoint.replay(action, window, start=start) == expected, (action, before, after)


def fleet_cluster(cfg, checkpoint):
    """A primary cluster holding the checkpoint's fleet."""
    cluster = Cluster(cfg)
    for snap in checkpoint.vm_snaps:
        cluster.active[snap.id] = snap.clone()
    return cluster


@PROPERTY_SETTINGS
@given(scenarios(), st.lists(st.integers(0, 900), max_size=6))
def test_advancing_in_steps_changes_nothing(conserving, scenario, steps):
    cfg, vm_specs, window, arrivals = scenario
    checkpoint = build_checkpoint(cfg, vm_specs, arrivals, T0)
    end = T0 + window
    whole, stepped = fleet_cluster(cfg, checkpoint), fleet_cluster(cfg, checkpoint)
    whole.advance(end, checkpoint.arrivals, 0)
    idx = 0
    for until in sorted(T0 + s for s in steps if s < window):
        idx = stepped.advance(until, checkpoint.arrivals, idx)
    stepped.advance(end, checkpoint.arrivals, idx)

    def outcome(cluster):
        vms = [(vm.id, vm.charged_cycles, list(vm.jobs)) for vm in cluster.all_vms()]
        return cluster.submitted, cluster.successes, cluster.failures, vms

    assert outcome(stepped) == outcome(whole)


class RandomPolicy(FixedPolicy):
    """Seeded uniform choice among all actions; valued retrospectively."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def decide(self, obs):
        return self.rng.choice(ACTION_ORDER)


@st.composite
def runs(draw):
    """A config, a horizon that is no multiple of the decision interval,
    arrivals up to the horizon and a policy."""
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
    arrivals = draw(st.lists(st.tuples(arrival, work), max_size=60))
    seed = draw(st.integers(0, 2**16))
    policy = draw(st.sampled_from([DebtAwarePolicy, RandomPolicy]))
    return cfg, horizon, arrivals, policy(seed=seed)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(runs())
def test_full_run_invariants(run):
    cfg, horizon, arrivals, policy = run
    decided = []
    decide = policy.decide

    def logged(obs):
        decided.append(obs.time)
        return decide(obs)

    policy.decide = logged
    with captured_checkpoints() as checkpoints:
        result = run_simulation(cfg, make_trace(arrivals), policy, horizon)
    # every decision is settled once, and none is taken at the horizon
    assert decided == [rec.time for rec in result.records]
    assert all(t < horizon for t in decided)
    windows = result.windows
    assert windows[0].start == 0.0 and windows[-1].end == horizon
    assert all(prev.end == cur.start for prev, cur in zip(windows, windows[1:]))
    assert result.submitted == len(arrivals)
    t = result.totals
    assert t.successes + t.failures + result.in_flight_at_end == result.submitted
    assert sum(w.breakdown.utility for w in windows) == result.aggregate_utility
    for rec in result.records:
        assert rec.debt <= 0.0
        best = max(rec.per_action_utilities.values())
        assert (rec.debt == 0.0) == (rec.per_action_utilities[rec.action_taken] == best)
    # every value, whether measured, joined or replayed on a resumed fork,
    # equals a direct replay over the record's window, bit for bit
    proactive = isinstance(policy, DebtAwarePolicy)
    for win in windows:
        rec = win.record
        if rec is None:
            continue
        span = cfg.decision_interval + cfg.billing_cycle if proactive else win.end - rec.time
        per_action = rec.per_action_utilities
        assert per_action == direct_replays(checkpoints[rec.time], per_action, span)
