"""Property tests over small random configs, fleets and arrival lists.

Spin-up, billing cycles, anchors and windows are whole seconds so that
billing boundaries sum exactly: the cluster adds one cycle per boundary
while the oracle multiplies.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elastidebt.policies import ACTION_ORDER
from elastidebt.sim import Cluster, SimConfig
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
