"""Cluster mechanics close-up: FIFO queueing, spin-up lag, cycle billing.

Run:  python3 demos/02_cluster_anatomy.py
"""

from elastidebt import SimConfig, Simulation, WorkloadTrace
from elastidebt.policies import ACTION_ORDER, Action
from elastidebt.sim import Cluster, VmInstance, billing_cycles_charged


class Maintain:
    learns = False

    def candidates(self, obs):
        return ACTION_ORDER

    def decide(self, obs):
        return Action.MAINTAIN

    def observe_reward(self, record, obs):
        pass


# --- 1. ten simultaneous requests on one VM: the FIFO staircase -------------

cluster = Cluster(SimConfig())
vm_id = cluster.launch_vm(0.0, initial=True)
# a trace is two columns: arrival times and work (MI)
burst = WorkloadTrace(arrivals=[0.0] * 10, work=[2.0] * 10)
cluster.advance(0.0, burst, 0)  # dispatch all ten; each is scheduled on arrival

print("ten 2 MI requests at t=0 on a single 10 MIPS VM:")
for r, (start, finish, ok) in zip(burst.requests, cluster.active[vm_id].jobs):
    verdict = "ok  " if ok else "LATE"
    print(f"  req {r.id}: start {start:.1f}  finish {finish:.1f}  {verdict}")
cluster.advance(600.0, burst, len(burst))
print(f"successes {cluster.successes}, failures {cluster.failures}")

# --- 2. spin-up lag: work dispatched to a machine that is still booting ------

cfg = SimConfig(initial_vms=1)
late = WorkloadTrace(arrivals=[0.0], work=[2.0])


class LaunchOnce(Maintain):
    def __init__(self):
        self.done = False

    def decide(self, obs):
        if not self.done:
            self.done = True
            return Action.LAUNCH
        return Action.MAINTAIN


result = Simulation(cfg).run(late, LaunchOnce(), 600.0)
print(f"\nfleet after one launch decision: {result.vms_launched} VMs")
print(f"window count {len(result.windows)}, VM cycles charged {result.counts.cycles}")
print("(the launched VM bills from its request time even while booting)")

# --- 3. partial usage waste: release mid-cycle still pays the full cycle -----

vm = VmInstance(0, 0.0, anchor=0.0)
for release_at in (290.0, 300.0, 310.0, 420.0):
    vm.released_at = release_at
    cycles = billing_cycles_charged(vm, 21600.0, 300.0)
    waste = cycles * 300.0 - release_at
    print(f"release at t={release_at:5.0f}: charged {cycles} cycles, waste {waste:4.0f}s")
