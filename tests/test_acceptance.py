"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The directional criteria share a battery of ten paired six-hour runs
(debt-aware vs voting on identical workloads), built once per module.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import hashlib
import itertools
import math
import random

import pytest

from conftest import make_obs
from elastidebt.economics import compute_utility, counterfactual_ideal
from elastidebt.experiment import default_config, emit_csv, paired_experiment, run_experiment
from elastidebt.policies import (
    ACTION_ORDER,
    Action,
    Level,
    QTable,
    StateKey,
    allowed_actions,
    discretize_state,
    q_update,
)
from elastidebt.sim import (
    Checkpoint,
    Cluster,
    SimConfig,
    VmInstance,
    billing_cycles_charged,
)
from elastidebt.workload import Request

SEEDS = tuple(range(1, 11))


def check(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def battery():
    """Ten seeds, both policies, full six-hour default profile."""
    base = default_config()
    return {seed: paired_experiment(base, seed) for seed in SEEDS}


def test_criterion_1_debt_non_positivity(battery):
    worst = 0.0
    zero_rule_ok = True
    n_records = 0
    for da, vo in battery.values():
        for report in (da, vo):
            for rec in report.result.records:
                n_records += 1
                worst = max(worst, rec.debt)
                best = max(rec.per_action_utilities.values())
                attains = rec.per_action_utilities[rec.action_taken] == best
                if (rec.debt == 0.0) != attains:
                    zero_rule_ok = False
    check(
        1,
        "debt non-positivity",
        worst <= 1e-9 and zero_rule_ok and n_records > 0,
        f"{n_records} records over {len(battery)} seeds, max debt {worst:.3e}",
    )


def test_criterion_2_directional_utility(battery):
    da_u = [da.totals.aggregate_utility for da, _ in battery.values()]
    vo_u = [vo.totals.aggregate_utility for _, vo in battery.values()]
    wins = sum(d > v for d, v in zip(da_u, vo_u))
    mean_da = sum(da_u) / len(da_u)
    mean_vo = sum(vo_u) / len(vo_u)
    slowest = max(r.wall_clock for pair in battery.values() for r in pair)
    check(
        2,
        "directional utility",
        mean_da > mean_vo and wins >= 7 and slowest < 60.0,
        f"mean {mean_da:.2f} vs {mean_vo:.2f} (+{100 * (mean_da - mean_vo) / mean_vo:.1f}%), "
        f"wins {wins}/{len(battery)}, slowest run {slowest:.1f}s",
    )


def test_criterion_3_directional_failures(battery):
    da_f = [da.totals.failed_fraction for da, _ in battery.values()]
    vo_f = [vo.totals.failed_fraction for _, vo in battery.values()]
    mean_da = sum(da_f) / len(da_f)
    mean_vo = sum(vo_f) / len(vo_f)
    check(
        3,
        "directional failures",
        mean_da < mean_vo,
        f"mean failed fraction {mean_da:.4f} vs {mean_vo:.4f}",
    )


def test_criterion_4_utility_arithmetic():
    ub = compute_utility(1000, 50, [3, 3], SimConfig())
    err = abs(ub.utility - 1.06774)
    check(4, "utility arithmetic", err < 1e-12, f"got {ub.utility!r}, err {err:.2e}")


def test_criterion_5_billing_semantics():
    cycle = 300.0

    def charged(release_t):
        vm = VmInstance(0, 0.0, 0.0)
        vm.released_at = release_t
        return billing_cycles_charged(vm, 21600.0, cycle)

    ok = charged(420.0) == 2 and charged(300.0) == 1
    mismatches = sum(
        1
        for t10 in range(10, 15001)
        if charged(t10 / 10.0) != math.ceil((t10 / 10.0) / cycle)
    )
    check(
        5,
        "billing semantics",
        ok and mismatches == 0,
        f"release@420 -> {charged(420.0)} cycles, release@300 -> {charged(300.0)}, "
        f"sweep [1,1500] mismatches {mismatches}",
    )


def test_criterion_6_q_learning_matches_value_iteration():
    s0, s1 = StateKey(Level.LOW, Level.LOW), StateKey(Level.HIGH, Level.HIGH)
    actions = (Action.MAINTAIN, Action.LAUNCH)
    rewards = {(s0, actions[0]): 1.0, (s0, actions[1]): 0.0,
               (s1, actions[0]): -1.0, (s1, actions[1]): 2.0}
    nxt = {(s0, actions[0]): s0, (s0, actions[1]): s1,
           (s1, actions[0]): s0, (s1, actions[1]): s1}
    gamma = 0.9

    values = {s0: 0.0, s1: 0.0}
    while True:
        delta = 0.0
        for s in (s0, s1):
            best = max(rewards[(s, a)] + gamma * values[nxt[(s, a)]] for a in actions)
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta < 1e-10:
            break
    q_star = {sa: rewards[sa] + gamma * values[nxt[sa]] for sa in rewards}

    q = QTable()
    for _ in range(2000):
        for sa in rewards:
            q_update(q, sa[0], sa[1], rewards[sa], nxt[sa], actions, 0.1, gamma)
    max_err = max(abs(q.get(*sa) - q_star[sa]) for sa in rewards)

    single = QTable()
    single.set(s1, actions[1], 7.0)
    q_update(single, s0, actions[0], -3.0, s1, actions, 1.0, gamma)
    alpha_one_exact = single.get(s0, actions[0]) == -3.0 + gamma * 7.0

    check(
        6,
        "q-learning vs value iteration",
        max_err < 1e-2 and alpha_one_exact,
        f"max |Q - Q*| = {max_err:.2e}, alpha=1 overwrite exact: {alpha_one_exact}",
    )


# -- criterion 7: independent brute-force counterfactual oracle -----------------


def oracle_utility(cfg, vm_specs, action, arrivals, t0, window):
    """Direct (non event-driven) valuation of one candidate action.

    Sequentially assigns each arrival to the live VM with the fewest
    unfinished jobs at that instant, computes FIFO start/finish times,
    classifies completions inside the window and counts cycle boundaries.
    """
    fleet = [dict(v) for v in vm_specs]
    release_end = {}
    if action is Action.LAUNCH:
        new_id = max(v["id"] for v in fleet) + 1
        ready = t0 + cfg.spin_up
        anchor = t0 if cfg.billing_anchor == "at_request" else ready
        fleet.append({"id": new_id, "anchor": anchor, "ready": ready})
    elif action is Action.RELEASE and len(fleet) > 1:
        remaining = lambda v: cfg.billing_cycle - ((t0 - v["anchor"]) % cfg.billing_cycle)
        victim = min(fleet, key=lambda v: (remaining(v), v["id"]))
        k = math.ceil((t0 - victim["anchor"]) / cfg.billing_cycle - 1e-9)
        release_end[victim["id"]] = victim["anchor"] + max(0, k) * cfg.billing_cycle

    jobs = {v["id"]: [] for v in fleet}  # (arrival, start, finish)
    for at, work in arrivals:
        live = [v for v in fleet if v["id"] not in release_end]
        outstanding = lambda v: sum(1 for (_, _, f) in jobs[v["id"]] if f > at)
        vm = min(live, key=lambda v: (outstanding(v), v["id"]))
        prev = jobs[vm["id"]][-1][2] if jobs[vm["id"]] else 0.0
        start = max(at, vm["ready"], prev)
        finish = start + work / cfg.vm_capacity
        jobs[vm["id"]].append((at, start, finish))

    x_s = x_f = 0
    end = t0 + window
    for vm in fleet:
        for at, _, finish in jobs[vm["id"]]:
            if finish <= end:
                if finish - at < cfg.sla_response_limit - 1e-9:
                    x_s += 1
                else:
                    x_f += 1

    cycles = []
    for vm in fleet:
        cap = release_end.get(vm["id"], float("inf"))
        count, k = 0, 1
        while True:
            boundary = vm["anchor"] + k * cfg.billing_cycle
            if boundary > end:
                break
            if boundary > t0 and boundary <= cap:
                count += 1
            k += 1
        if count:
            cycles.append(count)
    return compute_utility(x_s, x_f, cycles, cfg).utility


def build_checkpoint(cfg, vm_specs, arrivals, t0):
    cluster = Cluster(cfg)
    for spec in vm_specs:
        vm = VmInstance(spec["id"], spec["ready"], spec["anchor"])
        cluster.active[spec["id"]] = vm
    cluster.next_vm_id = max(spec["id"] for spec in vm_specs) + 1
    requests = [Request(i, at, work) for i, (at, work) in enumerate(arrivals)]
    return Checkpoint(cfg, t0, cluster, requests, 0)


def test_criterion_7_counterfactual_matches_brute_force():
    cfg = SimConfig()
    rng = random.Random(2024)
    t0, window = 600.0, 360.0
    scenarios = 0
    exact = True
    details = []
    for case in range(30):
        n_vms = rng.randrange(1, 4)
        vm_specs = [
            {
                "id": i,
                "anchor": t0 - rng.randrange(0, 10) * 30.0,
                "ready": t0 - rng.randrange(1, 20) * 10.0,
            }
            for i in range(n_vms)
        ]
        n_req = rng.randrange(0, 21)
        arrivals = sorted(
            (round(t0 + rng.uniform(0.001, window), 4), rng.choice([1.0, 2.0, 4.0, 20.0]))
            for _ in range(n_req)
        )
        ckpt = build_checkpoint(cfg, vm_specs, arrivals, t0)
        u_ideal, per_action = counterfactual_ideal(ckpt, ACTION_ORDER, window)
        for action in ACTION_ORDER:
            expected = oracle_utility(cfg, vm_specs, action, arrivals, t0, window)
            if per_action[action] != expected:
                exact = False
                details.append(f"case {case} {action.value}: {per_action[action]!r} != {expected!r}")
        if u_ideal != max(per_action.values()):
            exact = False
            details.append(f"case {case}: ideal != max")
        scenarios += 1
    check(
        7,
        "counterfactual oracle equivalence",
        exact and scenarios >= 25,
        f"{scenarios} randomized micro-scenarios exact" if exact else "; ".join(details[:3]),
    )


def test_criterion_8_determinism(tmp_path):
    cfg = default_config(seed=5, horizon=1800.0)
    cfg.policy = "debt-aware"

    def digest(directory):
        out = {}
        for path in sorted(directory.iterdir()):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_csv(run_experiment(cfg), str(dir_a))
    emit_csv(run_experiment(cfg), str(dir_b))
    hashes_equal = digest(dir_a) == digest(dir_b)

    vote_cfg = default_config(seed=5, horizon=1800.0)
    vote_cfg.policy = "voting"
    with_debt = run_experiment(vote_cfg, record_debt=True)
    without_debt = run_experiment(vote_cfg, record_debt=False)
    provisioning_same = [
        (r.time, r.ready_vms) for r in with_debt.rows
    ] == [(r.time, r.ready_vms) for r in without_debt.rows]
    utilities_same = (
        with_debt.totals.aggregate_utility == without_debt.totals.aggregate_utility
    )
    check(
        8,
        "determinism",
        hashes_equal and provisioning_same and utilities_same,
        f"csv hashes equal: {hashes_equal}, counterfactuals perturb nothing: "
        f"{provisioning_same and utilities_same}",
    )


def test_criterion_9_discretization_and_preconditions():
    queued = {Level.LOW: 0.10, Level.MEDIUM: 0.20, Level.HIGH: 0.30}
    idle = {Level.LOW: 0.10, Level.MEDIUM: 0.50, Level.HIGH: 0.70}
    reached = {
        discretize_state(make_obs(frac_queue=queued[ql], frac_idle=idle[il]))
        for ql, il in itertools.product(Level, Level)
    }
    boundaries_medium = (
        discretize_state(make_obs(frac_queue=0.15, frac_idle=0.33))
        == StateKey(Level.MEDIUM, Level.MEDIUM)
        and discretize_state(make_obs(frac_queue=0.25, frac_idle=0.66))
        == StateKey(Level.MEDIUM, Level.MEDIUM)
    )
    preconditions = (
        allowed_actions(StateKey(Level.HIGH, Level.LOW)) == (Action.LAUNCH,)
        and allowed_actions(StateKey(Level.LOW, Level.HIGH)) == (Action.RELEASE,)
    )
    check(
        9,
        "discretization & preconditions",
        len(reached) == 9 and boundaries_medium and preconditions,
        f"{len(reached)}/9 states reached, boundary->medium {boundaries_medium}, "
        f"forced singletons {preconditions}",
    )


def test_criterion_10_learning_trend(battery):
    firsts, finals = [], []
    for da, _ in battery.values():
        debts = [rec.debt for rec in da.result.records]
        quarter = max(1, len(debts) // 4)
        firsts.append(sum(debts[:quarter]) / quarter)
        finals.append(sum(debts[-quarter:]) / quarter)
    mean_first = sum(firsts) / len(firsts)
    mean_final = sum(finals) / len(finals)
    check(
        10,
        "learning trend",
        mean_final >= mean_first,
        f"mean debt first quarter {mean_first:.5f} vs final quarter {mean_final:.5f}",
    )
