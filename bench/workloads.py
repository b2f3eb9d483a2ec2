"""The benchmark's three workloads: inputs, timed body and output checks.

Every workload starts from ``configs/experiment-6h.cfg`` (the bundled
six-hour diurnal-surge profile with stock parameters), as ``elastidebt run``
does, and changes only the policy, the seed and the horizon.

Why these three:

- ``debt-aware-proactive``: proactive replays over 60 + 300 s windows carry
  most of the host time; primary dispatch is a small share. Four runs of
  distinct seeds, as ``elastidebt run`` does each.
- ``primary-only``: no replays at all; primary dispatch, window bookkeeping
  and trace parsing carry the time. A replay optimisation must show no
  change here.
- ``paired-battery``: the only workload with more than one run, so only
  here can orchestration across runs (trace regeneration per policy, a
  process pool) show. Its voting runs record debts, so each of their
  adaptations replays all three candidates over the elapsed window, one of
  which the primary run already measured.

``elastidebt`` is imported inside the methods: ``run.py`` imports this module
for the workload names without putting ``src/`` on its path.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import replace

# horizon (s) of each workload's run(s) at scale 1
HORIZONS = {
    # four runs of 30 min (DEBT_AWARE_RUNS), not one of 2 h: the cost of one
    # 2 h run moves with its seed by about 0.2 (IQR/median over five seeds),
    # that of four 30 min runs by 0.07 (eight seeds, interleaved)
    "debt-aware-proactive": 1800.0,
    "primary-only": 10800.0,
    "paired-battery": 1200.0,
}
PAIRED_SEEDS = 3  # paired-battery runs seeds n, n+1, n+2 one after another
DEBT_AWARE_RUNS = 4  # debt-aware-proactive runs seeds 4n .. 4n+3 one after another

_REL = 1e-9


class CheckFailed(AssertionError):
    """An output check of a repetition failed."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-9)


class Workload:
    """One repetition of a workload: ``setup`` (untimed, but counted in
    setup_s), ``body`` (timed), then ``check`` on what the body produced."""

    def __init__(self, name: str, seed: int, scale: float, root: str, out_dir: str) -> None:
        if name not in HORIZONS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.horizon = HORIZONS[name] * scale
        self.root = root
        self.out_dir = out_dir
        self.reports: list = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        from elastidebt.experiment import load_config

        cfg = load_config(os.path.join(self.root, "configs", "experiment-6h.cfg"))
        cfg.seed = self.seed
        cfg.horizon = self.horizon
        cfg.policy = "voting" if self.name == "primary-only" else "debt-aware"
        self.profile = cfg.profile
        if self.name == "primary-only":
            from elastidebt.workload import generate_trace, serialize_trace

            trace_file = os.path.join(self.out_dir, "primary.trace")
            trace = generate_trace(cfg.profile, self.horizon, self.seed)
            self.generated = array("d", (r.arrival_time for r in trace.requests))
            with open(trace_file, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(serialize_trace(trace))
            cfg.trace_path = trace_file
            cfg.profile = None
        self.config = cfg

    # -- timed body ----------------------------------------------------------

    def body(self) -> None:
        # module attributes, not imported names, so the tracer's wrappers apply
        from elastidebt import experiment

        csv_dir = os.path.join(self.out_dir, "csv")
        if self.name == "paired-battery":
            for seed in range(self.seed, self.seed + PAIRED_SEEDS):
                debt, vote = experiment.paired_experiment(self.config, seed)
                for report in (debt, vote):
                    experiment.emit_csv(report, os.path.join(csv_dir, f"seed{seed}-{report.totals.policy}"))
                    self.reports.append(report)
        elif self.name == "debt-aware-proactive":
            for seed in range(DEBT_AWARE_RUNS * self.seed, DEBT_AWARE_RUNS * (self.seed + 1)):
                report = experiment.run_experiment(replace(self.config, seed=seed))
                experiment.emit_csv(report, os.path.join(csv_dir, f"seed{seed}"))
                self.reports.append(report)
        else:
            report = experiment.run_experiment(self.config, record_debt=False)
            experiment.emit_csv(report, csv_dir)
            self.reports.append(report)

    def requests(self) -> int:
        """Trace requests run through the primary simulation(s)."""
        return sum(r.totals.submitted for r in self.reports)

    # -- output checks -------------------------------------------------------

    def check(self) -> None:
        expected_runs = {"paired-battery": 2 * PAIRED_SEEDS, "debt-aware-proactive": DEBT_AWARE_RUNS}.get(self.name, 1)
        _check(len(self.reports) == expected_runs, f"{len(self.reports)} reports, expected {expected_runs}")
        for report in self.reports:
            check_conservation(report)
            check_totals(report, self.config.sim)
            if self.name != "primary-only":
                check_debts(report)
                check_generated_trace(report.result.requests, self.profile, self.horizon)
        if self.name == "primary-only":
            parsed = self.reports[0].result.requests
            n = len(self.generated)
            _check(len(parsed) == n, f"parsed {len(parsed)} requests, generated {n}")
            for p, arrival in zip(parsed, self.generated):
                # generated requests all carry the profile's work
                _check(
                    p.arrival_time == arrival and p.work == self.profile.work_mi,
                    f"parsed request {p.id} differs from the generated one",
                )
        if self.name == "paired-battery":
            for debt, vote in zip(self.reports[::2], self.reports[1::2]):
                check_retrospective(vote)
                _check(
                    debt.totals.submitted == vote.totals.submitted,
                    f"seed {debt.totals.seed}: submitted {debt.totals.submitted} vs {vote.totals.submitted}",
                )


def check_conservation(report) -> None:
    t, result = report.totals, report.result
    arrived = sum(1 for r in result.requests if r.arrival_time <= t.horizon)
    _check(t.submitted == arrived, f"submitted {t.submitted} != {arrived} trace requests by the horizon")
    _check(
        t.successes + t.failures + result.in_flight_at_end == t.submitted,
        f"successes {t.successes} + failures {t.failures} + in flight {result.in_flight_at_end}"
        f" != submitted {t.submitted}",
    )
    _check(sum(row.submitted for row in report.rows) == t.submitted, "window submissions do not sum to submitted")


def check_totals(report, sim_cfg) -> None:
    t = report.totals
    _check(sim_cfg.sla_mode == "per_request", "totals check assumes per-request SLA penalties")
    _check(_close(t.revenue, sim_cfg.price_per_request * t.successes), f"revenue {t.revenue} != price x successes")
    _check(_close(t.penalty, sim_cfg.penalty_per_request * t.failures), f"penalty {t.penalty} != price x failures")
    cycles = t.total_cost / sim_cfg.vm_cost_per_cycle
    _check(abs(cycles - round(cycles)) < 1e-6, f"total_cost {t.total_cost} is not a whole number of cycles")
    _check(round(cycles) >= sim_cfg.initial_vms, "fewer cycles charged than initial VMs")
    window_sum = math.fsum(row.window_utility for row in report.rows)
    _check(_close(window_sum, t.aggregate_utility), f"window utilities sum to {window_sum}, not {t.aggregate_utility}")
    _check(
        math.isclose(t.aggregate_utility, t.revenue - t.penalty - t.total_cost, rel_tol=_REL, abs_tol=1e-6),
        "aggregate utility != revenue - penalty - cost",
    )


def check_debts(report) -> None:
    from elastidebt.policies import ACTION_ORDER, allowed_actions

    records = report.result.records
    _check(len(records) == report.totals.adaptations, "record count differs from adaptations")
    for rec in records:
        _check(rec.debt <= 0.0, f"t={rec.time}: positive debt {rec.debt}")
        best = max(rec.per_action_utilities.values())
        taken = rec.per_action_utilities[rec.action_taken]
        _check((rec.debt == 0.0) == (taken == best), f"t={rec.time}: debt {rec.debt} but taken={taken} best={best}")
        candidates = allowed_actions(rec.state) if report.totals.policy == "debt-aware" else ACTION_ORDER
        _check(
            set(rec.per_action_utilities) == set(candidates),
            f"t={rec.time}: replayed {sorted(map(str, rec.per_action_utilities))}, candidates {sorted(map(str, candidates))}",
        )


def check_retrospective(report) -> None:
    # the final window is excluded: its billing true-up has no replay analogue
    for win in report.result.windows[:-1]:
        if win.record is not None:
            _check(
                win.record.u_actual == win.breakdown.utility,
                f"t={win.record.time}: u_actual {win.record.u_actual} != measured {win.breakdown.utility}",
            )


def integrated_intensity(profile, horizon: float) -> float:
    """Expected arrivals in [0, horizon] of a sinusoidal rate profile, in closed form."""
    total = 0.0
    for seg in profile.segments:
        lo, hi = seg.start, min(seg.end, horizon)
        if hi <= lo:
            continue
        if seg.base_rate < seg.amplitude:
            raise ValueError("closed form needs segments whose rate never clips at zero")
        w = 2.0 * math.pi / seg.period
        total += seg.base_rate * (hi - lo) - seg.amplitude / w * (math.cos(w * hi) - math.cos(w * lo))
    return total


def check_generated_trace(requests, profile, horizon: float) -> None:
    expected = integrated_intensity(profile, horizon)
    n = len(requests)
    _check(abs(n - expected) <= 5.0 * math.sqrt(expected), f"{n} requests, expected {expected:.0f} +- 5 sigma")
    prev = 0.0
    for r in requests:
        _check(prev <= r.arrival_time <= horizon, f"request {r.id} at {r.arrival_time} out of order or range")
        prev = r.arrival_time
