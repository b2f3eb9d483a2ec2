"""Experiment orchestration: config files, seeded runs, CSV emission, A/B compare.

A single experiment seed feeds two independent generator streams, one for
workload synthesis and one for the policy's exploration draws, so paired
runs of different policies see the identical workload.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

from .policies import (
    FIELD_TYPES,
    Action,
    DebtAwarePolicy,
    LearningParams,
    Level,
    QTable,
    StateKey,
    VotingParams,
    VotingPolicy,
    check_fields,
)
from .sim import SimConfig, Simulation, SimulationResult
from .workload import (
    READ_ENCODING,
    RateProfile,
    TraceParseError,
    TraceValidationError,
    WorkloadTrace,
    default_profile,
    generate_trace,
    load_profile,
    parse_trace,
    read_key_values,
)


# ExperimentConfig's section annotations, whose values have no text to parse;
# sim imports policies, so they join the table here
FIELD_TYPES["SimConfig"] = (SimConfig, None)
FIELD_TYPES["RateProfile | None"] = ((RateProfile, type(None)), None)
FIELD_TYPES["LearningParams"] = (LearningParams, None)
FIELD_TYPES["VotingParams"] = (VotingParams, None)


class ConfigError(ValueError):
    """An experiment configuration is invalid or unreadable."""


def derive_seed(seed: int, stream: str) -> int:
    """Stable 63-bit sub-seed for a named generator stream."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class ExperimentConfig:
    """Everything one run needs: simulator, workload source, policy, seed."""

    sim: SimConfig = field(default_factory=SimConfig)
    profile: RateProfile | None = None
    trace_path: str | None = None
    policy: str = "debt-aware"  # or "voting"
    learning: LearningParams = field(default_factory=LearningParams)
    voting: VotingParams = field(default_factory=VotingParams)
    seed: int = 0
    horizon: float = 21600.0
    output_dir: str | None = None
    qtable_in: str | None = None

    def validate(self) -> None:
        check_fields(self, ConfigError)
        self.sim.validate()
        self.learning.validate()
        self.voting.validate()
        if (self.profile is None) == (self.trace_path is None):
            raise ConfigError("exactly one workload source (profile or trace) is required")
        if self.policy not in ("debt-aware", "voting"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.policy == "voting" and self.qtable_in is not None:
            raise ConfigError("qtable_in needs policy debt-aware: a voting run reads no Q table")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")


def load_config(path: str) -> ExperimentConfig:
    """Read a flat ``key = value`` experiment config.

    Workload paths inside the file are resolved relative to the file's
    directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    cfg = ExperimentConfig()
    # every parameter field is a key, parsed by its annotation
    keys = [(sec, f) for sec in (cfg.sim, cfg.learning, cfg.voting) for f in fields(sec)]
    keys += [(cfg, f) for f in fields(cfg) if f.name in ("policy", "seed", "horizon")]
    owners = {f.name: (sec, FIELD_TYPES[f.type][1]) for sec, f in keys}
    paths = {"trace": "trace_path", "output_dir": "output_dir", "qtable_in": "qtable_in"}

    def assign(key: str, value: str) -> str:
        if key in paths:
            setattr(cfg, paths[key], os.path.join(base, value))
        elif key == "profile":
            cfg.profile = load_profile(os.path.join(base, value))
        else:
            owner, parse = owners[key]
            setattr(owner, key, parse(value))
        return key

    read_key_values(path, "config", ConfigError, assign)
    return cfg


@dataclass
class WindowRow:
    """One report row per monitoring window."""

    time: float = field(metadata={"decimals": 3})
    ready_vms: int
    ideal_vms: int
    submitted: int
    successes: int
    failures: int
    penalty: float
    debt: float
    window_utility: float
    cumulative_utility: float


@dataclass
class ReportTotals:
    """A run's totals, in the column order of summary.csv."""

    policy: str
    seed: int
    horizon: float = field(metadata={"decimals": 3})
    aggregate_utility: float
    revenue: float
    penalty: float
    total_cost: float
    total_debt: float
    submitted: int
    successes: int
    failures: int
    failed_fraction: float
    adaptations: int
    vms_launched: int


@dataclass
class ExperimentReport:
    rows: list[WindowRow]
    totals: ReportTotals
    wall_clock: float
    qtable_rows: list[tuple[str, str, str, float, int]] | None = None
    result: SimulationResult | None = field(default=None, repr=False)


def build_workload(config: ExperimentConfig) -> WorkloadTrace:
    """Materialize the configured workload source.  A trace file that cannot
    be read or decoded, or holds a bad line, is a ConfigError naming it."""
    if config.trace_path is not None:
        try:
            with open(config.trace_path, encoding=READ_ENCODING) as fh:
                return parse_trace(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read trace {config.trace_path}: {exc}") from exc
        except (TraceParseError, TraceValidationError) as exc:
            raise ConfigError(f"{config.trace_path}: {exc}") from exc
    assert config.profile is not None
    return generate_trace(config.profile, config.horizon, derive_seed(config.seed, "workload"))


def build_policy(config: ExperimentConfig):
    if config.policy == "voting":
        return VotingPolicy(replace(config.voting))
    qtable = None
    if config.qtable_in is not None:
        qtable = load_qtable(config.qtable_in)
    return DebtAwarePolicy(
        params=replace(config.learning),
        seed=derive_seed(config.seed, "policy"),
        qtable=qtable,
    )


def run_experiment(config: ExperimentConfig, record_debt: bool = True) -> ExperimentReport:
    """Run one fully seeded experiment and assemble its report."""
    config.validate()
    return _run_on(config, build_workload(config), record_debt)


def _run_on(
    config: ExperimentConfig, workload: WorkloadTrace, record_debt: bool = True
) -> ExperimentReport:
    """Run a validated config over an already built workload."""
    policy = build_policy(config)

    started = time.perf_counter()
    result = Simulation(config.sim).run(workload, policy, config.horizon, record_debt=record_debt)
    wall_clock = time.perf_counter() - started

    # the one fold of a run's money: each total adds the windows in order
    rows: list[WindowRow] = []
    cumulative = total_debt = revenue = penalty = vm_cost = 0.0
    for win in result.windows:
        cumulative += win.breakdown.utility
        revenue += win.breakdown.revenue
        penalty += win.breakdown.penalty
        vm_cost += win.breakdown.vm_cost
        debt = win.record.debt if win.record is not None else 0.0
        total_debt += debt
        rows.append(
            WindowRow(
                time=win.end,
                ready_vms=win.ready_vms,
                ideal_vms=win.ideal_vms,
                submitted=win.breakdown.counts.submitted,
                successes=win.breakdown.counts.successes,
                failures=win.breakdown.counts.failures,
                penalty=win.breakdown.penalty,
                debt=debt,
                window_utility=win.breakdown.utility,
                cumulative_utility=cumulative,
            )
        )

    # request counts are the cluster's own reading, not a sum of the rows
    counts = result.counts
    failed_fraction = counts.failures / counts.submitted if counts.submitted else 0.0
    totals = ReportTotals(
        aggregate_utility=cumulative,
        revenue=revenue,
        penalty=penalty,
        total_cost=vm_cost,
        total_debt=total_debt,
        submitted=counts.submitted,
        successes=counts.successes,
        failures=counts.failures,
        failed_fraction=failed_fraction,
        adaptations=len(result.records),
        vms_launched=result.vms_launched,
        horizon=config.horizon,
        policy=config.policy,
        seed=config.seed,
    )
    qtable_rows = None
    if isinstance(policy, DebtAwarePolicy):
        qtable_rows = policy.qtable.rows()
    return ExperimentReport(
        rows=rows,
        totals=totals,
        wall_clock=wall_clock,
        qtable_rows=qtable_rows,
        result=result,
    )


@dataclass
class ComparisonSummary:
    utility_delta: float
    utility_delta_pct: float
    failed_fraction_delta: float
    cost_delta: float
    mean_debt_a: float
    mean_debt_b: float

    def lines(self, label_a: str = "A", label_b: str = "B") -> list[str]:
        return [
            f"utility delta ({label_a} - {label_b}): {self.utility_delta:+.6f} ({self.utility_delta_pct:+.2f}%)",
            f"failed-fraction delta: {self.failed_fraction_delta:+.6f}",
            f"cost delta: {self.cost_delta:+.6f}",
            f"mean debt per adaptation: {label_a}={self.mean_debt_a:.6f} {label_b}={self.mean_debt_b:.6f}",
        ]


def compare(a: ReportTotals, b: ReportTotals) -> ComparisonSummary:
    """Deltas of run A's totals relative to run B's (same workload family):
    a report's ``totals`` or a run directory's ``load_summary``."""
    if a.horizon != b.horizon:
        raise ValueError(f"mismatched horizons: {a.horizon} vs {b.horizon}")
    ua, ub = a.aggregate_utility, b.aggregate_utility
    if ub != 0.0:
        pct = 100.0 * (ua - ub) / abs(ub)
    else:
        pct = 0.0 if ua == 0.0 else math.copysign(math.inf, ua)
    mean_a = a.total_debt / a.adaptations if a.adaptations else 0.0
    mean_b = b.total_debt / b.adaptations if b.adaptations else 0.0
    return ComparisonSummary(
        utility_delta=ua - ub,
        utility_delta_pct=pct,
        failed_fraction_delta=a.failed_fraction - b.failed_fraction,
        cost_delta=a.total_cost - b.total_cost,
        mean_debt_a=mean_a,
        mean_debt_b=mean_b,
    )


# -- CSV emission -----------------------------------------------------------

# each window file: the WindowRow columns written after time
_WINDOW_FILES = {
    "provisioning.csv": ("ready_vms", "ideal_vms"),
    "penalties.csv": ("submitted", "successes", "failures", "penalty"),
    "debt.csv": ("debt",),
    "utility.csv": ("window_utility", "cumulative_utility"),
}
_QTABLE_HEADER = ["queued_level", "billing_idle_level", "action", "q", "visits"]


def _cell(f, value) -> str:
    """A field's value as written to the CSVs: floats to the field's
    ``decimals`` (six unless it says otherwise), anything else by str."""
    if f.type == "float":
        return f"{value:.{f.metadata.get('decimals', 6)}f}"
    return str(value)


def emit_csv(report: ExperimentReport, out_dir: str) -> list[str]:
    """Write the report's CSV files into ``out_dir`` (created if missing).

    Emits provisioning.csv, penalties.csv, debt.csv, utility.csv,
    summary.csv and, for learning runs, qtable.csv.  Times and horizons get
    three decimals, Q values full precision, other floats six; lines end in LF.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def write(name: str, header: list[str], rows) -> None:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    def table(name: str, columns, records) -> None:
        rows = ([_cell(f, getattr(r, f.name)) for f in columns] for r in records)
        write(name, [f.name for f in columns], rows)

    window = {f.name: f for f in fields(WindowRow)}
    for name, names in _WINDOW_FILES.items():
        table(name, [window[n] for n in ("time", *names)], report.rows)
    if report.qtable_rows is not None:
        # full precision so a warm start restores the table exactly
        write(
            "qtable.csv",
            _QTABLE_HEADER,
            [[q, i, a, repr(v), str(n)] for q, i, a, v, n in report.qtable_rows],
        )
    table("summary.csv", fields(ReportTotals), [report.totals])
    return written


def _read_csv(path: str, kind: str, header: list[str], bad: str) -> list[tuple[int, list[str]]]:
    """The data rows of a CSV whose first row must be ``header`` (else the
    ConfigError ``bad``), each with its line number; a file that cannot be
    read or decoded is a ConfigError naming ``kind``, and one the csv module
    rejects names the line."""
    try:
        with open(path, encoding=READ_ENCODING, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise ConfigError(f"{path}: {bad}")
            return [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc


def load_qtable(path: str) -> QTable:
    """Warm-start Q table from a previously emitted qtable.csv.

    Every row names known levels and a known action, and each (state,
    action) pair appears once; a bad row is reported with its line.
    """
    table = QTable()
    seen: dict[tuple[StateKey, Action], int] = {}
    for line, row in _read_csv(path, "qtable", _QTABLE_HEADER, "not a qtable csv"):
        try:
            queued, idle, action, q, visits = row
            key = (StateKey(Level(queued), Level(idle)), Action(action))  # unknown names raise
            q, visits = float(q), int(visits)
            if not math.isfinite(q) or visits < 0:
                raise ValueError("q must be finite and visits non-negative")
        except ValueError as exc:
            raise ConfigError(f"{path}:{line}: bad qtable row: {exc}") from exc
        if key in seen:
            raise ConfigError(
                f"{path}:{line}: bad qtable row: ({queued}, {idle}) {action}"
                f" repeats line {seen[key]}"
            )
        seen[key] = line
        table.values[key] = q
        table.visits[key] = visits
    return table


def load_summary(out_dir: str) -> ReportTotals:
    """Rehydrate the totals of a previously emitted run directory.

    The file holds the header and exactly one data row, whose numbers are
    finite, and blank lines; anything else is reported with its line.
    """
    path = os.path.join(out_dir, "summary.csv")
    columns = fields(ReportTotals)
    rows = _read_csv(path, "summary", [f.name for f in columns], "unexpected summary header")
    rows = [(line, row) for line, row in rows if row]  # blank lines are ignored
    if not rows:
        raise ConfigError(f"{path}: summary has no data row")
    (line, values), *more = rows
    if more:
        raise ConfigError(f"{path}:{more[0][0]}: summary has a second data row")
    if len(values) != len(columns):
        raise ConfigError(f"{path}:{line}: expected {len(columns)} columns, got {len(values)}")
    try:
        totals = ReportTotals(*(FIELD_TYPES[f.type][1](v) for f, v in zip(columns, values)))
        check_fields(totals)
        return totals
    except ValueError as exc:
        raise ConfigError(f"{path}:{line}: bad summary value: {exc}") from exc


def paired_experiment(
    base: ExperimentConfig, seed: int
) -> tuple[ExperimentReport, ExperimentReport]:
    """Run debt-aware and voting on the identical workload for one seed.

    The workload is built once and both runs read the same trace.  A
    ``qtable_in`` warm-starts the debt-aware run only.
    """
    debt_cfg = replace(base, policy="debt-aware", seed=seed)
    vote_cfg = replace(base, policy="voting", seed=seed, qtable_in=None)
    debt_cfg.validate()
    vote_cfg.validate()
    workload = build_workload(debt_cfg)
    return _run_on(debt_cfg, workload), _run_on(vote_cfg, workload)


def default_config(seed: int = 0, horizon: float = 21600.0) -> ExperimentConfig:
    """Convenience config: the bundled 6-hour profile with stock parameters."""
    return ExperimentConfig(profile=default_profile(), seed=seed, horizon=horizon)
