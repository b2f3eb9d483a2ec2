import csv
import math
import os
import sys
from dataclasses import fields, replace

import pytest

from conftest import FixedPolicy, make_trace
from elastidebt.cli import main as cli_main
from elastidebt.experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ReportTotals,
    WindowRow,
    build_workload,
    compare,
    default_config,
    derive_seed,
    emit_csv,
    load_config,
    load_qtable,
    load_summary,
    paired_experiment,
    run_experiment,
)
from elastidebt.policies import LearningParams, VotingParams
from elastidebt.sim import SimConfig, Simulation
from elastidebt.workload import (
    RateProfile,
    Segment,
    TraceParseError,
    TraceValidationError,
    load_profile,
)


def quick_config(seed=0, policy="voting", horizon=1200.0):
    cfg = default_config(seed=seed, horizon=horizon)
    cfg.policy = policy
    return cfg


def zero_rate_config(horizon=3600.0):
    cfg = ExperimentConfig(
        profile=RateProfile(segments=[Segment(0.0, horizon, 0.0)]),
        policy="voting",
        horizon=horizon,
    )
    cfg.sim.initial_vms = 1
    return cfg


def totals_stub(utility, failed=0.0, cost=0.0, debt=0.0, adaptations=1, horizon=21600.0):
    return ReportTotals(
        aggregate_utility=utility,
        revenue=0.0,
        penalty=0.0,
        total_cost=cost,
        total_debt=debt,
        submitted=0,
        successes=0,
        failures=0,
        failed_fraction=failed,
        adaptations=adaptations,
        vms_launched=0,
        horizon=horizon,
        policy="stub",
        seed=0,
    )


# -- seeds ---------------------------------------------------------------------


def test_derived_streams_are_stable_and_independent():
    assert derive_seed(7, "workload") == derive_seed(7, "workload")
    assert derive_seed(7, "workload") != derive_seed(7, "policy")
    assert derive_seed(7, "workload") != derive_seed(8, "workload")


# -- config --------------------------------------------------------------------


def test_config_requires_exactly_one_workload_source():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = default_config()
    cfg.trace_path = "also-a-trace"
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_file_round_trip(tmp_path):
    profile = tmp_path / "p.cfg"
    profile.write_text(
        "arrival_mode = deterministic\nsegment.0.start = 0\nsegment.0.end = 100\n"
        "segment.0.base_rate = 1\n"
    )
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment\nprofile = p.cfg\npolicy = voting\nseed = 5\nhorizon = 900\n"
        "spin_up = 60\ninitial_vms = 2\nepsilon = 0.2\nlower_cpu = 0.3\n"
    )
    cfg = load_config(str(cfg_file))
    cfg.validate()
    assert cfg.policy == "voting"
    assert cfg.seed == 5
    assert cfg.horizon == 900.0
    assert cfg.sim.spin_up == 60.0
    assert cfg.sim.initial_vms == 2
    assert cfg.learning.epsilon == 0.2
    assert cfg.voting.lower_cpu == 0.3
    assert cfg.profile is not None and len(cfg.profile.segments) == 1


# a non-default value for every parameter field
NON_DEFAULT = {
    "spin_up": 90.5,
    "cool_down": 240.0,
    "billing_cycle": 3600.0,
    "decision_interval": 30.0,
    "vm_capacity": 12.5,
    "sla_response_limit": 1.5,
    "price_per_request": 0.002,
    "penalty_per_request": 0.003,
    "vm_cost_per_cycle": 0.05,
    "initial_vms": 3,
    "billing_anchor": "at_ready",
    "sla_mode": "floor",
    "sla_target": 0.9,
    "cycle_proximity": 45.0,
    "alpha_initial": 0.8,
    "alpha_decay_step": 0.5,
    "alpha_min": 0.05,
    "gamma": 0.9,
    "epsilon": 0.25,
    "alpha_decay": "multiplicative",
    "lower_cpu": 0.2,
    "upper_cpu": 0.9,
}


def test_every_parameter_field_loads_with_its_type(tmp_path):
    cfg = default_config()
    sections = {f.name: sec for sec in (cfg.sim, cfg.learning, cfg.voting) for f in fields(sec)}
    assert set(NON_DEFAULT) == set(sections)
    for key, value in NON_DEFAULT.items():
        assert getattr(sections[key], key) != value, key
    cfg_file = tmp_path / "all.cfg"
    lines = [f"{key} = {value}\n" for key, value in NON_DEFAULT.items()]
    cfg_file.write_text("trace = t.trace\n" + "".join(lines))
    loaded = load_config(str(cfg_file))
    loaded.validate()
    for sec in (loaded.sim, loaded.learning, loaded.voting):
        for f in fields(sec):
            value = getattr(sec, f.name)
            assert value == NON_DEFAULT[f.name], f.name
            assert type(value) is type(NON_DEFAULT[f.name]), f.name


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = sorted(
    os.path.join(kind, name)
    for kind in ("configs", "profiles")
    for name in os.listdir(os.path.join(ROOT, kind))
    if name.endswith(".cfg")
)


def test_bundled_files_are_listed():
    assert "configs/experiment-quick.cfg" in BUNDLED and "profiles/default-6h.cfg" in BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_file_loads_and_validates(name):
    path = os.path.join(ROOT, name)
    if name.startswith("configs"):
        load_config(path).validate()
    else:
        load_profile(path).validate()


def test_config_file_errors(tmp_path):
    f = tmp_path / "bad.cfg"
    for key in ("unknown_knob", "work_per_request", "agreement"):
        f.write_text(f"{key} = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(f))
    f.write_text("seed = banana\n")
    with pytest.raises(ConfigError):
        load_config(str(f))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1\nseed = 2\n", ":2: 'seed' repeats line 1"),
        ("spin_up = 10\n\n# later\nspin_up = 20\n", ":4: 'spin_up' repeats line 1"),
        ("seed = 1\nhorizon = soon\n", ":2: bad value for 'horizon'"),
        ("seed = 1\nknob = 3\n", ":2: unknown key 'knob'"),
    ],
)
def test_config_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith(f"{path}{message}")


def test_config_reports_a_bad_profile_with_both_files(tmp_path):
    (tmp_path / "p.cfg").write_text("segment.0.start = 0\nwork_mi = abc\n")
    path = tmp_path / "bad.cfg"
    path.write_text("profile = p.cfg\n")
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith(
        f"{path}:1: bad value for 'profile': {tmp_path / 'p.cfg'}:2: bad value for 'work_mi'"
    )


def test_cli_gen_trace_names_the_bad_profile_line(tmp_path, capsys):
    profile = tmp_path / "profile.cfg"
    profile.write_text("arrival_mode = deterministic\nwork_mi = abc\n")
    rc = cli_main(["gen-trace", "--profile", str(profile), "--out", str(tmp_path / "t.txt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {profile}:2: bad value for 'work_mi': could not convert string to float: 'abc'\n"
    )
    assert not (tmp_path / "t.txt").exists()


def test_invalid_parameters_fail_before_any_simulation():
    cfg = default_config()
    cfg.sim.spin_up = -1.0
    with pytest.raises(ValueError):
        run_experiment(cfg)


SECTIONS = {"sim": SimConfig(), "learning": LearningParams(), "voting": VotingParams()}
FLOAT_FIELDS = [
    (section, f.name)
    for section, params in SECTIONS.items()
    for f in fields(params)
    if isinstance(getattr(params, f.name), float)
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("section,name", FLOAT_FIELDS)
def test_non_finite_parameters_rejected(section, name, value):
    cfg = default_config()
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(ValueError, match=name):
        run_experiment(cfg)


# every time, rate and price of the simulator is positive
POSITIVE_SIM_FIELDS = [name for section, name in FLOAT_FIELDS if section == "sim" and name != "sla_target"]


@pytest.mark.parametrize("value", [0.0, 0])
@pytest.mark.parametrize("name", POSITIVE_SIM_FIELDS)
def test_zero_times_and_prices_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        SimConfig(**{name: value}).validate()


@pytest.mark.parametrize("target", [0.0, 0, -0.5, 1.5])
def test_sla_target_outside_the_unit_interval_rejected(target):
    with pytest.raises(ValueError, match=r"^sla_target must be in \(0, 1\]$"):
        SimConfig(sla_target=target).validate()


def test_sla_target_of_one_accepted():
    SimConfig(sla_target=1.0).validate()


HUGE = "9" * 400


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("key", ["initial_vms", "seed"])
def test_ints_beyond_float_range_are_not_finite(tmp_path, key, sign):
    # such an int loads, as int() takes it, and validation names it rather
    # than overflowing in a float conversion; no fleet is built to see it
    path = tmp_path / "huge.cfg"
    path.write_text(f"trace = t.trace\n{key} = {sign}{HUGE}\n")
    cfg = load_config(str(path))
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {sign}{HUGE}$"):
        cfg.validate()


def test_ints_up_to_float_range_pass_the_finite_check():
    cfg = default_config(seed=int(sys.float_info.max))
    cfg.validate()
    cfg.seed += 1
    with pytest.raises(ConfigError, match="^seed must be finite, got "):
        cfg.validate()


@pytest.mark.parametrize(
    "name,value",
    [
        ("initial_vms", 2.5),
        ("initial_vms", True),
        ("initial_vms", "5"),
        ("spin_up", True),
        ("spin_up", None),
        ("billing_anchor", None),
        ("sla_mode", None),
    ],
)
def test_badly_typed_sim_parameters_rejected(name, value):
    # each field's type is checked before its value, so the error names the
    # field rather than surfacing from inside the simulator
    with pytest.raises(ValueError, match=name):
        Simulation(SimConfig(**{name: value}))


@pytest.mark.parametrize(
    "section,name,value",
    [
        ("learning", "gamma", True),
        ("learning", "epsilon", None),
        ("learning", "alpha_decay_step", "0.1"),
        ("voting", "lower_cpu", None),
        ("voting", "upper_cpu", True),
        ("experiment", "seed", 1.0),
        ("experiment", "seed", None),
        ("experiment", "horizon", True),
        ("experiment", "trace_path", 5),
    ],
)
def test_badly_typed_parameters_rejected(section, name, value):
    # one rule for every parameter section: a seed of 1.0 would otherwise
    # derive other streams than seed 1, and a trace_path of 5 open a file
    # descriptor
    cfg = default_config()
    setattr(cfg if section == "experiment" else getattr(cfg, section), name, value)
    with pytest.raises(ValueError, match=name):
        cfg.validate()


@pytest.mark.parametrize(
    "name,value",
    [
        ("sim", None),
        ("profile", "profiles/default-6h.cfg"),
        ("learning", 3),
        ("voting", "v"),
    ],
)
def test_badly_typed_sections_rejected(name, value):
    # a section of the wrong type is named before any section validates
    # itself: the bad spin_up would otherwise fail first, and a profile path
    # given as a string would pass and fail only once the run starts
    kwargs = {"sim": SimConfig(spin_up=-1.0), "trace_path": "x", name: value}
    if name == "profile":
        kwargs["trace_path"] = None
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ExperimentConfig(**kwargs).validate()


def test_float_parameters_take_ints():
    result = Simulation(SimConfig(spin_up=105, billing_cycle=300)).run(make_trace([]), FixedPolicy(), 600.0)
    assert result.counts.cycles == 10


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_horizon_rejected(value):
    with pytest.raises(ConfigError, match="horizon"):
        run_experiment(default_config(horizon=value))
    with pytest.raises(ValueError, match="horizon"):
        Simulation(SimConfig()).run(make_trace([]), FixedPolicy(), value)


# -- run_experiment --------------------------------------------------------------


def test_zero_rate_workload_costs_only_vm_cycles():
    report = run_experiment(zero_rate_config())
    t = report.totals
    assert t.penalty == 0.0
    assert t.revenue == 0.0
    assert t.aggregate_utility == pytest.approx(-12 * 0.01111)
    assert t.failed_fraction == 0.0


def test_same_config_and_seed_reproduce_identical_reports():
    a = run_experiment(quick_config(seed=3, policy="debt-aware"))
    b = run_experiment(quick_config(seed=3, policy="debt-aware"))
    assert a.rows == b.rows
    assert a.totals == b.totals
    assert a.qtable_rows == b.qtable_rows


def test_paired_policies_share_the_workload(monkeypatch):
    from elastidebt import experiment

    generated = []
    generate = experiment.generate_trace

    def counting(*args):
        generated.append(args)
        return generate(*args)

    monkeypatch.setattr(experiment, "generate_trace", counting)
    da, vo = experiment.paired_experiment(quick_config(), seed=2)
    assert da.totals.submitted == vo.totals.submitted
    assert da.totals.policy == "debt-aware"
    assert vo.totals.policy == "voting"
    # one trace generation, one trace read by both runs
    assert len(generated) == 1
    assert da.result.requests is vo.result.requests
    # the runs provision differently, and neither writes into the trace
    assert [r.ready_vms for r in da.rows] != [r.ready_vms for r in vo.rows]
    assert list(da.result.requests) == list(generate(*generated[0]).requests)


def test_wall_clock_is_recorded():
    report = run_experiment(zero_rate_config(horizon=600.0))
    assert report.wall_clock > 0.0


def test_report_cumulative_matches_totals():
    report = run_experiment(quick_config(seed=4))
    assert report.rows[-1].cumulative_utility == report.totals.aggregate_utility
    assert report.totals.failed_fraction == pytest.approx(
        report.totals.failures / report.totals.submitted
    )


# -- compare ---------------------------------------------------------------------


def test_compare_identical_reports_is_all_zeros():
    a = totals_stub(utility=5.0)
    summary = compare(a, a)
    assert summary.utility_delta == 0.0
    assert summary.utility_delta_pct == 0.0
    assert summary.failed_fraction_delta == 0.0
    assert summary.cost_delta == 0.0


def test_compare_reproduces_headline_percentages():
    a = totals_stub(utility=573.55, failed=0.0286)
    b = totals_stub(utility=552.13, failed=0.0417)
    summary = compare(a, b)
    assert summary.utility_delta == pytest.approx(21.42)
    assert summary.utility_delta_pct == pytest.approx(3.879, abs=1e-3)
    assert round(summary.utility_delta_pct) == 4
    assert summary.failed_fraction_delta == pytest.approx(-0.0131)


def test_compare_rejects_mismatched_horizons():
    a = totals_stub(utility=1.0, horizon=100.0)
    b = totals_stub(utility=1.0, horizon=200.0)
    with pytest.raises(ValueError, match="horizon"):
        compare(a, b)


@pytest.mark.parametrize("ua, expected_pct", [(-1.5, -math.inf), (2.0, math.inf), (0.0, 0.0)])
def test_compare_against_zero_baseline_keeps_the_sign(ua, expected_pct):
    a = totals_stub(utility=ua, debt=-0.6, adaptations=4)
    b = totals_stub(utility=0.0, debt=-0.3, adaptations=0)
    summary = compare(a, b)
    assert summary.utility_delta == ua
    assert summary.utility_delta_pct == expected_pct
    assert summary.mean_debt_a == pytest.approx(-0.15)
    assert summary.mean_debt_b == 0.0  # no adaptations: no mean to take
    sign = "-" if ua < 0 else "+"
    assert f"({sign}{abs(expected_pct):.2f}%)" in summary.lines()[0]


# -- csv emission -----------------------------------------------------------------


def test_emit_csv_headers_only_for_empty_report(tmp_path):
    report = ExperimentReport(rows=[], totals=totals_stub(utility=0.0), wall_clock=0.0)
    emit_csv(report, str(tmp_path))
    assert (tmp_path / "provisioning.csv").read_text() == "time,ready_vms,ideal_vms\n"
    assert (tmp_path / "debt.csv").read_text() == "time,debt\n"
    assert not (tmp_path / "qtable.csv").exists()


def test_emit_csv_single_row_read_back(tmp_path):
    row = WindowRow(
        time=120.0,
        ready_vms=3,
        ideal_vms=2,
        submitted=10,
        successes=9,
        failures=1,
        penalty=0.002,
        debt=-0.01111,
        window_utility=1.25,
        cumulative_utility=1.25,
    )
    report = ExperimentReport(rows=[row], totals=totals_stub(utility=1.25), wall_clock=0.0)
    emit_csv(report, str(tmp_path))
    assert (tmp_path / "provisioning.csv").read_text() == (
        "time,ready_vms,ideal_vms\n120.000,3,2\n"
    )
    assert (tmp_path / "debt.csv").read_text() == "time,debt\n120.000,-0.011110\n"
    assert (tmp_path / "penalties.csv").read_text() == (
        "time,submitted,successes,failures,penalty\n120.000,10,9,1,0.002000\n"
    )
    assert (tmp_path / "utility.csv").read_text() == (
        "time,window_utility,cumulative_utility\n120.000,1.250000,1.250000\n"
    )
    back = load_summary(str(tmp_path))
    assert back.aggregate_utility == 1.25
    assert back.policy == "stub"


def test_penalties_csv_counts_every_failure_under_floor_sla(tmp_path):
    # floor mode penalizes only the failures beyond an allowance; the
    # failures column still counts every failure, as summary.csv does
    cfg = quick_config(seed=3, horizon=1800.0)
    cfg.sim.sla_mode = "floor"
    emit_csv(run_experiment(cfg), str(tmp_path))
    with open(tmp_path / "penalties.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    totals = load_summary(str(tmp_path))
    assert totals.failures > 0
    assert sum(int(r["failures"]) for r in rows) == totals.failures
    assert sum(int(r["successes"]) for r in rows) == totals.successes


def test_emitted_files_are_byte_stable(tmp_path):
    report = run_experiment(quick_config(seed=6, policy="debt-aware", horizon=900.0))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_csv(report, str(dir_a))
    emit_csv(report, str(dir_b))
    for name in os.listdir(dir_a):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert b"\r" not in (dir_a / name).read_bytes()


def test_qtable_csv_round_trips_for_warm_start(tmp_path):
    report = run_experiment(quick_config(seed=1, policy="debt-aware", horizon=900.0))
    emit_csv(report, str(tmp_path))
    table = load_qtable(str(tmp_path / "qtable.csv"))
    assert table.rows() == report.qtable_rows


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("lowish,low,maintain,0.1,1\n", "'lowish' is not a valid Level"),
        ("low,HIGH,maintain,0.1,1\n", "'HIGH' is not a valid Level"),
        ("low,low,scale-up,0.1,1\n", "'scale-up' is not a valid Action"),
    ],
)
def test_load_qtable_rejects_unknown_names_with_line(tmp_path, bad_row, message):
    path = tmp_path / "qtable.csv"
    path.write_text("queued_level,billing_idle_level,action,q,visits\nlow,low,launch,-0.5,2\n" + bad_row)
    with pytest.raises(ConfigError) as info:
        load_qtable(str(path))
    assert str(info.value) == f"{path}:3: bad qtable row: {message}"


def test_load_qtable_rejects_repeated_state_action(tmp_path):
    path = tmp_path / "qtable.csv"
    path.write_text(
        "queued_level,billing_idle_level,action,q,visits\n"
        "low,low,launch,-0.5,2\nlow,high,launch,0.25,1\nlow,low,launch,0.75,3\n"
    )
    with pytest.raises(ConfigError) as info:
        load_qtable(str(path))
    assert str(info.value) == f"{path}:4: bad qtable row: (low, low) launch repeats line 2"


def test_load_qtable_rejects_another_header(tmp_path):
    path = tmp_path / "qtable.csv"
    path.write_text("queued_level,billing_idle_level,action,value,visits\nlow,low,launch,-0.5,2\n")
    with pytest.raises(ConfigError) as info:
        load_qtable(str(path))
    assert str(info.value) == f"{path}: not a qtable csv"


def test_unreadable_run_files_are_config_errors(tmp_path):
    missing = tmp_path / "missing"
    with pytest.raises(ConfigError) as info:
        load_qtable(str(missing / "qtable.csv"))
    assert str(info.value).startswith(f"cannot read qtable {missing / 'qtable.csv'}: ")
    with pytest.raises(ConfigError) as info:
        load_summary(str(missing))
    assert str(info.value).startswith(f"cannot read summary {missing / 'summary.csv'}: ")


# -- cli ---------------------------------------------------------------------------


def write_cli_config(tmp_path, horizon=900.0, extra=""):
    profile = tmp_path / "profile.cfg"
    profile.write_text(
        "arrival_mode = poisson\nsegment.0.start = 0\nsegment.0.end = 21600\n"
        "segment.0.base_rate = 8\n"
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"profile = profile.cfg\npolicy = voting\nhorizon = {horizon}\n{extra}")
    return cfg


def test_cli_run_and_compare(tmp_path, capsys):
    cfg = write_cli_config(tmp_path)
    out_a = tmp_path / "outA"
    out_b = tmp_path / "outB"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main([
        "run", "--config", str(cfg), "--out", str(out_b), "--policy", "debt-aware", "--seed", "9",
    ]) == 0
    capsys.readouterr()
    assert cli_main(["compare", str(out_b), str(out_a)]) == 0
    out = capsys.readouterr().out
    assert "utility delta" in out
    assert "mean debt per adaptation" in out


def test_cli_error_leaves_no_partial_output(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("policy = voting\n")  # no workload source
    out_dir = tmp_path / "never"
    rc = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 1
    assert not out_dir.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_non_finite_parameter(tmp_path, capsys):
    cfg = write_cli_config(tmp_path, extra="decision_interval = nan\n")
    out_dir = tmp_path / "never"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    assert "decision_interval must be finite" in capsys.readouterr().err


# each schedule would hand q_update a rate outside (0, 1] partway through a run
BAD_LEARNING_RATES = [
    ({"alpha_initial": 2.0}, "need 0 < alpha_min <= alpha_initial <= 1"),
    ({"alpha_initial": 0.0, "alpha_min": 0.0}, "need 0 < alpha_min <= alpha_initial <= 1"),
    ({"alpha_min": 0.0}, "need 0 < alpha_min <= alpha_initial <= 1"),
    ({"alpha_decay_step": -0.1}, "linear alpha_decay_step must be in [0, inf]"),
    (
        {"alpha_decay": "multiplicative", "alpha_decay_step": 1.5},
        "multiplicative alpha_decay_step must be in [0, 1.0]",
    ),
]


@pytest.mark.parametrize(
    "overrides,message",
    BAD_LEARNING_RATES,
    ids=["initial-above-one", "initial-zero", "min-zero", "linear-step-negative", "factor-above-one"],
)
def test_learning_rates_outside_the_unit_interval_rejected(tmp_path, capsys, overrides, message):
    cfg = default_config()
    for name, value in overrides.items():
        setattr(cfg.learning, name, value)
    with pytest.raises(ValueError) as info:
        cfg.validate()
    assert message in str(info.value)
    extra = "".join(f"{name} = {value}\n" for name, value in overrides.items())
    path = write_cli_config(tmp_path, extra=extra)
    out_dir = tmp_path / "never"
    rc = cli_main(["run", "--config", str(path), "--out", str(out_dir), "--policy", "debt-aware"])
    assert rc == 1
    assert not out_dir.exists()
    assert message in capsys.readouterr().err


def test_cli_rejects_bad_trace_path(tmp_path, capsys):
    cfg = write_cli_config(tmp_path)
    rc = cli_main([
        "run", "--config", str(cfg), "--trace", str(tmp_path / "nope.trace"),
        "--out", str(tmp_path / "nope_out"),
    ])
    assert rc == 1
    assert not (tmp_path / "nope_out").exists()


@pytest.mark.parametrize(
    "content, message, cause",
    [
        (b"0.5 2\n1.0\n", "{}: line 2: expected 2 fields, got 1", TraceParseError),
        (
            b"0.5 2\n1.0 -2\n",
            "{}: line 2: work must be positive and finite, got -2.0",
            TraceValidationError,
        ),
        (
            b"\xff0.5 2\n",
            "cannot read trace {}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
            UnicodeDecodeError,
        ),
    ],
    ids=["parse", "validation", "decode"],
)
def test_cli_trace_errors_name_the_file(tmp_path, capsys, content, message, cause):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(content)
    cfg = write_cli_config(tmp_path)
    out = tmp_path / "never"
    assert cli_main(["run", "--config", str(cfg), "--trace", str(trace), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message.format(trace)}\n"
    with pytest.raises(ConfigError) as info:
        build_workload(ExperimentConfig(trace_path=str(trace)))
    assert type(info.value.__cause__) is cause


def test_cli_gen_trace_round_trip(tmp_path, capsys):
    from elastidebt.workload import parse_trace

    profile = tmp_path / "profile.cfg"
    profile.write_text(
        "arrival_mode = deterministic\nsegment.0.start = 0\nsegment.0.end = 100\n"
        "segment.0.base_rate = 2\n"
    )
    out = tmp_path / "trace.txt"
    rc = cli_main([
        "gen-trace", "--profile", str(profile), "--seed", "4", "--duration", "10", "--out", str(out),
    ])
    assert rc == 0
    trace = parse_trace(out.read_text())
    assert len(trace.requests) == 20


def test_cli_run_with_trace_and_warm_start(tmp_path):
    cfg = write_cli_config(tmp_path, horizon=600.0)
    warm_src = tmp_path / "warm"
    assert cli_main([
        "run", "--config", str(cfg), "--policy", "debt-aware", "--out", str(warm_src),
    ]) == 0
    trace_file = tmp_path / "t.trace"
    trace_file.write_text("".join(f"{t / 2.0} 2\n" for t in range(1, 1200)))
    out = tmp_path / "warmed"
    rc = cli_main([
        "run", "--config", str(cfg), "--policy", "debt-aware",
        "--trace", str(trace_file), "--qtable-in", str(warm_src / "qtable.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "qtable.csv").exists()


def test_cli_rejects_a_q_table_for_a_voting_run(tmp_path, capsys):
    cfg = write_cli_config(tmp_path, horizon=600.0)
    out = tmp_path / "never"
    rc = cli_main([
        "run", "--config", str(cfg), "--policy", "voting",
        "--qtable-in", str(tmp_path / "no-such-qtable.csv"), "--out", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    assert "qtable_in" in capsys.readouterr().err


def test_warm_started_pair_loads_the_table_on_its_debt_aware_side(tmp_path):
    # a visit count the 600 s run cannot reach by itself marks the loaded row
    qtable = tmp_path / "qtable.csv"
    qtable.write_text(
        "queued_level,billing_idle_level,action,q,visits\nhigh,high,release,-0.5,1000\n"
    )
    cfg = replace(quick_config(horizon=600.0), qtable_in=str(qtable))
    da, vo = paired_experiment(cfg, seed=1)
    visits = {row[:3]: row[4] for row in da.qtable_rows}
    assert visits["high", "high", "release"] >= 1000
    assert vo.totals.policy == "voting" and vo.qtable_rows is None


@pytest.mark.parametrize(
    "bad_row, line",
    [
        ("\n", 3),
        ("low,low,maintain\n", 3),
        ("low,low,maintain,zero,1\n", 3),
        ("low,low,maintain,nan,1\n", 3),
        ("low,low,maintain,-0.5,-1\n", 3),
    ],
)
def test_cli_rejects_malformed_qtable(tmp_path, capsys, bad_row, line):
    cfg = write_cli_config(tmp_path, horizon=600.0)
    qtable = tmp_path / "qtable.csv"
    qtable.write_text(
        "queued_level,billing_idle_level,action,q,visits\nlow,low,launch,-0.5,2\n" + bad_row
    )
    out = tmp_path / "never"
    rc = cli_main([
        "run", "--config", str(cfg), "--policy", "debt-aware", "--qtable-in", str(qtable),
        "--out", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    assert f"{qtable}:{line}: bad qtable row" in capsys.readouterr().err


def emitted_summaries(tmp_path):
    """Two run directories holding only a stub summary.csv, and the second
    one's header and data row."""
    good, bad = tmp_path / "good", tmp_path / "bad"
    for out, utility in ((good, 1.0), (bad, 2.0)):
        emit_csv(ExperimentReport(rows=[], totals=totals_stub(utility), wall_clock=0.0), str(out))
    header, row = (bad / "summary.csv").read_text().splitlines()
    return good, bad, header, row


@pytest.mark.parametrize("cut", [1, 13])
def test_cli_compare_rejects_short_summary_row(tmp_path, capsys, cut):
    good, bad, header, row = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(header + "\n" + ",".join(row.split(",")[:cut]) + "\n")
    assert cli_main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad / 'summary.csv'}:2: expected 14 columns, got {cut}" in err


@pytest.mark.parametrize(
    "gap, line", [pytest.param("", 3, id="adjacent"), pytest.param("\n", 4, id="after-blank-line")]
)
def test_cli_compare_rejects_second_summary_row(tmp_path, capsys, gap, line):
    good, bad, header, row = emitted_summaries(tmp_path)
    other = row.replace("2.000000", "9.000000", 1)
    (bad / "summary.csv").write_text(f"{header}\n{row}\n{gap}{other}\n")
    assert cli_main(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad / 'summary.csv'}:{line}: summary has a second data row" in captured.err


def test_load_summary_ignores_trailing_blank_lines(tmp_path):
    _, bad, header, row = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(f"{header}\n{row}\n\n")
    assert load_summary(str(bad)) == totals_stub(2.0)


def test_load_summary_skips_a_byte_order_mark(tmp_path):
    _, bad, header, row = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(f"\ufeff{header}\n{row}\n", encoding="utf-8")
    assert load_summary(str(bad)) == totals_stub(2.0)


def test_load_qtable_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "qtable.csv"
    text = "queued_level,billing_idle_level,action,q,visits\nlow,low,launch,-0.5,2\n"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert load_qtable(str(path)).rows() == [("low", "low", "launch", -0.5, 2)]


def test_load_config_skips_a_byte_order_mark(tmp_path):
    # at the parent a marked first key read as unknown key '\ufeffprofile'
    plain = write_cli_config(tmp_path)
    marked = tmp_path / "marked.cfg"
    marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_config(str(marked)) == load_config(str(plain))


def test_trace_file_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "marked.trace"
    path.write_text("\ufeff1.0 2.0\n3.5 4.0\n", encoding="utf-8")
    cfg = quick_config(horizon=60.0)
    cfg.trace_path = str(path)
    assert build_workload(cfg) == make_trace([(1.0, 2.0), (3.5, 4.0)])


def test_load_summary_ignores_a_blank_line_before_its_row(tmp_path):
    _, bad, header, row = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(f"{header}\n\n{row}\n\n")
    assert load_summary(str(bad)) == totals_stub(2.0)


@pytest.mark.parametrize("blank", ["", "\n", "\n\n"], ids=["no-blank", "one-blank", "two-blanks"])
def test_load_summary_without_a_data_row(tmp_path, blank):
    _, bad, header, _ = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(f"{header}\n{blank}")
    with pytest.raises(ConfigError) as info:
        load_summary(str(bad))
    assert str(info.value) == f"{bad / 'summary.csv'}: summary has no data row"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda header, row: "", id="empty"),
        pytest.param(lambda header, row: f"{header.replace('seed', 'run')}\n{row}\n", id="renamed"),
        pytest.param(lambda header, row: f"{row}\n", id="no-header"),
    ],
)
def test_load_summary_rejects_another_header(tmp_path, text):
    _, bad, header, row = emitted_summaries(tmp_path)
    (bad / "summary.csv").write_text(text(header, row))
    with pytest.raises(ConfigError) as info:
        load_summary(str(bad))
    assert str(info.value) == f"{bad / 'summary.csv'}: unexpected summary header"


@pytest.mark.parametrize(
    "column, value",
    [("aggregate_utility", "nan"), ("total_cost", "inf"), ("failed_fraction", "-inf")],
)
def test_cli_compare_rejects_non_finite_summary_value(tmp_path, capsys, column, value):
    good, bad, header, row = emitted_summaries(tmp_path)
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    (bad / "summary.csv").write_text(header + "\n" + ",".join(cells) + "\n")
    assert cli_main(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad / 'summary.csv'}:2: bad summary value: {column} must be finite" in captured.err


_UNDECODABLE = (
    "cannot read {kind} {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)
_OVERSIZED = "{path}:2: field larger than field limit ({limit})"


@pytest.mark.parametrize(
    "kind, header, message",
    [
        ("config", None, _UNDECODABLE),
        ("profile", None, _UNDECODABLE),
        ("summary", None, _UNDECODABLE),
        ("qtable", None, _UNDECODABLE),
        ("summary", ",".join(f.name for f in fields(ReportTotals)), _OVERSIZED),
        ("qtable", "queued_level,billing_idle_level,action,q,visits", _OVERSIZED),
    ],
    ids=["config-decode", "profile-decode", "summary-decode", "qtable-decode", "summary-field", "qtable-field"],
)
def test_cli_names_each_file_it_cannot_read(tmp_path, capsys, kind, header, message):
    # a byte that is not UTF-8, or after the header a field longer than the
    # csv module's limit, is an error naming the file, not a traceback
    limit = csv.field_size_limit()
    content = b"\xff\n" if header is None else f"{header}\n{'x' * (limit + 1)}\n".encode()
    cfg = write_cli_config(tmp_path)
    profile, out, run = tmp_path / "profile.cfg", tmp_path / "never", tmp_path / "run"
    run.mkdir()
    qtable = run / "qtable.csv"
    path, argv = {
        "config": (cfg, ["run", "--config", str(cfg), "--out", str(out)]),
        "profile": (profile, ["gen-trace", "--profile", str(profile), "--out", str(out)]),
        "summary": (run / "summary.csv", ["compare", str(run), str(run)]),
        "qtable": (
            qtable,
            ["run", "--config", str(cfg), "--policy", "debt-aware", "--qtable-in", str(qtable), "--out", str(out)],
        ),
    }[kind]
    path.write_bytes(content)
    assert cli_main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message.format(kind=kind, path=path, limit=limit)}\n"


def test_summary_columns_follow_report_totals(tmp_path):
    totals = totals_stub(utility=1.25, failed=0.125, cost=0.5, debt=-0.25, horizon=900.0)
    report = ExperimentReport(rows=[], totals=totals, wall_clock=0.0)
    emit_csv(report, str(tmp_path))
    assert (tmp_path / "summary.csv").read_text() == (
        "policy,seed,horizon,aggregate_utility,revenue,penalty,total_cost,total_debt,"
        "submitted,successes,failures,failed_fraction,adaptations,vms_launched\n"
        "stub,0,900.000,1.250000,0.000000,0.000000,0.500000,-0.250000,0,0,0,0.125000,1,0\n"
    )
    assert load_summary(str(tmp_path)) == report.totals
