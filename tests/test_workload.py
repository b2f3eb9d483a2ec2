import io
import math

import numpy as np
import pytest

from elastidebt.workload import (
    ProfileError,
    RateProfile,
    Segment,
    TraceParseError,
    TraceValidationError,
    default_profile,
    generate_trace,
    load_profile,
    parse_trace,
    serialize_trace,
)


def constant_profile(rate, mode="deterministic", duration=1e9):
    return RateProfile(segments=[Segment(0.0, duration, rate)], arrival_mode=mode)


def test_zero_rate_yields_empty_trace():
    trace = generate_trace(constant_profile(0.0), 100.0, seed=1)
    assert trace.requests == []
    assert trace.duration == 100.0


def test_deterministic_constant_rate_spacing():
    # rate 2/s for 5s: arrivals at every half second, the last exactly at 5.0
    trace = generate_trace(constant_profile(2.0), 5.0, seed=0)
    times = [r.arrival_time for r in trace.requests]
    assert len(times) == 10
    assert times == pytest.approx([0.5 * k for k in range(1, 11)], abs=1e-9)


def test_poisson_count_matches_mean_within_three_sigma():
    # Poisson(lambda*T): mean 36000, sd sqrt(36000)
    trace = generate_trace(constant_profile(10.0, mode="poisson"), 3600.0, seed=123)
    n = len(trace.requests)
    assert abs(n - 36000) < 3 * math.sqrt(36000)


def test_generate_is_pure_function_of_inputs():
    prof = default_profile()
    a = generate_trace(prof, 500.0, seed=42)
    b = generate_trace(prof, 500.0, seed=42)
    assert [r.arrival_time for r in a.requests] == [r.arrival_time for r in b.requests]
    c = generate_trace(prof, 500.0, seed=43)
    assert [r.arrival_time for r in c.requests] != [r.arrival_time for r in a.requests]


def test_deterministic_count_tracks_rate_integral():
    # count must equal floor(integral of rate) within +-1 per segment
    prof = RateProfile(
        segments=[
            Segment(0.0, 400.0, 3.0, amplitude=2.0, period=800.0),
            Segment(400.0, 1000.0, 1.5),
        ],
        arrival_mode="deterministic",
    )
    trace = generate_trace(prof, 1000.0, seed=0)
    grid = np.linspace(0.0, 1000.0, 200001)
    rates = np.array([prof.rate_at(float(t)) for t in grid])
    integral = float(np.trapezoid(rates, grid))
    assert abs(len(trace.requests) - math.floor(integral)) <= 2  # +-1 per segment


def test_generate_rejects_bad_inputs():
    for duration in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            generate_trace(constant_profile(1.0), duration, seed=0)
    with pytest.raises(ProfileError):
        generate_trace(RateProfile(segments=[]), 10.0, seed=0)


def test_arrivals_never_exceed_duration_and_are_sorted():
    prof = default_profile()
    trace = generate_trace(prof, 700.0, seed=5)
    times = [r.arrival_time for r in trace.requests]
    assert times == sorted(times)
    assert all(t <= 700.0 for t in times)


def test_parse_empty_input():
    trace = parse_trace("")
    assert trace.requests == []
    assert trace.duration == 0.0


def test_parse_two_columns():
    trace = parse_trace("0.5 2\n1.0 2\n")
    assert len(trace.requests) == 2
    assert [r.work for r in trace.requests] == [2.0, 2.0]
    assert [r.arrival_time for r in trace.requests] == [0.5, 1.0]


def test_parse_error_names_line_number():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace("0.5 abc")
    with pytest.raises(TraceParseError, match="line 3"):
        parse_trace("# header\n0.5 2\n1.0\n")


def test_parse_validation_errors():
    with pytest.raises(TraceValidationError, match="line 1"):
        parse_trace("-0.5 2\n")
    with pytest.raises(TraceValidationError, match="line 2"):
        parse_trace("0.5 2\n1.0 0\n")


@pytest.mark.parametrize("line", ["nan 2", "inf 2", "-inf 2", "1.0 nan", "1.0 inf", "1.0 -inf"])
def test_parse_rejects_non_finite_fields(line):
    # a NaN arrival would sort into the middle of the trace and slip past
    # every later order check, and a NaN work never settles
    with pytest.raises(TraceValidationError, match="line 2: .* finite"):
        parse_trace(f"0.5 2\n{line}\n3.0 2\n")


def test_parse_sorts_out_of_order_lines():
    trace = parse_trace("3.0 1\n1.0 2\n2.0 3\n")
    assert [r.arrival_time for r in trace.requests] == [1.0, 2.0, 3.0]
    assert [r.id for r in trace.requests] == [0, 1, 2]


def test_parse_accepts_crlf_and_comments():
    trace = parse_trace("# comment\r\n0.5 2\r\n\r\n1.5 4\r\n")
    assert [r.arrival_time for r in trace.requests] == [0.5, 1.5]
    assert trace.requests[1].work == 4.0


def test_parse_accepts_file_objects():
    trace = parse_trace(io.StringIO("0.25 1\n"))
    assert len(trace.requests) == 1


def test_serialize_parse_round_trip_is_exact():
    prof = default_profile()
    original = generate_trace(prof, 300.0, seed=9)
    back = parse_trace(serialize_trace(original))
    assert back.requests == original.requests
    assert back.duration == original.requests[-1].arrival_time


def test_load_profile_matches_builtin_default():
    prof = load_profile("profiles/default-6h.cfg")
    assert prof == default_profile()


def test_load_profile_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("segment.0.start = 0\n")
    with pytest.raises(ProfileError):
        load_profile(str(bad))
    bad.write_text("what even\n")
    with pytest.raises(ProfileError):
        load_profile(str(bad))


def test_profile_validation():
    with pytest.raises(ProfileError):
        RateProfile(segments=[Segment(0, 10, -1.0)]).validate()
    with pytest.raises(ProfileError):
        RateProfile(
            segments=[Segment(0, 10, 1.0), Segment(20, 30, 1.0)]
        ).validate()  # gap between segments
    with pytest.raises(ProfileError):
        RateProfile(segments=[Segment(0, 10, 1.0)], arrival_mode="micro").validate()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "segment, field",
    [
        (Segment(0.0, 10.0, NAN), "base_rate"),
        (Segment(0.0, 10.0, INF), "base_rate"),
        (Segment(0.0, 10.0, 1.0, amplitude=NAN), "amplitude"),
        (Segment(0.0, 10.0, 1.0, amplitude=INF), "amplitude"),
        (Segment(0.0, 10.0, 1.0, period=NAN), "period"),
        (Segment(0.0, 10.0, 1.0, period=INF), "period"),
        (Segment(NAN, 10.0, 1.0), "not finite"),
        (Segment(0.0, NAN, 1.0), "not finite"),
        (Segment(-INF, 10.0, 1.0), "not finite"),
        (Segment(0.0, INF, 1.0), "not finite"),
    ],
)
def test_profile_rejects_non_finite_segment_fields(segment, field):
    with pytest.raises(ProfileError, match=f"segment 0 .*{field}"):
        RateProfile(segments=[segment]).validate()
    # generation validates before it draws anything
    with pytest.raises(ProfileError, match=field):
        generate_trace(RateProfile(segments=[segment]), 10.0, seed=0)


@pytest.mark.parametrize("work_mi", [NAN, INF, 0.0])
def test_profile_rejects_bad_work(work_mi):
    with pytest.raises(ProfileError, match="work_mi"):
        RateProfile(segments=[Segment(0.0, 10.0, 1.0)], work_mi=work_mi).validate()


def test_load_profile_rejects_nan_base_rate(tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("segment.0.start = 0\nsegment.0.end = 10\nsegment.0.base_rate = nan\n")
    with pytest.raises(ProfileError, match="base_rate"):
        load_profile(str(path))


def test_negative_instantaneous_rate_clamps_to_zero():
    # amplitude larger than base: troughs clamp instead of erroring
    prof = RateProfile(segments=[Segment(0.0, 100.0, 1.0, amplitude=5.0, period=40.0)])
    assert prof.rate_at(30.0) == 0.0  # sin < 0 deep in the trough
    trace = generate_trace(prof, 100.0, seed=3)
    assert all(r.arrival_time <= 100.0 for r in trace.requests)
