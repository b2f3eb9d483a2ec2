import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import FixedPolicy, reference_parse, reference_poisson_arrivals, reference_rate_at
import elastidebt
from elastidebt import workload
from elastidebt.policies import DebtAwarePolicy
from elastidebt.sim import SimConfig, Simulation
from elastidebt.workload import (
    DEFAULT_WORK_MI,
    ProfileError,
    RateProfile,
    Request,
    Segment,
    TraceParseError,
    TraceValidationError,
    WorkloadTrace,
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
    assert list(trace.requests) == []


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


def reference_deterministic_arrivals(profile, duration):
    """The numpy formulation of deterministic arrivals: a linspace grid,
    the trapezoidal cumulative intensity and np.interp at 1..n."""
    n_points = int(math.ceil(duration / workload._GRID_DT)) + 1
    grid = np.linspace(0.0, duration, n_points)
    rates = np.array([reference_rate_at(profile, float(t)) for t in grid])
    cum = np.concatenate(([0.0], np.cumsum((rates[1:] + rates[:-1]) * 0.5 * np.diff(grid))))
    n = int(math.floor(cum[-1] + 1e-9))
    if n == 0:
        return []
    times = np.interp(np.arange(1, n + 1, dtype=float), cum, grid)
    return [float(t) for t in times if t <= duration]


# Grid steps of 3/64 s are exact: a duration of m * 3/64 with m < 16 gets
# m grid intervals.  With rates that are multiples of 1/2 every area is a
# dyadic fraction, so the cumulative intensity can land exactly on an
# integer at a grid point.
EXACT_STEP = 3 / 64


@st.composite
def deterministic_cases(draw):
    rate = st.one_of(
        st.just(0.0),
        st.sampled_from([0.5, 2.0, 20.0, 64.0, 128.0]),
        st.floats(0.0, 50.0),
    )
    length = st.one_of(
        st.floats(0.01, 60.0),
        st.integers(1, 60).map(float),
        st.integers(1, 8).map(lambda m: m * EXACT_STEP),
    )
    segments, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        end = t + draw(length)
        amplitude = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
        segments.append(Segment(t, end, draw(rate), amplitude, draw(st.floats(0.5, 200.0))))
        t = end
    duration = draw(
        st.one_of(
            st.just(t),  # the whole profile
            st.floats(0.01, t),  # shorter than the profile
            st.floats(t, 2.0 * t),  # past its end, where the rate is 0
            st.floats(2.0 * t, 6.0 * t),  # far past it
            st.integers(1, 15).map(lambda m: m * EXACT_STEP),  # an exact grid
        )
    )
    return RateProfile(segments, arrival_mode="deterministic"), duration


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(deterministic_cases())
def test_deterministic_arrivals_match_numpy_reference(case):
    profile, duration = case
    assert workload._deterministic_arrivals(profile, duration).tolist() == (
        reference_deterministic_arrivals(profile, duration)
    )


def test_deterministic_exact_crossings_resolve_like_numpy():
    # rate 128 for 4 grid steps, 0 for 2, then 128 again: cumulative
    # intensity 0, 6, 12, 18, 21, 21, 24, 30, 36.  Arrival 21 falls on the
    # flat span and takes its last point; 6, 12, ... are exact grid hits.
    profile = RateProfile(
        [
            Segment(0.0, 4 * EXACT_STEP, 128.0),
            Segment(4 * EXACT_STEP, 6 * EXACT_STEP, 0.0),
            Segment(6 * EXACT_STEP, 8 * EXACT_STEP, 128.0),
        ],
        arrival_mode="deterministic",
    )
    times = workload._deterministic_arrivals(profile, 8 * EXACT_STEP).tolist()
    assert times == reference_deterministic_arrivals(profile, 8 * EXACT_STEP)
    assert len(times) == 36
    assert times[20] == 5 * EXACT_STEP
    assert [times[k - 1] for k in (6, 12, 18, 24, 30, 36)] == [
        i * EXACT_STEP for i in (1, 2, 3, 6, 7, 8)
    ]
    # the last segment's rate holds at its end, so cum climbs to 39 over the
    # next step and stays there; arrival 39 takes the last point of that
    # flat tail: the duration
    longer = workload._deterministic_arrivals(profile, 12 * EXACT_STEP).tolist()
    assert longer == reference_deterministic_arrivals(profile, 12 * EXACT_STEP)
    assert longer[:36] == times
    assert longer[36:] == [25 / 64, 26 / 64, 12 * EXACT_STEP]


def test_deterministic_default_profile_matches_numpy_reference():
    profile = default_profile()
    profile.arrival_mode = "deterministic"
    times = generate_trace(profile, 21600.0, seed=0).arrivals.tolist()
    assert len(times) == 489599
    assert times == reference_deterministic_arrivals(profile, 21600.0)


@st.composite
def drawn_profiles(draw):
    """Profiles as ``validate`` admits them: neighbours that meet within
    ``math.isclose`` (gaps and overlaps), tiny segments that a neighbour's
    overlap can cover, zero-rate troughs, a first segment that may start
    after 0, and, at times, the last segment object listed twice."""
    t = draw(st.one_of(st.just(0.0), st.integers(1, 40).map(float), st.floats(0.0, 150.0)))
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(
            st.one_of(
                st.floats(0.05, 30.0),
                st.integers(1, 20).map(float),
                # below isclose's tolerance at t
                st.floats(1e-12, 2e-9).map(lambda f: f * max(t, 1.0)),
            )
        )
        end = t + length
        if not t < end:
            reject()
        rate = st.one_of(st.just(0.0), st.sampled_from([2.0, 20.0]), st.floats(0.0, 30.0))
        # an amplitude above the base rate clips troughs to 0
        amplitude = st.one_of(st.just(0.0), st.floats(0.0, 30.0))
        segments.append(Segment(t, end, draw(rate), draw(amplitude), draw(st.floats(1.0, 120.0))))
        shift = draw(st.one_of(st.just(0.0), st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
        t = end + shift * 0.99e-9 * end
    profile = RateProfile(segments)
    try:
        profile.validate()
    except ProfileError:
        reject()
    if draw(st.booleans()):
        twice = RateProfile(segments + [segments[-1]])
        try:
            twice.validate()
            profile = twice
        except ProfileError:
            pass
    return profile


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_profiles(), st.data())
def test_generators_and_rate_at_match_the_segment_scan(profile, data):
    segs = profile.segments
    end = segs[-1].end
    duration = data.draw(
        st.one_of(
            st.floats(0.0, end, exclude_min=True),
            st.just(end),
            st.floats(end, end + 30.0),
            st.floats(end + 30.0, 4.0 * end + 300.0),
        ),
        "duration",
    )
    seed = data.draw(st.integers(0, 2**32), "seed")
    assert workload._poisson_arrivals(profile, duration, seed).tolist() == (
        reference_poisson_arrivals(profile, duration, seed)
    )
    assert workload._deterministic_arrivals(profile, duration).tolist() == (
        reference_deterministic_arrivals(profile, duration)
    )
    edges = [x for seg in segs for x in (seg.start, seg.end)]
    times = edges + [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
    times += data.draw(st.lists(st.floats(0.0, end + 2.0), max_size=20), "times")
    assert [profile.rate_at(t) for t in times] == [reference_rate_at(profile, t) for t in times]
    # a span's segment gives the scan's rate at every probe it covers
    for t in times:
        seg, until = profile._span_at(t)
        covered = [u for u in times if t <= u < until] + [t]
        assert [0.0 if seg is None else seg.rate(u) for u in covered] == [
            reference_rate_at(profile, u) for u in covered
        ]


def test_generation_stops_at_the_profile_end(tmp_path):
    # past its last segment no rate is positive: a billion seconds more
    # adds nothing and costs nothing (the subprocess times out otherwise)
    proc = run_python(
        "from elastidebt.workload import default_profile, generate_trace\n"
        "for seed in (1, 2):\n"
        "    long = generate_trace(default_profile(), 21600.0 + 1e9, seed)\n"
        "    assert long == generate_trace(default_profile(), 21600.0 + 10.0, seed), seed\n",
        tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_deterministic_generation_stops_at_the_profile_end(tmp_path):
    # the grid stops at the profile's end: a billion seconds more costs
    # nothing (the subprocess times out or runs out of its 1 GiB otherwise)
    proc = run_python(
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))\n"
        "from elastidebt.workload import default_profile, generate_trace\n"
        "profile = default_profile()\n"
        "profile.arrival_mode = 'deterministic'\n"
        "times = generate_trace(profile, 21600.0 + 1e9, 0).arrivals\n"
        "assert times == generate_trace(profile, 21600.0 + 1e5, 0).arrivals\n"
        "assert len(times) == 489600 and times[-1] < 21600.001, times[-3:]\n",
        tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_serialize_holds_one_chunk_beside_its_output():
    trace = generate_trace(default_profile(), 3600.0, seed=1)
    tracemalloc.start()
    try:
        text = serialize_trace(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def run_python(code, tmp_path, timeout=None):
    src = os.path.dirname(os.path.dirname(elastidebt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_import_leaves_numpy_unloaded(tmp_path):
    proc = run_python(
        "import sys, elastidebt, elastidebt.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_gen_trace_runs_with_numpy_blocked(tmp_path):
    profile = tmp_path / "det.cfg"
    profile.write_text(
        "arrival_mode = deterministic\n"
        "segment.0.start = 0\nsegment.0.end = 300\nsegment.0.base_rate = 20\n"
        "segment.0.amplitude = 12\nsegment.0.period = 200\n"
        "segment.1.start = 300\nsegment.1.end = 400\nsegment.1.base_rate = 0\n"
        "segment.2.start = 400\nsegment.2.end = 900\nsegment.2.base_rate = 7.5\n"
    )
    proc = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from elastidebt.cli import main\n"
        "sys.exit(main(['gen-trace', '--profile', 'det.cfg', '--duration', '850.5',"
        " '--out', 'trace.txt']))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    arrivals = reference_deterministic_arrivals(load_profile(str(profile)), 850.5)
    expected = serialize_trace(WorkloadTrace(arrivals, [DEFAULT_WORK_MI] * len(arrivals)))
    header = "# generated from det.cfg seed=0 duration=850.5\n"
    assert (tmp_path / "trace.txt").read_text() == header + expected


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
    assert list(trace.requests) == []


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
    # work moves with its arrival
    assert trace.arrivals.tolist() == [1.0, 2.0, 3.0]
    assert trace.work.tolist() == [2.0, 3.0, 1.0]


def test_parse_keeps_file_order_of_equal_arrivals():
    # in order: nothing moves
    trace = parse_trace("1.0 5\n1.0 3\n1.0 4\n2.0 1\n")
    assert trace.arrivals.tolist() == [1.0, 1.0, 1.0, 2.0]
    assert trace.work.tolist() == [5.0, 3.0, 4.0, 1.0]
    # out of order: the sort is stable, so ties keep their file order
    trace = parse_trace("2.0 1\n1.0 5\n0.5 9\n1.0 3\n2.0 2\n1.0 4\n")
    assert trace.arrivals.tolist() == [0.5, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert trace.work.tolist() == [9.0, 5.0, 3.0, 4.0, 1.0, 2.0]


def test_parse_skips_comments_blanks_and_whitespace():
    text = (
        "# header line\r\n"
        "\r\n"
        "   \t \n"
        "  0.5\t2  \r\n"
        "\t# indented comment 1 2\n"
        "#1.0 2\n"
        "1.5    4\n"
        "\n"
    )
    trace = parse_trace(text)
    assert trace.arrivals.tolist() == [0.5, 1.5]
    assert trace.work.tolist() == [2.0, 4.0]
    # a file object yields lines with their endings
    assert parse_trace(io.StringIO(text)) == trace
    assert parse_trace(text.splitlines(keepends=True)) == trace


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("1.0", TraceParseError, "expected 2 fields, got 1"),
        ("1.0 2 3", TraceParseError, "expected 2 fields, got 3"),
        ("1.0 two", TraceParseError, "non-numeric field in '1.0 two'"),
        ("x 2", TraceParseError, "non-numeric field in 'x 2'"),
        ("nan 2", TraceValidationError, "arrival time must be non-negative and finite, got nan"),
        ("inf 2", TraceValidationError, "arrival time must be non-negative and finite, got inf"),
        ("-0.5 2", TraceValidationError, "arrival time must be non-negative and finite, got -0.5"),
        ("1.0 nan", TraceValidationError, "work must be positive and finite, got nan"),
        ("1.0 inf", TraceValidationError, "work must be positive and finite, got inf"),
        ("1.0 0", TraceValidationError, "work must be positive and finite, got 0.0"),
        ("1.0 -2", TraceValidationError, "work must be positive and finite, got -2.0"),
    ],
)
def test_parse_errors_keep_their_line_number(bad, error, message):
    # comments and blank lines count towards the line number
    text = f"# trace\r\n0.5 2\r\n\r\n  {bad}  \r\n3.0 2\r\n"
    with pytest.raises(error) as info:
        parse_trace(text)
    assert str(info.value) == f"line 4: {message}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
            st.floats(0.0, 1e9, exclude_min=True, allow_nan=False, allow_infinity=False),
        ),
        max_size=50,
    )
)
def test_serialize_parse_round_trips_random_columns(pairs):
    pairs.sort(key=lambda p: p[0])  # stable: equal arrivals keep their work order
    arrivals = [a for a, _ in pairs]
    trace = WorkloadTrace([a for a, _ in pairs], [w for _, w in pairs])
    assert parse_trace(serialize_trace(trace)) == trace


def test_requests_view_builds_items_from_the_columns():
    trace = WorkloadTrace([0.5, 1.0, 1.0], [2.0, 3.0, 4.0])
    view = trace.requests
    assert len(view) == len(trace) == 3
    assert list(view) == [Request(0, 0.5, 2.0), Request(1, 1.0, 3.0), Request(2, 1.0, 4.0)]
    # one view per trace, and it cannot change the trace
    assert trace.requests is view
    assert not hasattr(view, "append") and not hasattr(view, "reverse")
    next(iter(view)).work = 99.0
    assert trace.work.tolist() == [2.0, 3.0, 4.0]


def _is_packed(trace):
    return type(trace.arrivals) is array and type(trace.work) is array and (
        trace.arrivals.typecode == trace.work.typecode == "d"
    )


def test_every_path_gives_packed_double_columns(monkeypatch):
    profile = default_profile()
    for mode in ("poisson", "deterministic"):
        profile.arrival_mode = mode
        assert _is_packed(generate_trace(profile, 60.0, seed=1)), mode
    assert _is_packed(generate_trace(constant_profile(0.0), 10.0, seed=1))
    monkeypatch.setattr(workload, "_PARSE_CHUNK", 2)
    for name, text in [
        ("chunk", "0.5 2\n1.0 3\n"),
        ("lines", "# header\n0.5\t2\n"),
        ("sort", "1.0 3\n0.5 2\n"),
        ("empty", ""),
    ]:
        assert _is_packed(parse_trace(text)), name
    assert _is_packed(parse_trace([b"0.5 2\n", b"1.0 3\n"]))
    # any sequence of numbers is converted, ints and other typecodes too
    trace = WorkloadTrace([0, 1.5], (2, 3.0))
    assert _is_packed(trace) and trace.arrivals.tolist() == [0.0, 1.5]
    assert type(trace.arrivals[0]) is float and trace.work.tolist() == [2.0, 3.0]
    assert _is_packed(WorkloadTrace(array("f", [0.5]), array("i", [2])))
    assert WorkloadTrace(bytes(2), b"\x02\x03").work.tolist() == [2.0, 3.0]
    # a 'd' array is kept as it is, so traces built from one share it
    arrivals, work = array("d", [0.5, 1.0]), array("d", [2.0, 2.0])
    trace = WorkloadTrace(arrivals, work)
    assert trace.arrivals is arrivals and trace.work is work
    again = WorkloadTrace(trace.arrivals, trace.work)
    assert again.arrivals is arrivals and again == trace


def _held_bytes(make):
    """The object ``make()`` returns and the bytes still traced once it has."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_trace_columns_hold_under_20_bytes_per_request(tmp_path):
    # two packed doubles a request and the arrays' spare capacity; boxed
    # floats in lists held about 41 B generated and 64 B parsed
    trace, held = _held_bytes(lambda: generate_trace(default_profile(), 3600.0, seed=1))
    assert len(trace) > 50000
    assert held / len(trace) <= 20.0
    path = tmp_path / "trace.txt"
    path.write_text(serialize_trace(trace), encoding="utf-8")

    def parse_file():
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh)

    parsed, held = _held_bytes(parse_file)
    assert parsed == trace
    assert held / len(parsed) <= 20.0


def test_trace_columns_must_match_in_length():
    with pytest.raises(ValueError, match="2 arrival times but 1 work values"):
        WorkloadTrace([0.0, 1.0], [2.0])


def test_generated_trace_is_columns_of_the_profile_work():
    prof = default_profile()
    trace = generate_trace(prof, 300.0, seed=9)
    assert len(trace.work) == len(trace.arrivals) == len(trace)
    assert set(trace.work) == {prof.work_mi}
    assert all(type(t) is float for t in trace.arrivals)


def test_no_request_objects_in_generation_parsing_or_simulation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Request was built")

    monkeypatch.setattr(workload, "Request", forbidden)
    trace = generate_trace(default_profile(), 900.0, seed=4)
    back = parse_trace(serialize_trace(trace))
    assert (back.arrivals, back.work) == (trace.arrivals, trace.work)
    cfg = SimConfig(decision_interval=60.0, cool_down=60.0)
    for policy in (DebtAwarePolicy(seed=1), FixedPolicy()):
        result = Simulation(cfg).run(trace, policy, 900.0)
        assert result.records and len(result.requests) == len(trace)
    with pytest.raises(AssertionError, match="a Request was built"):
        next(iter(trace.requests))


def test_parse_accepts_crlf_and_comments():
    trace = parse_trace("# comment\r\n0.5 2\r\n\r\n1.5 4\r\n")
    assert [r.arrival_time for r in trace.requests] == [0.5, 1.5]
    assert [r.work for r in trace.requests] == [2.0, 4.0]


@pytest.mark.parametrize(
    "sep", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_parse_splits_a_string_as_a_file(sep, tmp_path):
    # str.splitlines() also breaks at form feeds, \x85, \u2028 and more; a
    # file opened in text mode breaks only at LF, CRLF and CR
    text = f"# trace\n1 2{sep}3 4\n5 6\n"
    path = tmp_path / "trace.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

    def outcome(source):
        try:
            return parse_trace(source)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    with open(path, encoding="utf-8") as fh:
        from_file = outcome(fh)
    assert outcome(text) == from_file
    if sep in ("\r", "\r\n"):
        assert from_file.arrivals.tolist() == [1.0, 3.0, 5.0]
    else:
        assert from_file == "TraceParseError: line 2: expected 2 fields, got 4"


def test_parse_accepts_file_objects():
    trace = parse_trace(io.StringIO("0.25 1\n"))
    assert len(trace.requests) == 1


def parse_outcome(parse, lines):
    """The columns ``parse`` gives, as hex so -0.0 and 0.0 differ, or the
    type and message of the error it raises."""
    try:
        trace = parse(lines)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return [a.hex() for a in trace.arrivals], [w.hex() for w in trace.work]


# numerals float() rejects, or whose values fail the range checks, and
# 1e308, two of which in one chunk overflow its sum
_ODD_NUMERALS = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "1_0", "x", "#", "1e"]
# one space weighs most, so many chunks are single-spaced throughout
_SEPARATORS = [" "] * 6 + ["\t", "  ", "\x0c", "\x1c", "\u3000"]
_PADS = [""] * 6 + [" ", "\t", "\x0c", "\x1c"]
_ENDS = ["\n"] * 3 + ["\r\n", ""]


@st.composite
def trace_lines(draw):
    """A trace line: two valid fields and one space, one to three padded
    fields, a comment or a blank."""
    kind = draw(st.sampled_from(["canonical"] * 4 + ["fields"] * 4 + ["comment", "blank"]))
    if kind == "canonical":
        arrival, work = draw(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6, exclude_min=True)))
        body = f"{arrival!r} {work!r}"
    elif kind == "comment":
        body = draw(st.sampled_from(["# header", "#1 2", "#", "  # 1 2"]))
    elif kind == "blank":
        body = draw(st.sampled_from(["", " ", "\t", "\x0c"]))
    else:
        numeral = st.one_of(
            st.floats(0.0, 1e6, exclude_min=True).map(repr),
            st.integers(1, 99).map(str),
            st.sampled_from(_ODD_NUMERALS),
        )
        body = draw(numeral)
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
            body += draw(st.sampled_from(_SEPARATORS)) + draw(numeral)
        body = draw(st.sampled_from(_PADS)) + body + draw(st.sampled_from(_PADS))
    return body + draw(st.sampled_from(_ENDS))


@pytest.mark.parametrize("chunk", [1, 2, 3])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(trace_lines(), max_size=8))
def test_parse_matches_the_line_by_line_reference(chunk, lines):
    # chunks of 1-3 lines put single-spaced chunks next to ones that are not
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_PARSE_CHUNK", chunk)
        assert parse_outcome(parse_trace, lines) == parse_outcome(reference_parse, lines)


@pytest.mark.parametrize("chunk", [1, 2, 4096])
def test_parse_accepts_bytes_lines(chunk, monkeypatch):
    monkeypatch.setattr(workload, "_PARSE_CHUNK", chunk)
    lines = [b"0.5 2\n", b"1.0 3\n", "2.0 4\n", b"\n", b"0.25\t1\r\n"]
    trace = parse_trace(lines)
    assert trace.arrivals.tolist() == [0.25, 0.5, 1.0, 2.0]
    assert trace.work.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(TraceParseError, match=r"line 2: non-numeric field in b'x 2'"):
        parse_trace([b"0.5 2\n", b"x 2\n"])


@pytest.mark.parametrize("chunk", [1, 2, 4096])
def test_parse_skips_bytes_comments(chunk, monkeypatch):
    # a bytes line's first field starts with the byte 35, not the str "#"
    monkeypatch.setattr(workload, "_PARSE_CHUNK", chunk)
    trace = parse_trace([b"# c\n", b"1 2\n", b"  #1 2\r\n", b"#\n", b"3 4\n"])
    assert trace.arrivals.tolist() == [1.0, 3.0]
    assert trace.work.tolist() == [2.0, 4.0]
    with pytest.raises(TraceParseError, match=r"line 3: non-numeric field in b'x# 2'"):
        parse_trace([b"# c\n", b"1 2\n", b"x# 2\n"])


def test_parse_reports_a_bad_line_read_before_the_source_fails():
    # the lines a chunk holds when the source raises are parsed first, so
    # a bad line still wins over a failure that comes after it
    def source(*lines):
        yield from lines
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    with pytest.raises(TraceValidationError, match="line 2: arrival time"):
        parse_trace(source("0.5 2\n", "-1 2\n", "1.0 2\n"))
    with pytest.raises(UnicodeDecodeError):
        parse_trace(source("0.5 2\n", "1.0 2\n"))


def test_serialize_parse_round_trip_is_exact():
    prof = default_profile()
    for mode in ("deterministic", "poisson"):
        prof.arrival_mode = mode
        original = generate_trace(prof, 300.0, seed=9)
        assert len(original) > 0
        assert parse_trace(serialize_trace(original)) == original


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("work_mi = 2\n# again\nwork_mi = 3\n", ":3: 'work_mi' repeats line 1"),
        (
            "segment.0.start = 0\nsegment.0.end = 9\nsegment.0.start = 1\n",
            ":3: 'segment.0.start' repeats line 1",
        ),
        ("work_mi = abc\n", ":1: bad value for 'work_mi': could not convert string to float"),
        ("segment.0.start = 0\nsegment.0.amplitud = 3\n", ":2: unknown key 'segment.0.amplitud'"),
        ("segment.x.start = 0\n", ":1: bad value for 'segment.x.start'"),
    ],
)
def test_load_profile_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "p.cfg"
    path.write_text(text)
    with pytest.raises(ProfileError) as info:
        load_profile(str(path))
    assert str(info.value).startswith(f"{path}{message}")


@pytest.mark.parametrize("index", ["01", "+1", " 1", "0_1"])
def test_load_profile_rejects_a_field_spelled_twice(tmp_path, index):
    # int() reads all of these as segment 1
    path = tmp_path / "p.cfg"
    text = "segment.1.start = 0\nsegment.1.end = 9\nsegment.1.base_rate = 5\n"
    path.write_text(f"{text}# again\nsegment.{index}.base_rate = 50\n")
    with pytest.raises(ProfileError) as info:
        load_profile(str(path))
    assert str(info.value) == f"{path}:5: 'segment.{index}.base_rate' repeats line 3"


def test_load_profile_skips_a_byte_order_mark(tmp_path):
    # a leading UTF-8 byte-order mark is not part of the first key
    text = "arrival_mode = poisson\nsegment.0.start = 0\nsegment.0.end = 600\nsegment.0.base_rate = 8\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_profile(str(marked)) == load_profile(str(plain))


def test_load_profile_wraps_unreadable_file(tmp_path):
    path = tmp_path / "missing.cfg"
    with pytest.raises(ProfileError, match=re.escape(f"cannot read profile {path}: ")):
        load_profile(str(path))


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
        (Segment(NAN, 10.0, 1.0), "start"),
        (Segment(0.0, NAN, 1.0), "end"),
        (Segment(-INF, 10.0, 1.0), "start"),
        (Segment(0.0, INF, 1.0), "end"),
    ],
)
def test_profile_rejects_non_finite_segment_fields(segment, field):
    with pytest.raises(ProfileError, match=f"segment 0 .*{field}"):
        RateProfile(segments=[segment]).validate()
    # generation validates before it draws anything
    with pytest.raises(ProfileError, match=field):
        generate_trace(RateProfile(segments=[segment]), 10.0, seed=0)


@pytest.mark.parametrize("value", [True, "5", None])
@pytest.mark.parametrize("name", [f.name for f in fields(Segment)])
def test_profile_rejects_a_badly_typed_segment_field(name, value):
    # the bad field is in the second segment, so the message must name it
    segments = [Segment(0.0, 10.0, 1.0), replace(Segment(10.0, 20.0, 1.0), **{name: value})]
    with pytest.raises(ProfileError, match=f"^segment 1 {name} must be float, got {value!r}$"):
        RateProfile(segments).validate()


@pytest.mark.parametrize("value", [True, "5", None])
@pytest.mark.parametrize("name", ["work_mi", "arrival_mode"])
def test_profile_rejects_a_badly_typed_field(name, value):
    with pytest.raises(ProfileError, match=f"^{name} must be "):
        replace(constant_profile(1.0), **{name: value}).validate()


def test_profile_rejects_a_segment_that_is_not_a_segment():
    with pytest.raises(ProfileError, match=r"^segments\[1\] must be Segment, got 1.0$"):
        RateProfile([Segment(0.0, 10.0, 1.0), 1.0]).validate()


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
