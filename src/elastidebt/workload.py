"""Synthetic request-arrival traces and trace-file parsing.

A trace is two columns of packed doubles, each request's arrival time and
its compute work in millions of instructions (MI).  Traces are produced
either from a piecewise-sinusoidal rate profile (deterministic or Poisson
arrivals) or parsed from a two-column text file.
"""

from __future__ import annotations

import io
import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Hashable, Sequence
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import accumulate, count, islice, repeat
from operator import contains, le
from typing import IO, Callable, Iterable, Iterator, Union

from .policies import FIELD_TYPES, check_fields

DEFAULT_WORK_MI = 2.0

# how every config, profile, trace, qtable and summary file is decoded: as
# UTF-8, where a leading byte-order mark is not part of the text
READ_ENCODING = "utf-8-sig"

# time step used to integrate rate curves and to skip through zero-rate spans
_GRID_DT = 0.05
_ZERO_RATE_SCAN = 1.0

# lines per chunk of serialize_trace's text
_SERIALIZE_CHUNK = 8192
# lines per chunk read by parse_trace; chunks of 1024-4096 lines parse no
# faster and left a higher peak RSS in a 3 h trace-file run
_PARSE_CHUNK = 512
# a comment's first character in a str line, its first byte in a bytes line
_COMMENT = ("#", ord("#"))


class TraceParseError(ValueError):
    """A trace line could not be parsed (wrong arity or non-numeric field)."""


class TraceValidationError(ValueError):
    """A trace line parsed but violates domain constraints."""


class ProfileError(ValueError):
    """A rate profile is malformed."""


@dataclass(slots=True)
class Request:
    """One request of a trace, built on access by ``WorkloadTrace.requests``.

    ``id`` is its index in the trace; changing a field changes nothing in
    the trace.
    """

    id: int
    arrival_time: float
    work: float


class RequestView:
    """Read-only view of a trace's columns as ``Request`` items: its length,
    and iteration in trace order.  Each item is built when it is read, so
    the view costs nothing until iterated."""

    __slots__ = ("_arrivals", "_work")

    def __init__(self, arrivals: Sequence[float], work: Sequence[float]):
        self._arrivals = arrivals
        self._work = work

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[Request]:
        return map(Request, count(), self._arrivals, self._work)


@dataclass(frozen=True)
class WorkloadTrace:
    """A trace as columns: request i arrives at ``arrivals[i]`` with
    ``work[i]`` MI.  Arrivals are non-decreasing.

    Each column is an ``array('d')``, 8 bytes a value.  Any other sequence
    of numbers is converted; a ``'d'`` array is kept as it is, not copied,
    so traces built from another's columns share them.
    """

    arrivals: array[float]
    work: array[float]

    def __post_init__(self) -> None:
        for name in ("arrivals", "work"):
            column = getattr(self, name)
            if not (isinstance(column, array) and column.typecode == "d"):
                # through iter(), so bytes are numbers, not raw doubles
                object.__setattr__(self, name, array("d", iter(column)))
        if len(self.arrivals) != len(self.work):
            raise ValueError(
                f"{len(self.arrivals)} arrival times but {len(self.work)} work values"
            )

    def __len__(self) -> int:
        return len(self.arrivals)

    @cached_property
    def requests(self) -> RequestView:
        """The trace as a read-only view of ``Request`` items."""
        return RequestView(self.arrivals, self.work)


def first_out_of_order(arrivals: Sequence[float]) -> int | None:
    """Index of the first arrival earlier than the one before it (or not
    comparable with it), or None when the column is sorted.  The scan that
    passes runs in C; only a failing one looks for the index."""
    if all(map(le, arrivals, islice(arrivals, 1, None))):
        return None
    return next(i for i in range(1, len(arrivals)) if not arrivals[i - 1] <= arrivals[i])


@dataclass(frozen=True)
class Segment:
    """One contiguous span of the rate curve.

    Instantaneous rate at absolute time t is
    ``max(0, base_rate + amplitude * sin(2*pi*t / period))``.
    """

    start: float
    end: float
    base_rate: float
    amplitude: float = 0.0
    period: float = 3600.0

    def rate(self, t: float) -> float:
        """The rate this segment's curve gives at absolute time t."""
        rate = self.base_rate + self.amplitude * math.sin(math.tau * t / self.period)
        return rate if rate > 0.0 else 0.0


@dataclass
class RateProfile:
    """Piecewise rate curve driving trace generation."""

    segments: list[Segment]
    arrival_mode: str = "poisson"  # "deterministic" or "poisson"
    work_mi: float = DEFAULT_WORK_MI

    def rate_at(self, t: float) -> float:
        """The instantaneous rate at absolute time t.

        The first listed segment with ``start <= t < end`` gives the rate,
        and the last segment also holds t equal to its end.  A t that no
        segment holds has rate 0.
        """
        seg, _ = self._span_at(t)
        return 0.0 if seg is None else seg.rate(t)

    def _span_at(self, t: float) -> tuple[Segment | None, float]:
        """The segment ``rate_at(t)`` reads (None for none) and the time up
        to which it keeps reading it: the same segment holds every t' with
        ``t <= t' < until``, and only t itself when ``until == t``.

        ``validate`` lets neighbours overlap or leave a gap within
        ``math.isclose``, so the span also ends where an earlier-listed
        segment starts.  ``(None, inf)``: t is past every segment, and no
        later time has a positive rate.
        """
        until = math.inf
        last = self.segments[-1]
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg, min(until, seg.end)
            if t == seg.end and seg is last:
                return seg, t
            if t < seg.start:
                until = min(until, seg.start)
        return None, until

    def validate(self) -> None:
        """Type each field and each segment's by ``check_fields``; check the domain."""
        check_fields(self, ProfileError)
        if not self.segments:
            raise ProfileError("profile has no segments")
        if self.arrival_mode not in ("deterministic", "poisson"):
            raise ProfileError(f"arrival_mode must be deterministic or poisson, got {self.arrival_mode!r}")
        if not self.work_mi > 0.0:
            raise ProfileError(f"work_mi must be positive, got {self.work_mi}")
        prev_end = None
        for i, seg in enumerate(self.segments):
            if not isinstance(seg, Segment):
                raise ProfileError(f"segments[{i}] must be Segment, got {seg!r}")
            try:
                check_fields(seg, ProfileError)
            except ProfileError as exc:
                raise ProfileError(f"segment {i} {exc}") from None
            if not seg.start < seg.end:
                raise ProfileError(f"segment {i} [{seg.start}, {seg.end}] is empty or reversed")
            for name in ("base_rate", "amplitude"):
                value = getattr(seg, name)
                if not value >= 0.0:
                    raise ProfileError(f"segment {i} {name} must be >= 0, got {value}")
            if not seg.period > 0.0:
                raise ProfileError(f"segment {i} period must be > 0, got {seg.period}")
            if prev_end is not None and not math.isclose(seg.start, prev_end):
                raise ProfileError(f"segments not contiguous at t={prev_end}")
            prev_end = seg.end


def default_profile() -> RateProfile:
    """Six-hour diurnal sinusoid with a mid-run surge.

    An approximation of a smoothed day-shaped arrival curve: load rises
    through the first 2.5 h, jumps to a surge plateau, then falls through a
    trough before recovering.  Rates span roughly 8-48 req/s with a mean
    near 22 req/s.
    """
    period = 21600.0
    return RateProfile(
        segments=[
            Segment(0.0, 9000.0, base_rate=20.0, amplitude=12.0, period=period),
            Segment(9000.0, 12600.0, base_rate=36.0, amplitude=12.0, period=period),
            Segment(12600.0, 21600.0, base_rate=20.0, amplitude=12.0, period=period),
        ],
        arrival_mode="poisson",
        work_mi=DEFAULT_WORK_MI,
    )


def generate_trace(profile: RateProfile, duration: float, seed: int) -> WorkloadTrace:
    """Generate a synthetic trace from a rate profile.

    Deterministic mode places arrivals where the cumulative intensity
    crosses each integer, which for a constant rate r means a fixed spacing
    of 1/r.  Poisson mode draws exponential inter-arrival gaps from the
    instantaneous rate.  Identical (profile, duration, seed) inputs yield
    identical traces.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    profile.validate()

    if profile.arrival_mode == "deterministic":
        times = _deterministic_arrivals(profile, duration)
    else:
        times = _poisson_arrivals(profile, duration, seed)

    return WorkloadTrace(times, array("d", [profile.work_mi]) * len(times))


def _deterministic_arrivals(profile: RateProfile, duration: float) -> array[float]:
    last = int(math.ceil(duration / _GRID_DT))
    step = duration / last
    # every rate past the profile's end is 0 and cum is flat there, so the grid
    # stops at the first point past the end, the last whose trapezoid adds area
    end = max(seg.end for seg in profile.segments)
    first = int(max(0.0, min(end, duration)) / step)  # no point before it is past end
    top = next((i for i in range(first, last) if i * step > end), last)
    grid = [i * step for i in range(top)]
    grid.append(float(duration) if top == last else top * step)
    # the grid ascends, so each segment's span is read once, as a slice
    rates: list[float] = []
    i = 0
    while i <= top:
        seg, until = profile._span_at(grid[i])
        j = max(i + 1, bisect_left(grid, until, i))
        rates += [0.0] * (j - i) if seg is None else map(seg.rate, grid[i:j])
        i = j
    # trapezoidal cumulative intensity; exact for piecewise-constant rates
    areas = (
        (r1 + r0) * 0.5 * (t1 - t0) for r0, r1, t0, t1 in zip(rates, rates[1:], grid, grid[1:])
    )
    cum = list(accumulate(areas, initial=0.0))
    # arrival k is where cum crosses k, interpolated between the last grid
    # point j with cum[j] <= k and the next (an exact hit gives grid[j]); a
    # flat (zero-rate) span resolves to its last point, the tail past the
    # grid to the duration.  The targets ascend, so one walk finds every j.
    times = array("d")
    j = 0
    for k in map(float, range(1, int(math.floor(cum[-1] + 1e-9)) + 1)):
        while j < top and cum[j + 1] <= k:
            j += 1
        if j == top:
            t = float(duration)
        else:
            t = (grid[j + 1] - grid[j]) / (cum[j + 1] - cum[j]) * (k - cum[j]) + grid[j]
        if t <= duration:
            times.append(t)
    return times


def _poisson_arrivals(profile: RateProfile, duration: float, seed: int) -> array[float]:
    # Segment.rate and Random.expovariate written out, the same operations in
    # the same order, so each arrival keeps its bits
    rand = random.Random(seed).random
    log, sin, tau = math.log, math.sin, math.tau
    times = array("d")
    add = times.append
    t = 0.0
    while t <= duration:
        seg, until = profile._span_at(t)
        if seg is None and until == math.inf:
            break  # past every segment: no later rate is positive
        if seg is None:
            base, amp, period = 0.0, 0.0, 1.0
        else:
            base, amp, period = seg.base_rate, seg.amplitude, seg.period
        end = min(until, duration)
        # the rate at t is read at least once: a span may hold t alone
        while True:
            r = base + amp * sin(tau * t / period)
            if r > 0.0:
                t += -log(1.0 - rand()) / r
                if t <= duration:
                    add(t)
            else:
                t += _ZERO_RATE_SCAN
            if not t < end:
                break
    return times


def parse_trace(source: Union[str, IO[str], Iterable[str]]) -> WorkloadTrace:
    """Parse a two-column trace: ``arrival_time_s work_mi`` per line.

    Lines starting with ``#`` and blank lines are skipped.  Out-of-order
    lines are sorted by arrival time; lines with equal arrival times keep
    their order in the file.  Accepts a string, an open file, or any
    iterable of lines.  A string is split into lines as a file opened in
    text mode is, at LF, CRLF or CR only.

    Lines are read ``_PARSE_CHUNK`` at a time.  A chunk whose every line
    holds exactly one space and two valid fields is parsed in C by
    ``_parse_single_spaced``; any other chunk, such as one with a comment,
    a blank line, a tab separator or a bad line, is parsed line by line,
    which also reports the first bad line with its number.
    """
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)

    arrivals = array("d")
    work = array("d")
    lineno = 1
    while True:
        chunk: list = []
        try:
            chunk.extend(islice(lines, _PARSE_CHUNK))
        except (OSError, ValueError):
            # a bad line read before the source failed (a decode error, say)
            # is reported first, as it is when lines are read one at a time
            _parse_lines(chunk, lineno, arrivals, work)
            raise
        if not chunk:
            break
        if not _parse_single_spaced(chunk, arrivals, work):
            _parse_lines(chunk, lineno, arrivals, work)
        lineno += len(chunk)

    if first_out_of_order(arrivals) is not None:
        # a stable sort: equal arrivals keep file order
        order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
        arrivals = array("d", map(arrivals.__getitem__, order))
        work = array("d", map(work.__getitem__, order))
    return WorkloadTrace(arrivals, work)


def _parse_single_spaced(chunk: list, arrivals: array[float], work: array[float]) -> bool:
    """Append a chunk of lines to the columns in C passes, when every line
    holds exactly one space and ``_parse_lines`` would accept each with the
    same two values; else append nothing and return False.

    The chunk is joined and split on ``" "``.  Every line holding a space
    and 2n fields from n lines mean one space per line, so the fields pair
    up by line.  ``float`` accepts a field only if it is a numeral with
    whitespace around it and none inside, and strips the whitespace that
    ``str.split()`` splits on, so each line has the two fields a line-wise
    split finds.  A finite sum has no NaN or infinity among its terms, so
    ``min`` then checks every value's range.
    """
    try:
        fields = " ".join(chunk).split(" ")  # TypeError: a line that is not str
        if len(fields) != 2 * len(chunk) or not all(map(contains, chunk, repeat(" "))):
            return False
        new_arrivals = list(map(float, fields[0::2]))
        new_work = list(map(float, fields[1::2]))
    except (TypeError, ValueError):
        return False
    if not (
        math.isfinite(sum(new_arrivals))
        and math.isfinite(sum(new_work))
        and min(new_arrivals) >= 0.0
        and min(new_work) > 0.0
    ):
        return False
    arrivals.fromlist(new_arrivals)
    work.fromlist(new_work)
    return True


def _parse_lines(
    lines: Iterable, first_lineno: int, arrivals: array[float], work: array[float]
) -> None:
    """Append lines to the columns one at a time, numbering them from
    ``first_lineno``; the first bad line raises with its number."""
    add_arrival, add_work = arrivals.append, work.append
    inf = math.inf
    for lineno, raw in enumerate(lines, start=first_lineno):
        # split() drops the same whitespace strip() does, so a line is blank
        # or a comment exactly when it has no fields or its first starts with #
        fields = raw.split()
        if not fields or fields[0][0] in _COMMENT:
            continue
        if len(fields) != 2:
            raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            arrival = float(fields[0])
            w = float(fields[1])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric field in {raw.strip()!r}") from None
        # NaN fails both range checks
        if not 0.0 <= arrival < inf:
            raise TraceValidationError(
                f"line {lineno}: arrival time must be non-negative and finite, got {arrival}"
            )
        if not 0.0 < w < inf:
            raise TraceValidationError(
                f"line {lineno}: work must be positive and finite, got {w}"
            )
        add_arrival(arrival)
        add_work(w)


def serialize_trace(trace: WorkloadTrace) -> str:
    """Inverse of :func:`parse_trace`: one ``arrival work`` line per request.

    Lines are joined ``_SERIALIZE_CHUNK`` at a time and the chunks once, so
    the text is built with one chunk's line objects alive, not one per line.
    """
    arrivals, work = trace.arrivals, trace.work
    chunks = []
    for i in range(0, len(arrivals), _SERIALIZE_CHUNK):
        pairs = zip(arrivals[i : i + _SERIALIZE_CHUNK], work[i : i + _SERIALIZE_CHUNK])
        chunks.append("".join([f"{a!r} {w!r}\n" for a, w in pairs]))
    return "".join(chunks)


def read_key_values(
    path: str, what: str, error: type[ValueError], assign: Callable[[str, str], Hashable]
) -> None:
    """Read a flat ``key = value`` file, passing each entry to ``assign(key,
    value)`` in file order.  Blank lines and ``#`` comments are skipped.

    ``assign`` returns the setting it assigned; two lines that assign one
    setting are a repeat, however their keys are spelled.  A line without
    ``=``, a repeat, a key ``assign`` does not know (it raises ``KeyError``)
    and a value it rejects (``ValueError``) raise ``error`` with the file
    and line; so does a file that cannot be read or decoded.
    """
    seen: dict[Hashable, int] = {}
    try:
        with open(path, encoding=READ_ENCODING) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{path}:{lineno}"
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq:
                    raise error(f"{where}: expected 'key = value'")
                try:
                    setting = assign(key, value.strip())
                except KeyError:
                    raise error(f"{where}: unknown key {key!r}") from None
                except ValueError as exc:
                    raise error(f"{where}: bad value for {key!r}: {exc}") from exc
                if setting in seen:
                    raise error(f"{where}: {key!r} repeats line {seen[setting]}")
                seen[setting] = lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_profile(path: str) -> RateProfile:
    """Read a rate profile from a flat key-value file.

    Recognised keys: ``arrival_mode``, ``work_mi`` and per-segment
    ``segment.<n>.start|end|base_rate|amplitude|period``, each parsed by its
    field's FIELD_TYPES entry.  Segments are ordered by their index.
    """
    top = {f.name: FIELD_TYPES[f.type][1] for f in fields(RateProfile) if f.type in FIELD_TYPES}
    per_segment = {f.name: FIELD_TYPES[f.type][1] for f in fields(Segment)}
    settings: dict = {}
    seg_fields: dict[int, dict[str, float]] = {}

    def assign(key: str, value: str) -> Hashable:
        if key in top:
            settings[key] = top[key](value)
            return key
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "segment" or parts[2] not in per_segment:
            raise KeyError(key)
        # segment.1 and segment.01 name one segment
        index = int(parts[1])
        seg_fields.setdefault(index, {})[parts[2]] = per_segment[parts[2]](value)
        return index, parts[2]

    read_key_values(path, "profile", ProfileError, assign)

    segments = []
    for idx in sorted(seg_fields):
        given = seg_fields[idx]
        for f in fields(Segment):
            if f.default is MISSING and f.name not in given:
                raise ProfileError(f"{path}: segment {idx} missing {f.name!r}")
        segments.append(Segment(**given))

    profile = RateProfile(segments=segments, **settings)
    profile.validate()
    return profile
