"""Synthetic request-arrival traces and trace-file parsing.

Traces are sequences of timestamped requests, each carrying an amount of
compute work in millions of instructions (MI).  They are produced either
from a piecewise-sinusoidal rate profile (deterministic or Poisson
arrivals) or parsed from a two-column text file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

DEFAULT_WORK_MI = 2.0

# time step used to integrate rate curves and to skip through zero-rate spans
_GRID_DT = 0.05
_ZERO_RATE_SCAN = 1.0


class TraceParseError(ValueError):
    """A trace line could not be parsed (wrong arity or non-numeric field)."""


class TraceValidationError(ValueError):
    """A trace line parsed but violates domain constraints."""


class ProfileError(ValueError):
    """A rate profile is malformed."""


@dataclass(slots=True)
class Request:
    """One incoming job.

    Simulations only read requests; the schedule FIFO service gives a
    request is kept by the VM it was dispatched to.
    """

    id: int
    arrival_time: float
    work: float


@dataclass
class WorkloadTrace:
    """Requests sorted by non-decreasing arrival time, plus the span they cover."""

    requests: list[Request]
    duration: float

    def __len__(self) -> int:
        return len(self.requests)


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


@dataclass
class RateProfile:
    """Piecewise rate curve driving trace generation."""

    segments: list[Segment]
    arrival_mode: str = "poisson"  # "deterministic" or "poisson"
    work_mi: float = DEFAULT_WORK_MI

    def rate_at(self, t: float) -> float:
        for seg in self.segments:
            if seg.start <= t < seg.end or (t == seg.end and seg is self.segments[-1]):
                raw = seg.base_rate + seg.amplitude * math.sin(2.0 * math.pi * t / seg.period)
                return max(0.0, raw)
        return 0.0

    def validate(self) -> None:
        # range checks are written so that NaN fails them
        if not self.segments:
            raise ProfileError("profile has no segments")
        if self.arrival_mode not in ("deterministic", "poisson"):
            raise ProfileError(f"unknown arrival_mode {self.arrival_mode!r}")
        if not 0.0 < self.work_mi < math.inf:
            raise ProfileError(f"work_mi must be positive and finite, got {self.work_mi}")
        prev_end = None
        for i, seg in enumerate(self.segments):
            if not -math.inf < seg.start < seg.end < math.inf:
                raise ProfileError(
                    f"segment {i} [{seg.start}, {seg.end}] is empty, reversed or not finite"
                )
            for name in ("base_rate", "amplitude"):
                value = getattr(seg, name)
                if not 0.0 <= value < math.inf:
                    raise ProfileError(f"segment {i} {name} must be >= 0 and finite, got {value}")
            if not 0.0 < seg.period < math.inf:
                raise ProfileError(f"segment {i} period must be > 0 and finite, got {seg.period}")
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

    requests = [Request(id=i, arrival_time=t, work=profile.work_mi) for i, t in enumerate(times)]
    return WorkloadTrace(requests=requests, duration=float(duration))


def _deterministic_arrivals(profile: RateProfile, duration: float) -> list[float]:
    n_points = int(math.ceil(duration / _GRID_DT)) + 1
    grid = np.linspace(0.0, duration, n_points)
    rates = np.array([profile.rate_at(float(t)) for t in grid])
    # trapezoidal cumulative intensity; exact for piecewise-constant rates
    cum = np.concatenate(([0.0], np.cumsum((rates[1:] + rates[:-1]) * 0.5 * np.diff(grid))))
    total = cum[-1]
    n = int(math.floor(total + 1e-9))
    if n == 0:
        return []
    targets = np.arange(1, n + 1, dtype=float)
    times = np.interp(targets, cum, grid)
    return [float(t) for t in times if t <= duration]


def _poisson_arrivals(profile: RateProfile, duration: float, seed: int) -> list[float]:
    rng = random.Random(seed)
    times: list[float] = []
    t = 0.0
    while t <= duration:
        r = profile.rate_at(t)
        if r <= 0.0:
            t += _ZERO_RATE_SCAN
            continue
        t += rng.expovariate(r)
        if t <= duration:
            times.append(t)
    return times


def parse_trace(source: Union[str, IO[str], Iterable[str]]) -> WorkloadTrace:
    """Parse a two-column trace: ``arrival_time_s work_mi`` per line.

    Lines starting with ``#`` and blank lines are skipped.  Out-of-order
    lines are sorted.  Accepts a string, an open file, or any iterable of
    lines; LF and CRLF both work.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    requests: list[Request] = []
    inf = math.inf
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            arrival = float(fields[0])
            work = float(fields[1])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric field in {line!r}") from None
        # NaN fails both range checks
        if not 0.0 <= arrival < inf:
            raise TraceValidationError(
                f"line {lineno}: arrival time must be non-negative and finite, got {arrival}"
            )
        if not 0.0 < work < inf:
            raise TraceValidationError(
                f"line {lineno}: work must be positive and finite, got {work}"
            )
        requests.append(Request(id=0, arrival_time=arrival, work=work))

    requests.sort(key=lambda r: r.arrival_time)
    for i, req in enumerate(requests):
        req.id = i
    duration = requests[-1].arrival_time if requests else 0.0
    return WorkloadTrace(requests=requests, duration=duration)


def serialize_trace(trace: WorkloadTrace) -> str:
    """Inverse of :func:`parse_trace`: one ``arrival work`` line per request."""
    lines = [f"{req.arrival_time!r} {req.work!r}" for req in trace.requests]
    return "\n".join(lines) + ("\n" if lines else "")


def load_profile(path: str) -> RateProfile:
    """Read a rate profile from a flat key-value file.

    Recognised keys: ``arrival_mode``, ``work_mi`` and per-segment
    ``segment.<n>.start|end|base_rate|amplitude|period``.  Segments are
    ordered by their index.
    """
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ProfileError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()

    mode = pairs.pop("arrival_mode", "poisson")
    work_mi = float(pairs.pop("work_mi", DEFAULT_WORK_MI))

    seg_fields: dict[int, dict[str, float]] = {}
    for key, value in pairs.items():
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "segment":
            raise ProfileError(f"{path}: unknown key {key!r}")
        try:
            idx = int(parts[1])
            seg_fields.setdefault(idx, {})[parts[2]] = float(value)
        except ValueError:
            raise ProfileError(f"{path}: bad value for {key!r}") from None

    segments = []
    for idx in sorted(seg_fields):
        f = seg_fields[idx]
        try:
            segments.append(
                Segment(
                    start=f["start"],
                    end=f["end"],
                    base_rate=f["base_rate"],
                    amplitude=f.get("amplitude", 0.0),
                    period=f.get("period", 3600.0),
                )
            )
        except KeyError as exc:
            raise ProfileError(f"{path}: segment {idx} missing {exc}") from None

    profile = RateProfile(segments=segments, arrival_mode=mode, work_mi=work_mi)
    profile.validate()
    return profile
