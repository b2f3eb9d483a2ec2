"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

The wrappers are installed from the benchmark's own files for the duration
of one timed body and removed afterwards; nothing under ``src/`` changes.
Each span records its name, start, end, parent and, where the call does
countable work, a count (arrivals consumed, requests generated, ...).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Collects spans; ``patched()`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "count": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _in_replay(self) -> bool:
        return any(s["name"] == "sim.replay" for s in self._stack)

    def wrap(self, name, fn, count=None):
        """Span named ``name`` around ``fn``; ``count(result, args)`` sets its count.

        ``name`` may be a callable of no arguments, evaluated when the call
        starts, so the span can be named after its callers.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["count"] = count(result, args)
                return result
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the traced wrappers for the duration of the block."""
        from elastidebt import economics, experiment, policies, sim, workload

        advance_name = lambda: "sim.replay_advance" if self._in_replay() else "sim.primary_advance"
        consumed = lambda result, args: result - args[3]  # advance(self, until, arrivals, idx)
        trace_len = lambda result, args: len(result.requests)
        plan = [
            (workload, "generate_trace", "workload.generate", trace_len),
            (workload, "parse_trace", "workload.parse", trace_len),
            (experiment, "generate_trace", "workload.generate", trace_len),
            (experiment, "parse_trace", "workload.parse", trace_len),
            (sim.Cluster, "advance", advance_name, consumed),
            (sim.Checkpoint, "__init__", "sim.checkpoint", lambda result, args: len(args[0].vm_snaps)),
            (sim.Checkpoint, "replay", "sim.replay", None),
            (sim.Simulation, "run", "sim.run", None),
            (economics, "counterfactual_ideal", "economics.counterfactual_ideal", None),
            (policies.DebtAwarePolicy, "decide", "policies.decide", None),
            (policies.VotingPolicy, "decide", "policies.decide", None),
            (policies.DebtAwarePolicy, "observe_reward", "policies.observe_reward", None),
            (policies.VotingPolicy, "observe_reward", "policies.observe_reward", None),
            (experiment, "run_experiment", "experiment.run_experiment", None),
            (experiment, "emit_csv", "experiment.emit_csv", None),
            (experiment, "paired_experiment", "experiment.paired_experiment", None),
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in plan]
        try:
            for owner, attr, name, count in plan:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


LAYERS = ("workload", "sim", "economics", "policies", "experiment")


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced body that took ``wall_s`` seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s, children in zip(spans, child_time):
        name = s["name"]
        d = s["end"] - s["start"]
        dur[name] = dur.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - children
        calls[name] = calls.get(name, 0) + 1
        if s["count"] is not None:
            counts[name] = counts.get(name, 0) + s["count"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["sim.replay_s"] = dur.get("sim.replay", 0.0)
    m["sim.replay_advance_s"] = dur.get("sim.replay_advance", 0.0)
    m["sim.replay_requests"] = counts.get("sim.replay_advance", 0)
    m["sim.replay_requests_per_s"] = ratio(m["sim.replay_requests"], m["sim.replay_s"])
    m["sim.replays"] = calls.get("sim.replay", 0)
    m["economics.counterfactual_calls"] = calls.get("economics.counterfactual_ideal", 0)
    m["economics.replays_per_call"] = ratio(m["sim.replays"], m["economics.counterfactual_calls"])
    m["sim.checkpoint_s"] = dur.get("sim.checkpoint", 0.0)
    m["sim.checkpoints"] = calls.get("sim.checkpoint", 0)
    m["sim.checkpoint_vms"] = counts.get("sim.checkpoint", 0)
    m["sim.replay_self_s"] = self_s.get("sim.replay", 0.0)
    m["sim.primary_advance_s"] = dur.get("sim.primary_advance", 0.0)
    m["sim.primary_requests"] = counts.get("sim.primary_advance", 0)
    m["sim.primary_requests_per_s"] = ratio(m["sim.primary_requests"], m["sim.primary_advance_s"])
    m["sim.replay_to_primary_requests"] = ratio(m["sim.replay_requests"], m["sim.primary_requests"])
    m["sim.run_self_s"] = self_s.get("sim.run", 0.0)
    m["workload.generate_s"] = dur.get("workload.generate", 0.0)
    m["workload.generated_requests"] = counts.get("workload.generate", 0)
    m["workload.parse_s"] = dur.get("workload.parse", 0.0)
    m["workload.parsed_requests"] = counts.get("workload.parse", 0)
    runs = [(s["start"], s["end"]) for s in spans if s["name"] == "experiment.run_experiment"]
    m["experiment.run_experiment_s"] = dur.get("experiment.run_experiment", 0.0)
    m["experiment.runs"] = len(runs)
    m["experiment.run_overlap"] = ratio(m["experiment.run_experiment_s"], _union_length(runs))
    m["policies.decide_s"] = dur.get("policies.decide", 0.0)
    m["policies.decisions"] = calls.get("policies.decide", 0)
    m["policies.observe_reward_s"] = dur.get("policies.observe_reward", 0.0)
    m["experiment.emit_csv_s"] = dur.get("experiment.emit_csv", 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(layer_self.values())
    return m
