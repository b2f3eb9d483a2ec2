"""Workload generation walkthrough: rate profiles, arrival modes, trace files.

Run:  python3 demos/01_workload_shapes.py
"""

from elastidebt import (
    RateProfile,
    Segment,
    default_profile,
    generate_trace,
    parse_trace,
    serialize_trace,
)

# --- 1. a constant-rate profile in both arrival modes -----------------------

flat = RateProfile(segments=[Segment(0.0, 60.0, base_rate=2.0)], arrival_mode="deterministic")
trace = generate_trace(flat, 10.0, seed=0)
print("deterministic 2 req/s for 10 s ->", len(trace), "arrivals")
print("  first five:", trace.arrivals[:5].tolist())

flat.arrival_mode = "poisson"
for seed in (1, 2):
    trace = generate_trace(flat, 10.0, seed=seed)
    print(f"poisson     2 req/s for 10 s, seed {seed} -> {len(trace)} arrivals")

# --- 2. the bundled six-hour diurnal profile with its surge ------------------

prof = default_profile()
print("\ndefault profile rate curve (req/s):")
for hour in range(7):
    t = hour * 3600.0
    print(f"  t = {hour}h  rate = {prof.rate_at(min(t, 21599.0)):5.1f}")

trace = generate_trace(prof, 21600.0, seed=42)
print(f"full trace: {len(trace)} requests, mean rate {len(trace) / 21600:.1f} req/s")
per_hour = [0] * 6
for t in trace.arrivals:
    per_hour[min(int(t // 3600), 5)] += 1  # the last hour includes t = 6 h
print("  arrivals per hour:", per_hour)

# --- 3. trace files round-trip exactly ---------------------------------------

short = generate_trace(flat, 5.0, seed=7)
text = serialize_trace(short)
print("\nserialized trace snippet:")
print("  " + "\n  ".join(text.splitlines()[:3]))
back = parse_trace(text)
print("round-trip equal:", back.arrivals == short.arrivals and back.work == short.work)
