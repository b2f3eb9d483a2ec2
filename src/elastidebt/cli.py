"""Command-line entry points: run experiments, compare runs, generate traces."""

from __future__ import annotations

import argparse
import sys

from .experiment import ConfigError, compare, emit_csv, load_config, load_summary, run_experiment
from .workload import generate_trace, load_profile, serialize_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastidebt")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded experiment and emit CSVs")
    run_p.add_argument("--config", required=True, help="flat key-value experiment config")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--policy", choices=["debt-aware", "voting"], help="override the policy")
    run_p.add_argument("--trace", help="use this trace file instead of the configured workload")
    run_p.add_argument("--out", help="output directory for CSVs")
    run_p.add_argument("--qtable-in", help="warm-start Q table from a qtable.csv")

    cmp_p = sub.add_parser("compare", help="compare two emitted run directories")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")

    gen_p = sub.add_parser("gen-trace", help="generate a trace file from a rate profile")
    gen_p.add_argument("--profile", required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--duration", type=float, default=21600.0)
    gen_p.add_argument("--out", required=True)

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.policy is not None:
        config.policy = args.policy
    if args.trace is not None:
        config.trace_path = args.trace
        config.profile = None
    if args.out is not None:
        config.output_dir = args.out
    if args.qtable_in is not None:
        config.qtable_in = args.qtable_in
    if config.output_dir is None:
        raise ConfigError("no output directory (set output_dir in the config or pass --out)")

    report = run_experiment(config)
    emit_csv(report, config.output_dir)

    t = report.totals
    print(f"policy={t.policy} seed={t.seed} horizon={t.horizon:.0f}s")
    print(
        f"utility={t.aggregate_utility:.6f} revenue={t.revenue:.6f} "
        f"penalty={t.penalty:.6f} cost={t.total_cost:.6f}"
    )
    print(
        f"requests={t.submitted} failed={t.failures} "
        f"failed_fraction={t.failed_fraction:.4f} adaptations={t.adaptations}"
    )
    print(f"total_debt={t.total_debt:.6f} wall_clock={report.wall_clock:.2f}s")
    print(f"csv written to {config.output_dir}")
    return 0


def _cmd_compare(args) -> int:
    summary = compare(load_summary(args.dir_a), load_summary(args.dir_b))
    for line in summary.lines(label_a=args.dir_a, label_b=args.dir_b):
        print(line)
    return 0


def _cmd_gen_trace(args) -> int:
    profile = load_profile(args.profile)
    trace = generate_trace(profile, args.duration, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# generated from {args.profile} seed={args.seed} duration={args.duration}\n")
        fh.write(serialize_trace(trace))
    print(f"wrote {len(trace)} requests to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_gen_trace(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
