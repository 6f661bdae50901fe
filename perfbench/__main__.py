"""Command line of the benchmark (``python3 -m perfbench``).

With ``--workload`` it makes one run and prints the driver's JSON object
as the last line of stdout; without, it runs every workload in its own
process and prints all metrics.  ``--aa`` and ``--selfcheck`` test the
benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", metavar="PATH", help="save the suite's output")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A test over N runs")
    parser.add_argument("--selfcheck", action="store_true")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    from perfbench.harness import Plan, measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    plan = Plan.make(WORKLOADS[args.workload], args.seed)
    trace_dir = os.path.join(HERE, "out") if args.trace else None
    result = measure(plan, args.seconds, trace_dir)
    print(
        f"perfbench {args.workload} seed={args.seed} R={result.rounds} "
        f"M={len(plan.calls)} trace={args.trace}"
    )
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit:6s} n={result.samples[name]}")
    if result.tally.failed:
        print(f"  FIRST FAILURE: {result.tally.first_failure}")
    print("info " + json.dumps({
        "rounds": result.rounds,
        "samples": result.samples,
        "trace_file": result.trace_file,
        "first_failure": result.tally.first_failure,
    }))
    print(json.dumps(result.as_json()))
    return 1 if result.tally.failed else 0


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: src/repro is not here; nothing to measure", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not depend on the parent's hash seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "perfbench", *argv], env)
    sys.path.insert(0, SRC)
    args = parse(argv)
    if args.selfcheck:
        from perfbench.selfcheck import selfcheck

        return selfcheck(args.seed, args.seconds)
    if args.aa:
        from perfbench.aa import aa_test

        return aa_test(args.aa, args.seconds)
    if args.workload:
        return run_one(args)
    from perfbench.suite import run_suite

    return run_suite(args.seed, args.seconds, args.json_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
