"""A/A test: two sets of runs of the same code must agree.

N runs per workload and trace mode: N/2 seeds, each run once in set A and
once in set B, alternating which set goes first.  For every end-to-end
metric the two medians must agree within the metric's bound and each set's
spread, (Q3 - Q1) / median, must stay inside it.  Metrics computed from
counts alone must be bit-identical for the same seed.  And no metric whose
unit is a time may read the same on every seed of a set: a time that never
changes is a constant, not a measurement.
"""

from __future__ import annotations

import statistics
import sys

from perfbench.suite import load_spec, run_child
from perfbench.workloads import WORKLOADS

TIME_UNITS = ("s", "ms", "us")
#: End-to-end metrics derived from counts and the simulated clock alone.
EXACT = ("sim_us_per_op", "io_bytes_per_op", "space_amp")


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's measure of run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def collect(seeds: list[int], seconds: float, trace: int) -> dict:
    """``{workload: {"A"|"B": {metric: [value per seed]}}}``."""
    out: dict = {}
    for name in WORKLOADS:
        sets = {"A": {}, "B": {}}
        for seed in seeds:
            order = "AB" if seed % 2 else "BA"
            for label in order:
                print(f"  {name} trace={trace} seed={seed} set {label}", file=sys.stderr)
                run = run_child(name, seed, seconds, trace)
                if run["failed"]:
                    raise RuntimeError(
                        f"{name} seed {seed}: {run['info']['first_failure']}"
                    )
                for metric, reading in run["metrics"].items():
                    sets[label].setdefault(metric, []).append(reading["value"])
        out[name] = sets
    return out


def judge(metric: dict, a: list[float], b: list[float], gap: float) -> str:
    if metric["unit"] in TIME_UNITS and min(len(set(a)), len(set(b))) == 1:
        return "FAIL constant time"
    bound = metric.get("bound")
    if bound is None:  # per-layer: reported, not bounded
        return ""
    if metric["name"] in EXACT and a != b:
        return "FAIL not bit-identical"
    if abs(gap) > bound:
        return "FAIL medians"
    if max(spread(a), spread(b)) > bound:
        # Set-up time is judged on its medians; a spread this wide
        # means they cannot resolve a change of the bound's size.
        return "UNRESOLVED" if metric["name"] == "setup_s" else "FAIL spread"
    return "PASS"


def _pct(share: float) -> str:
    return f"{100 * share:.2f} %"


def aa_test(runs: int, seconds: float) -> int:
    spec = load_spec()
    seeds = list(range(1, runs // 2 + 1))
    if len(seeds) < 2:
        print("--aa needs at least 4 runs", file=sys.stderr)
        return 2
    problems: list[str] = []
    print(f"# A/A test, {runs} runs per workload and trace mode: seeds "
          f"{seeds[0]}..{seeds[-1]} in each of two sets, --seconds {seconds:g}\n")

    def rows(title: str, metrics: list[dict], trace: int) -> None:
        print(f"## {title}\n")
        print("| workload | metric | unit | median A | median B | B worse by | "
              "spread A | spread B | bound | distinct A/B | verdict |")
        print("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
        for name, sets in collect(seeds, seconds, trace).items():
            for metric in metrics:
                key = metric["name"]
                a, b = sets["A"][key], sets["B"][key]
                medians = statistics.median(a), statistics.median(b)
                gap = worse_by(*medians, metric["better"])
                verdict = judge(metric, a, b, gap)
                if verdict.startswith("FAIL"):
                    problems.append(f"{name} {key}: {verdict}")
                bound = metric.get("bound")
                print(
                    f"| {name} | `{key}` | {metric['unit']} | {medians[0]:.4f} | "
                    f"{medians[1]:.4f} | {100 * gap:+.2f} % | {_pct(spread(a))} | "
                    f"{_pct(spread(b))} | {_pct(bound) if bound else ''} | "
                    f"{len(set(a))}/{len(set(b))} | {verdict} |"
                )
        print()

    rows("End to end", spec["end_to_end"], trace=0)
    rows("Per layer (no bounds; a time that never changes fails)",
         spec["per_layer"], trace=1)

    print("## Verdict\n")
    if problems:
        print("FAIL:\n" + "\n".join(f"- {p}" for p in problems))
        return 1
    print("PASS: every end-to-end row is inside its bound (UNRESOLVED rows "
          "aside), count-derived metrics are bit-identical per seed, and no "
          "time reads the same on every seed.")
    return 0
