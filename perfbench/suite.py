"""All workloads, one process each: every metric by name, as markdown."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from perfbench.tracing import LAYERS
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric lists, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; returns its result object plus ``info``."""
    done = subprocess.run(
        [
            sys.executable, "-m", "perfbench",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("info "))
    return result


def fingerprint() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()} "
        f"({platform.python_compiler()})",
        "loadavg": os.getloadavg(),
    }


def _table(title: str, rows: list[str], runs: dict[str, dict]) -> list[str]:
    """One markdown table: a metric per row, a workload per column."""
    names = list(runs)
    out = [f"## {title}", "", "| metric | unit | " + " | ".join(names) + " |"]
    out.append("|---|---|" + "---:|" * len(names))
    for row in rows:
        cells = []
        for name in names:
            metric = runs[name]["metrics"][row]
            cells.append(f"{metric['value']:.4f} (n={runs[name]['info']['samples'][row]})")
        unit = runs[names[0]]["metrics"][row]["unit"]
        out.append(f"| `{row}` | {unit} | " + " | ".join(cells) + " |")
    return out + [""]


def _layer_shares(runs: dict[str, dict]) -> list[str]:
    """Each layer's share of the traced self time, and the two sums the
    workloads were chosen to separate."""
    out = ["## Share of traced self time", ""]
    out.append("| layer | " + " | ".join(runs) + " |")
    out.append("|---|" + "---:|" * len(runs))
    shares = {}
    for name, run in runs.items():
        self_us = {
            layer: run["metrics"][f"{layer}.self_us_per_op"]["value"]
            for layer in LAYERS
        }
        total = sum(self_us.values())
        shares[name] = {layer: 100.0 * us / total for layer, us in self_us.items()}
    sums = {
        "telemetry+sim+sgx": ("telemetry", "sim", "sgx"),
        "mht+cryptoprim": ("mht", "cryptoprim"),
    }
    for layer in LAYERS:
        cells = " | ".join(f"{shares[name][layer]:.1f} %" for name in runs)
        out.append(f"| {layer} | {cells} |")
    for label, members in sums.items():
        cells = " | ".join(
            f"{sum(shares[name][m] for m in members):.1f} %" for name in runs
        )
        out.append(f"| **{label}** | {cells} |")
    return out + [""]


def run_suite(seed: int, seconds: float, json_out: str | None) -> int:
    spec = load_spec()
    plain, traced = {}, {}
    for name in WORKLOADS:
        print(f"running {name} ...", file=sys.stderr)
        plain[name] = run_child(name, seed, seconds, trace=0)
        traced[name] = run_child(name, seed, seconds, trace=1)
    machine = fingerprint()
    lines = [f"# perfbench, seed {seed}, --seconds {seconds:g}", ""]
    lines += [f"- {key}: {value}" for key, value in machine.items()]
    lines.append(
        "- rounds R (calls M): "
        + ", ".join(
            f"{name} {plain[name]['info']['rounds']} ({WORKLOADS[name].calls})"
            for name in WORKLOADS
        )
    )
    lines.append(
        "- checks: "
        + ", ".join(
            f"{name} {run['attempted']} attempted / {run['failed']} failed"
            for name, run in plain.items()
        )
    )
    lines.append("")
    lines += _table("End to end", [m["name"] for m in spec["end_to_end"]], plain)
    lines += _table("Per layer", [m["name"] for m in spec["per_layer"]], traced)
    lines += _layer_shares(traced)
    print("\n".join(lines))
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(
                {"machine": machine, "end_to_end": plain, "per_layer": traced},
                fh,
                indent=1,
            )
    failed = sum(run["failed"] for run in (*plain.values(), *traced.values()))
    return 1 if failed else 0
