"""Does the benchmark see what it should, and only that?

A 50 us busy-wait is put, from the benchmark's side, first around a
read-path function and then around a write-path one, and the same
fixed-R rounds are run.  The slowed layer's workload must show it, the
workload that bypasses the layer must stay inside its bounds, and one
corrupted expected value must come back as a failed check.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from perfbench.aa import worse_by
from perfbench.harness import (
    CpuPicker,
    Plan,
    Tally,
    measure,
    play_round,
    rounds_for,
    set_up,
)
from perfbench.suite import load_spec
from perfbench.tracing import Patcher
from perfbench.workloads import WORKLOADS

DELAY_US = 50
READ_PATH = ("repro.core.verifier", "Verifier", "verify_get")
WRITE_PATH = ("repro.cryptoprim.hashing", None, "hash_internal")
#: ``ru_maxrss`` is the high-water mark of this one process, so a later run
#: can only read higher; every other end-to-end metric is compared.
SKIPPED = ("peak_rss_mb",)


@contextmanager
def slowed(module: str, owner: str | None, name: str):
    """Adds the busy-wait to one function wherever ``repro`` holds it."""
    holder = importlib.import_module(module)
    if owner is not None:
        holder = getattr(holder, owner)
    original = vars(holder)[name]

    def delayed(*args, **kwargs):
        until = perf_counter_ns() + DELAY_US * 1000
        while perf_counter_ns() < until:
            pass
        return original(*args, **kwargs)

    patcher = Patcher()
    patcher.replace_all({original: delayed})
    try:
        yield
    finally:
        patcher.restore()


def alternating_p50(plan: Plan, seconds: float, target: tuple) -> tuple[float, float]:
    """``p50_us`` without and with ``target`` slowed, from the usual R rounds
    of each, played alternately on one store.

    Two separate runs sit minutes apart, and between them the sandbox's
    speed drifts by a few percent of ``p50_us``: as much as the +/- 20 %
    window around the delay allows.  Alternating rounds see the same drift.
    """
    cpu, tally = CpuPicker(), Tally()
    store, _ = set_up(plan)
    play_round(store, plan, tally, cpu)  # warm-up
    best: dict[bool, list[int]] = {}
    for _ in range(rounds_for(plan.workload, seconds)):
        for slow in (False, True):
            with slowed(*target) if slow else nullcontext():
                took = play_round(store, plan, tally, cpu)
            best[slow] = [min(pair) for pair in zip(took, best.get(slow, took))]
    if tally.failed:
        raise RuntimeError(tally.first_failure)
    return statistics.median(best[False]) / 1e3, statistics.median(best[True]) / 1e3


def selfcheck(seed: int, seconds: float) -> int:
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    plans = {
        name: Plan.make(WORKLOADS[name], seed)
        for name in ("get_verified", "put_sustained")
    }

    def run_both() -> dict:
        out = {}
        for name, plan in plans.items():
            result = measure(plan, seconds)
            if result.tally.failed:
                raise RuntimeError(f"{name}: {result.tally.first_failure}")
            out[name] = {k: v for k, (v, _) in result.metrics.items()}
        return out

    def outside_bounds(base: dict, now: dict) -> list[str]:
        return [
            f"{key} {100 * worse_by(base[key], now[key], m['better']):+.1f} %"
            for key, m in spec.items()
            if key not in SKIPPED
            and worse_by(base[key], now[key], m["better"]) > m["bound"]
        ]

    print(f"# Self-check, seed {seed}, --seconds {seconds:g}, delay {DELAY_US} us\n")
    base = run_both()
    plain_p50, slowed_p50 = alternating_p50(plans["get_verified"], seconds, READ_PATH)
    with slowed(*READ_PATH):
        read_slow = run_both()
    with slowed(*WRITE_PATH):
        write_slow = run_both()
    corrupted = Plan.make(WORKLOADS["get_verified"], seed)
    corrupted.expected[len(corrupted.expected) // 2] = b"not what the store holds"
    caught = measure(corrupted, seconds=1).tally  # the fewest rounds will do

    checks = []

    def check(what: str, ok: bool, detail: str) -> None:
        checks.append(ok)
        print(f"- {'PASS' if ok else 'FAIL'}: {what} ({detail})")

    rise = slowed_p50 - plain_p50
    check(
        f"`{READ_PATH[2]}` slowed: `p50_us` on get_verified rises by "
        f"{DELAY_US} us +/- 20 % (alternating rounds)",
        0.8 * DELAY_US <= rise <= 1.2 * DELAY_US,
        f"{plain_p50:.1f} -> {slowed_p50:.1f} us, +{rise:.1f} us; in separate "
        f"runs {base['get_verified']['p50_us']:.1f} -> "
        f"{read_slow['get_verified']['p50_us']:.1f} us",
    )
    moved = outside_bounds(base["put_sustained"], read_slow["put_sustained"])
    check(
        f"`{READ_PATH[2]}` slowed: put_sustained stays inside its bounds",
        not moved,
        ", ".join(moved) or "no metric outside",
    )
    drop = worse_by(
        base["put_sustained"]["ops_per_s"],
        write_slow["put_sustained"]["ops_per_s"],
        "higher",
    )
    check(
        f"`{WRITE_PATH[2]}` slowed: `ops_per_s` on put_sustained drops by "
        "more than its bound",
        drop > spec["ops_per_s"]["bound"],
        f"{base['put_sustained']['ops_per_s']:.0f} -> "
        f"{write_slow['put_sustained']['ops_per_s']:.0f} 1/s, {-100 * drop:+.1f} %",
    )
    # Set-up runs compactions too, so it is expected to slow and is left out.
    moved = [
        m for m in outside_bounds(base["get_verified"], write_slow["get_verified"])
        if not m.startswith("setup_s")
    ]
    check(
        f"`{WRITE_PATH[2]}` slowed: get_verified stays inside its bounds "
        "(set-up aside: it compacts)",
        not moved,
        ", ".join(moved) or "no metric outside",
    )
    check(
        "one corrupted expected value is reported as a failed check",
        caught.failed >= 1,
        f"failed = {caught.failed}: {caught.first_failure}",
    )
    print(f"\n{'PASS' if all(checks) else 'FAIL'}: {sum(checks)}/{len(checks)} checks")
    return 0 if all(checks) else 1
