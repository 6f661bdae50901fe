"""One run of one workload: set-ups, fixed-R rounds, checks, metrics.

The method (why each step exists is in README.md):

* R, the number of rounds, depends on ``--seconds`` alone, never on how
  fast the rounds went, so two commits are always filtered alike.
* Every round issues the same M calls.  Read-only workloads replay them on
  one store after an untimed warm-up pass; writing workloads start every
  round from a store rebuilt by the same set-up.  What a round changed in
  the store (dataset hash, simulated clock, counters, disk size) must equal
  what round one changed, or the run stops: rounds that differ cannot be
  compared call by call.
* A call's latency is its minimum over the rounds, which drops transient
  interference and keeps structural stalls (call *i* triggers the same
  compaction in every round).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core.store_p2 import ELSMP2Store
from repro.sim.scale import ScaleConfig
from repro.telemetry.trace_report import COST_GROUPS, group_costs

from perfbench import tracing
from perfbench.workloads import RESULT_ATTR, Call, Model, Workload

#: ``--seconds`` at which a workload runs its ``r_nominal`` rounds.
RUN_SECONDS = 20
#: Timed set-ups of a read-only workload (a writer sets up once per round).
READ_ONLY_SETUPS = 3
#: Loop count of the reference kernel (~0.4 ms) and its repeats per CPU.
REF_KERNEL_ITERS = 6000
REF_KERNEL_REPEATS = 3
#: Measured time after which a round chooses its CPU again.
REPIN_AFTER_NS = 100_000_000
#: A call this many times slower than the median call counts as a stall.
STALL_FACTOR = 10
#: Writes issued after the last seal and never synced: the power cut must
#: take them, and the recovered store must not show them.
UNSYNCED_TAIL = 5


class RoundMismatch(RuntimeError):
    """A round changed the store differently from round one."""


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(3, round(workload.r_nominal * seconds / RUN_SECONDS))


# ----------------------------------------------------------------------
# CPU choice
# ----------------------------------------------------------------------
def _ref_kernel() -> int:
    start = perf_counter_ns()
    acc = 0
    for i in range(REF_KERNEL_ITERS):
        acc = (acc + i * i) & 0xFFFF
    return perf_counter_ns() - start


class CpuPicker:
    """Pins the process to the faster of the current CPU and one other.

    The sandbox's vCPUs each drop to about half speed for milliseconds to
    minutes with no steal time reported, so the choice is remade before
    every set-up and round and every ``REPIN_AFTER_NS`` within a round.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.current = self.allowed[0]
        self.ref_ns: list[int] = []

    def pin(self) -> None:
        others = [cpu for cpu in self.allowed if cpu != self.current]
        timed = []
        for cpu in [self.current] + others[:1]:
            os.sched_setaffinity(0, {cpu})
            timed.append(
                (min(_ref_kernel() for _ in range(REF_KERNEL_REPEATS)), cpu)
            )
        best_ns, self.current = min(timed)
        os.sched_setaffinity(0, {self.current})
        self.ref_ns.append(best_ns)


# ----------------------------------------------------------------------
# Store set-up and what a round changed
# ----------------------------------------------------------------------
def build_store(**reopen) -> ELSMP2Store:
    """``perf-baseline``'s geometry: WAL on, no background threads."""
    return ELSMP2Store(
        scale=ScaleConfig(factor=1 / 4096),
        write_buffer_bytes=4096,
        level1_max_bytes=8192,
        file_max_bytes=8192,
        block_bytes=1024,
        max_immutable_memtables=0,
        **reopen,
    )


def _counters(store: ELSMP2Store) -> dict[str, float]:
    """Every counter series as ``name{label=value,...} -> value``."""
    out = {}
    for name, entry in store.telemetry.metrics.snapshot().items():
        # The tracer's ring buffer fills up during the first rounds; how
        # many old spans it dropped says nothing about the store.
        if entry["type"] != "counter" or name == "tracer.spans.dropped":
            continue
        for series in entry["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            )
            out[f"{name}{{{labels}}}"] = series["value"]
    # Four counts the store keeps outside its telemetry registry.
    out["lsm.flushes{}"] = store.db.stats.flushes
    out["lsm.compactions{}"] = store.db.stats.compactions
    cache = store.verifier.node_cache
    out["node_cache.hits{}"] = cache.hits
    out["node_cache.misses{}"] = cache.misses
    return out


@dataclass
class Snapshot:
    """The state that must change alike in every round."""

    dataset: bytes
    disk_bytes: int
    sim_us: float
    sim_by_category: dict[str, float]
    sim_charges: dict[str, int]
    counters: dict[str, float]

    @classmethod
    def of(cls, store: ELSMP2Store) -> "Snapshot":
        breakdown = store.clock.breakdown()
        return cls(
            dataset=store.dataset_hash(),
            disk_bytes=store.disk.total_bytes(),
            sim_us=store.clock.now_us,
            sim_by_category=breakdown,
            sim_charges={c: store.clock.event_count(c) for c in breakdown},
            counters=_counters(store),
        )

    def since(self, before: "Snapshot") -> "Snapshot":
        """What changed since ``before``; hash and size stay absolute."""

        def minus(new: dict, old: dict) -> dict:
            changed = {k: v - old.get(k, 0) for k, v in new.items()}
            return {k: v for k, v in changed.items() if v}

        return Snapshot(
            dataset=self.dataset,
            disk_bytes=self.disk_bytes,
            sim_us=self.sim_us - before.sim_us,
            sim_by_category=minus(self.sim_by_category, before.sim_by_category),
            sim_charges=minus(self.sim_charges, before.sim_charges),
            counters=minus(self.counters, before.counters),
        )

    def mismatch(self, first: "Snapshot") -> str | None:
        """Why this round differs from round one, or None.

        A replayed round starts from a later clock reading than round one,
        so its float sum may differ in the last bits; everything that is
        counted in whole numbers must match exactly.
        """
        if self.dataset != first.dataset:
            return "dataset_hash differs"
        if self.disk_bytes != first.disk_bytes:
            return f"disk bytes {self.disk_bytes} != {first.disk_bytes}"
        if not math.isclose(self.sim_us, first.sim_us, rel_tol=1e-9):
            return f"clock.now_us moved {self.sim_us!r}, not {first.sim_us!r}"
        if self.sim_charges != first.sim_charges:
            return "the clock was charged a different number of times"
        if self.counters != first.counters:
            odd = {
                k: (self.counters.get(k), first.counters.get(k))
                for k in self.counters.keys() | first.counters.keys()
                if self.counters.get(k) != first.counters.get(k)
            }
            return f"counters differ: {odd}"
        return None

    def counted(self, prefix: str) -> float:
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))


# ----------------------------------------------------------------------
# The plan (calls and expected answers) and the tally of checks
# ----------------------------------------------------------------------
@dataclass
class Plan:
    workload: Workload
    load: list[Call]
    calls: list[Call]
    #: ``expected[i]`` is what call *i* must return.
    expected: list
    #: The model after the load and every call (for the recovery check).
    model: Model

    @classmethod
    def make(cls, workload: Workload, seed: int) -> "Plan":
        model = Model()
        load = workload.load()
        for call in load:
            model.apply(call)
        calls = workload.calls_for(seed)
        expected = [model.apply(call) for call in calls]
        return cls(workload, load, calls, expected, model)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_failure: str = ""

    def check(self, got, want, what: str, *context) -> None:
        self.attempted += 1
        if got != want:
            self.fail(
                f"{what % context}: got {got!r:.80}, expected {want!r:.80}"
            )

    def fail(self, why: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or why


def set_up(plan: Plan) -> tuple[ELSMP2Store, int]:
    """Build, load and flush a store; returns it and the wall ns it took."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter_ns()
        store = build_store()
        for kind, args in plan.load:
            getattr(store, kind)(*args)
        store.flush()
        return store, perf_counter_ns() - start
    finally:
        gc.enable()


def play_round(
    store: ELSMP2Store,
    plan: Plan,
    tally: Tally,
    cpu: CpuPicker,
    recorder: tracing.Recorder | None = None,
    capture: bool = False,
) -> list[int]:
    """Issue every call once, one after the other; returns ns per call.

    Bound methods are looked up here, after any wrappers went on or came
    off; answers are compared, and the CPU chosen again, outside the timed
    intervals.
    """
    prepared = [
        (getattr(store, kind), args, RESULT_ATTR[kind], want)
        for (kind, args), want in zip(plan.calls, plan.expected)
    ]
    latencies = [0] * len(prepared)
    clock = perf_counter_ns
    since_pin = REPIN_AFTER_NS
    gc.collect()
    gc.disable()
    try:
        for i, (fn, args, attr, want) in enumerate(prepared):
            if since_pin >= REPIN_AFTER_NS:
                cpu.pin()
                since_pin = 0
            if recorder is not None:
                recorder.op_id = i
                recorder.capture = capture and i < tracing.CAPTURE_OPS
            start = clock()
            try:
                got = fn(*args)
            except Exception as exc:  # noqa: BLE001 - a failed call, counted
                latencies[i] = clock() - start
                tally.attempted += 1
                tally.fail(f"call {i} raised {type(exc).__name__}: {exc}")
                continue
            latencies[i] = clock() - start
            since_pin += latencies[i]
            tally.check(getattr(got, attr) if attr else got, want, "call %d", i)
    finally:
        gc.enable()
        if recorder is not None:
            recorder.capture = False
    return latencies


@dataclass
class Rounds:
    """A set of identical rounds."""

    #: ``best[i]`` = min over the rounds of call *i*'s latency, ns.
    best: list[int] = field(default_factory=list)
    #: Unfiltered wall ns of each round's calls.
    round_ns: list[int] = field(default_factory=list)
    #: What round one changed in the store.
    first: Snapshot | None = None
    #: One read-out of the recorder per round, when traced.
    traces: list[dict] = field(default_factory=list)

    def add(self, latencies: list[int], changed: Snapshot) -> None:
        self.round_ns.append(sum(latencies))
        if self.first is None:
            self.best, self.first = latencies, changed
            return
        self.best = [min(a, b) for a, b in zip(self.best, latencies)]
        why = changed.mismatch(self.first)
        if why is not None:
            raise RoundMismatch(f"round {len(self.round_ns)}: {why}")


class Runner:
    """Plays rounds of one plan; keeps the last store for the power cut."""

    def __init__(self, plan: Plan, seconds: float, timed_setups: bool = True) -> None:
        self.plan = plan
        self.rounds = rounds_for(plan.workload, seconds)
        #: Set-ups a read-only workload makes before its rounds.
        self.setups = READ_ONLY_SETUPS if timed_setups else 1
        self.cpu = CpuPicker()
        self.tally = Tally()
        self.setup_ns: list[int] = []
        self.store: ELSMP2Store | None = None

    def _set_up(self) -> ELSMP2Store:
        self.store = None  # free the previous store before building the next
        self.cpu.pin()
        self.store, took = set_up(self.plan)
        self.setup_ns.append(took)
        return self.store

    def play(self, count: int, recorder: tracing.Recorder | None = None) -> Rounds:
        """``count`` identical rounds; traced when a recorder is given (its
        wrappers must already be installed, so that the store is built and
        its callbacks are bound under them)."""
        out = Rounds()
        read_only = self.plan.workload.read_only
        if read_only:
            for _ in range(self.setups):
                store = self._set_up()
            play_round(store, self.plan, self.tally, self.cpu)  # warm-up, not timed
        for index in range(count):
            if not read_only:
                store = self._set_up()
            before = Snapshot.of(store)
            if recorder is not None:
                recorder.reset()
            latencies = play_round(
                store, self.plan, self.tally, self.cpu, recorder, capture=index == 0
            )
            out.add(latencies, Snapshot.of(store).since(before))
            if recorder is not None:
                out.traces.append(recorder.read_out())
        return out

    def power_cut(self) -> float:
        """Seal, write an unsynced tail, cut the power, reopen, read back.

        Every key the model knows is read through the verified path and
        must show the value it had at the seal; the unsynced tail must be
        gone.  Returns the wall ms that reopening and recovery took.
        """
        store, model = self.store, self.plan.model
        if store.db.wal.has_unsynced:
            store.db.wal.sync()
        store.persist_seal()
        for key in sorted(model.versions)[:UNSYNCED_TAIL]:
            store.put(key, b"written after the seal, never synced")
        lost = store.disk.power_loss()
        self.tally.check(bool(lost), True, "the power cut dropped unsynced bytes")
        start = perf_counter_ns()
        revived = build_store(
            disk=store.disk, clock=store.clock, counter=store.counter, reopen=True
        )
        revived.recover_from_disk()
        took_ms = (perf_counter_ns() - start) / 1e6
        self.tally.check(revived.current_ts, model.ts, "recovered timestamp")
        for key in model.versions:
            try:
                got = revived.get_verified(key).value
            except Exception as exc:  # noqa: BLE001 - a failed read, counted
                self.tally.attempted += 1
                self.tally.fail(f"read-back of {key!r} raised {exc!r}")
                continue
            self.tally.check(got, model.get(key), "read-back of %r", key)
        self.store = None
        return took_ms


# ----------------------------------------------------------------------
# Metrics: name -> (value, unit)
# ----------------------------------------------------------------------
def end_to_end(runner: Runner, rounds: Rounds) -> tuple[dict, dict]:
    """The eight end-to-end metrics, and how many samples each rests on."""
    calls = len(rounds.best)
    first = rounds.first
    tail = sorted(rounds.best)[-(calls // 100):]
    metrics = {
        "setup_s": (statistics.median(runner.setup_ns) / 1e9, "s"),
        "ops_per_s": (calls / (sum(rounds.best) / 1e9), "1/s"),
        "p50_us": (statistics.median(rounds.best) / 1e3, "us"),
        "tail_us": (statistics.fmean(tail) / 1e3, "us"),
        "sim_us_per_op": (first.sim_us / calls, "us"),
        "io_bytes_per_op": (first.counted("disk.bytes{") / calls, "B"),
        "space_amp": (first.disk_bytes / runner.plan.model.live_bytes(), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    timed = calls * len(rounds.round_ns)
    samples = {
        "setup_s": len(runner.setup_ns),
        "ops_per_s": timed,
        "p50_us": timed,
        "tail_us": len(tail),
        "sim_us_per_op": calls,
        "io_bytes_per_op": calls,
        "space_amp": 1,
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer(
    runner: Runner, plain: Rounds, traced: Rounds, recovery_ms: float
) -> dict:
    """Per-layer metrics: counts from round one, times from traced rounds."""
    calls = len(plain.best)
    first = plain.first
    traced_ns = statistics.median(traced.round_ns)
    trace_one = traced.traces[0]

    def per_op(value: float, unit: str = "count", scale: float = 1.0):
        return (scale * value / calls, unit)

    def traced_median(pick) -> float:
        return statistics.median(pick(trace) for trace in traced.traces)

    out = {}
    for layer in tracing.LAYERS:
        self_ns = traced_median(lambda t, layer=layer: t["layers"][layer][0])
        out[f"{layer}.self_us_per_op"] = per_op(self_ns / 1e3, "us")
        out[f"{layer}.calls_per_op"] = per_op(trace_one["layers"][layer][1])

    def group_pct(group: str) -> tuple[float, str]:
        inside = traced_median(lambda t: t["groups"][group])
        return (_pct(inside, traced_ns), "%")

    hits, misses = first.counted("node_cache.hits{"), first.counted("node_cache.misses{")
    out["core.prover_pct"] = group_pct("prover")
    out["core.verifier_pct"] = group_pct("verifier")
    out["core.node_cache_hit_pct"] = (_pct(hits, hits + misses), "%")
    out["core.verify_hashes_per_op"] = per_op(
        first.counted("proof.verify.hash_invocations{")
    )
    out["core.recovery_ms"] = (recovery_ms, "ms")

    p50_ns = statistics.median(plain.best)
    stalls = sum(1 for ns in plain.best if ns > STALL_FACTOR * p50_ns)
    written = first.counted("lsm.flush.bytes{") + first.counted("lsm.compaction.bytes{")
    user_bytes = first.counted("lsm.user.bytes{")
    cache_hits = first.counted("cache.hits{")
    out["lsm.flushes_per_kop"] = per_op(first.counted("lsm.flushes{"), scale=1000)
    out["lsm.compactions_per_kop"] = per_op(
        first.counted("lsm.compactions{"), scale=1000
    )
    out["lsm.maintenance_pct"] = group_pct("maintenance")
    out["lsm.stall_ops_pct"] = (_pct(stalls, calls), "%")
    out["lsm.write_amp"] = (written / user_bytes if user_bytes else 0.0, "ratio")
    out["lsm.wal_bytes_per_op"] = per_op(first.counted("wal.bytes{"), "B")
    out["lsm.cache_hit_pct"] = (
        _pct(cache_hits, cache_hits + first.counted("cache.misses{")),
        "%",
    )
    out["lsm.bloom_fp_pct"] = (
        _pct(
            first.counted("lsm.bloom.false_positives{"),
            first.counted("lsm.bloom.checks{"),
        ),
        "%",
    )
    out["lsm.blocks_read_per_op"] = per_op(
        first.counted("disk.ops{op=read}") + first.counted("disk.ops{op=read_mmap}")
    )

    out["sgx.ecalls_per_op"] = per_op(first.counted("enclave.ecalls{"))
    out["sgx.ocalls_per_op"] = per_op(first.counted("enclave.ocalls{"))
    out["sgx.copy_bytes_per_op"] = per_op(first.counted("enclave.copy.bytes{"), "B")
    out["cryptoprim.hashed_bytes_per_op"] = per_op(trace_one["hashed_bytes"], "B")
    out["mht.tree_builds_per_kop"] = per_op(trace_one["tree_builds"], scale=1000)
    out["mht.auth_paths_per_op"] = per_op(trace_one["auth_paths"])

    grouped = group_costs(first.sim_by_category)
    for group in (*COST_GROUPS, "other"):
        out[f"sim.{group}_pct"] = (_pct(grouped.get(group, 0.0), first.sim_us), "%")

    out["trace.overhead_pct"] = (
        _pct(sum(traced.best) - sum(plain.best), sum(plain.best)),
        "%",
    )
    covered = traced_median(lambda t: sum(ns for ns, _ in t["layers"].values()))
    out["trace.coverage_pct"] = (_pct(covered, traced_ns), "%")
    out["harness.raw_ops_per_s"] = (
        calls / (statistics.median(plain.round_ns) / 1e9),
        "1/s",
    )
    out["harness.ref_kernel_ms"] = (statistics.median(runner.cpu.ref_ns) / 1e6, "ms")
    out["harness.rounds"] = (float(runner.rounds), "count")
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Result:
    tally: Tally
    #: name -> (value, unit)
    metrics: dict
    #: name -> number of samples the value rests on
    samples: dict
    rounds: int
    trace_file: str | None = None

    def as_json(self) -> dict:
        """The object the driver reads from the last line of stdout."""
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def measure(plan: Plan, seconds: float, trace_dir: str | None = None) -> Result:
    """One run: the end-to-end metrics, or, when ``trace_dir`` names where
    the Chrome trace goes, a traced run and the per-layer metrics."""
    runner = Runner(plan, seconds, timed_setups=trace_dir is None)
    if trace_dir is None:
        rounds = runner.play(runner.rounds)
        runner.power_cut()
        metrics, samples = end_to_end(runner, rounds)
        return Result(runner.tally, metrics, samples, runner.rounds)

    plain = runner.play(max(3, runner.rounds // 2))
    recovery_ms = runner.power_cut()
    recorder = tracing.Recorder()
    patcher = tracing.install(recorder)
    try:
        traced = runner.play(max(2, runner.rounds // 4), recorder)
    finally:
        patcher.restore()
        runner.store = None
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"trace_{plan.workload.name}.json")
    recorder.write_chrome_trace(trace_file)
    metrics = per_layer(runner, plain, traced, recovery_ms)
    samples = dict.fromkeys(metrics, len(plain.best))
    samples.update(
        {"core.recovery_ms": 1, "harness.ref_kernel_ms": len(runner.cpu.ref_ns)}
    )
    return Result(runner.tally, metrics, samples, runner.rounds, trace_file)
