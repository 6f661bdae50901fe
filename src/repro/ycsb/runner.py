"""YCSB load/run phases against any store exposing put/get/scan/delete.

The runner measures each operation on the store's *simulated* clock —
the lap between before and after the call — exactly the quantity the
paper plots ("latency per operation (micro seconds)").  Stores are duck
typed; everything in :mod:`repro.core` and :mod:`repro.baselines`
conforms.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.admission import AdmissionShedError
from repro.ycsb.stats import LatencyStats
from repro.ycsb.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_SCAN,
    OP_UPDATE,
    CoreWorkload,
)


@dataclass
class RunResult:
    """Outcome of one run phase."""

    workload: str
    operations: int
    duration_us: float
    per_op: dict[str, LatencyStats] = field(default_factory=dict)
    overall: LatencyStats = field(default_factory=LatencyStats)
    #: Operations rejected (retryably) by admission control.  They still
    #: count toward ``operations`` — the client issued them — but a
    #: caller judging *goodput* should subtract them.
    shed_ops: int = 0

    @property
    def mean_latency_us(self) -> float:
        return self.overall.mean


def _telemetry(store):
    """The store's telemetry, when it exposes one (all repro stores do)."""
    return getattr(store, "telemetry", None) or getattr(
        getattr(store, "env", None), "telemetry", None
    )


def load_phase(store, workload: CoreWorkload, prefetch: bool = True) -> None:
    """Populate the dataset, then warm the kernel cache (Section 6.1:
    "we typically scan the loaded dataset so that it is loaded in the
    untrusted memory")."""
    telemetry = _telemetry(store)
    span_cm = (
        telemetry.span(
            "ycsb.load",
            workload=workload.spec.name,
            records=workload.record_count,
        )
        if telemetry is not None
        else nullcontext()
    )
    with span_cm:
        for op in workload.load_ops():
            store.put(workload.key(op.key_index), workload.value(op.key_index))
        if hasattr(store, "flush"):
            store.flush()
        if prefetch and hasattr(store, "disk"):
            store.disk.prefetch_all()


def run_phase(
    store,
    workload: CoreWorkload,
    operations: int,
    multiget: int = 1,
    group_commit: int = 1,
    group_max_delay_us: float | None = None,
) -> RunResult:
    """Drive ``operations`` requests and collect simulated latencies.

    Latencies land both in the returned :class:`RunResult` and — when the
    store carries a telemetry instance — in its ``ycsb.op.latency_us``
    histogram, labelled by op kind, so a ``--metrics-out`` dump includes
    the same distribution the result summarises.

    With ``multiget > 1`` (and a store exposing ``multi_get``), runs of
    consecutive READs are batched into one verified MULTIGET of up to
    that many keys; the batch's lap is attributed evenly across its keys
    so per-op statistics stay comparable with the sequential mode.  Any
    other op kind flushes the pending batch first, preserving order.

    With ``group_commit > 1`` (and a store exposing ``group_commit``),
    consecutive INSERT/UPDATE/DELETE ops are coalesced into commit
    groups of up to that many writes — one ECall, one WAL write, one
    fsync per group — the group's lap attributed evenly.  Reads, scans,
    and RMWs submit the pending group first, so read-your-writes holds;
    ``group_max_delay_us`` bounds (in simulated time) how long the
    oldest queued write may wait before the group is forced out.
    """
    clock = store.clock
    telemetry = _telemetry(store)
    latency_hist = (
        telemetry.histogram(
            "ycsb.op.latency_us",
            "per-operation simulated latency by YCSB op kind",
            labels=("op",),
        )
        if telemetry is not None
        else None
    )
    result = RunResult(workload=workload.spec.name, operations=operations, duration_us=0.0)
    span_cm = (
        telemetry.span(
            "ycsb.run", workload=workload.spec.name, operations=operations
        )
        if telemetry is not None
        else nullcontext()
    )
    use_multiget = multiget > 1 and hasattr(store, "multi_get")
    use_groups = group_commit > 1 and hasattr(store, "group_commit")
    pending_reads: list[bytes] = []
    #: (ycsb op kind, store op tuple) pairs awaiting one commit group.
    pending_writes: list[tuple[str, tuple]] = []
    first_queued_us = 0.0

    def _record(kind: str, elapsed: float) -> None:
        result.per_op.setdefault(kind, LatencyStats()).add(elapsed)
        result.overall.add(elapsed)
        if latency_hist is not None:
            latency_hist.observe(elapsed, op=kind)

    def _flush_writes() -> None:
        if not pending_writes:
            return
        before = clock.now_us
        try:
            store.group_commit([op for _kind, op in pending_writes])
        except AdmissionShedError:
            result.shed_ops += len(pending_writes)
        per_op = clock.lap(before) / len(pending_writes)
        for kind, _op in pending_writes:
            _record(kind, per_op)
        pending_writes.clear()

    def _flush_reads() -> None:
        if not pending_reads:
            return
        # Read-your-writes: queued writes become durable and visible
        # before the batch reads execute.
        _flush_writes()
        before = clock.now_us
        try:
            store.multi_get(list(pending_reads))
        except AdmissionShedError:
            result.shed_ops += len(pending_reads)
        per_key = clock.lap(before) / len(pending_reads)
        for _ in pending_reads:
            _record(OP_READ, per_key)
        pending_reads.clear()

    with span_cm:
        start = clock.now_us
        version = 1
        for _ in range(operations):
            op = workload.next_op()
            key = workload.key(op.key_index)
            if (
                use_groups
                and pending_writes
                and group_max_delay_us is not None
                and clock.now_us - first_queued_us >= group_max_delay_us
            ):
                _flush_writes()
            if use_multiget and op.kind == OP_READ:
                pending_reads.append(key)
                if len(pending_reads) >= multiget:
                    _flush_reads()
                continue
            if use_multiget:
                _flush_reads()
            if use_groups and op.kind in (OP_INSERT, OP_UPDATE, OP_DELETE):
                if not pending_writes:
                    first_queued_us = clock.now_us
                if op.kind == OP_UPDATE:
                    pending_writes.append(
                        (op.kind, ("put", key, workload.value(op.key_index, version)))
                    )
                    version += 1
                elif op.kind == OP_INSERT:
                    pending_writes.append(
                        (op.kind, ("put", key, workload.value(op.key_index)))
                    )
                else:
                    pending_writes.append((op.kind, ("delete", key)))
                if len(pending_writes) >= group_commit:
                    _flush_writes()
                continue
            if use_groups:
                # READ/SCAN/RMW: preserve read-your-writes.
                _flush_writes()
            before = clock.now_us
            try:
                if op.kind == OP_READ:
                    store.get(key)
                elif op.kind == OP_UPDATE:
                    store.put(key, workload.value(op.key_index, version))
                    version += 1
                elif op.kind == OP_INSERT:
                    store.put(key, workload.value(op.key_index))
                elif op.kind == OP_SCAN:
                    hi = workload.key(op.key_index + op.scan_length)
                    store.scan(key, hi)
                elif op.kind == OP_RMW:
                    store.get(key)
                    store.put(key, workload.value(op.key_index, version))
                    version += 1
                elif op.kind == OP_DELETE:
                    store.delete(key)
                else:  # pragma: no cover - spec validation prevents this
                    raise ValueError(f"unknown op kind {op.kind}")
            except AdmissionShedError:
                # Retryable back-pressure: the client observed a fast
                # rejection, which is still a completed request from the
                # runner's point of view.
                result.shed_ops += 1
            _record(op.kind, clock.lap(before))
        if use_multiget:
            _flush_reads()
        if use_groups:
            _flush_writes()
        result.duration_us = clock.now_us - start
    return result
