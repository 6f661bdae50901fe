"""The background flusher: one daemon worker over the engine's own step.

``BackgroundFlusher`` loops over ``LSMStore.flush_oldest_immutable``,
which runs the compaction cascade too, so each test checks that the
work really happened on the thread — flushes counted by the worker,
compactions counted by the engine — while verified reads go on.
"""

import sys
import time

import pytest

from repro.faults import FaultPlan
from repro.lsm.background import BackgroundFlusher
from tests.conftest import kv, make_p2_store


def _pipelined_store(**overrides):
    defaults = dict(
        max_immutable_memtables=4, write_buffer_bytes=1024, level1_max_bytes=2 * 1024
    )
    defaults.update(overrides)
    return make_p2_store(**defaults)


def _fill_until_rotation(store, limit=400):
    i = 0
    while not store.db.immutables and i < limit:
        store.put(*kv(i))
        i += 1
    assert store.db.immutables, "write buffer never overflowed"
    return i


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.time() + timeout_s
    while not predicate():
        assert time.time() < deadline, "condition never became true"
        time.sleep(0.002)


def _drained_by(flusher):
    """Wait until the flusher thread has emptied the queue.  The writer
    never empties it (it flushes only down to ``max_immutable_memtables``),
    so after a rotation only the worker can, and it counts each flush once
    the step returns."""
    _wait_for(lambda: not flusher.db.immutables and flusher.flushes_run >= 1)


def test_drain_compacts_over_capacity_levels():
    store = _pipelined_store()
    for i in range(400):
        store.put(*kv(i))
    compactions = store.db.stats.compactions
    assert store.db.drain_immutables() >= 1
    assert store.db.stats.compactions > compactions
    for level in store.db.level_indices():
        run = store.db.level_run(level)
        assert not store.db._over_capacity(level, run.total_bytes)
    assert store.get(kv(123)[0]) == kv(123)[1]


def test_background_thread_compacts_while_clients_operate():
    store = _pipelined_store()
    model = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        with BackgroundFlusher(store.db) as flusher:
            for i in range(600):
                key, value = kv(i % 150, version=i // 150)
                store.put(key, value)
                model[key] = value
                if i % 3 == 0:  # a verified read while the worker flushes
                    probe = kv(i * 7 % 150)[0]
                    assert store.get_verified(probe).value == model.get(probe)
                if i % 40 == 0:
                    flusher.nudge()
            _drained_by(flusher)
    finally:
        sys.setswitchinterval(interval)
    # Compactions ran before the final foreground flush: the cascade of
    # the flushes on the worker and on the writer's overflow path.
    assert store.db.stats.compactions >= 1
    assert not flusher.errors
    assert flusher.health()["status"] == "ok"
    store.flush()
    for key, value in model.items():
        assert store.get(key) == value
    assert store.audit().clean


def test_registry_consistent_after_background_churn():
    store = _pipelined_store()
    with BackgroundFlusher(store.db) as flusher:
        for i in range(500):
            store.put(*kv(i))
        _drained_by(flusher)
    assert store.registry.nonempty_levels() == store.db.level_indices()
    assert store.audit(check_embedded_proofs=False).clean


def test_compaction_off_store_is_never_compacted():
    store = _pipelined_store(compaction=False)
    with BackgroundFlusher(store.db) as flusher:
        for i in range(400):
            store.put(*kv(i))
        _drained_by(flusher)
    store.flush()
    assert store.db.stats.compactions == 0
    # Every flush stacked its own level and none was merged away.
    assert len(store.db.level_indices()) == store.db.stats.flushes
    assert store.audit().clean


def test_double_start_rejected():
    store = _pipelined_store()
    flusher = BackgroundFlusher(store.db).start()
    try:
        with pytest.raises(RuntimeError):
            flusher.start()
    finally:
        flusher.stop()


def test_stop_is_idempotent():
    store = _pipelined_store()
    flusher = BackgroundFlusher(store.db).start()
    flusher.stop()
    flusher.stop()  # no error
    assert flusher.health()["running"] is False


# ---------------------------------------------------------------------------
# Error surfacing: no silently swallowed worker failures
# ---------------------------------------------------------------------------


def test_worker_error_surfaces_in_health_metric_and_event():
    store = _pipelined_store()
    _fill_until_rotation(store)
    # Every SSTable write fails for good: the flush degrades the store.
    FaultPlan().attach(store.disk).fail("*", "*.sst", times=None, transient=False)
    worker = BackgroundFlusher(store.db).start()
    try:
        _wait_for(lambda: worker.error_count >= 1)
    finally:
        worker.stop()
    health = worker.health()
    assert health["status"] == "failed"
    assert health["kind"] == "flusher"
    assert health["error_count"] == 1
    assert "degraded" in health["errors"][0]
    assert worker.flushes_run == 0
    errors = store.telemetry.metrics.counter("lsm.background.errors")
    assert errors.value(kind="flusher") == 1
    events = [
        event
        for event in store.telemetry.events.export()
        if event["kind"] == "lsm.background.error"
    ]
    assert len(events) == 1
    assert events[0]["worker"] == "flusher"
    assert "degraded" in events[0]["error"]
    assert events[0]["error_count"] == 1


def test_error_ring_is_bounded_but_count_is_not():
    store = _pipelined_store()
    worker = BackgroundFlusher(store.db)
    for i in range(40):
        worker._record_error(RuntimeError("fault %d" % i))
    assert worker.error_count == 40
    assert len(worker.errors) == 16  # ring evicts, metric keeps the truth
    assert "fault 39" in repr(worker.errors[-1])
    errors = store.telemetry.metrics.counter("lsm.background.errors")
    assert errors.value(kind="flusher") == 40
    assert worker.health()["status"] == "failed"


def test_healthy_worker_reports_ok():
    store = _pipelined_store()
    worker = BackgroundFlusher(store.db)
    health = worker.health()
    assert health["status"] == "ok"
    assert health["kind"] == "flusher"
    assert health["running"] is False
    assert health["error_count"] == 0
    assert health["errors"] == []


# ---------------------------------------------------------------------------
# Draining the pipelined immutable queue
# ---------------------------------------------------------------------------


def test_flusher_drain_empties_immutable_queue():
    store = _pipelined_store()
    written = _fill_until_rotation(store)
    with BackgroundFlusher(store.db) as flusher:
        _drained_by(flusher)
    for i in range(0, written, 13):
        assert store.get(kv(i)[0]) == kv(i)[1]
    assert store.audit().clean


def test_flusher_thread_drains_while_writers_continue():
    store = _pipelined_store()
    with BackgroundFlusher(store.db) as flusher:
        for i in range(400):
            store.put(*kv(i))
            if i % 60 == 0:
                flusher.nudge()
        _drained_by(flusher)
    assert not flusher.errors
    assert flusher.health()["status"] == "ok"
    for i in range(0, 400, 29):
        assert store.get(kv(i)[0]) == kv(i)[1]


def test_flusher_step_is_noop_when_queue_empty():
    store = _pipelined_store()
    assert store.db.flush_oldest_immutable() is False
    with BackgroundFlusher(store.db) as flusher:
        flusher.nudge()
        time.sleep(0.02)
    assert flusher.flushes_run == 0
    assert store.db.stats.flushes == 0
    assert flusher.health()["status"] == "ok"
