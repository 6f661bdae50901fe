"""Graded health: overload entry/recovery, events, and salted filters.

Exercises the recoverable ``overloaded`` state end to end at the store
API — a hot-key flood (concentrated volleys from sybil clients) pushes
the store into ``overloaded``; once the flood stops, the next admitted
operation flips it back to ``ok``.  The transitions must land in the
structured event log with span/trace ids so operators can correlate
them with the requests that caused them, and the salted Bloom filters
must survive a seal/recover cycle keyed exactly as before.
"""

import pytest

from repro.core.admission import AdmissionShedError
from repro.lsm.db import StoreDegradedError
from tests.conftest import kv, make_p2_store


def flooded_store(**admission_overrides):
    """A small store with a tight admission budget, primed for overload."""
    store = make_p2_store()
    for i in range(40):
        store.put(*kv(i))
    store.flush()
    params = dict(
        rate_per_s=50_000.0,
        burst=64.0,
        global_rate_per_s=20_000.0,
        global_burst=8.0,
        recover_tokens=4.0,
    )
    params.update(admission_overrides)
    store.enable_admission(**params)
    return store


def flood(store, clients=4, ops=32):
    """Volley writes of one hot key from several sybil identities."""
    shed = 0
    for i in range(ops):
        store.set_client(f"sybil-{i % clients}")
        try:
            store.put(*kv(0, version=i + 1))
        except AdmissionShedError:
            shed += 1
    return shed


def test_hot_key_flood_enters_overload_and_recovers_to_ok():
    store = flooded_store()
    assert store.health()["status"] == "ok"

    shed = flood(store)
    assert shed > 0
    health = store.health()
    assert health["status"] == "overloaded"
    assert not health["read_only"]  # overload is not the terminal state
    assert "budget exhausted" in health["reason"]

    # The flood stops; idle refill past the recovery level means the
    # next admitted operation flips the store back to ok.
    store.clock.charge("idle", 2_000.0)
    store.set_client("honest")
    store.get(kv(1)[0])
    health = store.health()
    assert health["status"] == "ok"
    assert health["reason"] is None


def test_overload_transitions_land_in_the_structured_event_log():
    store = flooded_store()
    flood(store)
    store.clock.charge("idle", 2_000.0)
    store.set_client("honest")
    store.get(kv(1)[0])

    events = store.telemetry.events.export()
    entered = [e for e in events if e["kind"] == "lsm.overloaded"]
    recovered = [e for e in events if e["kind"] == "lsm.overload.recovered"]
    assert entered and recovered
    # Both transition events fire inside the op's span, so they carry
    # span/trace ids that correlate them with the triggering request.
    for event in entered + recovered:
        assert event["span_id"] is not None
        assert event["trace_id"] is not None
        assert event["reason"]
    assert "sybil" in entered[0]["reason"]


def test_overload_transition_metric_counts_both_directions():
    store = flooded_store()
    flood(store)
    store.clock.charge("idle", 2_000.0)
    store.set_client("honest")
    store.get(kv(1)[0])
    series = store.telemetry.metrics.snapshot()["lsm.overload.transitions"][
        "series"
    ]
    by_state = {s["labels"]["state"]: s["value"] for s in series}
    assert by_state.get("entered", 0) >= 1
    assert by_state.get("recovered", 0) >= 1


def test_shed_during_overload_is_retryable_not_degraded():
    store = flooded_store()
    flood(store)
    store.set_client("honest")
    with pytest.raises(AdmissionShedError) as excinfo:
        store.put(*kv(2))
    assert not isinstance(excinfo.value, StoreDegradedError)
    assert excinfo.value.retry_after_us >= 1
    # Honouring the hint is sufficient to get served again.
    store.clock.charge("backoff", float(excinfo.value.retry_after_us))
    store.put(*kv(2))
    assert store.health()["status"] == "ok"


def test_degraded_event_also_carries_span_ids():
    # The terminal path (PR 2) must stay observable the same way the
    # recoverable path is: structured event, span/trace ids, reason.
    from repro.faults import FaultPlan

    store = make_p2_store()
    store.put(*kv(0))
    plan = FaultPlan().attach(store.disk)
    plan.fail("append", "p2/wal.log*", times=None, transient=False)
    with pytest.raises(StoreDegradedError):
        store.put(*kv(1))
    events = [
        e
        for e in store.telemetry.events.export()
        if e["kind"] == "lsm.degraded"
    ]
    assert events
    assert events[0]["span_id"] is not None
    assert events[0]["trace_id"] is not None
    health = store.health()
    assert health["status"] == "degraded"
    assert health["read_only"]
    assert health["reason"]


def test_hot_group_writes_price_quadratically_at_the_door():
    store = make_p2_store()
    store.enable_admission(50_000.0, burst=1_000.0)
    store.set_client("writer")
    base = store._hot_write_cost(store.codec.encode_key(kv(0)[0]))
    assert base == 1.0
    for i in range(3 * store.HOT_GROUP_THRESHOLD):
        store.put(*kv(0, version=i + 1))
    grown = store._hot_write_cost(store.codec.encode_key(kv(0)[0]))
    assert grown > 1.0  # oversized groups pay more than fresh keys
    assert store._hot_write_cost(store.codec.encode_key(kv(7)[0])) == 1.0


# ----------------------------------------------------------------------
# Salted filters through seal/recovery
# ----------------------------------------------------------------------
def test_bloom_salt_round_trips_through_seal_and_recovery():
    store = make_p2_store(
        rollback_protection=True,
        autoseal=True,
    )
    assert store.salted_bloom
    salt = store.db.config.bloom_salt
    assert len(salt) > 0
    for i in range(60):
        store.put(*kv(i))
    store.flush()
    store.persist_seal()

    reopened = make_p2_store(
        rollback_protection=True,
        autoseal=True,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    # The sealed salt wins over the fresh one drawn at construction:
    # every filter rebuilt from public file bytes is keyed as before.
    assert reopened.db.config.bloom_salt == salt
    for i in range(60):
        key, value = kv(i)
        record = reopened.get_verified(key)
        assert record is not None and record.value == value


def test_unkeyed_store_recovery_stays_unkeyed():
    store = make_p2_store(
        salted_bloom=False,
        rollback_protection=True,
        autoseal=True,
    )
    assert store.db.config.bloom_salt == b""
    for i in range(30):
        store.put(*kv(i))
    store.flush()
    store.persist_seal()
    reopened = make_p2_store(
        salted_bloom=False,
        rollback_protection=True,
        autoseal=True,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    assert reopened.db.config.bloom_salt == b""
