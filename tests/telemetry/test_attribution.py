"""Cost attribution: the exactness invariant and the paper's cost story.

The attribution layer promises that at any quiescent point (no open
spans) the sum of root-span inclusive ledgers plus the unattributed
ledger reproduces the SimClock's per-category totals *exactly* — not
within a tolerance, but ±0 — and that an exported trace alone suffices
to reproduce the MULTIGET finding (batched GET cost is dominated by
boundary + proof work).
"""

import random

import pytest

from repro.telemetry.tracing import Tracer
from repro.telemetry.trace_export import to_chrome_trace
from repro.telemetry.trace_report import build_report
from tests.conftest import kv, make_p1_store, make_p2_store


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Tracer-level unit behaviour
# ----------------------------------------------------------------------


def test_charge_lands_in_innermost_span():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer") as outer:
        tracer.on_charge("ecall", 8.0)
        with tracer.span("inner") as inner:
            tracer.on_charge("hash", 2.0)
        tracer.on_charge("ocall", 3.0)
    assert inner.self_cost.us == {"hash": 2.0}
    assert outer.self_cost.us == {"ecall": 8.0, "ocall": 3.0}
    # The child's inclusive ledger folded into the parent at close.
    assert outer.inclusive().us == {"ecall": 8.0, "ocall": 3.0, "hash": 2.0}


def test_charge_outside_spans_is_unattributed_not_lost():
    tracer = Tracer()
    tracer.on_charge("fsync", 5.0)
    tracer.charge_resource("proof.bytes", 64)
    assert tracer.unattributed.us == {"fsync": 5.0}
    assert tracer.unattributed.resource("proof.bytes") == 64
    assert tracer.attributed_total().us == {"fsync": 5.0}


def test_root_total_survives_ring_buffer_eviction():
    tracer = Tracer(capacity=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            tracer.on_charge("ecall", 1.0)
    assert tracer.dropped == 3
    # Evicted spans' costs are still accounted in root_total.
    assert tracer.root_total.us == {"ecall": 5.0}
    assert tracer.attributed_total().us == {"ecall": 5.0}


def test_attributed_total_includes_open_span_partials():
    tracer = Tracer()
    cm = tracer.span("open")
    cm.__enter__()
    tracer.on_charge("ecall", 8.0)
    assert tracer.attributed_total().us == {"ecall": 8.0}
    cm.__exit__(None, None, None)
    assert tracer.attributed_total().us == {"ecall": 8.0}


def test_simclock_attribution_has_a_single_owner():
    """Two tracers over one clock: the latest hook wins, charges are
    delivered exactly once (the reopened-store scenario)."""
    from repro.sim.clock import SimClock

    clock = SimClock()
    first, second = Tracer(), Tracer()
    clock.set_attribution(first.on_charge)
    clock.set_attribution(second.on_charge)
    clock.charge("ecall", 8.0)
    assert first.attributed_total().us == {}
    assert second.attributed_total().us == {"ecall": 8.0}
    assert clock.breakdown() == {"ecall": 8.0}


# ----------------------------------------------------------------------
# Whole-store exactness (the acceptance invariant)
# ----------------------------------------------------------------------


# "±0" up to float summation order: the ledger folds per-span subtotals
# in a different association order than the clock's single accumulator,
# so the last bits can differ.  Any genuinely lost charge is >= 0.01 us
# and would miss this bound by orders of magnitude.
EXACT = dict(rel=1e-9, abs=1e-9)


def _assert_exact(store):
    """attributed ledger == clock breakdown, category-wise, ±0."""
    attributed = store.telemetry.tracer.attributed_total()
    breakdown = store.clock.breakdown()
    assert set(attributed.us) == set(breakdown)
    for category, micros in breakdown.items():
        assert attributed.us[category] == pytest.approx(micros, **EXACT), category


def test_exactness_invariant_on_a_worked_store():
    """A YCSB-style mixed run: every simulated microsecond the clock
    charged is attributed to a span or the unattributed ledger, ±0."""
    store = make_p2_store()
    rng = random.Random(7)
    keys = []
    for i in range(80):
        key, value = kv(i)
        store.put(key, value)
        keys.append(key)
    store.flush()
    for _ in range(40):
        store.get(rng.choice(keys))
    store.multi_get_verified(rng.sample(keys, 16))
    store.scan(b"key000010", b"key000030")
    store.compact_all()
    store.get(b"missing-key")
    _assert_exact(store)
    # And the totals are real work, not an empty-ledger tautology.
    assert store.telemetry.tracer.attributed_total().total_us() > 0


def test_exactness_invariant_survives_reopen():
    """A second store over the same clock/disk takes over attribution;
    nothing is double-counted and the invariant holds for the pair."""
    store = make_p2_store()
    for i in range(30):
        store.put(*kv(i))
    store.flush()
    store.persist_seal()
    reopened = make_p2_store(
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    reopened.get(kv(3)[0])
    merged = store.telemetry.tracer.attributed_total()
    merged.merge(reopened.telemetry.tracer.attributed_total())
    breakdown = store.clock.breakdown()
    assert set(merged.us) == set(breakdown)
    for category, micros in breakdown.items():
        assert merged.us[category] == pytest.approx(micros, **EXACT), category


def test_multiget_cost_is_boundary_plus_proof_from_trace_alone():
    """Reproduce the MULTIGET finding from an exported trace: >=80% of a
    batched verified GET's cost is boundary crossings + proof work."""
    store = make_p2_store()
    keys = []
    for i in range(120):
        key, value = kv(i)
        store.put(key, value)
        keys.append(key)
    store.flush()
    store.compact_all()
    batch = keys[::3]
    result = store.multi_get_verified(batch)
    assert len(result.values) == len(batch)
    report = build_report([to_chrome_trace([store.telemetry.trace_source()])])
    attr = report.attribution("elsm.multi_get")
    assert attr["inclusive_us"] > 0
    assert attr["boundary_proof_pct"] >= 80.0
    assert attr["proof_bytes"] > 0
    assert attr["ecalls"] >= 1


def test_span_resources_attribute_proof_bytes():
    store = make_p2_store()
    for i in range(20):
        store.put(*kv(i))
    store.flush()
    store.get(kv(5)[0])
    spans = [s for s in store.telemetry.tracer.spans if s.name == "elsm.get"]
    assert spans
    assert spans[-1].inclusive().resource("proof.bytes") > 0


@pytest.mark.parametrize("make_store", [make_p2_store, make_p1_store])
def test_delete_charges_land_in_its_own_span(make_store):
    """A DELETE's ECall and WAL append belong to ``elsm.delete``: the
    span wraps the ECall, so nothing leaks into ``unattributed``."""
    store = make_store(write_buffer_bytes=1 << 20)
    store.put(*kv(1))
    tracer = store.telemetry.tracer
    unattributed = dict(tracer.unattributed.us)
    start = store.clock.now_us
    store.delete(kv(1)[0])
    span = tracer.spans[-1]
    assert span.name == "elsm.delete"
    ledger = span.inclusive().us
    assert ledger["ecall"] > 0  # the boundary crossing
    assert ledger["ocall"] > 0 and ledger["kernel_write"] > 0  # WAL append
    assert span.inclusive().total_us() == pytest.approx(
        store.clock.now_us - start
    )
    assert dict(tracer.unattributed.us) == unattributed


def test_encrypted_delete_charges_the_key_cipher():
    store = make_p2_store(encryption_mode="de", secret=b"s" * 16)
    store.put(*kv(1))
    cipher_bytes = store.telemetry.counter("enclave.cipher.bytes")
    before = cipher_bytes.total()
    store.delete(kv(1)[0])
    assert cipher_bytes.total() - before == len(kv(1)[0])
    assert store.telemetry.tracer.spans[-1].inclusive().us["crypto"] > 0
    assert store.get(kv(1)[0]) is None
