"""TelemetryHub merge semantics: metrics, span id-spaces, cost ledgers."""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.ledger import CostLedger
from tests.conftest import kv, make_p2_store


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, us):
        self.now += us


def _collecting_hub(count=2):
    """A private hub holding ``count`` fresh telemetry instances."""
    hub = TelemetryHub()
    hub.activate()
    instances = []
    for _ in range(count):
        telemetry = Telemetry(clock=FakeClock())
        hub.register(telemetry)
        instances.append(telemetry)
    return hub, instances


def _merged_ledger(hub):
    """Every collected store's attributed costs, summed from the trace
    sources a ``--trace-out`` export writes (roots + unattributed)."""
    total = CostLedger()
    for source in hub.trace_sources():
        total.merge(CostLedger.from_dict(source["root_total"]))
        total.merge(CostLedger.from_dict(source["unattributed"]))
    return total


def test_inactive_hub_retains_nothing():
    hub = TelemetryHub()
    hub.register(Telemetry())
    assert hub.merged_snapshot() == {}
    assert hub.spans() == []
    assert hub.events() == []
    assert hub.trace_sources() == []


def test_merged_snapshot_sums_counters_across_stores():
    hub, (a, b) = _collecting_hub()
    a.counter("wal.appends", "appends").inc(3)
    b.counter("wal.appends", "appends").inc(4)
    b.counter("only.in.b", "b-only").inc(1)
    snapshot = hub.merged_snapshot()
    assert snapshot["wal.appends"]["series"] == [{"labels": {}, "value": 7}]
    assert snapshot["only.in.b"]["series"] == [{"labels": {}, "value": 1}]


def test_merged_spans_have_disjoint_id_spaces():
    hub, (a, b) = _collecting_hub()
    for telemetry in (a, b):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
    merged = hub.spans()
    span_ids = [span["span_id"] for span in merged]
    assert len(span_ids) == len(set(span_ids)), "span ids alias across stores"
    # Parent links stay intact inside each store after rebasing.
    by_id = {span["span_id"]: span for span in merged}
    for span in merged:
        if span["parent_id"] is not None:
            parent = by_id[span["parent_id"]]
            assert parent["store"] == span["store"]
            assert parent["name"] == "outer"
    # Trace ids are rebased with the same offsets, so they stay disjoint.
    stores_by_trace = {}
    for span in merged:
        stores_by_trace.setdefault(span["trace_id"], set()).add(span["store"])
    for stores in stores_by_trace.values():
        assert len(stores) == 1


def test_merged_events_tagged_with_store():
    hub, (a, b) = _collecting_hub()
    a.emit("lsm.degraded", op="flush")
    b.emit("store.recovered", replayed=3)
    events = hub.events()
    assert [(e["store"], e["kind"]) for e in events] == [
        (0, "lsm.degraded"),
        (1, "store.recovered"),
    ]


def test_merged_ledger_sums_attributed_costs():
    hub, (a, b) = _collecting_hub()
    with a.span("work"):
        a.tracer.on_charge("ecall", 8.0)
    b.tracer.on_charge("hash", 2.0)  # unattributed in b
    ledger = _merged_ledger(hub)
    assert ledger.us == {"ecall": 8.0, "hash": 2.0}


def test_dropped_spans_summed():
    hub, (a, b) = _collecting_hub()
    a.tracer.dropped = 2
    b.tracer.dropped = 5
    assert hub.dropped_spans() == 7


def test_trace_sources_one_per_store_with_labels():
    hub, _ = _collecting_hub(3)
    sources = hub.trace_sources()
    assert [s["label"] for s in sources] == ["store-1", "store-2", "store-3"]


def test_hub_ledger_matches_clock_totals_for_real_stores():
    """Hub-level exactness: the merged ledger of two independent stores
    equals the sum of their clocks' per-category totals, ±0."""
    stores = [make_p2_store(), make_p2_store()]
    hub = TelemetryHub()
    hub.activate()
    for store in stores:
        hub.register(store.telemetry)
    for index, store in enumerate(stores):
        for i in range(20):
            store.put(*kv(i + 100 * index))
        store.flush()
        store.get(kv(3 + 100 * index)[0])
    merged = _merged_ledger(hub)
    expected = {}
    for store in stores:
        for category, micros in store.clock.breakdown().items():
            expected[category] = expected.get(category, 0.0) + micros
    assert set(merged.us) == set(expected)
    # Exact up to float summation order (see tests/telemetry/test_attribution.py).
    for category, micros in expected.items():
        assert merged.us[category] == pytest.approx(micros, rel=1e-9), category
    hub.deactivate()
