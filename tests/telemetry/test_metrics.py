"""MetricsRegistry: instruments, labels, snapshot/diff, renderers."""

import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Counters & gauges
# ----------------------------------------------------------------------
def test_counter_inc_and_total(registry):
    c = registry.counter("ops", "operations", labels=("op",))
    c.inc(op="get")
    c.inc(2, op="put")
    assert c.value(op="get") == 1
    assert c.value(op="put") == 2
    assert c.total() == 3


def test_counter_rejects_decrease(registry):
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_counter_label_mismatch_raises(registry):
    c = registry.counter("ops", labels=("op",))
    with pytest.raises(ValueError):
        c.inc(kind="get")
    with pytest.raises(ValueError):
        c.inc()  # missing the label entirely


def test_unlabelled_counter_rejects_labels(registry):
    c = registry.counter("c")
    with pytest.raises(ValueError):
        c.inc(op="x")
    c.inc()
    assert c.value() == 1


def test_counter_rejects_nan(registry):
    c = registry.counter("c", labels=("op",))
    with pytest.raises(ValueError):
        c.inc(math.nan, op="get")
    assert c.to_snapshot()["series"] == []


def test_bind_checks_labels_once(registry):
    c = registry.counter("ops", labels=("op",))
    with pytest.raises(ValueError):
        c.bind(kind="get")  # wrong label
    with pytest.raises(ValueError):
        c.bind()  # missing label
    with pytest.raises(ValueError):
        registry.counter("plain").bind(op="get")  # unlabelled counter


def test_bound_counter_rejects_negative_and_nan(registry):
    bound = registry.counter("ops", labels=("op",)).bind(op="get")
    with pytest.raises(ValueError):
        bound.inc(-1)
    with pytest.raises(ValueError):
        bound.inc(math.nan)
    assert registry.counter("ops").value(op="get") == 0


def test_bound_series_appears_only_after_first_inc(registry):
    c = registry.counter("ops", labels=("op",))
    bound = c.bind(op="get")
    assert c.to_snapshot()["series"] == []
    bound.inc(0)
    assert c.to_snapshot()["series"] == [{"labels": {"op": "get"}, "value": 0.0}]


def test_bound_and_labelled_increments_share_a_series(registry):
    c = registry.counter("ops", labels=("op",))
    bound = c.bind(op="get")
    bound.inc()
    c.inc(2, op="get")
    bound.inc(0.5)
    c.inc(op="put")
    assert c.value(op="get") == 3.5
    assert c.to_snapshot()["series"] == [
        {"labels": {"op": "get"}, "value": 3.5},
        {"labels": {"op": "put"}, "value": 1.0},
    ]
    unlabelled = registry.counter("plain")
    unlabelled.bind().inc(2)
    unlabelled.inc()
    assert unlabelled.value() == 3


def test_get_or_create_returns_same_instrument(registry):
    assert registry.counter("x") is registry.counter("x")


def test_kind_conflict_raises(registry):
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_label_conflict_raises(registry):
    registry.counter("x", labels=("a",))
    with pytest.raises(ValueError):
        registry.counter("x", labels=("b",))
    # Label-free lookup of an existing labelled metric is allowed.
    assert registry.counter("x").label_names == ("a",)


def test_gauge_set_inc_dec(registry):
    g = registry.gauge("resident")
    g.set(100)
    g.inc(10)
    g.inc(-30)
    assert g.value() == 80


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
def test_histogram_bucket_boundaries(registry):
    h = registry.histogram("lat", buckets=(10, 20, 50))
    # A value exactly on a bound lands in that bucket (le semantics).
    for v in (5, 10, 11, 20, 49, 50, 51, 1000):
        h.observe(v)
    series = h.to_snapshot()["series"][0]
    assert series["counts"] == [2, 2, 2, 2]  # <=10, <=20, <=50, overflow
    assert series["count"] == 8
    assert series["min"] == 5
    assert series["max"] == 1000
    assert series["sum"] == sum((5, 10, 11, 20, 49, 50, 51, 1000))


@st.composite
def _bounds_and_values(draw):
    bounds = sorted(
        draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=1,
                max_size=12,
                unique=True,
            )
        )
    )
    value = st.one_of(
        st.sampled_from(bounds),  # exactly on a bound
        st.just(bounds[0] - 1.0),  # below the first
        st.just(bounds[-1] + 1.0),  # above the last
        st.sampled_from([math.inf, -math.inf]),
        st.integers(-(10**7), 10**7),
        st.floats(allow_nan=False),
    )
    return bounds, draw(st.lists(value, min_size=1, max_size=8))


@given(_bounds_and_values())
@example(([10.0, 20.0, 50.0], [10, 20.0, 50, 9.5, 51, -math.inf, math.inf]))
def test_histogram_bucket_is_first_bound_at_or_above(case):
    """A value lands in the bucket of the first bound >= it; a value
    above every bound lands in the overflow bucket."""
    bounds, values = case
    h = Histogram("h", buckets=bounds)
    expected = [0] * (len(bounds) + 1)
    for value in values:
        h.observe(value)
        index = next((i for i, b in enumerate(bounds) if value <= b), len(bounds))
        expected[index] += 1
    assert h.to_snapshot()["series"][0]["counts"] == expected


def test_histogram_rejects_nan(registry):
    h = registry.histogram("lat", buckets=(10, 20))
    with pytest.raises(ValueError):
        h.observe(math.nan)
    assert h.count() == 0


def test_histogram_needs_sorted_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(5, 3, 10))


def test_histogram_percentile_from_buckets(registry):
    h = registry.histogram("lat", buckets=(10, 100, 1000))
    for _ in range(99):
        h.observe(7)
    h.observe(500)
    assert h.percentile(50) == 10  # bucket upper bound (conservative)
    assert h.percentile(100) == 1000
    assert h.percentile(0) == 7  # exact min is tracked


def test_histogram_exact_percentile_with_samples():
    h = Histogram("lat", buckets=(1000,), track_samples=True)
    for v in range(1, 101):
        h.observe(v)
    assert h.percentile(50) == 50
    assert h.percentile(99) == 99
    assert h.percentile(0) == 1


def test_histogram_merge():
    a = Histogram("lat", buckets=(10, 100), track_samples=True)
    b = Histogram("lat", buckets=(10, 100), track_samples=True)
    a.observe(5)
    b.observe(50)
    b.observe(500)
    a.merge(b)
    assert a.count() == 3
    assert a.percentile(0) == 5
    assert a.to_snapshot()["series"][0]["counts"] == [1, 1, 1]


def test_histogram_merge_shape_mismatch():
    a = Histogram("lat", buckets=(10,))
    b = Histogram("lat", buckets=(20,))
    with pytest.raises(ValueError):
        a.merge(b)


# ----------------------------------------------------------------------
# Snapshot / diff / merge
# ----------------------------------------------------------------------
def test_snapshot_is_json_serialisable(registry):
    registry.counter("ops", labels=("op",)).inc(op="get")
    registry.gauge("g").set(3)
    registry.histogram("h", buckets=(1, 2)).observe(1.5)
    snap = registry.snapshot()
    rehydrated = json.loads(json.dumps(snap))
    assert rehydrated == snap
    assert snap["ops"]["type"] == "counter"
    assert snap["h"]["buckets"] == [1, 2]


def test_diff_counters_and_gauges(registry):
    c = registry.counter("ops", labels=("op",))
    g = registry.gauge("g")
    h = registry.histogram("h", buckets=(10,))
    c.inc(5, op="get")
    g.set(1)
    h.observe(3)
    before = registry.snapshot()
    c.inc(2, op="get")
    c.inc(1, op="put")  # new series, absent from `before`
    g.set(9)
    h.observe(4)
    delta = diff_snapshots(before, registry.snapshot())
    by_op = {s["labels"]["op"]: s["value"] for s in delta["ops"]["series"]}
    assert by_op == {"get": 2, "put": 1}
    assert delta["g"]["series"][0]["value"] == 9  # gauges keep new value
    assert delta["h"]["series"][0]["count"] == 1
    assert delta["h"]["series"][0]["sum"] == 4


def test_diff_standalone_function():
    assert diff_snapshots({}, {}) == {}


def test_merge_snapshots_sums_counters():
    r1, r2 = MetricsRegistry(), MetricsRegistry()
    r1.counter("ops", labels=("op",)).inc(3, op="get")
    r2.counter("ops", labels=("op",)).inc(4, op="get")
    r2.counter("ops", labels=("op",)).inc(1, op="put")
    r1.histogram("h", buckets=(10,)).observe(2)
    r2.histogram("h", buckets=(10,)).observe(20)
    merged = merge_snapshots([r1.snapshot(), r2.snapshot()])
    by_op = {s["labels"]["op"]: s["value"] for s in merged["ops"]["series"]}
    assert by_op == {"get": 7, "put": 1}
    h = merged["h"]["series"][0]
    assert h["count"] == 2
    assert h["counts"] == [1, 1]
    assert h["min"] == 2 and h["max"] == 20


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
def test_render_prometheus(registry):
    registry.counter("enclave.ecalls", "entries", labels=("call",)).inc(
        3, call="get"
    )
    registry.histogram("proof.get.bytes", buckets=(64, 256)).observe(100)
    text = render_prometheus(registry.snapshot())
    assert '# TYPE enclave_ecalls counter' in text
    assert 'enclave_ecalls{call="get"} 3' in text
    assert 'proof_get_bytes_bucket{le="64"} 0' in text
    assert 'proof_get_bytes_bucket{le="256"} 1' in text
    assert 'proof_get_bytes_bucket{le="+Inf"} 1' in text
    assert 'proof_get_bytes_count 1' in text
    assert text.endswith("\n")
