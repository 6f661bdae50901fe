"""Metric instruments and the registry that owns them.

The registry is the single schema for everything the eLSM stack counts:
boundary crossings, proof bytes, compaction work, cache behaviour.  Three
instrument kinds cover the paper's evaluation needs:

* :class:`Counter` — monotonically increasing totals (ecalls, WAL bytes);
* :class:`Gauge` — point-in-time values (enclave bytes resident);
* :class:`Histogram` — fixed-bucket distributions (proof bytes, span
  durations) with an exact min/max/sum and optional raw-sample tracking
  for the YCSB percentile path.

Every instrument supports labels (e.g. ``cache.hits{region=...}``), and a
snapshot is a plain JSON-serialisable dict so ``--metrics-out`` can dump
it directly.  :func:`diff_snapshots` subtracts two snapshots, which is how
experiments attribute cost to a single phase of a run, and
:func:`render_prometheus` emits the conventional text exposition format.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

#: Default bucket upper bounds for simulated-microsecond durations.
DURATION_BUCKETS_US: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 500_000, 1_000_000,
)

#: Default bucket upper bounds for byte sizes (proofs, copies, IO).
SIZE_BUCKETS_BYTES: tuple[float, ...] = (
    64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192,
    16_384, 65_536, 262_144, 1_048_576,
)

#: Alias used by the YCSB latency path (see repro.ycsb.stats).
LATENCY_BUCKETS_US = DURATION_BUCKETS_US


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Instrument:
    """Shared identity and label bookkeeping for all instrument kinds."""

    kind = "untyped"

    def __init__(
        self, name: str, description: str = "", labels: Iterable[str] = ()
    ) -> None:
        self.name = name
        self.description = description
        self.label_names = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        return _label_key(self.label_names, labels)

    def _series_dicts(self) -> list[dict]:
        raise NotImplementedError

    def to_snapshot(self) -> dict:
        """This instrument's contribution to a registry snapshot."""
        entry = {
            "type": self.kind,
            "description": self.description,
            "labels": list(self.label_names),
            "series": self._series_dicts(),
        }
        return entry


class Counter(_Instrument):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(
        self, name: str, description: str = "", labels: Iterable[str] = ()
    ) -> None:
        super().__init__(name, description, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0, not NaN) to the labelled series."""
        if not amount >= 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        # The unlabelled series needs no matching; any mismatch still raises.
        key = self._key(labels) if labels or self.label_names else ()
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def bind(self, **labels: str) -> "BoundCounter":
        """A handle on one labelled series, its labels matched once here.

        Per-operation call sites bind at construction and then call
        ``inc(amount)`` on the handle.  Binding creates no series: it
        shows in a snapshot from its first increment on, exactly as with
        ``inc(**labels)``.
        """
        return BoundCounter(self, self._key(labels))

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def _series_dicts(self) -> list[dict]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(self._values.items())
        ]


class BoundCounter:
    """One series of a :class:`Counter`, from :meth:`Counter.bind`.

    ``inc`` adds to the series under the counter's lock, with the same
    float addition as :meth:`Counter.inc` and no label matching.
    """

    __slots__ = ("counter", "key")

    def __init__(self, counter: Counter, key: tuple[str, ...]) -> None:
        self.counter = counter
        self.key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0, not NaN) to the bound series."""
        counter = self.counter
        if not amount >= 0:
            raise ValueError(f"counter {counter.name} cannot decrease ({amount})")
        key = self.key
        with counter._lock:
            counter._values[key] = counter._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value that can move in both directions."""

    kind = "gauge"

    def __init__(
        self, name: str, description: str = "", labels: Iterable[str] = ()
    ) -> None:
        super().__init__(name, description, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the labelled series with ``value``."""
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labelled series (0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def _series_dicts(self) -> list[dict]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(self._values.items())
        ]


class _HistogramSeries:
    """Bucket counts plus exact sum/count/min/max for one label set."""

    __slots__ = ("counts", "sum", "count", "min", "max", "samples")

    def __init__(self, n_buckets: int, track_samples: bool) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 for the overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] | None = [] if track_samples else None


class Histogram(_Instrument):
    """Fixed-bucket distribution; bucket ``i`` counts values <= bounds[i].

    Values above the last bound land in the overflow bucket.  With
    ``track_samples=True`` the raw observations are retained so exact
    percentiles can be computed (the YCSB latency path); registry
    snapshots never include raw samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = DURATION_BUCKETS_US,
        labels: Iterable[str] = (),
        track_samples: bool = False,
    ) -> None:
        super().__init__(name, description, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name} needs ascending bucket bounds")
        self.bounds = bounds
        self.track_samples = track_samples
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def _get_series(self, key: tuple[str, ...]) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.bounds), self.track_samples)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation (not NaN) into the labelled series."""
        if math.isnan(value):
            raise ValueError(f"histogram {self.name} cannot observe NaN")
        # The unlabelled series needs no matching; any mismatch still raises.
        key = self._key(labels) if labels or self.label_names else ()
        # The first bound >= value; past the last bound is overflow.
        index = bisect_left(self.bounds, value)
        with self._lock:
            series = self._get_series(key)
            series.counts[index] += 1
            series.sum += value
            series.count += 1
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value
            if series.samples is not None:
                series.samples.append(value)

    def count(self, **labels: str) -> int:
        """Observations recorded into one labelled series."""
        series = self._series.get(self._key(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        """Sum of observations in one labelled series."""
        series = self._series.get(self._key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: str) -> float:
        """Arithmetic mean of one labelled series (0 when empty)."""
        series = self._series.get(self._key(labels))
        if not series or series.count == 0:
            return 0.0
        return series.sum / series.count

    def percentile(self, p: float, **labels: str) -> float:
        """Nearest-rank percentile.

        Exact when the series tracks raw samples; otherwise the upper
        bound of the bucket containing the rank (conservative).
        ``p <= 0`` returns the minimum observation by definition.
        """
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return 0.0
        if p <= 0:
            return series.min
        if series.samples is not None:
            ordered = sorted(series.samples)
            rank = min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1)
            return ordered[rank]
        target = math.ceil(p / 100.0 * series.count)
        seen = 0
        for i, n in enumerate(series.counts):
            seen += n
            if seen >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return series.max
        return series.max  # pragma: no cover - loop always reaches target

    def merge(self, other: "Histogram") -> None:
        """Fold another identically-shaped histogram's series into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        if other.label_names != self.label_names:
            raise ValueError("cannot merge histograms with different labels")
        for key, theirs in other._series.items():
            with self._lock:
                mine = self._get_series(key)
                for i, n in enumerate(theirs.counts):
                    mine.counts[i] += n
                mine.sum += theirs.sum
                mine.count += theirs.count
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)
                if mine.samples is not None and theirs.samples is not None:
                    mine.samples.extend(theirs.samples)

    def _series_dicts(self) -> list[dict]:
        out = []
        for key, series in sorted(self._series.items()):
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "counts": list(series.counts),
                    "sum": series.sum,
                    "count": series.count,
                    "min": series.min if series.count else 0.0,
                    "max": series.max if series.count else 0.0,
                }
            )
        return out

    def to_snapshot(self) -> dict:
        entry = super().to_snapshot()
        entry["buckets"] = list(self.bounds)
        return entry


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Asking for an existing name returns the existing instrument; asking
    with a conflicting kind or label set is a programming error and
    raises immediately rather than silently forking the series.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                labels = tuple(kwargs.get("labels", ()))
                if labels and labels != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, description: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(
            Counter, name, description=description, labels=tuple(labels)
        )

    def gauge(
        self, name: str, description: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(
            Gauge, name, description=description, labels=tuple(labels)
        )

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = DURATION_BUCKETS_US,
        labels: Iterable[str] = (),
        track_samples: bool = False,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(
            Histogram,
            name,
            description=description,
            buckets=tuple(buckets),
            labels=tuple(labels),
            track_samples=track_samples,
        )

    def get(self, name: str) -> _Instrument | None:
        """Look up an instrument without creating it."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """A JSON-serialisable view of every instrument's current state."""
        return {
            name: instrument.to_snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def render_prometheus(self) -> str:
        """The registry's current state in Prometheus text format."""
        return render_prometheus(self.snapshot())

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent)


def _series_map(entry: dict) -> dict[tuple, dict]:
    return {
        tuple(sorted(series["labels"].items())): series
        for series in entry["series"]
    }


def diff_snapshots(old: dict, new: dict) -> dict:
    """``new`` minus ``old``: counters and histograms subtract series-wise
    (a series missing from ``old`` counts as zero); gauges keep the new
    value.  Metrics absent from ``new`` are dropped."""
    out: dict = {}
    for name, entry in new.items():
        old_entry = old.get(name)
        diffed = {k: v for k, v in entry.items() if k != "series"}
        diffed["series"] = []
        old_series = (
            _series_map(old_entry)
            if old_entry and old_entry.get("type") == entry["type"]
            else {}
        )
        for series in entry["series"]:
            key = tuple(sorted(series["labels"].items()))
            before = old_series.get(key)
            if entry["type"] == "counter":
                prev = before["value"] if before else 0.0
                diffed["series"].append(
                    {"labels": series["labels"], "value": series["value"] - prev}
                )
            elif entry["type"] == "histogram":
                prev_counts = before["counts"] if before else [0] * len(series["counts"])
                diffed["series"].append(
                    {
                        "labels": series["labels"],
                        "counts": [
                            n - p for n, p in zip(series["counts"], prev_counts)
                        ],
                        "sum": series["sum"] - (before["sum"] if before else 0.0),
                        "count": series["count"] - (before["count"] if before else 0),
                        "min": series["min"],
                        "max": series["max"],
                    }
                )
            else:  # gauges: a delta of point-in-time values is meaningless
                diffed["series"].append(dict(series))
        out[name] = diffed
    return out


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Element-wise sum of snapshots (counters and histograms add;
    gauges keep the last value seen).  Used by the CLI hub to aggregate
    the per-store registries an experiment created."""
    out: dict = {}
    for snap in snapshots:
        for name, entry in snap.items():
            target = out.get(name)
            if target is None:
                out[name] = json.loads(json.dumps(entry))  # deep copy
                continue
            target_series = _series_map(target)
            for series in entry["series"]:
                key = tuple(sorted(series["labels"].items()))
                mine = target_series.get(key)
                if mine is None:
                    target["series"].append(json.loads(json.dumps(series)))
                    continue
                if entry["type"] == "counter":
                    mine["value"] += series["value"]
                elif entry["type"] == "histogram":
                    mine["counts"] = [
                        a + b for a, b in zip(mine["counts"], series["counts"])
                    ]
                    mine["sum"] += series["sum"]
                    mine["count"] += series["count"]
                    if series["count"]:
                        mine["min"] = (
                            min(mine["min"], series["min"])
                            if mine["count"] - series["count"]
                            else series["min"]
                        )
                        mine["max"] = max(mine["max"], series["max"])
                else:
                    mine["value"] = series["value"]
    return out


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, entry in sorted(snapshot.items()):
        prom = _prom_name(name)
        if entry.get("description"):
            lines.append(f"# HELP {prom} {entry['description']}")
        lines.append(f"# TYPE {prom} {entry['type']}")
        for series in entry["series"]:
            labels = series["labels"]
            if entry["type"] in ("counter", "gauge"):
                lines.append(f"{prom}{_prom_labels(labels)} {series['value']:g}")
            else:  # histogram: cumulative le buckets + _sum + _count
                cumulative = 0
                for bound, count in zip(entry["buckets"], series["counts"]):
                    cumulative += count
                    lines.append(
                        f"{prom}_bucket{_prom_labels(labels, {'le': f'{bound:g}'})} "
                        f"{cumulative}"
                    )
                cumulative += series["counts"][-1]
                lines.append(
                    f"{prom}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
                    f"{cumulative}"
                )
                lines.append(f"{prom}_sum{_prom_labels(labels)} {series['sum']:g}")
                lines.append(
                    f"{prom}_count{_prom_labels(labels)} {series['count']}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
