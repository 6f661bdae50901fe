"""Work-count lock on the per-call path of a warm eLSM-P2 store.

Verified GETs and PUTs do their telemetry bookkeeping through handles
bound at construction: no call matches labels, looks an instrument up
in the registry by name, or builds a fresh empty level digest.
"""

from __future__ import annotations

from repro.core import digest
from repro.telemetry import metrics
from tests.conftest import kv, make_p2_store


def _counting(calls: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_warm_gets_and_puts_do_no_per_call_bookkeeping(monkeypatch):
    store = make_p2_store()
    for i in range(300):
        store.put(*kv(i))
    store.flush()
    for i in range(300):  # warm: every stop level and call name seen once
        store.get_verified(kv(i)[0])

    calls = dict.fromkeys(("_label_key", "_get_or_create", "empty"), 0)
    monkeypatch.setattr(
        metrics, "_label_key", _counting(calls, "_label_key", metrics._label_key)
    )
    registry = metrics.MetricsRegistry
    monkeypatch.setattr(
        registry,
        "_get_or_create",
        _counting(calls, "_get_or_create", registry._get_or_create),
    )
    empty = digest.LevelDigest.empty.__func__
    monkeypatch.setattr(
        digest.LevelDigest, "empty", classmethod(_counting(calls, "empty", empty))
    )

    for j in range(200):
        assert store.get_verified(kv(j * 37 % 300)[0]).record is not None
    for j in range(50):
        store.put(*kv(1000 + j))

    assert calls == {"_label_key": 0, "_get_or_create": 0, "empty": 0}
