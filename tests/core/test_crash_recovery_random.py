"""Randomized crash/recovery torture test.

Drives a store through random writes interleaved with random
seal-crash-recover cycles (new enclave instance over the same disk and
hardware counter) and checks the recovered store against a model at
every step.  Exercises: MANIFEST reloads, SSTable metadata rebuilds,
WAL-digest verification, timestamp continuity, and the interplay of all
of it with compaction.
"""

import random

import pytest

from tests.core.test_recovery import crash_and_reopen, make_store


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_random_ops_with_crashes(seed):
    rng = random.Random(seed)
    store = make_store()
    model: dict[bytes, bytes] = {}
    keys = [b"key%03d" % i for i in range(50)]

    for step in range(400):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.45:
            value = b"v%d" % step
            store.put(key, value)
            model[key] = value
        elif roll < 0.58:
            store.delete(key)
            model.pop(key, None)
        elif roll < 0.78:
            assert store.get(key) == model.get(key), (seed, step, key)
        elif roll < 0.9:
            lo, hi = sorted((rng.choice(keys), rng.choice(keys)))
            expected = [
                (k, model[k]) for k in sorted(model) if lo <= k <= hi
            ]
            assert store.scan(lo, hi) == expected, (seed, step)
        else:
            # Crash: seal, drop the enclave, reopen from disk, recover.
            store.persist_seal()
            store = crash_and_reopen(store)
            store.recover_from_disk()

    # Final full validation.
    for key in keys:
        assert store.get(key) == model.get(key)
    assert dict(store.scan(b"key000", b"key999")) == model


def test_crash_immediately_after_open():
    store = make_store()
    store.persist_seal()
    revived = crash_and_reopen(store)
    assert revived.recover_from_disk() == 0
    assert revived.get(b"anything") is None


def test_double_crash():
    store = make_store()
    for i in range(40):
        store.put(b"key%03d" % i, b"v")
    store.persist_seal()
    first = crash_and_reopen(store)
    first.recover_from_disk()
    first.persist_seal()
    second = crash_and_reopen(first)
    second.recover_from_disk()
    for i in range(40):
        assert second.get(b"key%03d" % i) == b"v"
