"""Proof-stream pin: every served record and serialised proof of one script.

A fixed script runs on eLSM-P2 and hashes, in order, every record it is
served and every GET, MULTIGET and SCAN proof in its wire form
(:mod:`repro.core.wire`).  The script covers present and tombstoned
keys, multi-version keys read at an older ``ts_query``, absent keys
inside a level, below its minimum and above its maximum, keys on block
and file boundaries, and scans that cross blocks and files.

Changes to how the untrusted prover *finds* entries (block residency,
lazy neighbour resolution) must leave this digest unchanged: only the
simulated cost of reading may move, never what is served or proven.

``python tests/core/test_proof_stream.py`` prints the current digest.
"""

from __future__ import annotations

import hashlib

from repro.core.client import RemoteQueryServer
from repro.core.wire import serialize_batch_get_proof, serialize_get_proof
from repro.lsm.records import encode_record
from repro.lsm.version import LevelRun
from tests.conftest import kv, make_p2_store

PROOF_STREAM_SHA256 = (
    "3b8f1bd282046a6ffe7d0c4f652e7beb728769b98a2dac9eef4ecbe863114b3d"
)

_KEYS = 120
_BELOW_MIN = b"key"  # sorts before every kv() key
_ABOVE_MAX = b"kez"  # sorts after every kv() key


def _build():
    """A multi-level P2 store whose levels span several files and blocks.

    Returns the store and three query timestamps: the newest, one before
    the second round of writes and one before any key had two versions.
    """
    store = make_p2_store(block_bytes=512, file_max_bytes=2048)
    for i in range(_KEYS):
        store.put(*kv(i))
    first_ts = store.current_ts
    for i in range(0, _KEYS, 3):
        store.put(*kv(i, version=1))
    store.flush()
    store.compact_all()
    older_ts = store.current_ts
    for i in range(0, _KEYS, 9):
        store.put(*kv(i, version=2))
    for i in range(0, _KEYS, 7):
        store.delete(kv(i)[0])
    store.flush()
    for i in range(1, _KEYS, 10):
        store.put(*kv(i, version=3))
    store.flush()
    return store, (store.current_ts, older_ts, first_ts)


def _boundary_keys(store) -> tuple[set[bytes], set[bytes]]:
    """Stored keys that start or end a block, and that start or end a file."""
    block_edges: set[bytes] = set()
    file_edges: set[bytes] = set()
    for level in store.db.level_indices():
        for meta in store.db.level_run(level).tables:
            file_edges.update((meta.min_key, meta.max_key))
            for handle in meta.handles:
                block_edges.update((handle.first_key, handle.last_key))
    return block_edges, file_edges


def _record_bytes(record) -> bytes:
    return b"-" if record is None else encode_record(record)


def proof_stream_digest() -> str:
    store, query_timestamps = _build()
    server = RemoteQueryServer(store)
    h = hashlib.sha256()

    def feed(tag: bytes, *parts: bytes) -> None:
        h.update(tag)
        for part in parts:
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)

    present = [kv(i)[0] for i in range(_KEYS)]
    absent_inside = [key + b"+" for key in present[::5]]
    probes = [_BELOW_MIN, *present, *absent_inside, _ABOVE_MAX]
    for ts_query in query_timestamps:
        for key in probes:
            result = store.get_verified(key, ts_query)
            feed(
                b"get",
                key,
                _record_bytes(result.record),
                serialize_get_proof(result.proof),
            )
        for start in range(0, len(probes), 8):
            batch = probes[start : start + 8]
            result = store.multi_get_verified(batch, ts_query)
            feed(
                b"multiget",
                *batch,
                *(_record_bytes(record) for record in result.records),
                serialize_batch_get_proof(result.proof),
            )
        ranges = [
            (_BELOW_MIN, _ABOVE_MAX),  # the whole key space
            (kv(0)[0], kv(_KEYS - 1)[0]),  # exactly the stored keys
            (kv(10)[0], kv(70)[0]),  # crosses blocks and files
            (kv(33)[0], kv(33)[0]),  # one key
            (kv(33)[0] + b"+", kv(33)[0] + b"~"),  # empty, inside a level
            (_ABOVE_MAX, b"kf"),  # empty, above every key
            (b"ka", b"kb"),  # empty, below every key
        ]
        for lo, hi in ranges:
            served = store.scan(lo, hi, ts_query)
            feed(
                b"scan",
                lo,
                hi,
                *(key + b"=" + value for key, value in served),
                server.serve_scan(lo, hi, ts_query),
            )
    block_edges, file_edges = _boundary_keys(store)
    # The script must really exercise both kinds of boundary.
    assert len(file_edges) > 2 and block_edges > file_edges
    assert len(store.db.level_indices()) >= 2
    return h.hexdigest()


def test_proof_stream_is_pinned():
    assert proof_stream_digest() == PROOF_STREAM_SHA256


def test_proof_stream_with_eager_neighbours(monkeypatch):
    """Resolving both neighbours of every lookup up front changes nothing."""
    lazy_lookup = LevelRun.lookup

    def eager_lookup(self, fetcher, key):
        result = lazy_lookup(self, fetcher, key)
        result.left, result.right
        return result

    monkeypatch.setattr(LevelRun, "lookup", eager_lookup)
    assert proof_stream_digest() == PROOF_STREAM_SHA256


if __name__ == "__main__":
    print(proof_stream_digest())
