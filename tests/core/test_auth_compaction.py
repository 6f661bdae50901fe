"""The authenticated COMPACTION listener in isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import auth_compaction
from repro.core.auth_compaction import (
    WAL_DIGEST_INIT,
    AuthCompactionListener,
    advance_wal_digest,
)
from repro.core.digest import DigestRegistry, LevelDigest
from repro.core.errors import IntegrityViolation
from repro.core.proofs import EmbeddedProof
from repro.lsm.events import CompactionContext
from repro.lsm.records import Record, decode_record, encode_record
from repro.mht import chain
from repro.mht.incremental import StreamingLevelDigester
from repro.mht.merkle import MerkleTree
from tests.conftest import make_p2_store


def rec(key, ts):
    return Record(key=key, ts=ts, value=b"v")


@pytest.fixture
def listener(free_env):
    return AuthCompactionListener(DigestRegistry(free_env), free_env)


def flush_ctx():
    return CompactionContext(kind="flush", input_levels=[0], output_level=1)


def run_flush(listener, records):
    """Drive a memtable-only flush through the listener hooks, up to the
    install of its output."""
    ctx = flush_ctx()
    listener.on_compaction_begin(ctx)
    for record in records:
        listener.on_compaction_input_record(ctx, 0, record)
        listener.on_compaction_output_record(ctx, record)
    listener.on_compaction_finish(ctx)
    listener.on_compaction_installed(ctx)
    return ctx


def test_wal_digest_chain(listener):
    first = advance_wal_digest(WAL_DIGEST_INIT, rec(b"a", 1))
    listener.on_wal_append(rec(b"a", 1))
    assert listener.wal_digest == first
    listener.on_wal_append(rec(b"b", 2))
    assert listener.wal_digest == advance_wal_digest(first, rec(b"b", 2))


def test_flush_installs_output_digest(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    digest = listener.registry.get(1)
    assert digest.leaf_count == 2
    assert digest.record_count == 2
    assert digest.min_key == b"a"
    assert digest.max_key == b"b"


def test_compaction_verifies_untrusted_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    # Now merge level 1 into level 2 with honest inputs.
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    for record in (rec(b"a", 2), rec(b"b", 1)):
        listener.on_compaction_input_record(ctx, 1, record)
        listener.on_compaction_output_record(ctx, record)
    listener.on_compaction_finish(ctx)
    assert listener.registry.get(1).leaf_count == 2  # not before the install
    listener.on_compaction_installed(ctx)
    assert listener.registry.get(1).is_empty
    assert listener.registry.get(2).leaf_count == 2


def test_compaction_rejects_tampered_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    evil = Record(key=b"a", ts=2, value=b"TAMPERED")
    listener.on_compaction_input_record(ctx, 1, evil)
    listener.on_compaction_input_record(ctx, 1, rec(b"b", 1))
    listener.on_compaction_output_record(ctx, evil)
    with pytest.raises(IntegrityViolation):
        listener.on_compaction_finish(ctx)


def test_compaction_rejects_omitted_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    listener.on_compaction_input_record(ctx, 1, rec(b"a", 2))  # b omitted
    listener.on_compaction_output_record(ctx, rec(b"a", 2))
    with pytest.raises(IntegrityViolation):
        listener.on_compaction_finish(ctx)


def test_embedded_proofs_cursor(listener):
    records = [rec(b"a", 5), rec(b"b", 9), rec(b"b", 3), rec(b"c", 1)]
    ctx = run_flush(listener, records)
    entries = listener.on_table_file_created(ctx, [(r, b"") for r in records])
    proofs = [EmbeddedProof.deserialize(aux) for _, aux in entries]
    assert [p.leaf_index for p in proofs] == [0, 1, 1, 2]
    assert [p.position for p in proofs] == [0, 0, 1, 0]
    assert proofs[1].older_digest is not None  # b@9 has an older suffix
    assert proofs[2].older_digest is None  # b@3 is the oldest


def test_embedded_proofs_span_multiple_files(listener):
    records = [rec(b"a", 5), rec(b"b", 9), rec(b"c", 1)]
    ctx = run_flush(listener, records)
    first = listener.on_table_file_created(ctx, [(records[0], b"")])
    rest = listener.on_table_file_created(ctx, [(r, b"") for r in records[1:]])
    indices = [
        EmbeddedProof.deserialize(aux).leaf_index for _, aux in first + rest
    ]
    assert indices == [0, 1, 2]


def test_embedding_rejects_diverging_records(listener):
    records = [rec(b"a", 5)]
    ctx = run_flush(listener, records)
    with pytest.raises(IntegrityViolation):
        listener.on_table_file_created(ctx, [(rec(b"z", 99), b"")])


def test_embed_disabled(free_env):
    listener = AuthCompactionListener(
        DigestRegistry(free_env), free_env, embed_proofs=False
    )
    records = [rec(b"a", 5)]
    ctx = run_flush(listener, records)
    entries = listener.on_table_file_created(ctx, [(records[0], b"")])
    assert entries[0][1] == b""


def test_level_inserted_shifts_registry(listener):
    run_flush(listener, [rec(b"a", 1)])
    old = listener.registry.get(1)
    listener.on_level_inserted(1)
    assert listener.registry.get(1).is_empty
    assert listener.registry.get(2) == old


def test_trusted_memtable_not_verified(listener):
    """Level-0 input needs no digester (it never left the enclave)."""
    ctx = flush_ctx()
    listener.on_compaction_begin(ctx)
    assert ctx.state["input_digesters"] == {}


def test_each_piece_of_digest_work_is_done_once(monkeypatch):
    """One flush plus one compaction with an untrusted input level.

    Every record fed to an input digester costs one chain hash, and so
    does every record of a memtable group; a group the compaction passes
    through unchanged reuses its input digests.  Every consumed record
    costs one encoding, and every output tree one pass for all of its
    embedded authentication paths.
    """
    store = make_p2_store(
        write_buffer_bytes=1 << 20, level1_max_bytes=1 << 20, file_max_bytes=1024
    )
    for i in range(40):
        store.put(b"k%03d" % i, b"v0")
        if i % 3 == 0:
            store.put(b"k%03d" % i, b"v1")  # a two-record chain
    records = 40 + 14  # one version per key, a second for every third key
    calls = dict.fromkeys(
        ["chain", "encode", "fed", "consumed", "auth_path", "auth_paths"], 0
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(chain, "hash_chain_node", counting("chain", chain.hash_chain_node))
    monkeypatch.setattr(
        auth_compaction, "encode_record", counting("encode", auth_compaction.encode_record)
    )
    monkeypatch.setattr(
        StreamingLevelDigester, "add", counting("fed", StreamingLevelDigester.add)
    )
    monkeypatch.setattr(
        AuthCompactionListener,
        "on_compaction_input_record",
        counting("consumed", AuthCompactionListener.on_compaction_input_record),
    )
    for name in ("auth_path", "auth_paths"):
        monkeypatch.setattr(MerkleTree, name, counting(name, getattr(MerkleTree, name)))

    store.flush()  # the memtable (trusted) into level 1
    store.compact_level(1)  # level 1 (untrusted) into level 2
    assert len(store.db.level_run(2).tables) > 1  # paths embedded across files

    # flush: output digester only; compaction: input and output digesters,
    # and every output group of the compaction into an empty level 2 is
    # its level-1 group unchanged.
    assert calls["fed"] == 3 * records
    assert calls["chain"] == 2 * records
    assert calls["consumed"] == 2 * records
    assert calls["encode"] == calls["consumed"]
    assert calls["auth_path"] == 0
    assert calls["auth_paths"] == 2


def hashed_by_output(monkeypatch, merge):
    """Run ``merge``; the keys of the records its output digester hashed.

    Input digesters are finalized before the output digester, so the
    chain hashes of the last ``finalize`` are the output's.
    """
    rounds = []
    finalize = StreamingLevelDigester.finalize
    hash_chain_node = chain.hash_chain_node

    def counting_finalize(self, inputs=()):
        rounds.append([])
        return finalize(self, inputs)

    def counting_chain_node(encoded, older):
        rounds[-1].append(decode_record(encoded)[0].key)
        return hash_chain_node(encoded, older)

    monkeypatch.setattr(StreamingLevelDigester, "finalize", counting_finalize)
    monkeypatch.setattr(chain, "hash_chain_node", counting_chain_node)
    merge()
    monkeypatch.undo()
    return rounds[-1]


def big_buffer_store():
    """Nothing flushes or compacts unless the test says so."""
    return make_p2_store(write_buffer_bytes=1 << 20, level1_max_bytes=1 << 20)


def test_flush_hashes_memtable_groups_and_reuses_level_one(monkeypatch):
    store = big_buffer_store()
    store.put(b"a", b"1")
    store.put(b"b", b"1")
    store.flush()  # level 1: a, b
    store.put(b"b", b"2")
    store.put(b"c", b"1")
    store.put(b"c", b"2")
    hashed = hashed_by_output(monkeypatch, store.flush)
    # a: level 1 unchanged; b: a memtable version on top of a level-1
    # chain; c: memtable only.
    assert sorted(hashed) == [b"b", b"b", b"c", b"c"]
    assert store.audit().clean


def test_key_in_both_levels_is_rehashed(monkeypatch):
    store = big_buffer_store()
    for key in (b"a", b"b"):
        store.put(key, b"old")
    store.flush()
    store.compact_level(1)  # level 2: a, b
    for key in (b"b", b"c"):
        store.put(key, b"new")
    store.flush()  # level 1: b, c
    hashed = hashed_by_output(monkeypatch, lambda: store.compact_level(1))
    assert sorted(hashed) == [b"b", b"b"]  # a and c pass through unchanged
    assert store.audit().clean


def test_chain_cut_by_a_tombstone_is_rehashed(monkeypatch):
    store = big_buffer_store()
    store.put(b"a", b"1")
    store.flush()
    store.compact_level(1)  # level 2: a
    store.delete(b"k")
    store.flush()  # level 1: k's tombstone, kept above level 2
    store.put(b"k", b"2")
    store.flush()  # level 1: k@put, k@tombstone
    hashed = hashed_by_output(monkeypatch, lambda: store.compact_level(1))
    # The bottom level drops the tombstone, so k's chain is cut to one
    # record; a passes through from level 2 unchanged.
    assert hashed == [b"k"]
    assert store.get(b"k") == b"2"
    assert store.audit().clean


def test_tampered_reusable_group_fails_before_anything_is_reused(
    listener, monkeypatch
):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    finalized = []
    finalize = StreamingLevelDigester.finalize

    def recording_finalize(self, inputs=()):
        finalized.append(list(inputs))
        return finalize(self, inputs)

    monkeypatch.setattr(StreamingLevelDigester, "finalize", recording_finalize)
    before = {level: listener.registry.get(level) for level in (1, 2)}
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    honest = encode_record(rec(b"b", 1))
    flipped = honest[:-1] + bytes([honest[-1] ^ 1])
    evil = decode_record(flipped)[0]
    # b's group would pass through unchanged: the host feeds the same
    # flipped record as input and as output.
    for record in (rec(b"a", 2), evil):
        listener.on_compaction_input_record(ctx, 1, record)
        listener.on_compaction_output_record(ctx, record)
    with pytest.raises(IntegrityViolation):
        listener.on_compaction_finish(ctx)
    assert finalized == [[]]  # the input digester only; no output digest
    assert {level: listener.registry.get(level) for level in (1, 2)} == before


@st.composite
def merge_histories(draw):
    """Rounds of writes and deletes over a few keys.  Each round ends with
    a flush and then, maybe, ``compact_level`` on one level or
    ``compact_levels`` over two or three."""
    write = st.tuples(st.sampled_from(["put", "put", "delete"]), st.integers(0, 3))
    merge = st.sampled_from([(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3)])
    writes = st.lists(write, min_size=1, max_size=4)
    return draw(st.lists(st.tuples(writes, merge), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(merge_histories())
def test_reused_digests_equal_a_from_scratch_digest(history):
    """After every merge each level's root and leaf count are what a fresh
    ``StreamingLevelDigester`` over that level's records gives (the audit's
    first pass); every embedded proof verifies against it."""
    store = big_buffer_store()
    model = {}
    for writes, levels in history:
        for op, index in writes:
            key = b"k%d" % index
            if op == "put":
                model[key] = b"v%d" % len(model)
                store.put(key, model[key])
            else:
                store.delete(key)
                model.pop(key, None)
        merges = [store.flush]
        if len(levels) == 1:
            merges.append(lambda: store.compact_level(levels[0]))
        elif levels:
            merges.append(lambda: store.db.compact_levels(list(levels)))
        for merge in merges:
            merge()
            report = store.audit()
            assert report.clean, report.summary()
    for key in (b"k%d" % i for i in range(4)):
        assert store.get(key) == model.get(key)
