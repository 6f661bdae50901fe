"""Streaming level digester (the paper's MHT_add)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cryptoprim.hashing import HASH_LEN, hash_leaf
from repro.mht.chain import chain_digest, suffix_digests
from repro.mht.incremental import OrderingError, StreamingLevelDigester
from repro.mht.merkle import MerkleTree


def build(records):
    """records: list of (key, ts, encoded)."""
    digester = StreamingLevelDigester()
    for key, ts, encoded in records:
        digester.add(key, ts, encoded)
    return digester.finalize()


def test_groups_by_key_newest_first():
    tree = build(
        [
            (b"a", 9, b"a9"),
            (b"t", 4, b"t4"),
            (b"t", 1, b"t1"),
            (b"z", 7, b"z7"),
        ]
    )
    assert tree.leaf_count == 3
    assert [g.key for g in tree.groups] == [b"a", b"t", b"z"]
    assert tree.groups[1].entries == [(4, b"t4"), (1, b"t1")]
    assert tree.record_count == 4


def test_matches_manual_merkle_construction():
    tree = build([(b"a", 2, b"A"), (b"b", 3, b"B"), (b"b", 1, b"Bold")])
    manual = MerkleTree(
        [
            hash_leaf(chain_digest([b"A"])),
            hash_leaf(chain_digest([b"B", b"Bold"])),
        ]
    )
    assert tree.root == manual.root


def test_rejects_descending_keys():
    digester = StreamingLevelDigester()
    digester.add(b"b", 1, b"x")
    with pytest.raises(OrderingError):
        digester.add(b"a", 2, b"y")


def test_rejects_non_descending_timestamps():
    digester = StreamingLevelDigester()
    digester.add(b"a", 5, b"x")
    with pytest.raises(OrderingError):
        digester.add(b"a", 5, b"y")
    with pytest.raises(OrderingError):
        digester.add(b"a", 7, b"z")


def test_add_after_finalize_rejected():
    digester = StreamingLevelDigester()
    digester.add(b"a", 1, b"x")
    digester.finalize()
    with pytest.raises(RuntimeError):
        digester.add(b"b", 2, b"y")


def test_finalize_idempotent():
    digester = StreamingLevelDigester()
    digester.add(b"a", 1, b"x")
    assert digester.finalize() is digester.finalize()


def test_empty_stream():
    tree = StreamingLevelDigester().finalize()
    assert tree.leaf_count == 0
    assert tree.record_count == 0


def test_find():
    tree = build([(b"a", 1, b"x"), (b"c", 2, b"y")])
    index, group = tree.find(b"a")
    assert index == 0 and group is not None
    index, group = tree.find(b"b")
    assert index == 1 and group is None
    index, group = tree.find(b"z")
    assert index == 2 and group is None


def test_suffixes_populated_after_finalize():
    tree = build([(b"a", 3, b"new"), (b"a", 1, b"old")])
    group = tree.groups[0]
    assert group.suffixes[0] == chain_digest([b"old"])
    assert group.suffixes[1] is None


def test_on_hash_charged():
    """One charge per chain record, then its leaf; then the tree's nodes."""
    charges = []
    digester = StreamingLevelDigester(on_hash=charges.append)
    digester.add(b"a", 2, b"abc")
    digester.add(b"a", 1, b"de")
    digester.add(b"b", 1, b"f")
    assert charges == []  # adding hashes nothing
    digester.finalize()
    assert charges == [3 + HASH_LEN, 2 + HASH_LEN, HASH_LEN, 1 + HASH_LEN, HASH_LEN, 2 * HASH_LEN]


def test_finalize_reuses_identical_input_groups():
    level = build([(b"a", 5, b"a5"), (b"b", 4, b"b4"), (b"b", 2, b"b2"), (b"c", 1, b"c1")])
    b_group = level.groups[1]
    charges = []
    digester = StreamingLevelDigester(on_hash=charges.append)
    records = [
        (b"a", 6, b"a6"),  # a newer version on top: hashed
        (b"a", 5, b"a5"),
        (b"b", 4, b"b4"),  # b unchanged: reused
        (b"b", 2, b"b2"),
        (b"c", 1, b"C1"),  # same key and ts, other bytes: hashed
        (b"d", 1, b"d1"),  # not in the input: hashed
    ]
    for key, ts, encoded in records:
        digester.add(key, ts, encoded)
    tree = digester.finalize([level])
    assert tree.root == build(records).root
    assert tree.groups[1].suffixes is b_group.suffixes
    assert tree.tree.leaf(1) == level.tree.leaf(b_group.leaf_index)
    hashed = [2 + HASH_LEN] * 2 + [HASH_LEN] + [2 + HASH_LEN, HASH_LEN] * 2
    assert charges == hashed + [3 * 2 * HASH_LEN]


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 1000), st.binary(min_size=1, max_size=8)),
        min_size=1,
        max_size=40,
    )
)
def test_random_streams_consistent_with_sorted_input(raw):
    # Deduplicate (key, ts), sort into merge order.
    seen = {}
    for key_index, ts, payload in raw:
        seen[(key_index, ts)] = payload
    ordered = sorted(seen.items(), key=lambda item: (item[0][0], -item[0][1]))
    records = [
        (b"k%02d" % key_index, ts, payload)
        for (key_index, ts), payload in ordered
    ]
    tree = build(records)
    assert tree.record_count == len(records)
    assert tree.leaf_count == len({key for key, _, _ in records})


@given(
    st.lists(
        st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=6),
        min_size=1,
        max_size=12,
    )
)
def test_finalize_matches_chain_definitions(chains):
    """Each leaf is hash_leaf(chain_digest(...)); suffixes are suffix_digests."""
    records = [
        (b"k%02d" % key_index, len(chain) - position, encoded)
        for key_index, chain in enumerate(chains)
        for position, encoded in enumerate(chain)
    ]
    tree = build(records)
    assert tree.leaf_count == len(chains)
    for index, chain in enumerate(chains):
        assert tree.tree.leaf(index) == hash_leaf(chain_digest(chain))
        assert tree.groups[index].suffixes == suffix_digests(chain)
