"""Hashing helpers: determinism and domain separation."""

import hashlib
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.cryptoprim.hashing import (
    _TAG_CHAIN,
    _TAG_INTERNAL,
    _TAG_LEAF,
    HASH_LEN,
    hash_chain_node,
    hash_internal,
    hash_leaf,
    sha256,
    tagged_hash,
)


def test_hash_length():
    assert len(sha256(b"x")) == HASH_LEN
    assert len(tagged_hash(b"t", b"a")) == HASH_LEN


def test_deterministic():
    assert tagged_hash(b"t", b"a", b"b") == tagged_hash(b"t", b"a", b"b")


def test_tag_separates_domains():
    assert tagged_hash(b"t1", b"x") != tagged_hash(b"t2", b"x")


def test_leaf_internal_chain_are_distinct():
    payload = b"p" * 32
    values = {
        hash_leaf(payload),
        hash_internal(payload, payload),
        hash_chain_node(payload, payload),
    }
    assert len(values) == 3


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_length_prefix_prevents_ambiguity(a, b):
    """(a, b) and (a+b, b"") must never collide."""
    if b:
        assert tagged_hash(b"t", a, b) != tagged_hash(b"t", a + b, b"")


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_internal_order_matters(left, right):
    if left != right:
        assert hash_internal(left, right) != hash_internal(right, left)


def test_chain_node_none_vs_empty_suffix():
    record = b"record"
    assert hash_chain_node(record, None) == hash_chain_node(record, b"")


@given(st.binary(min_size=1, max_size=100))
def test_chain_node_depends_on_suffix(record):
    assert hash_chain_node(record, None) != hash_chain_node(record, b"\x01" * 32)


# ----------------------------------------------------------------------
# The node helpers are tagged_hash under their module tags, bit for bit.
# ----------------------------------------------------------------------
@given(st.binary(max_size=80))
def test_hash_leaf_is_its_tagged_hash(payload):
    assert hash_leaf(payload) == tagged_hash(_TAG_LEAF, payload)


@given(st.binary(max_size=80), st.binary(max_size=80))
def test_hash_internal_is_its_tagged_hash(left, right):
    assert hash_internal(left, right) == tagged_hash(_TAG_INTERNAL, left, right)


@given(st.binary(max_size=80), st.none() | st.binary(max_size=40))
def test_hash_chain_node_is_its_tagged_hash(record, older):
    assert hash_chain_node(record, older) == tagged_hash(
        _TAG_CHAIN, record, older or b""
    )


@given(st.binary(max_size=24), st.lists(st.binary(max_size=40), max_size=4))
def test_tagged_hash_is_length_prefixed_sha256(tag, parts):
    framed = struct.pack("<I", len(tag)) + tag + b"".join(
        struct.pack("<I", len(part)) + part for part in parts
    )
    assert tagged_hash(tag, *parts) == hashlib.sha256(framed).digest()
    # A second call under the same tag must not see the first one's parts.
    assert tagged_hash(tag, *parts) == hashlib.sha256(framed).digest()


def test_known_answers():
    assert tagged_hash(b"elsm/empty-level").hex() == (
        "2ad0801182c50ced6c3cb653c2c057f86ec568e41ef28a0c2a731faf6d082d04"
    )
    assert hash_leaf(b"p" * 32).hex() == (
        "1cbeb176b04ac791128c0f6a33398535dddae78c9fcbea2fa0fcba3888a6a8ec"
    )
    assert hash_internal(b"l" * 32, b"r" * 32).hex() == (
        "cea948278a3333b5411343e23330bfdbd01c6c8ea25a92caab5da8552f052ba9"
    )
    assert hash_chain_node(b"record", None).hex() == (
        "49139c2c40a36af21772fd379ef1bf6616fd69658f0e24756bb99c20529e2b95"
    )
    assert hash_chain_node(b"record", b"o" * 32).hex() == (
        "ba18f05e677d472b26cfd509843ccc1cd7c9c8a1d57e250da0be9da060e006b5"
    )
