"""Hashing helpers with domain separation.

eLSM hashes records, hash-chain nodes, Merkle leaves, and Merkle internal
nodes.  Each use gets a distinct domain tag, and variable-length inputs
are length-prefixed, so no two different logical inputs can produce the
same byte string — a standard hardening step the paper's proofs assume
("H is a standard cryptographic hash algorithm with variable-length
input").
"""

from __future__ import annotations

import hashlib
import hmac
import struct

HASH_LEN = 32

_TAG_LEAF = b"elsm/leaf"
_TAG_INTERNAL = b"elsm/node"
_TAG_CHAIN = b"elsm/chain"
_TAG_FILTER_SALT = b"elsm/filter-salt"

FILTER_SALT_LEN = 16


def sha256(data: bytes) -> bytes:
    """Plain SHA-256."""
    return hashlib.sha256(data).digest()


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Fail-closed digest equality (``hmac.compare_digest``).

    Every root/digest/MAC comparison in enclave and verification code
    goes through this single helper: constant-time, and a single audited
    place where "trusted value equals untrusted claim" is decided.  The
    EL203 lint rule (``python -m repro lint``) rejects bare ``==``/``!=``
    on digest-shaped operands in those paths.
    """
    return hmac.compare_digest(a, b)


#: One SHA-256 state per tag, already fed the length-prefixed tag.
#: Every tag is a module constant, so this stays a handful of entries.
_TAG_STATES: dict[bytes, "hashlib._Hash"] = {}


def tagged_hash(tag: bytes, *parts: bytes) -> bytes:
    """Hash of length-prefixed ``parts`` under a domain ``tag``."""
    prefixed = _TAG_STATES.get(tag)
    if prefixed is None:
        prefixed = hashlib.sha256(struct.pack("<I", len(tag)) + tag)
        _TAG_STATES[tag] = prefixed
    h = prefixed.copy()
    for part in parts:
        h.update(struct.pack("<I", len(part)))
        h.update(part)
    return h.digest()


def hash_leaf(payload: bytes) -> bytes:
    """Merkle leaf hash of an already-digested payload."""
    return tagged_hash(_TAG_LEAF, payload)


def hash_internal(left: bytes, right: bytes) -> bytes:
    """Merkle internal node: H(left || right) with domain separation."""
    return tagged_hash(_TAG_INTERNAL, left, right)


def hash_chain_node(record_bytes: bytes, older_digest: bytes | None) -> bytes:
    """One node of a same-key version chain.

    The paper digests a chain of same-key records with the newest record
    outermost: ``h = H(<Z,7> || H(<Z,6>))``.  ``older_digest`` is the
    digest of the strictly-older suffix of the chain (``None`` for the
    oldest record).
    """
    return tagged_hash(_TAG_CHAIN, record_bytes, older_digest or b"")


def derive_filter_salt(master_salt: bytes, file_no: int) -> bytes:
    """Per-SSTable Bloom salt from the store's sealed master salt.

    A single master salt lives in the sealed trusted state; each table's
    filter is keyed with a domain-separated derivation over its file
    number, so tables do not share bit positions and only one secret ever
    needs sealing.  An empty master salt yields an empty per-table salt
    (legacy unkeyed filters).
    """
    if not master_salt:
        return b""
    return tagged_hash(
        _TAG_FILTER_SALT, master_salt, struct.pack("<Q", file_no)
    )[:FILTER_SALT_LEN]
