"""Wire formats for query proofs.

The paper's architecture keeps the verifier inside the enclave, next to
the store — but the proofs themselves are ordinary byte strings, and a
deployment may also ship them to *remote* verifiers (a client that holds
an attested copy of the digest registry can re-verify results without
trusting the cloud at all — the classic ADS model the paper generalises).

This module gives every proof object a compact, self-delimiting binary
encoding:

* ``serialize_get_proof`` / ``deserialize_get_proof``
* ``serialize_scan_proof`` / ``deserialize_scan_proof``

Deserialisation is strict: trailing bytes, truncations, and unknown
entry tags raise ``ProofFormatError`` — a malformed proof must never be
half-parsed into something verifiable.
"""

from __future__ import annotations

import struct

from repro.core.errors import ProofFormatError
from repro.core.proofs import (
    BatchGetProof,
    BatchLevelMembership,
    BatchLevelNonMembership,
    GetProof,
    LeafReveal,
    LevelMembership,
    LevelNonMembership,
    LevelSkipped,
    RangeLevelProof,
    ScanProof,
)
from repro.cryptoprim.hashing import HASH_LEN
from repro.lsm.records import Record, decode_record, encode_record

_GET_MAGIC = b"eLSMg1"
_SCAN_MAGIC = b"eLSMs1"
_BATCH_MAGIC = b"eLSMb1"

_TAG_MEMBERSHIP = 1
_TAG_NON_MEMBERSHIP = 2
_TAG_SKIPPED = 3
_TAG_RANGE = 4
_TAG_POOLED_MEMBERSHIP = 5
_TAG_POOLED_NON_MEMBERSHIP = 6


class _Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def raw(self, blob: bytes) -> None:
        self._parts.append(blob)

    def blob(self, blob: bytes) -> None:
        self.u32(len(blob))
        self.raw(blob)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            raise ProofFormatError("truncated proof")
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        return self._take(self.u32())

    def done(self) -> None:
        if self._pos != len(self._buf):
            raise ProofFormatError("trailing bytes after proof")


# ----------------------------------------------------------------------
# Component encoders
# ----------------------------------------------------------------------
def _write_reveal(w: _Writer, reveal: LeafReveal) -> None:
    w.u16(len(reveal.records))
    for record in reveal.records:
        w.blob(encode_record(record))
    if reveal.older_digest is None:
        w.u8(0)
    else:
        w.u8(1)
        w.raw(reveal.older_digest)


def _read_reveal(r: _Reader) -> LeafReveal:
    count = r.u16()
    if count == 0:
        raise ProofFormatError("empty reveal on the wire")
    records: list[Record] = []
    for _ in range(count):
        record, _offset = decode_record(r.blob())
        records.append(record)
    older = r.raw(HASH_LEN) if r.u8() else None
    return LeafReveal(records=tuple(records), older_digest=older)


def _write_path(w: _Writer, path: tuple[bytes, ...]) -> None:
    w.u8(len(path))
    for node in path:
        w.raw(node)


def _read_path(r: _Reader) -> tuple[bytes, ...]:
    return tuple(r.raw(HASH_LEN) for _ in range(r.u8()))


def _write_entry(w: _Writer, entry) -> None:
    if isinstance(entry, LevelMembership):
        w.u8(_TAG_MEMBERSHIP)
        w.u32(entry.level)
        w.u32(entry.leaf_index)
        _write_reveal(w, entry.reveal)
        _write_path(w, entry.path)
    elif isinstance(entry, LevelNonMembership):
        w.u8(_TAG_NON_MEMBERSHIP)
        w.u32(entry.level)
        w.u8((1 if entry.left is not None else 0) | (2 if entry.right is not None else 0))
        if entry.left is not None:
            w.u32(entry.left_index)
            _write_reveal(w, entry.left)
            _write_path(w, entry.left_path)
        if entry.right is not None:
            w.u32(entry.right_index)
            _write_reveal(w, entry.right)
            _write_path(w, entry.right_path)
    elif isinstance(entry, LevelSkipped):
        w.u8(_TAG_SKIPPED)
        w.u32(entry.level)
        w.blob(entry.reason.encode())
    elif isinstance(entry, RangeLevelProof):
        w.u8(_TAG_RANGE)
        w.u32(entry.level)
        w.u32(entry.window_lo)
        w.u16(len(entry.leaves))
        for leaf in entry.leaves:
            _write_reveal(w, leaf)
        w.u16(len(entry.cover_hashes))
        for node in entry.cover_hashes:
            w.raw(node)
    else:  # pragma: no cover - exhaustive over the proof types
        raise ProofFormatError(f"cannot serialize {type(entry).__name__}")


def _read_entry(r: _Reader):
    tag = r.u8()
    if tag == _TAG_MEMBERSHIP:
        level = r.u32()
        leaf_index = r.u32()
        reveal = _read_reveal(r)
        path = _read_path(r)
        return LevelMembership(
            level=level, leaf_index=leaf_index, reveal=reveal, path=path
        )
    if tag == _TAG_NON_MEMBERSHIP:
        level = r.u32()
        flags = r.u8()
        left_index = left = None
        left_path: tuple[bytes, ...] = ()
        right_index = right = None
        right_path: tuple[bytes, ...] = ()
        if flags & 1:
            left_index = r.u32()
            left = _read_reveal(r)
            left_path = _read_path(r)
        if flags & 2:
            right_index = r.u32()
            right = _read_reveal(r)
            right_path = _read_path(r)
        return LevelNonMembership(
            level=level,
            left_index=left_index,
            left=left,
            left_path=left_path,
            right_index=right_index,
            right=right,
            right_path=right_path,
        )
    if tag == _TAG_SKIPPED:
        level = r.u32()
        reason = r.blob().decode()
        return LevelSkipped(level=level, reason=reason)
    if tag == _TAG_RANGE:
        level = r.u32()
        window_lo = r.u32()
        leaves = tuple(_read_reveal(r) for _ in range(r.u16()))
        cover = tuple(r.raw(HASH_LEN) for _ in range(r.u16()))
        return RangeLevelProof(
            level=level, window_lo=window_lo, leaves=leaves, cover_hashes=cover
        )
    raise ProofFormatError(f"unknown proof entry tag {tag}")


# ----------------------------------------------------------------------
# Top-level proofs
# ----------------------------------------------------------------------
def serialize_get_proof(proof: GetProof) -> bytes:
    """GetProof -> bytes."""
    w = _Writer()
    w.raw(_GET_MAGIC)
    w.blob(proof.key)
    w.u64(proof.ts_query)
    w.u16(len(proof.levels))
    for entry in proof.levels:
        _write_entry(w, entry)
    return w.getvalue()


def deserialize_get_proof(blob: bytes) -> GetProof:
    """bytes -> GetProof (strict; raises ProofFormatError)."""
    r = _Reader(blob)
    if r.raw(len(_GET_MAGIC)) != _GET_MAGIC:
        raise ProofFormatError("not a GET proof")
    key = r.blob()
    ts_query = r.u64()
    levels = [_read_entry(r) for _ in range(r.u16())]
    r.done()
    return GetProof(key=key, ts_query=ts_query, levels=levels)


def serialize_scan_proof(proof: ScanProof) -> bytes:
    """ScanProof -> bytes."""
    w = _Writer()
    w.raw(_SCAN_MAGIC)
    w.blob(proof.lo)
    w.blob(proof.hi)
    w.u64(proof.ts_query)
    w.u16(len(proof.levels))
    for entry in proof.levels:
        _write_entry(w, entry)
    return w.getvalue()


def deserialize_scan_proof(blob: bytes) -> ScanProof:
    """bytes -> ScanProof (strict; raises ProofFormatError)."""
    r = _Reader(blob)
    if r.raw(len(_SCAN_MAGIC)) != _SCAN_MAGIC:
        raise ProofFormatError("not a SCAN proof")
    lo = r.blob()
    hi = r.blob()
    ts_query = r.u64()
    levels = [_read_entry(r) for _ in range(r.u16())]
    r.done()
    return ScanProof(lo=lo, hi=hi, ts_query=ts_query, levels=levels)


# ----------------------------------------------------------------------
# Batched (MULTIGET) proofs: shared pools + per-key reference entries
# ----------------------------------------------------------------------
def _write_refs(w: _Writer, refs: tuple[int, ...]) -> None:
    w.u16(len(refs))
    for ref in refs:
        w.u32(ref)


def _read_refs(r: _Reader) -> tuple[int, ...]:
    return tuple(r.u32() for _ in range(r.u16()))


def _write_pooled_entry(w: _Writer, entry) -> None:
    if isinstance(entry, BatchLevelMembership):
        w.u8(_TAG_POOLED_MEMBERSHIP)
        w.u32(entry.level)
        w.u32(entry.leaf_index)
        w.u32(entry.reveal_ref)
        _write_refs(w, entry.path_refs)
    elif isinstance(entry, BatchLevelNonMembership):
        w.u8(_TAG_POOLED_NON_MEMBERSHIP)
        w.u32(entry.level)
        w.u8(
            (1 if entry.left_ref is not None else 0)
            | (2 if entry.right_ref is not None else 0)
        )
        if entry.left_ref is not None:
            w.u32(entry.left_index)
            w.u32(entry.left_ref)
            _write_refs(w, entry.left_path_refs)
        if entry.right_ref is not None:
            w.u32(entry.right_index)
            w.u32(entry.right_ref)
            _write_refs(w, entry.right_path_refs)
    elif isinstance(entry, LevelSkipped):
        w.u8(_TAG_SKIPPED)
        w.u32(entry.level)
        w.blob(entry.reason.encode())
    else:  # pragma: no cover - exhaustive over the batch entry types
        raise ProofFormatError(f"cannot serialize {type(entry).__name__}")


def _read_pooled_entry(r: _Reader):
    tag = r.u8()
    if tag == _TAG_POOLED_MEMBERSHIP:
        level = r.u32()
        leaf_index = r.u32()
        reveal_ref = r.u32()
        path_refs = _read_refs(r)
        return BatchLevelMembership(
            level=level,
            leaf_index=leaf_index,
            reveal_ref=reveal_ref,
            path_refs=path_refs,
        )
    if tag == _TAG_POOLED_NON_MEMBERSHIP:
        level = r.u32()
        flags = r.u8()
        left_index = left_ref = None
        left_path_refs: tuple[int, ...] = ()
        right_index = right_ref = None
        right_path_refs: tuple[int, ...] = ()
        if flags & 1:
            left_index = r.u32()
            left_ref = r.u32()
            left_path_refs = _read_refs(r)
        if flags & 2:
            right_index = r.u32()
            right_ref = r.u32()
            right_path_refs = _read_refs(r)
        return BatchLevelNonMembership(
            level=level,
            left_index=left_index,
            left_ref=left_ref,
            left_path_refs=left_path_refs,
            right_index=right_index,
            right_ref=right_ref,
            right_path_refs=right_path_refs,
        )
    if tag == _TAG_SKIPPED:
        level = r.u32()
        reason = r.blob().decode()
        return LevelSkipped(level=level, reason=reason)
    raise ProofFormatError(f"unknown batch proof entry tag {tag}")


def serialize_batch_get_proof(proof: BatchGetProof) -> bytes:
    """BatchGetProof -> bytes."""
    w = _Writer()
    w.raw(_BATCH_MAGIC)
    w.u64(proof.ts_query)
    w.u16(len(proof.keys))
    for key in proof.keys:
        w.blob(key)
    w.u32(len(proof.node_pool))
    for node in proof.node_pool:
        w.raw(node)
    w.u32(len(proof.reveal_pool))
    for reveal in proof.reveal_pool:
        _write_reveal(w, reveal)
    for entries in proof.per_key:
        w.u16(len(entries))
        for entry in entries:
            _write_pooled_entry(w, entry)
    return w.getvalue()


def deserialize_batch_get_proof(blob: bytes) -> BatchGetProof:
    """bytes -> BatchGetProof (strict; raises ProofFormatError).

    Reference indices are NOT range-checked here — the verifier resolves
    them against the pools and fails closed on any out-of-range index,
    so a truncated pool can never silently alias another key's material.
    """
    r = _Reader(blob)
    if r.raw(len(_BATCH_MAGIC)) != _BATCH_MAGIC:
        raise ProofFormatError("not a batch GET proof")
    ts_query = r.u64()
    keys = tuple(r.blob() for _ in range(r.u16()))
    node_pool = tuple(r.raw(HASH_LEN) for _ in range(r.u32()))
    reveal_pool = tuple(_read_reveal(r) for _ in range(r.u32()))
    per_key = tuple(
        tuple(_read_pooled_entry(r) for _ in range(r.u16())) for _ in keys
    )
    r.done()
    return BatchGetProof(
        ts_query=ts_query,
        keys=keys,
        node_pool=node_pool,
        reveal_pool=reveal_pool,
        per_key=per_key,
    )
