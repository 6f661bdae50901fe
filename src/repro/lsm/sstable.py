"""SSTable files: builder, layout, and the block read path.

An SSTable is a sorted run of entries packed into ~4 KB data blocks.
Each *entry* is a record plus an opaque ``aux`` annotation — the hook
through which eLSM embeds per-record Merkle proofs (the paper's
``<k, v || pi_i>`` augmentation) without the engine knowing anything
about authentication.

Per table we keep (in memory, and in eLSM *inside the enclave*): a block
index of (first/last key, handle) pairs and a Bloom filter — the
"meta-data in memory whose sizes are small enough ... safely placed in
enclave" of Section 4.2.

``BlockFetcher`` implements the two read paths the paper compares:
user-space buffer (via :class:`~repro.lsm.cache.ReadBuffer`) and mmap
(direct access to the kernel mapping, no OCall, no user-space copy).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.cryptoprim.hashing import derive_filter_salt
from repro.lsm.bloom import BloomFilter
from repro.lsm.cache import Block, ReadBuffer
from repro.lsm.records import Record
from repro.sgx.env import ExecutionEnv

_ENTRY_HEADER = struct.Struct("<HQBII")  # key_len, ts, kind, value_len, aux_len
_FRAME_HEADER = struct.Struct("<II")  # compressed length, raw length

#: An entry as handled by the engine: (record, opaque annotation).
Entry = tuple[Record, bytes]


def encode_entry(record: Record, aux: bytes) -> bytes:
    """Entry -> bytes (header + key + value + aux)."""
    return (
        _ENTRY_HEADER.pack(
            len(record.key), record.ts, record.kind, len(record.value), len(aux)
        )
        + record.key
        + record.value
        + aux
    )


def decode_entry(buf: bytes, offset: int = 0) -> tuple[Entry, int]:
    """bytes -> (entry, next offset)."""
    key_len, ts, kind, value_len, aux_len = _ENTRY_HEADER.unpack_from(buf, offset)
    offset += _ENTRY_HEADER.size
    key = bytes(buf[offset : offset + key_len])
    offset += key_len
    value = bytes(buf[offset : offset + value_len])
    offset += value_len
    aux = bytes(buf[offset : offset + aux_len])
    offset += aux_len
    return (Record(key=key, ts=ts, kind=kind, value=value), aux), offset


class BlockCorruptionError(RuntimeError):
    """A protected block's MAC check failed (eLSM-P1 SDK protection)."""


@dataclass(frozen=True)
class BlockHandle:
    """Location and key coverage of one data block within its file."""

    offset: int
    length: int
    first_key: bytes
    last_key: bytes
    entry_count: int
    #: MAC over the block bytes, kept in trusted metadata when the store
    #: runs with SDK-style file protection (eLSM-P1).
    mac: bytes | None = None


@dataclass
class SSTableMeta:
    """In-memory metadata for one SSTable (index + Bloom filter)."""

    name: str
    level: int
    file_no: int
    handles: list[BlockHandle]
    bloom: BloomFilter
    min_key: bytes
    max_key: bytes
    record_count: int
    size_bytes: int
    compressed: bool = False
    #: ``last_key`` of every block in order: the bisect list behind
    #: :meth:`block_for_key`, built once per table.
    last_keys: list[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.last_keys = [h.last_key for h in self.handles]

    def meta_bytes(self) -> int:
        """Approximate in-enclave footprint of index + Bloom filter."""
        index_bytes = sum(
            16 + len(h.first_key) + len(h.last_key) for h in self.handles
        )
        return index_bytes + self.bloom.size_bytes

    def block_for_key(self, key: bytes) -> int | None:
        """Index of the first block whose last_key >= key, if any."""
        index = bisect_left(self.last_keys, key)
        if index >= len(self.handles):
            return None
        return index


class SSTableBuilder:
    """Builds a sorted SSTable file block by block."""

    def __init__(
        self,
        env: ExecutionEnv,
        name: str,
        level: int,
        file_no: int,
        block_bytes: int = 4096,
        bloom_bits_per_key: int = 10,
        protect: bool = False,
        compress: bool = False,
        bloom_salt: bytes = b"",
    ) -> None:
        self.env = env
        self.name = name
        self.level = level
        self.file_no = file_no
        self.block_bytes = block_bytes
        self.bloom_bits_per_key = bloom_bits_per_key
        self.protect = protect
        self.compress = compress
        # Master Bloom salt; the per-table salt is derived from it and the
        # file number so the secret never varies per call site.
        self.bloom_salt = bloom_salt
        self._pending = bytearray()  # raw bytes of the open block
        self._buf = bytearray()
        self._block_start = 0
        self._block_entries: list[Entry] = []
        self._handles: list[BlockHandle] = []
        self._keys: list[bytes] = []
        self._record_count = 0
        self._last_sort_key: tuple[bytes, int] | None = None

    def add(self, record: Record, aux: bytes = b"") -> None:
        """Append the next entry; must arrive in (key asc, ts desc) order."""
        sort_key = record.sort_key()
        if self._last_sort_key is not None and sort_key <= self._last_sort_key:
            raise ValueError("SSTable entries must be strictly sorted")
        self._last_sort_key = sort_key
        if not self._keys or self._keys[-1] != record.key:
            self._keys.append(record.key)
        self._block_entries.append((record, aux))
        self._pending += encode_entry(record, aux)
        self._record_count += 1
        if len(self._pending) >= self.block_bytes:
            self._cut_block()

    def _cut_block(self) -> None:
        if not self._block_entries:
            return
        raw = bytes(self._pending)
        if self.compress:
            compressed = zlib.compress(raw, level=1)
            body = _FRAME_HEADER.pack(len(compressed), len(raw)) + compressed
            self.env.clock.charge(
                "compress", self.env.costs.compress_us_per_kb * (len(raw) / 1024)
            )
        else:
            body = raw
        length = len(body)
        mac = None
        if self.protect:
            # SDK-style file protection (eLSM-P1): encrypt + MAC each block.
            mac = hashlib.sha256(body).digest()
            self.env.trusted_cipher(length)
            self.env.trusted_hash(length)
        self._handles.append(
            BlockHandle(
                offset=self._block_start,
                length=length,
                first_key=self._block_entries[0][0].key,
                last_key=self._block_entries[-1][0].key,
                entry_count=len(self._block_entries),
                mac=mac,
            )
        )
        self._buf += body
        self._block_start = len(self._buf)
        self._pending = bytearray()
        self._block_entries = []

    def finish(self) -> SSTableMeta:
        """Write the file and return its metadata."""
        self._cut_block()
        if not self._handles:
            raise ValueError("cannot finish an empty SSTable")
        data = bytes(self._buf)
        self.env.file_write(self.name, data)
        self.env.file_fsync(self.name)  # a level's files must be durable
        bloom = BloomFilter.build(
            self._keys,
            self.bloom_bits_per_key,
            salt=derive_filter_salt(self.bloom_salt, self.file_no),
        )
        return SSTableMeta(
            name=self.name,
            level=self.level,
            file_no=self.file_no,
            handles=self._handles,
            bloom=bloom,
            min_key=self._handles[0].first_key,
            max_key=self._handles[-1].last_key,
            record_count=self._record_count,
            size_bytes=len(data),
            compressed=self.compress,
        )


def rebuild_meta(
    env: ExecutionEnv,
    name: str,
    level: int,
    file_no: int,
    block_bytes: int = 4096,
    bloom_bits_per_key: int = 10,
    protect: bool = False,
    compress: bool = False,
    bloom_salt: bytes = b"",
) -> SSTableMeta:
    """Reconstruct an SSTable's in-memory metadata from its file bytes.

    Used at store-reopen time: the index, Bloom filter, and (for
    protected stores) block MACs are derived deterministically from the
    file, reproducing exactly the layout the original builder cut.
    """
    size = env.disk.size(name)
    raw = env.file_read(name, 0, size)
    handles: list[BlockHandle] = []
    keys: list[bytes] = []
    record_count = 0
    offset = 0
    block_start = 0
    block_entries: list[Entry] = []

    def cut_block(end: int) -> None:
        nonlocal block_start, block_entries
        if not block_entries:
            return
        length = end - block_start
        mac = hashlib.sha256(raw[block_start:end]).digest() if protect else None
        handles.append(
            BlockHandle(
                offset=block_start,
                length=length,
                first_key=block_entries[0][0].key,
                last_key=block_entries[-1][0].key,
                entry_count=len(block_entries),
                mac=mac,
            )
        )
        block_start = end
        block_entries = []

    if compress:
        # Walk the compressed frames; block boundaries come from framing.
        while offset < size:
            comp_len, _raw_len = _FRAME_HEADER.unpack_from(raw, offset)
            frame_end = offset + _FRAME_HEADER.size + comp_len
            body = zlib.decompress(raw[offset + _FRAME_HEADER.size : frame_end])
            inner = 0
            while inner < len(body):
                entry, inner = decode_entry(body, inner)
                block_entries.append(entry)
                record_count += 1
                if not keys or keys[-1] != entry[0].key:
                    keys.append(entry[0].key)
            offset = frame_end
            cut_block(offset)
    else:
        while offset < size:
            entry, offset = decode_entry(raw, offset)
            block_entries.append(entry)
            record_count += 1
            if not keys or keys[-1] != entry[0].key:
                keys.append(entry[0].key)
            if offset - block_start >= block_bytes:
                cut_block(offset)
        cut_block(offset)
    if not handles:
        raise ValueError(f"cannot rebuild metadata for empty file {name}")
    env.trusted_hash(size)  # integrity-scan cost of the startup read
    return SSTableMeta(
        name=name,
        level=level,
        file_no=file_no,
        handles=handles,
        bloom=BloomFilter.build(
            keys, bloom_bits_per_key, salt=derive_filter_salt(bloom_salt, file_no)
        ),
        min_key=handles[0].first_key,
        max_key=handles[-1].last_key,
        record_count=record_count,
        size_bytes=size,
        compressed=compress,
    )


class BlockFetcher:
    """Reads and decodes SSTable blocks via the configured read path."""

    MODE_BUFFER = "buffer"
    MODE_MMAP = "mmap"

    def __init__(
        self,
        env: ExecutionEnv,
        mode: str = MODE_BUFFER,
        buffer: ReadBuffer | None = None,
        protected: bool = False,
    ) -> None:
        if mode not in (self.MODE_BUFFER, self.MODE_MMAP):
            raise ValueError(f"unknown read mode: {mode}")
        if mode == self.MODE_BUFFER and buffer is None:
            raise ValueError("buffer mode requires a ReadBuffer")
        if mode == self.MODE_MMAP and protected:
            # The paper: eLSM-P1 cannot use mmap, since protected blocks
            # must be decrypted into enclave memory first.
            raise ValueError("mmap reads are incompatible with protected files")
        self.env = env
        self.mode = mode
        self.buffer = buffer
        self.protected = protected
        # Decode memo for the mmap path: pure implementation cache, the
        # timing cost of each access is still charged via read_mmap.
        self._decoded: dict[tuple[str, int], Block] = {}
        self._decoded_by_file: dict[str, set[tuple[str, int]]] = {}
        self._m_hits = env.telemetry.counter(
            "cache.hits", "read-buffer block hits", labels=("region",)
        )
        self._m_misses = env.telemetry.counter(
            "cache.misses", "read-buffer block misses", labels=("region",)
        )

    def read_block(self, meta: SSTableMeta, handle: BlockHandle) -> Block:
        """Fetch + decode one block via the configured read path."""
        key = (meta.name, handle.offset)
        if self.mode == self.MODE_MMAP:
            self.env.file_read(meta.name, handle.offset, handle.length, mmap=True)
            block = self._decoded.get(key)
            if block is None:
                self._m_misses.inc(region="mmap_decode")
                raw = self.env.disk.open(meta.name).data
                body = self._maybe_decompress(
                    meta, bytes(raw[handle.offset : handle.offset + handle.length])
                )
                block = _decode_block(body)
                self._decoded[key] = block
                self._decoded_by_file.setdefault(meta.name, set()).add(key)
            else:
                self._m_hits.inc(region="mmap_decode")
            return block
        assert self.buffer is not None
        block = self.buffer.get(key)
        if block is not None:
            return block
        raw = self.env.file_read(meta.name, handle.offset, handle.length)
        if self.protected:
            # Decrypt + integrity-verify the block inside the enclave.
            self.env.trusted_cipher(handle.length)
            self.env.trusted_hash(handle.length)
            if handle.mac is not None:
                if hashlib.sha256(raw).digest() != handle.mac:
                    raise BlockCorruptionError(
                        f"block {meta.name}@{handle.offset} failed its MAC check"
                    )
        raw = self._maybe_decompress(meta, raw)
        block = _decode_block(raw)
        self.buffer.put(key, block)
        return block

    def _maybe_decompress(self, meta: SSTableMeta, raw: bytes) -> bytes:
        if not meta.compressed:
            return raw
        comp_len, raw_len = _FRAME_HEADER.unpack_from(raw, 0)
        body = zlib.decompress(raw[_FRAME_HEADER.size : _FRAME_HEADER.size + comp_len])
        if len(body) != raw_len:
            raise BlockCorruptionError(
                f"decompressed block of {meta.name} has the wrong length"
            )
        self.env.clock.charge(
            "decompress", self.env.costs.decompress_us_per_kb * (raw_len / 1024)
        )
        return body

    def invalidate_file(self, name: str) -> None:
        """Drop a deleted file's blocks from all caches (O(its blocks))."""
        if self.buffer is not None:
            self.buffer.invalidate_file(name)
        for key in self._decoded_by_file.pop(name, ()):
            del self._decoded[key]


class ScopedBlockCache:
    """Memoises ``read_block`` for the duration of one operation.

    Every walk over a level run reads through one (see
    :class:`~repro.lsm.version.LevelRun`), and a MULTIGET shares one scope
    across all its keys, which often land in the same data blocks; the
    scope guarantees each block is fetched — and its access cost charged —
    at most once per operation, however many keys resolve through it.  The
    scope holds only references to already-decoded blocks, so it needs no
    invalidation: it must not outlive the operation that created it.
    """

    def __init__(self, fetcher: BlockFetcher) -> None:
        self.fetcher = fetcher
        self._memo: dict[tuple[str, int], Block] = {}
        self.hits = 0
        self.misses = 0

    def read_block(self, meta: SSTableMeta, handle: BlockHandle) -> Block:
        """The block behind ``handle``, fetched at most once per scope."""
        key = (meta.name, handle.offset)
        block = self._memo.get(key)
        if block is None:
            self.misses += 1
            block = self.fetcher.read_block(meta, handle)
            self._memo[key] = block
        else:
            self.hits += 1
        return block


def read_block_sequential(env: ExecutionEnv, meta: SSTableMeta, handle: BlockHandle) -> list[Entry]:
    """Read one block outside the cache (compaction / audit scans).

    Verifies the block MAC when the store is protected and decompresses
    framed blocks, charging the same costs as the query read path.
    """
    raw = env.file_read(meta.name, handle.offset, handle.length)
    if handle.mac is not None:
        if hashlib.sha256(raw).digest() != handle.mac:
            raise BlockCorruptionError(
                f"block {meta.name}@{handle.offset} failed its MAC check"
            )
        env.trusted_cipher(handle.length)
        env.trusted_hash(handle.length)
    if meta.compressed:
        comp_len, raw_len = _FRAME_HEADER.unpack_from(raw, 0)
        raw = zlib.decompress(raw[_FRAME_HEADER.size : _FRAME_HEADER.size + comp_len])
        if len(raw) != raw_len:
            raise BlockCorruptionError(
                f"decompressed block of {meta.name} has the wrong length"
            )
        env.clock.charge(
            "decompress", env.costs.decompress_us_per_kb * (raw_len / 1024)
        )
    return _decode_block(raw).entries


def _decode_block(raw: bytes) -> Block:
    entries: list[Entry] = []
    offset = 0
    while offset < len(raw):
        entry, offset = decode_entry(raw, offset)
        entries.append(entry)
    return Block(entries=entries, nbytes=len(raw))
