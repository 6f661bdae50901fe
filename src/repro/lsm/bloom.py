"""Bloom filters over SSTable keys.

LevelDB attaches a Bloom filter to each table so a GET can skip tables
that definitely do not contain the key.  In eLSM the filters are *trusted
metadata inside the enclave* (Section 5.3, "Meta-data authenticity"),
which has a pleasant protocol consequence: a trusted negative is itself a
sound non-membership witness, so the enclave can skip requesting a Merkle
non-membership proof for that level (Bloom filters have no false
negatives).

Because the filter decision also *replaces* a Merkle proof, an attacker
who can predict the hash function gets an amplifier: keys mined to
collide with a table's set bits force a non-membership proof descent on
every read ("LSM Trees in Adversarial Environments").  The filter
therefore supports a keyed mode: a non-empty ``salt`` is prepended to
every key before hashing, so bit positions are unpredictable without the
salt.  The salt is enclave secret material — it is drawn from enclave
randomness, sealed with the trusted state, and never serialised to the
untrusted disk (``serialize`` intentionally omits it).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

MAX_NUM_HASHES = 30


class BloomFilter:
    """A classic k-hash Bloom filter using double hashing."""

    def __init__(self, bits: bytearray, num_hashes: int, salt: bytes = b"") -> None:
        if not bits:
            raise ValueError("empty filter")
        if not isinstance(num_hashes, int) or num_hashes < 1:
            raise ValueError(f"num_hashes must be a positive integer, got {num_hashes!r}")
        if num_hashes > MAX_NUM_HASHES:
            raise ValueError(f"num_hashes must be <= {MAX_NUM_HASHES}, got {num_hashes}")
        self._bits = bits
        self.num_hashes = num_hashes
        self.salt = salt

    @classmethod
    def build(
        cls,
        keys: Iterable[bytes],
        bits_per_key: int = 10,
        salt: bytes = b"",
    ) -> "BloomFilter":
        if not isinstance(bits_per_key, int) or bits_per_key <= 0:
            raise ValueError(
                f"bits_per_key must be a positive integer, got {bits_per_key!r}"
            )
        key_list = list(keys)
        nbits = max(64, len(key_list) * bits_per_key)
        num_hashes = max(1, min(MAX_NUM_HASHES, int(round(bits_per_key * math.log(2)))))
        bits = bytearray((nbits + 7) // 8)
        filt = cls(bits, num_hashes, salt=salt)
        for key in key_list:
            filt._insert(key)
        return filt

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    def _hashes(self, key: bytes) -> tuple[int, int]:
        """The double-hashing pair: probe ``i`` tests bit ``(h1 + i * h2) % nbits``."""
        digest = hashlib.sha256(self.salt + key).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:16], "little") | 1
        return h1, h2

    def _insert(self, key: bytes) -> None:
        h1, h2 = self._hashes(key)
        nbits = len(self._bits) * 8
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % nbits
            self._bits[pos // 8] |= 1 << (pos % 8)

    def may_contain(self, key: bytes) -> bool:
        """False means *definitely absent*; True means "probably present"."""
        h1, h2 = self._hashes(key)
        bits = self._bits
        nbits = len(bits) * 8
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % nbits
            if not bits[pos // 8] & (1 << (pos % 8)):
                return False
        return True

    def serialize(self) -> bytes:
        """num_hashes byte + raw bit array (the salt is *not* serialised)."""
        return bytes([self.num_hashes]) + bytes(self._bits)

    @classmethod
    def deserialize(cls, blob: bytes, salt: bytes = b"") -> "BloomFilter":
        if len(blob) < 2:
            raise ValueError("bloom blob too short")
        return cls(bytearray(blob[1:]), blob[0], salt=salt)
