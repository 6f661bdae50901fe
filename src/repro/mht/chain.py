"""Hash chains over same-key record versions.

Within one LSM level, records sharing a data key are digested in a
temporal hash chain with the *newest* record outermost (Section 5.2:
``h4 = H(<Z,7> || H(<Z,6>))``).  The chain is what forces a malicious
host to reveal every newer version when it tries to serve a stale one:
the leaf hash cannot be recomputed without the newer records' bytes.
"""

from __future__ import annotations

from typing import Sequence

from repro.cryptoprim.hashing import hash_chain_node


def chain_digest(encoded_newest_first: Sequence[bytes]) -> bytes:
    """Digest a full chain of encoded records, newest first."""
    if not encoded_newest_first:
        raise ValueError("a chain must contain at least one record")
    return fold_chain(encoded_newest_first, None)


def fold_chain(
    encoded_newest_first: Sequence[bytes], older_digest: bytes | None
) -> bytes:
    """Digest a chain *prefix* given the digest of its older suffix.

    This is the verifier's workhorse: given the revealed records (newest
    first, ending at the query result) and the 32-byte digest of all
    strictly-older versions, it recomputes the leaf hash.
    """
    if not encoded_newest_first:
        if older_digest is None:
            raise ValueError("empty chain with no suffix digest")
        return older_digest
    digest = older_digest
    for encoded in reversed(list(encoded_newest_first)):
        digest = hash_chain_node(encoded, digest)
    assert digest is not None
    return digest


def chain_digests(
    encoded_newest_first: Sequence[bytes],
) -> tuple[bytes, list[bytes | None]]:
    """Fold a whole chain once: its digest and every older-suffix digest.

    The first item equals ``chain_digest``; the second equals
    ``suffix_digests`` — one ``hash_chain_node`` per record for both.
    """
    if not encoded_newest_first:
        raise ValueError("a chain must contain at least one record")
    suffixes: list[bytes | None] = [None] * len(encoded_newest_first)
    running: bytes | None = None
    for j in range(len(encoded_newest_first) - 1, -1, -1):
        suffixes[j] = running
        running = hash_chain_node(encoded_newest_first[j], running)
    assert running is not None
    return running, suffixes


def suffix_digests(encoded_newest_first: Sequence[bytes]) -> list[bytes | None]:
    """Digest of the strictly-older suffix at each chain position.

    ``result[j]`` is the digest of records ``j+1..m-1`` (``None`` for the
    oldest position) — exactly what gets embedded in record ``j``'s proof
    so that serving it requires no other disk reads.
    """
    return chain_digests(encoded_newest_first)[1]
