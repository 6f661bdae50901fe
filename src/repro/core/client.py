"""A remote client that trusts only attestation — not the cloud host.

The paper's primary deployment keeps the verifier inside the enclave so
"query users can be alleviated from the burden of result verification".
This module implements the complementary, classic-ADS deployment the
architecture also supports: a *remote* client

1. obtains a quote binding the enclave's code measurement to a snapshot
   of the digest registry (all level roots) — Appendix A's attestation;
2. thereafter re-verifies every query proof **locally** against that
   snapshot, so even a fully compromised host (and network) can only
   cause detected failures, never wrong results.

Snapshot semantics: the client's view is frozen at sync time.  The
server flushes its MemTable before producing a snapshot so that every
record with ``ts <= snapshot_ts`` is covered by the level digests, and
all client queries are pinned to ``ts_query = snapshot_ts``.  Call
:meth:`AttestedClient.sync` to move to a newer snapshot.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.digest import DigestRegistry
from repro.core.errors import AuthenticationError
from repro.core.proofs import GetProof, LevelSkipped
from repro.core.store_p2 import ELSMP2Store, stops_descent
from repro.core.verifier import Verifier
from repro.core.wire import (
    deserialize_get_proof,
    deserialize_scan_proof,
    serialize_get_proof,
    serialize_scan_proof,
)
from repro.lsm.records import Record
from repro.sgx.attestation import Quote, attest, verify_quote


class AttestationFailure(AuthenticationError):
    """The enclave quote or registry snapshot failed verification."""


def _snapshot_digest(payload: dict, ts: int) -> bytes:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode() + ts.to_bytes(8, "little")
    ).digest()


class RemoteQueryServer:
    """The untrusted-host facade a remote client talks to.

    Proof assembly runs *outside* the trust boundary (it is just the
    prover); only :meth:`snapshot` touches the enclave, to sign the
    registry state into a quote.
    """

    def __init__(self, store: ELSMP2Store) -> None:
        self.store = store

    # -- enclave-assisted: produce an attested registry snapshot --------
    def snapshot(self) -> tuple[dict, int, Quote]:
        """Flush, then quote the registry payload + timestamp (enclave-assisted)."""
        self.store.flush()  # level digests now cover every record
        payload = self.store.registry.to_payload()
        ts = self.store.current_ts
        quote = attest(self.store.enclave, report_data=_snapshot_digest(payload, ts))
        return payload, ts, quote

    # -- fully untrusted: assemble proofs from the stored annotations ---
    def serve_get(self, key: bytes, ts_query: int) -> bytes:
        """Assemble and serialize a GET proof (fully untrusted).

        Levels are skipped on key range only, a skip the client can
        re-check from its snapshot; the descent stops as the store's does.
        """
        proof = GetProof(key=key, ts_query=ts_query)
        registry = self.store.registry
        for level in registry.nonempty_levels():
            if registry.get(level).excludes_key(key):
                proof.levels.append(LevelSkipped(level, "key-range"))
                continue
            entry = self.store.prover.level_get_proof(level, key, ts_query)
            proof.levels.append(entry)
            if stops_descent(entry, ts_query):
                break
        return serialize_get_proof(proof)

    def serve_scan(self, lo: bytes, hi: bytes, ts_query: int) -> bytes:
        """Assemble and serialize the store's SCAN proof (fully untrusted)."""
        return serialize_scan_proof(self.store.scan_proof(lo, hi, ts_query))


class AttestedClient:
    """Holds an attested registry snapshot; verifies proofs locally."""

    def __init__(self, expected_measurement: bytes) -> None:
        self.expected_measurement = expected_measurement
        self.registry: DigestRegistry | None = None
        self.snapshot_ts: int = 0
        self._verifier: Verifier | None = None

    def sync(self, server: RemoteQueryServer) -> None:
        """Fetch and attest a fresh registry snapshot."""
        payload, ts, quote = server.snapshot()
        if not verify_quote(quote, self.expected_measurement):
            raise AttestationFailure("quote does not verify")
        if quote.report_data != _snapshot_digest(payload, ts):
            raise AttestationFailure("quote does not bind this snapshot")
        registry = DigestRegistry()
        registry.load_payload(payload)
        self.registry = registry
        self.snapshot_ts = ts
        self._verifier = Verifier(registry)

    def _require_sync(self) -> Verifier:
        if self._verifier is None:
            raise AttestationFailure("client has no attested snapshot; sync first")
        return self._verifier

    def get(self, server: RemoteQueryServer, key: bytes) -> bytes | None:
        """Verified point read, pinned to the attested snapshot."""
        verifier = self._require_sync()
        blob = server.serve_get(key, self.snapshot_ts)
        proof = deserialize_get_proof(blob)
        record = verifier.verify_get(key, self.snapshot_ts, proof)
        if record is None or record.is_tombstone:
            return None
        return record.value

    def scan(
        self, server: RemoteQueryServer, lo: bytes, hi: bytes
    ) -> list[Record]:
        """Verified-complete range read, pinned to the snapshot."""
        verifier = self._require_sync()
        blob = server.serve_scan(lo, hi, self.snapshot_ts)
        proof = deserialize_scan_proof(blob)
        return verifier.verify_scan(lo, hi, self.snapshot_ts, proof)
