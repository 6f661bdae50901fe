"""The simulated enclave: protected memory regions and trusted state.

An :class:`Enclave` owns named memory regions (memtable, file indices,
Bloom filters, read buffer, ...).  Regions are *virtual*: they can grow
past the EPC, in which case accesses start faulting through the
:class:`~repro.sgx.memory.EpcPager` — exactly the behaviour the paper's
eLSM-P1 suffers once its read buffer outgrows 128 MB.

The enclave also carries the secrets a real enclave would derive from the
CPU (sealing key, MAC key) and its code measurement for attestation.
"""

from __future__ import annotations

import hashlib

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


class EnclaveMemoryError(RuntimeError):
    """Raised on invalid region operations (double alloc, unknown region)."""


class Enclave:
    """A protected execution environment with paged memory accounting."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        epc_bytes: int,
        name: str = "elsm-enclave",
        code_identity: bytes = b"elsm-p2-codebase",
    ) -> None:
        from repro.sgx.memory import EpcPager

        self.name = name
        self.clock = clock
        self.costs = costs
        self.epc_bytes = epc_bytes
        self.pager = EpcPager(clock, costs, epc_bytes)
        self._regions: dict[str, int] = {}
        # Keys a real enclave derives from the CPU's fused secrets.
        self.measurement = hashlib.sha256(code_identity).digest()
        self.sealing_key = hashlib.sha256(b"seal" + self.measurement).digest()
        # Counter-mode DRBG state backing random_bytes().
        self._rng_key = hashlib.sha256(b"rng" + self.measurement).digest()
        self._rng_counter = 0

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    def alloc(self, region: str, nbytes: int = 0) -> None:
        """Create a named region of ``nbytes`` virtual bytes."""
        if region in self._regions:
            raise EnclaveMemoryError(f"region already allocated: {region}")
        self._regions[region] = nbytes

    def grow(self, region: str, nbytes: int) -> None:
        """Extend a region by ``nbytes`` (metadata growth, buffer fills)."""
        self._require(region)
        self._regions[region] += nbytes

    def shrink(self, region: str, nbytes: int) -> None:
        """Reduce a region's virtual size (metadata freed)."""
        self._require(region)
        self._regions[region] = max(0, self._regions[region] - nbytes)

    def reset_region(self, region: str) -> None:
        """Empty a region (e.g. the memtable after a flush)."""
        self._require(region)
        self._regions[region] = 0
        self.pager.discard_region(region)

    def free(self, region: str) -> None:
        """Remove a region entirely and evict its pages."""
        self._require(region)
        del self._regions[region]
        self.pager.discard_region(region)

    def has_region(self, region: str) -> bool:
        """True if the named region exists."""
        return region in self._regions

    def region_bytes(self, region: str) -> int:
        """Current virtual size of a region."""
        self._require(region)
        return self._regions[region]

    def total_bytes(self) -> int:
        """Total virtual bytes allocated inside the enclave."""
        return sum(self._regions.values())

    # ------------------------------------------------------------------
    # Trusted randomness
    # ------------------------------------------------------------------
    def random_bytes(self, nbytes: int) -> bytes:
        """Enclave-internal randomness (stand-in for ``sgx_read_rand``).

        A counter-mode DRBG seeded from the enclave measurement: the
        simulation stays exactly reproducible run to run, while the
        output remains unpredictable to anything outside the enclave —
        the property the keyed Bloom-filter defense relies on.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        out = bytearray()
        while len(out) < nbytes:
            self._rng_counter += 1
            out += hashlib.sha256(
                self._rng_key + self._rng_counter.to_bytes(8, "little")
            ).digest()
        self.compute_hash(nbytes)
        return bytes(out[:nbytes])

    # ------------------------------------------------------------------
    # Memory access accounting
    # ------------------------------------------------------------------
    def touch(self, region: str, offset: int, nbytes: int, write: bool = False) -> int:
        """Access bytes of a region; charges touches and any page faults."""
        self._require(region)
        return self.pager.touch(region, offset, nbytes, write=write)

    def copy_in(self, nbytes: int) -> None:
        """Charge a copy from untrusted memory into the enclave."""
        self.clock.charge("enclave_copy", self.costs.enclave_copy_cost(nbytes))

    def compute_hash(self, nbytes: int) -> None:
        """Charge an in-enclave hash over ``nbytes``."""
        self.clock.charge("hash", self.costs.hash_cost(nbytes))

    def compute_cipher(self, nbytes: int) -> None:
        """Charge an in-enclave encryption/decryption over ``nbytes``."""
        self.clock.charge("crypto", self.costs.encrypt_cost(nbytes))

    def _require(self, region: str) -> None:
        if region not in self._regions:
            raise EnclaveMemoryError(f"unknown region: {region}")
