"""The read buffer: an LRU block cache that can live on either side.

This one class is the crux of the paper.  eLSM-P1 places it *inside* the
enclave (extra copy on every fill, enclave paging once it outgrows the
EPC); eLSM-P2 places it *outside* (plain DRAM costs, no paging).  The
``location`` parameter is the only difference — everything else in the
read path is shared, which is what makes the Figure 2/6 comparisons
apples-to-apples.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.lsm.records import Record
from repro.sim.costs import PAGE_SIZE
from repro.sgx.env import ExecutionEnv

LOCATION_UNTRUSTED = "untrusted"
LOCATION_ENCLAVE = "enclave"


@dataclass
class Block:
    """A decoded SSTable data block."""

    entries: list[tuple[Record, bytes]] = field(default_factory=list)
    nbytes: int = 0


class ReadBuffer:
    """LRU cache of decoded blocks, placed inside or outside the enclave."""

    def __init__(
        self,
        env: ExecutionEnv,
        capacity_bytes: int,
        location: str = LOCATION_UNTRUSTED,
        block_stride: int = PAGE_SIZE,
        region: str = "read_buffer",
    ) -> None:
        if location == LOCATION_ENCLAVE and env.enclave is None:
            raise ValueError("enclave-resident buffer requires an enclave")
        self.env = env
        self.location = location
        self.region = region
        self.block_stride = max(block_stride, 1)
        self.capacity_slots = max(1, capacity_bytes // self.block_stride)
        self._entries: OrderedDict[tuple[str, int], tuple[Block, int]] = OrderedDict()
        # Per-file index of resident block keys: invalidation is O(blocks
        # of that file), not a scan of the whole cache.
        self._by_file: dict[str, set[tuple[str, int]]] = {}
        self._free_slots: list[int] = []
        self._next_slot = 0
        self.hits = 0
        self.misses = 0
        self._m_hits = env.telemetry.counter(
            "cache.hits", "read-buffer block hits", labels=("region",)
        ).bind(region=region)
        self._m_misses = env.telemetry.counter(
            "cache.misses", "read-buffer block misses", labels=("region",)
        ).bind(region=region)
        if location == LOCATION_ENCLAVE:
            env.meta_region(region)
            env.meta_grow(region, capacity_bytes)

    def get(self, key: tuple[str, int]) -> Block | None:
        """Look up a block; charges the access cost of wherever it lives."""
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
            self._m_misses.inc()
            return None
        self.hits += 1
        self._m_hits.inc()
        block, slot = found
        self._entries.move_to_end(key)
        self._charge_access(slot, block)
        return block

    def put(self, key: tuple[str, int], block: Block) -> None:
        """Insert a block, evicting LRU entries to stay within capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.capacity_slots:
            evicted, (_, freed_slot) = self._entries.popitem(last=False)
            self._unindex(evicted)
            self._free_slots.append(freed_slot)
        slot = self._free_slots.pop() if self._free_slots else self._next_slot
        if slot == self._next_slot:
            self._next_slot += 1
        self._entries[key] = (block, slot)
        self._by_file.setdefault(key[0], set()).add(key)
        self._charge_fill(slot, block)

    def _unindex(self, key: tuple[str, int]) -> None:
        resident = self._by_file.get(key[0])
        if resident is not None:
            resident.discard(key)
            if not resident:
                del self._by_file[key[0]]

    def invalidate_file(self, name: str) -> None:
        """Drop all blocks of a deleted SSTable (O(blocks of that file)).

        Slots are freed in block order, not ``set`` order: the free list
        decides later slot offsets, which an enclave-resident buffer
        charges as paging, so set order would make the simulated clock
        depend on ``PYTHONHASHSEED``.
        """
        for key in sorted(self._by_file.pop(name, ())):
            _, slot = self._entries.pop(key)
            self._free_slots.append(slot)

    def _charge_access(self, slot: int, block: Block) -> None:
        if self.location == LOCATION_ENCLAVE:
            assert self.env.enclave is not None
            self.env.enclave.touch(self.region, slot * self.block_stride, block.nbytes)
        else:
            pages = max(1, block.nbytes // PAGE_SIZE)
            self.env.clock.charge("dram_touch", self.env.costs.dram_touch_us * pages)

    def _charge_fill(self, slot: int, block: Block) -> None:
        if self.location == LOCATION_ENCLAVE:
            assert self.env.enclave is not None
            self.env.enclave.copy_in(block.nbytes)
            self.env.enclave.touch(
                self.region, slot * self.block_stride, block.nbytes, write=True
            )
        else:
            self.env.clock.charge(
                "dram_copy", self.env.costs.dram_copy_cost(block.nbytes)
            )
