"""EPC (Enclave Page Cache) paging model.

SGX1 backs enclave virtual memory with a fixed pool of protected physical
pages (128 MB on the paper's CPU).  When an enclave's working set exceeds
the pool, each access to a non-resident page triggers *enclave paging*: an
asynchronous enclave exit, an EWB eviction, and an ELDU reload — the
mechanism behind the paper's Figure 2/6 cliffs.

``EpcPager`` models this with page-granular LRU residency.  The same class
doubles as the Eleos baseline's *user-space* pager by lowering the fault
cost (Eleos avoids hardware paging but still pays a software miss)."""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.clock import SimClock
from repro.sim.costs import PAGE_SIZE, CostModel


class EpcPager:
    """Page-granular LRU residency model for protected enclave memory."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        capacity_bytes: int,
        fault_cost_us: float | None = None,
        fault_category: str = "epc_page_fault",
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.capacity_pages = max(1, capacity_bytes // PAGE_SIZE)
        self._fault_cost_us = (
            costs.epc_page_fault_us if fault_cost_us is None else fault_cost_us
        )
        self._fault_category = fault_category
        # page key -> dirty flag (dirty pages pay an EWB on eviction)
        self._resident: OrderedDict[tuple[str, int], bool] = OrderedDict()
        self.fault_count = 0
        self.touch_count = 0
        self.evicted_dirty_count = 0

    def touch(self, region: str, offset: int, nbytes: int, write: bool = False) -> int:
        """Access ``nbytes`` of ``region`` at ``offset``; returns faults taken.

        ``write`` marks the touched pages dirty: evicting a dirty page
        costs a full EWB (encrypt + write back), which is what makes a
        thrashing in-enclave buffer so expensive.
        """
        if nbytes <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        faults = 0
        for page in range(first, last + 1):
            key = (region, page)
            self.touch_count += 1
            if key in self._resident:
                self._resident.move_to_end(key)
                if write:
                    self._resident[key] = True
                self.clock.charge("enclave_touch", self.costs.enclave_touch_us)
            else:
                faults += 1
                self._fault(key, dirty=write)
        return faults

    def discard_region(self, region: str) -> None:
        """Drop all resident pages of a region (region freed)."""
        stale = [key for key in self._resident if key[0] == region]
        for key in stale:
            del self._resident[key]

    def _fault(self, key: tuple[str, int], dirty: bool = False) -> None:
        self.fault_count += 1
        self.clock.charge(self._fault_category, self._fault_cost_us)
        self._resident[key] = dirty
        self._resident.move_to_end(key)
        while len(self._resident) > self.capacity_pages:
            _victim, was_dirty = self._resident.popitem(last=False)
            if was_dirty:
                # EWB: the victim's contents must be encrypted and
                # written back before the frame can be reused.
                self.evicted_dirty_count += 1
                self.clock.charge(self._fault_category, self._fault_cost_us)
