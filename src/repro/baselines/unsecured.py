"""Unsecured LSM baselines.

Two of the paper's reference lines come from running the vanilla engine
with no authentication:

* "LevelDB (unsecure)" (Figure 5a): no enclave at all — the ideal;
* "buffer outside enclave (unsecured)" (Figures 2, 6a): the code runs in
  an enclave (so ops still pay ECalls and file OCalls) but the read
  buffer is untrusted and nothing is digested or protected.

Both are the same wrapper with ``in_enclave`` toggled.
"""

from __future__ import annotations

import threading

from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.records import parse_write_ops
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.disk import SimDisk
from repro.sim.scale import MB, ScaleConfig


class UnsecuredLSMStore:
    """The vanilla LSM store with no data protection."""

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        in_enclave: bool = False,
        read_mode: str = "mmap",
        read_buffer_bytes: int | None = None,
        write_buffer_bytes: int | None = None,
        level1_max_bytes: int | None = None,
        compaction: bool = True,
        name_prefix: str = "plain",
    ) -> None:
        self.scale = scale or ScaleConfig()
        self.costs = costs
        self.clock = clock or SimClock()
        self.disk = disk or SimDisk(
            self.clock, costs, cache_bytes=self.scale.ram_bytes
        )
        enclave = (
            Enclave(self.clock, costs, self.scale.epc_bytes, name="plain-enclave")
            if in_enclave
            else None
        )
        self.enclave = enclave
        self.env = ExecutionEnv(self.clock, costs, self.disk, enclave=enclave)
        lsm_config = LSMConfig(
            write_buffer_bytes=write_buffer_bytes
            or max(self.scale.scale_bytes(4 * MB), 8 * 1024),
            level1_max_bytes=level1_max_bytes
            or max(self.scale.scale_bytes(10 * MB), 32 * 1024),
            file_max_bytes=max(self.scale.scale_bytes(2 * MB), 16 * 1024),
            read_mode=read_mode,
            read_buffer_bytes=read_buffer_bytes
            or self.scale.scale_bytes(64 * MB),
            buffer_location="untrusted",
            protect_files=False,
            compaction_enabled=compaction,
        )
        self.db = LSMStore(self.env, lsm_config, name_prefix=name_prefix)
        self.telemetry = self.env.telemetry
        self._ts = 0
        # The in-enclave mutex guarding concurrent operations (5.5.2).
        self._op_lock = threading.RLock()

    def _next_ts(self) -> int:
        self._ts += 1
        return self._ts

    @property
    def current_ts(self) -> int:
        return self._ts

    def put(self, key: bytes, value: bytes) -> int:
        """Plain engine write (no digesting, no protection)."""
        with self._op_lock, self.env.op_call("put", in_bytes=len(key) + len(value)):
            ts = self._next_ts()
            self.db.put(key, value, ts)
            return ts

    def delete(self, key: bytes) -> int:
        """Plain tombstone write."""
        with self._op_lock, self.env.op_call("delete", in_bytes=len(key)):
            ts = self._next_ts()
            self.db.delete(key, ts)
            return ts

    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """Plain engine read; results are NOT verified."""
        with self._op_lock, self.env.op_call("get", in_bytes=len(key)):
            tsq = self._ts if ts_query is None else ts_query
            return self.db.get(key, tsq)

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """Plain range read; completeness is NOT verified."""
        with self._op_lock, self.env.op_call("scan", in_bytes=len(lo) + len(hi)):
            tsq = self._ts if ts_query is None else ts_query
            return [(r.key, r.value) for r in self.db.scan(lo, hi, tsq)]

    def group_commit(self, ops) -> list[int]:
        """Group commit: one call, one WAL write, one fsync (unverified)."""
        encoded = parse_write_ops(ops)
        total_bytes = sum(len(key) + len(value) for _, key, value in encoded)
        with self._op_lock, self.env.op_call(
            "group_commit", in_bytes=total_bytes
        ):
            stamps = [self._next_ts() for _ in encoded]
            return self.db.commit_group(encoded, stamps=stamps)

    def flush(self) -> None:
        """Flush the MemTable into level 1."""
        self.db.flush()
