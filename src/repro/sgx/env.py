"""Execution environment: where code runs and where data lives.

The paper's two designs differ only in *placement* (Table 1): eLSM-P1 and
eLSM-P2 both run the LSM codebase inside the enclave but place the read
buffer inside vs outside, while the unsecured baselines run with no
enclave at all.  ``ExecutionEnv`` captures these choices so the generic
LSM engine (:mod:`repro.lsm`) stays placement-agnostic:

* with an enclave, file system calls cross the boundary as OCalls and
  trusted metadata is accounted in enclave regions;
* without one, the same calls charge only untrusted costs.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator, TypeVar

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk, StorageFailure, TransientIOError
from repro.sgx.boundary import WorldBoundary
from repro.sgx.enclave import Enclave
from repro.telemetry import Telemetry

_T = TypeVar("_T")

#: Bounded retry for transient device errors (simulated-clock backoff).
MAX_IO_RETRIES = 3
IO_RETRY_BASE_US = 50.0


class ExecutionEnv:
    """Bundles clock, costs, disk, telemetry, and the (optional) enclave."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        disk: SimDisk,
        enclave: Enclave | None = None,
        boundary: WorldBoundary | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.disk = disk
        self.enclave = enclave
        self.telemetry = telemetry or Telemetry(clock=lambda: clock.now_us)
        # Cost attribution: every clock charge lands in the active span's
        # ledger (or the tracer's unattributed bucket).  The latest env
        # built over a clock owns attribution, so reopened stores never
        # double-count a charge.
        clock.set_attribution(self.telemetry.tracer.on_charge)
        if hasattr(disk, "bind_telemetry"):
            disk.bind_telemetry(self.telemetry)
        if enclave is not None and boundary is None:
            boundary = WorldBoundary(clock, costs, telemetry=self.telemetry)
        elif boundary is not None and boundary.telemetry is None:
            boundary.telemetry = self.telemetry
        self.boundary = boundary
        self._m_hash_calls = self.telemetry.counter(
            "enclave.hash.invocations", "hashes computed by trusted code"
        )
        self._m_hash_bytes = self.telemetry.counter(
            "enclave.hash.bytes", "bytes hashed by trusted code"
        )
        self._m_cipher_bytes = self.telemetry.counter(
            "enclave.cipher.bytes", "bytes encrypted/decrypted by trusted code"
        )
        file_ops = self.telemetry.counter(
            "disk.ops", "file-system calls issued by the store", labels=("op",)
        )
        self._m_file_op = {
            op: file_ops.bind(op=op)
            for op in (
                "create", "unlink", "write", "append", "read", "read_mmap",
                "fsync", "truncate",
            )
        }
        file_bytes = self.telemetry.counter(
            "disk.bytes", "bytes moved through file-system calls", labels=("dir",)
        )
        self._m_bytes_read = file_bytes.bind(dir="read")
        self._m_bytes_written = file_bytes.bind(dir="write")
        self._m_io_retries = self.telemetry.counter(
            "disk.retries", "file-system calls retried after transient errors",
            labels=("op",),
        )
        self._m_io_errors = self.telemetry.counter(
            "disk.io_errors", "file-system calls that raised device errors",
            labels=("op",),
        )

    @property
    def in_enclave(self) -> bool:
        """True when the store's code runs inside an enclave."""
        return self.enclave is not None

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_point(self, site: str) -> None:
        """A named crash site (see ``repro.faults.plan.CRASH_SITES``).

        No-op unless a fault plan is attached to the disk, so production
        paths pay one attribute check.
        """
        plan = self.disk.fault_plan
        if plan is not None:
            plan.crash_point(site)

    def _retrying(self, op: str, fn: Callable[[], _T]) -> _T:
        """Run a disk call, retrying transient errors with bounded
        simulated-clock backoff.  Persistent errors (and transient ones
        that outlast the retry budget) propagate to the store, which
        degrades to read-only rather than crashing."""
        attempt = 0
        while True:
            try:
                return fn()
            except TransientIOError:
                self._m_io_errors.inc(op=op)
                attempt += 1
                if attempt > MAX_IO_RETRIES:
                    raise
                self._m_io_retries.inc(op=op)
                self.clock.charge(
                    "io_retry_backoff", IO_RETRY_BASE_US * (2 ** (attempt - 1))
                )
            except StorageFailure:
                self._m_io_errors.inc(op=op)
                raise

    # ------------------------------------------------------------------
    # Boundary crossings
    # ------------------------------------------------------------------
    def op_call(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> ContextManager[None]:
        """The application-level ECall wrapping one PUT/GET/SCAN."""
        if self.boundary is None:
            return nullcontext()
        return self.boundary.ecall(name, in_bytes=in_bytes, out_bytes=out_bytes)

    @contextmanager
    def _syscall(self, name: str, in_bytes: int = 0, out_bytes: int = 0) -> Iterator[None]:
        """A file-system call; an OCall when running inside the enclave."""
        if self.boundary is None:
            yield
            return
        with self.boundary.ocall(name, in_bytes=in_bytes, out_bytes=out_bytes):
            yield

    # ------------------------------------------------------------------
    # File system (as seen by the store's code)
    # ------------------------------------------------------------------
    def file_create(self, name: str) -> None:
        """Create a file (an OCall when inside the enclave)."""
        self._m_file_op["create"].inc()

        def call() -> None:
            with self._syscall("create"):
                self.disk.create(name)

        self._retrying("create", call)

    def file_delete(self, name: str) -> None:
        """Delete a file (an OCall when inside the enclave)."""
        self._m_file_op["unlink"].inc()

        def call() -> None:
            with self._syscall("unlink"):
                self.disk.delete(name)

        self._retrying("unlink", call)

    def file_write(self, name: str, data: bytes) -> None:
        """Create-or-replace a file (SSTable output)."""
        self._m_file_op["write"].inc()
        self._m_bytes_written.inc(len(data))

        def call() -> None:
            with self._syscall("write", in_bytes=len(data)):
                self.disk.write_file(name, data)

        self._retrying("write", call)

    def file_append(self, name: str, data: bytes) -> int:
        """Append to a file (an OCall when inside the enclave)."""
        self._m_file_op["append"].inc()
        self._m_bytes_written.inc(len(data))

        def call() -> int:
            with self._syscall("append", in_bytes=len(data)):
                return self.disk.append(name, data)

        return self._retrying("append", call)

    def file_read(self, name: str, offset: int, length: int, mmap: bool = False) -> bytes:
        """Read file bytes.

        The mmap path models eLSM-P2-mmap: after the initial mapping, the
        enclave reads the untrusted mapping directly with no OCall.  The
        syscall path pays an OCall per read when inside the enclave.
        """
        self._m_bytes_read.inc(length)
        if mmap:
            self._m_file_op["read_mmap"].inc()
            return self._retrying(
                "read_mmap", lambda: self.disk.read_mmap(name, offset, length)
            )
        self._m_file_op["read"].inc()

        def call() -> bytes:
            with self._syscall("read", out_bytes=length):
                return self.disk.read(name, offset, length)

        return self._retrying("read", call)

    def file_fsync(self, name: str) -> None:
        """fsync a file (an OCall when inside the enclave)."""
        self._m_file_op["fsync"].inc()

        def call() -> None:
            with self._syscall("fsync"):
                self.disk.fsync(name)

        self._retrying("fsync", call)

    def file_truncate(self, name: str, size: int) -> None:
        """Truncate a file (recovery cuts torn/unauthenticated WAL tails)."""
        self._m_file_op["truncate"].inc()

        def call() -> None:
            with self._syscall("truncate"):
                self.disk.truncate(name, size)

        self._retrying("truncate", call)

    def file_exists(self, name: str) -> bool:
        """Existence check against the simulated disk."""
        return self.disk.exists(name)

    def file_size(self, name: str) -> int:
        """Size of a file in bytes (a metadata stat, like file_exists).

        Enclave-side callers must use this instead of reaching for
        ``env.disk`` directly — the disk handle is untrusted territory
        (lint rule EL102).
        """
        return self.disk.size(name)

    def file_list(self, prefix: str = "") -> list[str]:
        """Names of files starting with ``prefix`` (directory listing)."""
        return [n for n in self.disk.list_files() if n.startswith(prefix)]

    def file_seqs(self, prefix: str) -> list[int]:
        """Ascending numbers of the files named ``prefix`` + digits
        (numbered manifests, WAL epochs, seals); other names are skipped."""
        suffixes = (name[len(prefix):] for name in self.file_list(prefix))
        return sorted(int(s) for s in suffixes if s.isdigit())

    # ------------------------------------------------------------------
    # Trusted metadata accounting (no-ops without an enclave)
    # ------------------------------------------------------------------
    def meta_region(self, region: str) -> None:
        """Ensure a named enclave region exists for metadata accounting."""
        if self.enclave is not None and not self.enclave.has_region(region):
            self.enclave.alloc(region, 0)

    def meta_grow(self, region: str, nbytes: int) -> None:
        """Grow an enclave metadata region (no-op without an enclave)."""
        if self.enclave is not None:
            self.enclave.grow(region, nbytes)

    def meta_reset(self, region: str) -> None:
        """Empty an enclave metadata region (no-op without an enclave)."""
        if self.enclave is not None:
            self.enclave.reset_region(region)

    def meta_touch(
        self, region: str, offset: int, nbytes: int, write: bool = False
    ) -> None:
        """Access enclave metadata, paying paging costs as needed."""
        if self.enclave is not None:
            self.enclave.touch(region, offset, nbytes, write=write)

    def copy_in(self, nbytes: int) -> None:
        """Charge a bulk copy of untrusted bytes into the enclave.

        Used for proof payloads that ride an already-open transition (no
        extra ECall), so only the per-byte copy cost and the boundary
        byte counters apply.  No-op without an enclave.
        """
        if self.boundary is None or nbytes <= 0:
            return
        self.boundary._count_copy(nbytes, "in")
        self.clock.charge("ecall_copy", self.costs.enclave_copy_cost(nbytes))

    def trusted_hash(self, nbytes: int) -> None:
        """Charge a hash computed by trusted code (enclave or client)."""
        self._m_hash_calls.inc()
        self._m_hash_bytes.inc(nbytes)
        self.clock.charge("hash", self.costs.hash_cost(nbytes))

    def trusted_cipher(self, nbytes: int) -> None:
        """Charge an encryption/decryption performed by trusted code."""
        self._m_cipher_bytes.inc(nbytes)
        self.clock.charge("crypto", self.costs.encrypt_cost(nbytes))
