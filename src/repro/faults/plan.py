"""Fault-injection plans: IO errors, torn writes, bit rot, crash points.

A :class:`FaultPlan` attaches to a :class:`~repro.sim.disk.SimDisk`
(``disk.fault_plan = plan`` — the sim layer calls back through duck
typing, so there is no dependency cycle) and to the code paths that call
:meth:`~repro.sgx.env.ExecutionEnv.crash_point`.  It can:

* inject :class:`~repro.sim.disk.TransientIOError` /
  :class:`~repro.sim.disk.PersistentIOError` on selected (op, file)
  pairs — exercising the retry and degradation paths;
* tear an append (only a prefix of the payload reaches the file, then
  the process dies) and drop fsyncs (the device acknowledges a sync it
  never performed);
* flip stored bits on the Nth read of a file (bit rot under the store);
* raise :class:`SimulatedCrash` at *named crash points* wired through
  flush, compaction, WAL append/sync/epoch-advance, manifest writes,
  and seal persistence — or after a chosen number of disk operations.

``SimulatedCrash`` subclasses ``BaseException`` so no ``except
Exception`` recovery/retry handler can accidentally swallow a simulated
power cut; only the crash-consistency harness catches it.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass

from repro.sim.disk import (
    FSYNC_DROPPED,
    PersistentIOError,
    SimDisk,
    TransientIOError,
)

#: Every named crash point wired through the stack.  The harness iterates
#: this list; ``ExecutionEnv.crash_point`` call sites must use these names.
CRASH_SITES: tuple[str, ...] = (
    # write-ahead log (repro/lsm/wal.py)
    "wal.append.before_write",
    "wal.append.after_write",
    "wal.group.before_write",
    "wal.group.after_write",
    "wal.sync.before_fsync",
    "wal.sync.after_fsync",
    "wal.epoch.after_create",
    # flush / compaction commit protocol (repro/lsm/db.py)
    "flush.after_install",
    "flush.after_wal_epoch",
    "memtable.rotate",
    "flush.background.publish",
    "commit.before_hook",
    "commit.after_hook",
    "compaction.after_install",
    "manifest.before_write",
    "manifest.after_write",
    # mid-merge output tables, each before it is built (repro/lsm/compaction.py)
    "compactor.before_file",
    # sealed trusted state persistence (repro/sgx/sealing.py)
    "seal.before_write",
    "seal.after_write",
)

_WRITE_OPS = frozenset({"append", "write_at", "create", "delete", "truncate", "fsync"})


class SimulatedCrash(BaseException):
    """The process died here: a fault-plan crash point fired.

    BaseException on purpose — a simulated power cut must not be caught
    by ``except Exception`` retry/cleanup logic on its way out.
    """

    def __init__(self, site: str) -> None:
        super().__init__(site)
        self.site = site


@dataclass
class FaultRule:
    """One injected-IO-error rule: which ops fail, how, and how often."""

    op: str  # "append", "read", "fsync", "create", "delete", "truncate", "*"
    pattern: str  # fnmatch pattern over file names
    times: int | None  # remaining failures; None = fail forever
    transient: bool  # TransientIOError vs PersistentIOError
    after: int = 0  # skip this many matching calls first

    def matches(self, op: str, name: str) -> bool:
        if self.times == 0:
            return False
        if self.op != "*" and self.op != op:
            return False
        return fnmatch.fnmatch(name, self.pattern)


class FaultPlan:
    """A seeded, scriptable schedule of faults over one simulated disk."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.rules: list[FaultRule] = []
        self._crash_sites: dict[str, int] = {}  # site -> hit number
        self._site_counts: dict[str, int] = {}
        self._crash_after_ops: int | None = None
        self._torn_appends: list[tuple[str, int, float]] = []
        self._append_counts: dict[str, int] = {}
        self._bit_rot: list[tuple[str, int]] = []
        self._read_counts: dict[str, int] = {}
        self._fsync_drops: list[FaultRule] = []
        self._pending_crash: str | None = None
        self.armed = True
        self.disk_ops = 0
        self.injected_errors = 0
        self.fsync_drops_at: list[int] = []  # disk-op index of each drop
        self.crash_log: list[str] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def attach(self, disk: SimDisk) -> "FaultPlan":
        """Install this plan on a simulated disk; returns self."""
        disk.fault_plan = self
        return self

    def fail(
        self,
        op: str,
        pattern: str = "*",
        times: int | None = 1,
        transient: bool = True,
        after: int = 0,
    ) -> "FaultPlan":
        """Make the next ``times`` matching calls raise an IO error."""
        self.rules.append(FaultRule(op, pattern, times, transient, after))
        return self

    def torn_append(
        self, pattern: str, at_append: int = 1, keep_fraction: float = 0.5
    ) -> "FaultPlan":
        """The Nth append to a matching file writes only a prefix, then
        the process dies (the canonical torn-write crash)."""
        self._torn_appends.append((pattern, at_append, keep_fraction))
        return self

    def bit_rot(self, pattern: str, at_read: int = 1) -> "FaultPlan":
        """Flip one stored bit of a matching file just before its Nth read."""
        self._bit_rot.append((pattern, at_read))
        return self

    def drop_fsync(
        self, pattern: str = "*", times: int | None = 1, after: int = 0
    ) -> "FaultPlan":
        """Acknowledge the next ``times`` matching fsyncs without
        persisting — a lying device."""
        self._fsync_drops.append(FaultRule("fsync", pattern, times, True, after))
        return self

    def crash_at(self, site: str, hit: int = 1) -> "FaultPlan":
        """Raise :class:`SimulatedCrash` the ``hit``-th time ``site`` fires."""
        if site not in CRASH_SITES:
            raise ValueError(f"unknown crash site: {site!r}")
        self._crash_sites[site] = hit
        return self

    def crash_after_ops(self, n: int) -> "FaultPlan":
        """Raise :class:`SimulatedCrash` once ``n`` disk ops have run."""
        self._crash_after_ops = n
        return self

    def disarm(self) -> None:
        """Stop injecting anything (used before recovery re-opens)."""
        self.armed = False

    # ------------------------------------------------------------------
    # Hooks (called by SimDisk / ExecutionEnv)
    # ------------------------------------------------------------------
    def crash_point(self, site: str) -> None:
        """A named crash site was reached."""
        if not self.armed:
            return
        self._site_counts[site] = self._site_counts.get(site, 0) + 1
        want = self._crash_sites.get(site)
        if want is not None and self._site_counts[site] == want:
            self.crash_log.append(site)
            raise SimulatedCrash(site)

    def on_disk_op(self, disk: SimDisk, op: str, name: str, data: bytes | None):
        """Disk-level hook: may raise, mutate, or shorten the operation."""
        if not self.armed:
            return data
        self.disk_ops += 1
        if self._crash_after_ops is not None and self.disk_ops >= self._crash_after_ops:
            self._crash_after_ops = None
            self.crash_log.append(f"disk-op-{self.disk_ops}")
            raise SimulatedCrash(f"disk-op-{self.disk_ops}")
        for rule in self.rules:
            if rule.matches(op, name):
                if rule.after > 0:
                    rule.after -= 1
                    continue
                if rule.times is not None:
                    rule.times -= 1
                self.injected_errors += 1
                exc = TransientIOError if rule.transient else PersistentIOError
                raise exc(f"injected {op} failure on {name}")
        if op == "fsync":
            for rule in self._fsync_drops:
                if rule.matches(op, name):
                    if rule.after > 0:
                        rule.after -= 1
                        continue
                    if rule.times is not None:
                        rule.times -= 1
                    self.injected_errors += 1
                    self.fsync_drops_at.append(self.disk_ops)
                    return FSYNC_DROPPED
        if op == "read":
            self._read_counts[name] = self._read_counts.get(name, 0) + 1
            for pattern, at_read in list(self._bit_rot):
                if fnmatch.fnmatch(name, pattern) and (
                    self._read_counts[name] == at_read
                ):
                    f = disk.open(name)
                    if len(f.data):
                        pos = self.rng.randrange(len(f.data))
                        f.data[pos] ^= 1 << self.rng.randrange(8)
                        self.injected_errors += 1
        if op == "append" and data is not None:
            self._append_counts[name] = self._append_counts.get(name, 0) + 1
            for pattern, at_append, keep in self._torn_appends:
                if fnmatch.fnmatch(name, pattern) and (
                    self._append_counts[name] == at_append
                ):
                    self._pending_crash = f"torn-append:{name}"
                    return data[: max(1, int(len(data) * keep))]
        return data

    def post_disk_op(self) -> None:
        """Fire a crash deferred until after the (partial) write landed."""
        if self._pending_crash is not None:
            site = self._pending_crash
            self._pending_crash = None
            self.crash_log.append(site)
            raise SimulatedCrash(site)
