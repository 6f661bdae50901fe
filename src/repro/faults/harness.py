"""Crash-consistency harness: crash everywhere, recover, check invariants.

Each run builds a small eLSM-P2 store with *autoseal* on (the sealed
trusted state is persisted at every commit point, so "fsync acked"
implies "covered by an on-disk seal"), drives a seeded workload into it,
kills it — at a named crash point or after a random number of disk
operations — simulates power loss on the disk, reopens over the same
disk and hardware counter, and checks:

1. recovery succeeds (``recover_from_disk`` adopts the newest seal);
2. **no durably-acknowledged write is lost**: the recovered timestamp is
   at least the durability floor the workload observed;
3. **tail loss is bounded**: at most ``sync_every`` acknowledged-but-
   unsealed mutations may vanish;
4. the recovered store equals a *prefix* of the mutation history — never
   a gap, never a reordering (checked key-by-key with verified GETs);
5. ``audit()`` reauthenticates every Merkle level root;
6. the store stays live: post-recovery writes and reads work.

Separate scenarios check that a rolled-back disk+seal image raises
``RollbackDetected`` and that a device which drops an acknowledged fsync
is *detected* (recovery refuses) rather than silently serving a hole.
A random or fsync-loss scenario whose fault never fired fails: it
checked nothing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.core.adversary import RollbackHost
from repro.core.errors import IntegrityViolation, RollbackDetected
from repro.core.store_p2 import ELSMP2Store
from repro.faults.plan import CRASH_SITES, FaultPlan, SimulatedCrash
from repro.sim.scale import ScaleConfig


@dataclass
class CrashRunResult:
    """Outcome of one crash/recover cycle."""

    scenario: str
    ok: bool
    triggered: bool  # did the intended crash actually fire?
    crashed_at: str | None = None
    detail: str = ""
    acked: int = 0
    durable_floor: int = 0
    recovered_ts: int = 0
    dropped_entries: int = 0
    checks: list[str] = field(default_factory=list)


class CrashConsistencyHarness:
    """Deterministic crash/recover cycles over a tiny eLSM-P2 store."""

    #: Fraction of workload ops that are puts / deletes (rest are gets).
    PUT_FRACTION = 0.75
    DELETE_FRACTION = 0.15
    #: Fraction of workload steps that issue a whole commit *group*
    #: (one WAL group write + one fsync), exercising the group-commit
    #: crash sites; the rest are single mutations as before.
    GROUP_FRACTION = 0.2
    GROUP_MAX = 4
    #: Checkpoint cadence: a full-drain ``flush()`` every this many
    #: mutations, so the foreground flush + WAL-epoch crash sites keep
    #: firing now that capacity overflow rotates instead of flushing.
    FULL_FLUSH_EVERY = 30
    #: Background-flush cadence: drain the immutable queue as the flusher
    #: thread does, so ``flush.background.publish`` fires.
    BACKGROUND_FLUSH_EVERY = 4

    def __init__(
        self,
        seed: int = 0,
        ops: int = 120,
        sync_every: int = 4,
        keyspace: int = 32,
        value_bytes: int = 24,
    ) -> None:
        self.seed = seed
        self.ops = ops
        self.sync_every = sync_every
        self.keyspace = keyspace
        self.value_bytes = value_bytes
        self.name_prefix = "ct"

    # ------------------------------------------------------------------
    # Store / workload construction
    # ------------------------------------------------------------------
    def _build_store(self, crashed: ELSMP2Store | None = None) -> ELSMP2Store:
        """A fresh store, or one reopened over ``crashed``'s disk, clock
        and hardware counter."""
        # Tiny capacities so a ~100-op workload exercises several
        # flushes and at least one cascading compaction.
        return ELSMP2Store(
            scale=ScaleConfig(factor=1 / 4096),
            clock=crashed and crashed.clock,
            disk=crashed and crashed.disk,
            counter=crashed and crashed.counter,
            reopen=crashed is not None,
            write_buffer_bytes=1024,
            level1_max_bytes=2048,
            file_max_bytes=1024,
            block_bytes=512,
            rollback_protection=True,
            autoseal=True,
            wal_sync_every=self.sync_every,
            # Pipelined write path on: rotation + background-flush crash
            # sites must actually fire under the matrix.
            max_immutable_memtables=2,
            name_prefix=self.name_prefix,
        )

    def _derive_seed(self, tag: str) -> int:
        return zlib.crc32(f"{self.seed}:{tag}".encode())

    def _key(self, index: int) -> bytes:
        return b"key-%03d" % index

    def _value(self, op_index: int) -> bytes:
        return (b"val-%06d-" % op_index) * (
            1 + self.value_bytes // 11
        )

    def _run_workload(
        self, store: ELSMP2Store, rng: random.Random
    ) -> tuple[list[tuple[str, bytes, bytes | None]], int, int, str | None]:
        """Drive mutations until done or crashed.

        Returns ``(attempted, acked, durable_floor, crashed_at)`` where
        ``attempted[k]`` is the mutation that was (or would have been)
        assigned timestamp ``k + 1`` — the store is the sole writer and
        ``group_commit`` stamps its ops in submission order, so
        timestamps are exactly mutation indices.

        A seeded fraction of steps issues a commit *group* of 2..GROUP_MAX
        mutations through :meth:`group_commit` — one WAL group write, one
        fsync — so the ``wal.group.*`` and rotation/flush crash sites all
        fire under the matrix.  A group acks all-or-nothing: a crash
        mid-group loses the whole (unacknowledged) group, and the
        trailing ``sync()`` means group ops never sit in the unsynced
        tail, so the ``sync_every`` tail bound is unchanged.
        """
        attempted: list[tuple[str, bytes, bytes | None]] = []
        acked = 0
        floor = 0
        crashed: str | None = None
        try:
            i = 0
            since_flush = since_drain = 0
            while i < self.ops:
                if since_flush >= self.FULL_FLUSH_EVERY:
                    store.flush()
                    since_flush = since_drain = 0
                    floor = max(floor, store.durability_ts())
                elif since_drain >= self.BACKGROUND_FLUSH_EVERY:
                    store.db.drain_immutables()
                    since_drain = 0
                    floor = max(floor, store.durability_ts())
                if rng.random() < self.GROUP_FRACTION:
                    size = rng.randrange(2, self.GROUP_MAX + 1)
                    group: list[tuple] = []
                    for _ in range(size):
                        gkey = self._key(rng.randrange(self.keyspace))
                        if rng.random() < 0.8:
                            value = self._value(i + len(group))
                            group.append(("put", gkey, value))
                            attempted.append(("put", gkey, value))
                        else:
                            group.append(("delete", gkey))
                            attempted.append(("del", gkey, None))
                    store.group_commit(group)
                    acked += len(group)
                    i += size
                    since_flush += size
                    since_drain += size
                    floor = max(floor, store.durability_ts())
                    continue
                roll = rng.random()
                key = self._key(rng.randrange(self.keyspace))
                if roll < self.PUT_FRACTION:
                    value = self._value(i)
                    attempted.append(("put", key, value))
                    store.put(key, value)
                    acked += 1
                elif roll < self.PUT_FRACTION + self.DELETE_FRACTION:
                    attempted.append(("del", key, None))
                    store.delete(key)
                    acked += 1
                else:
                    store.get(key)
                i += 1
                since_flush += 1
                since_drain += 1
                floor = max(floor, store.durability_ts())
        except SimulatedCrash as crash:
            crashed = crash.site
        return attempted, acked, floor, crashed

    @staticmethod
    def _model_at(
        attempted: list[tuple[str, bytes, bytes | None]], ts: int
    ) -> dict[bytes, bytes | None]:
        """The expected key -> value map after the first ``ts`` mutations."""
        state: dict[bytes, bytes | None] = {}
        for kind, key, value in attempted[:ts]:
            state[key] = value if kind == "put" else None
        return state

    # ------------------------------------------------------------------
    # Recovery + invariant checking
    # ------------------------------------------------------------------
    def _recover_and_check(
        self,
        result: CrashRunResult,
        old_store: ELSMP2Store,
        attempted: list[tuple[str, bytes, bytes | None]],
    ) -> CrashRunResult:
        """Reopen over the surviving disk and run every invariant."""
        try:
            store = self._build_store(old_store)
            store.recover_from_disk()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            result.ok = False
            result.detail = f"recovery failed: {type(exc).__name__}: {exc}"
            return result

        j = result.recovered_ts = store.current_ts
        result.dropped_entries = int(
            store.telemetry.counter("wal.recovery.dropped_entries").total()
            + store.telemetry.counter("wal.replay_dropped_entries").total()
        )
        failures: list[str] = []
        if j < result.durable_floor:
            failures.append(
                f"durable write lost: recovered ts {j} < floor "
                f"{result.durable_floor}"
            )
        if j > len(attempted):
            failures.append(
                f"recovered ts {j} exceeds {len(attempted)} attempted mutations"
            )
        if result.acked - j > self.sync_every:
            failures.append(
                f"tail loss {result.acked - j} exceeds sync_every "
                f"{self.sync_every}"
            )
        result.checks.append(f"prefix ts={j}")

        model = self._model_at(attempted, min(j, len(attempted)))
        for index in range(self.keyspace):
            key = self._key(index)
            expect = model.get(key)
            try:
                got = store.get(key)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"get({key!r}) raised {type(exc).__name__}: {exc}")
                continue
            if got != expect:
                failures.append(
                    f"state mismatch at {key!r}: got "
                    f"{got!r:.40}, expected {expect!r:.40}"
                )
        result.checks.append("state == model prefix")

        report = store.audit()
        if not report.clean:
            failures.append(f"audit failed: {report.summary()}")
        result.checks.append("audit clean")

        # Liveness: the recovered store must accept and serve new writes.
        try:
            for i in range(3):
                key = b"post-crash-%d" % i
                store.put(key, b"alive-%d" % i)
                if store.get(key) != b"alive-%d" % i:
                    failures.append(f"post-recovery readback failed for {key!r}")
            store.flush()
            if not store.audit().clean:
                failures.append("audit failed after post-recovery writes")
        except Exception as exc:  # noqa: BLE001
            failures.append(
                f"post-recovery write raised {type(exc).__name__}: {exc}"
            )
        result.checks.append("post-recovery liveness")

        result.ok = not failures
        result.detail = "; ".join(failures) if failures else "all invariants hold"
        return result

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------
    def run_site(self, site: str, hit: int = 1) -> CrashRunResult:
        """Crash the ``hit``-th time ``site`` fires, then recover."""
        scenario = f"site:{site}#{hit}"
        rng = random.Random(self._derive_seed(scenario))
        store = self._build_store()
        store.persist_seal()  # recovery always has a seal to fall back to
        plan = FaultPlan(self._derive_seed(scenario + ":plan"))
        plan.attach(store.disk)
        plan.crash_at(site, hit=hit)
        attempted, acked, floor, crashed = self._run_workload(store, rng)
        plan.disarm()
        result = CrashRunResult(
            scenario=scenario,
            ok=True,
            triggered=crashed is not None,
            crashed_at=crashed,
            acked=acked,
            durable_floor=floor,
        )
        if crashed is None:
            # The workload never reached this site at this hit count;
            # verify the intact store instead of failing the matrix.
            result.detail = "site not reached; verified final state"
            full = self._model_at(attempted, len(attempted))
            for index in range(self.keyspace):
                key = self._key(index)
                if store.get(key) != full.get(key):
                    result.ok = False
                    result.detail = f"final state mismatch at {key!r}"
            if not store.audit().clean:
                result.ok = False
                result.detail = "final audit failed"
            return result
        store.disk.power_loss(rng)
        return self._recover_and_check(result, store, attempted)

    def run_matrix(
        self, sites: tuple[str, ...] | None = None, hits: tuple[int, ...] = (1, 3)
    ) -> list[CrashRunResult]:
        """Crash at every registered site, at several hit counts."""
        results = []
        for site in sites or CRASH_SITES:
            for hit in hits:
                results.append(self.run_site(site, hit))
        return results

    def _crash_budget(self, scenario: str, plan: FaultPlan) -> int:
        """A seeded disk op for ``scenario`` to crash at: after the fsync
        ``plan`` drops, if any, and no later than the last disk op of a
        dry run of the same workload under ``plan`` (store and workload
        are deterministic per seed), so the crash fires."""
        store = self._build_store()
        store.persist_seal()
        plan.attach(store.disk)
        self._run_workload(store, random.Random(self._derive_seed(scenario)))
        first = plan.fsync_drops_at[0] + 1 if plan.fsync_drops_at else 1
        rng = random.Random(self._derive_seed(scenario + ":budget"))
        return rng.randint(first, max(plan.disk_ops, first))

    def run_random_crash(self, round_index: int) -> CrashRunResult:
        """Crash after a seeded-random number of disk operations."""
        scenario = f"random#{round_index}"
        crash_after = self._crash_budget(scenario, FaultPlan())
        rng = random.Random(self._derive_seed(scenario))
        store = self._build_store()
        store.persist_seal()
        plan = FaultPlan(self._derive_seed(scenario + ":plan"))
        plan.attach(store.disk)
        plan.crash_after_ops(crash_after)
        attempted, acked, floor, crashed = self._run_workload(store, rng)
        plan.disarm()
        result = CrashRunResult(
            scenario=f"{scenario}(disk-ops={crash_after})",
            ok=crashed is not None,
            triggered=crashed is not None,
            crashed_at=crashed,
            acked=acked,
            durable_floor=floor,
        )
        if crashed is None:
            result.detail = "workload finished before the op budget"
            return result
        store.disk.power_loss(rng)
        return self._recover_and_check(result, store, attempted)

    def run_random_crashes(self, rounds: int = 4) -> list[CrashRunResult]:
        return [self.run_random_crash(i) for i in range(rounds)]

    def run_rollback_check(self) -> CrashRunResult:
        """A malicious host restores an older disk image: must be caught.

        The image is exactly one seal old: seals are durable before the
        counter moves, so no honest seal is ever behind it.
        """
        scenario = "rollback"
        rng = random.Random(self._derive_seed(scenario))
        store = self._build_store()
        store.persist_seal()
        attempted, acked, floor, crashed = self._run_workload(store, rng)
        assert crashed is None
        host = RollbackHost(store.disk)
        host.snapshot()
        seals_before = store._seal_seq
        # Write until one more seal lands: the counter moves one past.
        extra_rng = random.Random(self._derive_seed(scenario + ":extra"))
        while store._seal_seq == seals_before:
            store.put(
                self._key(extra_rng.randrange(self.keyspace)),
                self._value(store.current_ts),
            )
        result = CrashRunResult(
            scenario=scenario, ok=True, triggered=True, acked=acked,
            durable_floor=floor,
        )
        if store._seal_seq - seals_before != 1:
            result.ok = False
            result.detail = "scenario bug: not exactly one seal after the snapshot"
            return result
        host.rollback_to(0)  # "power cycle" + the host swaps in the stale image
        try:
            self._build_store(store).recover_from_disk()
        except RollbackDetected:
            result.detail = "rollback detected as required"
            return result
        except Exception as exc:  # noqa: BLE001
            result.ok = False
            result.detail = (
                f"expected RollbackDetected, got {type(exc).__name__}: {exc}"
            )
            return result
        result.ok = False
        result.detail = "rolled-back state was accepted silently"
        return result

    def run_fsync_loss(self) -> CrashRunResult:
        """A lying device drops an acknowledged WAL fsync, then power
        fails.  The sealed digest then covers records the disk lost, so
        recovery must either refuse (IntegrityViolation) or — if the
        dropped interval was superseded by a flush — recover a state
        that is still a consistent prefix.
        """
        scenario = "fsync-loss"
        wal = f"{self.name_prefix}/wal.log*"
        crash_after = self._crash_budget(
            scenario, FaultPlan().drop_fsync(wal, times=1, after=2)
        )
        rng = random.Random(self._derive_seed(scenario))
        store = self._build_store()
        store.persist_seal()
        plan = FaultPlan(self._derive_seed(scenario + ":plan"))
        plan.attach(store.disk)
        plan.drop_fsync(wal, times=1, after=2)
        plan.crash_after_ops(crash_after)
        attempted, acked, floor, crashed = self._run_workload(store, rng)
        plan.disarm()
        triggered = crashed is not None and plan.injected_errors > 0
        result = CrashRunResult(
            scenario=scenario,
            ok=triggered,
            triggered=triggered,
            crashed_at=crashed,
            acked=acked,
            durable_floor=floor,
        )
        if not triggered:
            result.detail = "fsync drop or crash not reached"
            return result
        store.disk.power_loss(None)  # deterministic: unsynced tail gone
        try:
            revived = self._build_store(store)
            revived.recover_from_disk()
        except IntegrityViolation:
            result.detail = "acked-data loss detected (recovery refused)"
            return result
        except Exception as exc:  # noqa: BLE001
            result.ok = False
            result.detail = f"unexpected {type(exc).__name__}: {exc}"
            return result
        # The dropped interval was flushed into SSTables before the
        # crash; the recovered state must still be a clean prefix (the
        # floor may legitimately be violated — the device lied).
        result.detail = "recovered past the dropped fsync (flush superseded it)"
        j = revived.current_ts
        model = self._model_at(attempted, min(j, len(attempted)))
        for index in range(self.keyspace):
            key = self._key(index)
            if revived.get(key) != model.get(key):
                result.ok = False
                result.detail = f"state mismatch at {key!r} after fsync loss"
                return result
        if not revived.audit().clean:
            result.ok = False
            result.detail = "audit failed after fsync loss"
        return result

    # ------------------------------------------------------------------
    # Full suite
    # ------------------------------------------------------------------
    def run_all(
        self,
        sites: tuple[str, ...] | None = None,
        hits: tuple[int, ...] = (1, 3),
        random_rounds: int = 4,
    ) -> list[CrashRunResult]:
        results = self.run_matrix(sites=sites, hits=hits)
        results.extend(self.run_random_crashes(random_rounds))
        results.append(self.run_rollback_check())
        results.append(self.run_fsync_loss())
        return results
