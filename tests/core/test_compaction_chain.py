"""A flush's compaction chain: one write, one manifest, one commit.

At perfbench's geometry every flush overflows level 1, so its merge into
level 1 is the first of a chain that merges each over-capacity output on
into the next level from enclave memory.  These tests drive one chosen
write whose flush runs a chain of a given length and check the chain's
contract on the disk operations it makes, on a tampered input level, and
under crashes at each of its crash sites.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import IntegrityViolation
from repro.core.store_p2 import ELSMP2Store
from repro.faults import FaultPlan, SimulatedCrash
from repro.lsm.events import EventListener
from repro.lsm.sstable import decode_entry
from repro.sim.scale import ScaleConfig

KEYS = 2000


def _store(**options) -> ELSMP2Store:
    """perfbench's store geometry (``perfbench.harness.build_store``)."""
    return ELSMP2Store(
        scale=ScaleConfig(factor=1 / 4096),
        write_buffer_bytes=4096,
        level1_max_bytes=8192,
        file_max_bytes=8192,
        block_bytes=1024,
        max_immutable_memtables=0,
        **options,
    )


def _writes(n: int) -> list[tuple[bytes, bytes]]:
    rng = random.Random("compaction-chain")
    return [(b"user%06d" % rng.randrange(KEYS), rng.randbytes(100)) for _ in range(n)]


class _Chains(EventListener):
    """The tables each merge of each flush's chain builds."""

    def __init__(self) -> None:
        self.chains: list[list[int]] = []

    def on_compaction_begin(self, ctx) -> None:
        if ctx.kind == "flush":
            self.chains.append([])
        self.chains[-1].append(0)

    def on_table_file_created(self, ctx, entries):
        self.chains[-1][-1] += 1
        return entries


class _Recorder(FaultPlan):
    """A fault plan that injects nothing and logs every disk op and site."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple[str, str]] = []
        self.sites: list[str] = []

    def crash_point(self, site: str) -> None:
        self.sites.append(site)
        super().crash_point(site)

    def on_disk_op(self, disk, op, name, data):
        self.ops.append((op, name))
        return super().on_disk_op(disk, op, name, data)


def _find_chain(steps: int, nth: int = 1, **options) -> tuple[int, list[int]]:
    """The index of the write whose flush runs the ``nth`` chain of
    ``steps`` merges, and the tables each merge of that chain builds."""
    store = _store(**options)
    recorder = _Chains()
    store.db.listeners.append(recorder)
    for index, (key, value) in enumerate(_writes(3000)):
        flushes = len(recorder.chains)
        store.put(key, value)
        if len(recorder.chains) > flushes and len(recorder.chains[-1]) == steps:
            nth -= 1
            if nth == 0:
                return index, recorder.chains[-1]
    raise AssertionError(f"too few {steps}-step chains in 3000 writes")


def _store_before(index: int, **options) -> ELSMP2Store:
    """A store that took the writes before ``index``."""
    store = _store(**options)
    if store.autoseal:
        store.persist_seal()  # recovery always has a seal to fall back to
    for key, value in _writes(index):
        store.put(key, value)
    return store


def _level_map(store: ELSMP2Store) -> dict[int, list[str]]:
    return {
        level: [meta.name for meta in store.db.level_run(level).tables]
        for level in store.db.level_indices()
    }


@pytest.mark.parametrize("steps", [2, 3])
def test_a_chain_writes_each_table_once_and_commits_once(steps):
    index, _ = _find_chain(steps)
    store = _store_before(index)
    before = set(store.disk.list_files())
    plan = _Recorder().attach(store.disk)
    store.put(*_writes(index + 1)[index])

    created = [name for op, name in plan.ops if op == "create"]
    tables = [name for name in created if name.endswith(".sst")]
    output = _level_map(store)[store.db.level_indices()[0]]
    assert tables == output, "only the chain's last output is written"
    assert sorted(set(tables)) == sorted(tables), "each table written once"
    assert not before & set(tables)
    read = {name for op, name in plan.ops if op == "read"}
    assert not read & set(created), "the chain reads nothing it wrote"
    assert len([name for name in created if "/MANIFEST-" in name]) == 1
    assert plan.sites.count("commit.before_hook") == 1
    assert plan.sites.count("compaction.after_install") == 1
    assert store.audit().clean


def test_a_tampered_input_level_fails_the_chain_before_any_write():
    index, _ = _find_chain(2, nth=2)  # the first one finds level 2 empty
    store = _store_before(index)
    assert store.db.level_run(2) is not None and not store.db.level_run(2).is_empty
    data = store.disk.open(store.db.level_run(2).tables[0].name).data
    (record, aux), end = decode_entry(bytes(data))
    data[end - len(aux) - len(record.value)] ^= 1  # the first value's first byte
    registry = store.registry.to_payload()
    manifest_seq = store.db.manifest_seq
    levels = _level_map(store)
    plan = _Recorder().attach(store.disk)

    with pytest.raises(IntegrityViolation):
        store.put(*_writes(index + 1)[index])

    written = [
        name
        for op, name in plan.ops
        if op != "read" and (name.endswith(".sst") or "/MANIFEST-" in name)
    ]
    assert written == []
    assert store.registry.to_payload() == registry
    assert store.db.manifest_seq == manifest_seq
    assert _level_map(store) == levels


@pytest.mark.parametrize(
    "site, table",
    [
        ("compactor.before_file", "flush"),  # a table the chain merges on
        ("compactor.before_file", "last"),  # a table of the chain's output
        ("manifest.before_write", None),
        ("commit.before_hook", None),
    ],
)
def test_a_crash_inside_a_chain_recovers_an_acknowledged_prefix(site, table):
    options = dict(autoseal=True, rollback_protection=True)
    index, tables = _find_chain(3, **options)
    hit = tables[0] + tables[1] + 1 if table == "last" else 1
    writes = _writes(index + 1)
    store = _store_before(index, **options)
    floor = store.durability_ts()
    plan = FaultPlan().attach(store.disk)
    plan.crash_at(site, hit=hit)
    with pytest.raises(SimulatedCrash):
        store.put(*writes[index])
    plan.disarm()
    store.disk.power_loss(random.Random(0))

    recovered = _store(
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
        **options,
    )
    recovered.recover_from_disk()
    prefix = recovered.current_ts
    assert floor <= prefix <= index + 1
    model = dict(writes[:prefix])
    for key, _ in writes:
        assert recovered.get(key) == model.get(key)
    assert recovered.audit().clean
