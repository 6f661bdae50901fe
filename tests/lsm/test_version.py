"""Level runs: lookup with neighbours, ranges, iteration."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.cache import ReadBuffer
from repro.lsm.records import Record
from repro.lsm.sstable import (
    BlockFetcher,
    ScopedBlockCache,
    SSTableBuilder,
    write_table,
)
from repro.lsm.version import LevelRun
from repro.sgx.env import ExecutionEnv
from repro.sim.clock import SimClock
from repro.sim.costs import ZERO_COSTS
from repro.sim.disk import SimDisk
from tests.conftest import kv, make_p2_store


def build_run(env, groups, files=1, block_bytes=128):
    """groups: list of (key, [ts...]) — ts descending per key."""
    per_file = max(1, (len(groups) + files - 1) // files)
    metas = []
    for file_no, start in enumerate(range(0, len(groups), per_file)):
        builder = SSTableBuilder(
            env, f"run/f{file_no}", level=1, file_no=file_no, block_bytes=block_bytes
        )
        for key, ts_list in groups[start : start + per_file]:
            for ts in ts_list:
                builder.add(Record(key=key, ts=ts, value=b"v%d" % ts))
        metas.append(write_table(env, builder.build()))
    return LevelRun(1, metas)


def make_fetcher(env):
    return BlockFetcher(env, buffer=ReadBuffer(env, 64 * 1024, block_stride=128))


GROUPS = [
    (b"aaa", [9]),
    (b"ccc", [7, 4, 2]),
    (b"eee", [5]),
    (b"ggg", [8, 3]),
    (b"iii", [6]),
]


@pytest.mark.parametrize("files", [1, 2, 5])
def test_lookup_hit_returns_whole_group(free_env, files):
    run = build_run(free_env, GROUPS, files=files)
    fetcher = make_fetcher(free_env)
    result = run.lookup(fetcher, b"ccc")
    assert [r.ts for r, _ in result.group] == [7, 4, 2]
    assert result.left[0].key == b"aaa"
    assert result.right[0].key == b"eee"


@pytest.mark.parametrize("files", [1, 2, 5])
def test_lookup_miss_returns_adjacent_newest(free_env, files):
    run = build_run(free_env, GROUPS, files=files)
    fetcher = make_fetcher(free_env)
    result = run.lookup(fetcher, b"dzz")
    assert result.group == []
    assert result.left[0].key == b"ccc"
    assert result.left[0].ts == 7  # newest of the predecessor chain
    assert result.right[0].key == b"eee"


def test_lookup_before_first(free_env):
    run = build_run(free_env, GROUPS)
    result = run.lookup(make_fetcher(free_env), b"a")
    assert result.group == []
    assert result.left is None
    assert result.right[0].key == b"aaa"


def test_lookup_after_last(free_env):
    run = build_run(free_env, GROUPS, files=2)
    result = run.lookup(make_fetcher(free_env), b"zzz")
    assert result.group == []
    assert result.right is None
    assert result.left[0].key == b"iii"
    assert result.left[0].ts == 6


def test_neighbour_newest_across_file_boundary(free_env):
    """Predecessor group's newest entry may live in the previous file."""
    run = build_run(free_env, GROUPS, files=5)  # one group per file
    result = run.lookup(make_fetcher(free_env), b"ddd")
    assert result.left[0].key == b"ccc" and result.left[0].ts == 7


def test_get_group(free_env):
    run = build_run(free_env, GROUPS)
    fetcher = make_fetcher(free_env)
    group = run.get_group(fetcher, b"ggg")
    assert [r.ts for r, _ in group] == [8, 3]
    assert run.get_group(fetcher, b"nope") == []


def test_range_entries_inclusive(free_env):
    run = build_run(free_env, GROUPS, files=2)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"ccc", b"ggg"
    )
    assert [r.key for r, _ in entries] == [
        b"ccc", b"ccc", b"ccc", b"eee", b"ggg", b"ggg",
    ]
    assert left[0].key == b"aaa"
    assert right[0].key == b"iii"


def test_range_entries_empty_window(free_env):
    run = build_run(free_env, GROUPS)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"cd", b"cz"
    )
    assert entries == []
    assert left[0].key == b"ccc"
    assert right[0].key == b"eee"


def test_range_whole_run(free_env):
    run = build_run(free_env, GROUPS)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"a", b"z"
    )
    assert left is None and right is None
    assert len(entries) == 8


def test_bad_range_rejected(free_env):
    run = build_run(free_env, GROUPS)
    with pytest.raises(ValueError):
        run.range_entries(make_fetcher(free_env), b"z", b"a")


def test_iter_entries_order(free_env):
    run = build_run(free_env, GROUPS, files=3)
    keys = [(r.key, r.ts) for r, _ in run.iter_entries(free_env)]
    assert keys == sorted(keys, key=lambda pair: (pair[0], -pair[1]))
    assert len(keys) == 8


def test_overlapping_tables_rejected(free_env):
    builder_a = SSTableBuilder(free_env, "o/a", level=1, file_no=1)
    builder_a.add(Record(key=b"a", ts=1))
    builder_a.add(Record(key=b"m", ts=2))
    meta_a = write_table(free_env, builder_a.build())
    builder_b = SSTableBuilder(free_env, "o/b", level=1, file_no=2)
    builder_b.add(Record(key=b"k", ts=3))
    meta_b = write_table(free_env, builder_b.build())
    with pytest.raises(ValueError):
        LevelRun(1, [meta_a, meta_b])


def test_may_contain_uses_range_and_bloom(free_env):
    run = build_run(free_env, GROUPS)
    assert run.may_contain(b"ccc")
    assert not run.may_contain(b"zzzz")  # beyond max key
    assert not run.may_contain(b"0")  # before min key


def test_empty_run(free_env):
    run = LevelRun(1, [])
    assert run.is_empty
    assert run.total_bytes == 0
    assert run.min_key is None


# ----------------------------------------------------------------------
# Brute-force reference: navigation equals a scan of the sorted entries
# ----------------------------------------------------------------------
def _key(index: int) -> bytes:
    return b"k%04d" % index


def _versioned_groups(versions: list[int]) -> list[tuple[bytes, list[int]]]:
    """Keys k0002, k0004, ... with the given version counts, ts descending."""
    groups = []
    ts = 10 * len(versions)
    for i, count in enumerate(versions):
        groups.append((_key(2 * i + 2), list(range(ts, ts - count, -1))))
        ts -= count
    return groups


class _Reference:
    """What a brute-force scan of the run's sorted entries answers."""

    def __init__(self, groups):
        self.entries = [
            (Record(key=key, ts=ts, value=b"v%d" % ts), b"")
            for key, ts_list in groups
            for ts in ts_list
        ]
        self.keys = [key for key, _ in groups]

    def group(self, key):
        return [entry for entry in self.entries if entry[0].key == key]

    def between(self, lo, hi):
        return [entry for entry in self.entries if lo <= entry[0].key <= hi]

    def newest_below(self, key):
        below = [k for k in self.keys if k < key]
        return self.group(below[-1])[0] if below else None

    def newest_above(self, key):
        above = [k for k in self.keys if k > key]
        return self.group(above[0])[0] if above else None


def _zero_cost_env() -> ExecutionEnv:
    clock = SimClock()
    return ExecutionEnv(clock, ZERO_COSTS, SimDisk(clock, ZERO_COSTS))


@given(
    versions=st.lists(st.integers(1, 6), min_size=1, max_size=40),
    block_bytes=st.integers(16, 512),
    files=st.integers(1, 14),
    bounds=st.lists(st.tuples(st.integers(0, 90), st.integers(0, 90)), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_navigation_matches_brute_force(versions, block_bytes, files, bounds):
    env = _zero_cost_env()
    groups = _versioned_groups(versions)
    run = build_run(env, groups, files=files, block_bytes=block_bytes)
    fetcher = make_fetcher(env)
    ref = _Reference(groups)
    last = 2 * len(versions) + 2
    # Even indices are stored; odd ones are absent: below the minimum
    # (1), between two keys, or above the maximum (last + 1).
    probes = [_key(i) for i in range(1, last + 2)] + [b"k9999"]
    for key in probes:
        result = run.lookup(fetcher, key)
        assert result.group == ref.group(key)
        assert result.left == ref.newest_below(key)
        assert result.right == ref.newest_above(key)
        assert run.get_group(fetcher, key) == ref.group(key)
    ranges = [(_key(0), b"k9999"), (_key(2), _key(last))]  # full run
    ranges += [(_key(i), _key(i)) for i in range(1, last + 2)]  # one key / empty
    ranges += [(_key(min(pair)), _key(max(pair))) for pair in bounds]
    for lo, hi in ranges:
        left, entries, right = run.range_entries(fetcher, lo, hi)
        assert entries == ref.between(lo, hi)
        assert left == ref.newest_below(lo)
        assert right == ref.newest_above(hi)


# ----------------------------------------------------------------------
# Block residency: each block is fetched at most once per operation
# ----------------------------------------------------------------------
class CountingFetcher:
    """Counts ``read_block`` calls per (file, offset) over a real fetcher."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: Counter = Counter()

    def read_block(self, meta, handle):
        self.calls[(meta.name, handle.offset)] += 1
        return self.inner.read_block(meta, handle)


def _multi_block_run(env):
    """Three files of small blocks; version groups straddle block edges."""
    groups = _versioned_groups([1, 3, 2, 1, 4, 1, 2, 3, 1, 1, 2, 5])
    return build_run(env, groups, files=3, block_bytes=48), groups


def test_each_block_fetched_once_per_operation(free_env):
    run, groups = _multi_block_run(free_env)
    probes = [_key(i) for i in range(0, 2 * len(groups) + 4)]

    def lookup_with_neighbours(fetcher, key):
        result = run.lookup(fetcher, key)
        return result.left, result.right  # resolved inside the operation

    operations = [
        lookup_with_neighbours,
        run.get_group,
        lambda fetcher, key: run.range_entries(fetcher, key, max(key, _key(len(groups)))),
    ]
    for operation in operations:
        for key in probes:
            counting = CountingFetcher(make_fetcher(free_env))
            operation(counting, key)
            assert set(counting.calls.values()) <= {1}
    # A MULTIGET scope shares residency across every key of the batch.
    counting = CountingFetcher(make_fetcher(free_env))
    scope = ScopedBlockCache(counting)
    for key in probes:
        lookup_with_neighbours(scope, key)
    assert set(counting.calls.values()) == {1}
    assert scope.misses == len(counting.calls)


def test_membership_lookup_fetches_only_the_groups_blocks(free_env):
    run, groups = _multi_block_run(free_env)
    for key, _ in groups:
        counting = CountingFetcher(make_fetcher(free_env))
        assert run.lookup(counting, key).group
        holding = {
            (meta.name, handle.offset)
            for meta in run.tables
            for handle in meta.handles
            if handle.first_key <= key <= handle.last_key
        }
        assert dict(counting.calls) == {block: 1 for block in holding}


def test_verified_get_reads_each_block_once():
    store = make_p2_store()
    for i in range(300):
        store.put(*kv(i))
    for i in range(0, 300, 4):
        store.put(*kv(i, version=1))
    store.flush()
    assert len(store.db.level_indices()) >= 2
    counting = CountingFetcher(store.db.fetcher)
    store.db.fetcher = counting
    present = [kv(i)[0] for i in range(0, 300, 7)]
    probes = present + [key + b"+" for key in present]
    fetches = 0
    for key in probes:
        counting.calls.clear()
        store.get_verified(key)
        assert sum(counting.calls.values()) == len(counting.calls)
        fetches += len(counting.calls)
    assert fetches >= len(present)  # every present key was read from a level
    counting.calls.clear()
    store.multi_get_verified(probes)
    assert set(counting.calls.values()) == {1}
