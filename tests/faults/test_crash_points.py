"""Named crash points fire where the commit protocol says they do."""

import pytest

from repro.faults import CRASH_SITES, FaultPlan, SimulatedCrash
from tests.conftest import kv, make_p2_store


def test_crash_point_is_noop_without_plan(free_env):
    free_env.crash_point("flush.after_install")  # must not raise


def test_crash_fires_at_exact_hit_count():
    store = make_p2_store(wal_sync_every=4)
    plan = FaultPlan().attach(store.disk)
    plan.crash_at("wal.sync.after_fsync", hit=2)
    store.put(*kv(0))
    with pytest.raises(SimulatedCrash) as excinfo:
        for i in range(1, 50):
            store.put(*kv(i))
    assert excinfo.value.site == "wal.sync.after_fsync"
    assert plan.crash_log == ["wal.sync.after_fsync"]


def test_flush_crash_leaves_previous_manifest_on_disk():
    """Crash after installing the new manifest: the superseded one must
    still be on disk (deferred deletion), so recovery can choose."""
    store = make_p2_store()
    for i in range(60):
        store.put(*kv(i))
    store.flush()  # manifest 1 committed
    first_manifest = f"{store.db.name_prefix}/MANIFEST-{store.db.manifest_seq:06d}"
    plan = FaultPlan().attach(store.disk)
    plan.crash_at("flush.after_install")
    with pytest.raises(SimulatedCrash):
        for i in range(60, 200):
            store.put(*kv(i))
    manifests = [n for n in store.disk.list_files() if "/MANIFEST-" in n]
    assert first_manifest in manifests  # old state still recoverable
    assert len(manifests) >= 2


def test_seal_crash_site_reached_via_autoseal():
    store = make_p2_store(
        rollback_protection=True,
        autoseal=True,
        wal_sync_every=4,
    )
    plan = FaultPlan().attach(store.disk)
    plan.crash_at("seal.before_write", hit=2)
    with pytest.raises(SimulatedCrash):
        for i in range(50):
            store.put(*kv(i))


def test_every_registered_site_name_is_wired():
    """Grep the source tree: each CRASH_SITES entry appears at a
    crash_point call site (and vice versa), so the harness matrix cannot
    silently skip a dangling name."""
    import pathlib
    import re

    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    called = set()
    for path in src.rglob("*.py"):
        if "faults" in path.parts:
            continue
        called.update(re.findall(r"crash_point\(\s*\"([a-z_.]+)\"", path.read_text()))
    assert called == set(CRASH_SITES)
