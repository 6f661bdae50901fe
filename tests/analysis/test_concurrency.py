"""EL6xx fixtures: shared-state ownership and track discipline.

Each test seeds a scratch project (see ``conftest.Project``) with a
``[concurrency]`` policy and a tiny multi-threaded store, then runs the
real engine filtered to the rule under test — positives must fire on
the seeded line, negatives must stay silent, and the standard
``# elsm-lint: disable=EL###`` pragma must suppress.
"""

from __future__ import annotations

from tests.analysis.conftest import FIXTURE_ZONES, rules_of, source_text

CONC_ZONES = FIXTURE_ZONES + """\

[concurrency]
background_entries = ["repro.store.Worker._run"]
foreground_entries = [
    "repro.store.Store.put",
    "repro.store.Store.get",
    "repro.store.Store.set_mode",
    "repro.store.Store.requeue",
    "repro.store.Store.flush",
]
shared."repro.store.Store.items" = "lock:_lock"
shared."repro.store.Store.config" = "frozen-after-publish"
shared."repro.store.Store.flushes" = "single-writer:background"
published."repro.store.Store.queue" = ["append", "clear"]
error_recorders = ["_record_error"]
"""

STORE_HEADER = """\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = {}
        self.config = {"mode": 1}
        self.flushes = 0
        self.queue = []
        self.scratch = []
"""


# ----------------------------------------------------------------------
# EL601 — declared-lock, single-writer, and undeclared-pair violations
# ----------------------------------------------------------------------
def test_el601_unlocked_read_and_write_fire(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self.items[key] = value

    def get(self, key):
        return self.items.get(key)


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        self.store.items.clear()
""",
    )
    findings = project.lint(["EL601"])
    assert rules_of(findings) == ["EL601", "EL601"]
    messages = sorted(f.message for f in findings)
    assert any("reads it without holding the lock" in m for m in messages)
    assert any("writes it without holding the lock" in m for m in messages)


def test_el601_locked_accesses_are_clean(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self.items[key] = value

    def get(self, key):
        with self._lock:
            return self.items.get(key)


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        with self.store._lock:
            self.store.items.clear()
""",
    )
    assert project.lint(["EL601"]) == []


def test_el601_always_held_helper_is_clean(project):
    """A helper whose every reachable caller holds the lock inherits it
    (the always-held greatest fixpoint) — no lexical lock needed."""
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self._insert(key, value)

    def get(self, key):
        with self._lock:
            return self._insert(key, None)

    def _insert(self, key, value):
        self.items[key] = value


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        with self.store._lock:
            self.store._insert("bg", 1)
""",
    )
    assert project.lint(["EL601"]) == []


def test_el601_track_opener_keeps_callers_lock_context(project):
    """parallel_track runs on the calling thread: a track opener called
    under the lock is still under the lock inside the track body."""
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self._flush_bg(key, value)

    def _flush_bg(self, key, value):
        with self.clock.parallel_track():
            self.items[key] = value
""",
    )
    assert project.lint(["EL601"]) == []


def test_el601_single_writer_wrong_side_write(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        self.flushes += 1


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        self.store.flushes += 1
""",
    )
    findings = project.lint(["EL601"])
    assert rules_of(findings) == ["EL601"]
    assert "single-writer:background" in findings[0].message
    assert "Store.put" in findings[0].message


def test_el601_undeclared_shared_write_pair(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def get(self, key):
        return len(self.scratch)


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        self.store.scratch.append(1)
""",
    )
    findings = project.lint(["EL601"])
    assert rules_of(findings) == ["EL601"]
    assert "declares no ownership" in findings[0].message


def test_el601_pragma_suppresses(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self.items[key] = value

    def get(self, key):
        return self.items.get(key)  # elsm-lint: disable=EL601
""",
    )
    assert project.lint(["EL601"]) == []


# ----------------------------------------------------------------------
# EL602 — frozen-after-publish, published elements, freeze-then-mutate
# ----------------------------------------------------------------------
def test_el602_frozen_attribute_written_after_publish(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def set_mode(self, mode):
        self.config["mode"] = mode
""",
    )
    findings = project.lint(["EL602"])
    assert rules_of(findings) == ["EL602"]
    assert "frozen-after-publish" in findings[0].message


def test_el602_published_element_mutated(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def requeue(self):
        self.queue[0].append(1)
        head = self.queue[0]
        head.clear()
""",
    )
    findings = project.lint(["EL602"])
    assert rules_of(findings) == ["EL602", "EL602"]
    assert all("published container" in f.message for f in findings)


def test_el602_published_mutators_only_listed_ones(project):
    """Mutators outside the policy list (e.g. a read-like .count()) and
    whole-container rebinds are not element mutations."""
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def requeue(self):
        n = self.queue[0].count(1)
        return n
""",
    )
    assert project.lint(["EL602"]) == []


def test_el602_freeze_then_mutate(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def build(make):
    table = make()
    table.freeze()
    table.append(1)
""",
    )
    findings = project.lint(["EL602"])
    assert rules_of(findings) == ["EL602"]
    assert "frozen earlier" in findings[0].message


def test_el602_freeze_then_rebind_is_clean(project):
    """Rebinding the name after freezing starts a fresh object; a freeze
    on only one branch does not poison the join."""
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def rebind(make):
    table = make()
    table.freeze()
    table = make()
    table.append(1)


def one_branch(make, cold):
    table = make()
    if cold:
        table.freeze()
    else:
        pass
    table.append(1)
""",
    )
    assert project.lint(["EL602"]) == []


# ----------------------------------------------------------------------
# EL603 — parallel_track discipline
# ----------------------------------------------------------------------
def test_el603_nested_track_and_join_inside(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def nested(clock):
    with clock.parallel_track():
        with clock.parallel_track():
            pass


def join_inside(clock):
    with clock.parallel_track() as track:
        clock.wait_until(track.end_us)
""",
    )
    findings = project.lint(["EL603"])
    assert rules_of(findings) == ["EL603", "EL603"]
    assert any("do not nest" in f.message for f in findings)
    assert any("wait_until inside" in f.message for f in findings)


def test_el603_track_without_with_and_escape(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
class Runner:
    def leak(self, clock):
        track = clock.parallel_track()
        return track

    def stash(self, clock):
        with clock.parallel_track() as track:
            pass
        self.last = track
""",
    )
    findings = project.lint(["EL603"])
    assert rules_of(findings) == ["EL603", "EL603"]
    assert any("context manager" in f.message for f in findings)
    assert any("escapes" in f.message for f in findings)


def test_el603_nesting_through_a_helper_call(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def helper(clock):
    with clock.parallel_track():
        pass


def outer(clock):
    with clock.parallel_track():
        helper(clock)
""",
    )
    findings = project.lint(["EL603"])
    assert rules_of(findings) == ["EL603"]
    assert "opens another track" in findings[0].message


def test_el603_non_monotone_fork_warns(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def backdate_raw(clock, enqueue_us):
    with clock.parallel_track(start_us=enqueue_us):
        pass
""",
    )
    findings = project.lint(["EL603"])
    assert rules_of(findings) == ["EL603"]
    assert "not visibly monotone" in findings[0].message
    assert findings[0].severity.value == "warning"


def test_el603_fork_rebound_after_max_warns(project):
    """A name is a monotone fork only if every binding of it is a plain
    ``max(...)``: a later augmented or plain rebinding backdates it."""
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def backdate_after_max(clock, enqueue_us, free_us):
    fork_us = max(enqueue_us, free_us)
    fork_us -= 500
    with clock.parallel_track(start_us=fork_us):
        pass


def rebind_after_max(clock, enqueue_us, free_us):
    fork_us = max(enqueue_us, free_us)
    fork_us = enqueue_us - 500
    with clock.parallel_track(start_us=fork_us):
        pass
""",
    )
    findings = project.lint(["EL603"])
    assert rules_of(findings) == ["EL603", "EL603"]
    assert [f.line for f in findings] == [5, 12]
    assert all("not visibly monotone" in f.message for f in findings)


def test_el603_monotone_forks_are_clean(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
def fork_now(clock):
    with clock.parallel_track(start_us=clock.now_us):
        pass


def fork_max(clock, enqueue_us, free_us):
    with clock.parallel_track(start_us=max(enqueue_us, free_us)):
        pass


def fork_named_max(clock, enqueue_us, free_us):
    fork_us = max(enqueue_us, free_us)
    with clock.parallel_track(start_us=fork_us):
        pass
""",
    )
    assert project.lint(["EL603"]) == []


# ----------------------------------------------------------------------
# EL604 — the bounded error ring
# ----------------------------------------------------------------------
def test_el604_swallowing_handler_in_policy_entry(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
class Worker:
    def _step(self):
        raise RuntimeError

    def _run(self):
        while True:
            try:
                self._step()
            except Exception:
                pass
""",
    )
    findings = project.lint(["EL604"])
    # One per swallowing handler, one for the entry having no recording
    # handler at all.
    assert rules_of(findings) == ["EL604", "EL604"]
    assert any("without recording" in f.message for f in findings)
    assert any("no except-Exception handler" in f.message for f in findings)


def test_el604_discovered_thread_target_without_ring(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
import threading


class Poller:
    def loop(self):
        while True:
            self.tick()

    def start(self):
        threading.Thread(target=self.loop, daemon=True).start()
""",
    )
    findings = project.lint(["EL604"])
    assert rules_of(findings) == ["EL604"]
    assert "Poller.loop" in findings[0].message


def test_el604_recording_handler_is_clean(project):
    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        """
class Worker:
    def _record_error(self, exc):
        self.errors = exc

    def _step(self):
        raise RuntimeError

    def _run(self):
        while True:
            try:
                self._step()
            except Exception as exc:
                self._record_error(exc)
                break
""",
    )
    assert project.lint(["EL604"]) == []


# ---------------------------------------------------------------------------
# The real tree: one store lock, taken by one name
# ---------------------------------------------------------------------------
def test_el601_fires_when_the_store_takes_a_second_lock(mutated_repo):
    """A store operation lock apart from ``LSMStore._lock`` is a race.

    One copy of the real tree gives ``PlacedStore`` its own
    ``threading.RLock`` again, taken by every store operation in place of
    the engine lock.  A background flush holds only the engine lock, so
    each access the store operations then make to engine state through
    an unlocked helper (``memtables``, ``level_run``,
    ``WriteAheadLog.sync``) must fire EL601.  Findings are located by
    source text, not line.
    """
    from repro.analysis.concurrency import run_concurrency

    def mutate(root):
        core = root / "src" / "repro" / "core"
        placed = core / "placed.py"
        text = placed.read_text()
        init = "        self._ts = 0\n"
        assert text.count(init) == 1
        text = text.replace(init, init + "        self._op_lock = threading.RLock()\n")
        placed.write_text("import threading\n" + text)
        for path in (placed, core / "store_p2.py"):
            text = path.read_text()
            assert "with self.db._lock," in text
            path.write_text(text.replace("with self.db._lock,", "with self._op_lock,"))

    index = mutated_repo(mutate)
    fired = sorted(
        (f.path, source_text(index, f), f.message.split()[2])  # the shared attribute
        for f in run_concurrency(index)
        if f.rule == "EL601"
    )
    memtables = "return [self.memtable, *reversed(self.immutables)]"
    durable = "self._durable_ts = self._appended_ts"
    assert fired == [
        ("src/repro/lsm/db.py", memtables, "repro.lsm.db.LSMStore.immutables"),
        ("src/repro/lsm/db.py", memtables, "repro.lsm.db.LSMStore.memtable"),
        ("src/repro/lsm/db.py", "return self._levels.get(level)", "repro.lsm.db.LSMStore._levels"),
        (
            "src/repro/lsm/wal.py",
            "self._appends_since_sync = 0",
            "repro.lsm.wal.WriteAheadLog._appends_since_sync",
        ),
        ("src/repro/lsm/wal.py", durable, "repro.lsm.wal.WriteAheadLog._appended_ts"),
        ("src/repro/lsm/wal.py", durable, "repro.lsm.wal.WriteAheadLog._durable_ts"),
    ]
