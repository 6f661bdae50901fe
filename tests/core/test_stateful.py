"""Stateful property testing: arbitrary interleavings of the full API.

A hypothesis rule-based state machine drives the eLSM-P2 store through
random sequences of PUT / DELETE / GET / SCAN / FLUSH / explicit
COMPACTION / group commits, checking after every step that verified
results match a model dictionary and that the trusted registry mirrors
the manifest.  This is the strongest correctness net in the suite: any
interaction bug between flushing, cascaded authenticated compaction,
version chains, tombstones, and proof generation shows up here.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from tests.conftest import make_p2_store

KEYS = [b"key%02d" % i for i in range(18)]


class ELSMStateMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = make_p2_store()
        self.model: dict[bytes, bytes] = {}
        self.version = 0

    # ------------------------------------------------------------------
    @rule(key=st.sampled_from(KEYS))
    def put(self, key: bytes) -> None:
        self.version += 1
        value = b"v%d" % self.version
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key: bytes) -> None:
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(
        ops=st.lists(
            st.tuples(st.booleans(), st.sampled_from(KEYS)), min_size=1, max_size=5
        )
    )
    def batch(self, ops: list[tuple[bool, bytes]]) -> None:
        """A group of puts and deletes, possibly repeating a key: it must
        resolve exactly like the same ops applied one by one."""
        self.version += 1
        value = b"b%d" % self.version
        group = [("put", key, value) if is_put else ("delete", key) for is_put, key in ops]
        self.store.group_commit(group)
        for op in group:
            if op[0] == "put":
                self.model[op[1]] = op[2]
            else:
                self.model.pop(op[1], None)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key: bytes) -> None:
        assert self.store.get(key) == self.model.get(key)

    @rule(a=st.sampled_from(KEYS), b=st.sampled_from(KEYS))
    def scan(self, a: bytes, b: bytes) -> None:
        lo, hi = min(a, b), max(a, b)
        expected = [
            (key, self.model[key]) for key in sorted(self.model) if lo <= key <= hi
        ]
        assert self.store.scan(lo, hi) == expected

    @rule()
    def flush(self) -> None:
        self.store.flush()

    @rule()
    def compact_everything(self) -> None:
        self.store.compact_all()

    @precondition(lambda self: len(self.store.db.level_indices()) >= 2)
    @rule()
    def compact_shallowest(self) -> None:
        self.store.compact_level(self.store.db.level_indices()[0])

    # ------------------------------------------------------------------
    @invariant()
    def registry_mirrors_manifest(self) -> None:
        assert (
            self.store.registry.nonempty_levels()
            == self.store.db.level_indices()
        )

    @invariant()
    def level_metadata_consistent(self) -> None:
        for level in self.store.db.level_indices():
            digest = self.store.registry.get(level)
            run = self.store.db.level_run(level)
            assert digest.record_count == run.record_count
            assert digest.min_key == run.min_key
            assert digest.max_key == run.max_key


ELSMStateMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TestELSMStateMachine = ELSMStateMachine.TestCase
