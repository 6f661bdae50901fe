"""The four workloads: a fixed data set each, and calls drawn from the seed.

The data set (loaded keys, load order, values, popularity ranking) belongs
to the workload and never changes, so the level that holds the hottest key
stays where it is.  The calls belong to the seed: every key, coin and value
byte is drawn i.i.d. from ``random.Random(f"{name}:{seed}")``.  The store
only ever sees the generated calls; :class:`Model` replays the same calls
into a dict of versions and supplies the value each call must return.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable

VALUE_BYTES = 100
ZIPF_THETA = 0.99
#: One call: (kind, args).  kind is a method name of ``ELSMP2Store``.
Call = tuple[str, tuple]


def key_of(index: int) -> bytes:
    return b"user%06d" % index


def fixed_value(index: int, version: int) -> bytes:
    """A load-phase value: fixed by the data set, not by the seed."""
    head = b"%06d.%02d." % (index, version)
    return head + b"v" * (VALUE_BYTES - len(head))


class Zipf:
    """Zipfian ranks (0 = most popular) over ``n`` items, theta 0.99."""

    def __init__(self, n: int) -> None:
        weights = [1.0 / (rank + 1) ** ZIPF_THETA for rank in range(n)]
        self.cdf = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random, n: int | None = None) -> int:
        """A rank below ``n`` (default: all items)."""
        top = self.cdf[-1] if n is None else self.cdf[n - 1]
        return bisect.bisect_left(self.cdf, rng.random() * top)


class Model:
    """Dict-of-versions reference: what a correct store must answer."""

    def __init__(self) -> None:
        self.versions: dict[bytes, list[tuple[int, bytes | None]]] = {}
        self.ts = 0

    def put(self, key: bytes, value: bytes | None) -> int:
        self.ts += 1
        self.versions.setdefault(key, []).append((self.ts, value))
        return self.ts

    def get(self, key: bytes, at_ts: int | None = None) -> bytes | None:
        for ts, value in reversed(self.versions.get(key, ())):
            if at_ts is None or ts <= at_ts:
                return value
        return None

    def scan(self, lo: bytes, hi: bytes) -> list[tuple[bytes, bytes]]:
        out = []
        for key in sorted(k for k in self.versions if lo <= k <= hi):
            value = self.get(key)
            if value is not None:
                out.append((key, value))
        return out

    def apply(self, call: Call):
        """Replay one call; returns what the store must return for it."""
        kind, args = call
        if kind == "put":
            return self.put(*args)
        if kind == "delete":
            return self.put(args[0], None)
        if kind == "get_verified":
            return self.get(args[0])
        if kind == "multi_get_verified":
            return [self.get(key) for key in args[0]]
        if kind == "scan":
            return self.scan(*args)
        raise ValueError(f"unknown call kind: {kind}")

    def live_bytes(self) -> int:
        """User bytes a reader can still reach (latest non-deleted values)."""
        total = 0
        for key, history in self.versions.items():
            value = history[-1][1]
            if value is not None:
                total += len(key) + len(value)
        return total


#: Which attribute of the store's return value is compared with the model.
RESULT_ATTR = {
    "get_verified": "value",
    "multi_get_verified": "values",
    "scan": None,
    "put": None,
    "delete": None,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Calls per round (M).
    calls: int
    #: Rounds at ``--seconds 20``; calibrated once so a run fits the cap.
    r_nominal: int
    #: Read-only workloads replay on one store; writers rebuild per round.
    read_only: bool
    load: Callable[[], list[Call]]
    generate: Callable[[random.Random, int], list[Call]]

    def calls_for(self, seed: int) -> list[Call]:
        return self.generate(random.Random(f"{self.name}:{seed}"), self.calls)


# ----------------------------------------------------------------------
# Read-only data set: 1000 keys x 2 versions; odd indices are never loaded,
# so an absent key falls inside every level's key range and has to be
# answered by a filter or a non-membership proof.
# ----------------------------------------------------------------------
READ_KEYS = 1000
ABSENT_SHARE = 0.10
_READ_ZIPF = Zipf(READ_KEYS)
#: Popularity rank -> loaded key ("scrambled" Zipfian); fixed, not seeded.
_READ_RANKING = random.Random("perfbench:ranking").sample(
    range(READ_KEYS), READ_KEYS
)


def _load_read_set() -> list[Call]:
    order = list(range(READ_KEYS)) * 2
    random.Random("perfbench:load-order").shuffle(order)
    seen: dict[int, int] = {}
    ops = []
    for index in order:
        version = seen.get(index, 0)
        seen[index] = version + 1
        ops.append(("put", (key_of(2 * index), fixed_value(index, version))))
    return ops


def _read_key(rng: random.Random) -> bytes:
    if rng.random() < ABSENT_SHARE:
        return key_of(2 * rng.randrange(READ_KEYS) + 1)
    return key_of(2 * _READ_RANKING[_READ_ZIPF.draw(rng)])


def _gen_get_verified(rng: random.Random, n: int) -> list[Call]:
    return [("get_verified", (_read_key(rng),)) for _ in range(n)]


def _gen_multiget_batch(rng: random.Random, n: int) -> list[Call]:
    return [
        ("multi_get_verified", ([_read_key(rng) for _ in range(8)],))
        for _ in range(n)
    ]


def _shuffled_kinds(rng: random.Random, counts: dict[str, int]) -> list[str]:
    """A fixed number of calls of each kind, in an order the seed decides.

    With the kinds drawn by coin instead, the bytes written per round, and
    with them the number of compactions, changed from seed to seed:
    ``io_bytes_per_op`` spread 3.3 % and ``sim_us_per_op`` up to 8 %.
    """
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


# ----------------------------------------------------------------------
# put_sustained: 1000 loaded keys (even indices).  Half of the puts update
# a loaded key, half insert a key drawn from so large a space (odd indices)
# that it is new: drawn from a space of 1000 instead, collisions made the
# live bytes, and so ``space_amp``, spread 2 % from seed to seed.
# ----------------------------------------------------------------------
PUT_KEYS = 1000
NEW_KEY_SPACE = 500_000


def _load_put_set() -> list[Call]:
    order = list(range(PUT_KEYS))
    random.Random("perfbench:put-load").shuffle(order)
    return [("put", (key_of(2 * i), fixed_value(i, 0))) for i in order]


def _gen_put_sustained(rng: random.Random, n: int) -> list[Call]:
    calls: list[Call] = []
    puts = n - n // 50
    kinds = {"delete": n // 50, "update": puts // 2, "insert": puts - puts // 2}
    for kind in _shuffled_kinds(rng, kinds):
        if kind == "insert":
            key = key_of(2 * rng.randrange(NEW_KEY_SPACE) + 1)
        else:
            key = key_of(2 * rng.randrange(PUT_KEYS))
        if kind == "delete":
            calls.append(("delete", (key,)))
        else:
            calls.append(("put", (key, rng.randbytes(VALUE_BYTES))))
    return calls


# ----------------------------------------------------------------------
# mixed_rw_scan: 400 loaded keys; keys are appended in index order, reads
# and updates favour the newest ones.
# ----------------------------------------------------------------------
MIXED_KEYS = 400
MIXED_CALLS = 3000
SCAN_KEYS = 20
_MIXED_ZIPF = Zipf(MIXED_KEYS + MIXED_CALLS)


def _load_mixed_set() -> list[Call]:
    return [("put", (key_of(i), fixed_value(i, 0))) for i in range(MIXED_KEYS)]


def _gen_mixed_rw_scan(rng: random.Random, n: int) -> list[Call]:
    calls: list[Call] = []
    count = MIXED_KEYS
    puts = n * 45 // 100
    kinds = {
        "get": n // 2,
        "append": puts // 2,
        "update": puts - puts // 2,
        "scan": n - n // 2 - puts,
    }

    def recent() -> bytes:
        return key_of(count - 1 - _MIXED_ZIPF.draw(rng, count))

    for kind in _shuffled_kinds(rng, kinds):
        if kind == "get":
            calls.append(("get_verified", (recent(),)))
        elif kind == "scan":
            start = rng.randrange(count - SCAN_KEYS + 1)
            calls.append(
                ("scan", (key_of(start), key_of(start + SCAN_KEYS - 1)))
            )
        else:
            key = recent() if kind == "update" else key_of(count)
            count += kind == "append"
            calls.append(("put", (key, rng.randbytes(VALUE_BYTES))))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="get_verified",
            why="single verified GETs: per-call overhead (telemetry, sim, sgx) "
            "dominates, hashing is ~2%",
            calls=3000,
            r_nominal=17,
            read_only=True,
            load=_load_read_set,
            generate=_gen_get_verified,
        ),
        Workload(
            name="multiget_batch",
            why="8-key verified batches: one ECall and proof copy per batch, so "
            "prover, verifier and block fetches dominate",
            calls=1200,
            r_nominal=12,
            read_only=True,
            load=_load_read_set,
            generate=_gen_multiget_batch,
        ),
        Workload(
            name="put_sustained",
            why="sustained writes: WAL and memtable set the median, flush and "
            "authenticated compaction set throughput and tail",
            calls=1500,
            r_nominal=14,
            read_only=False,
            load=_load_put_set,
            generate=_gen_put_sustained,
        ),
        Workload(
            name="mixed_rw_scan",
            why="reads, writes and scans interleaved: flushes change level roots "
            "while they are read, the cost side of any read cache",
            calls=MIXED_CALLS,
            r_nominal=13,
            read_only=False,
            load=_load_mixed_set,
            generate=_gen_mixed_rw_scan,
        ),
    )
}
