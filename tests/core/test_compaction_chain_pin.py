"""Equivalence pin for a flush's compaction cascade.

A P2 store at perfbench's geometry takes 2 300 seeded writes (puts and
deletes of 100-byte values).  Its flushes cascade into 2-, 3- and 4-step
merge chains: a flush into level 1, then merges of each over-capacity
level into the next.  However the cascade is carried out, its final state
is pinned here: every live SSTable's bytes (SHA-256, per level, with the
file number that keys its Bloom salt), the trusted-state fingerprint and
the bytes on the simulated disk.

``python tests/core/test_compaction_chain_pin.py`` prints the current
values in the literals' format.
"""

from __future__ import annotations

import hashlib
import pprint
import random
from collections import Counter

from repro.core.store_p2 import ELSMP2Store
from repro.lsm.events import EventListener
from repro.sim.scale import ScaleConfig

WRITES = 2300
VALUE_BYTES = 100


class _ChainRecorder(EventListener):
    """Counts the merges each flush's cascade runs, the flush included."""

    def __init__(self) -> None:
        self.chains: list[int] = []

    def on_compaction_begin(self, ctx) -> None:
        if ctx.kind == "flush":
            self.chains.append(1)
        else:
            self.chains[-1] += 1


def _build_store() -> ELSMP2Store:
    """perfbench's store geometry (``perfbench.harness.build_store``)."""
    return ELSMP2Store(
        scale=ScaleConfig(factor=1 / 4096),
        write_buffer_bytes=4096,
        level1_max_bytes=8192,
        file_max_bytes=8192,
        block_bytes=1024,
        max_immutable_memtables=0,
    )


def run() -> dict:
    store = _build_store()
    recorder = _ChainRecorder()
    store.db.listeners.append(recorder)
    rng = random.Random("compaction-chain-pin")
    for _ in range(WRITES):
        key = b"user%06d" % rng.randrange(WRITES)
        if rng.random() < 0.05:
            store.delete(key)
        else:
            store.put(key, rng.randbytes(VALUE_BYTES))
    levels = {}
    for level in store.db.level_indices():
        levels[level] = [
            (
                meta.file_no,
                hashlib.sha256(bytes(store.disk.open(meta.name).data)).hexdigest(),
            )
            for meta in store.db.level_run(level).tables
        ]
    return {
        "chains": dict(sorted(Counter(recorder.chains).items())),
        "levels": levels,
        "dataset_hash": store.dataset_hash().hex(),
        "disk_bytes": store.disk.total_bytes(),
    }


EXPECTED = {
    "chains": {2: 57, 3: 8, 4: 1},
    "levels": {
        2: [
            (377, "bf676e6e164b5f97c611cd2dce0aac053688d70c619bfcecdcc13f46eef12b37"),
            (378, "e65542fe7bc96251450957d8018bbb077036a2ae0e5a4fefd6d4129bcefb6a0e"),
            (379, "1371a1836711eafea8ee578636b786bb72605cb8f0c5949c0f178e471dbb675e"),
        ],
        3: [
            (364, "ac322877242e11b09b7ae12d52e50fe09f655380d590ae4d61b8c9e40ab2a481"),
            (365, "10b3a0ecd5f0589746abf6192761c4c177cde3de74123f6c0d6930771f432a18"),
            (366, "295275c9b3725b17a229cbed4381f95016667ce81007addaeb3fcacf6fb4fe78"),
            (367, "da3aa491b7373b2545385743ca8907aa98156ed53bbc1c927ca517bb8c69b690"),
        ],
        4: [
            (314, "b4d7b707cd37cd3a03554dd20a539c213ee434c9662c006925b51605e0954b4f"),
            (315, "d380ee4f72a02b725b8a1e8c2137ed57a178118c7cb30e1c1e33842878705f12"),
            (316, "a6862be0676cae81fa462efae82e32ed8bb836904aca80d08221a38736dfc6c4"),
            (317, "1b4f200bcb408f5f047b8722a5c9473d63a2cdac6a7e0ce7ed4ac88ddf372520"),
            (318, "ab782d4217fd137817158219a3cd6797c9d95bd14d66b89ce2f1572d897e5804"),
            (319, "3bebee1da654e8ca0747ab9883f2f999fe642aab1104ebf98875fd12160c74e6"),
            (320, "31132a62fda9a071f874f14f9b73d381bf6a1f16bdfe315abddb7fbd73e24b2c"),
            (321, "ddba2634878c64c719de49eb0ca73174ffd98307e0aa4288a204955bb42a642b"),
            (322, "037c7da5d2bc596d853f0bf8ad8b26cfa96415b68be1773fb2b9e52980712755"),
            (323, "271a9bf7cf75e5de3e2fd726ac4ea3891cb8771107cad5bded127a25c4ebc900"),
            (324, "565d88a1558e15ab1d51ed8d37b510d8232c9d310e0518cf935a00b35d315ae5"),
            (325, "770db7e58fb024a0fd1cdd5f9692605e1926cb9fd6c9a79003dfb29486dd703b"),
            (326, "ac93fcb5b18e4f792970f828131939bae218c67942d3a3144abfffe2b389cb23"),
            (327, "f5f4e5b9278f1464b022cb3830047e991a445d90627b99971f42f0ec57b83865"),
            (328, "2b4f1203708e4042553b8f9cc11775fb475d3f2aee5f3d9417029e44fa880d3a"),
            (329, "d4ead279b07d8a489c72be317729723d89d34854dabfa1bcdb327788daf15068"),
            (330, "5224d62f3694fff74b04321c2f30772d2641e24612871a8f17a276f9cfb9eeb5"),
            (331, "c82bf1daca913f3c0f0fcf7d58d68bde438d2189a56b65f8a85e6e78bd86e3f0"),
            (332, "c76a7577cc742c072dbf4d52d397e4ca60cf8802acac3d1aee17f2983fa965fd"),
            (333, "9860616b3c2308dd2ce4ca3bbbb217e152fbf5007b80051cb607171c931d0a79"),
            (334, "461101406f3c77b1e07f648625b2e660d8be779717ecb9b06117816176599909"),
            (335, "d537b704ad10e3e87fad62cbb670b747393c922beb93e1ea1874ce9a142bbbda"),
            (336, "0c8eb9d211b47605b8bd316ba7d4b2c40cc3497b42bf06374011adadae075e0d"),
            (337, "5bd27d45e27559e232983e977614d08601528a472d5eba1f26c527f87639af51"),
            (338, "381b3fdc5b781e30ed6e72b1500b163fe68e9ccbd750f48764431fbaac01980c"),
            (339, "64382fc601ef14a945aeee59d674e1ff1e1979efa5f0596b17ef54a538ed8cf0"),
            (340, "8080319f4d53d7a254247825f2c5cbd849a6760ed3060c93495c7928c2d0f4b3"),
        ],
    },
    "dataset_hash": "fc0433fa6f552e6393d09cf187ad54661caeecaae236e5ab62a6d4ceb690a6e6",
    "disk_bytes": 1015797,
}


def test_cascade_final_state_is_pinned():
    observed = run()
    assert {2, 3, 4} <= set(observed["chains"]), observed["chains"]
    assert observed == EXPECTED


if __name__ == "__main__":
    pprint.pprint(run(), width=88, sort_dicts=False)
