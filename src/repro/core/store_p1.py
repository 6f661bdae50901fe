"""eLSM-P1: the strawman design (Section 4).

Placement (Table 1): code *and* data inside the enclave, file-granularity
protection.  The whole LSM store — including its read buffer — lives in
enclave memory; SSTable files outside are protected by SDK-style
per-block encryption + MAC, so no Merkle forest and no query proofs are
needed.  The price is the one the paper measures: an extra copy into the
enclave on every buffer fill, and enclave paging once the buffer outgrows
the EPC.
"""

from __future__ import annotations

from repro.core.placed import PlacedStore
from repro.lsm.cache import LOCATION_ENCLAVE


class ELSMP1Store(PlacedStore):
    """The strawman: everything in the enclave, SDK file protection."""

    enclave_name = "elsm-p1"
    buffer_location = LOCATION_ENCLAVE
    protect_files = True

    def __init__(self, *, name_prefix: str = "p1", **options) -> None:
        # The paper: P1 cannot use mmap.
        super().__init__(read_mode="buffer", name_prefix=name_prefix, **options)
