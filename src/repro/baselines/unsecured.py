"""Unsecured LSM baselines.

Two of the paper's reference lines come from running the vanilla engine
with no authentication:

* "LevelDB (unsecure)" (Figure 5a): no enclave at all — the ideal;
* "buffer outside enclave (unsecured)" (Figures 2, 6a): the code runs in
  an enclave (so ops still pay ECalls and file OCalls) but the read
  buffer is untrusted and nothing is digested or protected.

Both are the same placement with ``in_enclave`` toggled.
"""

from __future__ import annotations

from repro.core.placed import PlacedStore


class UnsecuredLSMStore(PlacedStore):
    """The vanilla LSM store with no data protection."""

    def __init__(
        self, *, in_enclave: bool = False, name_prefix: str = "plain", **options
    ) -> None:
        self.enclave_name = "plain-enclave" if in_enclave else None
        super().__init__(name_prefix=name_prefix, **options)
