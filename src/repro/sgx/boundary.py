"""ECall/OCall world-switch accounting.

Crossing the enclave boundary costs thousands of cycles (context save,
TLB flush, SDK marshalling).  The paper's YCSB port wraps every PUT/GET
in an ECall and every file operation in an OCall; its Appendix D argues
placement choices precisely by counting these switches.  ``WorldBoundary``
charges each switch plus per-byte marshalling copies and keeps counters so
experiments can report switch rates.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry
    from repro.telemetry.metrics import BoundCounter, Counter


class WorldBoundary:
    """Charges and counts ECall/OCall transitions."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.ecall_count = 0
        self.ocall_count = 0
        self._m_ecalls = None
        self._m_ocalls = None
        self._m_copy = None
        self.telemetry = telemetry

    @property
    def telemetry(self) -> "Telemetry | None":
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: "Telemetry | None") -> None:
        self._telemetry = telemetry
        if telemetry is None:
            return
        self._m_ecalls = telemetry.counter(
            "enclave.ecalls", "enclave entries (world switches)", labels=("call",)
        )
        self._m_ocalls = telemetry.counter(
            "enclave.ocalls", "enclave exits (world switches)", labels=("call",)
        )
        copy = telemetry.counter(
            "enclave.copy.bytes",
            "bytes marshalled across the enclave boundary",
            labels=("dir",),
        )
        self._m_copy = {d: copy.bind(dir=d) for d in ("in", "out")}
        # Bound series per call name, bound on the name's first crossing.
        self._ecall_counters: dict[str, BoundCounter] = {}
        self._ocall_counters: dict[str, BoundCounter] = {}

    @staticmethod
    def _count_call(
        counter: Counter, by_name: dict[str, BoundCounter], name: str
    ) -> None:
        bound = by_name.get(name)
        if bound is None:
            bound = counter.bind(call=name or "anonymous")
            by_name[name] = bound
        bound.inc()

    def _count_copy(self, nbytes: int, direction: str) -> None:
        if self._m_copy is not None and nbytes:
            self._m_copy[direction].inc(nbytes)

    @contextmanager
    def ecall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> Iterator[None]:
        """Enter the enclave to run a trusted function."""
        self.ecall_count += 1
        if self._m_ecalls is not None:
            self._count_call(self._m_ecalls, self._ecall_counters, name)
        if self._telemetry is not None:
            self._telemetry.charge_resource("boundary.ecalls", 1)
        self._count_copy(in_bytes, "in")
        self.clock.charge("ecall", self.costs.ecall_us)
        if in_bytes:
            self.clock.charge("ecall_copy", self.costs.enclave_copy_cost(in_bytes))
        try:
            yield
        finally:
            self._count_copy(out_bytes, "out")
            if out_bytes:
                self.clock.charge("ecall_copy", self.costs.enclave_copy_cost(out_bytes))

    @contextmanager
    def ocall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> Iterator[None]:
        """Exit the enclave to run an untrusted function (e.g. a syscall)."""
        self.ocall_count += 1
        if self._m_ocalls is not None:
            self._count_call(self._m_ocalls, self._ocall_counters, name)
        if self._telemetry is not None:
            self._telemetry.charge_resource("boundary.ocalls", 1)
        self._count_copy(in_bytes, "out")
        self.clock.charge("ocall", self.costs.ocall_us)
        if in_bytes:
            self.clock.charge("ocall_copy", self.costs.enclave_copy_cost(in_bytes))
        try:
            yield
        finally:
            self._count_copy(out_bytes, "in")
            if out_bytes:
                self.clock.charge("ocall_copy", self.costs.enclave_copy_cost(out_bytes))
