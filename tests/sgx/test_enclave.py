"""Enclave region management and accounting."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sgx.enclave import Enclave, EnclaveMemoryError


@pytest.fixture
def enclave():
    return Enclave(SimClock(), CostModel(), epc_bytes=64 * 1024)


def test_alloc_and_grow(enclave):
    enclave.alloc("buf", 100)
    enclave.grow("buf", 50)
    assert enclave.region_bytes("buf") == 150
    assert enclave.total_bytes() == 150


def test_double_alloc_rejected(enclave):
    enclave.alloc("buf")
    with pytest.raises(EnclaveMemoryError):
        enclave.alloc("buf")


def test_unknown_region_rejected(enclave):
    with pytest.raises(EnclaveMemoryError):
        enclave.grow("nope", 1)
    with pytest.raises(EnclaveMemoryError):
        enclave.touch("nope", 0, 1)


def test_shrink_clamps_at_zero(enclave):
    enclave.alloc("buf", 10)
    enclave.shrink("buf", 100)
    assert enclave.region_bytes("buf") == 0


def test_reset_region_drops_pages(enclave):
    enclave.alloc("buf", 8192)
    enclave.touch("buf", 0, 8192)
    enclave.reset_region("buf")
    assert enclave.region_bytes("buf") == 0
    assert enclave.touch("buf", 0, 1) == 1  # cold again


def test_free_region(enclave):
    enclave.alloc("buf", 10)
    enclave.free("buf")
    assert not enclave.has_region("buf")


def test_over_epc(enclave):
    enclave.alloc("big", 100 * 1024)
    assert enclave.total_bytes() > enclave.epc_bytes


def test_copy_costs_charged(enclave):
    before = enclave.clock.now_us
    enclave.copy_in(4096)
    assert enclave.clock.now_us > before


def test_identity_is_deterministic():
    a = Enclave(SimClock(), CostModel(), 1024, code_identity=b"code-v1")
    b = Enclave(SimClock(), CostModel(), 1024, code_identity=b"code-v1")
    c = Enclave(SimClock(), CostModel(), 1024, code_identity=b"code-v2")
    assert a.measurement == b.measurement
    assert a.sealing_key == b.sealing_key
    assert a.measurement != c.measurement
