"""YCSB runner over real stores."""

from repro.baselines.unsecured import UnsecuredLSMStore
from repro.sim.scale import ScaleConfig
from repro.ycsb.runner import load_phase, run_phase
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_E, CoreWorkload

SCALE = ScaleConfig(factor=1 / 4096)


def test_load_phase_populates_store():
    store = UnsecuredLSMStore(scale=SCALE)
    workload = CoreWorkload(WORKLOAD_A, 200, seed=1)
    load_phase(store, workload)
    assert store.get(workload.key(0)) == workload.value(0)
    assert store.get(workload.key(199)) == workload.value(199)


def test_run_phase_measures_simulated_latency():
    store = UnsecuredLSMStore(scale=SCALE)
    workload = CoreWorkload(WORKLOAD_A, 200, seed=1)
    load_phase(store, workload)
    result = run_phase(store, workload, 300)
    assert result.operations == 300
    assert result.overall.count == 300
    assert result.mean_latency_us > 0
    assert result.duration_us > 0
    assert set(result.per_op) <= {"read", "update", "insert", "scan", "readmodifywrite"}


def test_run_phase_scans():
    store = UnsecuredLSMStore(scale=SCALE)
    workload = CoreWorkload(WORKLOAD_E, 150, seed=2)
    load_phase(store, workload)
    result = run_phase(store, workload, 60)
    assert "scan" in result.per_op


def test_run_phase_on_p2_store():
    from tests.conftest import make_p2_store

    store = make_p2_store()
    workload = CoreWorkload(WORKLOAD_A, 120, seed=3)
    load_phase(store, workload)
    result = run_phase(store, workload, 100)
    assert result.overall.count == 100
    # Verified reads succeed under the workload (no exceptions raised).
    assert store.verifier.verified_gets > 0
