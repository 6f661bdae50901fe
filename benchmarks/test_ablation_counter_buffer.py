"""Ablation: rollback-counter anchor buffering (Section 5.6.1).

Trusted monotonic counters cost ~10 ms per write on TPM-class hardware,
so anchoring the sealed state on every PUT would dominate write latency.
The paper buffers anchors ("the size of the write buffer is tunable by
the system administrator"); this bench quantifies that trade-off.
"""

from repro.bench.experiments import ablation_counter_buffer
from repro.bench.harness import record_result


def test_ablation_counter_buffer(benchmark, figure_ops):
    result = benchmark.pedantic(
        ablation_counter_buffer, kwargs={"ops": figure_ops}, rounds=1, iterations=1
    )
    record_result(result)

    latencies = result.column("write us/op")
    # Anchoring every write is catastrophically slow; buffering fixes it.
    assert latencies[0] > 5 * latencies[-1]
    assert all(a >= b * 0.8 for a, b in zip(latencies, latencies[1:]))
