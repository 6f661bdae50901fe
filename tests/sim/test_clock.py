"""SimClock accounting semantics."""

import pytest

from repro.sim.clock import SimClock


def test_clock_starts_at_zero():
    assert SimClock().now_us == 0.0


def test_charge_advances_time():
    clock = SimClock()
    clock.charge("disk", 10.0)
    clock.charge("hash", 2.5)
    assert clock.now_us == pytest.approx(12.5)


def test_charge_rejects_negative():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.charge("disk", -1.0)


def test_charge_rejects_nan_and_leaves_the_clock_alone():
    clock = SimClock()
    clock.charge("disk", 1.0)
    with pytest.raises(ValueError):
        clock.charge("disk", float("nan"))
    assert clock.now_us == 1.0
    assert clock.breakdown() == {"disk": 1.0}
    assert clock.event_count("disk") == 1


def test_lap_measures_interval():
    clock = SimClock()
    clock.charge("a", 5.0)
    mark = clock.now_us
    clock.charge("b", 7.0)
    assert clock.lap(mark) == pytest.approx(7.0)


def test_breakdown_by_category():
    clock = SimClock()
    clock.charge("disk", 10.0)
    clock.charge("disk", 5.0)
    clock.charge("hash", 1.0)
    assert clock.breakdown() == {"disk": 15.0, "hash": 1.0}


def test_event_count():
    clock = SimClock()
    for _ in range(3):
        clock.charge("ecall", 8.0)
    assert clock.event_count("ecall") == 3
    assert clock.event_count("never") == 0


def test_reset_clears_everything():
    clock = SimClock()
    clock.charge("x", 3.0)
    clock.reset()
    assert clock.now_us == 0.0
    assert clock.breakdown() == {}
    assert clock.event_count("x") == 0


def test_zero_charge_is_allowed():
    clock = SimClock()
    clock.charge("noop", 0.0)
    assert clock.now_us == 0.0
    assert clock.event_count("noop") == 1
