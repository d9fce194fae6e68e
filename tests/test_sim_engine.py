"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.bandwidth import ConstantCapacity
from repro.packet.link import PacketLink
from repro.packet.tcp import PacketTcpConnection
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_equal_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_equal_time_events_keep_schedule_order_around_cancelled_ones():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1.0, fired.append, tag) for tag in range(10)]
    sim.schedule(0.5, fired.append, "early")
    for handle in handles[1::2]:
        handle.cancel()
    # A re-armed timer lands behind everything already at its time.
    handles[0].cancel()
    sim.schedule(1.0, fired.append, "rearmed")
    sim.run()
    assert fired == ["early", 2, 4, 6, 8, "rearmed"]


def test_rto_moved_later_fires_once_at_the_later_deadline():
    """Re-arming to a later deadline keeps the pending event; it wakes
    at the old deadline, re-schedules itself, and times out only at the
    new one."""
    sim = Simulator()
    link = PacketLink(sim, ConstantCapacity(1e6), one_way_delay=0.01)
    chunks = [(0.0, 1000.0)]
    conn = PacketTcpConnection(
        sim,
        link,
        assigner=lambda _max: chunks.pop() if chunks else None,
        deliver=lambda _dsn, _size: None,
    )
    conn._segment_arrived = lambda _segment: None  # the ACK never comes
    conn.start()  # initial RTO: 1 s
    sim.schedule(0.25, conn._arm_rto)
    sim.run(until=1.2499)
    assert conn.timeouts == 0
    sim.run(until=1.25)
    assert conn.timeouts == 1
    sim.run(until=3.0)  # the backed-off timer is due at 1.25 + 2 s
    assert conn.timeouts == 1


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_nan_and_inf_delays_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_twice_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_pending_property():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert handle.pending
    sim.run()
    assert not handle.pending


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_with_empty_queue():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 3]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.0, nested)
    sim.run()


def test_peek_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek() == 2.0


def test_pending_events_counts_live_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    h = sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.pending_events() == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)
