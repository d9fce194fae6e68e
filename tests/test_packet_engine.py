"""Tests for the packet-level transport engine."""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.bandwidth import ConstantCapacity, PiecewiseTraceCapacity
from repro.net.interface import InterfaceKind
from repro.packet.link import PacketLink, Segment
from repro.packet.mptcp import DsnReassembly, PacketMptcpConnection, single_path_connection
from repro.packet.tcp import MSS, SubflowReceiver
from repro.check.packet import PathSpec, packet_mptcp_time, packet_single_path_time
from repro.sim.engine import Simulator
from repro.tcp.connection import FiniteSource
from repro.units import mbps_to_bytes_per_sec, mib


def seg(seq, size=MSS, dsn=None, t=0.0):
    return Segment(seq=seq, size=size, dsn=seq if dsn is None else dsn, sent_at=t)


class TestPacketLink:
    def _link(self, sim, mbps=8.0, **kwargs):
        return PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(mbps)),
            one_way_delay=0.01,
            rng=random.Random(0),
            **kwargs,
        )

    def test_delivery_after_service_and_propagation(self):
        sim = Simulator()
        link = self._link(sim, mbps=8.0)
        link.attach(sim)
        got = []
        link.send(seg(0.0, size=1000.0), lambda s: got.append(sim.now))
        sim.run()
        assert got == [pytest.approx(1000.0 / 1e6 + 0.01)]

    def test_fifo_serialisation(self):
        sim = Simulator()
        link = self._link(sim)
        link.attach(sim)
        times = []
        link.send(seg(0.0), lambda s: times.append(sim.now))
        link.send(seg(MSS), lambda s: times.append(sim.now))
        sim.run()
        assert times[1] - times[0] == pytest.approx(MSS / 1e6)

    def test_drop_tail_overflow(self):
        sim = Simulator()
        link = self._link(sim, buffer_bytes=3 * MSS)
        link.attach(sim)
        accepted = [link.send(seg(i * MSS), lambda s: None) for i in range(5)]
        assert accepted == [True, True, True, False, False]
        assert link.dropped_overflow == 2

    def test_random_loss(self):
        sim = Simulator()
        link = self._link(sim, loss_rate=0.5, buffer_bytes=1e9)
        link.attach(sim)
        results = [link.send(seg(i * MSS), lambda s: None) for i in range(200)]
        dropped = results.count(False)
        assert 50 < dropped < 150
        assert link.dropped_random == dropped

    def test_dead_link_drops(self):
        sim = Simulator()
        link = PacketLink(
            sim, ConstantCapacity(0.0), one_way_delay=0.01, rng=random.Random(0)
        )
        link.attach(sim)
        assert not link.send(seg(0.0), lambda s: None)

    def test_invalid_params_rejected(self):
        sim = Simulator()
        cap = ConstantCapacity(1.0)
        with pytest.raises(ConfigurationError):
            PacketLink(sim, cap, one_way_delay=-1.0)
        with pytest.raises(ConfigurationError):
            PacketLink(sim, cap, one_way_delay=0.1, buffer_bytes=0.0)
        with pytest.raises(ConfigurationError):
            PacketLink(sim, cap, one_way_delay=0.1, loss_rate=1.0)


class TestSubflowReceiver:
    def test_in_order_advances_and_delivers(self):
        delivered = []
        rx = SubflowReceiver(lambda dsn, size: delivered.append((dsn, size)))
        ack, sacks = rx.on_segment(seg(0.0))
        assert ack == MSS
        assert sacks == ()
        assert delivered == [(0.0, MSS)]

    def test_gap_buffers_and_sacks(self):
        rx = SubflowReceiver(lambda d, s: None)
        ack, sacks = rx.on_segment(seg(2 * MSS))
        assert ack == 0.0
        assert sacks == ((2 * MSS, 3 * MSS),)

    def test_hole_fill_releases_buffered(self):
        delivered = []
        rx = SubflowReceiver(lambda d, s: delivered.append(d))
        rx.on_segment(seg(MSS))
        rx.on_segment(seg(2 * MSS))
        ack, sacks = rx.on_segment(seg(0.0))
        assert ack == 3 * MSS
        assert sacks == ()
        # Delivery happens in subflow-sequence order once the hole fills.
        assert delivered == [0.0, MSS, 2 * MSS]

    def test_duplicates_counted(self):
        rx = SubflowReceiver(lambda d, s: None)
        rx.on_segment(seg(0.0))
        rx.on_segment(seg(0.0))
        assert rx.duplicate_segments == 1

    def test_sack_blocks_merge_contiguous(self):
        rx = SubflowReceiver(lambda d, s: None)
        rx.on_segment(seg(2 * MSS))
        rx.on_segment(seg(3 * MSS))
        rx.on_segment(seg(6 * MSS))
        _ack, sacks = rx.on_segment(seg(7 * MSS))
        assert set(sacks) == {(2 * MSS, 4 * MSS), (6 * MSS, 8 * MSS)}

    def test_most_recent_block_first(self):
        rx = SubflowReceiver(lambda d, s: None)
        rx.on_segment(seg(2 * MSS))
        _ack, sacks = rx.on_segment(seg(6 * MSS))
        assert sacks[0] == (6 * MSS, 7 * MSS)


class TestDsnReassembly:
    def test_in_order(self):
        r = DsnReassembly()
        assert r.on_data(0.0, 100.0) == 100.0
        assert r.dsn_next == 100.0

    def test_out_of_order_buffers(self):
        r = DsnReassembly()
        assert r.on_data(100.0, 50.0) == 0.0
        assert r.buffered_bytes == 50.0
        assert r.on_data(0.0, 100.0) == 150.0
        assert r.buffered_bytes == 0.0

    def test_duplicates_ignored(self):
        r = DsnReassembly()
        r.on_data(0.0, 100.0)
        assert r.on_data(0.0, 100.0) == 0.0


class TestEndToEnd:
    def test_single_path_completes_near_ideal(self):
        for mbps, size in [(8.0, mib(4)), (2.0, mib(2))]:
            t = packet_single_path_time(PathSpec(mbps, 0.05), size, seed=1)
            ideal = size / mbps_to_bytes_per_sec(mbps)
            assert ideal <= t < 1.2 * ideal, (mbps, size)

    def test_loss_free_run_has_no_timeouts(self):
        sim = Simulator()
        link = PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(8.0)),
            one_way_delay=0.02,
            rng=random.Random(1),
        )
        conn = single_path_connection(sim, link, FiniteSource(mib(4)))
        conn.open()
        sim.run(until=120.0, max_events=20_000_000)
        assert conn.completed_at is not None
        assert conn.subflows[0].timeouts == 0

    def test_all_bytes_delivered_exactly_once(self):
        sim = Simulator()
        link = PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(4.0)),
            one_way_delay=0.03,
            loss_rate=0.01,
            rng=random.Random(3),
        )
        conn = single_path_connection(sim, link, FiniteSource(mib(2)))
        conn.open()
        sim.run(until=300.0, max_events=20_000_000)
        assert conn.completed_at is not None
        assert conn.bytes_received == pytest.approx(mib(2))

    def test_recovers_through_an_outage(self):
        sim = Simulator()
        cap = PiecewiseTraceCapacity(
            [
                (0.0, mbps_to_bytes_per_sec(4.0)),
                (2.0, 0.0),
                (5.0, mbps_to_bytes_per_sec(4.0)),
            ]
        )
        link = PacketLink(sim, cap, one_way_delay=0.02, rng=random.Random(1))
        conn = single_path_connection(sim, link, FiniteSource(mib(2)))
        conn.open()
        sim.run(until=300.0, max_events=20_000_000)
        assert conn.completed_at is not None
        assert conn.subflows[0].timeouts >= 1

    def test_mptcp_aggregates_capacity(self):
        specs = [
            PathSpec(8.0, 0.04),
            PathSpec(6.0, 0.07, kind=InterfaceKind.LTE),
        ]
        t, split = packet_mptcp_time(specs, mib(8), seed=2)
        ideal = mib(8) / mbps_to_bytes_per_sec(14.0)
        alone = mib(8) / mbps_to_bytes_per_sec(8.0)
        assert t < 0.75 * alone  # clearly better than the best single path
        assert t < 1.3 * ideal
        # Split roughly follows capacity share (8:6).
        assert split[0] > split[1] > 0

    def test_small_receive_buffer_starves_secondary(self):
        specs = [
            PathSpec(8.0, 0.04),
            PathSpec(6.0, 0.07, kind=InterfaceKind.LTE),
        ]
        _t, split = packet_mptcp_time(specs, mib(8), seed=2, rcv_buffer=96_000.0)
        assert split[1] < 0.1 * split[0]

    def test_invalid_construction_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PacketMptcpConnection(sim, [], FiniteSource(1.0))
        link = PacketLink(
            sim, ConstantCapacity(1.0), one_way_delay=0.01, rng=random.Random(0)
        )
        with pytest.raises(ConfigurationError):
            PacketMptcpConnection(sim, [link], FiniteSource(1.0), rcv_buffer=0.0)

    def test_send_loop_without_progress_raises(self):
        """A recovery pass that reports a retransmission but sends
        nothing would spin forever; it is an invariant violation."""
        sim = Simulator()
        link = PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(8.0)),
            one_way_delay=0.02,
            rng=random.Random(1),
        )
        conn = single_path_connection(sim, link, FiniteSource(mib(1)))
        (subflow,) = conn.subflows
        subflow.in_recovery = True
        subflow._retransmit_next_lost = lambda: True
        with pytest.raises(SimulationError, match="no progress"):
            conn.open()
