"""Property-based tests for the packet engine (hypothesis).

The invariants here are the ones that make a transport *correct* no
matter what the network does: every byte is delivered to the
application exactly once and in order, regardless of loss pattern,
buffer size, or path mix.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import ConstantCapacity
from repro.net.interface import InterfaceKind
from repro.packet.link import PacketLink
from repro.packet.mptcp import DsnReassembly, PacketMptcpConnection, single_path_connection
from repro.packet.tcp import MAX_SACK_BLOCKS, MSS, SubflowReceiver, Segment
from repro.check.packet import PathSpec, packet_mptcp_time
from repro.sim.engine import Simulator
from repro.tcp.connection import FiniteSource
from repro.units import mbps_to_bytes_per_sec


@settings(max_examples=20, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.05),
    mbps=st.floats(min_value=1.0, max_value=20.0),
    size_kb=st.integers(min_value=50, max_value=1000),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_exactly_once_in_order_delivery(loss, mbps, size_kb, seed):
    """Any loss rate, any rate, any size: the app receives exactly the
    transfer size, in order, and the connection completes."""
    sim = Simulator()
    link = PacketLink(
        sim,
        ConstantCapacity(mbps_to_bytes_per_sec(mbps)),
        one_way_delay=0.02,
        loss_rate=loss,
        rng=random.Random(seed),
    )
    size = size_kb * 1000.0
    conn = single_path_connection(sim, link, FiniteSource(size))
    conn.open()
    sim.run(until=3_000.0, max_events=30_000_000)
    assert conn.completed_at is not None
    assert conn.bytes_received == pytest.approx(size)
    # DSN ledger fully consumed: nothing outstanding, nothing buffered.
    assert conn.reassembly_buffered == 0.0


@settings(max_examples=20, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.05),
    mbps=st.floats(min_value=1.0, max_value=20.0),
    size_kb=st.integers(min_value=50, max_value=1000),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_incremental_pipe_matches_full_recompute(loss, mbps, size_kb, seed):
    """After every ACK and every RTO the running RFC 6675 pipe equals a
    full rescan of the SACK scoreboard, and the retransmission scan
    skips only segments that are SACKed or already retransmitted."""
    sim = Simulator()
    link = PacketLink(
        sim,
        ConstantCapacity(mbps_to_bytes_per_sec(mbps)),
        one_way_delay=0.02,
        loss_rate=loss,
        rng=random.Random(seed),
    )
    conn = single_path_connection(sim, link, FiniteSource(size_kb * 1000.0))
    (subflow,) = conn.subflows
    checks = [0]

    def checked(handler):
        def run(*args):
            handler(*args)
            assert subflow._pipe() == subflow._reference_pipe()
            for seq in subflow._order:
                if seq >= subflow._rtx_scan_from:
                    break
                assert seq in subflow._sacked or seq in subflow._rtx_done
            checks[0] += 1

        return run

    subflow._on_ack = checked(subflow._on_ack)
    subflow._rto_fired = checked(subflow._rto_fired)
    conn.open()
    sim.run(until=3_000.0, max_events=30_000_000)
    assert conn.completed_at is not None
    assert checks[0] > 0


def sorted_sack_blocks(rx: SubflowReceiver):
    """``SubflowReceiver.sack_blocks`` as it was before the receiver
    kept its buffered seqs sorted: sort the whole buffer every time."""
    if not rx._buffered:
        return ()
    blocks = []
    start = None
    end = 0.0
    for seq in sorted(rx._buffered):
        segment = rx._buffered[seq]
        if start is None:
            start, end = seq, seq + segment.size
        elif seq <= end:
            end = max(end, seq + segment.size)
        else:
            blocks.append((start, end))
            start, end = seq, seq + segment.size
    blocks.append((start, end))
    if rx._last_ooo_seq is not None:
        for i, (b_start, b_end) in enumerate(blocks):
            if b_start <= rx._last_ooo_seq < b_end:
                blocks.insert(0, blocks.pop(i))
                break
    return tuple(blocks[:MAX_SACK_BLOCKS])


@settings(max_examples=50, deadline=None)
@given(arrivals=st.lists(st.integers(min_value=0, max_value=15), max_size=40))
def test_property_sack_blocks_match_sort_every_time(arrivals):
    """Any arrival order, with duplicates and retransmissions: the
    blocks and their RFC 2018 order are those of a full re-sort."""
    rx = SubflowReceiver(lambda dsn, size: None)
    for slot in arrivals:
        _ack, sacks = rx.on_segment(
            Segment(seq=slot * MSS, size=MSS, dsn=slot * MSS, sent_at=0.0)
        )
        assert sacks == sorted_sack_blocks(rx)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    rcv_kb=st.integers(min_value=64, max_value=2000),
    loss=st.floats(min_value=0.0, max_value=0.02),
)
def test_property_mptcp_delivers_everything(seed, rcv_kb, loss):
    """Two asymmetric subflows, any receive-buffer size, mild loss:
    exactly-once delivery still holds."""
    sim = Simulator()
    links = [
        PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(8.0)),
            one_way_delay=0.02,
            loss_rate=loss,
            rng=random.Random(seed),
        ),
        PacketLink(
            sim,
            ConstantCapacity(mbps_to_bytes_per_sec(3.0)),
            one_way_delay=0.06,
            loss_rate=loss,
            rng=random.Random(seed + 1),
        ),
    ]
    size = 500_000.0
    conn = PacketMptcpConnection(
        sim, links, FiniteSource(size), rcv_buffer=rcv_kb * 1000.0
    )
    conn.open()
    sim.run(until=3_000.0, max_events=30_000_000)
    assert conn.completed_at is not None
    assert conn.bytes_received == pytest.approx(size)


@settings(max_examples=30, deadline=None)
@given(
    order=st.permutations(list(range(8))),
)
def test_property_receiver_order_insensitive(order):
    """The receiver delivers the same in-order stream no matter the
    arrival permutation, and the final ACK covers everything."""
    delivered = []
    rx = SubflowReceiver(lambda dsn, size: delivered.append(dsn))
    ack = 0.0
    for i in order:
        ack, _sacks = rx.on_segment(
            Segment(seq=i * MSS, size=MSS, dsn=i * MSS, sent_at=0.0)
        )
    assert ack == 8 * MSS
    assert delivered == [i * MSS for i in range(8)]
    assert rx.sack_blocks() == ()


@settings(max_examples=30, deadline=None)
@given(
    chunks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_dsn_reassembly_monotone(chunks):
    """dsn_next only advances, buffered bytes never go negative, and
    duplicates never double-deliver."""
    r = DsnReassembly()
    total_in_order = 0.0
    prev = 0.0
    for slot, length in chunks:
        delivered = r.on_data(slot * 100.0, length * 100.0)
        total_in_order += delivered
        assert r.dsn_next >= prev
        assert r.buffered_bytes >= 0.0
        prev = r.dsn_next
    assert total_in_order == r.dsn_next
