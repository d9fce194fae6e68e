"""Segment-level TCP: one reliable, congestion-controlled byte stream
over a :class:`~repro.packet.link.PacketLink`.

Implements the sender/receiver pair at the fidelity the fluid model
abstracts away: per-segment transmission, cumulative ACKs, duplicate-ACK
fast retransmit (NewReno-style recovery), retransmission timeouts with
exponential backoff, Karn's rule for RTT sampling, and an out-of-order
reassembly buffer.  Connections start established (the three-way
handshake adds one RTT and nothing else to the dynamics under study).

Data is supplied by an *assigner* — ``assign(max_bytes)`` returning a
``(dsn, size)`` chunk or ``None`` — so the same sender serves
single-path TCP (DSN == sequence number) and an MPTCP subflow (DSNs
handed out by the connection-level scheduler, bounded by the shared
receive buffer).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.packet.link import PacketLink, Segment
from repro.sim.engine import EventHandle, Simulator
from repro.tcp.rtt import RttEstimator

Assigner = Callable[[float], Optional[Tuple[float, float]]]
DeliverCallback = Callable[[float, float], None]  # (dsn, size)

#: Maximum segment size, bytes.
MSS = 1448.0

#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3


SackBlocks = Tuple[Tuple[float, float], ...]

#: Maximum SACK blocks carried per ACK (RFC 2018 allows 3-4).
MAX_SACK_BLOCKS = 4


class SubflowReceiver:
    """In-order reassembly, cumulative ACKs, and SACK blocks."""

    def __init__(self, deliver: DeliverCallback):
        self.rcv_nxt = 0.0
        self._deliver = deliver
        self._buffered: Dict[float, Segment] = {}
        self._buffered_seqs: List[float] = []  # keys of _buffered, ascending
        self._last_ooo_seq: Optional[float] = None
        self.duplicate_segments = 0

    def on_segment(self, segment: Segment) -> Tuple[float, SackBlocks]:
        """Absorb one segment; return (cumulative ACK, SACK blocks)."""
        if segment.seq + segment.size <= self.rcv_nxt:
            self.duplicate_segments += 1
        elif segment.seq > self.rcv_nxt:
            if segment.seq not in self._buffered:
                self._buffered[segment.seq] = segment
                insort(self._buffered_seqs, segment.seq)
            self._last_ooo_seq = segment.seq
        else:
            # In order (possibly overlapping the left edge).
            self._advance(segment)
            while self.rcv_nxt in self._buffered:
                seqs = self._buffered_seqs
                del seqs[bisect_left(seqs, self.rcv_nxt)]
                self._advance(self._buffered.pop(self.rcv_nxt))
        return self.rcv_nxt, self.sack_blocks()

    def sack_blocks(self) -> SackBlocks:
        """Out-of-order coverage, merged into ranges.

        RFC 2018 ordering: the block containing the most recently
        received segment comes first, so across a stream of ACKs the
        sender's scoreboard accumulates coverage of *every* range, not
        just the lowest few — essential when loss is heavy and only a
        handful of blocks fit per ACK.
        """
        if not self._buffered:
            return ()
        blocks: List[Tuple[float, float]] = []
        start: Optional[float] = None
        end = 0.0
        for seq in self._buffered_seqs:
            segment = self._buffered[seq]
            if start is None:
                start, end = seq, seq + segment.size
            elif seq <= end:
                end = max(end, seq + segment.size)
            else:
                blocks.append((start, end))
                start, end = seq, seq + segment.size
        blocks.append((start, end))  # type: ignore[arg-type]
        if self._last_ooo_seq is not None:
            for i, (b_start, b_end) in enumerate(blocks):
                if b_start <= self._last_ooo_seq < b_end:
                    blocks.insert(0, blocks.pop(i))
                    break
        return tuple(blocks[:MAX_SACK_BLOCKS])

    def _advance(self, segment: Segment) -> None:
        new_end = segment.seq + segment.size
        self.rcv_nxt = max(self.rcv_nxt, new_end)
        self._deliver(segment.dsn, segment.size)

    @property
    def buffered_segments(self) -> int:
        """Out-of-order segments held for reassembly."""
        return len(self._buffered)


class PacketTcpConnection:
    """A segment-level TCP sender with its receiver and ACK path."""

    def __init__(
        self,
        sim: Simulator,
        link: PacketLink,
        assigner: Assigner,
        deliver: DeliverCallback,
        ack_delay: Optional[float] = None,
        mss: float = MSS,
        init_cwnd_segments: int = 10,
        coupling: Optional[Callable[[], float]] = None,
        name: str = "ptcp",
    ):
        if mss <= 0:
            raise ConfigurationError("mss must be positive")
        self.sim = sim
        self.link = link
        self.assigner = assigner
        self.mss = mss
        self.coupling = coupling
        self.name = name
        self.ack_delay = link.one_way_delay if ack_delay is None else ack_delay

        self.snd_una = 0.0
        self.snd_nxt = 0.0
        self.cwnd = init_cwnd_segments * mss
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = 0.0
        self.rtt = RttEstimator()
        self.receiver = SubflowReceiver(deliver)

        self._segments: Dict[float, Segment] = {}  # seq -> unacked segment
        self._order: List[float] = []  # unacked seqs, ascending
        self._sacked: set = set()  # seqs covered by SACK blocks
        self._rtx_done: set = set()  # lost seqs already retransmitted
        self._highest_sacked = 0.0
        self._all_lost = False  # post-RTO: every unSACKed segment is lost
        self._pipe_bytes = 0.0  # RFC 6675 pipe, kept by _adjust_pipe
        # Every unacked seq below this one is SACKed or retransmitted.
        self._rtx_scan_from = 0.0
        self._rto_handle: Optional[EventHandle] = None
        self._rto_deadline = 0.0
        self._rto_backoff = 1.0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.bytes_acked_total = 0.0
        self.closed = False
        self.paused = False

        link.attach(sim)

    # ------------------------------------------------------------------
    # sending

    def start(self) -> None:
        """Begin transmitting (connection assumed established)."""
        self._try_send()

    def notify_data(self) -> None:
        """New application data may be available."""
        if not self.closed:
            self._try_send()

    def close(self) -> None:
        """Stop all activity."""
        self.closed = True
        self._cancel_rto()

    def pause(self) -> None:
        """Stop sending *new* data (MP_PRIO suspension).  In-flight
        segments still complete and retransmissions still repair losses
        — suspension must not strand assigned DSNs."""
        self.paused = True

    def resume(self) -> None:
        """Resume sending after :meth:`pause`."""
        if not self.paused:
            return
        self.paused = False
        self._try_send()

    @property
    def flight_size(self) -> float:
        """Unacknowledged bytes."""
        return self.snd_nxt - self.snd_una

    def _pipe(self) -> float:
        """Bytes considered in flight under the SACK scoreboard: unacked
        and not SACKed, excluding lost segments that have not been
        retransmitted (RFC 6675's pipe, simplified).

        Kept as a running count: every change to a segment's SACKed,
        lost or retransmitted state goes through :meth:`_adjust_pipe`
        (or, for whole-window changes, the RTO and recovery exit)."""
        return self._pipe_bytes

    def _reference_pipe(self) -> float:
        """Full recompute of :meth:`_pipe`, for tests."""
        pipe = 0.0
        for seq in self._order:
            if seq in self._sacked:
                continue
            if self._is_lost(seq) and seq not in self._rtx_done:
                continue
            pipe += self._segments[seq].size
        return pipe

    def _in_pipe(self, seq: float, size: float) -> bool:
        """Whether one unacked segment counts towards the pipe."""
        if seq in self._sacked:
            return False
        if seq in self._rtx_done:
            return True
        return not self._all_lost and seq + size > self._highest_sacked

    def _adjust_pipe(self, seq: float, size: float, was_in: bool) -> None:
        """Account for a state change of one segment that counted
        towards the pipe iff ``was_in``."""
        now_in = self._in_pipe(seq, size)
        if now_in != was_in:
            self._pipe_bytes += size if now_in else -size

    def _is_lost(self, seq: float) -> bool:
        """A hole below the highest SACKed byte counts as lost; after an
        RTO every unSACKed segment does (RFC 6675 §5.1)."""
        if seq in self._sacked:
            return False
        if self._all_lost:
            return True
        segment = self._segments[seq]
        return seq + segment.size <= self._highest_sacked

    def _try_send(self) -> None:
        if self.closed:
            return
        # Within one call nothing leaves the pipe, so every pass that
        # does not break sends: new data (snd_nxt grows) or a
        # retransmission (pipe grows).  A pass that does neither would
        # loop forever.
        progress: Optional[Tuple[float, float]] = None
        while True:
            pipe = self._pipe_bytes if self.in_recovery else self.flight_size
            if pipe + self.mss > self.cwnd + 1e-9:
                break
            state = (self.snd_nxt, pipe)
            if progress is not None and state <= progress:
                raise SimulationError(
                    f"{self.name}: send loop made no progress "
                    f"(snd_nxt={self.snd_nxt}, pipe={pipe})"
                )
            progress = state
            if self.in_recovery:
                outcome = self._retransmit_next_lost()
                if outcome is True:
                    continue
                if outcome is False:
                    break  # queue congested; retry on the next ACK
            if self.paused:
                break  # suspended: repair losses but take no new data
            chunk = self.assigner(self.mss)
            if chunk is None:
                break
            dsn, size = chunk
            if size <= 0:
                break
            segment = Segment(
                seq=self.snd_nxt, size=size, dsn=dsn, sent_at=self.sim.now
            )
            self._segments[segment.seq] = segment
            self._order.append(segment.seq)
            self._adjust_pipe(segment.seq, size, False)
            self.snd_nxt += size
            self.link.send(segment, self._segment_arrived)
            self._arm_rto()

    def _segment_arrived(self, segment: Segment) -> None:
        ack_no, sacks = self.receiver.on_segment(segment)
        self.sim.schedule(self.ack_delay, self._on_ack, ack_no, sacks)

    # ------------------------------------------------------------------
    # ACK clock

    def _on_ack(self, ack_no: float, sacks: "SackBlocks" = ()) -> None:
        if self.closed:
            return
        self._absorb_sacks(sacks)
        if ack_no > self.snd_una:
            self._on_new_ack(ack_no)
        elif self.flight_size > 0:
            self._on_dup_ack()
        self._try_send()

    def _absorb_sacks(self, sacks: "SackBlocks") -> None:
        order = self._order
        for start, end in sacks:
            if end > self._highest_sacked:
                self._raise_highest_sacked(end)
            i = bisect_left(order, start)
            while i < len(order) and order[i] < end:
                seq = order[i]
                i += 1
                if seq in self._sacked:
                    continue
                size = self._segments[seq].size
                if seq + size <= end:
                    was_in = self._in_pipe(seq, size)
                    self._sacked.add(seq)
                    self._adjust_pipe(seq, size, was_in)

    def _raise_highest_sacked(self, highest: float) -> None:
        """Advance the highest SACKed byte; the unSACKed segments it now
        covers become lost (those ending at or below the old mark
        already were).  SACK edges are segment ends, so no segment
        straddles the old mark."""
        old = self._highest_sacked
        self._highest_sacked = highest
        order = self._order
        i = bisect_left(order, old)
        while i < len(order):
            seq = order[i]
            size = self._segments[seq].size
            if seq + size > highest:
                break  # segments are disjoint, so ends ascend with seqs
            if (
                not self._all_lost
                and seq not in self._sacked
                and seq not in self._rtx_done
            ):
                self._pipe_bytes -= size
            i += 1

    def _on_new_ack(self, ack_no: float) -> None:
        acked = ack_no - self.snd_una
        self.bytes_acked_total += acked
        self.snd_una = ack_no
        self.dup_acks = 0
        self._sample_rtt(ack_no)  # before the acked segments are dropped
        self._drop_acked(ack_no)
        if self.in_recovery and ack_no >= self.recovery_point:
            self._exit_recovery()
        if not self.in_recovery or self._all_lost:
            # Post-RTO recovery is slow start: the window grows while
            # the scoreboard paces the retransmissions.
            self._grow_window(acked)
        self._rto_backoff = 1.0
        if self.flight_size > 0:
            self._arm_rto()
        else:
            self._cancel_rto()

    def _grow_window(self, acked: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked, self.mss * 2)  # RFC 3465, L=2
        else:
            factor = self.coupling() if self.coupling is not None else 1.0
            self.cwnd += max(0.0, factor) * self.mss * acked / self.cwnd

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.dup_acks == DUPACK_THRESHOLD and not self.in_recovery:
            self.fast_retransmits += 1
            self.in_recovery = True
            self.recovery_point = self.snd_nxt
            self.ssthresh = max(self.flight_size / 2.0, 2 * self.mss)
            self.cwnd = self.ssthresh
            self._retransmit_next_lost(force_first=True)

    def _exit_recovery(self) -> None:
        """Leave loss recovery: loss marks from an RTO and the record of
        retransmissions are forgotten, and the pipe follows."""
        was_all_lost = self._all_lost
        self.in_recovery = False
        self._all_lost = False
        if was_all_lost or self._rtx_done:
            for seq in self._order:
                if seq in self._sacked:
                    continue
                size = self._segments[seq].size
                lost = seq + size <= self._highest_sacked
                if seq in self._rtx_done:
                    if lost:
                        self._pipe_bytes -= size
                elif was_all_lost and not lost:
                    self._pipe_bytes += size
        self._forget_retransmissions()

    def _forget_retransmissions(self) -> None:
        """Make every segment eligible for retransmission again."""
        self._rtx_done.clear()
        self._rtx_scan_from = 0.0

    def _retransmit_next_lost(self, force_first: bool = False):
        """Retransmit the lowest lost, not-yet-retransmitted segment.

        Returns True when one was sent, False when the queue rejected
        it (caller should back off until the next ACK), and None when
        nothing is pending retransmission.  ``force_first`` retransmits
        the segment at ``snd_una`` even if the SACK scoreboard has no
        evidence yet (classic 3-dupack fast retransmit before any SACK
        arrived)."""
        order = self._order
        if force_first and order and order[0] == self.snd_una:
            seq = order[0]
            if seq not in self._sacked and seq not in self._rtx_done:
                return self._retransmit(seq)
        # Segments stay SACKed or retransmitted until acked, an RTO or
        # the end of recovery, so the scan resumes where it last
        # stopped.  Ends ascend with seqs: if the first candidate is not
        # lost, no later segment is.
        i = bisect_left(order, self._rtx_scan_from)
        while i < len(order) and (
            order[i] in self._sacked or order[i] in self._rtx_done
        ):
            i += 1
        if i == len(order):
            self._rtx_scan_from = self.snd_nxt
            return None
        seq = self._rtx_scan_from = order[i]
        if self._is_lost(seq):
            return self._retransmit(seq)
        return None

    def _retransmit(self, seq: float) -> bool:
        """Retransmit one segment; False if the queue rejected it (the
        segment stays eligible for a later attempt)."""
        segment = self._segments.get(seq)
        if segment is None:
            return True
        resend = Segment(
            seq=segment.seq,
            size=segment.size,
            dsn=segment.dsn,
            sent_at=self.sim.now,
            retransmit=True,
        )
        accepted = self.link.send(resend, self._segment_arrived)
        if accepted:
            self._segments[resend.seq] = resend
            was_in = self._in_pipe(seq, resend.size)
            self._rtx_done.add(seq)
            self._adjust_pipe(seq, resend.size, was_in)
            self._arm_rto()
        return accepted

    # ------------------------------------------------------------------
    # RTO

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer.  Re-arming to a later
        deadline keeps the pending event, which wakes up early and
        re-schedules itself; only an earlier deadline needs a new one."""
        deadline = self.sim.now + self.rtt.rto * self._rto_backoff
        self._rto_deadline = deadline
        handle = self._rto_handle
        if handle is not None:
            if handle.time <= deadline:
                return
            handle.cancel()
        self._rto_handle = self.sim.schedule_at(deadline, self._rto_fired)

    def _cancel_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _rto_fired(self) -> None:
        if self.sim.now < self._rto_deadline:
            self._rto_handle = self.sim.schedule_at(
                self._rto_deadline, self._rto_fired
            )
            return
        self._rto_handle = None
        if self.closed or self.flight_size <= 0:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2 * self.mss)
        self.cwnd = 2 * self.mss
        self.dup_acks = 0
        # Re-enter SACK loss recovery with everything unSACKed marked
        # lost (RFC 6675): subsequent ACKs clock out the retransmissions
        # instead of one hole per RTO.
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self._all_lost = True
        self._forget_retransmissions()
        self._pipe_bytes = 0.0  # every unSACKed segment is now lost
        self._rto_backoff = min(64.0, self._rto_backoff * 2.0)
        if self._order:
            self._retransmit(self._order[0])
        # Always re-arm: if the retransmission was itself dropped (dead
        # or saturated link) the next backoff must still fire.
        self._arm_rto()

    # ------------------------------------------------------------------
    # bookkeeping

    def _drop_acked(self, ack_no: float) -> None:
        acked = bisect_left(self._order, ack_no)
        for seq in self._order[:acked]:
            segment = self._segments.pop(seq)
            if self._in_pipe(seq, segment.size):
                self._pipe_bytes -= segment.size
            self._sacked.discard(seq)
            self._rtx_done.discard(seq)
        del self._order[:acked]

    def _sample_rtt(self, ack_no: float) -> None:
        # Karn's rule: only segments never retransmitted produce samples.
        # The segment ending exactly at ack_no is the freshest candidate;
        # approximate by using the most recent fully-acked original.
        # Segments at or above ack_no cannot be fully acked.
        candidate: Optional[Segment] = None
        for seq in self._order:
            if seq >= ack_no:
                break
            segment = self._segments[seq]
            if seq + segment.size <= ack_no and not segment.retransmit:
                if candidate is None or segment.sent_at > candidate.sent_at:
                    candidate = segment
        if candidate is not None:
            sample = self.sim.now - candidate.sent_at
            if sample > 0:
                self.rtt.observe(sample)