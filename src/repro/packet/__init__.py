"""Packet-level transport engine (validation substrate).

The main reproduction runs on a fluid, round-based TCP model
(:mod:`repro.tcp`) — fast and adequate for the paper's energy/time
claims.  This package implements the same protocols at *segment*
granularity: drop-tail links with serialisation and propagation,
cumulative ACKs, duplicate-ACK fast retransmit, RTO recovery, and an
MPTCP data-sequence layer with a finite connection-level receive buffer
(real head-of-line blocking instead of the fluid model's utilization
formula).

Its purpose is validation: :mod:`repro.check.agreement` runs matched
fluid/packet scenarios and checks that the macroscopic quantities the
reproduction relies on (completion time, energy) agree, and
:mod:`repro.check.packet` compares the engines path by path —
documenting where they do not agree (reordering pathologies the fluid
model smooths over).
"""

from repro.packet.link import PacketLink
from repro.packet.mptcp import PacketMptcpConnection
from repro.packet.tcp import PacketTcpConnection

__all__ = ["PacketLink", "PacketMptcpConnection", "PacketTcpConnection"]
