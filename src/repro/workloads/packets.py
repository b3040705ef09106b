"""Packet trace generation (the reproduction's T-Rex traffic generator).

Builds Ethernet/IPv4/TCP|UDP frames with seeded randomness.  Multi-byte
header fields are written little-endian to match the workloads' reads
(network byte order is elided throughout the reproduction; see
``workloads.xdp``).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

ETH_P_IP = 0x0800
ETH_P_IPV6 = 0x86DD
ETH_P_VLAN = 0x8100

IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ICMP = 1


@dataclass
class FlowProfile:
    """Traffic mix knobs for the generator."""

    ipv4_fraction: float = 0.97
    tcp_fraction: float = 0.6
    udp_fraction: float = 0.35  # remainder is ICMP
    vlan_fraction: float = 0.0
    num_flows: int = 256
    dst_port_choices: Tuple[int, ...] = (80, 443, 53, 8080, 6443)


def build_packet(
    size: int = 64,
    src_ip: int = 0x0A000001,
    dst_ip: int = 0x0A000002,
    src_port: int = 12345,
    dst_port: int = 80,
    proto: int = IPPROTO_TCP,
    eth_proto: int = ETH_P_IP,
    ttl: int = 64,
    vlan: Optional[int] = None,
) -> bytes:
    """One frame, padded/truncated to *size* bytes (min 64)."""
    size = max(size, 60)
    frame = bytearray()
    frame += bytes(6)  # dst mac
    frame += bytes([0, 1, 2, 3, 4, 5])  # src mac
    if vlan is not None:
        frame += struct.pack("<H", ETH_P_VLAN)
        frame += struct.pack("<H", vlan)
    frame += struct.pack("<H", eth_proto)
    l3 = len(frame)
    if eth_proto == ETH_P_IP:
        payload_len = max(size - l3 - 20, 8)
        frame += bytes([0x45, 0])  # version/ihl, tos
        frame += struct.pack("<H", 20 + payload_len)  # tot_len
        frame += struct.pack("<H", 0)  # id
        frame += struct.pack("<H", 0)  # frag
        frame += bytes([ttl, proto])
        frame += struct.pack("<H", 0)  # checksum
        frame += struct.pack("<I", src_ip)
        frame += struct.pack("<I", dst_ip)
        if proto in (IPPROTO_TCP, IPPROTO_UDP):
            frame += struct.pack("<H", src_port)
            frame += struct.pack("<H", dst_port)
            frame += struct.pack("<I", 1)  # seq / len+csum
    if len(frame) < size:
        frame += bytes(size - len(frame))
    return bytes(frame[:size])


class TrafficGenerator:
    """Seeded stream of frames over a fixed flow population."""

    def __init__(self, profile: Optional[FlowProfile] = None, seed: int = 42):
        self.profile = profile if profile is not None else FlowProfile()
        self.rng = random.Random(seed)
        self.flows = self._make_flows()

    def _make_flows(self) -> List[Tuple[int, int, int, int, int]]:
        flows = []
        for _ in range(self.profile.num_flows):
            roll = self.rng.random()
            if roll < self.profile.tcp_fraction:
                proto = IPPROTO_TCP
            elif roll < self.profile.tcp_fraction + self.profile.udp_fraction:
                proto = IPPROTO_UDP
            else:
                proto = IPPROTO_ICMP
            flows.append((
                self.rng.getrandbits(32),  # src ip
                0x0A000000 | self.rng.randrange(1, 255),  # dst ip (VIP pool)
                self.rng.randrange(1024, 65536),  # src port
                self.rng.choice(self.profile.dst_port_choices),
                proto,
            ))
        return flows

    def packet(self, size: int = 64) -> bytes:
        src_ip, dst_ip, sport, dport, proto = self.rng.choice(self.flows)
        if self.rng.random() >= self.profile.ipv4_fraction:
            return build_packet(size, eth_proto=ETH_P_IPV6)
        vlan = 100 if self.rng.random() < self.profile.vlan_fraction else None
        # mostly fresh packets, but a trickle of expiring TTLs
        ttl = 64 if self.rng.random() < 0.95 else self.rng.choice((0, 1, 2))
        return build_packet(size, src_ip=src_ip, dst_ip=dst_ip,
                            src_port=sport, dst_port=dport, proto=proto,
                            vlan=vlan, ttl=ttl)

    def stream(self, count: int, size: int = 64) -> Iterator[bytes]:
        for _ in range(count):
            yield self.packet(size)
