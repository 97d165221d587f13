"""Wire-format unit tests: ethernet, ARP, IPv4, UDP, TCP segments."""

import hashlib

import pytest

from repro.netstack.arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.netstack.packet import (
    PacketError,
    bytes_to_ip,
    bytes_to_mac,
    internet_checksum,
    ip_to_bytes,
    mac_to_bytes,
)
from repro.netstack.tcp import ACK, PSH, SYN, TcpSegment, tcp_checksum_ok
from repro.netstack.udp import UdpDatagram, udp_checksum_ok

PAYLOAD_4K = bytes((i * 7 + 3) & 0xFF for i in range(4096))


def flipped(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def sample_bits(raw: bytes, skip=()):
    """Every 97th bit position plus the very last, minus *skip* bytes."""
    bits = list(range(0, len(raw) * 8, 97)) + [len(raw) * 8 - 1]
    return [b for b in bits if b // 8 not in skip]


class TestAddressCodecs:
    def test_mac_roundtrip(self):
        mac = "02:0a:ff:00:10:01"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_bad_mac_rejected(self):
        with pytest.raises(PacketError):
            mac_to_bytes("not-a-mac")
        with pytest.raises(PacketError):
            mac_to_bytes("02:00:00:00:00")
        with pytest.raises(PacketError):
            mac_to_bytes("zz:00:00:00:00:00")

    def test_ip_roundtrip(self):
        assert bytes_to_ip(ip_to_bytes("10.0.0.1")) == "10.0.0.1"

    def test_bad_ip_rejected(self):
        for bad in ("10.0.0", "256.1.1.1", "a.b.c.d", "1.2.3.4.5"):
            with pytest.raises(PacketError):
                ip_to_bytes(bad)

    def test_bad_input_raises_every_time(self):
        # The codecs are memoized; a failure must never be cached away.
        for _ in range(3):
            with pytest.raises(PacketError):
                ip_to_bytes("10.0.0.256")
            with pytest.raises(PacketError):
                mac_to_bytes("02:00:00:00:00:zz")
            with pytest.raises(PacketError):
                bytes_to_ip(b"\x0a\x00\x00")
            with pytest.raises(PacketError):
                bytes_to_mac(bytearray(5))

    def test_decoders_accept_any_bytes_like(self):
        frame = bytearray(b"\x02\x00\x00\x00\x00\x01\x0a\x00\x00\x07")
        view = memoryview(frame)
        assert (bytes_to_mac(bytes(frame[:6])) == bytes_to_mac(frame[:6])
                == bytes_to_mac(view[:6]) == "02:00:00:00:00:01")
        assert (bytes_to_ip(bytes(frame[6:])) == bytes_to_ip(frame[6:])
                == bytes_to_ip(view[6:]) == "10.0.0.7")
        frame[9] = 8  # a cached answer must not alias the caller's buffer
        assert bytes_to_ip(view[6:]) == "10.0.0.8"

    def test_encoders_return_the_same_bytes_on_repeat(self):
        assert ip_to_bytes("10.0.0.1") == ip_to_bytes("10.0.0.1") == b"\x0a\x00\x00\x01"
        assert mac_to_bytes("02:0A:ff:00:10:01") == bytes.fromhex("020aff001001")


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_packet_with_checksum_is_zero(self):
        data = b"\x45\x00\x00\x14" + b"\x00" * 16
        csum = internet_checksum(data)
        patched = data[:10] + bytes([csum >> 8, csum & 0xFF]) + data[12:]
        assert internet_checksum(patched) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_parts_equal_concatenation(self):
        data = PAYLOAD_4K[:1001]
        assert (internet_checksum(data[:3], data[3:10], data[10:])
                == internet_checksum(data))


class TestWireBytesPinned:
    """Packed headers are byte-identical to the RFC reference encoding."""

    def _digest(self, raw):
        return len(raw), hashlib.sha256(raw).hexdigest()

    def test_pinned_frames(self):
        seg = TcpSegment(5001, 80, seq=123456789, ack=987654321,
                         flags=PSH | ACK, window=65535,
                         payload=PAYLOAD_4K).pack("10.0.0.1", "10.0.0.2")
        syn = TcpSegment(5001, 80, seq=1, ack=0, flags=SYN, window=100,
                         mss=1460).pack("10.0.0.1", "10.0.0.2")
        udp = UdpDatagram(1111, 2222, PAYLOAD_4K[:1471]).pack(
            "192.168.1.9", "10.0.0.2")
        ip = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_TCP, seg,
                        ident=77).pack()
        eth = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                            ETHERTYPE_IPV4, ip).pack()
        arp = ArpPacket(ARP_REQUEST, "02:00:00:00:00:01", "10.0.0.1",
                        "00:00:00:00:00:00", "10.0.0.2").pack()
        assert self._digest(syn) == (24, "411c1b4796c8c05303618a6ab5e898e5"
                                         "7d905fbc14f8500f2f2fb3194d9ca558")
        assert self._digest(udp) == (1479, "7997b527ab9a6fa4135c2e5c8240bfb8"
                                           "ce4cdf0840a80dd4c6c9157982722c90")
        assert self._digest(eth) == (4150, "cc7df6c6adf0fe4069070b6c4c83d838"
                                           "1e98ebc763b7b975d4d69e73772118a7")
        assert self._digest(arp) == (28, "d90c166ca420bc58b6adfcc6fc031477"
                                         "840bb5b72d936693e98f4a47d5ec1528")


class TestChecksumVerification4K:
    """4 KB segments verify, and any single flipped bit fails them."""

    def test_tcp(self):
        raw = TcpSegment(5001, 80, seq=7, ack=9, flags=PSH | ACK,
                         window=4096, payload=PAYLOAD_4K).pack(
                             "10.0.0.1", "10.0.0.2")
        assert tcp_checksum_ok(raw, "10.0.0.1", "10.0.0.2")
        assert not tcp_checksum_ok(raw, "10.0.0.1", "10.0.0.3")
        for bit in sample_bits(raw):
            assert not tcp_checksum_ok(flipped(raw, bit), "10.0.0.1",
                                       "10.0.0.2")

    def test_udp(self):
        raw = UdpDatagram(1111, 2222, PAYLOAD_4K).pack("10.0.0.1", "10.0.0.2")
        assert udp_checksum_ok(raw, "10.0.0.1", "10.0.0.2")
        # Bytes 6-7 hold the checksum itself; zeroing it means "unchecked".
        for bit in sample_bits(raw, skip=(6, 7)):
            assert not udp_checksum_ok(flipped(raw, bit), "10.0.0.1",
                                       "10.0.0.2")

    def test_udp_zero_checksum_sent_as_ffff(self):
        # Pick the last payload word so the computed checksum is zero; a
        # non-zero datagram can only show 0xFFFF on the wire that way.
        body = PAYLOAD_4K[:100]
        for word in range(0x10000):
            payload = body + word.to_bytes(2, "big")
            raw = UdpDatagram(1, 2, payload).pack("10.0.0.1", "10.0.0.2")
            if raw[6:8] == b"\xff\xff":
                break
        else:
            pytest.fail("no payload produced a zero checksum")
        assert udp_checksum_ok(raw, "10.0.0.1", "10.0.0.2")

    def test_ipv4_header(self):
        raw = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, PAYLOAD_4K,
                         ident=3).pack()
        assert Ipv4Packet.unpack(raw).payload == PAYLOAD_4K
        for bit in range(20 * 8):
            with pytest.raises(PacketError):
                Ipv4Packet.unpack(flipped(raw, bit))


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                              ETHERTYPE_IPV4, b"payload")
        parsed = EthernetFrame.unpack(frame.pack())
        assert parsed == frame

    def test_too_short_rejected(self):
        with pytest.raises(PacketError):
            EthernetFrame.unpack(b"\x00" * 10)

    def test_len_includes_header(self):
        frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                              ETHERTYPE_IPV4, b"12345")
        assert len(frame) == 14 + 5


class TestArp:
    def test_request_roundtrip(self):
        pkt = ArpPacket(ARP_REQUEST, "02:00:00:00:00:01", "10.0.0.1",
                        "00:00:00:00:00:00", "10.0.0.2")
        assert ArpPacket.unpack(pkt.pack()) == pkt

    def test_reply_roundtrip(self):
        pkt = ArpPacket(ARP_REPLY, "02:00:00:00:00:02", "10.0.0.2",
                        "02:00:00:00:00:01", "10.0.0.1")
        assert ArpPacket.unpack(pkt.pack()) == pkt

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            ArpPacket.unpack(b"\x00" * 20)


class TestIpv4:
    def test_roundtrip(self):
        pkt = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"hello", ident=7)
        parsed = Ipv4Packet.unpack(pkt.pack())
        assert (parsed.src, parsed.dst, parsed.proto, parsed.payload) == (
            "10.0.0.1", "10.0.0.2", PROTO_UDP, b"hello")
        assert parsed.ident == 7

    def test_checksum_verified(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(bytes(raw))

    def test_corruption_ignored_when_not_verifying(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[8] ^= 0xFF
        pkt = Ipv4Packet.unpack(bytes(raw), verify_checksum=False)
        assert pkt.payload == b"x"

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(b"\x45\x00")

    def test_non_ipv4_rejected(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(bytes(raw), verify_checksum=False)


class TestUdp:
    def test_roundtrip(self):
        datagram = UdpDatagram(1111, 2222, b"data")
        parsed = UdpDatagram.unpack(datagram.pack("10.0.0.1", "10.0.0.2"))
        assert (parsed.src_port, parsed.dst_port, parsed.payload) == (1111, 2222, b"data")

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            UdpDatagram.unpack(b"\x00\x01")

    def test_length_field_limits_payload(self):
        raw = UdpDatagram(1, 2, b"abcd").pack("10.0.0.1", "10.0.0.2")
        parsed = UdpDatagram.unpack(raw + b"trailing-garbage")
        assert parsed.payload == b"abcd"


class TestTcpSegment:
    def test_roundtrip_with_payload(self):
        seg = TcpSegment(80, 12345, seq=1000, ack=2000, flags=PSH | ACK,
                         window=8192, payload=b"GET /")
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert (parsed.src_port, parsed.dst_port) == (80, 12345)
        assert (parsed.seq, parsed.ack) == (1000, 2000)
        assert parsed.flags == PSH | ACK
        assert parsed.window == 8192
        assert parsed.payload == b"GET /"
        assert parsed.mss is None

    def test_syn_carries_mss_option(self):
        seg = TcpSegment(80, 12345, seq=0, ack=0, flags=SYN, window=100, mss=1460)
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert parsed.mss == 1460
        assert parsed.flags & SYN

    def test_sequence_numbers_wrap_32_bits(self):
        seg = TcpSegment(1, 2, seq=2**32 + 5, ack=2**33 + 9, flags=ACK, window=1)
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert parsed.seq == 5
        assert parsed.ack == 9

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            TcpSegment.unpack(b"\x00" * 10)

    def test_flag_names(self):
        seg = TcpSegment(1, 2, 0, 0, SYN | ACK, 0)
        assert seg.flag_names() == "SYN|ACK"
