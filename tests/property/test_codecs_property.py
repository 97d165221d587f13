"""Property-based tests: wire codecs must round-trip for all inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack.arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from repro.netstack.ethernet import EthernetFrame
from repro.netstack.framing import Deframer, frame_message
from repro.netstack.ipv4 import Ipv4Packet
from repro.netstack.packet import (
    bytes_to_ip,
    bytes_to_mac,
    internet_checksum,
    ip_to_bytes,
    mac_to_bytes,
)
from repro.netstack.tcp import TcpSegment
from repro.netstack.udp import UdpDatagram

macs = st.builds(
    lambda parts: ":".join("%02x" % p for p in parts),
    st.lists(st.integers(0, 255), min_size=6, max_size=6),
)
ips = st.builds(
    lambda parts: ".".join(str(p) for p in parts),
    st.lists(st.integers(0, 255), min_size=4, max_size=4),
)
payloads = st.binary(min_size=0, max_size=2048)


class TestAddressProperties:
    @given(macs)
    def test_mac_roundtrip(self, mac):
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    @given(ips)
    def test_ip_roundtrip(self, ip):
        assert bytes_to_ip(ip_to_bytes(ip)) == ip


def reference_checksum(data: bytes) -> int:
    """RFC 1071 the textbook way: a per-word end-around-carry loop."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _fill(pair):
    length, byte = pair
    return bytes([byte]) * length


def _word_sum_multiple_of_ffff(words):
    # Append the word that makes the 16-bit word sum a multiple of 0xFFFF
    # (the case where a non-zero sum folds to 0xFFFF, never to 0).
    total = sum(words)
    last = (-total) % 0xFFFF or 0xFFFF
    return b"".join(w.to_bytes(2, "big") for w in words + [last])


checksum_inputs = st.one_of(
    st.binary(min_size=0, max_size=9000),
    st.binary(min_size=0, max_size=64),
    st.tuples(st.integers(0, 9000), st.sampled_from([0x00, 0xFF])).map(_fill),
    st.lists(st.integers(0, 0xFFFF), max_size=64).map(
        _word_sum_multiple_of_ffff),
)


class TestChecksumProperties:
    @given(checksum_inputs)
    @settings(max_examples=300)
    def test_matches_per_word_reference(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @given(checksum_inputs, st.data())
    def test_parts_match_concatenation(self, data, draw):
        cut1 = draw.draw(st.integers(0, len(data)))
        cut2 = draw.draw(st.integers(cut1, len(data)))
        parts = (data[:cut1], bytearray(data[cut1:cut2]),
                 memoryview(data[cut2:]))
        assert internet_checksum(*parts) == reference_checksum(data)

    def test_reference_edge_cases(self):
        for data in (b"", b"\x00", b"\xff", b"\x00" * 4096, b"\xff" * 4096,
                     b"\xff" * 4097, b"\xff\xfe\x00\x01",
                     _word_sum_multiple_of_ffff([0x1234, 0xABCD])):
            assert internet_checksum(data) == reference_checksum(data)

    @given(st.binary(min_size=0, max_size=512))
    def test_checksum_fits_16_bits(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=2, max_size=512).filter(lambda d: len(d) % 2 == 0))
    def test_patched_checksum_verifies_to_zero(self, data):
        # Insert the checksum over a zeroed 2-byte field at offset 0.
        base = b"\x00\x00" + data
        csum = internet_checksum(base)
        patched = bytes([csum >> 8, csum & 0xFF]) + data
        assert internet_checksum(patched) == 0


class TestFrameCodecProperties:
    @given(macs, macs, st.integers(0, 0xFFFF), payloads)
    def test_ethernet_roundtrip(self, dst, src, ethertype, payload):
        frame = EthernetFrame(dst, src, ethertype, payload)
        assert EthernetFrame.unpack(frame.pack()) == frame

    @given(ips, ips, st.integers(0, 255), payloads,
           st.integers(1, 255), st.integers(0, 0xFFFF))
    def test_ipv4_roundtrip(self, src, dst, proto, payload, ttl, ident):
        pkt = Ipv4Packet(src, dst, proto, payload, ttl=ttl, ident=ident)
        parsed = Ipv4Packet.unpack(pkt.pack())
        assert (parsed.src, parsed.dst, parsed.proto, parsed.payload,
                parsed.ttl, parsed.ident) == (src, dst, proto, payload,
                                              ttl, ident)

    @given(ips, ips, st.integers(0, 65535), st.integers(0, 65535), payloads)
    def test_udp_roundtrip(self, src_ip, dst_ip, sport, dport, payload):
        datagram = UdpDatagram(sport, dport, payload)
        parsed = UdpDatagram.unpack(datagram.pack(src_ip, dst_ip))
        assert (parsed.src_port, parsed.dst_port, parsed.payload) == (
            sport, dport, payload)

    @given(st.integers(0, 65535), st.integers(0, 65535),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 31), st.integers(0, 65535), payloads,
           st.one_of(st.none(), st.integers(1, 65535)))
    def test_tcp_segment_roundtrip(self, sport, dport, seq, ack, flags,
                                   window, payload, mss):
        seg = TcpSegment(sport, dport, seq, ack, flags, window,
                         payload, mss=mss)
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert (parsed.src_port, parsed.dst_port, parsed.seq, parsed.ack,
                parsed.flags, parsed.window, parsed.payload, parsed.mss) == (
            sport, dport, seq, ack, flags, window, payload, mss)

    @given(ips, ips, macs, macs, st.sampled_from([ARP_REQUEST, ARP_REPLY]))
    def test_arp_roundtrip(self, sip, tip, smac, tmac, oper):
        pkt = ArpPacket(oper, smac, sip, tmac, tip)
        assert ArpPacket.unpack(pkt.pack()) == pkt


class TestFramingProperties:
    @given(st.lists(payloads, min_size=0, max_size=20))
    def test_concatenated_messages_all_recovered(self, messages):
        stream = b"".join(frame_message(m) for m in messages)
        d = Deframer()
        assert d.feed(stream) == messages

    @given(st.lists(payloads, min_size=1, max_size=10),
           st.data())
    @settings(max_examples=50)
    def test_arbitrary_chunking_preserves_messages(self, messages, data):
        stream = b"".join(frame_message(m) for m in messages)
        d = Deframer()
        out = []
        position = 0
        while position < len(stream):
            step = data.draw(st.integers(1, max(1, len(stream) - position)))
            out.extend(d.feed(stream[position:position + step]))
            position += step
        assert out == messages
        assert not d.pending()

    @given(st.lists(payloads, min_size=0, max_size=10))
    def test_message_count_statistics(self, messages):
        d = Deframer()
        stream = b"".join(frame_message(m) for m in messages)
        d.feed(stream) if stream else d.feed(b"")
        assert d.messages_out == len(messages)
        assert d.bytes_in == len(stream)
