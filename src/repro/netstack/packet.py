"""Wire-format helpers shared by every protocol layer.

Frames on the fabric are real ``bytes``: every header here packs to and
parses from its genuine wire format (RFC 791/793/768 layouts), so the
stack can be tested the way a real one is - by inspecting octets.

These run on every frame, so they are written for host speed: the
checksum is one C-level big-integer reduction instead of a per-word
Python loop, and the address codecs are memoized (a simulation only
ever sees a handful of distinct addresses).  None of this is charged to
simulated time - the cost model in :mod:`repro.sim.costs` is.
"""

from __future__ import annotations

import functools
import struct

__all__ = [
    "internet_checksum",
    "mac_to_bytes",
    "bytes_to_mac",
    "ip_to_bytes",
    "bytes_to_ip",
    "pseudo_header",
    "PacketError",
]

#: entries per address-codec cache; far above any topology's address count
_CODEC_CACHE_SIZE = 4096

_PSEUDO_TAIL = struct.Struct("!BBH")  # zero, protocol, L4 length


class PacketError(Exception):
    """Malformed or truncated packet."""


def internet_checksum(*parts: bytes) -> int:
    """RFC 1071 ones-complement checksum over the concatenation of *parts*.

    Passing a segment as separate parts (pseudo-header, header, payload)
    gives the same result as checksumming their concatenation, without
    building the copy.  Read big-endian, the message is a number ``n``
    whose 16-bit words are its base-2**16 digits; since ``2**16 == 1
    (mod 0xFFFF)``, ``n % 0xFFFF`` is the end-around-carry word sum,
    except that a non-zero sum folds to ``0xFFFF``, never to 0.  A part
    followed by an odd number of bytes sits one byte off the word grid,
    so its value is scaled by 256; an odd-length message is padded with
    one zero byte.
    """
    total = 0
    odd = False  # an odd number of bytes follows the current part
    for part in reversed(parts):
        value = int.from_bytes(part, "big")
        total += value << 8 if odd else value
        odd ^= len(part) & 1
    if odd:
        total <<= 8
    if not total:
        return 0xFFFF
    # Complement of the folded sum: 0xFFFF - (total mod 0xFFFF, in 1..0xFFFF).
    return -total % 0xFFFF


@functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
def mac_to_bytes(mac: str) -> bytes:
    """``"02:00:00:00:00:01"`` -> 6 bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise PacketError("bad MAC %r" % mac)
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError:
        raise PacketError("bad MAC %r" % mac)


def bytes_to_mac(raw: bytes) -> str:
    """6 bytes (``bytes``, ``bytearray`` or ``memoryview``) -> MAC string."""
    return _bytes_to_mac(bytes(raw))


@functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
def _bytes_to_mac(raw: bytes) -> str:
    if len(raw) != 6:
        raise PacketError("MAC must be 6 bytes, got %d" % len(raw))
    return raw.hex(":")


@functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
def ip_to_bytes(ip: str) -> bytes:
    """``"10.0.0.1"`` -> 4 bytes."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise PacketError("bad IPv4 address %r" % ip)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise PacketError("bad IPv4 address %r" % ip)
    if any(v < 0 or v > 255 for v in values):
        raise PacketError("bad IPv4 address %r" % ip)
    return struct.pack("!BBBB", *values)


def bytes_to_ip(raw: bytes) -> str:
    """4 bytes (``bytes``, ``bytearray`` or ``memoryview``) -> dotted quad."""
    return _bytes_to_ip(bytes(raw))


@functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
def _bytes_to_ip(raw: bytes) -> str:
    if len(raw) != 4:
        raise PacketError("IPv4 address must be 4 bytes")
    return "%d.%d.%d.%d" % tuple(raw)


def pseudo_header(src_ip: str, dst_ip: str, proto: int, length: int) -> bytes:
    """The IPv4 pseudo-header a TCP/UDP checksum covers (RFC 793/768)."""
    return (ip_to_bytes(src_ip) + ip_to_bytes(dst_ip)
            + _PSEUDO_TAIL.pack(0, proto, length))
