"""Correctness oracles: self-describing values, reply checks, scan models.

Every value the benchmark writes is a pure function of ``(key,
version, size)``, so a reply can be checked byte for byte without
keeping the written bytes around: a stale, torn, foreign or truncated
value never equals :func:`kv_value` of the version the oracle expects.
Log records are built the same way from the record's request id.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["kv_value", "check_kv_reply", "log_record", "scan_match",
           "check_log_read", "check_scan"]


def _fill(header: bytes, size: int) -> bytes:
    if size < len(header):
        raise ValueError("value size %d cannot hold header %r"
                         % (size, header))
    pattern = hashlib.blake2b(header, digest_size=32).digest()
    body = size - len(header)
    return header + (pattern * (body // len(pattern) + 1))[:body]


def kv_value(key: bytes, version: int, size: int) -> bytes:
    """The value a SET of *key* at *version* carries (*size* bytes)."""
    return _fill(b"%s|v%d|" % (key, version), size)


def check_kv_reply(op, response) -> Optional[str]:
    """Why *response* is the wrong answer to *op*, or ``None`` if right.

    *op* is a :class:`perfbench.loadgen.Op` (``kind`` ``get`` or
    ``set``); *response* is a decoded
    :class:`repro.apps.proto.codec.Response`.  A GET must return
    exactly the value of ``op.version``, the last version this
    connection wrote before it; a SET must be acknowledged.  Where the
    protocol echoes an opaque it must be the request id.
    """
    if response.opaque and response.opaque != op.rid & 0xFFFFFFFF:
        return "reply opaque %d for request %d" % (response.opaque, op.rid)
    if op.kind == "set":
        if response.status != "stored":
            return "SET %r answered %s %r" % (op.key, response.status,
                                              response.message)
        return None
    if response.status != "value":
        return "GET %r answered %s %r" % (op.key, response.status,
                                          response.message)
    want = kv_value(op.key, op.version, op.size)
    if response.value != want:
        if len(response.value) != len(want):
            return "GET %r: %d bytes, want %d" % (
                op.key, len(response.value), len(want))
        return "GET %r: value differs from version %d" % (op.key,
                                                          op.version)
    return None


def log_record(rid: int, size: int) -> bytes:
    """The payload request *rid* appends (*size* bytes)."""
    return _fill(b"rec|%d|" % rid, size)


def scan_match(payload: bytes) -> bool:
    """The predicate every periodic scan ships to the device.

    Selects about one record in eight by the payload's last byte, so the
    device has to read every record to answer.
    """
    return payload[-1] % 8 == 0


def check_log_read(record_id: int, want: bytes,
                   payload: bytes) -> Optional[str]:
    """Why a point read of *record_id* is wrong, or ``None``."""
    if payload != want:
        return "read of record %d: %d bytes, differs from the append" % (
            record_id, len(payload))
    return None


def check_scan(durable: Iterable[Tuple[int, bytes]],
               matches: Sequence[Tuple[int, bytes]]) -> Optional[str]:
    """Compare a scan's ``(record_id, payload)`` matches to the model.

    *durable* is every record that was durable when the scan was
    submitted; the device must return exactly those for which
    :func:`scan_match` holds, each once, with its exact payload.
    """
    want: List[Tuple[int, bytes]] = sorted(
        (rec_id, payload) for rec_id, payload in durable
        if scan_match(payload))
    got = sorted(matches)
    if got == want:
        return None
    missing = len(set(want) - set(got))
    extra = len(set(got) - set(want))
    return "scan returned %d matches, model has %d (%d missing, %d extra)" % (
        len(got), len(want), missing, extra)
