"""The correctness oracles flag wrong answers fed to them directly."""

from repro.apps.proto import Response

from perfbench.check import (check_kv_reply, check_log_read, check_scan,
                             kv_value, log_record, scan_match)
from perfbench.loadgen import Op

GET = Op(7, 0, 0, "get", b"key:000001", version=3, size=128)
SET = Op(8, 0, 0, "set", b"key:000001", version=4, size=128)


def test_right_answers_pass():
    good = Response(status="value", value=kv_value(GET.key, 3, 128))
    assert check_kv_reply(GET, good) is None
    assert check_kv_reply(SET, Response(status="stored")) is None
    assert check_kv_reply(GET, Response(status="value", opaque=7,
                                        value=good.value)) is None


def test_corrupted_replies_are_flagged():
    value = bytearray(kv_value(GET.key, 3, 128))
    value[100] ^= 1
    assert check_kv_reply(GET, Response(status="value", value=bytes(value)))
    stale = kv_value(GET.key, 2, 128)
    assert check_kv_reply(GET, Response(status="value", value=stale))
    foreign = kv_value(b"key:000002", 3, 128)
    assert check_kv_reply(GET, Response(status="value", value=foreign))
    torn = kv_value(GET.key, 3, 128)[:64]
    assert check_kv_reply(GET, Response(status="value", value=torn))
    assert check_kv_reply(GET, Response(status="miss"))
    assert check_kv_reply(SET, Response(status="error", message="ERR"))
    assert check_kv_reply(GET, Response(status="value", opaque=9,
                                        value=kv_value(GET.key, 3, 128)))


def test_log_reads_are_byte_checked():
    want = log_record(5, 512)
    assert check_log_read(0, want, want) is None
    assert check_log_read(0, want, want[:-1] + b"\x00")
    assert check_log_read(0, want, log_record(6, 512))


def test_scans_are_compared_to_the_model():
    durable = [(i * 100, log_record(i, 256)) for i in range(200)]
    want = [(rid, p) for rid, p in durable if scan_match(p)]
    assert 0 < len(want) < len(durable)
    assert check_scan(durable, want) is None
    unmatched = next(rec for rec in durable if not scan_match(rec[1]))
    assert check_scan(durable, want[1:])                      # missing
    assert check_scan(durable, want + [unmatched])            # extra
    assert check_scan(durable, want + want[:1])               # duplicate
    assert check_scan(durable, [(want[0][0], want[1][1])] + want[1:])
