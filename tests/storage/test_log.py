"""Tests for the log-structured record store."""

import pytest

from repro.hw.nvme import NvmeDevice
from repro.storage.log import LogError, LogStore

from ..conftest import World


def make_store(**kw):
    w = World()
    host = w.add_host("h")
    nvme = NvmeDevice(host, name="h.nvme0")
    store = LogStore(nvme, host.cpu, **kw)
    return w, store, nvme


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestAppendRead:
    def test_append_then_read_from_buffer(self):
        w, store, _ = make_store()

        def proc():
            rid = yield from store.append(b"record-one")
            data = yield from store.read(rid)
            return rid, data

        rid, data = run(w, proc())
        assert rid == 0
        assert data == b"record-one"

    def test_read_after_sync_hits_device(self):
        w, store, nvme = make_store()

        def proc():
            rid = yield from store.append(b"durable-record")
            yield from store.sync()
            data = yield from store.read(rid)
            return data

        assert run(w, proc()) == b"durable-record"
        assert nvme.tracer.get("h.nvme0.writes") >= 1
        assert nvme.tracer.get("h.nvme0.reads") >= 1

    def test_record_ids_are_byte_offsets(self):
        w, store, _ = make_store()

        def proc():
            r1 = yield from store.append(b"aaaa")
            r2 = yield from store.append(b"bb")
            return r1, r2

        r1, r2 = run(w, proc())
        assert r1 == 0
        assert r2 == 12 + 4  # header + payload of the first record

    def test_large_record_spans_blocks(self):
        w, store, _ = make_store()
        payload = bytes(range(256)) * 40  # 10240 bytes

        def proc():
            rid = yield from store.append(payload)
            yield from store.sync()
            return (yield from store.read(rid))

        assert run(w, proc()) == payload

    def test_empty_record_rejected(self):
        w, store, _ = make_store()

        def proc():
            with pytest.raises(LogError):
                yield from store.append(b"")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_bad_record_id_rejected(self):
        w, store, _ = make_store()

        def proc():
            yield from store.append(b"x")
            with pytest.raises(LogError):
                yield from store.read(99999)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_log_full_rejected(self):
        w, store, _ = make_store(lba_count=1)

        def proc():
            yield from store.append(b"y" * 2000)
            with pytest.raises(LogError):
                yield from store.append(b"y" * 3000)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_multiple_syncs_with_partial_blocks(self):
        """A sync mid-block must not corrupt earlier records."""
        w, store, _ = make_store()

        def proc():
            r1 = yield from store.append(b"first")
            yield from store.sync()
            r2 = yield from store.append(b"second")
            yield from store.sync()
            d1 = yield from store.read(r1)
            d2 = yield from store.read(r2)
            return d1, d2

        assert run(w, proc()) == (b"first", b"second")


class TestSyncInFlight:
    """Appends and syncs that overlap a flush not yet landed, or follow
    one that failed."""

    def _mount_payloads(self, w, nvme, core):
        recovered = LogStore(nvme, core)

        def proc():
            found = yield from recovered.mount()
            out = []
            for rid in found:
                out.append((yield from recovered.read(rid)))
            return out

        return run(w, proc())

    def test_append_during_sync_is_not_lost(self):
        w, store, nvme = make_store()
        payloads = [bytes([i]) * (700 + 333 * i) for i in range(6)]

        def proc():
            rids = []
            for p in payloads[:3]:
                rids.append((yield from store.append(p)))
            flusher = w.sim.spawn(store.sync())
            yield w.sim.timeout(1)
            assert not flusher.triggered  # the first flush is in flight
            for p in payloads[3:]:
                rids.append((yield from store.append(p)))
            first = yield flusher
            second = yield from store.sync()
            back = []
            for rid in rids:
                back.append((yield from store.read(rid)))
            return first, second, back

        first, second, back = run(w, proc())
        assert back == payloads
        assert first + second == store.tail
        assert store.unsynced_bytes == 0
        assert self._mount_payloads(w, nvme, store.core) == payloads

    def test_overlapping_syncs_run_one_at_a_time(self):
        w, store, nvme = make_store()
        payloads = [b"a" * 5000, b"b" * 123, b"c" * 4000]
        finished = []

        def syncer(tag):
            flushed = yield from store.sync()
            finished.append(tag)
            return flushed

        def proc():
            yield from store.append(payloads[0])
            a = w.sim.spawn(syncer("a"))
            yield w.sim.timeout(1)
            b = w.sim.spawn(syncer("b"))  # arrives while a's flush is in flight
            yield w.sim.timeout(1)
            yield from store.append(payloads[1])
            yield from store.append(payloads[2])
            c = w.sim.spawn(syncer("c"))  # new bytes behind two running syncs
            flushed = [(yield a), (yield b), (yield c)]
            reads = []
            for rid in (0, 12 + 5000, 2 * 12 + 5000 + 123):
                reads.append((yield from store.read(rid)))
            return flushed, reads

        flushed, reads = run(w, proc())
        assert reads == payloads
        assert flushed[0] == 12 + 5000  # a's snapshot, not the later appends
        assert sum(flushed) == store.tail
        assert finished == ["a", "b", "c"]
        assert store.unsynced_bytes == 0
        assert self._mount_payloads(w, nvme, store.core) == payloads

    def test_failed_sync_is_resubmitted_whole(self):
        from ..conftest import make_spdk_libos
        from repro.core.types import DeviceFailed
        from repro.sim.faults import FaultPlan

        w, libos = make_spdk_libos()
        store, nvme = libos.store, libos.nvme
        outage = (1_000_000, 50_000_000)  # outlasts the recovery ladder
        w.install_faults(FaultPlan(seed=1).nvme_ctrl_fail("nvme0", *outage))
        # The first sync ends mid-block; the failed one crosses a block.
        payloads = [b"x" * 100, b"y" * 5000, b"z" * 300]

        def proc():
            yield from store.append(payloads[0])
            yield from store.sync()
            yield w.sim.timeout(outage[0] - w.sim.now)
            yield from store.append(payloads[1])
            with pytest.raises(DeviceFailed):
                yield from store.sync()
            yield w.sim.timeout(outage[1] - w.sim.now)
            yield from store.append(payloads[2])
            return (yield from store.sync())

        flushed = run(w, proc())
        assert flushed == 2 * 12 + 5000 + 300
        assert self._mount_payloads(w, nvme, store.core) == payloads


class TestRecovery:
    def test_mount_rebuilds_tail(self):
        w, store, nvme = make_store()

        def write_phase():
            for i in range(5):
                yield from store.append(b"record-%d" % i)
            yield from store.sync()

        run(w, write_phase())
        # Fresh store object over the same device = restart after crash.
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            found = yield from recovered.mount()
            payloads = []
            for rid in found:
                payloads.append((yield from recovered.read(rid)))
            return found, payloads

        found, payloads = run(w, recover_phase())
        assert len(found) == 5
        assert payloads == [b"record-%d" % i for i in range(5)]
        assert recovered.tail == store.tail

    def test_unsynced_records_lost_on_crash(self):
        w, store, nvme = make_store()

        def write_phase():
            yield from store.append(b"durable")
            yield from store.sync()
            yield from store.append(b"volatile")  # never synced

        run(w, write_phase())
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            return (yield from recovered.mount())

        found = run(w, recover_phase())
        assert len(found) == 1

    def test_corruption_stops_replay(self):
        w, store, nvme = make_store()

        def write_phase():
            for i in range(3):
                yield from store.append(b"record-%d" % i)
            yield from store.sync()

        run(w, write_phase())
        # Corrupt the middle record's payload directly on the device.
        block = bytearray(nvme.peek_block(0))
        block[20] ^= 0xFF
        nvme._blocks[0] = bytes(block)
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            return (yield from recovered.mount())

        found = run(w, recover_phase())
        assert len(found) < 3

    def test_append_after_remount_keeps_recovered_records(self):
        # The log ends mid-block after each phase, so the second sync
        # must rewrite the recovered head of that block, not zeros.
        w, store, nvme = make_store()
        first = [b"alpha" * 30, b"beta" * 500]
        second = [b"gamma" * 70, b"delta" * 3]

        def append_and_sync(log, payloads):
            def proc():
                for p in payloads:
                    yield from log.append(p)
                yield from log.sync()
            return proc()

        def mount_payloads(log):
            def proc():
                found = yield from log.mount()
                out = []
                for rid in found:
                    out.append((yield from log.read(rid)))
                return out
            return proc()

        run(w, append_and_sync(store, first))
        assert store.tail % store.block_size != 0
        remounted = LogStore(nvme, store.core)
        assert run(w, mount_payloads(remounted)) == first
        run(w, append_and_sync(remounted, second))
        assert remounted.tail % remounted.block_size != 0
        recovered = LogStore(nvme, store.core)
        assert run(w, mount_payloads(recovered)) == first + second
        assert recovered.tail == remounted.tail


class TestSpdkLibOS:
    def test_creat_push_pop(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/log")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"entry-1"))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"entry-2"))
            r1 = yield from libos.blocking_pop(qd)
            r2 = yield from libos.blocking_pop(qd)
            return r1.sga.tobytes(), r2.sga.tobytes()

        assert run(w, proc()) == (b"entry-1", b"entry-2")

    def test_open_reads_existing_records(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def writer():
            qd = yield from libos.creat("/data")
            for i in range(3):
                yield from libos.blocking_push(qd, libos.sga_alloc(b"r%d" % i))
            yield from libos.fsync(qd)

        run(w, writer())

        def reader():
            qd = yield from libos.open("/data")
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(qd)
                out.append(result.sga.tobytes())
            return out

        assert run(w, reader()) == [b"r0", b"r1", b"r2"]

    def test_pop_waits_for_append(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()
        order = []

        def reader(qd):
            result = yield from libos.blocking_pop(qd)
            order.append(("read", result.sga.tobytes()))

        def main():
            qd = yield from libos.creat("/tail")
            w.sim.spawn(reader(qd))
            yield w.sim.timeout(1_000_000)
            order.append(("write",))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"fresh"))

        w.sim.spawn(main())
        w.run()
        assert order == [("write",), ("read", b"fresh")]

    def test_open_missing_raises(self):
        from repro.core.types import DemiError
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            with pytest.raises(DemiError):
                yield from libos.open("/ghost")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_no_syscalls_on_storage_path(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/fast")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"d" * 4096))
            yield from libos.fsync(qd)
            yield from libos.blocking_pop(qd)

        run(w, proc())
        # No kernel: no syscall or copy counters anywhere.
        assert all("kernel" not in k for k in w.tracer.counters)

    def test_mount_recovers_into_file(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def write_phase():
            qd = yield from libos.creat("/will-crash")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"kept"))
            yield from libos.fsync(qd)

        run(w, write_phase())

        # Simulate restart: a fresh libOS over the same device.
        from repro.libos.spdk_libos import SpdkLibOS
        fresh = SpdkLibOS(libos.host, libos.nvme, name="h.catfish2")

        def recover_phase():
            n = yield from fresh.mount()
            qd = yield from fresh.open("/recovered")
            result = yield from fresh.blocking_pop(qd)
            return n, result.sga.tobytes()

        n, data = run(w, recover_phase())
        assert n == 1
        assert data == b"kept"
