"""The engine's allocation-light fast paths keep every check and name.

Timeouts build themselves in one step, labels render only on demand,
callbacks dispatch inline and counter bumps are a single lookup.  These
tests pin what those shortcuts must not lose: readable labels and error
messages, the negative-delay and double-trigger checks, interrupt
detaching, processes freed without the cycle collector, and counter
names that appear only when first bumped.
"""

import gc
import weakref

import pytest

from repro.core.wait import QTokenTable
from repro.hw.nvme import NvmeDevice
from repro.sim.cpu import Core
from repro.sim.engine import (Completion, Interrupt, SimulationError,
                              Simulator, Timeout, all_of, any_of)
from repro.sim.sync import WaitQueue
from repro.sim.trace import Tracer
from repro.telemetry import names
from repro.testbed import World, make_spdk_libos


class TestLabels:
    def test_timeout_label_and_repr(self):
        sim = Simulator()
        t = sim.timeout(100)
        assert t.label == "timeout(100)"
        assert "timeout(100)" in repr(t)
        assert "pending" in repr(t)

    def test_core_busy_timeout_label(self):
        sim = Simulator()
        core = Core(sim)
        core.busy(30)
        t = core.busy(20)  # queues behind the first: fires 50 ns from now
        assert isinstance(t, Timeout)
        assert t.label == "timeout(50)"

    def test_double_trigger_message_names_the_completion(self):
        sim = Simulator()
        t = sim.timeout(100)
        sim.run()
        with pytest.raises(SimulationError,
                           match=r"completion 'timeout\(100\)' triggered "
                                 r"twice"):
            t.trigger()
        c = sim.completion("plain")
        c.trigger()
        with pytest.raises(SimulationError, match="'plain' triggered twice"):
            c.fail(RuntimeError("late"))

    def test_untriggered_value_message_names_the_completion(self):
        sim = Simulator()
        c = Completion(sim, ("%s.%d", "qt", 7))
        with pytest.raises(SimulationError, match="'qt.7' not yet triggered"):
            c.value

    def test_lazy_labels_render_on_demand(self):
        sim = Simulator()
        table = QTokenTable(sim, Tracer(), "lib0")
        token, done = table.create()
        assert done.label == "lib0.%d" % token
        wq = WaitQueue(sim, name="sock3")
        assert wq.wait().label == "sock3.wait"
        events = [sim.completion("a"), sim.completion("b")]
        assert any_of(sim, events).label == "any(2)"
        assert all_of(sim, events).label == "all(2)"
        assert sim.completion().label == ""

    def test_process_label(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1)

        assert sim.spawn(body(), name="worker").label == "process(worker)"
        assert sim.spawn(body()).label == "process(anon)"


class TestChecksKept:
    def test_negative_timeout_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="negative timeout"):
            Timeout(sim, -1)
        with pytest.raises(SimulationError, match="negative timeout"):
            sim.timeout(-5)
        assert sim.peek() is None  # nothing was scheduled

    def test_negative_cpu_charge_raises(self):
        sim = Simulator()
        core = Core(sim)
        with pytest.raises(ValueError, match="negative CPU charge"):
            core.busy(-1)
        assert core.jobs == 0 and core.free_at == 0

    def test_negative_call_in_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="into the past"):
            sim.call_in(-1, lambda: None)

    def test_timeout_fires_with_value_at_deadline(self):
        sim = Simulator()

        def body():
            got = yield Timeout(sim, 40, value="v")
            return got, sim.now

        p = sim.spawn(body())
        sim.run()
        assert p.value == ("v", 40)


class TestInterruptDetaches:
    def test_interrupt_detaches_resume_from_pending_timeout(self):
        sim = Simulator()
        t = sim.timeout(1_000)
        caught = []

        def body():
            try:
                yield t
            except Interrupt as exc:
                caught.append((exc.cause, sim.now))

        p = sim.spawn(body())
        sim.run(until=10)
        assert len(t._callbacks) == 1  # the process's resume callback
        p.interrupt("stop")
        assert t._callbacks == []
        sim.run()
        assert caught == [("stop", 10)]
        assert t.triggered  # the clock still fires it, nobody listens

    def test_interrupt_during_dispatch_does_not_skip_callbacks(self):
        # The first callback interrupts the process waiting second in
        # line; the dispatch must still run every planted callback.
        sim = Simulator()
        c = sim.completion("shared")
        seen = []

        def waiter():
            try:
                yield c
                seen.append("resumed")
            except Interrupt:
                seen.append("interrupted")

        p = sim.spawn(waiter())
        sim.run()
        c._callbacks.insert(0, lambda _c: p.interrupt("race"))
        c.subscribe(lambda _c: seen.append("last"))
        c.trigger(1)
        sim.run()
        # The pending interrupt is delivered at the resume point.
        assert seen == ["interrupted", "last"]


class _Marker:
    """A weak-referenceable value for a process to return."""


class TestNoReferenceCycles:
    def _assert_freed_by_refcount(self, body_factory):
        sim = Simulator()
        gc.disable()
        try:
            proc = sim.spawn(body_factory(sim))
            sim.run()
            assert proc.triggered
            ref = weakref.ref(proc.value)
            del proc
            assert ref() is None, "finished Process kept alive by a cycle"
        finally:
            gc.enable()

    def test_finished_process_is_freed_without_gc(self):
        def body(sim):
            yield sim.timeout(5)
            yield Core(sim).busy(7)
            yield sim.spawn(self._child(sim))
            return _Marker()

        self._assert_freed_by_refcount(body)

    def test_process_that_waited_on_any_of_is_freed_without_gc(self):
        def body(sim):
            slow = sim.timeout(1_000)
            yield any_of(sim, [sim.timeout(3), slow])
            slow.cancel()
            return _Marker()

        self._assert_freed_by_refcount(body)

    def test_interrupted_process_is_freed_without_gc(self):
        def body(sim):
            me = sim.active_process
            sim.call_in(2, me.interrupt, "poke")
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            return _Marker()

        self._assert_freed_by_refcount(body)

    @staticmethod
    def _child(sim):
        yield sim.timeout(1)
        return 1


class TestCounters:
    def test_scope_names_and_first_bump(self):
        t = Tracer()
        s = t.scope("h0").scope("kernel")
        assert s.get(names.SYSCALLS) == 0
        assert dict(t.counters) == {}
        s.count(names.SYSCALLS)
        s.count(names.SYSCALLS, 4)
        assert dict(t.counters) == {"h0.kernel.%s" % names.SYSCALLS: 5}

    def test_scope_survives_tracer_reset(self):
        t = Tracer()
        s = t.scope("h")
        s.count(names.PUSHES)
        t.reset()
        s.count(names.PUSHES, 2)
        assert t.get("h.%s" % names.PUSHES) == 2

    def test_libos_count_is_bound_to_its_scope(self):
        w, libos = make_spdk_libos()
        assert libos.count.__self__ is libos.counters
        full = "%s.%s" % (libos.name, names.PROTO_REQUESTS)
        assert full not in w.tracer.counters
        libos.count(names.PROTO_REQUESTS)
        libos.count(names.PROTO_REQUESTS, 2)
        assert w.tracer.counters[full] == 3
        assert libos.counters.get(names.PROTO_REQUESTS) == 3

    def test_device_count_is_bound_to_its_scope(self):
        w = World()
        host = w.add_host("h")
        nvme = NvmeDevice(host, name="h.nvme0")
        assert nvme.count.__self__ is nvme.counters
        full = "h.nvme0.%s" % names.NVME_SCAN_MATCHES
        assert full not in w.tracer.counters
        nvme.count(names.NVME_SCAN_MATCHES, 0)  # a zero bump still names it
        assert w.tracer.counters[full] == 0
        nvme.count(names.NVME_SCAN_MATCHES)
        assert w.tracer.get(full) == 1
