"""Tests for the performance-monitoring hardware models."""

import pytest

from repro.monitor.histogram import Histogrammer
from repro.monitor.probes import PrefetchProbe
from repro.monitor.tracer import EventTracer


class TestEventTracer:
    def test_records_in_order(self):
        t = EventTracer()
        t.post(1.0, "sig", "a")
        t.post(2.0, "sig", "b")
        assert [e.value for e in t.events] == ["a", "b"]

    def test_capacity_and_drop_counting(self):
        t = EventTracer(capacity=2)
        for i in range(5):
            t.post(float(i), "sig")
        assert len(t.events) == 2 and t.dropped == 3

    def test_cascading(self):
        spill = EventTracer(capacity=10)
        t = EventTracer(capacity=2, cascade=spill)
        for i in range(5):
            t.post(float(i), "sig")
        assert len(t) == 5
        assert t.dropped == 0
        assert len(spill.events) == 3

    def test_dropped_spans_cascade(self):
        """When the whole chain overflows, the head's ``dropped`` must
        report loss anywhere in the cascade, not just its own."""
        spill = EventTracer(capacity=2)
        t = EventTracer(capacity=2, cascade=spill)
        for i in range(7):
            t.post(float(i), "sig")
        assert spill.dropped == 3
        assert t.dropped == 3  # cascade loss surfaces at the head

    def test_filter_spans_cascade(self):
        spill = EventTracer(capacity=10)
        t = EventTracer(capacity=1, cascade=spill)
        t.post(0.0, "a")
        t.post(1.0, "b")
        t.post(2.0, "a")
        assert [e.time for e in t.filter("a")] == [0.0, 2.0]

    def test_software_event_hook(self):
        t = EventTracer()
        clock = iter([5.0, 7.0])
        hook = t.hook("sw", lambda: next(clock))
        hook("x")
        hook("y")
        assert [(e.time, e.value) for e in t.events] == [(5.0, "x"), (7.0, "y")]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)


class TestHistogrammer:
    def test_binning(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        h.record(0.5)
        h.record(9.5)
        assert h.count(0) == 1 and h.count(9) == 1
        assert h.samples == 2

    def test_out_of_range_clamps(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        h.record(-5.0)
        h.record(50.0)
        assert h.count(0) == 1 and h.count(9) == 1

    def test_mean(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        for v in (1.0, 3.0, 5.0):
            h.record(v)
        assert h.mean() == pytest.approx(3.5, abs=1.0)  # bin centers

    def test_percentile(self):
        h = Histogrammer(0.0, 100.0, bins=100)
        for v in range(100):
            h.record(float(v))
        assert h.percentile(0.5) == pytest.approx(50.0, abs=2.0)

    def test_counter_saturation(self):
        h = Histogrammer(0.0, 1.0, bins=1)
        h._counts[0] = Histogrammer.COUNTER_MAX
        h.record(0.5)
        assert h.count(0) == Histogrammer.COUNTER_MAX

    def test_empty_statistics_raise(self):
        h = Histogrammer(0.0, 1.0)
        with pytest.raises(ValueError):
            h.mean()
        with pytest.raises(ValueError):
            h.percentile(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogrammer(1.0, 1.0)
        with pytest.raises(ValueError):
            Histogrammer(0.0, 1.0, bins=0)


class TestPrefetchProbe:
    def test_latency_and_interarrival(self):
        p = PrefetchProbe()
        p.begin_block()
        p.record_issue(0, 100.0)
        p.record_issue(1, 101.0)
        p.record_issue(2, 102.0)
        p.record_arrival(0, 108.0)
        p.record_arrival(1, 109.5)
        p.record_arrival(2, 111.0)
        s = p.summary()
        assert s.first_word_latency == pytest.approx(8.0)
        assert s.interarrival == pytest.approx(1.5)
        assert s.blocks == 1

    def test_out_of_order_arrivals(self):
        """Full/empty bits tolerate out-of-order returns; the first
        arrival defines the latency regardless of word index."""
        p = PrefetchProbe()
        p.begin_block()
        p.record_issue(0, 0.0)
        p.record_issue(1, 1.0)
        p.record_arrival(1, 7.0)   # word 1 returns first
        p.record_arrival(0, 9.0)
        assert p.latencies() == [7.0]
        assert p.interarrivals() == [2.0]

    def test_multiple_blocks_averaged(self):
        p = PrefetchProbe()
        for base in (0.0, 100.0):
            p.begin_block()
            p.record_issue(0, base)
            p.record_arrival(0, base + 8.0)
        s = p.summary()
        assert s.blocks == 2 and s.samples_latency == 2
        assert s.first_word_latency == pytest.approx(8.0)

    def test_misuse_raises(self):
        p = PrefetchProbe()
        with pytest.raises(RuntimeError):
            p.record_issue(0, 0.0)
        p.begin_block()
        with pytest.raises(RuntimeError):
            p.record_arrival(0, 1.0)  # never issued

    def test_no_completed_blocks_gives_empty_summary(self):
        """A probe that saw nothing reports zeros, not an exception —
        short smoke runs may finish before any block completes."""
        p = PrefetchProbe()
        s = p.summary()
        assert s.blocks == 0
        assert s.samples_latency == 0 and s.samples_interarrival == 0
        assert s.first_word_latency == 0.0 and s.interarrival == 0.0


class TestSignalBus:
    def _bus(self):
        from repro.monitor.signals import SignalBus

        return SignalBus()

    def test_emit_reaches_keyed_subscriber(self):
        bus = self._bus()
        seen = []
        bus.subscribe("pfu.request", lambda p, i, t: seen.append((p, i, t)), key=3)
        bus.signal("pfu.request", key=3).emit(3, 7, 100.0)
        assert seen == [(3, 7, 100.0)]

    def test_other_keys_are_isolated(self):
        bus = self._bus()
        seen = []
        bus.subscribe("pfu.request", lambda *a: seen.append(a), key=3)
        sig_other = bus.signal("pfu.request", key=4)
        assert not sig_other  # port 4 has no subscribers
        sig_other.emit(4, 0, 0.0)
        assert seen == []

    def test_zero_subscriber_signal_is_falsy(self):
        bus = self._bus()
        sig = bus.signal("gmem.service", key=0)
        assert not sig
        bus.subscribe("gmem.service", lambda *a: None, key=0)
        assert sig  # same channel object turns truthy

    def test_publisher_guard_never_builds_payload(self):
        bus = self._bus()
        sig = bus.signal("pfu.request")

        def expensive():
            raise AssertionError("payload built with no subscribers")

        # the publisher pattern: payload construction behind the guard
        if sig:
            sig.emit(expensive(), None, 0.0)
        # no exception: the guard short-circuited

    def test_broadcast_subscription_sees_existing_and_future_keys(self):
        bus = self._bus()
        seen = []
        bus.signal("gmem.service", key=0)  # pre-existing channel
        bus.subscribe("gmem.service", lambda m, p, t: seen.append(m))
        bus.signal("gmem.service", key=0).emit(0, None, 1.0)
        bus.signal("gmem.service", key=9).emit(9, None, 2.0)  # created later
        assert seen == [0, 9]

    def test_unsubscribe_detaches_everywhere(self):
        bus = self._bus()
        seen = []
        sub = bus.subscribe("gmem.service", lambda m, p, t: seen.append(m))
        bus.signal("gmem.service", key=1).emit(1, None, 0.0)
        bus.unsubscribe(sub)
        bus.signal("gmem.service", key=1).emit(1, None, 1.0)
        bus.signal("gmem.service", key=2).emit(2, None, 2.0)
        assert seen == [1]
        assert bus.quiescent()

    def test_subscribe_during_emit_affects_next_emit_only(self):
        bus = self._bus()
        sig = bus.signal("ce.done", key=0)
        seen = []

        def first(port, time):
            seen.append("first")
            bus.subscribe("ce.done", lambda p, t: seen.append("late"), key=0)

        bus.subscribe("ce.done", first, key=0)
        sig.emit(0, 1.0)
        assert seen == ["first"]  # snapshot: late joiner not called in-flight
        seen.clear()
        sig.emit(0, 2.0)
        assert seen.count("late") == 1

    def test_unsubscribe_during_emit_is_safe(self):
        bus = self._bus()
        sig = bus.signal("ce.done", key=0)
        seen = []
        subs = []

        def self_removing(port, time):
            seen.append("once")
            bus.unsubscribe(subs[0])

        subs.append(bus.subscribe("ce.done", self_removing, key=0))
        bus.subscribe("ce.done", lambda p, t: seen.append("stable"), key=0)
        sig.emit(0, 1.0)
        sig.emit(0, 2.0)
        assert seen == ["once", "stable", "stable"]

    def test_undeclared_signal_rejected_when_strict(self):
        bus = self._bus()
        with pytest.raises(KeyError):
            bus.signal("made.up")
        bus.declare("made.up", ("x",))
        assert bus.signal("made.up").fields == ("x",)

    def test_redeclaration_with_other_fields_rejected(self):
        bus = self._bus()
        with pytest.raises(ValueError):
            bus.declare("pfu.request", ("different",))

    def test_channel_identity_is_stable(self):
        bus = self._bus()
        assert bus.signal("net.span", key="fwd") is bus.signal("net.span", key="fwd")

    def test_subscriber_count_counts_distinct_subscriptions(self):
        """A broadcast subscription mirrors into every keyed channel; it
        is still ONE subscription and must be counted once."""
        bus = self._bus()
        bus.signal("gmem.service", key=0)
        bus.signal("gmem.service", key=1)
        bus.signal("gmem.service", key=2)
        bus.subscribe("gmem.service", lambda *a: None)  # broadcast
        assert bus.subscriber_count("gmem.service") == 1
        bus.subscribe("gmem.service", lambda *a: None, key=1)
        assert bus.subscriber_count("gmem.service") == 2

    def test_subscriber_count_broadcast_covers_late_channels(self):
        bus = self._bus()
        bus.subscribe("gmem.service", lambda *a: None)
        bus.signal("gmem.service", key=7)  # created after the broadcast
        bus.signal("gmem.service", key=8)
        assert bus.subscriber_count("gmem.service") == 1
