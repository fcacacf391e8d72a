"""The Chrome tracer draws the network from the ``net.span`` record.

Link, injection-port and cluster slices, flow steps and the per-resource
queue counters are rendered from the eight-slot records the request
tracer also reads.  These tests hold the tracer to that contract against
references it does not share: the scalar service chain run under
:class:`~tests.engine_oracle.HeapOracle`, with test-side wrappers of
``Resource`` methods recording what happened.
"""

import itertools
from dataclasses import replace

import repro.core.context
import repro.core.engine
from repro.core.config import CedarConfig
from repro.experiments.kernels_sim import _run
from repro.experiments.runner import observe
from repro.monitor.tracer import ChromeTracer, validate_chrome_trace
from repro.network import packet, resource
from repro.network.resource import Resource
from tests.engine_oracle import HeapOracle


def traced(monkeypatch, run):
    """Run ``run()`` with request ids from zero and a tracer on every
    machine it builds; return the tracer."""
    tracer = ChromeTracer()
    with monkeypatch.context() as m:
        m.setattr(packet, "_packet_ids", itertools.count())
        with observe(lambda ctx: tracer.attach(ctx.bus).detach):
            run()
    return tracer


def on_oracle(monkeypatch, run, wrap):
    """Run ``run()`` on the heap oracle (every service takes the scalar
    chain) with request ids from zero and ``wrap(m)`` patching
    ``Resource`` methods inside the same monkeypatch context."""
    with monkeypatch.context() as m:
        m.setattr(packet, "_packet_ids", itertools.count())
        m.setattr(repro.core.context, "Engine", HeapOracle)
        wrap(m)
        run()


def queue_words(n):
    config = CedarConfig()
    return replace(config, network=replace(config.network, queue_words=n))


def test_traced_run_stays_on_the_grouped_pass(monkeypatch):
    """Tracing adds no scalar ``Resource._finish`` call: every traced
    link is serviced by ``_finish_batch`` as in the bare run."""
    calls = [0]
    finish = Resource._finish

    def counted(self, transit):
        calls[0] += 1
        return finish(self, transit)

    # the grouped pass recognises records by their function, so the
    # counting wrapper is registered as the batch handler's key too
    monkeypatch.setattr(Resource, "_finish", counted)
    monkeypatch.setattr(resource, "_RES_FINISH", counted)
    monkeypatch.setitem(repro.core.engine._BATCH_HANDLERS, counted,
                        resource._finish_batch)

    def rk_slice():
        return _run(CedarConfig(), "RK", 32, True, 1)

    rk_slice()
    bare_calls, calls[0] = calls[0], 0
    tracer = traced(monkeypatch, rk_slice)
    assert tracer.dropped == 0 and tracer.events
    assert bare_calls > 0  # memory modules always take the scalar chain
    assert calls[0] <= bare_calls


def test_blocked_hop_slice_is_its_service_interval(monkeypatch):
    """With one-word link queues heads block all the time; each link
    slice must cover ``[service_end - service, service_end]`` as the
    scalar chain timed it, not end at the (later) departure."""
    config = queue_words(1)

    def run():
        return _run(config, "CG", 8, True, 2)

    ends = {}

    def wrap(m):
        finish = Resource._finish

        def timed(self, transit):
            pkt = transit.packet
            ends[(self.name, pkt.request_id)] = (
                self.engine.now,
                self.fixed_cycles + pkt.words / self.words_per_cycle,
            )
            return finish(self, transit)

        m.setattr(Resource, "_finish", timed)

    on_oracle(monkeypatch, run, wrap)
    trace = traced(monkeypatch, run).trace()
    validate_chrome_trace(trace)
    slices = [e for e in trace["traceEvents"] if e.get("cat") == "net"]
    assert slices
    blocked = 0
    for event in slices:
        end, service = ends[(event["name"], event["args"]["id"])]
        assert (event["ts"], event["dur"]) == (end - service, service)
        blocked += event["args"]["blocked"] > 0.0
    assert blocked > 0  # the case the old departure-anchored slice got wrong


def test_queue_counters_replay_queued_packets(monkeypatch):
    """The last counter sample of each resource at each timestamp is
    the number of packets queued there after that timestamp, as a
    wrapper of ``offer`` and ``_pop_head`` saw it on the scalar chain.
    Links, memory modules and cluster banks all count."""
    config = queue_words(1)

    def run():
        from repro.core.machine import CedarMachine
        from repro.kernels.programs import KERNELS, kernel_program

        machine = CedarMachine(config, monitor_port=0)
        cluster = machine.clusters[0]
        done = lambda *_: None  # noqa: E731
        for t in range(6):
            machine.engine.schedule(
                float(3 * t), cluster.cache_request, t % 4, 8 + t, done
            )
            machine.engine.schedule(
                float(5 * t), cluster.cluster_memory_request, t % 4, 4, done
            )
        machine.run_programs({
            port: kernel_program(KERNELS["CG"], port, 2, prefetch=True)
            for port in range(4)
        })

    depth = {}

    def wrap(m):
        offer, pop = Resource.offer, Resource._pop_head

        def offered(self, transit):
            accepted = offer(self, transit)
            if accepted:
                depth[(self.name, self.engine.now)] = len(self._queue)
            return accepted

        def popped(self, transit):
            pop(self, transit)
            depth[(self.name, self.engine.now)] = len(self._queue)

        m.setattr(Resource, "offer", offered)
        m.setattr(Resource, "_pop_head", popped)

    on_oracle(monkeypatch, run, wrap)
    trace = traced(monkeypatch, run).trace()
    last = {}
    for event in trace["traceEvents"]:
        if event.get("cat") == "queue":
            name = event["name"].removesuffix(" queue")
            last[(name, event["ts"])] = event["args"]["packets"]
    assert last == depth
    names = {name for name, _ts in last}
    assert {"cl0.cache", "cl0.cmem"} <= names
    assert any(name.startswith("gm[") for name in names)
    assert any(e.get("cat") == "cluster" for e in trace["traceEvents"])


def test_written_file_is_the_json_of_the_trace(tmp_path):
    """``write`` encodes a document's one large list (``traceEvents``,
    ``requests``) a slice at a time; the file is still exactly
    ``json.dumps`` of the document: a machine's trace and spans, empty
    ones, a streaming spans document (no request list), and trace and
    spans documents spanning several slices."""
    import json

    from repro.core.machine import CedarMachine
    from repro.monitor.spans import SpanCollector
    from repro.monitor.streamstore import StreamingSpanStore
    from repro.monitor.tracer import _WRITE_CHUNK, _write_json
    from tests.test_observability import run_small_kernel

    machine = CedarMachine(CedarConfig(), monitor_port=0)
    tracer = ChromeTracer().attach(machine.bus)
    spans = SpanCollector().attach(machine.bus)
    stream = StreamingSpanStore().attach(machine.bus)
    run_small_kernel(machine)
    for observer in (tracer, spans, stream):
        observer.detach()
    assert spans.spans()["requests"]
    path = tmp_path / "doc.json"
    for subject, doc in (
        (tracer, tracer.trace()),
        (ChromeTracer(), ChromeTracer().trace()),
        (spans, spans.spans()),
        (SpanCollector(), SpanCollector().spans()),
        (stream, stream.spans()),
    ):
        subject.write(path)
        assert path.read_text() == json.dumps(doc)
    long_trace = {
        "traceEvents": [{"ph": "i", "ts": i / 3} for i in range(2 * _WRITE_CHUNK + 5)],
        "otherData": {"dropped": 0},
    }
    long_spans = {
        "version": 1,
        "complete": 2 * _WRITE_CHUNK + 5,
        "requests": [
            {"id": i, "latency": i / 7, "hops": [{"stage": 0}]}
            for i in range(2 * _WRITE_CHUNK + 5)
        ],
        "dropped": 0,
    }
    for doc, sliced in ((long_trace, "traceEvents"), (long_spans, "requests")):
        _write_json(doc, path, sliced)
        assert path.read_text() == json.dumps(doc)
