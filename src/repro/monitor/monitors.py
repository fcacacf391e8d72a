"""Utilization monitors: the instruments behind every report's metrics.

The paper attaches histogrammers and tracers to arbitrary hardware
signals; these classes are their software counterparts, in two kinds.

**Pull monitors** (:class:`NetworkMonitor`, :class:`MemoryMonitor`,
:class:`ClusterMonitor`) cover the hot, per-packet accounting.  Like the
paper's histogrammers — counters incremented in place, read after the
run — they arm accumulators *inside* the components
(:class:`~repro.monitor.metrics.Occupancy` on each queueing resource,
:class:`~repro.monitor.metrics.ServiceAccount` on each memory module)
and register as pull sources of the
:class:`~repro.monitor.metrics.MetricsRegistry`, which reads the
accumulators only when a snapshot or timeline sample asks.  They derive

* **busy-fraction timelines** (network stages, memory modules, cluster
  banks) from departure/service credit;
* **queue-occupancy levels and distributions** (time-weighted and
  count-weighted words queued per resource);
* **per-module service-time histograms** and per-link traffic counters.

Pull monitors attach to a :class:`~repro.core.context.SimContext`
(``monitor.attach(ctx)``): they arm every component already registered
and every one added later, so a context observer can attach them before
the machine is assembled.  ``detach()`` disarms what the monitor armed
and freezes its readings; ``reset()`` on a component clears its
accumulators, so a reset machine reports like a fresh one.

**Push monitors** (:class:`SyncMonitor`, :class:`PrefetchMonitor`,
:class:`FaultMonitor`) stay bus subscribers (``monitor.attach(bus)``):
their signals are cold — a few per reference at most — and they write
get-or-create registry instruments directly.

Neither kind touches machine timing, so attaching any set of them leaves
cycle counts bit-identical (the zero-cost contract, verified by
``tests/test_zero_cost.py``).

Metric naming scheme: ``<component path>.<metric>`` where the component
path matches the machine's resource names — ``net.fwd.s0[3]``,
``gmem.module[12]``, ``sync.module[12]``, ``pfu.port[0]``,
``cluster.cl2.cache``.  Stage/subsystem aggregates drop the trailing
index: ``net.fwd.s0``, ``gmem.busy``.  Queue instruments use the raw
resource name: ``fwd.s0[3].queue_words``, ``gm[4].queue_dist``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.monitor.metrics import MetricsRegistry, Occupancy, ServiceAccount, Timeline

#: default busy-timeline bin width in cycles.
DEFAULT_BIN_CYCLES = 256.0


class PullMonitor:
    """Arms in-place accounting on one family of components and reads
    it back as a registry pull source.

    Subclasses implement :meth:`_arm` (called once per component);
    the shared queue bookkeeping lives here.  A resource reachable from
    two components (a shared-fabric stage link) is armed once, by the
    first — the ownership rule :meth:`OmegaNetwork.attach` applies to
    signal channels.  A resource already armed by another monitor is
    read through its existing accumulator.
    """

    def __init__(
        self, metrics: MetricsRegistry, bin_cycles: float = DEFAULT_BIN_CYCLES
    ) -> None:
        self.metrics = metrics
        self.bin_cycles = bin_cycles
        self._ctx = None
        #: ``(resource, occupancy, counter prefix or None)`` in arm order.
        self._queues: List[tuple] = []
        self._seen: set = set()
        #: ``(object, slot)`` pairs this monitor armed; cleared on detach.
        self._owned: List[tuple] = []
        self._busy: Dict[str, Timeline] = {}

    def attach(self, ctx) -> "PullMonitor":
        self.metrics.add_source(self)
        self._ctx = ctx
        ctx.watch(self._arm)
        return self

    def detach(self) -> None:
        if self._ctx is not None:
            self._ctx.unwatch(self._arm)
            self._ctx = None
        for obj, slot in self._owned:
            setattr(obj, slot, None)
        self._owned = []

    def _arm(self, name: str, component) -> None:
        raise NotImplementedError

    def _timeline(self, name: str) -> Timeline:
        timeline = self._busy.get(name)
        if timeline is None:
            timeline = self._busy[name] = Timeline(name, self.bin_cycles)
        return timeline

    def _arm_queue(
        self, resource, prefix: Optional[str] = None, busy: Optional[Timeline] = None
    ) -> None:
        """Arm ``resource``'s occupancy accumulator.  ``prefix`` names
        its traffic counters (``None``: none reported); ``busy`` is the
        timeline its departures credit."""
        if id(resource) in self._seen:
            return
        self._seen.add(id(resource))
        acc = resource.occupancy
        if acc is None:
            acc = resource.occupancy = Occupancy(busy)
            self._owned.append((resource, "occupancy"))
        self._queues.append((resource, acc, prefix))

    # -- pull source protocol (see MetricsRegistry) --------------------------

    def counters(self):
        for resource, acc, prefix in self._queues:
            if prefix is not None and acc.packets:
                base = prefix + resource.name
                yield base + ".packets", acc.packets
                yield base + ".words", acc.words

    def levels(self):
        for resource, acc, _prefix in self._queues:
            if acc.counts:
                yield resource.name + ".queue_words", acc

    def histograms(self):
        for resource, acc, _prefix in self._queues:
            if acc.counts:
                capacity = resource.capacity_words
                yield resource.name + ".queue_dist", acc.histogram(
                    0.0, float(max(capacity, 1)) + 1.0, min(64, capacity + 2)
                )

    def timelines(self):
        for _resource, acc, _prefix in self._queues:
            if acc.busy is not None and acc.packets:
                yield acc.busy.name, acc.busy


class NetworkMonitor(PullMonitor):
    """Per-link traffic counters, stage busy timelines, queue occupancy
    of every injection port and stage link."""

    @staticmethod
    def _stage_path(resource_name: str) -> str:
        """``"fwd.s0[3]"`` -> ``"net.fwd.s0"`` (aggregation track)."""
        return "net." + resource_name.split("[", 1)[0]

    def _arm(self, name: str, component) -> None:
        if not (hasattr(component, "stages") and hasattr(component, "injection_ports")):
            return
        links = list(component.injection_ports)
        for stage in component.stages:
            links.extend(stage)
        for link in links:
            self._arm_queue(link, "net.", self._timeline(self._stage_path(link.name)))


class MemoryMonitor(PullMonitor):
    """Per-module service counters, service-time histograms, the
    ``gmem.busy`` timeline, and module queue occupancy."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        bin_cycles: float = DEFAULT_BIN_CYCLES,
        histogram_hi: float = 64.0,
    ) -> None:
        super().__init__(metrics, bin_cycles)
        self.histogram_hi = histogram_hi
        #: ``(module, service account)`` in arm order.
        self._services: List[tuple] = []

    def _arm(self, name: str, component) -> None:
        if not hasattr(component, "modules"):
            return
        for module in component.modules:
            if id(module) in self._seen:
                continue
            self._arm_queue(module)
            account = module.service_account
            if account is None:
                account = module.service_account = ServiceAccount(
                    self._timeline("gmem.busy")
                )
                self._owned.append((module, "service_account"))
            self._services.append((module, account))

    def counters(self):
        for module, account in self._services:
            if account.services:
                base = f"gmem.module[{module.index}]"
                yield base + ".services", account.services
                yield base + ".words", account.words

    def histograms(self):
        yield from super().histograms()
        for module, account in self._services:
            if account.services:
                yield f"gmem.module[{module.index}].service_cycles", account.histogram(
                    0.0, self.histogram_hi, 64
                )

    def timelines(self):
        for _module, account in self._services:
            if account.services and account.busy is not None:
                yield account.busy.name, account.busy


class ClusterMonitor(PullMonitor):
    """Cluster cache / cluster-memory traffic, busy timelines, and
    bank queue occupancy."""

    def _arm(self, name: str, component) -> None:
        if not hasattr(component, "cluster_memory"):
            return
        for resource in (component.cache, component.cluster_memory):
            self._arm_queue(
                resource,
                "cluster.",
                self._timeline(f"cluster.{resource.name}.busy"),
            )


class MonitorBase:
    """Subscription bookkeeping shared by every push monitor."""

    #: signal names the monitor wants (subclasses override).
    SIGNALS: tuple = ()

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._subscriptions: List[tuple] = []

    def attach(self, bus) -> "MonitorBase":
        """Broadcast-subscribe to every declared signal of interest."""
        for name in self.SIGNALS:
            if bus.declared(name):
                handler = getattr(self, "_on_" + name.replace(".", "_"))
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []


class SyncMonitor(MonitorBase):
    """Synchronization-processor operation counters."""

    SIGNALS = ("sync.op",)

    def _on_sync_op(
        self, module: int, address: int, time: float, packet, success: bool
    ) -> None:
        self.metrics.counter(f"sync.module[{module}].ops").inc()
        self.metrics.counter("sync.total_ops").inc()
        self.metrics.counter(
            "sync.successes" if success else "sync.failures"
        ).inc()


class PrefetchMonitor(MonitorBase):
    """Machine-wide PFU activity: per-port counters and words in flight."""

    SIGNALS = ("pfu.arm", "pfu.request", "pfu.deliver", "pfu.suspend")

    def __init__(self, metrics: MetricsRegistry) -> None:
        super().__init__(metrics)
        self._in_flight: dict = {}
        #: port -> its request / delivery counter and outstanding level,
        #: each registered on first use (so registration order, and the
        #: report's key order, is the uncached one).
        self._requests: dict = {}
        self._deliveries: dict = {}
        self._outstanding: dict = {}

    def _on_pfu_arm(self, port: int, time: float) -> None:
        self.metrics.counter(f"pfu.port[{port}].streams").inc()

    def _on_pfu_request(self, port: int, word_index: int, time: float) -> None:
        counter = self._requests.get(port)
        if counter is None:
            counter = self._requests[port] = self.metrics.counter(
                f"pfu.port[{port}].requests"
            )
        counter.inc()
        self._bump(port, +1, time)

    def _on_pfu_deliver(self, port: int, word_index: int, time: float) -> None:
        counter = self._deliveries.get(port)
        if counter is None:
            counter = self._deliveries[port] = self.metrics.counter(
                f"pfu.port[{port}].deliveries"
            )
        counter.inc()
        self._bump(port, -1, time)

    def _on_pfu_suspend(self, port: int, time: float) -> None:
        self.metrics.counter(f"pfu.port[{port}].page_suspensions").inc()

    def _bump(self, port: int, delta: int, time: float) -> None:
        count = self._in_flight.get(port, 0) + delta
        self._in_flight[port] = count
        level = self._outstanding.get(port)
        if level is None:
            level = self._outstanding[port] = self.metrics.time_weighted(
                f"pfu.port[{port}].outstanding"
            )
        level.update(count, time)


class FaultMonitor(MonitorBase):
    """Fault-injection event counters and stall-cost accounting."""

    SIGNALS = (
        "fault.transient",
        "fault.port_down",
        "fault.ecc",
        "fault.sync_timeout",
        "fault.reroute",
    )

    def _on_fault_transient(
        self, resource, packet, time: float, backoff_cycles: float
    ) -> None:
        m = self.metrics
        m.counter("fault.transients").inc()
        m.counter(f"fault.{resource.name}.transients").inc()
        m.counter("fault.backoff_cycles").inc(backoff_cycles)

    def _on_fault_port_down(self, resource, time: float, until: float) -> None:
        m = self.metrics
        m.counter("fault.port_downs").inc()
        m.counter(f"fault.{resource.name}.port_downs").inc()
        m.counter("fault.down_cycles").inc(until - time)

    def _on_fault_ecc(self, module: int, packet, time: float, stall_cycles: float) -> None:
        m = self.metrics
        m.counter("fault.ecc_retries").inc()
        m.counter(f"fault.gm[{module}].ecc_retries").inc()
        m.counter("fault.ecc_stall_cycles").inc(stall_cycles)

    def _on_fault_sync_timeout(
        self, module: int, address: int, time: float, penalty_cycles: float
    ) -> None:
        m = self.metrics
        m.counter("fault.sync_timeouts").inc()
        m.counter(f"fault.gm[{module}].sync_timeouts").inc()
        m.counter("fault.sync_timeout_cycles").inc(penalty_cycles)

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        self.metrics.counter("fault.reroutes").inc()
        self.metrics.counter(f"fault.{network}.reroutes").inc()


#: the monitor sets `attach_standard_monitors` instantiates, in order:
#: pull monitors attach to the context, push monitors to its bus.
PULL_MONITORS = (NetworkMonitor, MemoryMonitor, ClusterMonitor)
PUSH_MONITORS = (SyncMonitor, PrefetchMonitor, FaultMonitor)


def attach_standard_monitors(ctx, metrics: Optional[MetricsRegistry] = None) -> list:
    """Attach one of each standard monitor to the
    :class:`~repro.core.context.SimContext` ``ctx``; returns them (all
    sharing ``metrics``, created if not supplied).  Detach with
    :func:`detach_monitors`."""
    registry = metrics if metrics is not None else MetricsRegistry()
    monitors: list = [cls(registry).attach(ctx) for cls in PULL_MONITORS]
    monitors += [cls(registry).attach(ctx.bus) for cls in PUSH_MONITORS]
    return monitors


def detach_monitors(monitors: list) -> None:
    for monitor in monitors:
        monitor.detach()
