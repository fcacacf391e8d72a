"""The Cedar multistage shuffle-exchange network.

One :class:`OmegaNetwork` instance models one unidirectional network
(Cedar has two: forward for requests, reverse for replies).  Each stage
exposes one :class:`~repro.network.resource.Resource` per output port —
an 8x8 crossbar's output port with its two-word queue.  Injection ports
(one per source) model the CE/memory network interfaces.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import Engine
from repro.monitor.signals import NULL_SIGNAL
from repro.network.packet import Packet
from repro.network.resource import Hop, Resource, Transit
from repro.network.routing import delta_path, stage_radices


class OmegaNetwork:
    """A buffered, packet-switched, self-routing delta network.

    Parameters mirror :class:`~repro.core.config.NetworkConfig`.  The
    network owns its injection ports and stage output ports; terminal
    delivery is by sink callables registered per destination port.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        n_ports: int,
        switch_radix: int = 8,
        queue_words: int = 2,
        stage_cycles: float = 0.0,
        link_words_per_cycle: float = 1.0,
        injection_queue_words: int = 4,
    ) -> None:
        self.engine = engine
        self.name = name
        self.n_ports = n_ports
        self.radices = stage_radices(n_ports, switch_radix)
        self.stage_cycles = stage_cycles
        self._sinks: Dict[int, Callable[[Packet], None]] = {}
        #: optional degraded-mode router (a ``FaultInjector``), consulted
        #: on injection when set; ``None`` is the zero-cost default.
        self.fault_router = None
        #: (src, dst) -> tuple of network-internal hops; the delta path
        #: is a pure function of the port pair, so compute it once.
        self._route_cache: Dict[tuple, tuple] = {}
        #: (src, dst) -> the *complete* route tuple ending in the
        #: registered sink, so the hot sink-terminated case allocates
        #: nothing per packet.  Invalidated by :meth:`register_sink`.
        self._full_route_cache: Dict[tuple, Tuple[Hop, ...]] = {}
        self.injection_ports: List[Resource] = [
            Resource(
                engine,
                f"{name}.inject[{p}]",
                capacity_words=injection_queue_words,
                words_per_cycle=link_words_per_cycle,
            )
            for p in range(n_ports)
        ]
        self.stages: List[List[Resource]] = [
            [
                Resource(
                    engine,
                    f"{name}.s{stage}[{port}]",
                    capacity_words=queue_words,
                    words_per_cycle=link_words_per_cycle,
                    fixed_cycles=stage_cycles,
                )
                for port in range(n_ports)
            ]
            for stage in range(len(self.radices))
        ]

    @property
    def n_stages(self) -> int:
        return len(self.radices)

    # -- component lifecycle ---------------------------------------------------

    def attach(self, ctx) -> None:
        """Wire every link's ``net.span`` record to the bus channel keyed
        by network name.  Links already owned by another network
        (shared-fabric views) keep their original channel."""
        span = ctx.bus.signal("net.span", key=self.name)
        for port in self.injection_ports:
            if port.span_signal is NULL_SIGNAL:
                port.span_signal = span
        for stage in self.stages:
            for link in stage:
                if link.span_signal is NULL_SIGNAL:
                    link.span_signal = span

    def reset(self) -> None:
        for port in self.injection_ports:
            port.reset()
        for stage in self.stages:
            for link in stage:
                link.reset()

    def stats(self) -> dict:
        return {
            "packets_delivered": sum(r.stats.packets for r in self.stages[-1]),
            "words_delivered": self.total_words_delivered(),
            "rejected_offers": sum(
                r.stats.rejected_offers
                for stage in self.stages
                for r in stage
            ),
            "injection_rejections": sum(
                p.stats.rejected_offers for p in self.injection_ports
            ),
        }

    def describe(self) -> dict:
        return {
            "name": self.name,
            "ports": self.n_ports,
            "stages": self.n_stages,
            "stage_radices": list(self.radices),
            "queue_words": self.stages[0][0].capacity_words,
            "injection_queue_words": self.injection_ports[0].capacity_words,
        }

    def view_with_own_injection(self, name: str) -> "OmegaNetwork":
        """A second network *view* sharing this network's stage links
        but with its own injection ports and sinks.

        This models reserved escape buffering for one traffic class
        (e.g. replies) on a shared fabric: both classes contend inside
        the stages, but neither can starve the other's entry — the
        minimal virtual-channel-style fix for request/reply protocol
        deadlock on a single network.
        """
        view = OmegaNetwork(
            self.engine,
            name=name,
            n_ports=self.n_ports,
            switch_radix=self.radices[0],
            queue_words=self.stages[0][0].capacity_words,
            stage_cycles=self.stage_cycles,
            link_words_per_cycle=self.stages[0][0].words_per_cycle,
            injection_queue_words=self.injection_ports[0].capacity_words,
        )
        view.radices = self.radices
        view.stages = self.stages  # shared fabric
        # stale: routes were built for its own stages
        view._route_cache.clear()
        view._full_route_cache.clear()
        return view

    def register_sink(self, port: int, sink: Callable[[Packet], None]) -> None:
        """Register the delivery callback for destination ``port``."""
        self._check_port(port)
        self._sinks[port] = sink
        self._full_route_cache.clear()  # sink-terminated routes are stale

    def route_for(
        self, packet: Packet, tail: Optional[Sequence[Hop]] = None
    ) -> Sequence[Hop]:
        """The hop route for ``packet``: injection port, one output port
        per stage, then either ``tail`` hops (e.g. a memory module) or
        the registered delivery sink.

        Routes are immutable tuples, memoized per (src, dst) pair — the
        delta path is a pure function of the port pair — and, for the
        sink-terminated case, memoized *complete*, so steady-state
        routing allocates nothing.  Callers must not mutate the result;
        to extend a route, concatenate onto a new tuple (see
        ``MemoryModule.on_service_complete``).
        """
        key = (packet.src, packet.dst)
        if tail is None:
            route = self._full_route_cache.get(key)
            if route is not None:
                return route
        body = self._route_cache.get(key)
        if body is None:
            self._check_port(packet.src)
            self._check_port(packet.dst)
            hops: List[Hop] = [self.injection_ports[packet.src]]
            for stage, port in enumerate(
                delta_path(packet.src, packet.dst, self.radices)
            ):
                hops.append(self.stages[stage][port])
            body = tuple(hops)
            self._route_cache[key] = body
        if tail is not None:
            return (*body, *tail)
        sink = self._sinks.get(packet.dst)
        if sink is None:
            raise KeyError(f"{self.name}: no sink registered for port {packet.dst}")
        route = (*body, sink)
        self._full_route_cache[key] = route
        return route

    def can_inject(self, src: int) -> bool:
        """Whether source ``src``'s injection queue has space now."""
        self._check_port(src)
        return self.injection_ports[src].has_space()

    def inject(self, packet: Packet, tail: Optional[List[Hop]] = None) -> Transit:
        """Inject ``packet``; the caller must have checked
        :meth:`can_inject` (injection raises when the port is full).

        When a fault router is armed and the primary route crosses a
        down port, the packet escapes into the reply fabric instead
        (degraded-mode routing); replies never re-enter ``inject`` so
        only fresh requests are rerouted."""
        router = self.fault_router
        if router is not None and tail is not None:
            transit = router.try_reroute(self, packet, tail)
            if transit is not None:
                return transit
        packet.injected_at = self.engine.now
        route = self.route_for(packet, tail)
        transit = Transit(packet=packet, route=route, idx=0)
        if not route[0].offer(transit):  # type: ignore[union-attr]
            from repro.core.engine import SimulationError

            raise SimulationError(
                f"{self.name}: injection port {packet.src} full; pace injections"
            )
        return transit

    def injection_port(self, src: int) -> Resource:
        self._check_port(src)
        return self.injection_ports[src]

    def total_words_delivered(self) -> int:
        """Words that have left the final stage."""
        return sum(r.stats.words for r in self.stages[-1])

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"{self.name}: port {port} out of range 0..{self.n_ports - 1}")
