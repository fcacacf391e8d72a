"""The assembled Cedar machine.

Builds Figure 1: clusters of CEs on one side, two unidirectional
multistage networks in the middle, interleaved global memory with
synchronization processors on the other side, plus per-CE prefetch
units.  Kernel studies drive it with CE generator programs.

Assembly is declarative: a :class:`~repro.core.context.SimContext` owns
the engine / signal bus / config, the network topology comes from the
:data:`~repro.core.context.NETWORK_VARIANTS` registry keyed off the
configuration (dual fabrics, one shared fabric, shared with reply
escape), and every part of the machine is registered as a named
component with the attach/reset/stats/describe lifecycle.
``CedarMachine`` itself is a thin facade over the context that keeps
the accessors the experiments use (``machine.gmem``, ``machine.pfu(0)``,
``machine.probe`` ...).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core.config import CedarConfig, DEFAULT_CONFIG
from repro.core.context import ComponentAdapter, SimContext, build_networks
from repro.core.engine import SimulationError, Watchdog
from repro.faults.injector import FaultInjector
from repro.cluster.ce import CE
from repro.cluster.cluster import Cluster
from repro.gmemory.module import GlobalMemory
from repro.monitor.probes import PrefetchProbe
from repro.network.packet import Packet
from repro.prefetch.pfu import PrefetchUnit
from repro.xylem.filesystem import FSStats, XylemFileSystem


class CedarMachine:
    """Four Alliant FX/8 clusters, two omega networks, global memory.

    ``monitor_port`` clips a :class:`PrefetchProbe` onto one CE's PFU
    signal channels, reproducing the paper's methodology ("we monitored
    all requests of a single processor").
    """

    def __init__(
        self,
        config: CedarConfig = DEFAULT_CONFIG,
        monitor_port: Optional[int] = None,
    ) -> None:
        self.ctx = SimContext(config)
        self.config = config
        self.engine = self.ctx.engine
        self.bus = self.ctx.bus
        self._assemble()
        self.probe: Optional[PrefetchProbe] = None
        self.monitor_port = monitor_port
        if monitor_port is not None:
            self.probe = PrefetchProbe().attach(self.bus, monitor_port)

    # -- assembly plan ----------------------------------------------------------

    def _assemble(self) -> None:
        ctx = self.ctx
        config = self.config
        n_ports = max(config.total_ces, config.global_memory.modules)

        forward, reverse = build_networks(ctx, n_ports)
        self.forward_network = ctx.add("net.fwd", forward)
        if reverse is not forward:
            ctx.add("net.rev", reverse)
        self.reverse_network = reverse

        self.gmem = ctx.add(
            "gmem", GlobalMemory(self.engine, config.global_memory, reverse)
        )

        self.filesystem = XylemFileSystem()
        ctx.add(
            "xylem.fs",
            ComponentAdapter(
                self.filesystem,
                reset=self._reset_filesystem,
                stats=lambda: vars(self.filesystem.stats).copy(),
                describe=lambda: {"costs": vars(self.filesystem.costs).copy()},
            ),
        )

        self.clusters: List[Cluster] = []
        for cid in range(config.clusters):
            self.clusters.append(ctx.add(f"cluster[{cid}]", Cluster(self, cid)))

        self.ces: List[CE] = []
        self._pfus: Dict[int, PrefetchUnit] = {}
        for cid in range(config.clusters):
            for local in range(config.ces_per_cluster):
                ce = CE(self, cid, local)
                self.ces.append(ce)
                self.clusters[cid].ces.append(ce)
                # CE.stats is the CEStats record (public API) — adapt the
                # lifecycle around it instead of renaming it.
                ctx.add(
                    f"ce[{ce.port}]",
                    ComponentAdapter(
                        ce, reset=ce.reset, stats=ce.counters, describe=ce.describe
                    ),
                )
                self._pfus[ce.port] = ctx.add(
                    f"pfu[{ce.port}]",
                    PrefetchUnit(
                        self.engine,
                        ce.port,
                        self.forward_network,
                        self.gmem,
                        config.prefetch,
                        vm_config=config.vm,
                    ),
                )
                self.reverse_network.register_sink(ce.port, self._make_sink(ce.port))
        # memory modules may outnumber CEs; replies only target CE ports,
        # but register a trap on the rest to fail loudly if misrouted.
        for port in range(config.total_ces, n_ports):
            self.reverse_network.register_sink(port, self._unexpected_sink(port))

        # fault injection arms last (it instruments the components
        # registered above).  An inert plan builds nothing at all — the
        # no-fault machine is bit-identical to one assembled before the
        # faults subsystem existed.
        self.faults: Optional[FaultInjector] = None
        if config.faults.enabled:
            self.faults = ctx.add("faults", FaultInjector(config.faults))

    def _reset_filesystem(self) -> None:
        self.filesystem._files.clear()
        self.filesystem.stats = FSStats()

    # -- wiring -----------------------------------------------------------------

    def _make_sink(self, port: int):
        deliver = self.bus.signal("req.deliver", key=port)
        engine = self.engine

        def _sink(packet: Packet) -> None:
            cbs = deliver.callbacks
            if cbs:
                now = engine.now
                for cb in cbs:
                    cb(packet, now)
            handler = packet.meta.get("handler")
            if handler is not None:
                handler(packet)
                # the reply is terminal here; handlers extract what they
                # need (sync results, block word counts) before returning
                packet.release()
                return
            if "pfu_stream" in packet.meta:
                self._pfus[port].deliver(packet)
                packet.release()
                return
            raise RuntimeError(f"reply at port {port} with no handler: {packet}")

        return _sink

    @staticmethod
    def _unexpected_sink(port: int):
        def _sink(packet: Packet) -> None:
            raise RuntimeError(f"reply delivered to unattached port {port}: {packet}")

        return _sink

    # -- accessors ----------------------------------------------------------------

    def ce(self, port: int) -> CE:
        return self.ces[port]

    def pfu(self, port: int) -> PrefetchUnit:
        return self._pfus[port]

    def cluster_of(self, port: int) -> Cluster:
        return self.clusters[port // self.config.ces_per_cluster]

    def reset(self) -> None:
        """Fresh-machine state without re-assembly (engine at time zero,
        all component counters cleared); monitors stay subscribed."""
        self.ctx.reset()

    # -- running ---------------------------------------------------------------------

    def run_programs(
        self,
        programs: Dict[int, Generator],
        watchdog: Optional[Watchdog] = None,
    ) -> float:
        """Run one generator program per CE port; returns completion time
        (cycles) of the last CE to finish.

        ``watchdog`` supervises the run (budgets + livelock detection,
        see :class:`~repro.core.engine.Watchdog`); one without its own
        ``progress`` callable gets a machine-level fingerprint — programs
        still running plus words delivered by each fabric — so a run
        that burns events while moving nothing aborts with a
        :class:`~repro.core.engine.WatchdogError` diagnostic dump.
        """
        engine = self.engine
        remaining = len(programs)

        def _finished(_ce: CE) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                engine.request_stop()

        for port, program in programs.items():
            self.ce(port).run(program, on_done=_finished)
        participants = [self.ce(port) for port in programs]
        if watchdog is not None:
            if watchdog.progress is None:
                fwd, rev = self.forward_network, self.reverse_network
                watchdog.progress = lambda: (
                    remaining,
                    fwd.total_words_delivered(),
                    rev.total_words_delivered(),
                )
            engine.attach_watchdog(watchdog)
        try:
            engine.run()
            if remaining:
                stuck = [ce.port for ce in participants if not ce.done]
                raise SimulationError(f"CEs never finished: {stuck}")
            finish = max(ce.stats.finished_at or 0.0 for ce in participants)
            # drain in-flight traffic (e.g. writes the CEs never waited
            # for) so memory/network counters are complete; `finish` is
            # unaffected.
            engine.run()
        finally:
            if watchdog is not None:
                engine.detach_watchdog()
        return finish

    # -- topology description (Figures 1 and 2) -----------------------------------------

    def describe_topology(self) -> Dict[str, object]:
        """Structural summary used by the Figure 1/2 reproduction bench."""
        return {
            "clusters": self.config.clusters,
            "ces_per_cluster": self.config.ces_per_cluster,
            "total_ces": self.config.total_ces,
            "networks": 2,
            "network_stages": self.forward_network.n_stages,
            "stage_radices": list(self.forward_network.radices),
            "memory_modules": self.config.global_memory.modules,
            "global_memory_mb": self.config.global_memory.size_bytes // (1 << 20),
            "cluster_memory_mb": self.config.cluster_memory.size_bytes // (1 << 20),
            "cache_kb": self.config.cache.size_bytes // 1024,
            "peak_mflops": round(self.config.peak_mflops, 1),
            "effective_peak_mflops": round(self.config.effective_peak_mflops, 1),
        }
