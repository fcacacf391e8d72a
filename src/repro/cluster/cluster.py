"""One Alliant FX/8 cluster: shared cache, cluster memory, CCB."""

from __future__ import annotations

from typing import Callable, List, TYPE_CHECKING

from repro.network.packet import Packet, PacketKind
from repro.network.resource import Resource, Transit
from repro.cluster.cache_model import ClusterCacheModel
from repro.cluster.concurrency_bus import ConcurrencyBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import CedarMachine
    from repro.cluster.ce import CE


class Cluster:
    """Cluster-local shared resources.

    The 4-way interleaved shared cache delivers "eight 64-bit words per
    instruction cycle, sufficient to supply one input stream to a vector
    instruction in each processor"; cluster memory sustains half that.
    Both are modelled as word-rate FIFO resources shared by the
    cluster's CEs, so per-CE bandwidth degrades naturally as more CEs
    stream from them.
    """

    def __init__(self, machine: "CedarMachine", cluster_id: int) -> None:
        self.machine = machine
        self.cluster_id = cluster_id
        config = machine.config
        self.cache = Resource(
            machine.engine,
            name=f"cl{cluster_id}.cache",
            capacity_words=max(64, config.cache.words_per_cycle * 8),
            words_per_cycle=float(config.cache.words_per_cycle),
            fixed_cycles=float(config.cache.hit_cycles),
        )
        self.cluster_memory = Resource(
            machine.engine,
            name=f"cl{cluster_id}.cmem",
            capacity_words=max(64, config.cluster_memory.words_per_cycle * 8),
            words_per_cycle=float(config.cluster_memory.words_per_cycle),
            fixed_cycles=float(config.cluster_memory.access_cycles),
        )
        self.concurrency_bus = ConcurrencyBus(machine.engine, config.concurrency_bus)
        self.cache_model = ClusterCacheModel(config.cache)
        from repro.cluster.ip import InteractiveProcessor

        self.ip = InteractiveProcessor(
            machine.engine,
            machine.filesystem,
            cluster_id,
            cycle_ns=config.ce.cycle_ns,
        )
        self.ces: List["CE"] = []

    # -- component lifecycle ---------------------------------------------------

    def attach(self, ctx) -> None:
        """Wire the shared cache and cluster memory onto the bus: each
        departure publishes its ``net.span`` record keyed ``"cluster"``,
        so one subscription covers every cluster."""
        span = ctx.bus.signal("net.span", key="cluster")
        for resource in (self.cache, self.cluster_memory):
            resource.span_signal = span

    def reset(self) -> None:
        config = self.machine.config
        self.cache.reset()
        self.cluster_memory.reset()
        self.cache_model = ClusterCacheModel(config.cache)
        self.concurrency_bus = ConcurrencyBus(self.machine.engine, config.concurrency_bus)
        from repro.cluster.ip import InteractiveProcessor

        self.ip = InteractiveProcessor(
            self.machine.engine,
            self.machine.filesystem,
            self.cluster_id,
            cycle_ns=config.ce.cycle_ns,
        )

    def stats(self) -> dict:
        return {
            "cache_packets": self.cache.stats.packets,
            "cache_words": self.cache.stats.words,
            "cache_busy_cycles": self.cache.stats.busy_cycles,
            "cmem_packets": self.cluster_memory.stats.packets,
            "cmem_words": self.cluster_memory.stats.words,
            "cmem_busy_cycles": self.cluster_memory.stats.busy_cycles,
        }

    def describe(self) -> dict:
        config = self.machine.config
        return {
            "cluster": self.cluster_id,
            "ces": len(self.ces),
            "cache_kb": config.cache.size_bytes // 1024,
            "cache_words_per_cycle": config.cache.words_per_cycle,
            "cluster_memory_mb": config.cluster_memory.size_bytes // (1 << 20),
        }

    def cache_request(
        self, port: int, words: int, on_done: Callable[[Packet], None]
    ) -> None:
        """Stream ``words`` through the shared cache, then call back."""
        packet = Packet(
            kind=PacketKind.BLOCK_REQ,
            src=port % self.machine.config.ces_per_cluster,
            dst=0,
            address=0,
            words=words,
            meta={"cluster": self.cluster_id},
        )
        transit = Transit(packet=packet, route=[self.cache, on_done], idx=0)
        if not self.cache.offer(transit):
            # cache queue full: retry next cycle (models arbitration stall)
            self.machine.engine.schedule_after(
                1.0, lambda: self.cache_request(port, words, on_done)
            )

    def cached_vector_access(
        self,
        port: int,
        words: int,
        word_address: int,
        write: bool,
        on_done: Callable[[int], None],
    ) -> None:
        """An addressed vector stream through the functional cache:
        hit words stream from the cache banks; missed lines fill from
        cluster memory (dirty victims write back there too).  Calls
        ``on_done(missed_words)`` when both streams complete.

        Word addresses are 8-byte-granular cluster-space addresses;
        lines are 32 bytes (4 words).
        """
        if words < 1:
            raise ValueError("need at least one word")
        ce = port % self.machine.config.ces_per_cluster
        line_bytes = self.cache_model.line_bytes
        missed_words = 0
        writebacks = 0
        for w in range(words):
            byte_address = (word_address + w) * 8
            result = self.cache_model.access(byte_address, ce=ce, write=write)
            if not result.hit:
                missed_words += 1
                self.cache_model.retire_miss(byte_address, ce=ce)
            if result.writeback_line is not None:
                writebacks += 1

        pending = {"count": 0}

        def _part_done(_: Packet) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                on_done(missed_words)

        hit_words = words - missed_words
        if hit_words > 0:
            pending["count"] += 1
            self.cache_request(port, hit_words, _part_done)
        # misses fill whole lines; writebacks push dirty lines out
        fill_words = missed_words * (line_bytes // 8)
        fill_words += writebacks * (line_bytes // 8)
        if fill_words > 0:
            pending["count"] += 1
            self.cluster_memory_request(port, fill_words, _part_done)
        if pending["count"] == 0:
            self.machine.engine.schedule_after(0.0, lambda: on_done(0))

    def cluster_memory_request(
        self, port: int, words: int, on_done: Callable[[Packet], None]
    ) -> None:
        """Stream ``words`` from cluster memory (cache-miss traffic or
        explicit cluster-array access), then call back."""
        packet = Packet(
            kind=PacketKind.BLOCK_REQ,
            src=port % self.machine.config.ces_per_cluster,
            dst=0,
            address=0,
            words=words,
            meta={"cluster": self.cluster_id},
        )
        transit = Transit(packet=packet, route=[self.cluster_memory, on_done], idx=0)
        if not self.cluster_memory.offer(transit):
            self.machine.engine.schedule_after(
                1.0, lambda: self.cluster_memory_request(port, words, on_done)
            )
