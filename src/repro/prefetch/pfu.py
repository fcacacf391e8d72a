"""The Cedar data prefetch unit (PFU).

Each CE owns a PFU "designed to mask the long global memory latency and
to overcome the limit of two outstanding requests per Alliant CE".  A
PFU is *armed* with (length, stride, mask) and *fired* with the physical
address of the first word.  It then issues up to 512 requests without
pausing — except at page boundaries, where it suspends until the CE
supplies the first address of the new page (the PFU only sees physical
addresses).  Data lands in a 512-word prefetch buffer with a full/empty
bit per word, so the CE can consume in request order while words return
out of order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import PrefetchConfig, VMConfig
from repro.core.engine import Engine
from repro.gmemory.module import GlobalMemory
from repro.monitor.signals import NULL_SIGNAL
from repro.network.omega import OmegaNetwork
from repro.network.packet import Packet, PacketKind

#: cycles for the CE to notice the page-boundary suspension and resupply
#: the first physical address of the next page.
PAGE_RESUPPLY_CYCLES = 16.0


class PrefetchStream:
    """One armed-and-fired prefetch: its requests and returned words."""

    def __init__(self, length: int, stride: int, start_address: int) -> None:
        if length < 1:
            raise ValueError("prefetch length must be at least 1")
        self.length = length
        self.stride = stride
        self.start_address = start_address
        #: arrival time per word index; None while the full/empty bit is empty.
        self.arrivals: List[Optional[float]] = [None] * length
        self.issued: List[Optional[float]] = [None] * length
        self.words_arrived = 0
        self.invalidated = False
        self._word_waiters: Dict[int, List[Callable[[float], None]]] = {}
        self._done_waiters: List[Callable[[], None]] = []

    @property
    def complete(self) -> bool:
        return self.words_arrived >= self.length

    def word_available(self, index: int) -> bool:
        """Full/empty bit for ``index``."""
        return self.arrivals[index] is not None

    def when_available(self, index: int, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(arrival_time)`` as soon as the word is full."""
        at = self.arrivals[index]
        if at is not None:
            callback(at)
        else:
            self._word_waiters.setdefault(index, []).append(callback)

    def when_complete(self, callback: Callable[[], None]) -> None:
        if self.complete:
            callback()
        else:
            self._done_waiters.append(callback)

    def _deliver(self, index: int, time: float) -> None:
        if self.invalidated:
            return  # a later prefetch invalidated the buffer
        if self.arrivals[index] is not None:
            raise RuntimeError(f"word {index} delivered twice")
        self.arrivals[index] = time
        self.words_arrived += 1
        for callback in self._word_waiters.pop(index, []):
            callback(time)
        if self.complete:
            waiters, self._done_waiters = self._done_waiters, []
            for callback in waiters:
                callback()


class PrefetchUnit:
    """One CE's prefetch engine attached to the forward network port.

    Monitoring is decoupled through the signal bus: the PFU publishes
    ``pfu.arm`` / ``pfu.request`` / ``pfu.deliver`` on its per-port
    channels (wired in :meth:`attach`); probes subscribe.  With no
    subscribers each emission point is a single guarded branch — the
    paper's "monitor without perturbing" property.
    """

    def __init__(
        self,
        engine: Engine,
        port: int,
        forward_network: OmegaNetwork,
        global_memory: GlobalMemory,
        config: PrefetchConfig,
        vm_config: Optional[VMConfig] = None,
    ) -> None:
        self.engine = engine
        self.port = port
        self.forward_network = forward_network
        self.global_memory = global_memory
        self.config = config
        self.vm_config = vm_config
        self._active: Optional[PrefetchStream] = None
        self.streams_fired = 0
        self.words_requested = 0
        self.page_suspensions = 0
        self._sig_arm = NULL_SIGNAL
        self._sig_request = NULL_SIGNAL
        self._sig_deliver = NULL_SIGNAL
        self._sig_suspend = NULL_SIGNAL
        self._sig_birth = NULL_SIGNAL

    # -- component lifecycle ---------------------------------------------------

    def attach(self, ctx) -> None:
        self._sig_arm = ctx.bus.signal("pfu.arm", key=self.port)
        self._sig_request = ctx.bus.signal("pfu.request", key=self.port)
        self._sig_deliver = ctx.bus.signal("pfu.deliver", key=self.port)
        self._sig_suspend = ctx.bus.signal("pfu.suspend", key=self.port)
        self._sig_birth = ctx.bus.signal("req.birth", key=self.port)

    def reset(self) -> None:
        self._active = None
        self.streams_fired = 0
        self.words_requested = 0
        self.page_suspensions = 0

    def stats(self) -> dict:
        return {
            "streams_fired": self.streams_fired,
            "words_requested": self.words_requested,
            "page_suspensions": self.page_suspensions,
        }

    def describe(self) -> dict:
        return {
            "port": self.port,
            "buffer_words": self.config.buffer_words,
            "max_outstanding": self.config.max_outstanding,
            "arm_cycles": self.config.arm_cycles,
        }

    @property
    def page_words(self) -> int:
        page_bytes = self.vm_config.page_bytes if self.vm_config else 4096
        return page_bytes // 8

    def start(
        self,
        length: int,
        stride: int = 1,
        start_address: int = 0,
        keep_previous: bool = False,
    ) -> PrefetchStream:
        """Arm and fire a prefetch; returns the stream handle.

        Starting a prefetch invalidates the buffer contents of the
        previous one unless the caller asked to keep them (reuse mode).
        """
        if length > self.config.max_outstanding:
            raise ValueError(
                f"prefetch length {length} exceeds the {self.config.max_outstanding}"
                " requests the PFU can issue without pausing"
            )
        if length > self.config.buffer_words:
            raise ValueError("prefetch longer than the prefetch buffer")
        if self._active is not None and not self._active.complete:
            # hardware would overwrite in-flight state; treat as misuse
            raise RuntimeError("previous prefetch still in flight")
        if self._active is not None and not keep_previous:
            self._active.invalidated = True
        stream = PrefetchStream(length, stride, start_address)
        self._active = stream
        self.streams_fired += 1
        sig = self._sig_arm
        if sig.callbacks:
            sig.emit(self.port, self.engine.now)
        self.engine.schedule_after(self.config.arm_cycles, self._issue, stream, 0)
        return stream

    # -- request issue ---------------------------------------------------------

    def _issue(self, stream: PrefetchStream, index: int, resupplied: bool = False) -> None:
        if index >= stream.length:
            return
        if not self.forward_network.can_inject(self.port):
            # injection queue full: backpressure stalls the PFU; retry.
            self.engine.schedule_after(1.0, self._issue, stream, index, resupplied)
            return
        address = stream.start_address + index * stream.stride
        if index > 0 and not resupplied:
            prev = stream.start_address + (index - 1) * stream.stride
            if address // self.page_words != prev // self.page_words:
                self.page_suspensions += 1
                sig = self._sig_suspend
                if sig.callbacks:
                    sig.emit(self.port, self.engine.now)
                self.engine.schedule_after(
                    PAGE_RESUPPLY_CYCLES, self._issue, stream, index, True
                )
                return
        self._issue_word(stream, index, address)

    def _issue_word(self, stream: PrefetchStream, index: int, address: int) -> None:
        now = self.engine.now
        stream.issued[index] = now
        self.words_requested += 1
        cbs = self._sig_request.callbacks
        if cbs:
            for cb in cbs:
                cb(self.port, index, now)
        packet = Packet.acquire(
            PacketKind.READ_REQ,
            self.port,
            address % self.global_memory.config.modules,
            address,
        )
        meta = packet.meta
        meta["pfu_stream"] = stream
        meta["word_index"] = index
        cbs = self._sig_birth.callbacks
        if cbs:
            for cb in cbs:
                cb(packet, "prefetch", now)
        self.forward_network.inject(packet, tail=self.global_memory.route_tail(address))
        delay = 1.0 / self.config.issue_per_cycle
        self.engine.schedule_after(delay, self._issue, stream, index + 1)

    # -- reply delivery ----------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """Reverse-network sink: a word returned to the prefetch buffer."""
        stream = packet.meta.get("pfu_stream")
        index = packet.meta.get("word_index")
        if stream is None or index is None:
            raise RuntimeError("reply packet lacks prefetch metadata")
        now = self.engine.now
        if stream is self._active:
            cbs = self._sig_deliver.callbacks
            if cbs:
                for cb in cbs:
                    cb(self.port, index, now)
        stream._deliver(index, now)
