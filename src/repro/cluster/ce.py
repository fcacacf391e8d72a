"""The Alliant computational element (CE) and its operation vocabulary.

A CE program is a Python generator yielding operation objects; the CE
advances simulated time as each operation completes and sends its result
back into the generator.  This mirrors how the paper's kernels are
written: a strip-mined loop of vector instructions, prefetches, global
accesses and scalar glue.

The vocabulary captures the architectural behaviours Section 2 calls
out:

* ``GlobalLoad`` — non-prefetched vector access to global memory,
  limited to the CE's **two outstanding requests** ("The performance of
  the GM/no-pref version is determined by the 13 cycle latency of the
  global memory and the two outstanding requests allowed per CE").
* ``StartPrefetch`` / ``ConsumeStream`` — PFU-driven access with the
  full/empty-bit buffer.
* ``GlobalStore`` — writes that "do not stall a CE" unless the network
  injection queue backs up.
* ``ClusterVectorOp`` — vector work fed from the shared cluster cache.
* ``BlockTransfer`` — explicit software-controlled move between global
  and cluster memory (the only way data moves between the two levels).
* ``SyncInstruction`` — a round trip to a memory module's
  synchronization processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.core.engine import SimulationError
from repro.gmemory.sync import SyncOp, SyncResult, TestOp
from repro.monitor.signals import NULL_SIGNAL
from repro.network.packet import Packet, PacketKind
from repro.prefetch.pfu import PrefetchStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import CedarMachine

Program = Generator[Any, Any, None]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Compute:
    """Occupy the CE for ``cycles`` of computation."""

    cycles: float


@dataclass
class StartPrefetch:
    """Arm and fire the CE's PFU; the result is the PrefetchStream."""

    length: int
    stride: int = 1
    address: int = 0
    keep_previous: bool = False


@dataclass
class AwaitWord:
    """Wait until one buffer word is full; result is its arrival time."""

    stream: PrefetchStream
    index: int


@dataclass
class AwaitStream:
    """Wait until the whole prefetch stream has returned."""

    stream: PrefetchStream


@dataclass
class ConsumeStream:
    """Read the stream's words in order, spending ``cycles_per_word`` of
    chained vector compute on each; models register-memory vector
    instructions whose memory operands are intercepted by the prefetch
    buffer.  ``startup_cycles`` is charged once per ``vector_length``
    words — one pipeline fill per vector instruction, since a vector
    register holds 32 words."""

    stream: PrefetchStream
    cycles_per_word: float = 1.0
    startup_cycles: float = 0.0
    vector_length: int = 32


@dataclass
class GlobalLoad:
    """Non-prefetched strided vector load: at most two outstanding
    element requests; completes when the last element returns."""

    length: int
    stride: int = 1
    address: int = 0
    #: chained compute per returned word (overlapped with the loads).
    cycles_per_word: float = 0.0


@dataclass
class GlobalStore:
    """Strided vector store to global memory: the CE issues one store
    packet per cycle (stall only on injection backpressure) and moves on
    without awaiting completion."""

    length: int
    stride: int = 1
    address: int = 0


@dataclass
class ClusterVectorOp:
    """Vector operation on cluster data: the shared cache streams
    ``words`` while the CE computes ``cycles_per_word`` per word.

    With ``address`` set (a cluster-space word address) the access runs
    through the functional cache: missed lines fill from cluster
    memory, dirty victims write back, and the operation's result value
    is the number of missed words.  Without it, the stream is assumed
    cache-resident (the work-array regime)."""

    words: int
    cycles_per_word: float = 1.0
    startup_cycles: float = 0.0
    address: Optional[int] = None
    write: bool = False


@dataclass
class BlockTransfer:
    """Software-controlled block move global->cluster (or back); data is
    requested in 3-data-word packets (the 4-word network maximum)."""

    words: int
    address: int = 0
    to_cluster: bool = True


@dataclass
class Fence:
    """Memory fence: wait until every store this CE has issued to the
    weakly ordered global memory has completed at its module.  Cedar
    software uses such sync points (typically around synchronization
    instructions) to order globally visible data."""


@dataclass
class FileWrite:
    """Hand a record to the cluster's IP for output; the CE does not
    wait ("IPs perform input/output")."""

    unit: str
    values: Any  # array-like record


@dataclass
class FileRead:
    """Request the next record from a unit via the cluster's IP; the CE
    blocks until the data arrives (the result is the record array)."""

    unit: str


@dataclass
class SyncInstruction:
    """Indivisible Test-And-Operate at a global address; the result is
    the :class:`~repro.gmemory.sync.SyncResult`."""

    address: int
    test: TestOp = TestOp.ALWAYS
    test_operand: int = 0
    op: SyncOp = SyncOp.ADD
    op_operand: int = 1


# ---------------------------------------------------------------------------
# the CE


@dataclass
class CEStats:
    compute_cycles: float = 0.0
    stall_cycles: float = 0.0
    words_loaded: int = 0
    words_stored: int = 0
    finished_at: Optional[float] = None


class CE:
    """One computational element executing a generator program."""

    def __init__(self, machine: "CedarMachine", cluster_id: int, local_id: int) -> None:
        self.machine = machine
        self.engine = machine.engine
        self.cluster_id = cluster_id
        self.local_id = local_id
        self.port = cluster_id * machine.config.ces_per_cluster + local_id
        self.config = machine.config.ce
        self.stats = CEStats()
        self._program: Optional[Program] = None
        self._outstanding_replies: dict = {}
        self._stores_in_flight = 0
        self._fence_waiting = False
        self._on_done: Optional[Callable[["CE"], None]] = None
        self._sig_done = NULL_SIGNAL
        self._sig_birth = NULL_SIGNAL
        self.done = False

    # -- component lifecycle -----------------------------------------------------

    def attach(self, ctx) -> None:
        self._sig_done = ctx.bus.signal("ce.done", key=self.port)
        self._sig_birth = ctx.bus.signal("req.birth", key=self.port)

    def reset(self) -> None:
        self.stats = CEStats()
        self._program = None
        self._outstanding_replies = {}
        self._stores_in_flight = 0
        self._fence_waiting = False
        self._on_done = None
        self.done = False

    def describe(self) -> dict:
        return {
            "port": self.port,
            "cluster": self.cluster_id,
            "local_id": self.local_id,
            "cycle_ns": self.config.cycle_ns,
        }

    def counters(self) -> dict:
        """Component-protocol ``stats()`` payload (the method name is
        taken by the :class:`CEStats` data attribute; the machine
        assembly adapts this via :class:`~repro.core.context.ComponentAdapter`)."""
        return {
            "compute_cycles": self.stats.compute_cycles,
            "stall_cycles": self.stats.stall_cycles,
            "words_loaded": self.stats.words_loaded,
            "words_stored": self.stats.words_stored,
            "finished_at": self.stats.finished_at,
        }

    # -- program execution -----------------------------------------------------

    def run(
        self,
        program: Program,
        on_done: Optional[Callable[["CE"], None]] = None,
    ) -> None:
        """Start executing ``program`` at the current simulation time.

        ``on_done`` is invoked once when the program finishes — drivers
        use completion counting instead of polling every CE after every
        event.
        """
        if self._program is not None:
            raise SimulationError(f"CE {self.port} is already running a program")
        self._program = program
        self._on_done = on_done
        self.done = False
        self.engine.schedule_after(0.0, self._step, None)

    def _step(self, value: Any) -> None:
        assert self._program is not None
        try:
            op = self._program.send(value)
        except StopIteration:
            # finished: the CE takes a new program from here on
            self._program = None
            self.done = True
            self.stats.finished_at = self.engine.now
            sig = self._sig_done
            if sig.callbacks:
                sig.emit(self.port, self.engine.now)
            if self._on_done is not None:
                self._on_done(self)
            return
        self._dispatch(op)

    def _resume(self, value: Any = None) -> None:
        self._step(value)

    def _dispatch(self, op: Any) -> None:
        if isinstance(op, Compute):
            self.stats.compute_cycles += op.cycles
            self.engine.schedule_after(op.cycles, self._step, None)
        elif isinstance(op, StartPrefetch):
            stream = self.machine.pfu(self.port).start(
                op.length, op.stride, op.address, keep_previous=op.keep_previous
            )
            self._resume(stream)
        elif isinstance(op, AwaitWord):
            op.stream.when_available(op.index, self._resume)
        elif isinstance(op, AwaitStream):
            op.stream.when_complete(self._resume)
        elif isinstance(op, ConsumeStream):
            self._consume(op, index=0, ready_at=self.engine.now)
        elif isinstance(op, GlobalLoad):
            self._global_load(op)
        elif isinstance(op, GlobalStore):
            self._global_store(op, index=0)
        elif isinstance(op, ClusterVectorOp):
            self._cluster_vector_op(op)
        elif isinstance(op, BlockTransfer):
            self._block_transfer(op)
        elif isinstance(op, SyncInstruction):
            self._sync(op)
        elif isinstance(op, Fence):
            if self._stores_in_flight == 0:
                self._resume(None)
            else:
                self._fence_waiting = True
        elif isinstance(op, FileWrite):
            ip = self.machine.clusters[self.cluster_id].ip
            ip.submit_write(op.unit, op.values)
            self._resume(None)
        elif isinstance(op, FileRead):
            ip = self.machine.clusters[self.cluster_id].ip
            ip.submit_read(op.unit, on_done=lambda req: self._resume(req.result))
        else:
            raise SimulationError(f"CE cannot execute operation {op!r}")

    # -- prefetch consumption ----------------------------------------------------

    def _consume(self, op: ConsumeStream, index: int, ready_at: float) -> None:
        """Pipeline: word ``index`` is processed at
        max(arrival + buffer transfer latency, previous word done) and
        takes ``cycles_per_word``; the buffer-to-CE move is latency, not
        occupancy (words stream).  Iterative over already-full words to
        bound recursion depth on long streams."""
        stream = op.stream
        buffer_lat = self.machine.config.prefetch.buffer_to_ce_cycles
        while index < stream.length and stream.word_available(index):
            arrival = stream.arrivals[index]
            assert arrival is not None
            if op.vector_length and index % op.vector_length == 0:
                ready_at += op.startup_cycles
            start = max(arrival + buffer_lat, ready_at)
            stall = max(0.0, start - ready_at)
            if stall:
                self.stats.stall_cycles += stall
            ready_at = start + op.cycles_per_word
            index += 1
        if index >= stream.length:
            self.stats.words_loaded += stream.length
            self.stats.compute_cycles += stream.length * op.cycles_per_word
            extra = max(0.0, ready_at - self.engine.now)
            self.engine.schedule_after(extra, self._step, None)
            return
        next_index = index
        resume_ready = ready_at
        stream.when_available(
            next_index, lambda _at: self._consume(op, next_index, resume_ready)
        )

    # -- non-prefetched global vector access ---------------------------------------

    def _global_load(self, op: GlobalLoad) -> None:
        """Each returned datum also pays the CE-side register-move
        cycles (the same 5 cycles that complete the prefetch path's
        13-cycle latency) while holding its outstanding-request slot —
        so throughput is 2 words per 13-cycle round trip, the paper's
        GM/no-pref behaviour."""
        handling = float(self.machine.config.prefetch.buffer_to_ce_cycles)
        state = {
            "next": 0,
            "released": 0,
            "inflight": 0,
            "ready_at": self.engine.now,
        }

        def _issue() -> None:
            limit = self.config.max_outstanding_misses
            while state["inflight"] < limit and state["next"] < op.length:
                if not self.machine.forward_network.can_inject(self.port):
                    self.engine.schedule_after(1.0, _issue)
                    return
                index = state["next"]
                state["next"] += 1
                state["inflight"] += 1
                address = op.address + index * op.stride
                packet = Packet.acquire(
                    PacketKind.READ_REQ,
                    self.port,
                    address % self.machine.gmem.config.modules,
                    address,
                )
                packet.meta["ce_reply"] = self.port
                packet.meta["handler"] = _on_reply
                cbs = self._sig_birth.callbacks
                if cbs:
                    now = self.engine.now
                    for cb in cbs:
                        cb(packet, "demand", now)
                self.machine.forward_network.inject(
                    packet, tail=self.machine.gmem.route_tail(address)
                )

        def _on_reply(packet: Packet) -> None:
            self.stats.words_loaded += 1
            self.engine.schedule_after(handling, _release)

        def _release() -> None:
            state["inflight"] -= 1
            state["released"] += 1
            state["ready_at"] = (
                max(state["ready_at"], self.engine.now) + op.cycles_per_word
            )
            if state["released"] >= op.length:
                extra = max(0.0, state["ready_at"] - self.engine.now)
                self.engine.schedule_after(extra, lambda: self._resume(None))
            else:
                _issue()

        _issue()

    # -- stores -------------------------------------------------------------------

    def _global_store(self, op: GlobalStore, index: int) -> None:
        if index >= op.length:
            self._resume(None)
            return
        if not self.machine.forward_network.can_inject(self.port):
            self.stats.stall_cycles += 1.0
            self.engine.schedule_after(1.0, self._global_store, op, index)
            return
        address = op.address + index * op.stride
        packet = Packet.acquire(
            PacketKind.WRITE_REQ,
            self.port,
            address % self.machine.gmem.config.modules,
            address,
            words=2,  # control/address word + one data word
        )
        packet.meta["on_write_done"] = self._store_completed
        cbs = self._sig_birth.callbacks
        if cbs:
            now = self.engine.now
            for cb in cbs:
                cb(packet, "store", now)
        self._stores_in_flight += 1
        self.machine.forward_network.inject(
            packet, tail=self.machine.gmem.route_tail(address)
        )
        self.stats.words_stored += 1
        # one store issued per cycle
        self.engine.schedule_after(1.0, self._global_store, op, index + 1)

    def _store_completed(self, packet: Packet) -> None:
        self._stores_in_flight -= 1
        if self._fence_waiting and self._stores_in_flight == 0:
            self._fence_waiting = False
            self._resume(None)

    # -- cluster-cache vector work ---------------------------------------------------

    def _cluster_vector_op(self, op: ClusterVectorOp) -> None:
        cluster = self.machine.clusters[self.cluster_id]
        started = self.engine.now

        def _finish(result) -> None:
            compute = op.startup_cycles + op.words * op.cycles_per_word
            elapsed = self.engine.now - started
            remaining = max(0.0, compute - elapsed)
            self.stats.compute_cycles += compute
            self.engine.schedule_after(remaining, lambda: self._resume(result))

        if op.address is None:
            cluster.cache_request(self.port, op.words, lambda _pkt: _finish(None))
        else:
            cluster.cached_vector_access(
                self.port, op.words, op.address, op.write, _finish
            )

    # -- block transfers ---------------------------------------------------------------

    def _block_transfer(self, op: BlockTransfer) -> None:
        data_words_per_packet = self.machine.config.network.max_packet_words - 1
        chunks = [
            min(data_words_per_packet, op.words - start)
            for start in range(0, op.words, data_words_per_packet)
        ]
        state = {"returned": 0, "issued": 0}

        def _issue() -> None:
            while state["issued"] < len(chunks):
                if not self.machine.forward_network.can_inject(self.port):
                    self.engine.schedule_after(1.0, _issue)
                    return
                i = state["issued"]
                state["issued"] += 1
                address = op.address + i * data_words_per_packet
                packet = Packet.acquire(
                    PacketKind.BLOCK_REQ,
                    self.port,
                    address % self.machine.gmem.config.modules,
                    address,
                )
                meta = packet.meta
                meta["block_words"] = chunks[i]
                meta["ce_reply"] = self.port
                meta["handler"] = _on_reply
                cbs = self._sig_birth.callbacks
                if cbs:
                    now = self.engine.now
                    for cb in cbs:
                        cb(packet, "block", now)
                self.machine.forward_network.inject(
                    packet, tail=self.machine.gmem.route_tail(address)
                )

        def _on_reply(packet: Packet) -> None:
            state["returned"] += 1
            self.stats.words_loaded += packet.meta.get("block_words", 0)
            if state["returned"] >= len(chunks):
                self._resume(None)

        _issue()

    # -- synchronization ------------------------------------------------------------------

    def _sync(self, op: SyncInstruction) -> None:
        def _issue() -> None:
            if not self.machine.forward_network.can_inject(self.port):
                self.engine.schedule_after(1.0, _issue)
                return
            packet = Packet.acquire(
                PacketKind.SYNC_REQ,
                self.port,
                op.address % self.machine.gmem.config.modules,
                op.address,
                words=2,  # address word + operand word
            )
            meta = packet.meta
            meta["sync"] = (op.test, op.test_operand, op.op, op.op_operand)
            meta["ce_reply"] = self.port
            meta["handler"] = _on_reply
            cbs = self._sig_birth.callbacks
            if cbs:
                now = self.engine.now
                for cb in cbs:
                    cb(packet, "sync", now)
            self.machine.forward_network.inject(
                packet, tail=self.machine.gmem.route_tail(op.address)
            )

        def _on_reply(packet: Packet) -> None:
            result: SyncResult = packet.meta["sync_result"]
            self._resume(result)

        _issue()
