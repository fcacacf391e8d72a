"""Network packets.

"Each network packet consists of one to four 64-bit words, the first
word containing routing and control information and the memory address"
(Section 2).  We count the header in ``words`` for request packets; a
single-word read reply carries its datum in the tagged word.

Hot-path design
---------------

Packets are the simulator's top allocation site (one per global
reference, plus its reply), so the class is ``__slots__``-based and
request packets are recycled through a bounded **free list**:

* issue sites acquire with :meth:`Packet.acquire` (new ``request_id``,
  cleared ``meta``, all tracing/fault state reset — recycled packets
  can never leak a previous reference's fields);
* a memory module turns a request into its reply **in place** with
  :meth:`Packet.become_reply` (same object, same ``request_id``, same
  ``meta`` dict), so the round trip allocates exactly one packet — and
  zero once the pool is warm;
* terminal consumers (the machine's delivery sinks, a module consuming
  a store) hand the packet back with :meth:`Packet.release`.

``set_pool_enabled(False)`` turns recycling off (every acquire
allocates, release is a no-op) — the A/B switch the pool tests use to
pin bit-identical cycles against the unpooled path.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, List, Optional

_packet_ids = itertools.count()


class PacketKind(Enum):
    READ_REQ = "read_req"
    WRITE_REQ = "write_req"
    READ_REPLY = "read_reply"
    BLOCK_REQ = "block_req"
    BLOCK_REPLY = "block_reply"
    SYNC_REQ = "sync_req"
    SYNC_REPLY = "sync_reply"


#: kinds travelling the reverse (reply) direction — the phase
#: classifier that stays correct on shared fabrics, where replies ride
#: the same physical stage links as requests.
_REPLY_KINDS = frozenset(
    (PacketKind.READ_REPLY, PacketKind.BLOCK_REPLY, PacketKind.SYNC_REPLY)
)

#: free-list depth cap; in-flight packets beyond it simply fall back to
#: the garbage collector (exhaustion regrows through plain allocation).
_POOL_MAX = 4096

_pool: List["Packet"] = []
_pool_enabled = True


def set_pool_enabled(enabled: bool) -> bool:
    """Toggle packet recycling; returns the previous setting.  With the
    pool off every :meth:`Packet.acquire` allocates a fresh packet and
    :meth:`Packet.release` is a no-op — the reference behaviour the
    pooled path must match bit-for-bit."""
    global _pool_enabled
    previous = _pool_enabled
    _pool_enabled = enabled
    if not enabled:
        _pool.clear()
    return previous


def pool_stats() -> Dict[str, int]:
    """Introspection for tests: current free-list depth and cap."""
    return {"free": len(_pool), "max": _POOL_MAX, "enabled": int(_pool_enabled)}


class Packet:
    """One packet in flight on the forward or reverse network.

    ``src`` and ``dst`` are port indices on the network the packet rides:
    CE ports on the forward network, memory-module ports on the reverse.
    ``address`` is a word address into global memory.  ``words`` is the
    packet length in 64-bit words including the routing/control word.

    ``request_id`` is the process-wide-unique request identity, shared
    by a request packet and its reply — the span id the request-tracing
    layer (:mod:`repro.monitor.spans`) stitches on.  Assigned at the
    birth site unconditionally; it never feeds back into timing, so
    untraced runs stay bit-identical, and packets carry no other
    tracing state.

    ``is_reply`` is precomputed from ``kind`` (and kept in sync by
    :meth:`become_reply`) so hot monitors read an attribute, not a
    property.
    """

    __slots__ = (
        "kind",
        "src",
        "dst",
        "address",
        "words",
        "request_id",
        "meta",
        "injected_at",
        "is_reply",
        "_pooled",
    )

    def __init__(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        address: int,
        words: int = 1,
        request_id: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        injected_at: Optional[float] = None,
    ) -> None:
        if words < 1:
            raise ValueError("packet must carry at least the control word")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.address = address
        self.words = words
        self.request_id = (
            next(_packet_ids) if request_id is None else request_id
        )
        self.meta: Dict[str, Any] = {} if meta is None else meta
        self.injected_at = injected_at
        self.is_reply = kind in _REPLY_KINDS
        self._pooled = False

    # -- recycling ---------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        kind: PacketKind,
        src: int,
        dst: int,
        address: int,
        words: int = 1,
    ) -> "Packet":
        """A fresh request packet, recycled from the free list when one
        is available.  Every field is reset here — ``meta`` is cleared,
        ``injected_at`` dropped, a new ``request_id`` drawn — so no
        state of the previous reference survives into the next one.
        Callers fill ``meta`` keys after acquiring."""
        if _pool:
            packet = _pool.pop()
            packet.kind = kind
            packet.src = src
            packet.dst = dst
            packet.address = address
            packet.words = words
            packet.request_id = next(_packet_ids)
            packet.meta.clear()
            packet.injected_at = None
            packet.is_reply = kind in _REPLY_KINDS
            packet._pooled = False
            return packet
        return cls(kind, src, dst, address, words=words)

    def release(self) -> None:
        """Hand the packet back to the free list.  Idempotent (a second
        release is a no-op) and a no-op when pooling is disabled or the
        list is full — the packet then dies by garbage collection."""
        if self._pooled or not _pool_enabled:
            return
        if len(_pool) < _POOL_MAX:
            self._pooled = True
            _pool.append(self)

    def become_reply(self, kind: PacketKind, words: int) -> "Packet":
        """Transform this request into its reply **in place**: direction
        reversed, same ``request_id``, same ``meta`` dict (the reply
        carries the request's routing/handler metadata exactly as the
        copying :meth:`reply` did).  Returns ``self``."""
        self.kind = kind
        self.src, self.dst = self.dst, self.src
        self.words = words
        self.is_reply = kind in _REPLY_KINDS
        return self

    # -- classification ----------------------------------------------------

    def origin(self) -> str:
        """Best-effort classification of the reference's birth site from
        kind and metadata (the authoritative label travels on the
        ``req.birth`` signal; this is the fallback for bare packets)."""
        if self.kind in (PacketKind.SYNC_REQ, PacketKind.SYNC_REPLY):
            return "sync"
        if self.kind is PacketKind.WRITE_REQ:
            return "store"
        if self.kind in (PacketKind.BLOCK_REQ, PacketKind.BLOCK_REPLY):
            return "block"
        if "pfu_stream" in self.meta:
            return "prefetch"
        return "demand"

    def reply(self, kind: PacketKind, words: int, **meta: Any) -> "Packet":
        """Build the reply packet travelling back from ``dst`` to
        ``src`` as a *new* object (the allocation-free in-place path is
        :meth:`become_reply`; this copying form remains for callers that
        keep the request alive)."""
        merged = dict(self.meta)
        merged.update(meta)
        return Packet(
            kind=kind,
            src=self.dst,
            dst=self.src,
            address=self.address,
            words=words,
            request_id=self.request_id,
            meta=merged,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(kind={self.kind}, src={self.src}, dst={self.dst}, "
            f"address={self.address}, words={self.words}, "
            f"request_id={self.request_id}, meta={self.meta}, "
            f"injected_at={self.injected_at})"
        )
