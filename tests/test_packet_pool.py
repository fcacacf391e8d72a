"""The packet free list: recycling semantics and the bit-identity of
pooled runs.

Packets are the simulator's top allocation site, so request/reply
packets are recycled through a bounded module-level free list
(:mod:`repro.network.packet`).  The pool is pure mechanism — it must be
impossible to observe from simulated results: every acquired packet
starts from a fully reset state, exhaustion falls back to plain
allocation, and two registered experiments must render bit-identical
artifacts with the pool on and off.
"""

import pytest

from repro.network import packet as packet_mod
from repro.network.packet import Packet, PacketKind, pool_stats, set_pool_enabled


@pytest.fixture(autouse=True)
def clean_pool():
    """Each test starts with an empty, enabled pool and restores the
    process-wide default afterwards."""
    previous = set_pool_enabled(True)
    packet_mod._pool.clear()
    yield
    packet_mod._pool.clear()
    set_pool_enabled(previous)


class TestRecycling:
    def test_release_then_acquire_recycles_the_object(self):
        first = Packet.acquire(PacketKind.READ_REQ, 0, 3, 64)
        first.release()
        assert pool_stats()["free"] == 1
        second = Packet.acquire(PacketKind.WRITE_REQ, 1, 2, 128)
        assert second is first  # recycled, not reallocated
        assert pool_stats()["free"] == 0

    def test_release_is_idempotent(self):
        packet = Packet.acquire(PacketKind.READ_REQ, 0, 1, 0)
        packet.release()
        packet.release()
        assert pool_stats()["free"] == 1

    def test_exhaustion_regrows_through_allocation(self, monkeypatch):
        monkeypatch.setattr(packet_mod, "_POOL_MAX", 4)
        packets = [Packet.acquire(PacketKind.READ_REQ, 0, 1, a) for a in range(6)]
        for packet in packets:
            packet.release()
        # releases beyond the cap are dropped, not queued
        assert pool_stats()["free"] == 4
        # drain past empty: the pool regrows through plain allocation
        reacquired = [
            Packet.acquire(PacketKind.READ_REQ, 0, 1, a) for a in range(6)
        ]
        assert pool_stats()["free"] == 0
        assert len({id(p) for p in reacquired}) == 6
        assert all(p.address == a for a, p in enumerate(reacquired))

    def test_disabled_pool_allocates_fresh_and_ignores_release(self):
        set_pool_enabled(False)
        packet = Packet.acquire(PacketKind.READ_REQ, 0, 1, 0)
        packet.release()
        assert pool_stats() == {"free": 0, "max": packet_mod._POOL_MAX,
                                "enabled": 0}
        assert Packet.acquire(PacketKind.READ_REQ, 0, 1, 0) is not packet

    def test_disabling_clears_the_free_list(self):
        Packet.acquire(PacketKind.READ_REQ, 0, 1, 0).release()
        assert pool_stats()["free"] == 1
        set_pool_enabled(False)
        assert pool_stats()["free"] == 0


class TestNoStaleState:
    def test_every_field_is_reset_on_acquire(self):
        packet = Packet.acquire(PacketKind.READ_REQ, 0, 3, 64, words=2)
        old_id = packet.request_id
        # dirty every mutable field a reference can touch in flight
        packet.meta["pfu_stream"] = 7
        packet.meta["faults"] = ["transient@fwd.s0"]
        packet.injected_at = 123.0
        packet.become_reply(PacketKind.READ_REPLY, words=1)
        assert packet.is_reply
        packet.release()

        recycled = Packet.acquire(PacketKind.READ_REQ, 4, 5, 256, words=3)
        assert recycled is packet
        assert recycled.request_id > old_id  # a *new* reference identity
        assert recycled.meta == {}  # no fault annotations, no stream tags
        assert recycled.injected_at is None
        assert recycled.is_reply is False
        assert (recycled.kind, recycled.src, recycled.dst) == (
            PacketKind.READ_REQ, 4, 5)
        assert (recycled.address, recycled.words) == (256, 3)

    def test_become_reply_keeps_identity_and_meta(self):
        packet = Packet.acquire(PacketKind.READ_REQ, 2, 9, 64, words=1)
        packet.meta["pfu_stream"] = 3
        rid = packet.request_id
        reply = packet.become_reply(PacketKind.READ_REPLY, words=2)
        assert reply is packet
        assert reply.request_id == rid
        assert (reply.src, reply.dst) == (9, 2)  # direction reversed
        assert reply.is_reply
        assert reply.meta["pfu_stream"] == 3  # handler metadata survives


class TestBitIdentity:
    """Pooled and unpooled runs must be indistinguishable in simulated
    results — here at the strongest level available: the fully rendered
    artifacts of registered experiments."""

    @pytest.mark.parametrize("name", ["characterization", "table2"])
    def test_registered_experiment_is_bit_identical(self, name):
        from repro.experiments import characterization, table2  # noqa: F401
        from repro.experiments.runner import clear_memoized_runs, experiment

        exp = experiment(name)
        kwargs = exp.arguments(True)

        clear_memoized_runs()
        pooled = exp.runner(**kwargs)
        try:
            set_pool_enabled(False)
            clear_memoized_runs()
            unpooled = exp.runner(**kwargs)
        finally:
            set_pool_enabled(True)
        clear_memoized_runs()
        assert pooled == unpooled
