"""Permutation traffic through the omega network.

An omega network is blocking: it routes some permutations without
conflict (e.g. the identity and uniform shifts) but serializes others
(bit-reversal-like patterns collide at internal stages).  Lawrie's
paper — the routing scheme Cedar uses — is precisely about which
alignments of data across memory modules keep vector accesses
conflict-free.  This study measures the simulator's throughput for
representative permutations, quantifying how much the two-stage
network's internal conflicts cost relative to an ideal pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from repro.core.engine import Engine
from repro.network.omega import OmegaNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.routing import delta_path
from repro.util.tables import Table

N_PORTS = 32


def identity(src: int) -> int:
    return src


def shift_by_one(src: int) -> int:
    return (src + 1) % N_PORTS


def bit_reversal(src: int) -> int:
    return int(format(src, "05b")[::-1], 2)


def transpose_halves(src: int) -> int:
    # swap the two mixed-radix digits (8x4 network): a matrix-transpose
    # style pattern
    hi, lo = divmod(src, 4)
    return (lo * 8 + hi) % N_PORTS


def all_to_one(src: int) -> int:
    return 0


PERMUTATIONS: Dict[str, Callable[[int], int]] = {
    "identity": identity,
    "shift+1": shift_by_one,
    "bit reversal": bit_reversal,
    "transpose": transpose_halves,
    "all-to-one": all_to_one,
}


@dataclass(frozen=True)
class PermutationResult:
    name: str
    #: cycles until the last of ``rounds`` waves is delivered.
    cycles: float
    #: words delivered per cycle in steady state.
    throughput: float
    #: stage-conflict count predicted statically from the paths.
    static_conflicts: int


def static_conflicts(mapping: Callable[[int], int]) -> int:
    """Pairs of sources whose paths share a stage-output port."""
    paths = [delta_path(s, mapping(s), [8, 4]) for s in range(N_PORTS)]
    conflicts = 0
    for stage in range(2):
        seen: Dict[int, int] = {}
        for path in paths:
            seen[path[stage]] = seen.get(path[stage], 0) + 1
        conflicts += sum(c - 1 for c in seen.values() if c > 1)
    return conflicts


def run_permutation(
    mapping: Callable[[int], int], name: str, rounds: int = 16
) -> PermutationResult:
    """Send ``rounds`` single-word packets from every source along the
    permutation, paced by injection-port availability."""
    engine = Engine()
    net = OmegaNetwork(engine, "perm", N_PORTS)
    delivered = {"words": 0}
    for port in range(N_PORTS):
        net.register_sink(port, lambda p: delivered.__setitem__(
            "words", delivered["words"] + 1))

    def inject(src: int, remaining: int) -> None:
        if remaining == 0:
            return
        if not net.can_inject(src):
            engine.schedule_after(1.0, lambda: inject(src, remaining))
            return
        net.inject(
            Packet(kind=PacketKind.READ_REQ, src=src, dst=mapping(src),
                   address=mapping(src))
        )
        engine.schedule_after(1.0, lambda: inject(src, remaining - 1))

    for src in range(N_PORTS):
        inject(src, rounds)
    cycles = engine.run()
    total = N_PORTS * rounds
    assert delivered["words"] == total
    return PermutationResult(
        name=name,
        cycles=cycles,
        throughput=total / cycles,
        static_conflicts=static_conflicts(mapping),
    )


@lru_cache(maxsize=1)
def run_permutation_study(rounds: int = 16) -> Tuple[PermutationResult, ...]:
    return tuple(
        run_permutation(fn, name, rounds) for name, fn in PERMUTATIONS.items()
    )


def render_permutations(results: Tuple[PermutationResult, ...]) -> str:
    table = Table(
        title="Omega-network permutation study (32 ports, 8x4 stages)",
        columns=["pattern", "cycles", "words/cycle", "static conflicts"],
        precision=2,
    )
    for r in results:
        table.add_row([r.name, r.cycles, r.throughput, r.static_conflicts])
    return table.render()
