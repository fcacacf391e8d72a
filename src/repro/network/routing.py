"""Lawrie tag routing for multistage delta/shuffle-exchange networks.

Routing is "based on the tag control scheme proposed in [Lawr75], and
provides a unique path between any pair of input/output ports"
(Section 2).  In a delta network the destination address, written in the
mixed radix of the switch stages, *is* the routing tag: stage ``i``
consumes destination digit ``i`` to select the switch output port.

We model contention at switch *output ports*: the crossbars themselves
are internally non-blocking, so two packets conflict exactly when they
need the same output port of the same switch at the same stage.  The
output port of stage ``i`` reached by a packet from source ``S`` to
destination ``D`` is the unique "partial address" whose leading digits
come from ``D`` and trailing digits from ``S`` — computing it
arithmetically avoids materializing the shuffle wiring while preserving
the exact conflict structure of the network.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple


def stage_radices(n_ports: int, max_radix: int = 8) -> List[int]:
    """Factor an ``n_ports``-port delta network into switch stages.

    Cedar's 32-port network built from 8x8 crossbars factors as
    ``[8, 4]``.  Raises when ``n_ports`` cannot be factored into stage
    radices of at most ``max_radix``.

    >>> stage_radices(32)
    [8, 4]
    >>> stage_radices(64)
    [8, 8]
    """
    if n_ports < 1:
        raise ValueError("network needs at least one port")
    if max_radix < 2:
        raise ValueError("switch radix must be at least 2")
    radices: List[int] = []
    remaining = n_ports
    while remaining > 1:
        radix = min(max_radix, remaining)
        while radix > 1 and remaining % radix != 0:
            radix -= 1
        if radix == 1:
            raise ValueError(
                f"{n_ports} ports cannot be factored into radix<={max_radix} stages"
            )
        radices.append(radix)
        remaining //= radix
    if not radices:
        radices = [1]
    return radices


def mixed_radix_digits(value: int, radices: Sequence[int]) -> List[int]:
    """Digits of ``value`` in the mixed radix ``radices``, most
    significant digit first (digit ``i`` belongs to stage ``i``).

    >>> mixed_radix_digits(13, [8, 4])
    [3, 1]
    """
    total = 1
    for r in radices:
        total *= r
    if not 0 <= value < total:
        raise ValueError(f"value {value} out of range for radices {radices}")
    digits: List[int] = []
    for radix in radices:
        total //= radix
        digits.append(value // total)
        value %= total
    return digits


def delta_path(src: int, dst: int, radices: Sequence[int]) -> List[int]:
    """Output-port identifiers used at each stage by a ``src``->``dst``
    packet.

    The stage-``i`` identifier is the intermediate address formed by
    destination digits ``0..i`` followed by source digits ``i+1..``;
    after the final stage the identifier equals ``dst``.  Two paths
    conflict at stage ``i`` iff their identifiers there are equal.
    Paths are computed once per port pair and radix tuple in a process
    (:func:`_delta_path`); each call returns a fresh list.

    >>> delta_path(0, 13, [8, 4])[-1]
    13
    """
    return list(_delta_path(src, dst, tuple(radices)))


@lru_cache(maxsize=1 << 16)
def _delta_path(src: int, dst: int, radices: Tuple[int, ...]) -> Tuple[int, ...]:
    src_digits = mixed_radix_digits(src, radices)
    dst_digits = mixed_radix_digits(dst, radices)
    path: List[int] = []
    current = list(src_digits)
    for stage, digit in enumerate(dst_digits):
        current[stage] = digit
        value = 0
        for radix, d in zip(radices, current):
            value = value * radix + d
        path.append(value)
    return tuple(path)
