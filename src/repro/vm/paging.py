"""Paging, TLBs, and fault-cost accounting.

The TRFD study (Section 4.2) hinges on this machinery: "The improved
version was shown to have almost four times the number of page faults
relative to the one-cluster version ... The extra faults are TLB miss
faults as each additional cluster of a multicluster version first
accesses pages for which a valid PTE exists in global memory."

:meth:`VirtualMemory.touch_range` is the bulk walk: one pass over a
page range with the TLB, page table and counters held in locals, and
no per-page result object.  :meth:`VirtualMemory.access` is a one-page
walk of the same code, so there is one per-page translation.  The
plain per-access reference lives in the test oracle
``tests/vm_oracle.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.config import VMConfig


@dataclass(frozen=True)
class AccessOutcome:
    """Cost breakdown of one virtual-memory access."""

    cycles: float
    tlb_hit: bool
    tlb_miss_fault: bool
    page_fault: bool


class TLB:
    """A per-cluster translation lookaside buffer with LRU replacement."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> bool:
        if vpn in self._map:
            self._map.move_to_end(vpn)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, vpn: int, pfn: int) -> None:
        if vpn in self._map:
            self._map.move_to_end(vpn)
            self._map[vpn] = pfn
            return
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[vpn] = pfn

    def flush(self) -> None:
        self._map.clear()

    def __len__(self) -> int:
        return len(self._map)


class PageTable:
    """The Xylem process page table kept in global memory."""

    def __init__(self) -> None:
        self._valid: Dict[int, int] = {}
        self._next_frame = 0
        self.populations = 0

    def is_valid(self, vpn: int) -> bool:
        return vpn in self._valid

    def frame(self, vpn: int) -> int:
        return self._valid[vpn]

    def populate(self, vpn: int) -> int:
        """Xylem services a true page fault and installs a PTE."""
        if vpn in self._valid:
            return self._valid[vpn]
        frame = self._next_frame
        self._next_frame += 1
        self._valid[vpn] = frame
        self.populations += 1
        return frame

    def invalidate(self, vpn: int) -> None:
        self._valid.pop(vpn, None)

    @property
    def resident_pages(self) -> int:
        return len(self._valid)


@dataclass
class VMStats:
    accesses: int = 0
    tlb_hits: int = 0
    tlb_miss_faults: int = 0
    page_faults: int = 0
    fault_cycles: float = 0.0


class VirtualMemory:
    """Page table + per-cluster TLBs with the paper's fault taxonomy.

    * TLB hit — translation cached in the accessing cluster: cheap.
    * TLB-miss fault — PTE valid in global memory, but this cluster has
      not loaded it yet (the multicluster TRFD penalty): medium cost.
    * page fault — no valid PTE anywhere; Xylem allocates: expensive.
    """

    def __init__(self, config: VMConfig, clusters: int = 4) -> None:
        self.config = config
        self.page_table = PageTable()
        self.tlbs: List[TLB] = [TLB(config.tlb_entries) for _ in range(clusters)]
        self.stats = VMStats()
        self._touched_by: Dict[int, Set[int]] = {}

    def page_of(self, byte_address: int) -> int:
        return byte_address // self.config.page_bytes

    def access(self, byte_address: int, cluster: int) -> AccessOutcome:
        """Translate one access from ``cluster``; returns its cost.

        A one-page walk (see :meth:`touch_range`)."""
        vpn = self.page_of(byte_address)
        cycles, hits, tlb_miss_faults, page_faults = self._walk(vpn, vpn, cluster)
        return AccessOutcome(
            cycles,
            tlb_hit=hits == 1,
            tlb_miss_fault=tlb_miss_faults == 1,
            page_fault=page_faults == 1,
        )

    def touch_range(self, start: int, length_bytes: int, cluster: int) -> float:
        """Access every page of ``[start, start+length)`` from
        ``cluster`` in one walk; returns the total fault cycles — the
        bulk operation the TRFD analysis uses."""
        if length_bytes < 0:
            raise ValueError("negative range")
        first = self.page_of(start)
        last = self.page_of(start + max(0, length_bytes - 1))
        return self._walk(first, last, cluster)[0]

    def _walk(
        self, first: int, last: int, cluster: int
    ) -> Tuple[float, int, int, int]:
        """Translate pages ``first..last`` from ``cluster`` in order —
        the one per-page implementation.  Returns the fault cycles and
        the walk's TLB hit, TLB-miss fault and page fault counts.

        Per page: a TLB hit refreshes the entry's LRU position; a miss
        records the cluster as a toucher, loads the valid PTE (or has
        Xylem populate it first) and inserts it, evicting the least
        recently used entry at capacity.  Counters accumulate in locals
        and are written back once; ``fault_cycles`` is summed page by
        page so it is bit-identical to per-access accounting.
        """
        if not 0 <= cluster < len(self.tlbs):
            raise ValueError(f"no cluster {cluster}")
        tlb = self.tlbs[cluster]
        tlb_map = tlb._map
        capacity = tlb.entries
        table = self.page_table
        valid = table._valid
        touched_by = self._touched_by
        miss_cycles = float(self.config.tlb_miss_cycles)
        fault_cycles = float(self.config.page_fault_cycles)
        stats = self.stats
        spent = stats.fault_cycles
        total = 0.0
        hits = tlb_miss_faults = page_faults = 0
        for vpn in range(first, last + 1):
            if vpn in tlb_map:
                tlb_map.move_to_end(vpn)
                hits += 1
                continue
            touched = touched_by.get(vpn)
            if touched is None:
                touched_by[vpn] = {cluster}
            else:
                touched.add(cluster)
            frame = valid.get(vpn)
            if frame is None:
                frame = table.populate(vpn)
                cycles = fault_cycles
                page_faults += 1
            else:
                cycles = miss_cycles
                tlb_miss_faults += 1
            if len(tlb_map) >= capacity:
                tlb_map.popitem(last=False)
            tlb_map[vpn] = frame
            spent += cycles
            total += cycles
        misses = tlb_miss_faults + page_faults
        tlb.hits += hits
        tlb.misses += misses
        stats.accesses += hits + misses
        stats.tlb_hits += hits
        stats.tlb_miss_faults += tlb_miss_faults
        stats.page_faults += page_faults
        stats.fault_cycles = spent
        return total, hits, tlb_miss_faults, page_faults

    @property
    def faults(self) -> int:
        """Total faults of both kinds (the unit [MaEG92] counts)."""
        return self.stats.tlb_miss_faults + self.stats.page_faults
