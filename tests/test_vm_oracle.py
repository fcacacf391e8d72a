"""Differential test: the single-pass VM walk against the per-access oracle.

Generated programs mix ``touch_range`` calls (unaligned starts, zero
and sub-page lengths, multi-page spans, bad clusters and negative
lengths), single ``access`` calls, TLB flushes and page-table
populate/invalidate on a machine of 1–4 clusters with tiny TLBs, so LRU
eviction interleaves with hits.  :class:`~repro.vm.paging.VirtualMemory`
and :class:`~tests.vm_oracle.OracleVM` must return the same values,
raise the same errors, and end every step in the same state: the VM
counters, each TLB's hits, misses and LRU order, the page table's
frames and populations, and which clusters touched each page.
"""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.core.config import VMConfig
from repro.vm.paging import VirtualMemory
from tests.vm_oracle import OracleVM

PAGE = 64

CLUSTER = st.integers(-1, 4)
ADDRESS = st.integers(0, 24 * PAGE)

OP = st.one_of(
    st.tuples(
        st.just("touch"), ADDRESS,
        st.one_of(st.integers(-2, 2 * PAGE), st.integers(0, 12 * PAGE)),
        CLUSTER,
    ),
    st.tuples(st.just("access"), ADDRESS, CLUSTER),
    st.tuples(st.just("flush"), st.integers(0, 3)),
    st.tuples(st.just("populate"), st.integers(0, 24)),
    st.tuples(st.just("invalidate"), st.integers(0, 24)),
)

PROGRAMS = st.fixed_dictionaries({
    "clusters": st.integers(1, 4),
    "tlb_entries": st.integers(1, 8),
    "tlb_miss_cycles": st.sampled_from([120, 0.1, 7.3]),
    "page_fault_cycles": st.sampled_from([6000, 0.7, 1e16]),
    "ops": st.lists(OP, max_size=30),
})


def state(vm):
    table = vm.page_table
    return (
        asdict(vm.stats),
        [(t.hits, t.misses, list(t._map.items())) for t in vm.tlbs],
        list(table._valid.items()),
        table.populations,
        [(vpn, sorted(c)) for vpn, c in vm._touched_by.items()],
    )


def step(vm, op):
    kind = op[0]
    try:
        if kind == "touch":
            return vm.touch_range(op[1], op[2], op[3])
        if kind == "access":
            return vm.access(op[1], op[2])
        if kind == "flush":
            return vm.tlbs[op[1] % len(vm.tlbs)].flush()
        if kind == "populate":
            return vm.page_table.populate(op[1])
        return vm.page_table.invalidate(op[1])
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, deadline=None)
@given(PROGRAMS)
def test_walk_matches_per_access_oracle(program):
    config = VMConfig(
        page_bytes=PAGE,
        tlb_entries=program["tlb_entries"],
        tlb_miss_cycles=program["tlb_miss_cycles"],
        page_fault_cycles=program["page_fault_cycles"],
    )
    vm = VirtualMemory(config, clusters=program["clusters"])
    oracle = OracleVM(config, clusters=program["clusters"])
    for op in program["ops"]:
        got, want = step(vm, op), step(oracle, op)
        assert repr(got) == repr(want), op
        assert state(vm) == state(oracle), op
