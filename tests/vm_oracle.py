"""Reference semantics for :class:`repro.vm.paging.VirtualMemory`.

The per-access translation: one :class:`AccessOutcome` per page, with
``touch_range`` calling :meth:`OracleVM.access` once per page and the
TLB and page table driven through their own methods.  The package's
single-pass walk must leave identical state and return identical
values; ``tests/test_vm_oracle.py`` checks that on generated programs.
"""

from repro.vm.paging import AccessOutcome, VirtualMemory


class OracleVM(VirtualMemory):
    def access(self, byte_address, cluster):
        if not 0 <= cluster < len(self.tlbs):
            raise ValueError(f"no cluster {cluster}")
        vpn = self.page_of(byte_address)
        tlb = self.tlbs[cluster]
        self.stats.accesses += 1
        if tlb.lookup(vpn):
            self.stats.tlb_hits += 1
            return AccessOutcome(0.0, tlb_hit=True, tlb_miss_fault=False, page_fault=False)
        self._touched_by.setdefault(vpn, set()).add(cluster)
        if self.page_table.is_valid(vpn):
            tlb.insert(vpn, self.page_table.frame(vpn))
            cycles = float(self.config.tlb_miss_cycles)
            self.stats.tlb_miss_faults += 1
            self.stats.fault_cycles += cycles
            return AccessOutcome(cycles, tlb_hit=False, tlb_miss_fault=True, page_fault=False)
        frame = self.page_table.populate(vpn)
        tlb.insert(vpn, frame)
        cycles = float(self.config.page_fault_cycles)
        self.stats.page_faults += 1
        self.stats.fault_cycles += cycles
        return AccessOutcome(cycles, tlb_hit=False, tlb_miss_fault=False, page_fault=True)

    def touch_range(self, start, length_bytes, cluster):
        if length_bytes < 0:
            raise ValueError("negative range")
        total = 0.0
        first = self.page_of(start)
        last = self.page_of(start + max(0, length_bytes - 1))
        for vpn in range(first, last + 1):
            total += self.access(vpn * self.config.page_bytes, cluster).cycles
        return total
