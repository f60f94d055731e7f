//! Address translation: on-chip TLBs backed by the DRAM-TLB (§III-H).
//!
//! NDP kernels use virtual addresses for the µthread pool region and
//! loads/stores. Each NDP unit has small I/D TLBs (256 entries, Table IV);
//! misses are served from the *DRAM-TLB* \[72,115\], a hash-indexed table in
//! the CXL memory's own DRAM (16 B per entry: ASID, tag, PPN, attributes),
//! shared by all units of the device. With 2 MB pages the DRAM-TLB overhead
//! is negligible and it is assumed warmed up for CXL-resident data (§IV-A),
//! so a unit-TLB miss costs exactly one DRAM read.
//!
//! The functional models are identity-mapped (VA == PA); the TLB exists for
//! timing and traffic, plus shootdown bookkeeping for the privileged
//! `ndpShootdownTlbEntry` M²func.

use m2ndp_sim::Counter;

/// Bytes per DRAM-TLB entry (§III-H).
pub const DRAM_TLB_ENTRY_BYTES: u32 = 16;

/// Physical base of the DRAM-TLB region inside device memory. Placed high
/// so workload data never collides with it.
pub const DRAM_TLB_BASE: u64 = 0x00F0_0000_0000;

/// Number of hash buckets in the DRAM-TLB (enough for few misses after
/// warm-up at the capacities simulated).
pub const DRAM_TLB_BUCKETS: u64 = 1 << 20;

/// A set-associative on-chip TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<Option<u64>>>, // vpn tags
    lru: Vec<Vec<u64>>,
    clock: u64,
    page_shift: u32,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries, `ways` associativity and
    /// the given page size (Table IV: 256-entry, 8-way D-TLB; the paper
    /// assumes 2 MB pages for in-memory data, §IV-A).
    pub fn new(entries: usize, ways: usize, page_shift: u32) -> Self {
        assert!(entries.is_multiple_of(ways) && entries > 0);
        let sets = entries / ways;
        Self {
            sets: vec![vec![None; ways]; sets],
            lru: vec![vec![0; ways]; sets],
            clock: 0,
            page_shift,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The default NDP-unit data TLB: 256-entry, 8-way, 2 MB pages.
    pub fn ndp_dtlb() -> Self {
        Self::new(256, 8, 21)
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn % self.sets.len() as u64) as usize
    }

    /// The virtual page number of an address.
    pub fn vpn(&self, vaddr: u64) -> u64 {
        vaddr >> self.page_shift
    }

    /// Looks up a virtual address; returns true on hit and inserts on miss
    /// (the fill from the DRAM-TLB is charged by the caller).
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = self.vpn(vaddr);
        let set = self.set_of(vpn);
        if let Some(way) = self.sets[set].iter().position(|e| *e == Some(vpn)) {
            self.lru[set][way] = self.clock;
            self.hits.inc();
            return true;
        }
        self.misses.inc();
        let victim = (0..self.sets[set].len())
            .min_by_key(|w| {
                if self.sets[set][*w].is_none() {
                    0
                } else {
                    self.lru[set][*w]
                }
            })
            .expect("ways non-empty");
        self.sets[set][victim] = Some(vpn);
        self.lru[set][victim] = self.clock;
        false
    }

    /// The page shift.
    pub fn page_shift(&self) -> u32 {
        self.page_shift
    }
}

/// Computes the DRAM-TLB entry address for (asid, vpn): "the location of a
/// DRAM-TLB entry is computed based on the hash of the virtual page number
/// and ASID" (§III-H).
pub fn dram_tlb_entry_addr(asid: u16, vpn: u64) -> u64 {
    let mut x = vpn ^ ((asid as u64) << 40);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    DRAM_TLB_BASE + (x % DRAM_TLB_BUCKETS) * DRAM_TLB_ENTRY_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut tlb = Tlb::ndp_dtlb();
        assert!(!tlb.access(0x4000_0000));
        assert!(tlb.access(0x4000_0000));
        assert!(tlb.access(0x4000_0000 + (1 << 20))); // same 2 MB page
        assert_eq!(tlb.hits.get(), 2);
        assert_eq!(tlb.misses.get(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut tlb = Tlb::new(4, 2, 12);
        // Fill set 0 (two ways) with pages 0 and 2 (both map to set 0 of 2).
        tlb.access(0);
        tlb.access(2 << 12);
        tlb.access(0); // touch page 0 so page 2 is LRU
        tlb.access(4 << 12); // evicts page 2
        assert!(tlb.access(0), "page 0 should survive");
        assert!(!tlb.access(2 << 12), "page 2 was evicted");
    }

    #[test]
    fn dram_tlb_addresses_in_region_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for vpn in 0..1000 {
            let a = dram_tlb_entry_addr(7, vpn);
            assert!(a >= DRAM_TLB_BASE);
            assert!(a < DRAM_TLB_BASE + DRAM_TLB_BUCKETS * 16);
            assert!(a.is_multiple_of(16));
            seen.insert(a);
        }
        assert!(
            seen.len() > 990,
            "hash should rarely collide: {}",
            seen.len()
        );
    }

    #[test]
    fn different_asids_map_differently() {
        assert_ne!(dram_tlb_entry_addr(1, 42), dram_tlb_entry_addr(2, 42));
    }
}
