//! Sectored set-associative cache with MSHRs.
//!
//! The cache is *decoupled*: it classifies accesses and parks missing
//! request tokens in MSHRs; the owning component is responsible for sending
//! the returned fetch addresses downstream and calling [`SectoredCache::fill`]
//! when data returns. This keeps the cache reusable across the NDP L1D, the
//! memory-side L2 slices and the GPU L1D, which wire into different
//! interconnects.

use std::collections::VecDeque;

use m2ndp_sim::{Counter, Cycle, Fingerprint};

/// Write-handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Writes update the line if present and always forward downstream
    /// (no write-allocate). Used by NDP/GPU L1D (§III-F).
    WriteThrough,
    /// Writes allocate and mark sectors dirty; dirty sectors flush on
    /// eviction. Used by host caches and the memory-side L2.
    WriteBack,
}

/// Geometry and behaviour of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Sector size in bytes; `line_bytes` for unsectored caches.
    pub sector_bytes: u32,
    /// Hit latency in owner-clock cycles.
    pub hit_latency: Cycle,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Maximum outstanding missed lines.
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// The NDP unit's combined L1D/scratchpad array in cache mode:
    /// 128 KB, 16-way, 128 B line, 32 B sector, 4-cycle hit (Table IV).
    pub fn ndp_l1d() -> Self {
        Self {
            capacity_bytes: 128 << 10,
            ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 4,
            write_policy: WritePolicy::WriteThrough,
            mshr_entries: 64,
        }
    }

    /// One memory-side L2 slice: 128 KB per memory channel, 16-way, 7-cycle,
    /// 128 B line, 32 B sector (Table IV).
    pub fn memside_l2_slice() -> Self {
        Self {
            capacity_bytes: 128 << 10,
            ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 7,
            write_policy: WritePolicy::WriteBack,
            mshr_entries: 64,
        }
    }

    /// GPU SM L1D: 128 KB, 128 B line, 32 B sector (Table IV).
    pub fn gpu_l1() -> Self {
        Self {
            capacity_bytes: 128 << 10,
            ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 4,
            write_policy: WritePolicy::WriteThrough,
            mshr_entries: 64,
        }
    }

    fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * self.line_bytes as u64)
    }

    fn sectors_per_line(&self) -> u32 {
        self.line_bytes / self.sector_bytes
    }
}

/// One memory access presented to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes; must not cross a line boundary.
    pub bytes: u32,
    /// Write?
    pub write: bool,
}

/// The sector-aligned fetch addresses produced by a miss, as a `Copy`
/// iterator over `(line address, sector mask)` instead of an allocated
/// `Vec<u64>` — producing one is free and iterating walks the set bits.
///
/// ```
/// # use m2ndp_cache::SectorFetches;
/// let f = SectorFetches::new(0x1000, 0b101, 32);
/// assert_eq!(f.len(), 2);
/// let addrs: Vec<u64> = f.into_iter().collect();
/// assert_eq!(addrs, vec![0x1000, 0x1040]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SectorFetches {
    line_addr: u64,
    mask: u32,
    sector_bytes: u32,
}

impl SectorFetches {
    /// Fetches for the sectors of `mask` within the line at `line_addr`.
    pub fn new(line_addr: u64, mask: u32, sector_bytes: u32) -> Self {
        Self {
            line_addr,
            mask,
            sector_bytes,
        }
    }

    /// Number of sector addresses.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether there is nothing to fetch.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Whether `addr` is one of the fetch addresses.
    pub fn contains(&self, addr: u64) -> bool {
        let base = self.line_addr;
        let span = self.sector_bytes as u64 * 32;
        if addr < base || addr >= base + span {
            return false;
        }
        let off = addr - base;
        off.is_multiple_of(self.sector_bytes as u64)
            && self.mask & (1 << (off / self.sector_bytes as u64)) != 0
    }

    /// The addresses as a fresh `Vec` (test/debug convenience; the hot path
    /// iterates directly).
    pub fn to_vec(&self) -> Vec<u64> {
        self.into_iter().collect()
    }
}

/// Two fetch sets are equal when they denote the same address sequence
/// (all empty sets are equal regardless of line).
impl PartialEq for SectorFetches {
    fn eq(&self, other: &Self) -> bool {
        self.mask == other.mask
            && (self.mask == 0
                || (self.line_addr == other.line_addr && self.sector_bytes == other.sector_bytes))
    }
}
impl Eq for SectorFetches {}

/// Iterates the sector addresses in ascending order, allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct SectorFetchIter {
    line_addr: u64,
    mask: u32,
    sector_bytes: u32,
}

impl Iterator for SectorFetchIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.mask == 0 {
            return None;
        }
        let s = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(self.line_addr + s as u64 * self.sector_bytes as u64)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.mask.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SectorFetchIter {}

impl IntoIterator for SectorFetches {
    type Item = u64;
    type IntoIter = SectorFetchIter;

    fn into_iter(self) -> SectorFetchIter {
        SectorFetchIter {
            line_addr: self.line_addr,
            mask: self.mask,
            sector_bytes: self.sector_bytes,
        }
    }
}

impl IntoIterator for &SectorFetches {
    type Item = u64;
    type IntoIter = SectorFetchIter;

    fn into_iter(self) -> SectorFetchIter {
        (*self).into_iter()
    }
}

/// Result of presenting an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheResult {
    /// All requested sectors present; data ready at `ready_at`.
    Hit {
        /// Cycle the data (or write acknowledgment) is available.
        ready_at: Cycle,
    },
    /// Missed, but an MSHR for the line already exists — the token was
    /// merged; no new downstream traffic needed.
    MergedMiss,
    /// Missed: the owner must fetch each address in `fetches`
    /// (sector-granularity reads) and later call `fill` for each. If
    /// allocating evicted a dirty victim, `writeback` carries the flush.
    Miss {
        /// Sector-aligned addresses to fetch downstream.
        fetches: SectorFetches,
        /// Dirty data to write downstream (address, bytes), if any.
        writeback: Option<(u64, u32)>,
    },
    /// Write-through forward: the write updated the line (if present) and
    /// must also be sent downstream. `ready_at` is when the store is locally
    /// complete (posted).
    WriteForward {
        /// Cycle the store retires locally.
        ready_at: Cycle,
    },
    /// No MSHR available; the owner must retry later.
    Stalled,
}

/// Aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: Counter,
    /// Demand misses that allocated a new MSHR.
    pub misses: Counter,
    /// Misses merged into an existing MSHR.
    pub merged: Counter,
    /// Write-through forwards.
    pub write_forwards: Counter,
    /// Dirty evictions.
    pub writebacks: Counter,
    /// Stalls due to MSHR exhaustion.
    pub stalls: Counter,
}

/// A line's state beside its tag. A line is valid exactly when its slot in
/// [`SectoredCache::tags`] holds a tag other than [`INVALID_TAG`].
#[derive(Debug, Clone)]
struct Line {
    valid_sectors: u32,
    dirty_sectors: u32,
    last_used: u64,
}

impl Line {
    const EMPTY: Self = Self {
        valid_sectors: 0,
        dirty_sectors: 0,
        last_used: 0,
    };
}

/// The tag of an invalid line. No line address equals it: lines are at
/// least 2 B and aligned, so every line address is even.
const INVALID_TAG: u64 = u64::MAX;

#[derive(Debug)]
struct MshrEntry<T> {
    line_addr: u64,
    pending_sectors: u32,
    waiters: Vec<(T, u32)>, // (token, sectors it needs)
    /// Next entry index in the same hash bucket ([`MSHR_NIL`] terminates).
    next: u32,
}

/// Chain terminator for the MSHR hash index.
const MSHR_NIL: u32 = u32::MAX;

/// A sectored, set-associative, MSHR-backed cache.
///
/// `T` is the owner's request token type (popped from [`Self::pop_ready`]
/// when fills complete).
///
/// Storage is two flat arrays indexed `set * ways + way` (better locality
/// than a `Vec<Vec<_>>` of sets and one less indirection per probe): the
/// packed `tags` that a probe scans, and the `lines` state it touches only
/// on a match or an allocation. MSHRs are found through a line-address hash
/// index rather than a linear scan. The address arithmetic is shifts and
/// masks fixed at construction.
#[derive(Debug)]
pub struct SectoredCache<T> {
    config: CacheConfig,
    /// Every line's tag, flat: `tags[set * ways .. (set + 1) * ways]` is
    /// one set, [`INVALID_TAG`] for an invalid line.
    tags: Vec<u64>,
    /// Every line's sector masks and LRU stamp, indexed like `tags`.
    lines: Vec<Line>,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two; `None` selects
    /// the modulo path.
    set_mask: Option<u64>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sector_bytes)`.
    sector_shift: u32,
    ways: usize,
    mshrs: Vec<MshrEntry<T>>,
    /// Hash buckets mapping a line address to a chain of `mshrs` indices.
    mshr_heads: Vec<u32>,
    ready: VecDeque<(Cycle, T)>,
    use_clock: u64,
    stats: CacheStats,
}

impl<T> SectoredCache<T> {
    /// Builds a cache from `config`.
    ///
    /// # Panics
    /// Panics if geometry is inconsistent (non-power-of-two line/sector
    /// sizes, lines under 2 B, zero sets, more than 32 sectors per line).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two());
        assert!(
            config.line_bytes >= 2,
            "a 1 B line could have the invalid tag"
        );
        assert!(config.sector_bytes.is_power_of_two());
        assert!(config.sector_bytes <= config.line_bytes);
        assert!(config.sectors_per_line() <= 32, "sector mask is a u32");
        let num_sets = config.sets();
        assert!(num_sets > 0, "cache must have at least one set");
        let ways = config.ways as usize;
        let lines = num_sets as usize * ways;
        // ~2x-load-factor bucket array keeps chains at length 0 or 1.
        let buckets = (config.mshr_entries.max(1) * 2).next_power_of_two();
        Self {
            tags: vec![INVALID_TAG; lines],
            lines: vec![Line::EMPTY; lines],
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            line_shift: config.line_bytes.trailing_zeros(),
            sector_shift: config.sector_bytes.trailing_zeros(),
            config,
            ways,
            mshrs: Vec::new(),
            mshr_heads: vec![MSHR_NIL; buckets],
            ready: VecDeque::new(),
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    /// The first `tags`/`lines` index of `line_addr`'s set.
    fn set_start(&self, line_addr: u64) -> usize {
        let block = line_addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => block & mask,
            None => block % self.num_sets,
        };
        set as usize * self.ways
    }

    /// Hash bucket for an MSHR line address (Fibonacci multiplicative hash;
    /// deterministic, unlike `std`'s seeded `HashMap`).
    fn mshr_bucket(&self, line_addr: u64) -> usize {
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.mshr_heads.len() - 1)
    }

    /// Index of the MSHR covering `line_addr`, if any.
    fn mshr_lookup(&self, line_addr: u64) -> Option<usize> {
        let mut cur = self.mshr_heads[self.mshr_bucket(line_addr)];
        while cur != MSHR_NIL {
            let e = &self.mshrs[cur as usize];
            if e.line_addr == line_addr {
                return Some(cur as usize);
            }
            cur = e.next;
        }
        None
    }

    /// Links the entry at `pos` (already pushed to `mshrs`) into the index.
    fn mshr_link(&mut self, pos: usize) {
        let bucket = self.mshr_bucket(self.mshrs[pos].line_addr);
        self.mshrs[pos].next = self.mshr_heads[bucket];
        self.mshr_heads[bucket] = pos as u32;
    }

    /// Unlinks the entry at `pos` from its bucket chain.
    fn mshr_unlink(&mut self, pos: usize) {
        let bucket = self.mshr_bucket(self.mshrs[pos].line_addr);
        let mut cur = self.mshr_heads[bucket];
        if cur == pos as u32 {
            self.mshr_heads[bucket] = self.mshrs[pos].next;
            return;
        }
        while cur != MSHR_NIL {
            let next = self.mshrs[cur as usize].next;
            if next == pos as u32 {
                self.mshrs[cur as usize].next = self.mshrs[pos].next;
                return;
            }
            cur = next;
        }
        unreachable!("MSHR entry must be linked in its bucket");
    }

    /// Removes and returns the MSHR entry at `pos`, keeping the index
    /// consistent across the `swap_remove`.
    fn mshr_remove(&mut self, pos: usize) -> MshrEntry<T> {
        self.mshr_unlink(pos);
        let last = self.mshrs.len() - 1;
        if pos != last {
            // The tail entry is about to move into `pos`: rewrite the one
            // pointer (bucket head or chain link) that referenced `last`.
            let moved_bucket = self.mshr_bucket(self.mshrs[last].line_addr);
            if self.mshr_heads[moved_bucket] == last as u32 {
                self.mshr_heads[moved_bucket] = pos as u32;
            } else {
                let mut cur = self.mshr_heads[moved_bucket];
                while cur != MSHR_NIL {
                    if self.mshrs[cur as usize].next == last as u32 {
                        self.mshrs[cur as usize].next = pos as u32;
                        break;
                    }
                    cur = self.mshrs[cur as usize].next;
                }
            }
        }
        self.mshrs.swap_remove(pos)
    }

    /// Bitmask of sectors within the line covered by `[addr, addr+bytes)`.
    fn sector_mask(&self, addr: u64, bytes: u32) -> u32 {
        let off = addr & (self.config.line_bytes as u64 - 1);
        let first = (off >> self.sector_shift) as u32;
        let last = ((off + bytes as u64 - 1) >> self.sector_shift) as u32;
        debug_assert!(
            last < self.config.sectors_per_line(),
            "access crosses a line boundary: addr {addr:#x} bytes {bytes}"
        );
        (u32::MAX >> (31 - last)) & (u32::MAX << first)
    }

    /// The valid line holding `line_addr`, found by scanning its set's
    /// packed tags.
    fn find_line(&mut self, line_addr: u64) -> Option<&mut Line> {
        let start = self.set_start(line_addr);
        let way = self.tags[start..start + self.ways]
            .iter()
            .position(|&t| t == line_addr)?;
        Some(&mut self.lines[start + way])
    }

    /// Presents one access. See [`CacheResult`] for the contract.
    pub fn access(&mut self, now: Cycle, access: Access, token: T) -> CacheResult {
        self.use_clock += 1;
        let clock = self.use_clock;
        let line_addr = self.line_addr(access.addr);
        let need = self.sector_mask(access.addr, access.bytes);
        let hit_latency = self.config.hit_latency;
        let policy = self.config.write_policy;

        if access.write {
            match policy {
                WritePolicy::WriteThrough => {
                    // Update present sectors; always forward downstream.
                    if let Some(line) = self.find_line(line_addr) {
                        line.valid_sectors |= need;
                        line.last_used = clock;
                    }
                    self.stats.write_forwards.inc();
                    return CacheResult::WriteForward {
                        ready_at: now + hit_latency,
                    };
                }
                WritePolicy::WriteBack => {
                    if let Some(line) = self.find_line(line_addr) {
                        line.valid_sectors |= need;
                        line.dirty_sectors |= need;
                        line.last_used = clock;
                        self.stats.hits.inc();
                        return CacheResult::Hit {
                            ready_at: now + hit_latency,
                        };
                    }
                    // Write-allocate: fall through to miss path below, but a
                    // full-sector write needs no fetch of its own sectors.
                }
            }
        } else if let Some(line) = self.find_line(line_addr) {
            if line.valid_sectors & need == need {
                line.last_used = clock;
                self.stats.hits.inc();
                return CacheResult::Hit {
                    ready_at: now + hit_latency,
                };
            }
            // Present line but missing sectors: sector miss.
        }

        // Miss path. Merge into an existing MSHR if one covers the line.
        if let Some(pos) = self.mshr_lookup(line_addr) {
            let entry = &mut self.mshrs[pos];
            let missing_new = need & !entry.pending_sectors;
            if missing_new == 0 {
                entry.waiters.push((token, need));
                self.stats.merged.inc();
                return CacheResult::MergedMiss;
            }
            // Needs sectors not already being fetched: extend the entry.
            entry.pending_sectors |= missing_new;
            entry.waiters.push((token, need));
            self.stats.misses.inc();
            return CacheResult::Miss {
                fetches: self.sector_addrs(line_addr, missing_new),
                writeback: None,
            };
        }

        if self.mshrs.len() >= self.config.mshr_entries {
            self.stats.stalls.inc();
            return CacheResult::Stalled;
        }

        // Allocate a line (victimize LRU).
        let writeback = self.allocate(line_addr, clock);

        // For a write-allocate write, the written sectors need no fetch.
        let fetch_mask = if access.write { 0 } else { need };
        let line = self
            .find_line(line_addr)
            .expect("line allocated just above");
        if access.write {
            line.valid_sectors |= need;
            line.dirty_sectors |= need;
        }

        self.stats.misses.inc();

        if fetch_mask == 0 {
            // Write-allocate without fetch completes locally.
            if writeback.is_some() {
                self.stats.writebacks.inc();
            }
            self.ready.push_back((now + hit_latency, token));
            return CacheResult::Miss {
                fetches: self.sector_addrs(line_addr, 0),
                writeback,
            };
        }

        self.mshrs.push(MshrEntry {
            line_addr,
            pending_sectors: fetch_mask,
            waiters: vec![(token, need)],
            next: MSHR_NIL,
        });
        self.mshr_link(self.mshrs.len() - 1);
        if writeback.is_some() {
            self.stats.writebacks.inc();
        }
        CacheResult::Miss {
            fetches: self.sector_addrs(line_addr, fetch_mask),
            writeback,
        }
    }

    /// The fetch set for `mask`'s sectors of the line at `line_addr` —
    /// a `Copy` descriptor, not an allocation (formerly a per-miss `Vec`).
    fn sector_addrs(&self, line_addr: u64, mask: u32) -> SectorFetches {
        SectorFetches::new(line_addr, mask, self.config.sector_bytes)
    }

    /// Allocates a line for `line_addr`, returning a dirty-victim writeback
    /// (addr, bytes) if one was evicted.
    fn allocate(&mut self, line_addr: u64, clock: u64) -> Option<(u64, u32)> {
        let start = self.set_start(line_addr);
        let tags = &mut self.tags[start..start + self.ways];
        let lines = &mut self.lines[start..start + self.ways];
        // First minimal element in way order — identical victim choice to
        // `min_by_key` over the old per-set `Vec`.
        let way = (0..self.ways)
            .min_by_key(|&w| {
                if tags[w] == INVALID_TAG {
                    0
                } else {
                    lines[w].last_used
                }
            })
            .expect("ways is non-empty");
        let victim = &mut lines[way];
        let wb = if tags[way] != INVALID_TAG && victim.dirty_sectors != 0 {
            let dirty = victim.dirty_sectors.count_ones() * self.config.sector_bytes;
            Some((tags[way], dirty))
        } else {
            None
        };
        tags[way] = line_addr;
        victim.valid_sectors = 0;
        victim.dirty_sectors = 0;
        victim.last_used = clock;
        wb
    }

    /// Delivers one fetched sector; completed waiters become poppable.
    pub fn fill(&mut self, now: Cycle, sector_addr: u64) {
        let line_addr = self.line_addr(sector_addr);
        let sector_bit = 1u32 << ((sector_addr - line_addr) >> self.sector_shift);
        if let Some(line) = self.find_line(line_addr) {
            line.valid_sectors |= sector_bit;
        }
        let Some(pos) = self.mshr_lookup(line_addr) else {
            return; // line was evicted while the fill was in flight
        };
        self.mshrs[pos].pending_sectors &= !sector_bit;
        if self.mshrs[pos].pending_sectors == 0 {
            let entry = self.mshr_remove(pos);
            let lat = self.config.hit_latency;
            for (token, _need) in entry.waiters {
                self.ready.push_back((now + lat, token));
            }
        }
    }

    /// Pops one token whose data became ready at or before `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        match self.ready.front() {
            Some((at, _)) if *at <= now => self.ready.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Earliest cycle a parked token becomes ready, for fast-forwarding.
    pub fn next_ready_cycle(&self) -> Option<Cycle> {
        self.ready.front().map(|(at, _)| *at)
    }

    /// Folds the cache's observable state into `fp`: every line's
    /// `(valid, tag, sector masks, LRU stamp)` in set/way order, the
    /// multiset of outstanding MSHR lines (physical MSHR order is a
    /// representation detail of the hash index), and the parked-ready
    /// schedule. Two caches fed the same access sequence fingerprint equal
    /// regardless of how lines or MSHRs are stored internally.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(self.lines.len() as u64);
        for (&tag, line) in self.tags.iter().zip(&self.lines) {
            if tag != INVALID_TAG {
                fp.mix(1);
                fp.mix(tag);
                fp.mix(u64::from(line.valid_sectors));
                fp.mix(u64::from(line.dirty_sectors));
                fp.mix(line.last_used);
            } else {
                fp.mix(0);
            }
        }
        fp.mix(self.mshrs.len() as u64);
        for entry in &self.mshrs {
            fp.mix_unordered(
                entry
                    .line_addr
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(entry.pending_sectors) << 16)
                    .wrapping_add(entry.waiters.len() as u64),
            );
        }
        fp.mix(self.ready.len() as u64);
        for &(at, _) in &self.ready {
            fp.mix(at);
        }
    }

    /// Number of in-use MSHR entries.
    pub fn mshr_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> SectoredCache<u32> {
        SectoredCache::new(CacheConfig::ndp_l1d())
    }

    fn rd(addr: u64, bytes: u32) -> Access {
        Access {
            addr,
            bytes,
            write: false,
        }
    }

    fn wr(addr: u64, bytes: u32) -> Access {
        Access {
            addr,
            bytes,
            write: true,
        }
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = l1();
        let r = c.access(0, rd(0x1000, 32), 1);
        let CacheResult::Miss { fetches, writeback } = r else {
            panic!("expected miss, got {r:?}");
        };
        assert_eq!(fetches.to_vec(), vec![0x1000]);
        assert!(writeback.is_none());
        c.fill(10, 0x1000);
        assert_eq!(c.pop_ready(10 + 4), Some(1));
        // Same sector now hits.
        assert!(matches!(
            c.access(20, rd(0x1000, 32), 2),
            CacheResult::Hit { ready_at: 24 }
        ));
    }

    #[test]
    fn only_requested_sectors_fetched() {
        let mut c = l1();
        // 64-byte read covering sectors 1 and 2 of line 0x1000.
        let r = c.access(0, rd(0x1020, 64), 1);
        let CacheResult::Miss { fetches, .. } = r else {
            panic!()
        };
        assert_eq!(fetches.to_vec(), vec![0x1020, 0x1040]);
    }

    #[test]
    fn second_miss_to_same_line_merges() {
        let mut c = l1();
        assert!(matches!(
            c.access(0, rd(0x2000, 32), 1),
            CacheResult::Miss { .. }
        ));
        assert!(matches!(
            c.access(1, rd(0x2000, 32), 2),
            CacheResult::MergedMiss
        ));
        c.fill(5, 0x2000);
        assert_eq!(c.pop_ready(9), Some(1));
        assert_eq!(c.pop_ready(9), Some(2));
        assert_eq!(c.stats().merged.get(), 1);
    }

    #[test]
    fn sector_miss_on_present_line_fetches_only_new_sector() {
        let mut c = l1();
        c.access(0, rd(0x3000, 32), 1);
        c.fill(2, 0x3000);
        assert_eq!(c.pop_ready(6), Some(1));
        let r = c.access(10, rd(0x3020, 32), 2);
        let CacheResult::Miss { fetches, .. } = r else {
            panic!("expected sector miss, got {r:?}")
        };
        assert_eq!(fetches.to_vec(), vec![0x3020]);
    }

    #[test]
    fn write_through_forwards_and_updates() {
        let mut c = l1();
        let r = c.access(0, wr(0x4000, 32), 1);
        assert!(matches!(r, CacheResult::WriteForward { ready_at: 4 }));
        // The write validated the sector only if the line was present; a
        // subsequent read of the same sector should still miss (no allocate).
        assert!(matches!(
            c.access(1, rd(0x4000, 32), 2),
            CacheResult::Miss { .. }
        ));
    }

    #[test]
    fn write_back_allocates_and_flushes_dirty_victim() {
        let mut c = SectoredCache::new(CacheConfig {
            capacity_bytes: 2 * 128, // 1 set, 2 ways
            ways: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 1,
            write_policy: WritePolicy::WriteBack,
            mshr_entries: 8,
        });
        // Write-allocate a full sector: no fetch needed.
        let r = c.access(0, wr(0x0, 32), 1);
        let CacheResult::Miss { fetches, writeback } = r else {
            panic!("{r:?}")
        };
        assert!(fetches.is_empty());
        assert!(writeback.is_none());
        assert_eq!(c.pop_ready(1), Some(1));
        // Fill both ways, then a third line evicts the dirty LRU.
        c.access(1, wr(0x1000, 32), 2);
        c.pop_ready(100);
        let r = c.access(2, wr(0x2000, 32), 3);
        let CacheResult::Miss { writeback, .. } = r else {
            panic!("{r:?}")
        };
        assert_eq!(writeback, Some((0x0, 32)));
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = SectoredCache::new(CacheConfig {
            mshr_entries: 2,
            ..CacheConfig::ndp_l1d()
        });
        assert!(matches!(
            c.access(0, rd(0x0, 32), 1),
            CacheResult::Miss { .. }
        ));
        assert!(matches!(
            c.access(0, rd(0x1000, 32), 2),
            CacheResult::Miss { .. }
        ));
        assert!(matches!(
            c.access(0, rd(0x2000, 32), 3),
            CacheResult::Stalled
        ));
        assert_eq!(c.stats().stalls.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = SectoredCache::new(CacheConfig {
            capacity_bytes: 2 * 128,
            ways: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 1,
            write_policy: WritePolicy::WriteBack,
            mshr_entries: 8,
        });
        // Load lines A and B.
        for (i, a) in [(1u32, 0x0u64), (2, 0x1000)] {
            c.access(0, rd(a, 32), i);
            c.fill(0, a);
            c.pop_ready(10);
        }
        // Touch A so B becomes LRU.
        assert!(matches!(
            c.access(20, rd(0x0, 32), 3),
            CacheResult::Hit { .. }
        ));
        // Allocate C; B must be evicted, so B now misses while A still hits.
        c.access(21, rd(0x2000, 32), 4);
        c.fill(22, 0x2000);
        c.pop_ready(30);
        assert!(matches!(
            c.access(31, rd(0x0, 32), 5),
            CacheResult::Hit { .. }
        ));
        assert!(matches!(
            c.access(32, rd(0x1000, 32), 6),
            CacheResult::Miss { .. }
        ));
    }
}
