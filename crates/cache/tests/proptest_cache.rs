//! Property tests: the sectored cache never strands a request token and
//! fetches only what was asked for, and the packed-tag / hash-indexed
//! implementation stays fingerprint-equivalent to a naive nested-`Vec` +
//! linear-scan reference model on both write policies.

use m2ndp_cache::{Access, CacheConfig, CacheResult, SectoredCache, WritePolicy};
use m2ndp_sim::fingerprint::Fingerprint;
use proptest::prelude::*;

/// Naive reference model: per-set `Vec<Vec<Line>>` storage with a valid
/// flag beside each tag, linear-scan MSHRs and division/modulo address
/// arithmetic — the representation the optimized cache replaced. It
/// implements the same algorithm straight from the spec, write-through
/// forwarding and write-back write-allocate included, so fingerprint
/// equality proves the packed tags, shifts and hash index are a pure
/// representation change.
mod naive {
    use m2ndp_cache::{CacheConfig, WritePolicy};

    #[derive(Clone)]
    pub struct Line {
        pub tag: u64,
        pub valid_sectors: u32,
        pub dirty_sectors: u32,
        pub last_used: u64,
        pub valid: bool,
    }

    pub struct Cache {
        pub sets: Vec<Vec<Line>>,
        /// `(line_addr, pending_sectors, waiters)`, looked up by scan.
        pub mshrs: Vec<(u64, u32, Vec<usize>)>,
        pub ready: std::collections::VecDeque<(u64, usize)>,
        pub use_clock: u64,
        pub mshr_entries: usize,
        pub hit_latency: u64,
        pub line_bytes: u64,
        pub sector_bytes: u64,
        pub write_back: bool,
    }

    pub enum Result {
        Hit,
        Forward,
        Merged,
        Miss {
            fetch_mask: u32,
            writeback: Option<(u64, u32)>,
        },
        Stalled,
    }

    impl Cache {
        pub fn new(config: &CacheConfig) -> Self {
            let line_bytes = u64::from(config.line_bytes);
            let ways = config.ways as usize;
            let sets = config.capacity_bytes / (ways as u64 * line_bytes);
            let empty = Line {
                tag: 0,
                valid_sectors: 0,
                dirty_sectors: 0,
                last_used: 0,
                valid: false,
            };
            Self {
                sets: vec![vec![empty; ways]; sets as usize],
                mshrs: Vec::new(),
                ready: std::collections::VecDeque::new(),
                use_clock: 0,
                mshr_entries: config.mshr_entries,
                hit_latency: config.hit_latency,
                line_bytes,
                sector_bytes: u64::from(config.sector_bytes),
                write_back: config.write_policy == WritePolicy::WriteBack,
            }
        }

        fn set_of(&self, line_addr: u64) -> usize {
            ((line_addr / self.line_bytes) % self.sets.len() as u64) as usize
        }

        fn find(&mut self, line_addr: u64) -> Option<&mut Line> {
            let set = self.set_of(line_addr);
            self.sets[set]
                .iter_mut()
                .find(|l| l.valid && l.tag == line_addr)
        }

        pub fn access(
            &mut self,
            now: u64,
            addr: u64,
            bytes: u32,
            write: bool,
            token: usize,
        ) -> Result {
            self.use_clock += 1;
            let clock = self.use_clock;
            let line_addr = addr & !(self.line_bytes - 1);
            let first = ((addr - line_addr) / self.sector_bytes) as u32;
            let last = ((addr + bytes as u64 - 1 - line_addr) / self.sector_bytes) as u32;
            let need: u32 = (first..=last).fold(0, |m, s| m | (1 << s));
            let write_back = self.write_back;
            if write && !write_back {
                if let Some(line) = self.find(line_addr) {
                    line.valid_sectors |= need;
                    line.last_used = clock;
                }
                return Result::Forward;
            }
            if let Some(line) = self.find(line_addr) {
                if write {
                    line.valid_sectors |= need;
                    line.dirty_sectors |= need;
                    line.last_used = clock;
                    return Result::Hit;
                }
                if line.valid_sectors & need == need {
                    line.last_used = clock;
                    return Result::Hit;
                }
            }
            if let Some((_, pending, waiters)) =
                self.mshrs.iter_mut().find(|(la, _, _)| *la == line_addr)
            {
                let missing_new = need & !*pending;
                waiters.push(token);
                if missing_new == 0 {
                    return Result::Merged;
                }
                *pending |= missing_new;
                return Result::Miss {
                    fetch_mask: missing_new,
                    writeback: None,
                };
            }
            if self.mshrs.len() >= self.mshr_entries {
                return Result::Stalled;
            }
            let set = self.set_of(line_addr);
            let sector_bytes = self.sector_bytes as u32;
            let victim = self.sets[set]
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_used } else { 0 })
                .expect("ways non-empty");
            let writeback = (victim.valid && victim.dirty_sectors != 0)
                .then(|| (victim.tag, victim.dirty_sectors.count_ones() * sector_bytes));
            victim.tag = line_addr;
            victim.valid = true;
            victim.valid_sectors = 0;
            victim.dirty_sectors = 0;
            victim.last_used = clock;
            if write {
                // Write-allocate: the written sectors need no fetch.
                victim.valid_sectors |= need;
                victim.dirty_sectors |= need;
                self.ready.push_back((now + self.hit_latency, token));
                return Result::Miss {
                    fetch_mask: 0,
                    writeback,
                };
            }
            self.mshrs.push((line_addr, need, vec![token]));
            Result::Miss {
                fetch_mask: need,
                writeback,
            }
        }

        pub fn fill(&mut self, now: u64, sector_addr: u64) {
            let line_addr = sector_addr & !(self.line_bytes - 1);
            let bit = 1u32 << ((sector_addr - line_addr) / self.sector_bytes);
            if let Some(line) = self.find(line_addr) {
                line.valid_sectors |= bit;
            }
            let Some(pos) = self.mshrs.iter().position(|(la, _, _)| *la == line_addr) else {
                return;
            };
            self.mshrs[pos].1 &= !bit;
            if self.mshrs[pos].1 == 0 {
                let (_, _, waiters) = self.mshrs.remove(pos);
                for token in waiters {
                    self.ready.push_back((now + self.hit_latency, token));
                }
            }
        }

        pub fn pop_ready(&mut self, now: u64) -> Option<usize> {
            match self.ready.front() {
                Some((at, _)) if *at <= now => self.ready.pop_front().map(|(_, t)| t),
                _ => None,
            }
        }

        /// The reference fingerprint, encoding the same observable state
        /// the same way [`m2ndp_cache::SectoredCache::fingerprint`] does.
        pub fn fingerprint(&self) -> u64 {
            let mut fp = super::Fingerprint::new();
            fp.mix(self.sets.iter().map(Vec::len).sum::<usize>() as u64);
            for set in &self.sets {
                for line in set {
                    if line.valid {
                        fp.mix(1);
                        fp.mix(line.tag);
                        fp.mix(u64::from(line.valid_sectors));
                        fp.mix(u64::from(line.dirty_sectors));
                        fp.mix(line.last_used);
                    } else {
                        fp.mix(0);
                    }
                }
            }
            fp.mix(self.mshrs.len() as u64);
            for (line_addr, pending, waiters) in &self.mshrs {
                fp.mix_unordered(
                    line_addr
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(u64::from(*pending) << 16)
                        .wrapping_add(waiters.len() as u64),
                );
            }
            fp.mix(self.ready.len() as u64);
            for &(at, _) in &self.ready {
                fp.mix(at);
            }
            fp.value()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read access either hits or eventually pops out after its fills
    /// are delivered: no token is ever lost.
    #[test]
    fn no_token_stranded(addrs in prop::collection::vec(0u64..(1 << 16), 1..100)) {
        let mut cache: SectoredCache<usize> = SectoredCache::new(CacheConfig {
            mshr_entries: 256,
            ..CacheConfig::ndp_l1d()
        });
        let mut owed = 0usize;
        let mut now = 0u64;
        for (i, a) in addrs.iter().enumerate() {
            let addr = a & !31;
            match cache.access(now, Access { addr, bytes: 32, write: false }, i) {
                CacheResult::Hit { .. } => {}
                CacheResult::MergedMiss => owed += 1,
                CacheResult::Miss { fetches, .. } => {
                    owed += 1;
                    for f in fetches {
                        cache.fill(now, f);
                    }
                }
                CacheResult::Stalled => prop_assert!(false, "MSHRs sized to avoid stalls"),
                CacheResult::WriteForward { .. } => prop_assert!(false, "reads never forward"),
            }
            now += 1;
        }
        // Drain far in the future: everything owed must pop exactly once.
        let mut popped = 0;
        while cache.pop_ready(now + 10_000).is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, owed);
        prop_assert_eq!(cache.mshr_in_use(), 0);
    }

    /// Sector fetches are always within the accessed line and cover the
    /// requested bytes.
    #[test]
    fn fetches_cover_request(addr in 0u64..(1 << 20), len in 1u32..=32) {
        let mut cache: SectoredCache<u8> = SectoredCache::new(CacheConfig::ndp_l1d());
        let addr = (addr & !31).min((1 << 20) - 32);
        if let CacheResult::Miss { fetches, .. } =
            cache.access(0, Access { addr, bytes: len, write: false }, 0)
        {
            prop_assert!(!fetches.is_empty());
            let line = addr & !127;
            for f in &fetches {
                prop_assert!(f >= line && f < line + 128, "fetch {f:#x} outside line");
            }
            // The accessed sector itself must be fetched.
            prop_assert!(fetches.contains(addr & !31));
        }
    }

    /// Write-back caches never report a writeback for lines never written.
    #[test]
    fn clean_lines_never_write_back(addrs in prop::collection::vec(0u64..(1 << 14), 1..200)) {
        let mut cache: SectoredCache<usize> = SectoredCache::new(CacheConfig {
            capacity_bytes: 4 << 10, // small: force evictions
            ..CacheConfig::memside_l2_slice()
        });
        for (i, a) in addrs.iter().enumerate() {
            let addr = a & !31;
            if let CacheResult::Miss { fetches, writeback } =
                cache.access(i as u64, Access { addr, bytes: 32, write: false }, i)
            {
                prop_assert!(writeback.is_none(), "read-only stream wrote back");
                for f in fetches {
                    cache.fill(i as u64, f);
                }
                while cache.pop_ready(i as u64 + 100).is_some() {}
            }
        }
    }

}

// The reference-model law takes the default case count, so
// `PROPTEST_CASES` raises it (CI runs it at 4096).
proptest! {
    /// The optimized cache (packed tags, shift/mask or modulo set index,
    /// hash-indexed MSHRs) stays fingerprint-equivalent to the naive
    /// reference under random read/write/fill/pop interleavings, on both
    /// write policies and at power-of-two and other set counts: hits,
    /// merges, stalls, fetch sets, write-allocated dirty sectors and every
    /// dirty victim's writeback address and bytes agree.
    #[test]
    fn fingerprint_matches_naive_reference(
        write_back in 0u8..2,
        sets in 1u64..6,
        // (op kind, raw address, size selector); ops encoded as tuples
        // because the vendored proptest stub has no `prop_oneof`.
        ops in prop::collection::vec((0u8..5, 0u64..3072, 0u8..4), 1..150),
    ) {
        let config = CacheConfig {
            capacity_bytes: sets * 2 * 128, // 2 ways: plenty of conflicts
            ways: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 2,
            write_policy: if write_back == 1 {
                WritePolicy::WriteBack
            } else {
                WritePolicy::WriteThrough
            },
            mshr_entries: 3, // small: exercises the Stalled path
        };
        let mut opt: SectoredCache<usize> = SectoredCache::new(config.clone());
        let mut naive = naive::Cache::new(&config);
        let mut token = 0usize;
        for (step, (kind, raw, size)) in ops.into_iter().enumerate() {
            let now = step as u64;
            match kind {
                0..=2 => {
                    let write = kind == 2;
                    let bytes: u32 = [4, 32, 64, 128][size as usize];
                    let addr = raw & !(bytes as u64 - 1);
                    let got = opt.access(now, Access { addr, bytes, write }, token);
                    let want = naive.access(now, addr, bytes, write, token);
                    token += 1;
                    match (got, want) {
                        (CacheResult::Hit { ready_at }, naive::Result::Hit)
                        | (CacheResult::WriteForward { ready_at }, naive::Result::Forward) => {
                            prop_assert_eq!(ready_at, now + 2);
                        }
                        (CacheResult::MergedMiss, naive::Result::Merged)
                        | (CacheResult::Stalled, naive::Result::Stalled) => {}
                        (
                            CacheResult::Miss { fetches, writeback },
                            naive::Result::Miss { fetch_mask, writeback: want_wb },
                        ) => {
                            let line = addr & !127;
                            let want_addrs: Vec<u64> = (0..4)
                                .filter(|s| fetch_mask & (1 << s) != 0)
                                .map(|s| line + s * 32)
                                .collect();
                            prop_assert_eq!(fetches.to_vec(), want_addrs);
                            prop_assert_eq!(writeback, want_wb, "writeback at step {}", step);
                        }
                        (got, _) => prop_assert!(false, "result mismatch at step {step}: {got:?}"),
                    }
                }
                3 => {
                    let sector = raw & !31;
                    opt.fill(now, sector);
                    naive.fill(now, sector);
                }
                _ => {
                    prop_assert_eq!(opt.pop_ready(now), naive.pop_ready(now));
                }
            }
            let mut fp = Fingerprint::new();
            opt.fingerprint(&mut fp);
            prop_assert_eq!(fp.value(), naive.fingerprint(), "fingerprint diverged at step {}", step);
        }
    }
}
