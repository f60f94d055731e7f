//! The law behind routing DRAM completions by channel.
//!
//! The memory-side L2 has one slice per DRAM channel, and an access goes to
//! the slice of the channel its address maps to. The device hands a
//! completed DRAM read to the slice of the channel it completed on, so every
//! sector a slice fetches, and every writeback it evicts, must map to that
//! slice's own channel. These tests check that law for each memory system
//! the evaluation's platforms build, and that a device whose L2 line would
//! span two channels is rejected when it is built.

use m2ndp_cache::{Access, CacheResult, SectoredCache};
use m2ndp_core::{CxlM2ndpDevice, M2ndpConfig};
use m2ndp_mem::{DramConfig, DramDevice};
use proptest::prelude::*;

/// The memory systems the platforms build: the M²NDP and GPU-NDP devices
/// and the passive expander (LPDDR5), the GPU baseline's local HBM2, and the
/// in-switch NDP's pooled expanders (LPDDR5 with 32 channels per memory, up
/// to the switch's 8 ports). All of them use the memory-side L2 slice.
fn platform_memories() -> Vec<M2ndpConfig> {
    let lpddr5 = M2ndpConfig::default_device();
    let hbm2 = M2ndpConfig {
        dram: DramConfig::hbm2_gpu(),
        ..lpddr5.clone()
    };
    let mut memories = vec![lpddr5.clone(), hbm2];
    for pooled in 2..=8 {
        let mut cfg = lpddr5.clone();
        cfg.dram.channels *= pooled;
        cfg.dram.peak_bw_bytes_per_sec *= f64::from(pooled);
        memories.push(cfg);
    }
    memories
}

proptest! {
    /// A whole-line read miss in the slice that `addr` routes to fetches
    /// only sectors on that slice's channel, and once a store has dirtied
    /// the line, evicting it writes back only to that channel.
    #[test]
    fn an_l2_lines_fetches_and_writeback_stay_on_its_slices_channel(
        addr in 0u64..(1 << 38),
    ) {
        for cfg in platform_memories() {
            let dram = DramDevice::new(cfg.dram.clone(), cfg.engine.freq);
            let l2 = &cfg.l2_slice;
            let (line, sector) = (u64::from(l2.line_bytes), u64::from(l2.sector_bytes));
            let slice = dram.channel_of(addr);
            let base = addr - addr % line;
            let mut cache = SectoredCache::new(l2.clone());

            let read = Access { addr: base, bytes: l2.line_bytes, write: false };
            let CacheResult::Miss { fetches, .. } = cache.access(0, read, 0u32) else {
                panic!("a cold read must miss");
            };
            let fetched: Vec<u64> = fetches.into_iter().collect();
            prop_assert_eq!(fetched.len() as u64, line / sector);
            for &f in &fetched {
                prop_assert_eq!(dram.channel_of(f), slice, "{:#x} of line {:#x}", f, base);
                cache.fill(1, f);
            }
            let store = Access { addr, bytes: 1, write: true };
            prop_assert!(matches!(cache.access(2, store, 1), CacheResult::Hit { .. }));

            // Stores to `ways` other lines of the same set evict the line.
            let sets = l2.capacity_bytes / (u64::from(l2.ways) * line);
            let mut writebacks = Vec::new();
            for k in 1..=u64::from(l2.ways) {
                let other = Access { addr: base + k * sets * line, bytes: l2.sector_bytes, write: true };
                if let CacheResult::Miss { writeback: Some(wb), .. } = cache.access(2 + k, other, 2) {
                    writebacks.push(wb);
                }
            }
            prop_assert_eq!(writebacks.len(), 1);
            let (wb_addr, wb_bytes) = writebacks[0];
            prop_assert_eq!(wb_addr, base);
            prop_assert_eq!(dram.channel_of(wb_addr), slice);
            prop_assert_eq!(dram.channel_of(wb_addr + u64::from(wb_bytes) - 1), slice);
        }
    }
}

#[test]
fn every_platform_memory_is_accepted() {
    for mut cfg in platform_memories() {
        cfg.engine.units = 1;
        CxlM2ndpDevice::new(cfg);
    }
}

#[test]
#[should_panic(expected = "would span two 256 B channel-interleave granules")]
fn a_device_whose_l2_line_spans_two_channels_is_rejected() {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 1;
    cfg.l2_slice.line_bytes = 512;
    CxlM2ndpDevice::new(cfg);
}
