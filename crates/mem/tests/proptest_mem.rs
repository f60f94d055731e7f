//! Property tests: DRAM controller liveness and conservation, address
//! mapping balance, functional-memory round trips.

use m2ndp_mem::{AddressMapping, DramConfig, DramDevice, MainMemory, MemReq, ReqId, ReqSource};
use m2ndp_sim::Frequency;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every enqueued request completes exactly once, whatever the address
    /// pattern, and never before the minimum CAS latency.
    #[test]
    fn dram_completes_every_request(addrs in prop::collection::vec(0u64..(1 << 28), 1..200)) {
        let mut dev = DramDevice::new(DramConfig::lpddr5_cxl(), Frequency::ghz(2.0));
        let mut pending: Vec<MemReq> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| MemReq::read(ReqId(i as u64), a & !31, 32, ReqSource::Host))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let total = pending.len();
        let mut now = 0;
        let mut done = 0;
        while done < total {
            while let Some(r) = pending.pop() {
                if let Err(r) = dev.enqueue(now, r) {
                    pending.push(r);
                    break;
                }
            }
            dev.tick(now);
            let mut duplicate = None;
            dev.drain_completed(now, |_, c| {
                if !seen.insert(c.id) {
                    duplicate = Some(c.id);
                }
                done += 1;
            });
            prop_assert!(duplicate.is_none(), "duplicate completion {:?}", duplicate);
            now += 1;
            prop_assert!(now < 2_000_000, "deadlock with {done}/{total}");
        }
        prop_assert_eq!(seen.len(), total);
    }

    /// The hashed interleave is a function (same address → same channel)
    /// and stays within range.
    #[test]
    fn mapping_is_stable_and_in_range(addr in any::<u64>()) {
        let m = AddressMapping::new(32, 4, 4, 256, 2048, true);
        let c1 = m.channel(addr);
        let c2 = m.channel(addr);
        prop_assert_eq!(c1, c2);
        prop_assert!(c1 < 32);
        let d = m.decompose(addr);
        prop_assert_eq!(d.channel, c1);
        prop_assert!(d.bankgroup < 4 && d.bank < 4);
    }

    /// A dense granule sweep never leaves any channel starved (balance).
    #[test]
    fn mapping_balances_dense_sweeps(start in 0u64..(1 << 20)) {
        let m = AddressMapping::new(8, 4, 4, 256, 2048, true);
        let mut counts = [0u32; 8];
        for g in 0..8 * 64u64 {
            counts[m.channel((start + g) * 256) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        prop_assert!(min > 0, "starved channel: {counts:?}");
    }

    /// Functional memory: arbitrary scatter of writes reads back exactly.
    #[test]
    fn main_memory_scatter_round_trip(writes in prop::collection::vec((0u64..(1 << 20), any::<u64>()), 1..64)) {
        let mut mem = MainMemory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, val) in &writes {
            let a = addr & !7;
            mem.write_u64(a, *val);
            model.insert(a, *val);
        }
        for (a, v) in model {
            prop_assert_eq!(mem.read_u64(a), v);
        }
    }

    /// AMO add sequences preserve the running total.
    #[test]
    fn amo_adds_accumulate(vals in prop::collection::vec(0u64..(1 << 32), 1..50)) {
        let mut mem = MainMemory::new();
        for v in &vals {
            mem.amo_add_u64(0x100, *v);
        }
        prop_assert_eq!(mem.read_u64(0x100), vals.iter().sum::<u64>());
    }
}
