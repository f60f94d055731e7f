//! Property tests: DRAM controller liveness and conservation, address
//! mapping balance, functional-memory round trips, and the functional
//! memory's fixed-width and read-modify-write paths against a byte model.

use std::collections::{HashMap, HashSet};

use m2ndp_mem::{AddressMapping, DramConfig, DramDevice, MainMemory, MemReq, ReqId};
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
            .map(|(i, a)| MemReq::read(ReqId(i as u64), a & !31, 32))
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
            mem.update_u64(0x100, |old| old.wrapping_add(*v));
        }
        prop_assert_eq!(mem.read_u64(0x100), vals.iter().sum::<u64>());
    }
}

const PAGE: u64 = 4096;

/// Region bases whose page numbers differ only in high bits, so a page map
/// that buckets by low bits alone would pile them into the same chains.
/// `m2ndp_mem` sits below the crates that define them, so they are copied:
/// `m2ndp_workloads::DATA_BASE`, two units' scratchpad backing
/// (`m2ndp_cache::scratchpad::spad_backing_addr`, a 16 MiB stride) and
/// `m2ndp_core::tlb::DRAM_TLB_BASE`.
const REGION_BASES: [u64; 4] = [
    0x1_0000_0000,
    0x0100_0000_0000 + 0x100_0000,
    0x0100_0000_0000 + 2 * 0x100_0000,
    0x00F0_0000_0000,
];

/// An address within 16 B of a page edge in one of [`REGION_BASES`].
fn edge_addr(region: usize, page: u64, delta: i64) -> u64 {
    (REGION_BASES[region] + page * PAGE).wrapping_add_signed(delta)
}

/// The reference: one entry per written byte, absent bytes read zero.
#[derive(Default)]
struct ByteModel {
    bytes: HashMap<u64, u8>,
    pages: HashSet<u64>,
}

impl ByteModel {
    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.bytes.get(&(addr + i)).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            let a = addr + i as u64;
            self.bytes.insert(a, *b);
            self.pages.insert(a / PAGE);
        }
    }
}

/// The little-endian value of up to 8 bytes.
fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, b| v << 8 | u64::from(*b))
}

/// `mem`'s read of `width` bytes: a fixed-width accessor, or for
/// halfwords the byte-span path the interpreter uses.
fn read_width(mem: &MainMemory, addr: u64, width: usize) -> u64 {
    match width {
        1 => u64::from(mem.read_u8(addr)),
        2 => {
            let mut b = [0; 2];
            mem.read_bytes(addr, &mut b);
            u64::from(u16::from_le_bytes(b))
        }
        4 => u64::from(mem.read_u32(addr)),
        _ => mem.read_u64(addr),
    }
}

/// `mem`'s fixed-width write of the low `width` bytes of `v`.
fn write_width(mem: &mut MainMemory, addr: u64, width: usize, v: u64) {
    match width {
        1 => mem.write_u8(addr, v as u8),
        2 => mem.write_bytes(addr, &(v as u16).to_le_bytes()),
        4 => mem.write_u32(addr, v as u32),
        _ => mem.write_u64(addr, v),
    }
}

proptest! {
    /// Random fixed-width reads, writes and updates, and byte spans up to
    /// 64 B, at addresses near page edges in regions whose page numbers
    /// differ only in high bits, match a byte-per-entry model: same values,
    /// same old values from updates, and a page exists exactly when a write
    /// or update touched it.
    #[test]
    fn fixed_width_and_update_paths_match_a_byte_model(
        ops in prop::collection::vec(
            (
                (0usize..4, 1u64..4, -16i64..16),
                0u8..5,
                0u32..4,
                (any::<u64>(), 1usize..=64),
            ),
            1..64,
        ),
    ) {
        let mut mem = MainMemory::new();
        let mut model = ByteModel::default();
        for ((region, page, delta), kind, width_sel, (value, span)) in ops {
            let addr = edge_addr(region, page, delta);
            let width = 1usize << width_sel;
            match kind {
                0 => {
                    let want = le(&model.read(addr, width));
                    prop_assert_eq!(read_width(&mem, addr, width), want, "read_u{} at {:#x}", width * 8, addr);
                }
                1 => {
                    write_width(&mut mem, addr, width, value);
                    model.write(addr, &value.to_le_bytes()[..width]);
                }
                2 => {
                    let mut got = vec![0u8; span];
                    mem.read_bytes(addr, &mut got);
                    prop_assert_eq!(got, model.read(addr, span), "read_bytes({}) at {:#x}", span, addr);
                }
                3 => {
                    let data: Vec<u8> = (0..span as u64).map(|i| (value >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                    mem.write_bytes(addr, &data);
                    model.write(addr, &data);
                }
                _ => {
                    // Update at 4 or 8 bytes: add `value`, return the old.
                    let width = if width_sel < 2 { 4 } else { 8 };
                    let old = le(&model.read(addr, width));
                    let got = if width == 4 {
                        u64::from(mem.update_u32(addr, |v| v.wrapping_add(value as u32)))
                    } else {
                        mem.update_u64(addr, |v| v.wrapping_add(value))
                    };
                    prop_assert_eq!(got, old, "update_u{} old value at {:#x}", width * 8, addr);
                    let new = old.wrapping_add(value).to_le_bytes();
                    model.write(addr, &new[..width]);
                }
            }
            prop_assert_eq!(mem.resident_pages(), model.pages.len());
        }
        for (&addr, &b) in &model.bytes {
            prop_assert_eq!(mem.read_u8(addr), b, "byte at {:#x}", addr);
        }
    }
}
