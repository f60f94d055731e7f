//! The flat functional memory shared by every model.
//!
//! `MainMemory` is a sparse, page-granular byte store. Host models, the NDP
//! executor and workload generators all read and write the same instance, so
//! functional results are exact regardless of which timing model ran the
//! code. Every fixed-width access inside one page costs one page-map probe:
//! reads, writes, and the read-modify-write [`MainMemory::update_u32`] /
//! [`MainMemory::update_u64`] that back the RISC-V AMO instructions (through
//! `m2ndp_riscv::exec::amo_on_memory`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;

/// Deterministic hasher for page numbers (Fibonacci multiplicative hash).
///
/// The product's high half is folded into its low half: the table picks a
/// bucket from the low bits, and the workload data, the per-unit
/// scratchpad backing and the DRAM-TLB regions start at page numbers that
/// differ only in high bits. Keys are simulated addresses, so std's seeded
/// SipHash, which resists crafted collisions, buys nothing here.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Sparse functional byte store with 4 KiB pages.
///
/// Reads of never-written memory return zeros, matching freshly-allocated
/// device memory. A page is created by the first write that touches it.
///
/// # Example
///
/// ```
/// use m2ndp_mem::MainMemory;
/// let mut m = MainMemory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u32(0x2000), 0); // untouched memory reads zero
/// assert_eq!(m.update_u32(0x1000, |v| v + 1), 0xdead_beef); // returns old
/// assert_eq!(m.read_u32(0x1000), 0xdead_bef0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Offset of `addr` in its page when `N` bytes from it stay inside
    /// that page.
    fn in_page<const N: usize>(addr: u64) -> Option<usize> {
        let off = (addr & PAGE_MASK) as usize;
        (off + N <= PAGE_SIZE).then_some(off)
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = addr + done as u64;
            let off = (cur & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            match self.pages.get(&(cur >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let cur = addr + done as u64;
            let off = (cur & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            self.page_mut(cur)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads `N` bytes: one probe when they stay inside a page.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut b = [0u8; N];
        match Self::in_page::<N>(addr) {
            Some(off) => {
                if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                    b.copy_from_slice(&p[off..off + N]);
                }
            }
            None => self.read_bytes(addr, &mut b),
        }
        b
    }

    /// Writes `N` bytes: one probe when they stay inside a page.
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, b: [u8; N]) {
        match Self::in_page::<N>(addr) {
            Some(off) => self.page_mut(addr)[off..off + N].copy_from_slice(&b),
            None => self.write_bytes(addr, &b),
        }
    }

    /// Replaces the `N` bytes at `addr` with `f(old)` and returns `old`:
    /// one probe when they stay inside a page.
    #[inline]
    fn update_array<const N: usize>(
        &mut self,
        addr: u64,
        f: impl FnOnce([u8; N]) -> [u8; N],
    ) -> [u8; N] {
        match Self::in_page::<N>(addr) {
            Some(off) => {
                let bytes = &mut self.page_mut(addr)[off..off + N];
                let mut old = [0u8; N];
                old.copy_from_slice(bytes);
                bytes.copy_from_slice(&f(old));
                old
            }
            None => {
                let old = self.read_array(addr);
                self.write_array(addr, f(old));
                old
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        u8::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Reads an f32.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Writes an f32.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Read-modify-write of a little-endian u32: stores `f(old)` and
    /// returns `old`.
    pub fn update_u32(&mut self, addr: u64, f: impl FnOnce(u32) -> u32) -> u32 {
        u32::from_le_bytes(self.update_array(addr, |b| f(u32::from_le_bytes(b)).to_le_bytes()))
    }

    /// Read-modify-write of a little-endian u64: stores `f(old)` and
    /// returns `old`.
    pub fn update_u64(&mut self, addr: u64, f: impl FnOnce(u64) -> u64) -> u64 {
        u64::from_le_bytes(self.update_array(addr, |b| f(u64::from_le_bytes(b)).to_le_bytes()))
    }

    /// Number of touched pages (memory footprint of the simulation itself).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        assert_eq!(m.read_u64(0xdead_0000), 0);
    }

    #[test]
    fn cross_page_read_write() {
        let mut m = MainMemory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn widths_are_little_endian_consistent() {
        let mut m = MainMemory::new();
        m.write_u32(16, 0xa1b2_c3d4);
        assert_eq!(m.read_u8(16), 0xd4);
        assert_eq!(m.read_u32(17), 0xa1b2c3);
        assert_eq!(m.read_u8(19), 0xa1);
    }

    #[test]
    fn float_round_trips() {
        let mut m = MainMemory::new();
        m.write_f32(0, 3.5);
        m.write_f64(8, -2.25);
        assert_eq!(m.read_f32(0), 3.5);
        assert_eq!(f64::from_bits(m.read_u64(8)), -2.25);
    }

    #[test]
    fn amo_add_returns_old() {
        let mut m = MainMemory::new();
        m.write_u64(0, 10);
        assert_eq!(m.update_u64(0, |v| v.wrapping_add(5)), 10);
        assert_eq!(m.read_u64(0), 15);
    }

    #[test]
    fn amo_min_keeps_smaller() {
        let mut m = MainMemory::new();
        m.write_u64(0, 100u64);
        let min = |rhs: i64| move |v: u64| (v as i64).min(rhs) as u64;
        m.update_u64(0, min(42));
        assert_eq!(m.read_u64(0), 42);
        m.update_u64(0, min(99));
        assert_eq!(m.read_u64(0), 42);
    }

    #[test]
    fn bulk_round_trip() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        m.write_bytes(12345, &data);
        let mut back = vec![0u8; data.len()];
        m.read_bytes(12345, &mut back);
        assert_eq!(data, back);
    }
}
