//! Cache models for the M²NDP reproduction.
//!
//! Three structures cover every cache in the evaluated systems (Table IV):
//!
//! * [`SectoredCache`] — a set-associative cache with sectored lines
//!   (128 B line / 32 B sector for the NDP and GPU L1Ds and the memory-side
//!   L2), LRU replacement, MSHR-based miss handling, and configurable
//!   write-through/write-back policy. The paper adopts the GPU cache
//!   hierarchy for the NDP device (§III-F): write-through L1D in the NDP
//!   units and a memory-side L2 in front of each memory controller that also
//!   performs global atomics.
//! * [`Scratchpad`] — the NDP unit's on-chip scratchpad, whose scope spans
//!   *all* µthreads on a unit (advantage A3 over CUDA's threadblock-scoped
//!   shared memory); carries an atomic-capable LSU port and traffic
//!   statistics used by Fig. 6b.
//! * MSHR bookkeeping is internal to [`SectoredCache`]; parked request
//!   tokens pop out of [`SectoredCache::pop_ready`] once their fills land.

#![warn(missing_docs)]

pub mod scratchpad;
pub mod sectored;

pub use scratchpad::Scratchpad;
pub use sectored::{
    Access, CacheConfig, CacheResult, CacheStats, SectorFetchIter, SectorFetches, SectoredCache,
    WritePolicy,
};
