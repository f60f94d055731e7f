//! DRAM timing model and functional memory for the M²NDP reproduction.
//!
//! This crate is the Ramulator-equivalent substrate the paper's simulator is
//! built on (§IV-A): per-channel DRAM controllers with FR-FCFS scheduling,
//! bank/bankgroup state and the Table IV timing parameters, plus the 256 B
//! hashed channel interleaving the paper assumes for CXL memory.
//!
//! Two preset organizations mirror Table IV:
//!
//! * [`DramConfig::lpddr5_cxl`] — 32-channel LPDDR5, 409.6 GB/s, the CXL
//!   expander's internal memory,
//! * [`DramConfig::hbm2_gpu`] — 32-channel HBM2, the baseline GPU's local
//!   memory.
//!
//! Timing is modeled in the *owner's* clock domain (the device or host clock)
//! by converting the DRAM-clock parameters at construction; scheduling is
//! "analytic on pick": when FR-FCFS selects a request the controller computes
//! its command/data timeline against the bank-state gates and the channel
//! data-bus [`BandwidthGate`](m2ndp_sim::BandwidthGate), which preserves the
//! row-locality and bank-parallelism effects the evaluation depends on
//! (e.g. GPU-NDP(16×FLOPS) losing row locality in §IV-C).
//!
//! The crate also provides [`MainMemory`], the single flat *functional* store
//! shared by all models — timing flows through request tokens, never through
//! the data.

#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod dram;
pub mod main_memory;
pub mod mapping;
pub mod req;

pub use config::{DramConfig, DramTiming};
pub use controller::DramChannel;
pub use dram::DramDevice;
pub use main_memory::MainMemory;
pub use mapping::AddressMapping;
pub use req::{MemReq, ReqId, ReqIdAllocator};
