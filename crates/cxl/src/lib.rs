//! CXL interconnect models: CXL.mem links, CXL.io transactions, the M²func
//! packet filter, back-invalidation, and the CXL switch.
//!
//! The reproduction models the protocol pieces §II-B/§II-C and §III rely on:
//!
//! * [`CxlLink`] — a CXL.mem port pair with per-direction bandwidth
//!   (64 GB/s from CXL 3.0 / PCIe 6.0 ×8, Table IV) and a one-way latency
//!   parameterized from the load-to-use figures (150/300/600 ns LtU);
//! * [`PacketKind`] — CXL.mem message kinds (M2S Req/RwD, S2M DRS/NDR,
//!   BISnp) and the one rule for their wire sizes: a link send is a kind
//!   and a payload size, nothing more;
//! * [`CxlIoModel`] — the µs-scale CXL.io/PCIe cost model for ring-buffer
//!   and direct-MMIO offloading (Fig. 5) and for DMA;
//! * [`PacketFilter`] — the M²func enabler at the device ingress: an
//!   18 B/process {base, bound, ASID} table that classifies incoming
//!   CXL.mem packets as normal accesses or M²func calls (§III-B);
//! * [`BackInvalidation`] — the HDM-DB device-coherence model used by the
//!   dirty-host-cache limit study (Fig. 13b);
//! * [`CxlSwitch`] — multi-device routing with direct P2P (§II-B) and the
//!   M²NDP-in-switch configuration (§III-J, Fig. 14b).

#![warn(missing_docs)]

pub mod bi;
pub mod filter;
pub mod io;
pub mod link;
pub mod packet;
pub mod switch;

pub use bi::BackInvalidation;
pub use filter::{FilterEntry, PacketFilter};
pub use io::CxlIoModel;
pub use link::{CxlLink, CxlLinkConfig};
pub use packet::PacketKind;
pub use switch::{CxlSwitch, HdmRouter, SwitchConfig, HDM_PAGE_BYTES};
