//! Memory request tokens.
//!
//! A [`MemReq`] is the unit of communication through the timing path:
//! NDP-unit LSU → L1D/scratchpad → NoC → memory-side L2 slice → DRAM
//! controller, and back. The token carries its id, address, size and
//! direction only; responses are routed by where they complete (a DRAM
//! completion on channel `c` fills L2 slice `c`), and functional data lives
//! in [`MainMemory`](crate::MainMemory).

/// Unique identifier for an in-flight memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A memory request token flowing through the timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Unique id; responses carry the same id.
    pub id: ReqId,
    /// Physical byte address.
    pub addr: u64,
    /// Transfer size in bytes (32 or 64 for DRAM-granularity accesses).
    pub bytes: u32,
    /// Whether this is a write (true) or read (false).
    pub write: bool,
}

impl MemReq {
    /// Creates a read request.
    pub fn read(id: ReqId, addr: u64, bytes: u32) -> Self {
        Self {
            id,
            addr,
            bytes,
            write: false,
        }
    }

    /// Creates a write request.
    pub fn write(id: ReqId, addr: u64, bytes: u32) -> Self {
        Self {
            id,
            addr,
            bytes,
            write: true,
        }
    }
}

/// Hands out unique request ids.
#[derive(Debug, Default, Clone)]
pub struct ReqIdAllocator(u64);

impl ReqIdAllocator {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh id.
    pub fn alloc(&mut self) -> ReqId {
        let id = ReqId(self.0);
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut a = ReqIdAllocator::new();
        let x = a.alloc();
        let y = a.alloc();
        assert_ne!(x, y);
        assert!(x < y);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(ReqId(7).to_string(), "req#7");
    }
}
