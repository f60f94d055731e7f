//! CXL.mem message types and wire sizes.
//!
//! CXL.mem defines master-to-subordinate (M2S) request channels and
//! subordinate-to-master (S2M) response channels; CXL 3.0's HDM-DB model
//! adds back-invalidation (BI) channels (§II-B). For bandwidth accounting we
//! charge each message its slot footprint inside the 256 B flits: 16 B for
//! header-only messages, header + one 64 B data slot per started 64 B of
//! payload for data-carrying ones.

/// Wire size of a header-only CXL.mem message (bytes).
pub const HEADER_BYTES: u32 = 16;
/// Payload carried by one data message (one cacheline).
pub const DATA_BYTES: u32 = 64;

/// Classification of a CXL.mem message for size accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// M2S Req — memory read request (header only).
    MemRead,
    /// M2S RwD — memory write with data.
    MemWrite,
    /// S2M DRS — data response.
    DataResponse,
    /// S2M NDR — no-data response (write completion).
    NoDataResponse,
    /// S2M BISnp — back-invalidation snoop to the host.
    BackInvSnoop,
}

impl PacketKind {
    /// Bytes a message of this kind occupies on the wire when it belongs to
    /// an access of `payload` bytes: the header alone for header-only
    /// kinds, plus one data slot per started 64 B (at least one) for
    /// data-carrying kinds.
    pub const fn wire_bytes(self, payload: u32) -> u32 {
        match self {
            PacketKind::MemWrite | PacketKind::DataResponse => {
                let slots = if payload == 0 {
                    1
                } else {
                    payload.div_ceil(DATA_BYTES)
                };
                HEADER_BYTES + slots * DATA_BYTES
            }
            PacketKind::MemRead | PacketKind::NoDataResponse | PacketKind::BackInvSnoop => {
                HEADER_BYTES
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_only_messages_are_16_bytes() {
        for payload in [0, 64, 128] {
            assert_eq!(PacketKind::MemRead.wire_bytes(payload), 16);
            assert_eq!(PacketKind::NoDataResponse.wire_bytes(payload), 16);
            assert_eq!(PacketKind::BackInvSnoop.wire_bytes(payload), 16);
        }
    }

    #[test]
    fn data_messages_carry_cacheline() {
        for kind in [PacketKind::DataResponse, PacketKind::MemWrite] {
            assert_eq!(kind.wire_bytes(64), 80);
            assert_eq!(kind.wire_bytes(32), 80);
            assert_eq!(kind.wire_bytes(0), 80);
            assert_eq!(kind.wire_bytes(128), 144);
        }
    }
}
