//! CXL.mem message types and wire sizes.
//!
//! CXL.mem defines master-to-subordinate (M2S) request channels and
//! subordinate-to-master (S2M) response channels; CXL 3.0's HDM-DB model
//! adds back-invalidation (BI) channels (§II-B). For bandwidth accounting we
//! charge each message its slot footprint inside the 256 B flits: 16 B for
//! header-only messages, header + 64 B for data-carrying ones.

use m2ndp_mem::MemReq;

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
    /// M2S BIRsp — back-invalidation response from the host.
    BackInvResponse,
}

impl PacketKind {
    /// Bytes this message occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            PacketKind::MemRead
            | PacketKind::NoDataResponse
            | PacketKind::BackInvSnoop
            | PacketKind::BackInvResponse => HEADER_BYTES,
            PacketKind::MemWrite | PacketKind::DataResponse => HEADER_BYTES + DATA_BYTES,
        }
    }
}

/// A CXL.mem message in flight on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CxlMemPacket {
    /// Message kind (sets the wire size).
    pub kind: PacketKind,
    /// The memory request this message belongs to.
    pub req: MemReq,
}

impl CxlMemPacket {
    /// A read request for `req`.
    pub fn read(req: MemReq) -> Self {
        Self {
            kind: PacketKind::MemRead,
            req,
        }
    }

    /// A write (request-with-data) for `req`.
    pub fn write(req: MemReq) -> Self {
        Self {
            kind: PacketKind::MemWrite,
            req,
        }
    }

    /// The data response completing `req`.
    pub fn data_response(req: MemReq) -> Self {
        Self {
            kind: PacketKind::DataResponse,
            req,
        }
    }

    /// The no-data response completing a write `req`.
    pub fn ack(req: MemReq) -> Self {
        Self {
            kind: PacketKind::NoDataResponse,
            req,
        }
    }

    /// Wire footprint: header, plus one data slot per 64 B of payload for
    /// data-carrying messages.
    pub fn wire_bytes(&self) -> u32 {
        match self.kind {
            PacketKind::MemWrite | PacketKind::DataResponse => {
                HEADER_BYTES + self.req.bytes.div_ceil(DATA_BYTES).max(1) * DATA_BYTES
            }
            _ => self.kind.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_mem::ReqId;

    fn req(bytes: u32) -> MemReq {
        MemReq::read(ReqId(1), 0x1000, bytes)
    }

    #[test]
    fn header_only_messages_are_16_bytes() {
        assert_eq!(PacketKind::MemRead.wire_bytes(), 16);
        assert_eq!(PacketKind::NoDataResponse.wire_bytes(), 16);
        assert_eq!(PacketKind::BackInvSnoop.wire_bytes(), 16);
    }

    #[test]
    fn data_messages_carry_cacheline() {
        assert_eq!(CxlMemPacket::data_response(req(64)).wire_bytes(), 80);
        assert_eq!(CxlMemPacket::data_response(req(32)).wire_bytes(), 80);
        assert_eq!(CxlMemPacket::data_response(req(128)).wire_bytes(), 144);
    }
}
