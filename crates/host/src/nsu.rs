//! The NSU prior-work model (\[81\] in the paper: "Toward standardized
//! near-data processing with unrestricted data placement for GPUs").
//!
//! NSU-style fine-grained NDP keeps the *host* responsible for translating
//! and generating every memory address the NDP logic touches; each offload
//! command carries its target addresses over the interconnect. For
//! data-intensive kernels the command stream itself saturates the CXL link,
//! which is why NSU underperforms even the passive-memory baseline on
//! average (§IV-C: the link "became the bottleneck due to all addresses
//! translated and sent from the host").

/// NSU cost model.
#[derive(Debug, Clone, Copy)]
pub struct NsuModel {
    /// CXL link bandwidth per direction (bytes/s).
    pub link_bw: f64,
    /// Device internal DRAM bandwidth (bytes/s).
    pub internal_bw: f64,
    /// Bytes of command traffic per NDP memory access (address + opcode
    /// metadata; 8 B address + 8 B descriptor).
    pub command_bytes_per_access: u32,
}

impl Default for NsuModel {
    fn default() -> Self {
        Self {
            link_bw: 64e9,
            internal_bw: 409.6e9,
            command_bytes_per_access: 16,
        }
    }
}

impl NsuModel {
    /// Runtime (seconds) to process a kernel that performs `accesses`
    /// NDP memory accesses moving `data_bytes` of device-internal data and
    /// returning `result_bytes` to the host.
    pub fn runtime_s(&self, accesses: u64, data_bytes: u64, result_bytes: u64) -> f64 {
        let command_time = (accesses * self.command_bytes_per_access as u64) as f64 / self.link_bw;
        let result_time = result_bytes as f64 / self.link_bw;
        let dram_time = data_bytes as f64 / self.internal_bw;
        (command_time + result_time).max(dram_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_stream_bottlenecks_fine_grained_access() {
        let m = NsuModel::default();
        // 32 B of data per access: command traffic (16 B) is half the data —
        // the link does 16 B of commands per 32 B of device-local work.
        let accesses = 1_000_000u64;
        let data = accesses * 32;
        let t = m.runtime_s(accesses, data, 0);
        let ideal_ndp = data as f64 / m.internal_bw;
        assert!(
            t > 3.0 * ideal_ndp,
            "NSU should be far from internal BW: {t} vs {ideal_ndp}"
        );
    }

    #[test]
    fn nsu_can_be_worse_than_baseline() {
        // When per-access data is small, shipping commands costs almost as
        // much as shipping the data: NSU ~ baseline or worse (Fig. 10c:
        // NSU 0.97× baseline on average).
        let m = NsuModel::default();
        let accesses = 1_000_000u64;
        let data = accesses * 16; // 16 B touched per access
        let nsu = m.runtime_s(accesses, data, 0);
        // The passive-CXL baseline moves the same data over the link.
        let baseline = data as f64 / m.link_bw;
        assert!(nsu >= baseline);
    }

    #[test]
    fn coarse_access_still_helps_nsu() {
        let m = NsuModel::default();
        // 1 KB per command amortizes the command stream.
        let accesses = 10_000u64;
        let data = accesses * 1024;
        let nsu = m.runtime_s(accesses, data, 0);
        // The passive-CXL baseline moves the same data over the link.
        let baseline = data as f64 / m.link_bw;
        assert!(nsu < baseline / 2.0);
    }
}
