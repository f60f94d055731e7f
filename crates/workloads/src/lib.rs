//! The eight workload families of Table V: data generators, M²NDP assembly
//! kernels, host-baseline cost inputs, and functional verification.
//!
//! Every module follows the same shape:
//!
//! * a `*Config` with a `default_scaled()` (seconds-scale simulation) and,
//!   where meaningful, the paper's full parameters;
//! * `generate(&cfg, &mut MainMemory) -> *Data` placing the inputs into the
//!   functional memory at documented bases;
//! * kernel builders returning [`m2ndp_core::KernelSpec`]s plus
//!   [`m2ndp_core::LaunchArgs`];
//! * `verify(...)` comparing device results against a host-computed
//!   reference — run by the integration tests for every family;
//! * traffic/op summaries feeding the analytic host-CPU baselines.
//!
//! Kernels are written in assembly, as in the paper (§IV-B: "the kernels
//! were implemented with assembly").

#![warn(missing_docs)]

pub mod dlrm;
pub mod graph;
pub mod histo;
pub mod kvstore;
pub mod olap;
pub mod opt;
pub mod programs;
pub mod spmv;

/// Base address where workload input/output arrays are placed (device HDM).
pub const DATA_BASE: u64 = 0x1_0000_0000;

/// Catalog entry describing one Table V workload for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Workload name.
    pub name: &'static str,
    /// Host baseline platform ("CPU" or "GPU", Table V's B column).
    pub baseline: &'static str,
    /// Input description (paper parameters).
    pub input: &'static str,
    /// What lives in CXL memory.
    pub cxl_data: &'static str,
}

/// The Table V workload inventory.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "OLAP",
            baseline: "CPU",
            input: "TPC-H (Q6, Q14), SSB (Q1.1, Q1.2, Q1.3)",
            cxl_data: "Arrow columnar format table",
        },
        CatalogEntry {
            name: "KVStore",
            baseline: "CPU",
            input: "24B key, 64B value, 10M KV items",
            cxl_data: "Hash table with key-value pairs",
        },
        CatalogEntry {
            name: "HISTO",
            baseline: "GPU",
            input: "16M INT32 elem., 256 or 4096 bins",
            cxl_data: "Input array",
        },
        CatalogEntry {
            name: "SPMV",
            baseline: "GPU",
            input: "28924 nodes, 1036208 edges",
            cxl_data: "Sparse CSR matrix, dense vector",
        },
        CatalogEntry {
            name: "PGRANK",
            baseline: "GPU",
            input: "299067 nodes, 1955352 edges",
            cxl_data: "CSR format graph",
        },
        CatalogEntry {
            name: "SSSP",
            baseline: "GPU",
            input: "264346 nodes, 733846 edges",
            cxl_data: "CSR format graph",
        },
        CatalogEntry {
            name: "DLRM",
            baseline: "GPU",
            input: "1M 256-dim vectors, 256 req.",
            cxl_data: "Embedding table",
        },
        CatalogEntry {
            name: "OPT",
            baseline: "GPU",
            input: "OPT-30B, OPT-2.7B, generation w/ context 1024",
            cxl_data: "Model weight, activation",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_table_v() {
        let names: Vec<_> = catalog().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec!["OLAP", "KVStore", "HISTO", "SPMV", "PGRANK", "SSSP", "DLRM", "OPT"]
        );
        assert!(catalog()
            .iter()
            .all(|e| e.baseline == "CPU" || e.baseline == "GPU"));
    }
}
