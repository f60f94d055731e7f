//! Fig. 11b: M²func's benefit when CXL.io is granted the *same* 600 ns
//! latency as CXL.mem — the protocol-level advantage is removed, leaving
//! only the fewer-round-trips advantage.

use m2ndp::cxl::CxlIoModel;
use m2ndp::cxl::CxlLinkConfig;
use m2ndp::host::offload::{OffloadMechanism, OffloadModel};
use m2ndp::host::serve::{self, ServeConfig, TenantSpec};
use m2ndp_bench::runner::kvs_service_times_ns;
use m2ndp_bench::table::Table;

fn main() {
    // Equalize: both protocols at 600 ns load-to-use (300 ns one-way).
    let link = CxlLinkConfig::default_150ns().with_ltu_scale(4.0);
    let io = CxlIoModel::with_one_way_ns(300.0);
    let m2 = OffloadModel::new(OffloadMechanism::M2Func, link, io);
    let rb = OffloadModel::new(OffloadMechanism::CxlIoRingBuffer, link, io);
    let dr = OffloadModel::new(OffloadMechanism::CxlIoDirect, link, io);

    // Latency view: short kernels representative of the figure's workloads.
    let mut t = Table::new(vec![
        "workload (kernel z)",
        "CXL.io_RB",
        "CXL.io_DR",
        "M2func",
        "M2func gain vs RB",
    ]);
    for (name, z_ns) in [
        ("SPMV (9 us)", 9000.0),
        ("PGRANK (40 us)", 40_000.0),
        ("SSSP (30 us)", 30_000.0),
        ("KVS_A (0.77 us)", 770.0),
        ("DLRM-B4 (6.4 us)", 6400.0),
    ] {
        let e_rb = rb.end_to_end_ns(z_ns);
        let e_dr = dr.end_to_end_ns(z_ns);
        let e_m2 = m2.end_to_end_ns(z_ns);
        t.row(vec![
            name.to_string(),
            format!("{:.1} us", e_rb / 1e3),
            format!("{:.1} us", e_dr / 1e3),
            format!("{:.1} us", e_m2 / 1e3),
            format!("{:.0}%", (1.0 - e_m2 / e_rb) * 100.0),
        ]);
    }
    t.print(
        "Fig. 11b — equal 600 ns latency for CXL.io and CXL.mem (paper: up to 63%, 12.1% overall)",
    );

    // Throughput view: M2func/RB support concurrency, DR does not.
    let service = kvs_service_times_ns(100);
    let throughput = |model: OffloadModel| {
        let mut cfg = ServeConfig::with_defaults(model.mechanism()).drain_frac(0.0);
        cfg.model = model;
        let tenant = TenantSpec::poisson("kvs", 3e7).requests(8000).seed(3);
        serve::replay(&service, &cfg, &[tenant]).throughput
    };
    let m2_thr = throughput(m2);
    let dr_thr = throughput(dr);
    println!(
        "KVS_A throughput: M2func {:.2e}/s vs CXL.io_DR {:.2e}/s = {:.1}x (paper: 47.3x)",
        m2_thr,
        dr_thr,
        m2_thr / dr_thr
    );
}
