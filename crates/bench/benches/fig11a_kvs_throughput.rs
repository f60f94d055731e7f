//! Fig. 11a: P95 latency–throughput curves of KVS_A under the three offload
//! mechanisms.

use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{self, ServeConfig, TenantSpec};
use m2ndp::sim::FHistogram;
use m2ndp_bench::runner::kvs_service_times_ns;
use m2ndp_bench::table::Table;

fn main() {
    let service = kvs_service_times_ns(100);
    let rates = [1e5, 3e5, 1e6, 3e6, 1e7, 3e7];
    let mut t = Table::new(vec![
        "offered (req/s)",
        "M2func P95 (us)",
        "CXL.io_DR P95 (us)",
        "CXL.io_RB P95 (us)",
    ]);
    let mut sat = [0.0f64; 3];
    for &rate in &rates {
        let mut cells = vec![format!("{rate:.0e}")];
        for (i, mech) in [
            OffloadMechanism::M2Func,
            OffloadMechanism::CxlIoDirect,
            OffloadMechanism::CxlIoRingBuffer,
        ]
        .iter()
        .enumerate()
        {
            let cfg = ServeConfig::with_defaults(*mech).drain_frac(0.0);
            let tenant = TenantSpec::poisson("kvs", rate).requests(8000).seed(7);
            let r = serve::replay(&service, &cfg, &[tenant]);
            // P95 over every request, warm-up included.
            let mut all = FHistogram::new();
            for rec in &r.records {
                all.record(rec.latency_ns());
            }
            let p = all.percentile(0.95) / 1e3;
            sat[i] = sat[i].max(r.throughput);
            // Curves blow past 15 us once saturated (as in the figure).
            cells.push(if p > 1e4 {
                ">10000".to_string()
            } else {
                format!("{p:.2}")
            });
        }
        t.row(cells);
    }
    t.print("Fig. 11a — KVS_A latency-throughput curves");
    println!(
        "sustained throughput: M2func {:.2e}/s vs direct MMIO {:.2e}/s = {:.1}x (paper: 47.3x)",
        sat[0],
        sat[1],
        sat[0] / sat[1]
    );
}
