//! KVStore tail latency: fine-grained GET kernels on the device, then the
//! offload-mechanism comparison of Fig. 10b.
//!
//! ```text
//! cargo run --release --example kvstore_tail_latency
//! ```

use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{self, ServeConfig, TenantSpec};
use m2ndp::sim::FHistogram;
use m2ndp::workloads::kvstore;
use m2ndp::SystemBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut device = SystemBuilder::m2ndp().units(2).build();
    let cfg = kvstore::KvConfig {
        items: 64 << 10,
        buckets: 32 << 10,
        get_ratio: 1.0,
        requests: 100,
        zipf_theta: 0.99,
        seed: 0xCB5A,
    };
    let data = kvstore::generate(cfg, device.memory_mut());
    let kid = device.register_kernel(kvstore::kernel());
    let freq = device.config().engine.freq;

    // Measure per-request kernel service times on the device.
    let mut service_ns = Vec::new();
    for (i, &req) in data.requests.clone().iter().enumerate() {
        let start = device.now();
        let inst = device.launch(kvstore::launch(&data, kid, req, (i % 64) as u32, 0))?;
        let done = device.run_until_finished(inst);
        service_ns.push(freq.ns_from_cycles(done - start));
        kvstore::verify_get(&data, device.memory(), req, (i % 64) as u32)
            .map_err(std::io::Error::other)?;
    }
    let mut kernel = FHistogram::new();
    for &ns in &service_ns {
        kernel.record(ns);
    }
    println!(
        "GET kernel runtime on the device: p50 {:.0} ns, p95 {:.0} ns (paper: 0.77 us P95)",
        kernel.percentile(0.5),
        kernel.percentile(0.95)
    );

    // End-to-end P95 under each offload mechanism at 1M req/s.
    println!("\nend-to-end P95 at 1M req/s:");
    for (label, mech) in [
        ("M2func           ", OffloadMechanism::M2Func),
        ("CXL.io ring buf  ", OffloadMechanism::CxlIoRingBuffer),
        ("CXL.io direct    ", OffloadMechanism::CxlIoDirect),
    ] {
        let cfg = ServeConfig::with_defaults(mech).drain_frac(0.0);
        let tenant = TenantSpec::poisson("kvs", 1.0e6).requests(10_000).seed(7);
        let r = serve::replay(&service_ns, &cfg, &[tenant]);
        // P95 over every request, warm-up included.
        let mut all = FHistogram::new();
        for rec in &r.records {
            all.record(rec.latency_ns());
        }
        println!(
            "  {label} P95 = {:>8.0} ns   throughput = {:.2e}/s",
            all.percentile(0.95),
            r.throughput
        );
    }
    println!("\nM2func keeps the launch overhead at 2 CXL.mem one-way latencies (150 ns),");
    println!("so the tail is dominated by the kernel itself, not the offload path (Fig. 10b).");
    Ok(())
}
