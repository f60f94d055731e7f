//! LLM generation on the NDP device: one transformer decode step of a
//! scaled OPT model — GEMVs staged through the scratchpad, attention over
//! the KV cache, softmax on the vector SFU — with extrapolation to the real
//! OPT-30B per-token cost.
//!
//! ```text
//! cargo run --release --example llm_generation
//! ```

use m2ndp::workloads::opt;
use m2ndp::SystemBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut device = SystemBuilder::m2ndp().units(8).build();
    let cfg = opt::OptConfig {
        hidden: 512,
        heads: 8,
        ffn: 2048,
        layers: 1,
        context: 128,
        seed: 0x3000,
    };
    println!(
        "scaled OPT decode step: H={}, {} heads, FFN={}, {} layer(s), context {}",
        cfg.hidden, cfg.heads, cfg.ffn, cfg.layers, cfg.context
    );
    let data = opt::generate(cfg, device.memory_mut());
    let kernels = opt::OptKernels::register(&mut device);
    let units = device.config().engine.units;
    let start = device.now();
    for (i, (_k, launch)) in opt::decode_step_launches(&data, &kernels, units)
        .into_iter()
        .enumerate()
    {
        let inst = device.launch(launch)?;
        device.run_until_finished(inst);
        let _ = i;
    }
    let cycles = device.now() - start;
    opt::verify(&data, device.memory()).map_err(std::io::Error::other)?;

    let freq = device.config().engine.freq;
    let ns = freq.ns_from_cycles(cycles);
    let stats = device.stats();
    println!(
        "decode step: {} cycles ({:.0} us), DRAM {:.1} MB moved, hidden state verified",
        cycles,
        ns / 1e3,
        stats.dram_bytes as f64 / 1e6
    );

    // Extrapolate to the real OPT-30B: token generation is weight-streaming
    // bound, so per-token time scales with the weight bytes per token.
    let sim_bytes = cfg.sim_weight_bytes() as f64;
    let real_bytes = opt::opt_30b_real_bytes() as f64;
    let per_token_ms = ns * (real_bytes / sim_bytes) / 1e6;
    println!(
        "extrapolated OPT-30B per-token latency on one CXL-M2NDP: {:.1} ms \
         ({:.0} GB of weights at the achieved bandwidth)",
        per_token_ms,
        real_bytes / 1e9
    );
    println!("(the Fig. 12b bench scales this across 1-8 devices with tensor parallelism)");
    Ok(())
}
