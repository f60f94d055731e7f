//! OPT generation phase: one transformer decode step (Table V, \[143\]).
//!
//! Token generation is weight-streaming-bound: every step reads all weight
//! matrices once (GEMVs) plus the KV cache (attention). We simulate a
//! dimension-scaled transformer with the same operator mix — QKV projection,
//! per-head attention (scores → softmax → weighted sum), output projection
//! and the two FFN GEMVs — and extrapolate to the real OPT-2.7B/30B byte
//! counts in the benches (see the substitutions note in PAPER.md). Layernorms and
//! activation functions move no memory and are omitted.
//!
//! The GEMV kernel stages the input vector in the scratchpad (initializer),
//! then each µthread computes the 8 output elements mapped to its 32 B of
//! the output vector — the µthread pool region — streaming 8 weight rows.

use m2ndp_core::{CxlM2ndpDevice, KernelId, KernelSpec, LaunchArgs};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::assemble;

use crate::{programs, DATA_BASE};

/// Scaled transformer shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Hidden dimension H.
    pub hidden: u32,
    /// Attention heads (head_dim = H / heads, must divide).
    pub heads: u32,
    /// FFN inner dimension (4H in OPT).
    pub ffn: u32,
    /// Transformer layers simulated.
    pub layers: u32,
    /// KV-cache context length T.
    pub context: u32,
    /// Seed for weight derivation.
    pub seed: u64,
}

impl OptConfig {
    /// Head dimension.
    pub fn head_dim(&self) -> u32 {
        self.hidden / self.heads
    }

    /// Weight bytes one decode step streams in the *simulated* model.
    pub fn sim_weight_bytes(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn as u64;
        self.layers as u64 * (3 * h * h + h * h + f * h + h * f) * 4
    }

    /// Per-token weight bytes of the real model this stands in for
    /// (fp16), used to extrapolate runtimes in the benches.
    pub fn real_weight_bytes(real_hidden: u64, real_ffn: u64, real_layers: u64) -> u64 {
        real_layers
            * (3 * real_hidden * real_hidden
                + real_hidden * real_hidden
                + 2 * real_ffn * real_hidden)
            * 2
    }
}

/// Real OPT-30B per-token weight bytes (H=7168, FFN=28672, 48 layers).
pub fn opt_30b_real_bytes() -> u64 {
    OptConfig::real_weight_bytes(7168, 28672, 48)
}

/// Tensor-parallel sharding of one decode step across `devices` for the
/// multi-device fleet (§III-I): the FFN is column-sharded (each device
/// streams `ffn/N` inner rows) and the KV cache is context-sharded (each
/// device attends over `context/N` timesteps), so the dominant streamed
/// bytes scale as ~1/N while the QKV/output projections — whose `H×H`
/// weights every device needs for its partial sums — stay replicated. The
/// partial hidden states are then combined by a ring all-reduce through
/// the switch ([`tensor_parallel_allreduce_bytes`] per device), exactly
/// the transformer scaling structure Fig. 12b/§IV-D evaluates. Per-shard
/// seeds differ so devices stream distinct weights.
///
/// # Panics
/// Panics if `devices` is zero, does not divide `ffn`, or exceeds
/// `context`.
pub fn tensor_parallel(cfg: OptConfig, devices: u32) -> Vec<OptConfig> {
    assert!(devices > 0, "need at least one device");
    assert_eq!(cfg.ffn % devices, 0, "ffn must divide across devices");
    assert!(cfg.context >= devices, "context must cover every device");
    (0..devices)
        .map(|d| OptConfig {
            ffn: cfg.ffn / devices,
            context: cfg.context / devices,
            seed: cfg.seed ^ (u64::from(d) << 32),
            ..cfg
        })
        .collect()
}

/// Bytes each device contributes to the tensor-parallel ring all-reduce
/// per decode step: two full-hidden f32 reductions per layer (one after
/// the attention output projection, one after the FFN down-projection).
pub fn tensor_parallel_allreduce_bytes(cfg: &OptConfig) -> u64 {
    2 * u64::from(cfg.layers) * u64::from(cfg.hidden) * 4
}

/// Generated model + activation locations.
#[derive(Debug, Clone)]
pub struct OptData {
    /// Configuration.
    pub cfg: OptConfig,
    /// Per-layer weight bases: `[wqkv, wproj, w1, w2]` per layer.
    pub layer_weights: Vec<[u64; 4]>,
    /// Per-layer KV caches: (k_base, v_base), layout `[head][t][d]` f32.
    pub layer_kv: Vec<(u64, u64)>,
    /// Hidden-state buffer A (input).
    pub x_base: u64,
    /// QKV output (3H).
    pub qkv_base: u64,
    /// Attention scores (heads × T).
    pub scores_base: u64,
    /// Softmax scratch pool (heads × 32 B dummy region).
    pub softmax_pool: u64,
    /// Attention output (H).
    pub attn_base: u64,
    /// Projection output (H).
    pub proj_base: u64,
    /// FFN inner activation (ffn).
    pub ffn_base: u64,
    /// Hidden-state buffer B (output of the step).
    pub out_base: u64,
}

fn fill_f32(mem: &mut MainMemory, base: u64, count: u64, seed: u64) {
    let mut buf = Vec::with_capacity(4096);
    let mut addr = base;
    for i in 0..count {
        let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let v = ((h >> 40) as u16) as f32 / 65536.0 - 0.5;
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() == 4096 {
            mem.write_bytes(addr, &buf);
            addr += 4096;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        mem.write_bytes(addr, &buf);
    }
}

/// Generates weights, KV caches, and the input hidden state.
pub fn generate(cfg: OptConfig, mem: &mut MainMemory) -> OptData {
    let h = cfg.hidden as u64;
    let f = cfg.ffn as u64;
    let t = cfg.context as u64;
    let mut cursor = DATA_BASE + 0xA000_0000;
    let mut alloc = |bytes: u64| {
        let b = cursor;
        cursor += bytes + 4096;
        b
    };
    let mut layer_weights = Vec::new();
    let mut layer_kv = Vec::new();
    for l in 0..cfg.layers as u64 {
        let wqkv = alloc(3 * h * h * 4);
        let wproj = alloc(h * h * 4);
        let w1 = alloc(f * h * 4);
        let w2 = alloc(h * f * 4);
        fill_f32(mem, wqkv, 3 * h * h, cfg.seed ^ (l * 41));
        fill_f32(mem, wproj, h * h, cfg.seed ^ (l * 43));
        fill_f32(mem, w1, f * h, cfg.seed ^ (l * 47));
        fill_f32(mem, w2, h * f, cfg.seed ^ (l * 53));
        layer_weights.push([wqkv, wproj, w1, w2]);
        let k = alloc(h * t * 4);
        let v = alloc(h * t * 4);
        fill_f32(mem, k, h * t, cfg.seed ^ (l * 59));
        fill_f32(mem, v, h * t, cfg.seed ^ (l * 61));
        layer_kv.push((k, v));
    }
    let x_base = alloc(h * 4);
    fill_f32(mem, x_base, h, cfg.seed ^ 0x77);
    let qkv_base = alloc(3 * h * 4);
    let scores_base = alloc(cfg.heads as u64 * t * 4);
    let softmax_pool = alloc(cfg.heads as u64 * 32);
    let attn_base = alloc(h * 4);
    let proj_base = alloc(h * 4);
    let ffn_base = alloc(f * 4);
    let out_base = alloc(h * 4);
    OptData {
        cfg,
        layer_weights,
        layer_kv,
        x_base,
        qkv_base,
        scores_base,
        softmax_pool,
        attn_base,
        proj_base,
        ffn_base,
        out_base,
    }
}

/// GEMV kernel: `y = W @ x` with W row-major M×K. Pool region: y.
/// Initializer stages x into the scratchpad. User args: `[0]=w_base,
/// [1]=x_base, [2]=K (elements), [3]=M (rows), [4]=units`.
pub fn gemv_kernel() -> KernelSpec {
    let init = assemble(programs::GEMV_INIT).expect("gemv init assembles");
    let body = assemble(programs::GEMV_BODY).expect("gemv body assembles");
    KernelSpec::from_programs("gemv", Some(init), body, None, 128 << 10)
}

/// Attention-scores kernel. Pool region: the scores array (heads × T f32).
/// User args: `[0]=q_base, [1]=k_cache, [2]=T, [3]=head_dim,
/// [4]=inv_sqrt_d bits (f32)`.
pub fn scores_kernel() -> KernelSpec {
    let body = assemble(programs::ATTN_SCORES).expect("scores kernel assembles");
    KernelSpec::body_only("attn_scores", body)
}

/// Softmax kernel: one µthread per head normalizes that head's scores in
/// place. Pool region: heads × 32 B dummy. User args: `[0]=scores_base,
/// [1]=T`.
pub fn softmax_kernel() -> KernelSpec {
    let body = assemble(programs::ATTN_SOFTMAX).expect("softmax kernel assembles");
    KernelSpec::body_only("attn_softmax", body)
}

/// Weighted-sum kernel: `attn_out[h][d] = Σ_t p[h][t] · V[h][t][d]`.
/// Pool region: the attention output (H f32). User args: `[0]=scores_base
/// (now probabilities), [1]=v_cache, [2]=T, [3]=head_dim`.
pub fn weighted_sum_kernel() -> KernelSpec {
    let body = assemble(programs::ATTN_WSUM).expect("weighted sum kernel assembles");
    KernelSpec::body_only("attn_wsum", body)
}

/// Registered kernel ids for the decode step.
#[derive(Debug, Clone, Copy)]
pub struct OptKernels {
    /// GEMV kernel id.
    pub gemv: KernelId,
    /// Scores kernel id.
    pub scores: KernelId,
    /// Softmax kernel id.
    pub softmax: KernelId,
    /// Weighted-sum kernel id.
    pub wsum: KernelId,
}

impl OptKernels {
    /// Registers the four decode-step kernels on `dev`, in the order gemv,
    /// scores, softmax, wsum.
    pub fn register(dev: &mut CxlM2ndpDevice) -> Self {
        Self {
            gemv: dev.register_kernel(gemv_kernel()),
            scores: dev.register_kernel(scores_kernel()),
            softmax: dev.register_kernel(softmax_kernel()),
            wsum: dev.register_kernel(weighted_sum_kernel()),
        }
    }
}

/// The launch sequence for one decode step (run sequentially; each launch
/// depends on the previous one's output). `units` is the engine's unit
/// count (1 for TB-scoped GPU launches).
pub fn decode_step_launches(
    data: &OptData,
    k: &OptKernels,
    units: u32,
) -> Vec<(KernelId, LaunchArgs)> {
    let cfg = &data.cfg;
    let h = cfg.hidden as u64;
    let f = cfg.ffn as u64;
    let t = cfg.context as u64;
    let d = cfg.head_dim() as u64;
    let inv_sqrt_d = (1.0 / (d as f32).sqrt()).to_bits() as u64;
    let mut seq = Vec::new();
    let mut x = data.x_base;
    for l in 0..cfg.layers as usize {
        let [wqkv, wproj, w1, w2] = data.layer_weights[l];
        let (kc, vc) = data.layer_kv[l];
        // QKV projection: qkv = Wqkv @ x  (3H × H)
        seq.push((
            k.gemv,
            LaunchArgs::new(k.gemv, data.qkv_base, data.qkv_base + 3 * h * 4).with_args(vec![
                wqkv,
                x,
                h,
                3 * h,
                units as u64,
            ]),
        ));
        // Scores per head: q = qkv[0..H].
        seq.push((
            k.scores,
            LaunchArgs::new(
                k.scores,
                data.scores_base,
                data.scores_base + cfg.heads as u64 * t * 4,
            )
            .with_args(vec![data.qkv_base, kc, t, d, inv_sqrt_d]),
        ));
        // Softmax in place.
        seq.push((
            k.softmax,
            LaunchArgs::new(
                k.softmax,
                data.softmax_pool,
                data.softmax_pool + cfg.heads as u64 * 32,
            )
            .with_args(vec![data.scores_base, t]),
        ));
        // Weighted sum into attn_out.
        seq.push((
            k.wsum,
            LaunchArgs::new(k.wsum, data.attn_base, data.attn_base + h * 4).with_args(vec![
                data.scores_base,
                vc,
                t,
                d,
            ]),
        ));
        // Output projection.
        seq.push((
            k.gemv,
            LaunchArgs::new(k.gemv, data.proj_base, data.proj_base + h * 4).with_args(vec![
                wproj,
                data.attn_base,
                h,
                h,
                units as u64,
            ]),
        ));
        // FFN up.
        seq.push((
            k.gemv,
            LaunchArgs::new(k.gemv, data.ffn_base, data.ffn_base + f * 4).with_args(vec![
                w1,
                data.proj_base,
                h,
                f,
                units as u64,
            ]),
        ));
        // FFN down into the step output (also next layer's input).
        seq.push((
            k.gemv,
            LaunchArgs::new(k.gemv, data.out_base, data.out_base + h * 4).with_args(vec![
                w2,
                data.ffn_base,
                f,
                h,
                units as u64,
            ]),
        ));
        x = data.out_base;
    }
    seq
}

/// Host reference for the full decode step; returns the final hidden state.
pub fn reference(data: &OptData, mem: &MainMemory) -> Vec<f32> {
    let cfg = &data.cfg;
    let h = cfg.hidden as usize;
    let f = cfg.ffn as usize;
    let t = cfg.context as usize;
    let d = cfg.head_dim() as usize;
    let heads = cfg.heads as usize;
    let readv = |mem: &MainMemory, base: u64, n: usize| -> Vec<f32> {
        (0..n).map(|i| mem.read_f32(base + i as u64 * 4)).collect()
    };
    let gemv = |w: &[f32], x: &[f32], m: usize, k: usize| -> Vec<f32> {
        (0..m)
            .map(|r| (0..k).map(|j| w[r * k + j] * x[j]).sum())
            .collect()
    };
    let mut x = readv(mem, data.x_base, h);
    for l in 0..cfg.layers as usize {
        let [wqkv_b, wproj_b, w1_b, w2_b] = data.layer_weights[l];
        let (kc_b, vc_b) = data.layer_kv[l];
        let wqkv = readv(mem, wqkv_b, 3 * h * h);
        let qkv = gemv(&wqkv, &x, 3 * h, h);
        let q = &qkv[0..h];
        let kc = readv(mem, kc_b, h * t);
        let vc = readv(mem, vc_b, h * t);
        let mut attn = vec![0f32; h];
        for hd in 0..heads {
            let qh = &q[hd * d..(hd + 1) * d];
            let mut scores = vec![0f32; t];
            for ti in 0..t {
                let kr = &kc[hd * t * d + ti * d..hd * t * d + (ti + 1) * d];
                scores[ti] = qh.iter().zip(kr).map(|(a, b)| a * b).sum::<f32>() / (d as f32).sqrt();
            }
            let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for ti in 0..t {
                let p = exps[ti] / sum;
                for di in 0..d {
                    attn[hd * d + di] += p * vc[hd * t * d + ti * d + di];
                }
            }
        }
        let wproj = readv(mem, wproj_b, h * h);
        let proj = gemv(&wproj, &attn, h, h);
        let w1 = readv(mem, w1_b, f * h);
        let ffn1 = gemv(&w1, &proj, f, h);
        let w2 = readv(mem, w2_b, h * f);
        x = gemv(&w2, &ffn1, h, f);
    }
    x
}

/// Verifies the device-computed hidden state.
///
/// # Errors
/// Returns the first element out of tolerance.
pub fn verify(data: &OptData, mem: &MainMemory) -> Result<(), String> {
    let expect = reference(data, mem);
    for (i, &e) in expect.iter().enumerate() {
        let got = mem.read_f32(data.out_base + i as u64 * 4);
        let tol = 1e-2f32.max(e.abs() * 5e-3);
        if (got - e).abs() > tol {
            return Err(format!("hidden[{i}]: got {got}, expected {e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_byte_counts_match_model_sizes() {
        // 2.7B params × 2 B/param ≈ per-token weight reads (all layers).
        // OPT-2.7B: H=2560, FFN=10240, 32 layers.
        let b27 = OptConfig::real_weight_bytes(2560, 10240, 32) as f64;
        assert!((b27 / 2e9 - 2.7).abs() < 1.0, "2.7B: {b27}");
        let b30 = opt_30b_real_bytes() as f64;
        assert!((b30 / 2e9 - 30.0).abs() < 8.0, "30B: {b30}");
    }

    #[test]
    fn kernels_assemble() {
        assert!(gemv_kernel().static_instrs() > 10);
        assert!(scores_kernel().static_instrs() > 10);
        assert!(softmax_kernel().static_instrs() > 10);
        assert!(weighted_sum_kernel().static_instrs() > 5);
    }

    #[test]
    fn decode_step_has_seven_launches_per_layer() {
        let mut mem = MainMemory::new();
        let cfg = OptConfig {
            hidden: 64,
            heads: 4,
            ffn: 128,
            layers: 2,
            context: 16,
            seed: 1,
        };
        let data = generate(cfg, &mut mem);
        let ks = OptKernels {
            gemv: KernelId(0),
            scores: KernelId(1),
            softmax: KernelId(2),
            wsum: KernelId(3),
        };
        let seq = decode_step_launches(&data, &ks, 4);
        assert_eq!(seq.len(), 7 * 2);
    }

    #[test]
    fn tensor_parallel_shards_ffn_and_context() {
        let base = OptConfig {
            hidden: 256,
            heads: 8,
            ffn: 1024,
            layers: 2,
            context: 128,
            seed: 9,
        };
        let shards = tensor_parallel(base, 4);
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.ffn, 256);
            assert_eq!(s.context, 32);
            assert_eq!(
                s.hidden, base.hidden,
                "hidden stays full for the all-reduce"
            );
        }
        // Per-device streamed bytes shrink with the shard count.
        assert!(shards[0].sim_weight_bytes() < base.sim_weight_bytes());
        assert_eq!(tensor_parallel(base, 1)[0], base);
        // Two hidden-sized f32 reductions per layer.
        assert_eq!(tensor_parallel_allreduce_bytes(&base), 2 * 2 * 256 * 4);
    }

    #[test]
    fn reference_is_finite() {
        let mut mem = MainMemory::new();
        let cfg = OptConfig {
            hidden: 32,
            heads: 2,
            ffn: 64,
            layers: 1,
            context: 8,
            seed: 2,
        };
        let data = generate(cfg, &mut mem);
        let out = reference(&data, &mem);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!(out.iter().any(|v| *v != 0.0));
    }
}
