//! KVStore: a simplified Redis serving GET/SET against a chained hash table
//! in CXL memory (Table V; §IV-B).
//!
//! The host computes the key hash (compute-intensive part stays on the
//! host, §IV-B), then offloads the table walk as a *fine-grained* NDP
//! kernel: bucket lookup, key comparison along the chain, and the 64 B
//! value copy. Tail latency is dominated by the offload mechanism, which is
//! exactly what Figs. 1b/10b/11a measure.
//!
//! Entry layout (128 B stride): key at +0 (24 B), next pointer at +24
//! (0 = end of chain), value at +32 (64 B).

use m2ndp_core::{KernelSpec, LaunchArgs};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::assemble;
use m2ndp_sim::rng::{seeded, Zipf};
use rand::Rng;

use crate::{programs, DATA_BASE};

/// Entry stride in the entry pool.
pub const ENTRY_STRIDE: u64 = 128;
/// Offset of the next pointer within an entry.
pub const NEXT_OFF: u64 = 24;
/// Offset of the value within an entry.
pub const VALUE_OFF: u64 = 32;
/// Value size (Table V: 64 B values, 24 B keys).
pub const VALUE_BYTES: u64 = 64;

/// KVStore configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Key-value items (paper: 10M).
    pub items: u64,
    /// Hash buckets.
    pub buckets: u64,
    /// GET fraction (KVS_A = 0.5, KVS_B = 0.95).
    pub get_ratio: f64,
    /// Requests in the trace (paper: 10K).
    pub requests: usize,
    /// Zipf skew of key popularity (YCSB default 0.99).
    pub zipf_theta: f64,
    /// Generator seed.
    pub seed: u64,
}

impl KvConfig {
    /// KVS_A (G50:S50), scaled item count.
    pub fn kvs_a_scaled() -> Self {
        Self {
            items: 200_000,
            buckets: 200_000,
            get_ratio: 0.5,
            requests: 10_000,
            zipf_theta: 0.99,
            seed: 0xCB5A,
        }
    }

    /// The paper's 10M-item store.
    pub fn paper_full(get_ratio: f64) -> Self {
        Self {
            items: 10_000_000,
            buckets: 10_000_000,
            get_ratio,
            requests: 10_000,
            zipf_theta: 0.99,
            seed: 0xCB5A,
        }
    }
}

/// One request in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRequest {
    /// Target item.
    pub item: u64,
    /// GET (true) or SET.
    pub get: bool,
}

/// Generated store + trace.
#[derive(Debug, Clone)]
pub struct KvData {
    /// Configuration.
    pub cfg: KvConfig,
    /// Bucket-head array base (u64 entry pointers; 0 = empty).
    pub buckets_base: u64,
    /// Entry pool base.
    pub entries_base: u64,
    /// Output area (one 128 B slot per in-flight request).
    pub output_base: u64,
    /// Scratch pool region for fine-grained kernels (one 32 B granule per
    /// concurrent request slot).
    pub pool_base: u64,
    /// Request trace.
    pub requests: Vec<KvRequest>,
    /// Chain position of each item (hops needed to find it).
    pub chain_pos: Vec<u32>,
}

fn key_words(item: u64) -> [u64; 3] {
    // 24-byte key derived from the item id (deterministic, distinct).
    let a = item.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let b = item.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ 0x1234_5678;
    let c = item ^ 0xDEAD_BEEF_CAFE_F00D;
    [a, b, c]
}

fn bucket_of(item: u64, buckets: u64) -> u64 {
    let k = key_words(item);
    let mut h = k[0] ^ k[1].rotate_left(17) ^ k[2].rotate_left(43);
    h ^= h >> 29;
    h % buckets
}

/// Builds the hash table and the YCSB-style request trace.
pub fn generate(cfg: KvConfig, mem: &mut MainMemory) -> KvData {
    let buckets_base = DATA_BASE + 0x8000_0000;
    let entries_base = buckets_base + cfg.buckets * 8 + 4096;
    let output_base = entries_base + cfg.items * ENTRY_STRIDE + 4096;
    let pool_base = output_base + 64 * ENTRY_STRIDE + 4096;

    for b in 0..cfg.buckets {
        mem.write_u64(buckets_base + b * 8, 0);
    }
    let mut chain_pos = vec![0u32; cfg.items as usize];
    for item in 0..cfg.items {
        let entry = entries_base + item * ENTRY_STRIDE;
        let k = key_words(item);
        mem.write_u64(entry, k[0]);
        mem.write_u64(entry + 8, k[1]);
        mem.write_u64(entry + 16, k[2]);
        // Push-front into the bucket chain.
        let b = bucket_of(item, cfg.buckets);
        let head = mem.read_u64(buckets_base + b * 8);
        mem.write_u64(entry + NEXT_OFF, head);
        mem.write_u64(buckets_base + b * 8, entry);
        // Value: recognizable pattern.
        for w in 0..(VALUE_BYTES / 8) {
            mem.write_u64(entry + VALUE_OFF + w * 8, item.wrapping_mul(1000) + w);
        }
    }
    // Chain position of item i = number of same-bucket items inserted after
    // it (push-front puts later insertions in front).
    let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for item in (0..cfg.items).rev() {
        let b = bucket_of(item, cfg.buckets);
        let deeper = seen.entry(b).or_insert(0);
        chain_pos[item as usize] = *deeper;
        *deeper += 1;
    }

    let mut rng = seeded(cfg.seed);
    let zipf = Zipf::new(cfg.items, cfg.zipf_theta);
    let requests = (0..cfg.requests)
        .map(|_| KvRequest {
            item: zipf.sample(&mut rng),
            get: rng.gen_bool(cfg.get_ratio),
        })
        .collect();

    KvData {
        cfg,
        buckets_base,
        entries_base,
        output_base,
        pool_base,
        requests,
        chain_pos,
    }
}

/// Builds the GET/SET kernel (one µthread). User args: `[0]=&bucket_head,
/// [1..=3]=key words, [4]=output slot addr, [5]=op (0 GET / 1 SET),
/// [6..=13]=value words for SET`.
///
/// A GET copies the 64 B value to the output slot and writes the entry
/// address at output+64; misses write 0 there. A SET overwrites the value
/// in place.
pub fn kernel() -> KernelSpec {
    let body = assemble(programs::KVSTORE_OP).expect("kvstore kernel assembles");
    KernelSpec::body_only("kvstore_op", body)
}

/// Launch for one request using output/pool slot `slot` (0..64).
pub fn launch(
    data: &KvData,
    kernel_id: m2ndp_core::KernelId,
    req: KvRequest,
    slot: u32,
    set_value_seed: u64,
) -> LaunchArgs {
    let b = bucket_of(req.item, data.cfg.buckets);
    let k = key_words(req.item);
    let out = data.output_base + slot as u64 * ENTRY_STRIDE;
    let pool = data.pool_base + slot as u64 * 32;
    let mut args = vec![
        data.buckets_base + b * 8,
        k[0],
        k[1],
        k[2],
        out,
        u64::from(!req.get),
    ];
    for w in 0..8 {
        args.push(set_value_seed.wrapping_add(w));
    }
    LaunchArgs::new(kernel_id, pool, pool + 32).with_args(args)
}

/// Host-side hash compute time per request (stays on the host, §IV-B).
pub const HOST_HASH_NS: f64 = 150.0;

/// Dependent CXL loads the *baseline* host performs for one request: bucket
/// head + one entry line per chain hop (key+next share a line) + one more
/// for the 64 B value.
pub fn baseline_hops(data: &KvData, req: KvRequest) -> u32 {
    2 + data.chain_pos[req.item as usize]
}

/// Verifies a GET output slot after the kernel ran.
///
/// # Errors
/// Describes the mismatch (not-found, or wrong value words).
pub fn verify_get(
    data: &KvData,
    mem: &MainMemory,
    req: KvRequest,
    slot: u32,
) -> Result<(), String> {
    let out = data.output_base + slot as u64 * ENTRY_STRIDE;
    let marker = mem.read_u64(out + 64);
    let expect_entry = data.entries_base + req.item * ENTRY_STRIDE;
    if marker != expect_entry {
        return Err(format!(
            "item {}: marker {marker:#x}, expected entry {expect_entry:#x}",
            req.item
        ));
    }
    for w in 0..(VALUE_BYTES / 8) {
        let got = mem.read_u64(out + w * 8);
        let want = mem.read_u64(expect_entry + VALUE_OFF + w * 8);
        if got != want {
            return Err(format!("item {} word {w}: {got} != {want}", req.item));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (KvData, MainMemory) {
        let mut mem = MainMemory::new();
        let data = generate(
            KvConfig {
                items: 2000,
                buckets: 1000,
                get_ratio: 0.5,
                requests: 100,
                zipf_theta: 0.9,
                seed: 3,
            },
            &mut mem,
        );
        (data, mem)
    }

    #[test]
    fn chains_reach_every_item() {
        let (data, mem) = small();
        for item in (0..data.cfg.items).step_by(97) {
            let b = bucket_of(item, data.cfg.buckets);
            let mut p = mem.read_u64(data.buckets_base + b * 8);
            let k = key_words(item);
            let mut found = false;
            let mut hops = 0;
            while p != 0 {
                if mem.read_u64(p) == k[0]
                    && mem.read_u64(p + 8) == k[1]
                    && mem.read_u64(p + 16) == k[2]
                {
                    found = true;
                    break;
                }
                p = mem.read_u64(p + NEXT_OFF);
                hops += 1;
                assert!(hops < 1000, "runaway chain");
            }
            assert!(found, "item {item} must be reachable");
            assert_eq!(hops, data.chain_pos[item as usize], "item {item}");
        }
    }

    #[test]
    fn trace_respects_get_ratio() {
        let (data, _) = small();
        let gets = data.requests.iter().filter(|r| r.get).count();
        let frac = gets as f64 / data.requests.len() as f64;
        assert!((frac - 0.5).abs() < 0.15, "get fraction {frac}");
    }

    #[test]
    fn baseline_hops_at_least_bucket_and_value() {
        let (data, _) = small();
        for &r in data.requests.iter().take(10) {
            assert!(baseline_hops(&data, r) >= 2);
        }
    }

    #[test]
    fn kernel_is_pointer_chasing_scalar_code() {
        let k = kernel();
        let vec_count = k.body.instrs().iter().filter(|i| i.is_vector()).count();
        // Only the 64 B value copy uses vectors.
        assert!(vec_count <= 6, "vector instrs {vec_count}");
        assert!(k.static_instrs() > 20);
    }

    #[test]
    fn distinct_items_have_distinct_keys() {
        let a = key_words(1);
        let b = key_words(2);
        assert_ne!(a, b);
    }
}
