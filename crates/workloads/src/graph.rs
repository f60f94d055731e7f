//! Graph analytics: PGRANK (PageRank) and SSSP from Pannotia \[34\]
//! (Table V).
//!
//! PGRANK runs pull-style over the *reverse* CSR: two kernels per
//! iteration — K1 computes per-vertex contributions `rank[u]/outdeg[u]`
//! (dense, vector divide) and K2 gathers in-neighbor contributions per
//! vertex (irregular; the Fig. 6a occupancy subject). SSSP is Bellman-Ford
//! with `amomin`-based relaxation and uses the multi-body kernel feature of
//! §III-G: each body iteration re-spawns all µthreads, giving the
//! inter-iteration synchronization the algorithm needs.

use m2ndp_core::{KernelSpec, LaunchArgs};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::assemble;
use m2ndp_sim::rng::seeded;
use rand::Rng;

use crate::{programs, DATA_BASE};

/// Graph generation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// Vertices.
    pub nodes: u64,
    /// Directed edges.
    pub edges: u64,
    /// Generator seed.
    pub seed: u64,
}

impl GraphConfig {
    /// Seconds-scale default preserving the paper's degree shape (~6.5).
    pub fn default_scaled() -> Self {
        Self {
            nodes: 16 << 10,
            edges: 106 << 10,
            seed: 0x6247,
        }
    }
}

/// A generated graph in CSR and reverse-CSR form plus algorithm arrays.
#[derive(Debug, Clone, Copy)]
pub struct GraphData {
    /// Configuration.
    pub cfg: GraphConfig,
    /// Forward CSR row pointers (i64, nodes+1).
    pub row_ptr_base: u64,
    /// Forward CSR column indices (i32).
    pub col_base: u64,
    /// Edge weights (i32, for SSSP).
    pub weight_base: u64,
    /// Reverse CSR row pointers (i64, nodes+1).
    pub rrow_ptr_base: u64,
    /// Reverse CSR column indices (i32).
    pub rcol_base: u64,
    /// Rank array (f32) — PGRANK state.
    pub rank_base: u64,
    /// Out-degree array (f32, for the contribution divide).
    pub outdeg_base: u64,
    /// Contribution array (f32).
    pub contrib_base: u64,
    /// New-rank output (f32).
    pub new_rank_base: u64,
    /// Distance array (i64) — SSSP state.
    pub dist_base: u64,
}

/// "Infinite" distance sentinel for SSSP.
pub const INF: i64 = i64::MAX / 2;

/// Generates a random directed graph with skewed degrees (a few hubs),
/// builds forward + reverse CSR, and initializes algorithm arrays
/// (rank = 1/N; dist = INF except source 0).
pub fn generate(cfg: GraphConfig, mem: &mut MainMemory) -> GraphData {
    let mut rng = seeded(cfg.seed);
    let n = cfg.nodes as usize;

    // Degree-skewed edge list: hub vertices (~1%) attract extra edges.
    let mut fwd: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    let hubs = (n / 100).max(1);
    for _ in 0..cfg.edges {
        let src = rng.gen_range(0..n);
        let dst = if rng.gen_bool(0.3) {
            rng.gen_range(0..hubs)
        } else {
            rng.gen_range(0..n)
        };
        let w = rng.gen_range(1..64u32);
        fwd[src].push((dst as u32, w));
        rev[dst].push(src as u32);
    }

    let base = DATA_BASE + 0x2000_0000;
    let row_ptr_base = base;
    let col_base = row_ptr_base + (cfg.nodes + 1) * 8 + 4096;
    let weight_base = col_base + cfg.edges * 4 + 4096;
    let rrow_ptr_base = weight_base + cfg.edges * 4 + 4096;
    let rcol_base = rrow_ptr_base + (cfg.nodes + 1) * 8 + 4096;
    let rank_base = rcol_base + cfg.edges * 4 + 4096;
    let outdeg_base = rank_base + cfg.nodes * 4 + 4096;
    let contrib_base = outdeg_base + cfg.nodes * 4 + 4096;
    let new_rank_base = contrib_base + cfg.nodes * 4 + 4096;
    let dist_base = new_rank_base + cfg.nodes * 4 + 4096;

    let mut off = 0u64;
    for (v, adj) in fwd.iter().enumerate() {
        mem.write_u64(row_ptr_base + v as u64 * 8, off);
        for (c, w) in adj {
            mem.write_u32(col_base + off * 4, *c);
            mem.write_u32(weight_base + off * 4, *w);
            off += 1;
        }
    }
    mem.write_u64(row_ptr_base + cfg.nodes * 8, off);

    let mut roff = 0u64;
    for (v, adj) in rev.iter().enumerate() {
        mem.write_u64(rrow_ptr_base + v as u64 * 8, roff);
        for c in adj {
            mem.write_u32(rcol_base + roff * 4, *c);
            roff += 1;
        }
    }
    mem.write_u64(rrow_ptr_base + cfg.nodes * 8, roff);

    let init_rank = 1.0f32 / cfg.nodes as f32;
    for v in 0..cfg.nodes {
        mem.write_f32(rank_base + v * 4, init_rank);
        // outdeg as f32, clamped to 1 to keep the divide defined (dangling
        // vertices contribute their rank to themselves, a common choice).
        let deg = fwd[v as usize].len().max(1) as f32;
        mem.write_f32(outdeg_base + v * 4, deg);
        mem.write_f32(contrib_base + v * 4, 0.0);
        mem.write_f32(new_rank_base + v * 4, 0.0);
        mem.write_u64(dist_base + v * 8, INF as u64);
    }
    mem.write_u64(dist_base, 0); // source vertex 0

    GraphData {
        cfg,
        row_ptr_base,
        col_base,
        weight_base,
        rrow_ptr_base,
        rcol_base,
        rank_base,
        outdeg_base,
        contrib_base,
        new_rank_base,
        dist_base,
    }
}

// ----- PGRANK -----

/// PGRANK damping factor.
pub const DAMPING: f32 = 0.85;

/// K1: contrib\[v\] = rank\[v\] / outdeg\[v\] (dense vector kernel).
/// Pool region: the contrib array. User args: `[0]=rank, [1]=outdeg,
/// [2]=contrib` bases.
pub fn pgrank_contrib_kernel() -> KernelSpec {
    let body = assemble(programs::PGRANK_CONTRIB).expect("pgrank contrib assembles");
    KernelSpec::body_only("pgrank_contrib", body)
}

/// K2 (the "main kernel" of Fig. 6a): gathers in-neighbour contributions.
/// Pool region: the reverse row-pointer array (4 vertices per µthread).
/// User args: `[0]=rcol, [1]=contrib, [2]=new_rank, [3]=nodes,
/// [4]=base_term_bits (f32), [5]=damping_bits (f32)`.
pub fn pgrank_gather_kernel() -> KernelSpec {
    let body = assemble(programs::PGRANK_GATHER).expect("pgrank gather assembles");
    KernelSpec::body_only("pgrank_gather", body)
}

/// Launch pair for one PGRANK iteration.
pub fn pgrank_launches(
    data: &GraphData,
    contrib_kid: m2ndp_core::KernelId,
    gather_kid: m2ndp_core::KernelId,
) -> (LaunchArgs, LaunchArgs) {
    let base_term = (1.0 - DAMPING) / data.cfg.nodes as f32;
    let k1 = LaunchArgs::new(
        contrib_kid,
        data.contrib_base,
        data.contrib_base + data.cfg.nodes * 4,
    )
    .with_args(vec![data.rank_base, data.outdeg_base, data.contrib_base]);
    let k2 = LaunchArgs::new(
        gather_kid,
        data.rrow_ptr_base,
        data.rrow_ptr_base + data.cfg.nodes * 8,
    )
    .with_args(vec![
        data.rcol_base,
        data.contrib_base,
        data.new_rank_base,
        data.cfg.nodes,
        base_term.to_bits() as u64,
        DAMPING.to_bits() as u64,
    ]);
    (k1, k2)
}

/// Host-reference PGRANK iteration.
pub fn pgrank_reference(data: &GraphData, mem: &MainMemory) -> Vec<f32> {
    let n = data.cfg.nodes;
    let mut contrib = vec![0f32; n as usize];
    for v in 0..n {
        contrib[v as usize] =
            mem.read_f32(data.rank_base + v * 4) / mem.read_f32(data.outdeg_base + v * 4);
    }
    let mut new_rank = vec![0f32; n as usize];
    for v in 0..n {
        let s = mem.read_u64(data.rrow_ptr_base + v * 8);
        let e = mem.read_u64(data.rrow_ptr_base + (v + 1) * 8);
        let mut acc = 0f32;
        for k in s..e {
            let u = mem.read_u32(data.rcol_base + k * 4) as u64;
            acc += contrib[u as usize];
        }
        new_rank[v as usize] = DAMPING * acc + (1.0 - DAMPING) / n as f32;
    }
    new_rank
}

/// Verifies the device-computed new ranks.
///
/// # Errors
/// Returns the first vertex out of tolerance.
pub fn pgrank_verify(data: &GraphData, mem: &MainMemory) -> Result<(), String> {
    let expect = pgrank_reference(data, mem);
    for (v, &e) in expect.iter().enumerate() {
        let got = mem.read_f32(data.new_rank_base + v as u64 * 4);
        let tol = 1e-4f32.max(e.abs() * 1e-3);
        if (got - e).abs() > tol {
            return Err(format!("vertex {v}: got {got}, expected {e}"));
        }
    }
    Ok(())
}

// ----- SSSP -----

/// The SSSP relaxation kernel (multi-body: launch with
/// `body_iterations = K`). Pool region: the forward row-pointer array.
/// User args: `[0]=col, [1]=weight, [2]=dist, [3]=nodes`.
pub fn sssp_kernel() -> KernelSpec {
    let body = assemble(programs::SSSP).expect("sssp kernel assembles");
    KernelSpec::body_only("sssp", body)
}

/// SSSP launch with `iterations` Bellman-Ford sweeps.
pub fn sssp_launch(
    data: &GraphData,
    kernel_id: m2ndp_core::KernelId,
    iterations: u32,
) -> LaunchArgs {
    LaunchArgs::new(
        kernel_id,
        data.row_ptr_base,
        data.row_ptr_base + data.cfg.nodes * 8,
    )
    .with_args(vec![
        data.col_base,
        data.weight_base,
        data.dist_base,
        data.cfg.nodes,
    ])
    .with_iterations(iterations)
}

/// Dijkstra reference distances from vertex 0.
pub fn sssp_reference(data: &GraphData, mem: &MainMemory) -> Vec<i64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = data.cfg.nodes as usize;
    let mut dist = vec![INF; n];
    dist[0] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0i64, 0usize)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        let s = mem.read_u64(data.row_ptr_base + v as u64 * 8);
        let e = mem.read_u64(data.row_ptr_base + (v as u64 + 1) * 8);
        for k in s..e {
            let c = mem.read_u32(data.col_base + k * 4) as usize;
            let w = mem.read_u32(data.weight_base + k * 4) as i64;
            if d + w < dist[c] {
                dist[c] = d + w;
                heap.push(Reverse((dist[c], c)));
            }
        }
    }
    dist
}

/// Verifies device distances. The device ran `iterations` parallel sweeps;
/// with enough sweeps (≥ graph hop-diameter from the source) the result
/// equals true shortest paths, which is what we check.
///
/// # Errors
/// Returns the first mismatching vertex.
pub fn sssp_verify(data: &GraphData, mem: &MainMemory) -> Result<(), String> {
    let expect = sssp_reference(data, mem);
    for (v, &e) in expect.iter().enumerate() {
        let got = mem.read_u64(data.dist_base + v as u64 * 8) as i64;
        if got != e {
            return Err(format!("vertex {v}: got {got}, expected {e}"));
        }
    }
    Ok(())
}

/// Number of Bellman-Ford sweeps until fixpoint on this graph (the right
/// bound for `body_iterations`: weighted shortest paths can use more hops
/// than the unweighted BFS radius).
pub fn bellman_ford_sweeps_needed(data: &GraphData, mem: &MainMemory) -> u32 {
    // Jacobi-style sweeps (relaxations read the previous sweep's values):
    // a conservative bound for the parallel kernel, whose concurrent
    // µthreads see at least the previous iteration's distances.
    let n = data.cfg.nodes as usize;
    let mut dist = vec![INF; n];
    dist[0] = 0;
    let mut sweeps = 0;
    loop {
        let prev = dist.clone();
        let mut changed = false;
        for (v, &dv) in prev.iter().enumerate() {
            if dv >= INF {
                continue;
            }
            let s = mem.read_u64(data.row_ptr_base + v as u64 * 8);
            let e = mem.read_u64(data.row_ptr_base + (v as u64 + 1) * 8);
            for k in s..e {
                let c = mem.read_u32(data.col_base + k * 4) as usize;
                let w = mem.read_u32(data.weight_base + k * 4) as i64;
                if dv + w < dist[c] {
                    dist[c] = dv + w;
                    changed = true;
                }
            }
        }
        sweeps += 1;
        if !changed {
            return sweeps;
        }
        assert!(sweeps < n as u32 + 2, "BF must converge in |V| sweeps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (GraphData, MainMemory) {
        let mut mem = MainMemory::new();
        let data = generate(
            GraphConfig {
                nodes: 512,
                edges: 3000,
                seed: 11,
            },
            &mut mem,
        );
        (data, mem)
    }

    #[test]
    fn csr_and_reverse_agree_on_edge_count() {
        let (data, mem) = small();
        let fwd = mem.read_u64(data.row_ptr_base + data.cfg.nodes * 8);
        let rev = mem.read_u64(data.rrow_ptr_base + data.cfg.nodes * 8);
        assert_eq!(fwd, data.cfg.edges);
        assert_eq!(rev, data.cfg.edges);
    }

    #[test]
    fn pgrank_reference_conserves_probability_mass() {
        let (data, mem) = small();
        let ranks = pgrank_reference(&data, &mem);
        let total: f32 = ranks.iter().sum();
        // Mass leaks only through dangling-vertex handling; stay near 1.
        assert!(total > 0.5 && total < 1.5, "total rank {total}");
    }

    #[test]
    fn sssp_reference_source_is_zero() {
        let (data, mem) = small();
        let d = sssp_reference(&data, &mem);
        assert_eq!(d[0], 0);
        assert!(d.iter().any(|&x| x > 0 && x < INF), "some reachable vertex");
    }

    #[test]
    fn kernels_assemble() {
        assert!(pgrank_contrib_kernel().static_instrs() > 0);
        assert!(pgrank_gather_kernel().static_instrs() > 0);
        let sssp = sssp_kernel();
        assert!(sssp.static_instrs() > 0);
        // SSSP is scalar-only: exercises the A1 scalar-unit advantage.
        assert!(sssp.body.instrs().iter().all(|i| !i.is_vector()));
    }
}
