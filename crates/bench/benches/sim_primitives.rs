//! Criterion micro-benchmarks of the hot simulator data structures: the
//! DRAM channel scheduler, the sectored cache, and the RISC-V executor.

use criterion::{criterion_group, criterion_main, Criterion};

use m2ndp::cache::{Access, CacheConfig, SectoredCache};
use m2ndp::mem::{DramConfig, DramDevice, MainMemory, MemReq, ReqId, ReqSource};
use m2ndp::riscv::assemble;
use m2ndp::riscv::exec::{step, EffectBuf, MainMemoryIface, ThreadCtx};
use m2ndp::sim::Frequency;

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram_channel_4k_sequential_reads", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::lpddr5_cxl(), Frequency::ghz(2.0));
            let mut issued = 0u64;
            let mut done = 0u64;
            let mut now = 0;
            while done < 4096 {
                while issued < 4096 {
                    let r = MemReq::read(ReqId(issued), issued * 32, 32, ReqSource::Host);
                    if dev.enqueue(now, r).is_err() {
                        break;
                    }
                    issued += 1;
                }
                dev.tick(now);
                while dev.pop_completed(now).is_some() {
                    done += 1;
                }
                now += 1;
            }
            now
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("sectored_cache_16k_accesses", |b| {
        b.iter(|| {
            let mut cache: SectoredCache<u32> = SectoredCache::new(CacheConfig::ndp_l1d());
            let mut hits = 0u32;
            for i in 0..16_384u64 {
                let addr = ((i * 97) % (1 << 20)) & !31;
                match cache.access(
                    i,
                    Access {
                        addr,
                        bytes: 32,
                        write: false,
                    },
                    i as u32,
                ) {
                    m2ndp::cache::CacheResult::Hit { .. } => hits += 1,
                    m2ndp::cache::CacheResult::Miss { fetches, .. } => {
                        for f in fetches {
                            cache.fill(i, f);
                        }
                        while cache.pop_ready(i + 100).is_some() {}
                    }
                    _ => {}
                }
            }
            hits
        })
    });
}

fn bench_executor(c: &mut Criterion) {
    let prog = assemble(
        "li x3, 1000
         li x4, 0
         loop: add x4, x4, x3
         addi x3, x3, -1
         bnez x3, loop
         halt",
    )
    .expect("assembles");
    c.bench_function("executor_3k_instruction_loop", |b| {
        b.iter(|| {
            let mut mem = MainMemory::new();
            let mut iface = MainMemoryIface::new(&mut mem);
            let mut buf = EffectBuf::new();
            let mut ctx = ThreadCtx::new();
            while !ctx.done {
                step(&mut ctx, &prog, &mut iface, &mut buf).expect("runs");
            }
            ctx.x[4]
        })
    });
}

criterion_group!(benches, bench_dram, bench_cache, bench_executor);
criterion_main!(benches);
