//! Toolchain round-trip and differential tests (the Issue 6 test core).
//!
//! Three laws over the whole `Instr` space, driven by the seeded generators
//! in `m2ndp_riscv::gen`:
//!
//! 1. **Round-trip**: `assemble(disassemble(p)) == p` for every generated
//!    program, *including* the label map.
//! 2. **Error lines**: injecting a bogus line into valid source yields an
//!    `AsmError` whose 1-based `line` points exactly at the injection.
//! 3. **Differential execution**: a program and its round-tripped twin
//!    execute identically — same effects, same memory traffic, same final
//!    architectural state — on a masked memory, for random programs.
//!
//! Failures dump artifacts under `target/asm-roundtrip-failures/` (the
//! vendored proptest has no shrinking, so the raw reproducer matters). Case
//! counts honour `PROPTEST_CASES` (raised in the CI `asm-roundtrip` job).

use std::collections::HashMap;

use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{amo_on_memory, step, step_group, EffectBuf, MemIface, MemOp, ThreadCtx};
use m2ndp_riscv::gen::gen_program;
use m2ndp_riscv::instr::{AmoOp, Width};
use m2ndp_riscv::{assemble, disassemble, Instr, Program};
use m2ndp_sim::fingerprint::Fingerprint;
use proptest::prelude::*;

/// Writes a failure artifact and returns its path for the panic message.
fn dump_artifact(name: &str, content: &str) -> String {
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/asm-roundtrip-failures");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::write(&path, content);
    path.display().to_string()
}

/// Asserts the round-trip law for one program, dumping artifacts on failure.
fn assert_roundtrip(seed: u64, program: &Program) {
    let text = match disassemble(program) {
        Ok(t) => t,
        Err(e) => {
            let path = dump_artifact(
                &format!("disasm-{seed:016x}.txt"),
                &format!("{program:#?}\n\nerror: {e}\n"),
            );
            panic!("seed {seed:#x}: disassemble failed ({e}); artifact at {path}");
        }
    };
    match assemble(&text) {
        Ok(back) => {
            if &back != program {
                let path = dump_artifact(
                    &format!("mismatch-{seed:016x}.s"),
                    &format!("// seed {seed:#x}\n{text}\n\n/*\nORIGINAL: {program:#?}\n\nREASSEMBLED: {back:#?}\n*/\n"),
                );
                panic!("seed {seed:#x}: round-trip mismatch; artifact at {path}");
            }
        }
        Err(e) => {
            let path = dump_artifact(
                &format!("reasm-{seed:016x}.s"),
                &format!("// seed {seed:#x}\n// error: {e}\n{text}"),
            );
            panic!("seed {seed:#x}: disassembly did not re-assemble ({e}); artifact at {path}");
        }
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn roundtrip_law_over_generated_programs() {
    for seed in 0..u64::from(cases(256)) {
        let program = gen_program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_roundtrip(seed, &program);
    }
}

proptest! {
    /// The same law under proptest's own seed schedule, so local runs and
    /// CI (with `PROPTEST_CASES` raised) explore different corners.
    #[test]
    fn roundtrip_law_proptest(seed in any::<u64>()) {
        let program = gen_program(seed);
        assert_roundtrip(seed, &program);
    }

    /// Canonical disassembly is a fixpoint: disassembling the re-assembled
    /// program reproduces the text byte-for-byte.
    #[test]
    fn disassembly_is_a_fixpoint(seed in any::<u64>()) {
        let program = gen_program(seed);
        let text = disassemble(&program).expect("generated programs are canonical");
        let back = assemble(&text).expect("canonical text assembles");
        prop_assert_eq!(disassemble(&back).expect("still canonical"), text);
    }

    /// Injecting one bogus line into valid source produces an error on
    /// exactly that 1-based line.
    #[test]
    fn error_reports_the_injected_line(seed in any::<u64>(), pos in any::<u64>()) {
        let program = gen_program(seed);
        let text = disassemble(&program).expect("canonical");
        let mut lines: Vec<&str> = text.lines().collect();
        let at = (pos as usize) % (lines.len() + 1);
        lines.insert(at, "bogus_mnemonic x1, x2");
        let joined = lines.join("\n");
        let err = assemble(&joined).expect_err("bogus line must not assemble");
        prop_assert_eq!(err.line, at + 1, "error line for source:\n{}", joined);
    }
}

#[test]
fn labels_roundtrip_through_disassembly() {
    // Multiple labels on one index (consecutive label lines), and labels at
    // the end index pointing one past the last instruction.
    let src = "L1:\nentry: addi x5, x0, 1\nbeqz x5, L1\nbnez x5, tail\nhalt\ntail:\nend:";
    let program = assemble(src).expect("assembles");
    assert_eq!(program.label("L1"), Some(0));
    assert_eq!(program.label("entry"), Some(0));
    assert_eq!(program.label("tail"), Some(4));
    assert_eq!(program.label("end"), Some(4));
    assert_eq!(program.len(), 4);
    let text = disassemble(&program).expect("canonical");
    let back = assemble(&text).expect("re-assembles");
    assert_eq!(back, program, "label map must survive: {text}");
}

#[test]
fn synthetic_labels_do_not_shadow_user_names() {
    // A user label named like a synthetic one (`L1`) sits on a *different*
    // index than branch target 1, forcing the disassembler to bump its
    // synthetic name rather than reuse a taken one. Synthesized names are
    // new label-map entries, so the law here is the weaker one: identical
    // instructions and the user's labels preserved verbatim.
    let program = Program::new(
        vec![
            Instr::Branch {
                cond: m2ndp_riscv::instr::BranchCond::Eq,
                rs1: 0,
                rs2: 0,
                target: 1,
            },
            Instr::Halt,
            Instr::Halt,
        ],
        HashMap::from([("L1".to_string(), 2)]),
    );
    let text = disassemble(&program).expect("canonical");
    let back = assemble(&text).expect("re-assembles");
    assert_eq!(back.instrs(), program.instrs(), "{text}");
    assert_eq!(back.label("L1"), Some(2), "user label preserved: {text}");
    assert_eq!(
        back.label("L1_0"),
        Some(1),
        "bumped synthetic name for the unnamed target: {text}"
    );
}

// ---------- differential execution ----------

/// Memory that masks addresses into a 1 MiB window (so random programs
/// cannot overflow sparse-memory address arithmetic) and logs every access.
struct MaskedMem {
    mem: MainMemory,
    log: Vec<String>,
}

const ADDR_MASK: u64 = 0xF_FFFF;

impl MaskedMem {
    fn new() -> Self {
        Self {
            mem: MainMemory::new(),
            log: Vec::new(),
        }
    }
}

impl MemIface for MaskedMem {
    fn load(&mut self, addr: u64, buf: &mut [u8]) {
        self.mem.read_bytes(addr & ADDR_MASK, buf);
        self.log
            .push(format!("L {:x} {} {:x?}", addr & ADDR_MASK, buf.len(), buf));
    }
    fn store(&mut self, addr: u64, data: &[u8]) {
        self.mem.write_bytes(addr & ADDR_MASK, data);
        self.log
            .push(format!("S {:x} {:x?}", addr & ADDR_MASK, data));
    }
    fn amo(&mut self, op: AmoOp, width: Width, addr: u64, operand: u64) -> u64 {
        let old = amo_on_memory(&mut self.mem, op, width, addr & ADDR_MASK, operand);
        self.log.push(format!(
            "A {op:?} {width:?} {:x} {operand:x} -> {old:x}",
            addr & ADDR_MASK
        ));
        old
    }
}

/// Executes up to `max_steps` of `program`, returning the per-step outcome
/// trace, the memory log, and the final context (as a debug string).
fn run_bounded(program: &Program, max_steps: usize) -> (Vec<String>, Vec<String>, String) {
    let mut mem = MaskedMem::new();
    let mut ctx = ThreadCtx::new();
    ctx.x[1] = 0x8000; // pool address / offset, as at µthread spawn
    ctx.x[2] = 0x40;
    let mut buf = EffectBuf::new();
    let mut trace = Vec::new();
    for _ in 0..max_steps {
        if ctx.done {
            break;
        }
        match step(&mut ctx, program, &mut mem, &mut buf) {
            Ok(class) => trace.push(format!("{class:?} {:?}", buf.memops())),
            Err(e) => {
                trace.push(format!("err {e:?}"));
                break;
            }
        }
    }
    (trace, mem.log, format!("{ctx:?}"))
}

#[test]
fn roundtripped_programs_execute_identically() {
    let max_steps = 256;
    for seed in 0..u64::from(cases(128)) {
        let program = gen_program(seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(1));
        let text = disassemble(&program).expect("canonical");
        let twin = assemble(&text).expect("re-assembles");
        let (t1, m1, c1) = run_bounded(&program, max_steps);
        let (t2, m2, c2) = run_bounded(&twin, max_steps);
        if t1 != t2 || m1 != m2 || c1 != c2 {
            let path = dump_artifact(
                &format!("differential-{seed:016x}.s"),
                &format!("// seed {seed:#x}\n{text}\n\n/*\ntrace a: {t1:#?}\ntrace b: {t2:#?}\nmem a: {m1:#?}\nmem b: {m2:#?}\nctx a: {c1}\nctx b: {c2}\n*/\n"),
            );
            panic!("seed {seed:#x}: differential divergence; artifact at {path}");
        }
    }
}

/// The workload corpus also executes identically after a round-trip — the
/// real kernels, not just generated programs. (They read zeroed masked
/// memory here; the point is instruction-for-instruction parity.)
#[test]
fn corpus_kernels_execute_identically_after_roundtrip() {
    for p in m2ndp_workloads::programs::corpus() {
        let program = assemble(p.source).expect(p.name);
        let text = disassemble(&program).expect(p.name);
        let twin = assemble(&text).expect(p.name);
        let (t1, m1, c1) = run_bounded(&program, 512);
        let (t2, m2, c2) = run_bounded(&twin, 512);
        assert_eq!(t1, t2, "{} effect trace", p.name);
        assert_eq!(m1, m2, "{} memory log", p.name);
        assert_eq!(c1, c2, "{} final context", p.name);
    }
}

// ---------- group-dispatch differential (step_group ≡ per-lane step) ----------

/// Lanes per SIMT group in the differential runs. Lane `i` spawns with
/// distinct `x1`/`x2` so data-dependent branches diverge across the group.
const DIFF_LANES: usize = 4;

fn spawn_lanes() -> Vec<ThreadCtx> {
    (0..DIFF_LANES)
        .map(|i| {
            let mut ctx = ThreadCtx::new();
            ctx.x[1] = 0x8000 + i as u64 * 0x40;
            ctx.x[2] = i as u64 * 0x40;
            ctx
        })
        .collect()
}

/// Digest of the group's final architectural state: every lane's registers
/// (scalar, float, vector, vl/sew/pc/done) plus the memory log, folded
/// through [`Fingerprint::mix_bytes`].
fn group_digest(ctxs: &[ThreadCtx], log: &[String]) -> u64 {
    let mut fp = Fingerprint::new();
    for ctx in ctxs {
        fp.mix(ctx.pc as u64);
        fp.mix(u64::from(ctx.done));
        fp.mix(u64::from(ctx.vl));
        fp.mix_bytes(format!("{:?}", ctx.sew).as_bytes());
        for &x in &ctx.x {
            fp.mix(x);
        }
        for &f in &ctx.f {
            fp.mix(f);
        }
        for v in &ctx.v {
            fp.mix_bytes(v);
        }
    }
    for line in log {
        fp.mix_bytes(line.as_bytes());
    }
    fp.value()
}

/// Lane-at-a-time semantics: scans for the minimum pc over non-done lanes,
/// then `step`s every lane parked there in lane order, collecting the first
/// lane's class, the lane count, and the memory operations in lane order.
fn run_group_per_lane(
    program: &Program,
    max_issues: usize,
) -> (Vec<String>, Vec<String>, Vec<ThreadCtx>) {
    let mut mem = MaskedMem::new();
    let mut ctxs = spawn_lanes();
    let mut buf = EffectBuf::new();
    let mut trace = Vec::new();
    for _ in 0..max_issues {
        let Some(min_pc) = ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() else {
            break;
        };
        if program.fetch(min_pc).is_none() {
            break; // ran off the end: the engine retires the slot here
        }
        let mut memops: Vec<MemOp> = Vec::new();
        let mut first: Option<String> = None;
        let mut lanes = 0u32;
        for ctx in ctxs.iter_mut() {
            if ctx.done || ctx.pc != min_pc {
                continue;
            }
            lanes += 1;
            match step(ctx, program, &mut mem, &mut buf) {
                Ok(class) => {
                    memops.extend_from_slice(buf.memops());
                    if first.is_none() {
                        first = Some(format!("{class:?}"));
                    }
                }
                Err(_) => ctx.done = true,
            }
        }
        trace.push(format!("{first:?} lanes={lanes} memops={memops:?}"));
    }
    (trace, mem.log, ctxs)
}

/// The whole group at once: `step_group` over the same spawn state.
fn run_group_at_once(
    program: &Program,
    max_issues: usize,
) -> (Vec<String>, Vec<String>, Vec<ThreadCtx>) {
    let mut mem = MaskedMem::new();
    let mut ctxs = spawn_lanes();
    let mut buf = EffectBuf::new();
    let mut trace = Vec::new();
    for _ in 0..max_issues {
        let Some(min_pc) = ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() else {
            break;
        };
        if program.fetch(min_pc).is_none() {
            break;
        }
        let group = step_group(&mut ctxs, min_pc, program, &mut mem, &mut buf);
        let first = group.effect.map(|c| format!("{c:?}"));
        trace.push(format!(
            "{first:?} lanes={} memops={:?}",
            group.lanes,
            buf.memops()
        ));
    }
    (trace, mem.log, ctxs)
}

/// Asserts `step_group` ≡ per-lane `step` for one program, dumping an
/// artifact on divergence.
fn assert_group_equivalence(name: &str, program: &Program, max_issues: usize) {
    let (tr, mr, cr) = run_group_per_lane(program, max_issues);
    let (tg, mg, cg) = run_group_at_once(program, max_issues);
    let dr = group_digest(&cr, &mr);
    let dg = group_digest(&cg, &mg);
    if tr != tg || mr != mg || cr != cg || dr != dg {
        let text = disassemble(program).unwrap_or_else(|_| format!("{program:#?}"));
        let path = dump_artifact(
            &format!("group-differential-{name}.s"),
            &format!(
                "// case {name}\n{text}\n\n/*\nissue trace (per-lane): {tr:#?}\nissue trace (group): {tg:#?}\nmem (per-lane): {mr:#?}\nmem (group): {mg:#?}\nctx (per-lane): {cr:#?}\nctx (group): {cg:#?}\ndigest: {dr:#x} vs {dg:#x}\n*/\n"
            ),
        );
        panic!("{name}: step_group diverged from per-lane step; artifact at {path}");
    }
}

#[test]
fn group_dispatch_matches_per_lane_step_on_generated_programs() {
    for seed in 0..u64::from(cases(128)) {
        let program = gen_program(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(3));
        assert_group_equivalence(&format!("seed-{seed:016x}"), &program, 256);
    }
}

proptest! {
    /// The same equivalence under proptest's own seed schedule (CI raises
    /// `PROPTEST_CASES`, so this leg covers fresh corners every run).
    #[test]
    fn group_dispatch_matches_per_lane_step_proptest(seed in any::<u64>()) {
        let program = gen_program(seed);
        assert_group_equivalence(&format!("prop-{seed:016x}"), &program, 256);
    }
}

/// Every shipped kernel runs through both dispatch paths with divergent
/// multi-lane groups — real control flow and vector memory, not just the
/// generator's distribution.
#[test]
fn group_dispatch_matches_per_lane_step_on_corpus_kernels() {
    for p in m2ndp_workloads::programs::corpus() {
        let program = assemble(p.source).expect(p.name);
        assert_group_equivalence(p.name, &program, 512);
    }
}

// ---------- pins the round-trip law cannot give ----------

/// The canonical text of generated programs, pinned as one digest.
///
/// `assemble(disassemble(p)) == p` holds for any assembler and
/// disassembler that agree with each other, so a spelling changed on both
/// sides, or a generator that draws a different stream, passes the law.
/// This digest covers the spelling of every generated form and the seeded
/// streams behind it. Re-record it only for a deliberate change of the
/// dialect or of the generators.
#[test]
fn generated_disassembly_matches_the_recorded_digest() {
    let mut fp = Fingerprint::new();
    let mut lines = 0usize;
    for seed in 0..512u64 {
        let text = disassemble(&gen_program(seed)).expect("generated programs are canonical");
        lines += text.lines().count();
        fp.mix_bytes(text.as_bytes());
    }
    assert_eq!(lines, 13_818, "disassembled line count");
    assert_eq!(
        fp.value(),
        0xba5e_b7f8_082f_38e8,
        "digest of disassemble(gen_program(0..512))"
    );
}

/// One malformed line per assembler error, with its exact `(line, message)`.
///
/// The round-trip law only runs the assembler on text it can parse; these
/// pin every error message and, where a line breaks more than one rule,
/// which check fires first.
#[test]
fn each_assembler_error_names_its_line_and_cause() {
    const CASES: &[(&str, &str)] = &[
        ("bogus x1, x2", "unknown mnemonic `bogus`"),
        ("ADD x1, x2", "`add` expects 3 operands, got 2"),
        ("sltiu x1, x2", "`sltiu` expects 3 operands, got 2"),
        ("sltu x1, x2, x32", "not an integer register: `x32`"),
        ("addi x1, x2, zz", "not an immediate: `zz`"),
        ("lq x1, 0(x2)", "unknown mnemonic `lq`"),
        ("ldu f1, x2", "expected memory operand `off(reg)`: `x2`"),
        ("lbu x1, 8(x2", "unclosed memory operand: `8(x2`"),
        ("sh x1", "`sh` expects 2 operands, got 1"),
        ("bgeu f1, x2, nowhere", "unknown label `nowhere`"),
        ("bgeu x1, f2, start", "not an integer register: `f2`"),
        ("ble x1, start", "`ble` expects 3 operands, got 2"),
        ("beqz x1, nowhere", "unknown label `nowhere`"),
        ("jalr x1, x2", "expected memory operand `off(reg)`: `x2`"),
        ("ret x1", "`ret` expects 0 operands, got 1"),
        ("amoadd x1, x2, (x3)", "bad AMO mnemonic `amoadd`"),
        ("amonand.w x1, x2, (x3)", "unsupported AMO `amonand.w`"),
        (
            "amomin.b x1, x2, (x3)",
            "AMO width must be .w or .d: `amomin.b`",
        ),
        ("amoswap.d x1, x2", "`amoswap.d` expects 3 operands, got 2"),
        (
            "amoxor.d x1, x2, 8(x3)",
            "AMO address operand must have zero offset",
        ),
        ("fld f1, x2", "expected memory operand `off(reg)`: `x2`"),
        ("fsgnjx.q f1, f2, f3", "bad precision suffix `.q`"),
        ("fsgnjx.s f1, f2", "`fsgnjx.s` expects 3 operands, got 2"),
        ("fadd.s f1, f2, x3", "not a float register: `x3`"),
        ("fsqrt.d f1, f2, f3", "`fsqrt.d` expects 2 operands, got 3"),
        ("fsqrt.s x1, x2", "not a float register: `x2`"),
        ("fneg f1, f2", "bad precision suffix `.`"),
        ("fle.d f1, f2, f3", "not an integer register: `f1`"),
        ("fmadd.s f1, f2, f3", "`fmadd.s` expects 4 operands, got 3"),
        ("fcvt.w f1, x2", "bad fcvt form `fcvt.w`"),
        ("fcvt.q.s f1, f2", "bad fcvt form `fcvt.q.s`"),
        ("fcvt.l.d x1", "fcvt expects 2 operands"),
        ("fcvt.lu.q x1, f2", "bad precision suffix `.q`"),
        ("fbogus.s f1", "unknown float mnemonic `fbogus.s`"),
        ("vsetvli x1, x2", "vsetvli expects rd, rs1, e<sew>, ..."),
        ("vsetvli x1, x2, m32", "bad vtype `m32`"),
        ("vsetvli x1, x2, e12", "bad element width `12`"),
        ("vle12.v v1, (x2)", "bad element width `12`"),
        (
            "vle32.v v1, 8(x2)",
            "vector memory base must have zero offset",
        ),
        ("vlse64.v v1, (x2)", "`vlse64.v` expects 3 operands, got 2"),
        ("vsuxei8.v v1, (x2), x3", "not a vector register: `x3`"),
        (
            "vamonandei32.v v1, (x2), v3",
            "unsupported vector AMO `nand`",
        ),
        ("vamoaddei12.v v1, (x2)", "bad element width `12`"),
        (
            "vamoaddei32.v v1, 8(x2), v3",
            "vector AMO base must have zero offset",
        ),
        ("vmv.q.x v1, x2", "unknown move form `vmv.q.x`"),
        ("vfmv.v.f v1", "`vfmv.v.f` expects 2 operands, got 1"),
        ("vmin.vq v1, v2, v3", "bad vector operand kind `.vq`"),
        ("vmsge.vx v1, v2", "`vmsge.vx` expects 3 operands, got 2"),
        ("vfmacc.vf v1, f2, x3", "not a vector register: `x3`"),
        ("vfadd.vv x1, x2, v3", "not a vector register: `x1`"),
        ("vfexp.v v1", "`vfexp.v` expects 2 operands, got 1"),
        ("vfredusum.vs v1, v2, x3", "not a vector register: `x3`"),
        (
            "vfredosum.vs v1, v2",
            "`vfredosum.vs` expects 3 operands, got 2",
        ),
        (
            "vmerge.vvm v1, v2, v3",
            "vmerge expects vd, vs2, operand, v0",
        ),
        ("vid.v v1, v2", "`vid.v` expects 1 operands, got 2"),
        (
            "vbogus.vv v1, v2, v3",
            "unknown vector mnemonic `vbogus.vv`",
        ),
    ];
    for &(bad, message) in CASES {
        let source = format!("start:\n    nop\n    {bad}\n    halt\n");
        let e = assemble(&source).expect_err(bad);
        assert_eq!((e.line, e.message.as_str()), (3, message), "{bad}");
    }
    let e = assemble("a:\n    nop\na:\n    halt\n").expect_err("duplicate label");
    assert_eq!((e.line, e.message.as_str()), (3, "duplicate label `a`"));
}
