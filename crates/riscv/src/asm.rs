//! Text assembler for NDP kernels.
//!
//! Accepts the assembly dialect the paper's kernels are written in (Fig. 4,
//! Fig. 8): one instruction per line, optional `label:` prefixes, comments
//! with `//`, `#` or `;`, operands separated by commas and/or spaces, memory
//! operands as `offset(reg)`, and vector masks as a trailing `v0.t`.
//!
//! All pseudo-instructions expand 1:1 (`li` is a first-class instruction in
//! this ISA model), so label resolution is a simple two-pass scan.

use std::collections::HashMap;

use crate::instr::{
    AmoOp, BranchCond, FCmpOp, FpOp, Instr, IntOp, Precision, Sew, Spelled, VAddrMode, VCmpOp,
    VFpOp, VIntOp, VOperand, VRedOp, Width,
};
use crate::program::Program;

/// Assembly error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// Parses an integer register name (`x7`, `zero`, `a0`, `t3`, `sp`, ...).
/// Register names are case-insensitive, matching the mnemonic handling.
fn xreg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let lowered = tok.trim().to_ascii_lowercase();
    let t = lowered.as_str();
    if let Some(n) = t.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(i);
            }
        }
    }
    let abi = match t {
        "zero" => 0,
        "ra" => 1,
        "sp" => 2,
        "gp" => 3,
        "tp" => 4,
        "t0" => 5,
        "t1" => 6,
        "t2" => 7,
        "s0" | "fp" => 8,
        "s1" => 9,
        "a0" => 10,
        "a1" => 11,
        "a2" => 12,
        "a3" => 13,
        "a4" => 14,
        "a5" => 15,
        "a6" => 16,
        "a7" => 17,
        "s2" => 18,
        "s3" => 19,
        "s4" => 20,
        "s5" => 21,
        "s6" => 22,
        "s7" => 23,
        "s8" => 24,
        "s9" => 25,
        "s10" => 26,
        "s11" => 27,
        "t3" => 28,
        "t4" => 29,
        "t5" => 30,
        "t6" => 31,
        _ => return err(line, format!("not an integer register: `{t}`")),
    };
    Ok(abi)
}

/// Parses a float register name (`f3`, `ft0`, `fa1`, `fs2`).
fn freg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let lowered = tok.trim().to_ascii_lowercase();
    let t = lowered.as_str();
    if let Some(n) = t.strip_prefix('f') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(i);
            }
        }
    }
    let idx = |s: &str, base: u8, max: u8| -> Option<u8> {
        s.parse::<u8>().ok().filter(|i| *i <= max).map(|i| base + i)
    };
    let r = if let Some(n) = t.strip_prefix("ft") {
        // ft0-7 -> f0-7, ft8-11 -> f28-31
        n.parse::<u8>().ok().and_then(|i| match i {
            0..=7 => Some(i),
            8..=11 => Some(20 + i),
            _ => None,
        })
    } else if let Some(n) = t.strip_prefix("fs") {
        // fs0-1 -> f8-9, fs2-11 -> f18-27
        n.parse::<u8>().ok().and_then(|i| match i {
            0..=1 => Some(8 + i),
            2..=11 => Some(16 + i),
            _ => None,
        })
    } else if let Some(n) = t.strip_prefix("fa") {
        idx(n, 10, 7)
    } else {
        None
    };
    match r {
        Some(i) => Ok(i),
        None => err(line, format!("not a float register: `{t}`")),
    }
}

/// Parses a vector register name (`v0`–`v31`).
fn vreg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let lowered = tok.trim().to_ascii_lowercase();
    let t = lowered.as_str();
    if let Some(n) = t.strip_prefix('v') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(i);
            }
        }
    }
    err(line, format!("not a vector register: `{t}`"))
}

/// Parses an immediate: decimal or 0x-hex, with optional sign.
///
/// The magnitude is parsed as a `u64` so the full two's-complement range
/// round-trips: `-9223372036854775808` (`i64::MIN`) and
/// `0xffffffffffffffff` (= -1) are both accepted.
fn imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, body) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(h) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(h, 16)
    } else {
        body.parse::<u64>()
    };
    match v {
        Ok(v) => Ok(if neg {
            (v as i64).wrapping_neg()
        } else {
            v as i64
        }),
        Err(_) => err(line, format!("not an immediate: `{t}`")),
    }
}

/// Parses a memory operand `offset(reg)` or `(reg)`.
fn mem_operand(tok: &str, line: usize) -> Result<(i64, u8), AsmError> {
    let t = tok.trim();
    let Some(open) = t.find('(') else {
        return err(line, format!("expected memory operand `off(reg)`: `{t}`"));
    };
    let Some(close) = t.rfind(')') else {
        return err(line, format!("unclosed memory operand: `{t}`"));
    };
    let off_str = t[..open].trim();
    let off = if off_str.is_empty() {
        0
    } else {
        imm(off_str, line)?
    };
    let reg = xreg(&t[open + 1..close], line)?;
    Ok((off, reg))
}

/// Splits the operand field into tokens, keeping `off(reg)` together.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            ' ' | '\t' if depth == 0 => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn sew_from_suffix(s: &str, line: usize) -> Result<Sew, AsmError> {
    match Sew::from_spelling(s) {
        Some(sew) => Ok(sew),
        None => err(line, format!("bad element width `{s}`")),
    }
}

/// Strips a trailing `v0.t` mask token; returns (operands, masked).
fn strip_mask(mut ops: Vec<String>) -> (Vec<String>, bool) {
    if ops.last().is_some_and(|s| s.eq_ignore_ascii_case("v0.t")) {
        ops.pop();
        (ops, true)
    } else {
        (ops, false)
    }
}

struct LineParts<'a> {
    label: Option<&'a str>,
    mnemonic: Option<&'a str>,
    operands: &'a str,
}

fn split_line(raw: &str) -> LineParts<'_> {
    let mut s = raw;
    for marker in ["//", "#", ";"] {
        if let Some(pos) = s.find(marker) {
            s = &s[..pos];
        }
    }
    let s = s.trim();
    let (label, rest) = match s.find(':') {
        Some(pos)
            if s[..pos]
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '.') =>
        {
            (Some(s[..pos].trim()), s[pos + 1..].trim())
        }
        _ => (None, s),
    };
    if rest.is_empty() {
        return LineParts {
            label,
            mnemonic: None,
            operands: "",
        };
    }
    let (mnemonic, operands) = match rest.find(|c: char| c.is_whitespace()) {
        Some(pos) => (&rest[..pos], rest[pos..].trim()),
        None => (rest, ""),
    };
    LineParts {
        label,
        mnemonic: Some(mnemonic),
        operands,
    }
}

/// Assembles `source` into a [`Program`].
///
/// # Errors
/// Returns an [`AsmError`] identifying the offending line for unknown
/// mnemonics, malformed operands, or unresolved labels.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: label -> instruction index.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut index = 0usize;
    for (ln, raw) in source.lines().enumerate() {
        let parts = split_line(raw);
        if let Some(label) = parts.label {
            if labels.insert(label.to_string(), index).is_some() {
                return err(ln + 1, format!("duplicate label `{label}`"));
            }
        }
        if parts.mnemonic.is_some() {
            index += 1;
        }
    }

    // Pass 2: parse instructions.
    let mut instrs = Vec::with_capacity(index);
    for (ln0, raw) in source.lines().enumerate() {
        let ln = ln0 + 1;
        let parts = split_line(raw);
        let Some(mnemonic) = parts.mnemonic else {
            continue;
        };
        let m = mnemonic.to_ascii_lowercase();
        let ops = split_operands(parts.operands);
        let instr = parse_instr(&m, ops, &labels, ln)?;
        instrs.push(instr);
    }
    Ok(Program::new(instrs, labels))
}

fn lookup_label(
    labels: &HashMap<String, usize>,
    name: &str,
    line: usize,
) -> Result<usize, AsmError> {
    labels.get(name).copied().ok_or_else(|| AsmError {
        line,
        message: format!("unknown label `{name}`"),
    })
}

#[allow(clippy::too_many_lines)]
fn parse_instr(
    m: &str,
    ops: Vec<String>,
    labels: &HashMap<String, usize>,
    ln: usize,
) -> Result<Instr, AsmError> {
    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            err(ln, format!("`{m}` expects {n} operands, got {}", ops.len()))
        }
    };

    // Vector mnemonics (checked first: many share prefixes with scalar ops).
    if m.starts_with('v') {
        return parse_vector(m, ops, ln);
    }

    // The forms spelled by the op tables: ALU ops, loads, stores, branches.
    if let Some(op) = IntOp::from_spelling(m) {
        need(3)?;
        return Ok(Instr::Op {
            op,
            rd: xreg(&ops[0], ln)?,
            rs1: xreg(&ops[1], ln)?,
            rs2: xreg(&ops[2], ln)?,
        });
    }
    if let Some(&op) = IntOp::ALL.iter().find(|op| op.imm_spelling() == Some(m)) {
        need(3)?;
        return Ok(Instr::OpImm {
            op,
            rd: xreg(&ops[0], ln)?,
            rs1: xreg(&ops[1], ln)?,
            imm: imm(&ops[2], ln)?,
        });
    }
    // `l{w}` sign-extends and `l{w}u` zero-extends.
    let load = m.strip_prefix('l').and_then(|w| match w.strip_suffix('u') {
        Some(w) => Width::from_spelling(w).map(|width| (width, false)),
        None => Width::from_spelling(w).map(|width| (width, true)),
    });
    if let Some((width, signed)) = load {
        need(2)?;
        let (offset, rs1) = mem_operand(&ops[1], ln)?;
        return Ok(Instr::Load {
            width,
            signed,
            rd: xreg(&ops[0], ln)?,
            rs1,
            offset,
        });
    }
    if let Some(width) = m.strip_prefix('s').and_then(Width::from_spelling) {
        need(2)?;
        let (offset, rs1) = mem_operand(&ops[1], ln)?;
        return Ok(Instr::Store {
            width,
            rs2: xreg(&ops[0], ln)?,
            rs1,
            offset,
        });
    }
    let branch = match m {
        "bgt" => Some((BranchCond::Lt, 1, 0)),
        "ble" => Some((BranchCond::Ge, 1, 0)), // ble a,b == bge b,a
        _ => BranchCond::from_spelling(m).map(|cond| (cond, 0, 1)),
    };
    if let Some((cond, rs1, rs2)) = branch {
        need(3)?;
        let target = lookup_label(labels, &ops[2], ln)?;
        return Ok(Instr::Branch {
            cond,
            rs1: xreg(&ops[rs1], ln)?,
            rs2: xreg(&ops[rs2], ln)?,
            target,
        });
    }

    match m {
        "li" => {
            need(2)?;
            Ok(Instr::Li {
                rd: xreg(&ops[0], ln)?,
                imm: imm(&ops[1], ln)?,
            })
        }
        "lui" => {
            need(2)?;
            Ok(Instr::Lui {
                rd: xreg(&ops[0], ln)?,
                imm: imm(&ops[1], ln)?,
            })
        }
        "mv" => {
            need(2)?;
            Ok(Instr::OpImm {
                op: IntOp::Add,
                rd: xreg(&ops[0], ln)?,
                rs1: xreg(&ops[1], ln)?,
                imm: 0,
            })
        }
        "not" => {
            need(2)?;
            Ok(Instr::OpImm {
                op: IntOp::Xor,
                rd: xreg(&ops[0], ln)?,
                rs1: xreg(&ops[1], ln)?,
                imm: -1,
            })
        }
        "neg" => {
            need(2)?;
            Ok(Instr::Op {
                op: IntOp::Sub,
                rd: xreg(&ops[0], ln)?,
                rs1: 0,
                rs2: xreg(&ops[1], ln)?,
            })
        }
        "seqz" => {
            need(2)?;
            Ok(Instr::OpImm {
                op: IntOp::Sltu,
                rd: xreg(&ops[0], ln)?,
                rs1: xreg(&ops[1], ln)?,
                imm: 1,
            })
        }
        "snez" => {
            need(2)?;
            Ok(Instr::Op {
                op: IntOp::Sltu,
                rd: xreg(&ops[0], ln)?,
                rs1: 0,
                rs2: xreg(&ops[1], ln)?,
            })
        }
        "beqz" | "bnez" | "bltz" | "bgez" | "blez" | "bgtz" => {
            need(2)?;
            let target = lookup_label(labels, &ops[1], ln)?;
            let r = xreg(&ops[0], ln)?;
            let (cond, rs1, rs2) = match m {
                "beqz" => (BranchCond::Eq, r, 0),
                "bnez" => (BranchCond::Ne, r, 0),
                "bltz" => (BranchCond::Lt, r, 0),
                "bgez" => (BranchCond::Ge, r, 0),
                "blez" => (BranchCond::Ge, 0, r), // 0 >= r
                _ => (BranchCond::Lt, 0, r),      // 0 < r
            };
            Ok(Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            })
        }
        "j" => {
            need(1)?;
            Ok(Instr::Jal {
                rd: 0,
                target: lookup_label(labels, &ops[0], ln)?,
            })
        }
        "jal" => {
            if ops.len() == 1 {
                Ok(Instr::Jal {
                    rd: 1,
                    target: lookup_label(labels, &ops[0], ln)?,
                })
            } else {
                need(2)?;
                Ok(Instr::Jal {
                    rd: xreg(&ops[0], ln)?,
                    target: lookup_label(labels, &ops[1], ln)?,
                })
            }
        }
        "jalr" => {
            if ops.len() == 1 {
                Ok(Instr::Jalr {
                    rd: 1,
                    rs1: xreg(&ops[0], ln)?,
                    offset: 0,
                })
            } else {
                need(2)?;
                let (offset, rs1) = mem_operand(&ops[1], ln)?;
                Ok(Instr::Jalr {
                    rd: xreg(&ops[0], ln)?,
                    rs1,
                    offset,
                })
            }
        }
        "ret" => {
            need(0)?;
            Ok(Instr::Jalr {
                rd: 0,
                rs1: 1,
                offset: 0,
            })
        }
        "halt" | "exit" => {
            need(0)?;
            Ok(Instr::Halt)
        }
        "nop" => {
            need(0)?;
            Ok(Instr::OpImm {
                op: IntOp::Add,
                rd: 0,
                rs1: 0,
                imm: 0,
            })
        }
        "fence" | "fence.rw.rw" => Ok(Instr::Fence),
        _ if m.starts_with("amo") => {
            need(3)?;
            let rest = &m[3..];
            let (op_str, width_str) = rest.split_once('.').ok_or_else(|| AsmError {
                line: ln,
                message: format!("bad AMO mnemonic `{m}`"),
            })?;
            let Some(op) = AmoOp::from_spelling(op_str) else {
                return err(ln, format!("unsupported AMO `{m}`"));
            };
            let width = match Width::from_spelling(width_str) {
                Some(width @ (Width::W | Width::D)) => width,
                _ => return err(ln, format!("AMO width must be .w or .d: `{m}`")),
            };
            let (off, rs1) = mem_operand(&ops[2], ln)?;
            if off != 0 {
                return err(ln, "AMO address operand must have zero offset");
            }
            Ok(Instr::Amo {
                op,
                width,
                rd: xreg(&ops[0], ln)?,
                rs2: xreg(&ops[1], ln)?,
                rs1,
            })
        }
        _ if m.starts_with('f') => parse_float(m, ops, ln),
        _ => err(ln, format!("unknown mnemonic `{m}`")),
    }
}

fn precision(suffix: &str, ln: usize) -> Result<Precision, AsmError> {
    match Precision::from_spelling(suffix) {
        Some(p) => Ok(p),
        None => err(ln, format!("bad precision suffix `.{suffix}`")),
    }
}

fn parse_float(m: &str, ops: Vec<String>, ln: usize) -> Result<Instr, AsmError> {
    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            err(ln, format!("`{m}` expects {n} operands, got {}", ops.len()))
        }
    };
    match m {
        "flw" | "fld" => {
            need(2)?;
            let (offset, rs1) = mem_operand(&ops[1], ln)?;
            Ok(Instr::FLoad {
                precision: if m == "flw" {
                    Precision::S
                } else {
                    Precision::D
                },
                rd: freg(&ops[0], ln)?,
                rs1,
                offset,
            })
        }
        "fsw" | "fsd" => {
            need(2)?;
            let (offset, rs1) = mem_operand(&ops[1], ln)?;
            Ok(Instr::FStore {
                precision: if m == "fsw" {
                    Precision::S
                } else {
                    Precision::D
                },
                rs2: freg(&ops[0], ln)?,
                rs1,
                offset,
            })
        }
        "fmv.x.w" | "fmv.x.d" => {
            need(2)?;
            Ok(Instr::FMvToInt {
                precision: if m.ends_with('w') {
                    Precision::S
                } else {
                    Precision::D
                },
                rd: xreg(&ops[0], ln)?,
                rs1: freg(&ops[1], ln)?,
            })
        }
        "fmv.w.x" | "fmv.d.x" => {
            need(2)?;
            Ok(Instr::FMvFromInt {
                precision: if m == "fmv.w.x" {
                    Precision::S
                } else {
                    Precision::D
                },
                rd: freg(&ops[0], ln)?,
                rs1: xreg(&ops[1], ln)?,
            })
        }
        "fcvt.d.s" => {
            need(2)?;
            Ok(Instr::FCvtPrec {
                to: Precision::D,
                rd: freg(&ops[0], ln)?,
                rs1: freg(&ops[1], ln)?,
            })
        }
        "fcvt.s.d" => {
            need(2)?;
            Ok(Instr::FCvtPrec {
                to: Precision::S,
                rd: freg(&ops[0], ln)?,
                rs1: freg(&ops[1], ln)?,
            })
        }
        _ => {
            let mut parts = m.split('.');
            let base = parts.next().unwrap_or("");
            let rest: Vec<&str> = parts.collect();
            let suffix = rest.first().copied().unwrap_or("");
            // `fmv`/`fneg`/`fabs` are sign injections of a register with itself.
            let pseudo = match base {
                "fmv" => Some(FpOp::Sgnj),
                "fneg" => Some(FpOp::Sgnjn),
                "fabs" => Some(FpOp::Sgnjx),
                _ => None,
            };
            let unary = pseudo.or(FpOp::from_spelling(base).filter(|op| op.is_unary()));
            if let Some(op) = unary {
                need(2)?;
                let p = precision(suffix, ln)?;
                let rs1 = freg(&ops[1], ln)?;
                return Ok(Instr::FOp {
                    op,
                    precision: p,
                    rd: freg(&ops[0], ln)?,
                    rs1,
                    rs2: if op.is_unary() { 0 } else { rs1 },
                });
            }
            if let Some(op) = FpOp::from_spelling(base) {
                need(3)?;
                let p = precision(suffix, ln)?;
                return Ok(Instr::FOp {
                    op,
                    precision: p,
                    rd: freg(&ops[0], ln)?,
                    rs1: freg(&ops[1], ln)?,
                    rs2: freg(&ops[2], ln)?,
                });
            }
            if let Some(op) = FCmpOp::from_spelling(base) {
                need(3)?;
                let p = precision(suffix, ln)?;
                return Ok(Instr::FCmp {
                    op,
                    precision: p,
                    rd: xreg(&ops[0], ln)?,
                    rs1: freg(&ops[1], ln)?,
                    rs2: freg(&ops[2], ln)?,
                });
            }
            match base {
                "fcvt" => {
                    // fcvt.<to>.<from> [rtz]
                    if rest.len() < 2 {
                        return err(ln, format!("bad fcvt form `{m}`"));
                    }
                    let (to, from) = (rest[0], rest[1]);
                    let int_names = ["w", "wu", "l", "lu"];
                    if int_names.contains(&to) {
                        // float -> int
                        if ops.len() != 2 {
                            return err(ln, "fcvt expects 2 operands");
                        }
                        Ok(Instr::FCvtToInt {
                            precision: precision(from, ln)?,
                            rd: xreg(&ops[0], ln)?,
                            rs1: freg(&ops[1], ln)?,
                            signed: !to.ends_with('u'),
                        })
                    } else if int_names.contains(&from) {
                        if ops.len() != 2 {
                            return err(ln, "fcvt expects 2 operands");
                        }
                        Ok(Instr::FCvtFromInt {
                            precision: precision(to, ln)?,
                            rd: freg(&ops[0], ln)?,
                            rs1: xreg(&ops[1], ln)?,
                            signed: !from.ends_with('u'),
                        })
                    } else {
                        err(ln, format!("bad fcvt form `{m}`"))
                    }
                }
                "fmadd" => {
                    need(4)?;
                    let p = precision(suffix, ln)?;
                    Ok(Instr::FMadd {
                        precision: p,
                        rd: freg(&ops[0], ln)?,
                        rs1: freg(&ops[1], ln)?,
                        rs2: freg(&ops[2], ln)?,
                        rs3: freg(&ops[3], ln)?,
                    })
                }
                _ => err(ln, format!("unknown float mnemonic `{m}`")),
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn parse_vector(m: &str, ops: Vec<String>, ln: usize) -> Result<Instr, AsmError> {
    let (ops, masked) = strip_mask(ops);
    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            err(ln, format!("`{m}` expects {n} operands, got {}", ops.len()))
        }
    };

    // vsetvli rd, rs1, e<sew>[, m<lmul>][, ta][, ma]
    if m == "vsetvli" {
        if ops.len() < 3 {
            return err(ln, "vsetvli expects rd, rs1, e<sew>, ...");
        }
        let vtype = ops[2].to_ascii_lowercase();
        let sew_tok = vtype.strip_prefix('e').ok_or_else(|| AsmError {
            line: ln,
            message: format!("bad vtype `{}`", ops[2]),
        })?;
        return Ok(Instr::Vsetvli {
            rd: xreg(&ops[0], ln)?,
            rs1: xreg(&ops[1], ln)?,
            sew: sew_from_suffix(sew_tok, ln)?,
        });
    }

    // Vector loads/stores: vle<eew>.v, vse<eew>.v, vlse<eew>.v, vsse<eew>.v,
    // vluxei<eew>.v, vloxei<eew>.v, vsuxei<eew>.v.
    for (prefix, is_load, mode_kind) in [
        ("vle", true, 'u'),
        ("vse", false, 'u'),
        ("vlse", true, 's'),
        ("vsse", false, 's'),
        ("vluxei", true, 'i'),
        ("vloxei", true, 'i'),
        ("vsuxei", false, 'i'),
        ("vsoxei", false, 'i'),
    ] {
        if let Some(rest) = m.strip_prefix(prefix) {
            if let Some(eew_str) = rest.strip_suffix(".v") {
                // Guard against e.g. "vse" matching "vsetvli"-like strings.
                if eew_str.chars().all(|c| c.is_ascii_digit()) && !eew_str.is_empty() {
                    let eew = sew_from_suffix(eew_str, ln)?;
                    let (reg, base_op, extra) = match mode_kind {
                        'u' => {
                            need(2)?;
                            (vreg(&ops[0], ln)?, mem_operand(&ops[1], ln)?, None)
                        }
                        's' => {
                            need(3)?;
                            (
                                vreg(&ops[0], ln)?,
                                mem_operand(&ops[1], ln)?,
                                Some(xreg(&ops[2], ln)?),
                            )
                        }
                        _ => {
                            need(3)?;
                            (
                                vreg(&ops[0], ln)?,
                                mem_operand(&ops[1], ln)?,
                                Some(vreg(&ops[2], ln)?),
                            )
                        }
                    };
                    let (off, rs1) = base_op;
                    if off != 0 {
                        return err(ln, "vector memory base must have zero offset");
                    }
                    let mode = match mode_kind {
                        'u' => VAddrMode::Unit,
                        's' => VAddrMode::Strided(extra.expect("strided reg parsed")),
                        _ => VAddrMode::Indexed(extra.expect("index reg parsed")),
                    };
                    return Ok(if is_load {
                        Instr::VLoad {
                            eew,
                            vd: reg,
                            rs1,
                            mode,
                            masked,
                        }
                    } else {
                        Instr::VStore {
                            eew,
                            vs3: reg,
                            rs1,
                            mode,
                            masked,
                        }
                    });
                }
            }
        }
    }

    // Vector AMO: vamo<op>ei<eew>.v vd, (rs1), vs2
    if let Some(rest) = m.strip_prefix("vamo") {
        if let Some(body) = rest.strip_suffix(".v") {
            if let Some(pos) = body.find("ei") {
                let op_str = &body[..pos];
                let Some(op) = AmoOp::from_spelling(op_str) else {
                    return err(ln, format!("unsupported vector AMO `{op_str}`"));
                };
                let eew = sew_from_suffix(&body[pos + 2..], ln)?;
                need(3)?;
                let (off, rs1) = mem_operand(&ops[1], ln)?;
                if off != 0 {
                    return err(ln, "vector AMO base must have zero offset");
                }
                return Ok(Instr::VAmo {
                    op,
                    eew,
                    vd: vreg(&ops[0], ln)?,
                    rs1,
                    vs2: vreg(&ops[2], ln)?,
                    masked,
                });
            }
        }
    }

    // Move forms have two-component suffixes (vmv.v.x, vmv.x.s, vfmv.f.s);
    // handle them before the generic base/kind split.
    if m.starts_with("vmv.") || m.starts_with("vfmv.") {
        let mut it = m.splitn(3, '.');
        let head = it.next().unwrap_or("");
        let a = it.next().unwrap_or("");
        let b = it.next().unwrap_or("");
        need(2)?;
        return match (head, a, b) {
            ("vmv", "v", "v") => Ok(Instr::VMv {
                vd: vreg(&ops[0], ln)?,
                operand: VOperand::Vector(vreg(&ops[1], ln)?),
            }),
            ("vmv", "v", "x") => Ok(Instr::VMv {
                vd: vreg(&ops[0], ln)?,
                operand: VOperand::Scalar(xreg(&ops[1], ln)?),
            }),
            ("vmv", "v", "i") => Ok(Instr::VMv {
                vd: vreg(&ops[0], ln)?,
                operand: VOperand::Imm(imm(&ops[1], ln)?),
            }),
            ("vmv", "x", "s") => Ok(Instr::VMvToScalar {
                rd: xreg(&ops[0], ln)?,
                vs2: vreg(&ops[1], ln)?,
            }),
            ("vmv", "s", "x") => Ok(Instr::VMvFromScalar {
                vd: vreg(&ops[0], ln)?,
                rs1: xreg(&ops[1], ln)?,
            }),
            ("vfmv", "v", "f") => Ok(Instr::VMv {
                vd: vreg(&ops[0], ln)?,
                operand: VOperand::Float(freg(&ops[1], ln)?),
            }),
            ("vfmv", "f", "s") => Ok(Instr::VFMvToScalar {
                rd: freg(&ops[0], ln)?,
                vs2: vreg(&ops[1], ln)?,
            }),
            _ => err(ln, format!("unknown move form `{m}`")),
        };
    }

    // Remaining vector forms: split base and operand-kind suffix.
    let (base, kind) = match m.rsplit_once('.') {
        Some((b, k)) => (b, k),
        None => (m, ""),
    };

    let operand = |tok: &str| -> Result<VOperand, AsmError> {
        match kind {
            "vv" | "vs" | "v" | "vvm" => Ok(VOperand::Vector(vreg(tok, ln)?)),
            "vx" | "x" | "vxm" => Ok(VOperand::Scalar(xreg(tok, ln)?)),
            "vi" | "i" | "vim" => Ok(VOperand::Imm(imm(tok, ln)?)),
            "vf" | "f" | "vfm" => Ok(VOperand::Float(freg(tok, ln)?)),
            _ => err(ln, format!("bad vector operand kind `.{kind}`")),
        }
    };

    if let Some(op) = VIntOp::from_spelling(base) {
        need(3)?;
        return Ok(Instr::VIntOp {
            op,
            vd: vreg(&ops[0], ln)?,
            vs2: vreg(&ops[1], ln)?,
            operand: operand(&ops[2])?,
            masked,
        });
    }
    if let Some(op) = VFpOp::from_spelling(base) {
        need(if op == VFpOp::Exp { 2 } else { 3 })?;
        let vd = vreg(&ops[0], ln)?;
        let (vs2, operand) = match op {
            // vfmacc.vv vd, vs1, vs2  /  vfmacc.vf vd, fs1, vs2
            VFpOp::Macc => (vreg(&ops[2], ln)?, operand(&ops[1])?),
            VFpOp::Exp => (vreg(&ops[1], ln)?, VOperand::Imm(0)),
            _ => (vreg(&ops[1], ln)?, operand(&ops[2])?),
        };
        return Ok(Instr::VFpOp {
            op,
            vd,
            vs2,
            operand,
            masked,
        });
    }
    // `vfredosum` and `vfredsum` are accepted names of the float sum.
    let red = match base {
        "vfredosum" | "vfredsum" => Some(VRedOp::FSum),
        _ => VRedOp::from_spelling(base),
    };
    if let Some(op) = red {
        need(3)?;
        return Ok(Instr::VRed {
            op,
            vd: vreg(&ops[0], ln)?,
            vs2: vreg(&ops[1], ln)?,
            vs1: vreg(&ops[2], ln)?,
        });
    }
    if let Some(op) = VCmpOp::from_spelling(base) {
        need(3)?;
        return Ok(Instr::VCmp {
            op,
            vd: vreg(&ops[0], ln)?,
            vs2: vreg(&ops[1], ln)?,
            operand: operand(&ops[2])?,
        });
    }

    match base {
        "vid" => {
            need(1)?;
            Ok(Instr::Vid {
                vd: vreg(&ops[0], ln)?,
                masked,
            })
        }
        "vmerge" => {
            // vmerge.vvm/vxm/vim vd, vs2, <operand>, v0
            if ops.len() == 4 && ops[3].eq_ignore_ascii_case("v0") {
                Ok(Instr::VMerge {
                    vd: vreg(&ops[0], ln)?,
                    vs2: vreg(&ops[1], ln)?,
                    operand: operand(&ops[2])?,
                })
            } else {
                err(ln, "vmerge expects vd, vs2, operand, v0")
            }
        }
        "vslidedown" => {
            need(3)?;
            Ok(Instr::VSlidedown {
                vd: vreg(&ops[0], ln)?,
                vs2: vreg(&ops[1], ln)?,
                operand: operand(&ops[2])?,
            })
        }
        _ => err(ln, format!("unknown vector mnemonic `{m}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_basics_parse() {
        let p = assemble(
            "start: li x3, 0x100
             addi x4, x3, -8
             add  x5, x3, x4
             ld   x6, 8(x5)
             sd   x6, (x3)
             beq  x6, x0, start
             halt",
        )
        .unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.instrs()[0], Instr::Li { rd: 3, imm: 0x100 });
        assert_eq!(
            p.instrs()[3],
            Instr::Load {
                width: Width::D,
                signed: true,
                rd: 6,
                rs1: 5,
                offset: 8
            }
        );
    }

    #[test]
    fn paper_fig4_line_parses() {
        // "vse64.v  v1, (x7)" from Fig. 4.
        let p = assemble("vse64.v v1, (x7)").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::VStore {
                eew: Sew::E64,
                vs3: 1,
                rs1: 7,
                mode: VAddrMode::Unit,
                masked: false,
            }
        );
    }

    #[test]
    fn paper_fig8_kernel_assembles() {
        // The reduction kernel body of Fig. 8 (operands space-separated).
        let src = "
            // load input data
            VLE64.v    v2 (x1)
            VMV.v.i    v1 0
            // reduce to scalar sum
            VREDSUM.vs v3 v2 v1
            // move to scalar register
            VMV.x.s    x4 v3
            // local sum's scpad addr
            LI         x3 0x10000000
            // accumulate local sum
            AMOADD.D   x4 x4 (x3)
        ";
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 6);
        assert!(matches!(
            p.instrs()[2],
            Instr::VRed {
                op: VRedOp::Sum,
                ..
            }
        ));
        assert!(matches!(
            p.instrs()[5],
            Instr::Amo {
                op: AmoOp::Add,
                width: Width::D,
                ..
            }
        ));
    }

    #[test]
    fn abi_names_resolve() {
        let p = assemble("add a0, sp, t3").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Op {
                op: IntOp::Add,
                rd: 10,
                rs1: 2,
                rs2: 28
            }
        );
    }

    #[test]
    fn float_registers_and_ops() {
        let p = assemble(
            "flw fa0, 4(a1)
             fadd.s ft0, fa0, fa0
             fmadd.s ft1, ft0, fa0, ft0
             fsqrt.s ft2, ft1
             fexp.s ft3, ft2
             feq.s a2, ft3, ft3
             fsw ft3, (a1)",
        )
        .unwrap();
        assert_eq!(p.len(), 7);
        assert!(matches!(
            p.instrs()[4],
            Instr::FOp {
                op: FpOp::Exp,
                precision: Precision::S,
                ..
            }
        ));
    }

    #[test]
    fn vector_forms_parse() {
        let p = assemble(
            "vsetvli t0, x0, e32, m1
             vle32.v v2, (a0)
             vlse32.v v3, (a1), t1
             vluxei32.v v4, (a2), v2
             vadd.vx v5, v2, t2
             vfmacc.vf v6, fa0, v5
             vmslt.vx v0, v2, t3
             vse32.v v5, (a3), v0.t
             vamoaddei32.v v7, (a4), v4",
        )
        .unwrap();
        assert_eq!(p.len(), 9);
        assert!(matches!(
            p.instrs()[3],
            Instr::VLoad {
                mode: VAddrMode::Indexed(2),
                ..
            }
        ));
        assert!(matches!(p.instrs()[7], Instr::VStore { masked: true, .. }));
        assert!(matches!(
            p.instrs()[8],
            Instr::VAmo {
                op: AmoOp::Add,
                eew: Sew::E32,
                ..
            }
        ));
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\nbogus x1, x2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unknown_label_is_an_error() {
        let e = assemble("beq x1, x2, nowhere").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\nnop\na:\nnop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn branch_pseudos_resolve() {
        let p = assemble(
            "loop: addi x1, x1, -1
             bnez x1, loop
             j loop",
        )
        .unwrap();
        assert_eq!(
            p.instrs()[1],
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: 1,
                rs2: 0,
                target: 0
            }
        );
        assert_eq!(p.instrs()[2], Instr::Jal { rd: 0, target: 0 });
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble(
            "# full line comment
             // another
             nop ; trailing
             nop // trailing 2
             ",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
    }
}
