//! The `m2ndp-asm` command-line toolchain for the M²NDP kernel dialect.
//!
//! Three subcommands over the `.s` sources in `programs/` (or any file in
//! the accepted dialect):
//!
//! * `check <file.s>...` — assemble each file and report instruction/label
//!   counts, or a line-accurate `file:line: message` error;
//! * `asm <file.s>...` — assemble and print the program listing: labels,
//!   indexed instruction forms, and the register-usage summary the kernel
//!   registration interface needs (Table II's `numIntRegs` etc.);
//! * `disasm <file.s>...` — assemble then print the canonical disassembly,
//!   which re-assembles to the identical program (the round-trip law; see
//!   `m2ndp_riscv::disasm`).
//!
//! With `--format json` every subcommand instead emits the machine-readable
//! report shape shared with the `m2ndp-trace` CLI: a top-level
//! `{"ok": bool, "diagnostics": [...]}` envelope (each diagnostic carrying
//! the same `path`/`line` anchor the text form renders as `path:line:`)
//! plus a `files` payload array. In JSON mode all files are processed so a
//! single run reports every error, not just the first.
//!
//! The library surface exists so integration tests can drive the CLI logic
//! without spawning processes; `src/main.rs` is a thin wrapper.

use std::fmt::Write as _;

use m2ndp_riscv::{assemble, disassemble, Program};
use m2ndp_sim::json::{report_json, Diagnostic, Json};

/// Usage text printed on bad invocations.
pub const USAGE: &str = "usage: m2ndp-asm <check|asm|disasm> [--format text|json] <file.s>...

  check   assemble each file; report counts or a file:line error
  asm     assemble and print the indexed program listing
  disasm  assemble and print canonical round-trippable disassembly

  --format text|json   report format (json shares the diagnostics shape
                       with m2ndp-trace and reports all files' errors)";

/// A CLI failure: what to print on stderr (exit status is always 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The message, already formatted as `file:line: reason` where a source
    /// location exists.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

/// Reads and assembles one source file. The diagnostic carries the
/// `path`/`line` anchor; text mode renders it as `file:line: message`.
fn load(path: &str) -> Result<(String, Program), Diagnostic> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Diagnostic::error_in(path, e.to_string()))?;
    let program =
        assemble(&text).map_err(|e| Diagnostic::error_at(path, e.line as u64, e.message))?;
    Ok((text, program))
}

/// Renders the `check` report line for one assembled file.
fn check_line(path: &str, program: &Program) -> String {
    format!(
        "{path}: OK ({} instrs, {} labels)",
        program.len(),
        program.labels().len()
    )
}

/// Renders the `asm` listing: labels interleaved at their indices, indexed
/// instruction forms, and the register-usage footer.
fn listing(program: &Program) -> String {
    let mut at: std::collections::BTreeMap<usize, Vec<&str>> = std::collections::BTreeMap::new();
    for (name, &idx) in program.labels() {
        at.entry(idx).or_default().push(name);
    }
    for names in at.values_mut() {
        names.sort_unstable();
    }
    let mut out = String::new();
    for (idx, instr) in program.instrs().iter().enumerate() {
        for name in at.get(&idx).into_iter().flatten() {
            let _ = writeln!(out, "{name}:");
        }
        let _ = writeln!(out, "{idx:>4}  {instr:?}");
    }
    for name in at.get(&program.len()).into_iter().flatten() {
        let _ = writeln!(out, "{name}:");
    }
    let u = program.reg_usage();
    let _ = writeln!(
        out,
        "; {} instrs, int_regs={}, float_regs={}, vector_regs={}",
        program.len(),
        u.int_regs,
        u.float_regs,
        u.vector_regs
    );
    out
}

/// Runs the CLI on `args` (without the argv\[0\] program name), writing
/// reports to `out`. On failure the error carries the formatted
/// `file:line: message` diagnostic for stderr.
///
/// # Errors
/// Returns a [`CliError`] on usage mistakes, unreadable files, assembly
/// errors, or non-canonical programs the disassembler rejects.
pub fn run(args: &[String], out: &mut String) -> Result<(), CliError> {
    // Strip `--format FMT` (position-independent) before the positional
    // split, so `check --format json a.s` and `check a.s --format json`
    // both work.
    let mut json = false;
    let mut rest: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--format" {
            match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => return Err(fail(format!("unknown format `{other}`\n{USAGE}"))),
                None => return Err(fail(format!("--format expects a value\n{USAGE}"))),
            }
        } else {
            rest.push(arg);
        }
    }
    let (cmd, files) = rest.split_first().ok_or_else(|| fail(USAGE))?;
    if files.is_empty() {
        return Err(fail(USAGE));
    }
    if !matches!(cmd.as_str(), "check" | "asm" | "disasm") {
        return Err(fail(format!("unknown subcommand `{cmd}`\n{USAGE}")));
    }
    if json {
        return run_json(cmd, files, out);
    }
    let banner = files.len() > 1;
    for path in files {
        match cmd.as_str() {
            "check" => {
                let (_, program) = load(path).map_err(|d| fail(d.human()))?;
                let _ = writeln!(out, "{}", check_line(path, &program));
            }
            "asm" => {
                let (_, program) = load(path).map_err(|d| fail(d.human()))?;
                if banner {
                    let _ = writeln!(out, "== {path} ==");
                }
                out.push_str(&listing(&program));
            }
            _ => {
                let (_, program) = load(path).map_err(|d| fail(d.human()))?;
                if banner {
                    let _ = writeln!(out, "== {path} ==");
                }
                let text = disassemble(&program)
                    .map_err(|e| fail(format!("{path}: instr {}: {}", e.index, e.message)))?;
                out.push_str(&text);
            }
        }
    }
    Ok(())
}

/// The `--format json` driver: processes every file (reporting all errors,
/// not just the first) and emits the shared
/// `{"ok", "diagnostics", "files"}` report.
fn run_json(cmd: &str, files: &[&String], out: &mut String) -> Result<(), CliError> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut file_objs: Vec<Json> = Vec::new();
    for path in files {
        let path = path.as_str();
        let mut pairs = vec![("path".to_string(), Json::Str(path.to_string()))];
        match load(path) {
            Err(d) => {
                pairs.push(("ok".to_string(), Json::Bool(false)));
                diags.push(d);
            }
            Ok((_, program)) => {
                let mut ok = true;
                let u = program.reg_usage();
                let mut extra = vec![
                    ("instrs".to_string(), Json::U64(program.len() as u64)),
                    (
                        "labels".to_string(),
                        Json::U64(program.labels().len() as u64),
                    ),
                    ("int_regs".to_string(), Json::U64(u64::from(u.int_regs))),
                    ("float_regs".to_string(), Json::U64(u64::from(u.float_regs))),
                    (
                        "vector_regs".to_string(),
                        Json::U64(u64::from(u.vector_regs)),
                    ),
                ];
                match cmd {
                    "asm" => extra.push(("listing".to_string(), Json::Str(listing(&program)))),
                    "disasm" => match disassemble(&program) {
                        Ok(text) => extra.push(("disassembly".to_string(), Json::Str(text))),
                        Err(e) => {
                            ok = false;
                            diags.push(Diagnostic::error_in(
                                path,
                                format!("instr {}: {}", e.index, e.message),
                            ));
                        }
                    },
                    _ => {}
                }
                pairs.push(("ok".to_string(), Json::Bool(ok)));
                pairs.extend(extra);
            }
        }
        file_objs.push(Json::Obj(pairs));
    }
    let failed = !diags.is_empty();
    let first = diags.first().map(Diagnostic::human);
    out.push_str(&report_json(&diags, vec![("files".to_string(), Json::Arr(file_objs))]).pretty());
    out.push('\n');
    if failed {
        return Err(fail(first.unwrap_or_default()));
    }
    Ok(())
}

/// Convenience for `main`: run and translate to an exit code, printing to
/// the real stdout/stderr.
pub fn main_impl(args: Vec<String>) -> i32 {
    let mut out = String::new();
    match run(&args, &mut out) {
        Ok(()) => {
            print!("{out}");
            0
        }
        Err(e) => {
            print!("{out}");
            eprintln!("{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("m2ndp-asm-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn check_reports_counts() {
        let p = tmpfile("ok.s", "start:\nli x5, 1\nj start\nhalt\n");
        let mut out = String::new();
        run(&["check".to_string(), p.display().to_string()], &mut out).unwrap();
        assert!(out.contains("OK (3 instrs, 1 labels)"), "{out}");
    }

    #[test]
    fn errors_carry_file_and_line() {
        let p = tmpfile("bad.s", "li x5, 1\nbogus x1, x2\n");
        let mut out = String::new();
        let e = run(&["check".to_string(), p.display().to_string()], &mut out).unwrap_err();
        assert!(
            e.message.contains("bad.s:2:"),
            "line-accurate error, got: {}",
            e.message
        );
    }

    #[test]
    fn disasm_output_reassembles_identically() {
        let p = tmpfile(
            "rt.s",
            "loop:\naddi x5, x5, -1\nbnez x5, loop\nvsetvli x0, x0, e32\nvle32.v v1, (x1)\nhalt\n",
        );
        let mut out = String::new();
        run(&["disasm".to_string(), p.display().to_string()], &mut out).unwrap();
        let original = assemble(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(assemble(&out).unwrap(), original);
    }

    #[test]
    fn asm_listing_shows_labels_and_reg_usage() {
        let p = tmpfile("list.s", "top:\nadd x4, x3, x3\nj top\n");
        let mut out = String::new();
        run(&["asm".to_string(), p.display().to_string()], &mut out).unwrap();
        assert!(out.contains("top:"), "{out}");
        assert!(out.contains("int_regs=5"), "{out}");
    }

    #[test]
    fn bad_usage_is_an_error() {
        let mut out = String::new();
        assert!(run(&[], &mut out).is_err());
        assert!(run(&["check".to_string()], &mut out).is_err());
        let p = tmpfile("u.s", "halt\n");
        let e = run(
            &["frobnicate".to_string(), p.display().to_string()],
            &mut out,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown subcommand"));
    }

    #[test]
    fn json_check_reports_counts_in_shared_shape() {
        let p = tmpfile("jok.s", "start:\nli x5, 1\nj start\nhalt\n");
        let mut out = String::new();
        run(
            &[
                "check".to_string(),
                "--format".to_string(),
                "json".to_string(),
                p.display().to_string(),
            ],
            &mut out,
        )
        .unwrap();
        let json = Json::parse(&out).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("diagnostics"), Some(&Json::Arr(Vec::new())));
        let Some(Json::Arr(files)) = json.get("files") else {
            panic!("missing files array: {out}");
        };
        assert_eq!(files[0].get("instrs"), Some(&Json::U64(3)));
        assert_eq!(files[0].get("labels"), Some(&Json::U64(1)));
    }

    #[test]
    fn json_check_reports_every_file_with_line_anchors() {
        let good = tmpfile("jg.s", "halt\n");
        let bad = tmpfile("jb.s", "li x5, 1\nbogus x1, x2\n");
        let mut out = String::new();
        let e = run(
            &[
                "check".to_string(),
                bad.display().to_string(),
                good.display().to_string(),
                "--format".to_string(),
                "json".to_string(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(e.message.contains("jb.s:2:"), "{e}");
        let json = Json::parse(&out).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        let Some(Json::Arr(diags)) = json.get("diagnostics") else {
            panic!("missing diagnostics: {out}");
        };
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("line"), Some(&Json::U64(2)));
        // Both files are still reported; the good one is ok.
        let Some(Json::Arr(files)) = json.get("files") else {
            panic!("missing files array: {out}");
        };
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(files[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn json_disasm_embeds_round_trippable_text() {
        let p = tmpfile("jrt.s", "addi x5, x5, -1\nhalt\n");
        let mut out = String::new();
        run(
            &[
                "disasm".to_string(),
                "--format".to_string(),
                "json".to_string(),
                p.display().to_string(),
            ],
            &mut out,
        )
        .unwrap();
        let json = Json::parse(&out).unwrap();
        let Some(Json::Arr(files)) = json.get("files") else {
            panic!("missing files array: {out}");
        };
        let Some(Json::Str(disasm)) = files[0].get("disassembly") else {
            panic!("missing disassembly: {out}");
        };
        let original = assemble(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(assemble(disasm).unwrap(), original);
    }
}
