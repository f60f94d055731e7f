//! End-to-end tests of the `m2ndp-asm` binary over the `programs/` corpus.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_m2ndp-asm"))
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("programs/ exists at the repo root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "s"))
        .collect();
    files.sort();
    files
}

#[test]
fn check_passes_on_the_whole_corpus() {
    let files = corpus_files();
    assert_eq!(files.len(), 15, "corpus size pinned; update on add/remove");
    let out = bin()
        .arg("check")
        .args(&files)
        .output()
        .expect("spawn m2ndp-asm");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), files.len());
    assert!(stdout.lines().all(|l| l.contains(": OK (")), "{stdout}");
}

#[test]
fn disasm_of_corpus_reassembles_byte_identically() {
    for file in corpus_files() {
        let out = bin().arg("disasm").arg(&file).output().unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let original = m2ndp_riscv::assemble(&std::fs::read_to_string(&file).unwrap()).unwrap();
        let reassembled = m2ndp_riscv::assemble(&text)
            .unwrap_or_else(|e| panic!("{}: disasm output must assemble: {e}", file.display()));
        assert_eq!(reassembled, original, "{}", file.display());
        // Canonical text is a fixpoint: disassembling again is byte-identical.
        let again = m2ndp_riscv::disassemble(&reassembled).unwrap();
        assert_eq!(again, text, "{}", file.display());
    }
}

#[test]
fn asm_listing_reports_register_usage() {
    let spmv = corpus_dir().join("spmv.s");
    let out = bin().arg("asm").arg(&spmv).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("row_loop:"), "{stdout}");
    assert!(stdout.contains("vector_regs="), "{stdout}");
}

#[test]
fn missing_file_exits_nonzero_with_path_in_message() {
    let out = bin().arg("check").arg("no/such/file.s").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no/such/file.s"), "{stderr}");
}

#[test]
fn assembly_error_is_line_accurate() {
    let dir = std::env::temp_dir().join("m2ndp-asm-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("broken.s");
    std::fs::write(&p, "halt\nhalt\nld x5, oops(x3)\n").unwrap();
    let out = bin().arg("check").arg(&p).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("broken.s:3:"), "{stderr}");
}
