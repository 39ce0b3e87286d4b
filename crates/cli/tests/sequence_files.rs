//! Sequence files that do not fit the circuit are run errors, not
//! panics: every command that reads one (`sim`, `synth`, `obs`,
//! `session`, `vcd`) exits 1 with a typed message when the rows are too
//! narrow or the file holds no rows at all.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wbist-seq-files-{name}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wbist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wbist"))
        .args(args)
        .output()
        .expect("run wbist")
}

/// Writes the s27 benchmark (4 inputs) into `dir`.
fn s27_bench(dir: &Path) -> String {
    let path = dir.join("s27.bench").to_string_lossy().into_owned();
    let out = wbist(&["gen", "s27", "-o", &path]);
    assert_eq!(out.status.code(), Some(0), "gen s27");
    path
}

/// Runs every sequence-reading command on `seq` and checks each exits 1
/// with `needle` in its message and no panic.
fn every_command_rejects(bench: &str, seq: &str, needle: &str) {
    let runs: [&[&str]; 5] = [
        &["sim", bench, seq],
        &["synth", bench, "--seq", seq, "--lg", "8"],
        &["obs", bench, "--seq", seq, "--lg", "8"],
        &["session", bench, "--seq", seq, "--lg", "8"],
        &["vcd", bench, seq],
    ];
    for args in runs {
        let out = wbist(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn rows_narrower_than_the_circuit_are_a_typed_error() {
    let dir = scratch_dir("narrow");
    let bench = s27_bench(&dir);
    let seq = dir.join("narrow.txt");
    std::fs::write(&seq, "010\n111\n001\n").expect("write sequence");
    every_command_rejects(
        &bench,
        &seq.to_string_lossy(),
        "sequence rows have 3 bits but the circuit has 4 inputs",
    );
}

#[test]
fn an_empty_sequence_file_is_a_typed_error() {
    let dir = scratch_dir("empty");
    let bench = s27_bench(&dir);
    let seq = dir.join("empty.txt").to_string_lossy().into_owned();
    // A length cap below one ATPG block yields no vectors at all.
    let out = wbist(&["atpg", &bench, "--max-len", "3", "-o", &seq]);
    assert_eq!(out.status.code(), Some(0), "atpg --max-len 3");
    let written = std::fs::read_to_string(&seq).expect("atpg wrote the file");
    assert!(
        written.trim().is_empty(),
        "expected no rows, got {written:?}"
    );
    every_command_rejects(&bench, &seq, "holds no vectors");
}

#[test]
fn a_well_formed_file_still_simulates() {
    let dir = scratch_dir("good");
    let bench = s27_bench(&dir);
    let seq = dir.join("good.txt");
    std::fs::write(&seq, "0101\n1110\n0011\n").expect("write sequence");
    let out = wbist(&["sim", &bench, &seq.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("by 3 vectors"));
}
