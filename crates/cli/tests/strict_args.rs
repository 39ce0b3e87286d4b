//! Every command parses its arguments strictly: an unknown option or a
//! surplus positional argument is a usage error (exit 1) before any
//! work runs, never a silently ignored typo.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wbist-strict-args-{name}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wbist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wbist"))
        .args(args)
        .output()
        .expect("run wbist")
}

/// Writes the s27 benchmark and a three-vector sequence for it into
/// `dir`, returning both paths.
fn s27_files(dir: &Path) -> (String, String) {
    let bench = dir.join("s27.bench").to_string_lossy().into_owned();
    let out = wbist(&["gen", "s27", "-o", &bench]);
    assert_eq!(out.status.code(), Some(0), "gen s27");
    let seq = dir.join("s.txt");
    std::fs::write(&seq, "0101\n1110\n0011\n").expect("write sequence");
    (bench, seq.to_string_lossy().into_owned())
}

/// `args` must exit 1 naming `needle`, print nothing to stdout, and not
/// panic.
fn rejected(args: &[&str], needle: &str) {
    let out = wbist(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelled_option_is_a_usage_error() {
    let dir = scratch_dir("misspelled");
    let (bench, seq) = s27_files(&dir);
    rejected(
        &["synth", &bench, "--seq", &seq, "--lgg", "64"],
        "unknown option `--lgg`",
    );
    rejected(&["sim", &bench, &seq, "--time"], "unknown option `--time`");
    rejected(&["stats", &bench, "-x"], "unknown option `-x`");
}

#[test]
fn a_surplus_positional_is_a_usage_error() {
    let dir = scratch_dir("surplus");
    let (bench, seq) = s27_files(&dir);
    rejected(
        &["sim", &bench, &seq, "extra"],
        "unexpected argument `extra`",
    );
    rejected(&["synth", &bench, &seq, "--lg", "8"], "unexpected argument");
    rejected(&["gen", "s27", "s298"], "unexpected argument `s298`");
}

#[test]
fn the_retired_cone_seeding_switch_is_rejected() {
    let dir = scratch_dir("retired");
    let (bench, seq) = s27_files(&dir);
    rejected(
        &[
            "synth",
            &bench,
            "--seq",
            &seq,
            "--lg",
            "8",
            "--no-cone-seeding",
        ],
        "unknown option `--no-cone-seeding`",
    );
}

#[test]
fn well_formed_invocations_still_run() {
    let dir = scratch_dir("well-formed");
    let (bench, seq) = s27_files(&dir);
    let out = wbist(&["sim", &bench, &seq, "--times", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("by 3 vectors"));
    let out = wbist(&["synth", &bench, "--seq", &seq, "--lg", "8"]);
    assert_eq!(out.status.code(), Some(0));
}
