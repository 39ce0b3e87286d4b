//! Records the toolchain and source revision for the host fingerprint
//! every result carries. Both fall back to `unknown` (a source export
//! has no git metadata; a toolchain may not answer `-V`).

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    // A new commit must refresh the recorded revision. A source export
    // has no `.git`; watching a missing path would re-run this script,
    // and so rebuild the benchmark, on every `cargo run`.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["-V"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_SHA={}",
        capture("git", &["rev-parse", "HEAD"])
    );
}
