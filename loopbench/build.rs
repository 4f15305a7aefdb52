//! Bakes the toolchain version and, when built from a git checkout, the
//! revision into the binary for the machine record every run prints.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let line = s.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let rev = first_line(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(&manifest),
    )
    .unwrap_or_else(|| "none (not a git checkout)".into());
    println!("cargo:rustc-env=LOOPBENCH_RUSTC={version}");
    println!("cargo:rustc-env=LOOPBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
}
