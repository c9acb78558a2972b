//! Records the compiler that builds the benchmark, for the run context.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    let version = version.trim();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        if version.is_empty() {
            "unknown"
        } else {
            version
        }
    );
    println!("cargo:rerun-if-changed=build.rs");
}
