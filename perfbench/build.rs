//! Records the version of the rustc building the benchmark, so every
//! result can state the compiler it was measured with.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-env-changed=RUSTC");
    // dpm-lint: allow(ambient-nondeterminism) -- Cargo passes the compiler to build scripts only through RUSTC
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}
