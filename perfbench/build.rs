//! Records the build's provenance (rustc version, git commit, profile) so
//! every result can be tagged with it.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit =
        output("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-read the commit when HEAD moves. Outside a git checkout there is
    // nothing to watch, and naming a missing path would rebuild every time.
    for watched in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
