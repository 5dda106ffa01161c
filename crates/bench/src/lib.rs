//! # sp-bench — the experiment harness
//!
//! One function per table/figure of the paper, each returning plain data
//! that the `src/bin/*` binaries print in the paper's layout, and folding
//! the report of every run it makes into the caller's [`Runs`], which the
//! binary prints last as its engine/reliability footer. DESIGN.md
//! maps every experiment id to its regenerating binary; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! Everything here measures **virtual time** on the simulated SP (or LogGP
//! machines); `cargo bench` (Criterion) separately measures the *wall
//! clock* performance of the implementation's hot data structures.

#![warn(missing_docs)]

pub mod ablation;
pub mod fmt;
pub mod micro;
pub mod mpi_exp;
pub mod nas_exp;
pub mod runs;
pub mod splitc_exp;
pub mod topo_exp;
pub mod trace_rt;

pub use runs::Runs;

/// Default node count for the point-to-point experiments.
pub const PAIR: usize = 2;

/// Quick mode (set `SP_BENCH_QUICK=1`): smaller sweeps for smoke runs.
pub fn quick() -> bool {
    std::env::var("SP_BENCH_QUICK").is_ok_and(|v| v == "1")
}
