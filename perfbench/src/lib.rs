//! End-to-end and per-layer benchmark of the SP simulator.
//!
//! One command runs four workloads through the public APIs of `sp-am`,
//! `sp-traffic`, `sp-mpi` and `sp-nas`, checks their outputs, and reports
//! host-time metrics (what the simulator costs) and, from a separate
//! traced run, per-layer metrics in both host and virtual time. See
//! `METRICS.md` in this directory for every metric.

pub mod host;
pub mod measure;
pub mod metrics;
pub mod workload;
