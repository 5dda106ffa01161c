//! The benchmark's own guards: outputs pass their checks on a seed not
//! used while tuning it, virtual results are deterministic (run to run,
//! traced or not, serial or sharded), every metric is reported, runs the
//! hypervisor disturbed stay out of the host medians, and
//! `BENCHMARK.json` lists exactly the metrics the program prints.
//!
//! Run with `cargo test --release`: the held-out-seed test runs every
//! workload at its full benchmark size.

use perfbench::host::Usage;
use perfbench::measure::{self, Measured};
use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::workload::{self, Iteration, Size, Spec, Virt, Workload};
use std::time::Duration;

/// A seed the benchmark's sizes and checks were not tuned on.
const HELD_OUT_SEED: u64 = 20_261_017;

fn small(workload: Workload, seed: u64) -> Spec {
    Spec {
        size: Size::small(),
        ..Spec::new(workload, seed)
    }
}

#[test]
fn held_out_seed_passes_every_check_at_full_size() {
    for w in Workload::ALL {
        let it = workload::run(&Spec::new(w, HELD_OUT_SEED), None);
        assert!(it.problems.is_empty(), "{}: {:?}", w.name(), it.problems);
        assert_eq!(it.failed, 0, "{}", w.name());
        assert!(it.attempted > 0, "{}", w.name());
        if w == Workload::Fattree {
            assert!(it.attempted >= 1_000, "p99 needs ten samples beyond it");
        }
    }
}

#[test]
fn virtual_results_repeat_and_tracing_does_not_change_them() {
    for w in Workload::ALL {
        let spec = small(w, 3);
        let a = workload::run(&spec, None);
        let b = workload::run(&spec, None);
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert_eq!(a.virt, b.virt, "{}: two untraced runs differ", w.name());
        if let Some(t) = measure::traced(&spec) {
            assert_eq!(t.virt, a.virt, "{}: traced run differs", w.name());
            let (records, lost) = t.trace.as_ref().expect("traced run has records");
            assert!(!records.is_empty());
            assert_eq!(*lost, 0, "{}: trace ring overflowed", w.name());
        }
    }
}

/// The virtual results a serial and a sharded run must share: everything
/// but the shard bookkeeping.
fn shard_independent(v: &Virt) -> Virt {
    Virt {
        sync_events: 0,
        windows: 0,
        profile: None,
        ..v.clone()
    }
}

#[test]
fn sharded_runs_match_serial() {
    for w in [Workload::Fattree, Workload::Mg] {
        let sharded = small(w, 5);
        assert_eq!(sharded.shards, 2);
        let serial = Spec {
            shards: 1,
            ..sharded.clone()
        };
        let a = workload::run(&serial, None);
        let b = workload::run(&sharded, None);
        assert!(b.problems.is_empty(), "{}: {:?}", w.name(), b.problems);
        assert!(
            b.virt.windows > 0,
            "{}: the sharded run used windows",
            w.name()
        );
        assert_eq!(a.virt.events, b.virt.events, "{}: events", w.name());
        assert_eq!(a.virt.hash, b.virt.hash, "{}: report hash", w.name());
        assert_eq!(
            shard_independent(&a.virt),
            shard_independent(&b.virt),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_metric_is_reported_and_finite() {
    for w in Workload::ALL {
        let spec = small(w, 7);
        let mut m = measure::measure(&spec, 0.0);
        assert_eq!(m.iters.len(), measure::MIN_RUNS);
        assert_eq!(
            m.setups.len(),
            measure::MIN_RUNS * (1 + measure::SETUP_REPS)
        );
        let e2e = metrics::end_to_end(&m);
        for &(name, _, _) in END_TO_END {
            assert!(e2e[name] > 0.0, "{}: {name} = {}", w.name(), e2e[name]);
        }
        let traced = measure::traced(&spec);
        if let Some(t) = &traced {
            m.absorb(t, "traced run");
        }
        assert!(m.correct(), "{}: {:?}", w.name(), m.problems);
        let transit = traced
            .as_ref()
            .and_then(|t| measure::transit_host_ns(&spec, t));
        assert_eq!(
            transit.is_some(),
            w != Workload::Mg,
            "{}: transit replay",
            w.name()
        );
        let layers = metrics::per_layer(w, &m, traced.as_ref(), transit);
        assert_eq!(layers.len(), PER_LAYER.len());
        for &(name, _, _) in PER_LAYER {
            let v = layers[name];
            assert!(
                v.is_finite() && (v >= 0.0 || v == metrics::NOT_MEASURED),
                "{name} = {v}"
            );
        }
        assert_eq!(layers["ops_failed_share"], 0.0);
        assert!(
            layers["trace.records_lost"] <= 0.0,
            "{}: trace lost records",
            w.name()
        );
    }
}

#[test]
fn host_medians_leave_out_runs_the_hypervisor_disturbed() {
    let run = |wall_s: f64, steal_s: f64| Iteration {
        setup: Duration::ZERO,
        wall: Duration::from_secs_f64(wall_s),
        usage: Usage::default(),
        steal: Duration::from_secs_f64(steal_s),
        os_threads: None,
        generate: None,
        virt: Virt::default(),
        trace: None,
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
    };
    let walls =
        |m: &Measured| -> Vec<f64> { m.timed().iter().map(|i| i.wall.as_secs_f64()).collect() };
    let mixed = Measured {
        iters: vec![run(1.0, 0.0), run(3.0, 1.0), run(1.2, 0.001)],
        ..Measured::default()
    };
    assert_eq!(walls(&mixed), [1.0, 1.2], "the stolen run is left out");
    let all_stolen = Measured {
        iters: vec![run(3.0, 1.0), run(2.5, 0.9)],
        ..Measured::default()
    };
    assert_eq!(
        walls(&all_stolen),
        [3.0, 2.5],
        "with no calm run, all count"
    );
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    let listed = json.matches("\"better\"").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "one entry per metric"
    );
    for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
