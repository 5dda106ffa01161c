//! The experiment footer is folded from the reports the runs return. The
//! expected lines are what `SP_BENCH_QUICK=1 topo --parallel 4` and
//! `table2` print for the same runs.

use sp_adapter::{RoutePolicy, SpConfig};
use sp_am::{AmConfig, AmMachine};
use sp_bench::{micro, topo_exp, Runs};

/// The footer without the wall-clock figures of its first line.
fn footer(runs: &Runs) -> Vec<String> {
    let text = runs.to_string();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let first = &mut lines[0];
    *first = first[..first.find(" in ").expect("wall time")].to_owned();
    lines
}

#[test]
fn dead_cable_runs_fold_to_the_topo_parallel_footer() {
    let mut runs = Runs::default();
    topo_exp::fault_run(RoutePolicy::RoundRobin, 8, 12, &mut runs);
    topo_exp::fault_run_sharded(RoutePolicy::RoundRobin, 8, 12, 4, &mut runs);
    assert_eq!(
        footer(&runs),
        [
            "[engine] 2 runs, 118758 events",
            "[engine] drops: 0 fifo-overflow, 224 switch (0 duplicated); wakes coalesced: 0",
            "[reliability] rtx 114 (cause t/s/k 0/0/114) | nacks 204/204 (out/in) | dup-drop 0 \
             | ooo-drop 0 | stale-drop 0 | keepalive 278",
            "[parallel] 1 parallel runs (4 shards): 999 sync events, 1053 windows; last run: \
             util [83 85 85 84]%, events [13983 15384 14296 15716], imbalance 1.06x ev / 1.01x \
             time, sync 1.7%, critical shard 1",
        ]
    );
}

#[test]
fn table2_folds_nine_runs() {
    let mut runs = Runs::default();
    micro::table2(&mut runs);
    let lines = footer(&runs);
    assert_eq!(lines[0], "[engine] 9 runs, 32448 events");
    assert_eq!(lines.len(), 3, "no sharded run, no [parallel] line");
}

#[test]
fn clamped_shard_count_is_flagged() {
    let mut m = AmMachine::new(SpConfig::thin(2).parallel(4), AmConfig::default(), 1);
    m.spawn_all(|_| (), |am| am.barrier());
    let mut runs = Runs::default();
    runs.add(&m.run().unwrap());
    let parallel = footer(&runs).pop().unwrap();
    assert!(
        parallel.starts_with("[parallel] 1 parallel runs (2 shards)"),
        "{parallel}"
    );
    assert!(
        parallel.ends_with(
            "; WARNING: 1 run(s) clamped below the requested shard count \
             (last: 4 requested -> 2 effective)"
        ),
        "{parallel}"
    );
}
