//! The measurement loop: repeated runs of one workload for a time budget,
//! output checks, determinism checks, and the traced run.

use crate::host;
use crate::workload::{self, sp_config, Iteration, Spec};
use sp_sim::Time;
use sp_switch::Switch;
use sp_trace::{Kind, Record, TrackKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Runs per measurement, however short the time budget.
pub const MIN_RUNS: usize = 3;
/// Set-up-only repetitions after each run, added to the set-up samples so
/// that `setup_s` has many samples spread over the whole measurement.
pub const SETUP_REPS: usize = 5;
/// Trace ring capacity per node: large enough that no workload loses
/// records (capacity is reserved up front but only touched when used).
const TRACE_CAPACITY: usize = 1 << 18;
/// Replays of the traced packet stream through a fresh switch.
const TRANSIT_REPLAYS: usize = 7;
/// Largest share of the box's CPU time the hypervisor may steal during a
/// run before that run's host times count as disturbed. Normal runs see
/// under 1%; a busy host steals 20–35% and doubles wall times.
pub const MAX_STEAL_SHARE: f64 = 0.02;
/// How far past its time budget a measurement may run to find one
/// undisturbed run. Steal comes in episodes of a minute or two.
const MAX_OVERRUN: f64 = 2.5;

/// Share of the box's CPU time stolen by the hypervisor during `it`.
pub fn steal_share(it: &Iteration) -> f64 {
    let cpus = host::nproc() as f64;
    it.steal.as_secs_f64() / (it.wall.as_secs_f64() * cpus).max(f64::MIN_POSITIVE)
}

fn disturbed(it: &Iteration) -> bool {
    steal_share(it) > MAX_STEAL_SHARE
}

/// The untraced runs of one measurement.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every run, in order.
    pub iters: Vec<Iteration>,
    /// Set-up time samples: per run, its own and [`SETUP_REPS`] set-ups
    /// alone.
    pub setups: Vec<Duration>,
    /// Peak resident set size of the process after the runs, MB.
    pub peak_rss_mb: f64,
    /// Operations attempted over every run.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failed output and determinism checks.
    pub problems: Vec<String>,
}

impl Measured {
    /// The runs whose host times the medians use: the undisturbed ones, or
    /// every run when the hypervisor disturbed them all.
    pub fn timed(&self) -> Vec<&Iteration> {
        let calm: Vec<&Iteration> = self.iters.iter().filter(|i| !disturbed(i)).collect();
        if calm.is_empty() {
            self.iters.iter().collect()
        } else {
            calm
        }
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Fold one run's check results in, and check that its virtual results
    /// equal the first run's; `what` names the run in messages.
    pub fn absorb(&mut self, it: &Iteration, what: &str) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        for p in &it.problems {
            self.problems.push(format!("{what}: {p}"));
        }
        if let Some(first) = self.iters.first() {
            if it.virt != first.virt {
                self.problems.push(format!(
                    "{what}: virtual results differ from run 1 (events {} vs {}, hash {:016x} vs {:016x})",
                    it.virt.events, first.virt.events, it.virt.hash, first.virt.hash
                ));
            }
        }
    }
}

/// Run `spec` repeatedly until `seconds` have passed (at least
/// [`MIN_RUNS`] times), checking every run's outputs and that every run
/// reproduces the first one's virtual results exactly. While every run so
/// far was disturbed by hypervisor steal, keep going for up to
/// [`MAX_OVERRUN`] times the budget.
pub fn measure(spec: &Spec, seconds: f64) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let all_disturbed = m.iters.iter().all(disturbed);
        let more = m.iters.len() < MIN_RUNS
            || elapsed < seconds
            || (all_disturbed && elapsed < MAX_OVERRUN * seconds);
        if !more {
            break;
        }
        let it = workload::run(spec, None);
        m.absorb(&it, &format!("run {}", m.iters.len() + 1));
        m.setups.push(it.setup);
        m.iters.push(it);
        for _ in 0..SETUP_REPS {
            m.setups.push(workload::setup_only(spec));
        }
    }
    m.peak_rss_mb = host::peak_rss_mb();
    m
}

/// The traced run of `spec`, recording into rings of 2^18 records per node.
/// `None` for a workload whose public API takes no tracer.
pub fn traced(spec: &Spec) -> Option<Iteration> {
    if spec.workload == workload::Workload::Mg {
        return None;
    }
    Some(workload::run(spec, Some(TRACE_CAPACITY)))
}

/// One packet's switch transit as the traced run made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Transit {
    ready_ns: u64,
    src: usize,
    dst: usize,
    wire_bytes: usize,
}

/// Rebuild the switch's input stream from a trace: per source node, the
/// n-th firmware send (`FwSend`: wire bytes, and the instant it hands the
/// packet to the switch) pairs with the n-th fabric entry on its injection
/// link (the first `SwitchHop`: destination). `None` when the two streams
/// disagree, as a truncated trace would make them.
fn transit_stream(records: &[Record]) -> Option<Vec<Transit>> {
    let mut sends: BTreeMap<usize, Vec<(u64, u64, usize)>> = BTreeMap::new();
    let mut entries: BTreeMap<usize, Vec<(u64, usize)>> = BTreeMap::new();
    for r in records {
        match (r.kind, r.track.kind(), r.track.node()) {
            (Kind::FwSend, TrackKind::Adapter, Some(n)) => {
                sends
                    .entry(n)
                    .or_default()
                    .push((r.at, r.end(), r.arg as usize))
            }
            (Kind::SwitchHop, TrackKind::SwitchInj, Some(n)) => {
                entries.entry(n).or_default().push((r.at, r.arg as usize))
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (src, mut s) in sends {
        let mut e = entries.remove(&src).unwrap_or_default();
        s.sort_unstable();
        e.sort_unstable();
        if s.len() != e.len() {
            return None;
        }
        for ((_, ready_ns, wire_bytes), (_, dst)) in s.into_iter().zip(e) {
            out.push(Transit {
                ready_ns,
                src,
                dst,
                wire_bytes,
            });
        }
    }
    if !entries.is_empty() {
        return None;
    }
    out.sort_unstable();
    Some(out)
}

/// Host ns per `Switch::transit` call when the traced run's packet stream
/// is replayed, in order, through a fresh switch of the same topology:
/// the median over [`TRANSIT_REPLAYS`] replays. `None` without a trace or
/// when its packet stream cannot be rebuilt.
pub fn transit_host_ns(spec: &Spec, traced: &Iteration) -> Option<f64> {
    let (records, _) = traced.trace.as_ref()?;
    let stream = transit_stream(records)?;
    if stream.is_empty() {
        return None;
    }
    let sp = sp_config(spec);
    let mut per_call: Vec<f64> = (0..TRANSIT_REPLAYS)
        .map(|_| {
            let mut sw = Switch::with_topology(sp.topology.clone(), sp.switch.clone());
            let t0 = Instant::now();
            for p in &stream {
                std::hint::black_box(sw.transit(p.src, p.dst, p.wire_bytes, Time(p.ready_ns)));
            }
            t0.elapsed().as_nanos() as f64 / stream.len() as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    Some(per_call[per_call.len() / 2])
}
