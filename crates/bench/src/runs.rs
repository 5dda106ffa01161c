//! The footer every experiment binary prints: engine throughput, packet
//! loss, AM reliability and the parallel engine's profile, folded from the
//! reports of the runs the binary made.

use sp_adapter::SpWorld;
use sp_am::{AmReport, AmStats};
use sp_mpi::runner::MpiRunReport;
use sp_mpl::MplReport;
use sp_sim::{ShardProfile, SimReport};
use sp_splitc::SpmdReport;
use sp_traffic::TrafficReport;
use std::fmt;
use std::time::Duration;

/// What one run contributes to the footer, borrowed from its report.
#[derive(Default)]
pub struct Run<'a> {
    events: u64,
    wall: Duration,
    wakes_coalesced: u64,
    dropped_overflow: u64,
    switch_dropped: u64,
    switch_duplicated: u64,
    am_stats: &'a [AmStats],
    shards_requested: usize,
    profile: Option<&'a ShardProfile>,
}

/// Reports that carry every footer fact under the footer's own names.
macro_rules! run_from {
    ($($report:ty),*) => {$(
        impl<'a> From<&'a $report> for Run<'a> {
            fn from(r: &'a $report) -> Self {
                Run {
                    events: r.events,
                    wall: r.wall,
                    wakes_coalesced: r.wakes_coalesced,
                    dropped_overflow: r.dropped_overflow,
                    switch_dropped: r.switch_dropped,
                    switch_duplicated: r.switch_duplicated,
                    am_stats: &r.am_stats,
                    shards_requested: r.shards_requested,
                    profile: r.profile.as_ref(),
                }
            }
        }
    )*};
}
run_from!(AmReport, MpiRunReport, TrafficReport);

impl<'a> From<&'a MplReport> for Run<'a> {
    fn from(r: &'a MplReport) -> Self {
        let run = Run {
            events: r.events,
            wall: r.wall,
            wakes_coalesced: r.wakes_coalesced,
            shards_requested: r.shards_requested,
            profile: r.profile.as_ref(),
            ..Run::default()
        };
        run.with_drops(&r.world)
    }
}

impl<'a> From<&'a SpmdReport> for Run<'a> {
    fn from(r: &'a SpmdReport) -> Self {
        match r {
            SpmdReport::Am(r) => r.into(),
            SpmdReport::Mpl(r) => r.into(),
            SpmdReport::Logp(r) => Run::engine(r),
        }
    }
}

impl<'a> Run<'a> {
    /// A run on the bare adapters, with no protocol layer above them.
    pub fn raw<P: Send + 'static>(r: &'a SimReport<SpWorld<P>>) -> Self {
        Run::engine(r).with_drops(&r.world)
    }

    /// The engine's share of a run; all of a LogGP machine run, which has
    /// no switch, no adapters and no AM.
    pub fn engine<W>(r: &'a SimReport<W>) -> Self {
        Run {
            events: r.events,
            wall: r.wall,
            wakes_coalesced: r.wakes_coalesced,
            shards_requested: r.shards_requested,
            profile: r.profile.as_ref(),
            ..Run::default()
        }
    }

    fn with_drops<P: Send + 'static>(self, w: &SpWorld<P>) -> Self {
        let sw = w.switch.stats();
        Run {
            dropped_overflow: w.dropped_overflow(),
            switch_dropped: sw.dropped,
            switch_duplicated: sw.duplicated,
            ..self
        }
    }
}

/// The footer of one experiment binary: every run it made, folded. `main`
/// owns one, each experiment function feeds it the reports it gets back,
/// and `main` prints it last.
#[derive(Default)]
pub struct Runs {
    runs: u64,
    events: u64,
    wall: Duration,
    wakes_coalesced: u64,
    dropped_overflow: u64,
    switch_dropped: u64,
    switch_duplicated: u64,
    /// [`reliability`] summed over every node of every run.
    reliability: [u64; 10],
    parallel_runs: u64,
    shards: u64,
    sync_events: u64,
    windows: u64,
    clamped_runs: u64,
    /// `(requested, effective)` shard counts of the last clamped run.
    last_clamp: Option<(usize, usize)>,
    last_profile: Option<ShardProfile>,
}

/// The `[reliability]` counters of one node, in print order.
fn reliability(s: &AmStats) -> [u64; 10] {
    [
        s.packets_retransmitted,
        s.rtx_timeout,
        s.rtx_sack_gap,
        s.rtx_keepalive,
        s.nacks_sent,
        s.nacks_received,
        s.dup_dropped,
        s.ooo_dropped,
        s.stale_dropped,
        s.keepalive_rounds,
    ]
}

impl Runs {
    /// Fold one run's report in.
    pub fn add<'a>(&mut self, run: impl Into<Run<'a>>) {
        let r = run.into();
        self.runs += 1;
        self.events += r.events;
        self.wall += r.wall;
        self.wakes_coalesced += r.wakes_coalesced;
        self.dropped_overflow += r.dropped_overflow;
        self.switch_dropped += r.switch_dropped;
        self.switch_duplicated += r.switch_duplicated;
        for s in r.am_stats {
            for (sum, v) in self.reliability.iter_mut().zip(reliability(s)) {
                *sum += v;
            }
        }
        if let Some(p) = r.profile {
            let shards = p.num_shards();
            self.parallel_runs += 1;
            self.shards += shards as u64;
            self.sync_events += p.sync_events.iter().sum::<u64>();
            self.windows += p.windows;
            if r.shards_requested > shards {
                self.clamped_runs += 1;
                self.last_clamp = Some((r.shards_requested, shards));
            }
            self.last_profile = Some(p.clone());
        }
    }

    /// Print the footer after a blank line.
    pub fn print(&self) {
        println!("\n{self}");
    }
}

impl fmt::Display for Runs {
    /// Two `[engine]` lines and a `[reliability]` line, plus a
    /// `[parallel]` line when any run was sharded.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (runs, events) = (self.runs, self.events);
        let secs = self.wall.as_secs_f64();
        let rate = events as f64 / secs.max(1e-9);
        let (scaled, unit) = if rate >= 1e6 {
            (rate / 1e6, "M")
        } else {
            (rate / 1e3, "k")
        };
        writeln!(
            f,
            "[engine] {runs} runs, {events} events in {secs:.2} s ({scaled:.1} {unit} events/sec)"
        )?;
        writeln!(
            f,
            "[engine] drops: {} fifo-overflow, {} switch ({} duplicated); wakes coalesced: {}",
            self.dropped_overflow,
            self.switch_dropped,
            self.switch_duplicated,
            self.wakes_coalesced,
        )?;
        // The retransmit causes are timeout/sack-gap/keepalive; the rest
        // of `rtx` is plain NACK-driven go-back-N.
        let [rtx, t, s, k, nack_out, nack_in, dup, ooo, stale, keepalive] = self.reliability;
        write!(
            f,
            "[reliability] rtx {rtx} (cause t/s/k {t}/{s}/{k}) | nacks {nack_out}/{nack_in} \
             (out/in) | dup-drop {dup} | ooo-drop {ooo} | stale-drop {stale} | keepalive {keepalive}"
        )?;
        if self.parallel_runs == 0 {
            return Ok(());
        }
        write!(
            f,
            "\n[parallel] {} parallel runs ({} shards): {} sync events, {} windows",
            self.parallel_runs, self.shards, self.sync_events, self.windows
        )?;
        if let Some(p) = &self.last_profile {
            write!(f, "; last run: {}", p.summary())?;
        }
        if let Some((req, eff)) = self.last_clamp {
            write!(
                f,
                "; WARNING: {} run(s) clamped below the requested shard count \
                 (last: {req} requested -> {eff} effective)",
                self.clamped_runs
            )?;
        }
        Ok(())
    }
}
