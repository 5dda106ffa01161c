//! The four workloads. Each builds its machine and inputs from the seed,
//! runs them through the public APIs of `sp-am`, `sp-traffic`, `sp-mpi`
//! and `sp-nas`, checks the outputs, and returns one [`Iteration`]:
//! host timings plus everything the simulated machine reported.

use crate::host::{self, Usage};
use sp_adapter::{AdapterStats, SpConfig};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmStats, GlobalPtr, HandlerId};
use sp_mpi::runner::MpiImpl;
use sp_nas::{Kernel, NasClass};
use sp_sim::{Dur, ShardProfile, Time};
use sp_switch::SwitchStats;
use sp_trace::{Record, Tracer};
use sp_traffic::{TrafficConfig, TrafficSchedule};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: the paper's one-word AM round trip on two
    /// thin nodes, serial engine.
    Pingpong,
    /// Closed loop, one client: batches of 64 KiB stores alternating with
    /// batches of 64 KiB gets between two thin nodes, serial engine.
    Bulk,
    /// Open loop: Poisson request/response traffic over a 128-node fat
    /// tree, 2 engine shards.
    Fattree,
    /// Bulk-synchronous NAS MG class S over MPI-AM on 16 thin ranks,
    /// 2 engine shards.
    Mg,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::Pingpong,
        Workload::Bulk,
        Workload::Fattree,
        Workload::Mg,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong-2n",
            Workload::Bulk => "bulk-2n",
            Workload::Fattree => "fattree-128",
            Workload::Mg => "mg-16",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine shards the benchmark runs this workload on.
    pub fn shards(self) -> usize {
        match self {
            Workload::Pingpong | Workload::Bulk => 1,
            Workload::Fattree | Workload::Mg => 2,
        }
    }
}

/// Problem sizes. [`Size::full`] is what the benchmark measures; the
/// benchmark's tests shrink it.
#[derive(Debug, Clone)]
pub struct Size {
    /// `pingpong-2n`: round trips per run.
    pub round_trips: usize,
    /// `bulk-2n`: rounds of (one batch of stores, one batch of gets).
    pub bulk_rounds: usize,
    /// `bulk-2n`: transfers per batch.
    pub bulk_batch: usize,
    /// `bulk-2n`: bytes per transfer.
    pub bulk_bytes: u32,
    /// `fattree-128`: arrival horizon of the traffic schedule, ns.
    pub horizon_ns: u64,
    /// `mg-16`: NAS problem class.
    pub nas_class: NasClass,
}

impl Size {
    /// The sizes the benchmark measures: about a second of host time per
    /// run on the two closed loops, and at least 1 000 flows on the fat
    /// tree so its p99 has ten samples beyond it.
    pub fn full() -> Size {
        Size {
            round_trips: 400,
            bulk_rounds: 4,
            bulk_batch: 4,
            bulk_bytes: 64 * 1024,
            horizon_ns: 2_250_000,
            nas_class: NasClass::S,
        }
    }

    /// Small sizes for tests.
    pub fn small() -> Size {
        Size {
            round_trips: 20,
            bulk_rounds: 2,
            bulk_batch: 2,
            bulk_bytes: 16 * 1024,
            horizon_ns: 200_000,
            nas_class: NasClass::Reduced,
        }
    }
}

/// One fully specified run: workload, seed, shard count and size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Engine shards (1 = serial engine).
    pub shards: usize,
    /// Problem size.
    pub size: Size,
}

impl Spec {
    /// The benchmark's configuration of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            seed,
            shards: workload.shards(),
            size: Size::full(),
        }
    }
}

/// The simulated machine `spec` runs on.
pub fn sp_config(spec: &Spec) -> SpConfig {
    let sp = match spec.workload {
        Workload::Pingpong | Workload::Bulk => SpConfig::thin(2),
        Workload::Fattree => SpConfig::fat_tree(2, 8, 1),
        Workload::Mg => SpConfig::thin(MG_RANKS),
    };
    sp.parallel(spec.shards)
}

/// Adapter and switch totals read from the run's final world state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hardware {
    /// Per-node adapter counters.
    pub adapters: Vec<AdapterStats>,
    /// Fabric counters.
    pub switch: SwitchStats,
}

/// Everything a run computes in virtual time. Deterministic: two runs of
/// one [`Spec`] must produce equal values, traced or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virt {
    /// Final virtual time, ns.
    pub end_ns: u64,
    /// Engine events executed.
    pub events: u64,
    /// Fingerprint over the outputs and the machine's final counters.
    pub hash: u64,
    /// Per-operation latency, ns, sorted (empty for `mg-16`).
    pub lat_ns: Vec<u64>,
    /// Payload bytes moved and the virtual window they moved in, for the
    /// payload rate (`None` where the workload reports no rate).
    pub payload: Option<(u64, u64)>,
    /// Virtual completion time, ns: the NAS timed section for `mg-16`,
    /// the final virtual time otherwise.
    pub completion_ns: u64,
    /// Per-node AM counters read at the end of each node program (`None`
    /// where the workload's API does not expose them).
    pub am: Option<Vec<AmStats>>,
    /// Adapter and switch counters (`None` where not exposed).
    pub hw: Option<Hardware>,
    /// Unpark wake-ups coalesced by the engine (`None` where not exposed).
    pub wakes_coalesced: Option<u64>,
    /// Shard synchronization events (0 on the serial engine).
    pub sync_events: u64,
    /// Lookahead windows (0 on the serial engine).
    pub windows: u64,
    /// PDES profile of a sharded run.
    pub profile: Option<ShardProfile>,
    /// `bulk-2n`: store bytes and the virtual ns spent in store batches.
    pub store: (u64, u64),
    /// `bulk-2n`: get bytes and the virtual ns spent in get batches.
    pub get: (u64, u64),
    /// `fattree-128`: scheduled flows and offered load, MB/s.
    pub traffic: Option<(u64, f64)>,
    /// `fattree-128`: issue instant minus due instant per flow, ns, sorted.
    pub issue_late_ns: Vec<u64>,
    /// `mg-16`: bits of the agreed residual checksum.
    pub checksum: Option<u64>,
}

/// One measured run of a workload.
#[derive(Debug)]
pub struct Iteration {
    /// Machine construction, input generation and program spawn.
    pub setup: Duration,
    /// The simulation run itself.
    pub wall: Duration,
    /// Process CPU and context switches accumulated during the run.
    pub usage: Usage,
    /// CPU time stolen by the hypervisor during the run, all CPUs.
    pub steal: Duration,
    /// OS threads the simulator had running, beyond the harness's own
    /// (`None` where no node program of ours can look).
    pub os_threads: Option<u64>,
    /// Host time of `TrafficSchedule::generate` (`fattree-128` only).
    pub generate: Option<Duration>,
    /// What the simulated machine did.
    pub virt: Virt,
    /// Trace records and the count lost to ring overflow, when traced.
    pub trace: Option<(Vec<Record>, u64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Run `spec` once. With `trace_capacity`, a recorder with that many
/// records per node is installed across the whole stack.
pub fn run(spec: &Spec, trace_capacity: Option<usize>) -> Iteration {
    let mut it = match spec.workload {
        Workload::Pingpong => pingpong(spec, trace_capacity),
        Workload::Bulk => bulk(spec, trace_capacity),
        Workload::Fattree => fattree(spec, trace_capacity),
        // The NAS runner hashes the machine's final state itself.
        Workload::Mg => return mg(spec),
    };
    it.virt.hash = fingerprint(&it.virt);
    it
}

/// Build `spec`'s machine and inputs without running them, and return how
/// long that took. Lets the benchmark sample set-up time more often than
/// whole runs fit in its time budget.
pub fn setup_only(spec: &Spec) -> Duration {
    let t0 = Instant::now();
    match spec.workload {
        Workload::Pingpong => drop(std::hint::black_box(pingpong_setup(spec, None))),
        Workload::Bulk => drop(std::hint::black_box(bulk_setup(spec, None))),
        Workload::Fattree => drop(std::hint::black_box(fattree_setup(spec, None))),
        Workload::Mg => drop(std::hint::black_box(mg_setup(spec))),
    }
    t0.elapsed()
}

// ------------------------------------------------------------- helpers

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone.
struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and input stream `stream`.
    fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Per-node AM counters, pushed by each node program as it ends.
type StatsSink = Arc<Mutex<Vec<(usize, AmStats)>>>;

fn push_stats<S>(sink: &StatsSink, am: &Am<'_, S>) {
    sink.lock()
        .expect("a node program panicked holding the stats sink")
        .push((am.node(), am.stats().clone()));
}

fn take_stats(sink: &StatsSink, nodes: usize, problems: &mut Vec<String>) -> Vec<AmStats> {
    let mut v = std::mem::take(&mut *sink.lock().expect("stats sink poisoned"));
    v.sort_by_key(|&(node, _)| node);
    if v.len() != nodes {
        problems.push(format!("{} of {nodes} node programs finished", v.len()));
    }
    v.into_iter().map(|(_, s)| s).collect()
}

/// A machine built and spawned, ready to run.
struct Built<T> {
    machine: AmMachine,
    tracer: Option<Tracer>,
    sink: StatsSink,
    threads: Arc<AtomicU64>,
    setup: Duration,
    extra: T,
}

/// Run a built AM machine, timing it and reading its counters.
fn run_am<T>(b: Built<T>) -> (Iteration, T) {
    let nodes = b.machine.nodes();
    let (u0, s0) = (Usage::now(), host::steal());
    let t0 = Instant::now();
    let result = b.machine.run();
    let wall = t0.elapsed();
    let usage = Usage::now().since(u0);
    let steal = host::steal().saturating_sub(s0);
    let mut problems = Vec::new();
    let mut virt = Virt::default();
    match result {
        Ok(report) => {
            virt.end_ns = report.end_time.as_ns();
            virt.events = report.events;
            virt.completion_ns = virt.end_ns;
            virt.wakes_coalesced = Some(report.wakes_coalesced);
            virt.sync_events = report.sync_events;
            virt.windows = report.windows;
            virt.profile = report.profile.clone();
            virt.hw = Some(Hardware {
                adapters: (0..nodes)
                    .map(|n| report.world.adapter_stats(n).clone())
                    .collect(),
                switch: report.world.switch.stats().clone(),
            });
            virt.am = Some(take_stats(&b.sink, nodes, &mut problems));
        }
        Err(e) => problems.push(format!("run failed: {e}")),
    }
    let trace = b.tracer.map(|t| (t.snapshot(), t.dropped()));
    let threads = b.threads.load(Ordering::Relaxed);
    let it = Iteration {
        setup: b.setup,
        wall,
        usage,
        steal,
        os_threads: (threads > 0).then(|| threads - 1),
        generate: None,
        virt,
        trace,
        attempted: 0,
        failed: 0,
        problems,
    };
    (it, b.extra)
}

/// Fingerprint of a run's virtual outputs and final machine counters.
fn fingerprint(v: &Virt) -> u64 {
    let mut h = Fnv::new();
    h.write(v.end_ns);
    h.write(v.completion_ns);
    for &l in &v.lat_ns {
        h.write(l);
    }
    for &l in &v.issue_late_ns {
        h.write(l);
    }
    if let Some(hw) = &v.hw {
        for a in &hw.adapters {
            h.write(a.sent);
            h.write(a.received);
            h.write(a.dropped_overflow);
            h.write(a.doorbells);
            h.write(a.lazy_pops);
            h.write(a.recv_high_water as u64);
        }
        h.write(hw.switch.delivered);
        h.write(hw.switch.dropped);
        h.write(hw.switch.wire_bytes);
        h.write(hw.switch.hops);
    }
    h.0
}

fn machine(
    sp: SpConfig,
    am: AmConfig,
    seed: u64,
    trace: Option<usize>,
) -> (AmMachine, Option<Tracer>) {
    let mut m = AmMachine::new(sp, am, seed);
    let tracer = trace.map(|cap| m.enable_tracing(cap));
    (m, tracer)
}

/// Record the process's thread count from inside a node program, once
/// every node thread exists.
fn note_threads(threads: &AtomicU64) {
    threads.store(host::os_threads(), Ordering::Relaxed);
}

/// Nearest-rank quantile of sorted `v`.
pub(crate) fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

// ---------------------------------------------------------- pingpong-2n

const ECHO: HandlerId = 0;
const BACK: HandlerId = 1;

#[derive(Default)]
struct PingSt {
    served: usize,
    echoed: Vec<u32>,
}

fn echo_handler(env: &mut AmEnv<'_, PingSt>, args: AmArgs) {
    env.state.served += 1;
    env.reply_1(BACK, args.a[0]);
}

fn back_handler(env: &mut AmEnv<'_, PingSt>, args: AmArgs) {
    env.state.echoed.push(args.a[0]);
}

type PingOut = Arc<Mutex<(Vec<u64>, Vec<u32>)>>;

fn pingpong_setup(spec: &Spec, trace: Option<usize>) -> Built<(Vec<u32>, PingOut)> {
    let t0 = Instant::now();
    let n = spec.size.round_trips;
    let mut rng = SplitMix::new(spec.seed, 1);
    let words: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
    let (mut m, tracer) = machine(sp_config(spec), AmConfig::default(), spec.seed, trace);
    let sink = StatsSink::default();
    let threads = Arc::new(AtomicU64::new(0));
    let out = PingOut::default();
    {
        let (sink, threads, out, words) =
            (sink.clone(), threads.clone(), out.clone(), words.clone());
        m.spawn(
            "client",
            PingSt::default(),
            move |am: &mut Am<'_, PingSt>| {
                am.register(echo_handler);
                am.register(back_handler);
                note_threads(&threads);
                let mut rtts = Vec::with_capacity(words.len());
                for (i, &w) in words.iter().enumerate() {
                    let t = am.now();
                    am.request_1(1, ECHO, w);
                    am.poll_until(move |s| s.echoed.len() > i);
                    rtts.push((am.now() - t).as_ns());
                }
                push_stats(&sink, am);
                *out.lock().expect("client output") = (rtts, am.state().echoed.clone());
            },
        );
    }
    {
        let sink = sink.clone();
        m.spawn(
            "server",
            PingSt::default(),
            move |am: &mut Am<'_, PingSt>| {
                am.register(echo_handler);
                am.register(back_handler);
                am.poll_until(move |s| s.served >= n);
                push_stats(&sink, am);
            },
        );
    }
    Built {
        machine: m,
        tracer,
        sink,
        threads,
        setup: t0.elapsed(),
        extra: (words, out),
    }
}

fn pingpong(spec: &Spec, trace: Option<usize>) -> Iteration {
    let b = pingpong_setup(spec, trace);
    let (mut it, (words, out)) = run_am(b);
    let (rtts, echoed) = std::mem::take(&mut *out.lock().expect("client output"));
    let n = words.len();
    it.attempted = n as u64;
    let first = rtts.first().copied();
    let mut failed = n.saturating_sub(rtts.len().min(echoed.len())) as u64;
    for (i, (&rtt, &w)) in rtts.iter().zip(&echoed).enumerate() {
        if w != words[i] || Some(rtt) != first {
            failed += 1;
        }
    }
    if failed > 0 {
        it.problems.push(format!(
            "{failed} of {n} round trips lost a reply, echoed a wrong word or differed in RTT"
        ));
    }
    it.failed = failed;
    let mut lat = rtts;
    lat.sort_unstable();
    it.virt.lat_ns = lat;
    it
}

// -------------------------------------------------------------- bulk-2n

const DONE: HandlerId = 0;
const FINISH: HandlerId = 1;

#[derive(Default)]
struct BulkSt {
    /// Completion instant of each transfer, ns (0 = not yet).
    done_ns: Vec<u64>,
    finished: bool,
}

/// Runs locally when a store is acknowledged or a get's data has landed.
fn done_handler(env: &mut AmEnv<'_, BulkSt>, args: AmArgs) {
    let now = env.now().as_ns();
    env.state.done_ns[args.a[0] as usize] = now;
}

fn finish_handler(env: &mut AmEnv<'_, BulkSt>, _args: AmArgs) {
    env.state.finished = true;
}

/// Where `bulk-2n` keeps its data.
struct BulkLayout {
    /// Bytes node 0 stores to node 1, transfer after transfer.
    stored: Vec<u8>,
    /// Bytes preloaded on node 1 for node 0 to get.
    source: Vec<u8>,
    /// Store landing area on node 1.
    landing: GlobalPtr,
    /// Get destination area on node 0.
    get_dst: GlobalPtr,
    /// What the client measured.
    out: Arc<Mutex<BulkOut>>,
}

/// `bulk-2n`'s client measurements.
#[derive(Default)]
struct BulkOut {
    /// Issue instant of every transfer, ns.
    issued: Vec<u64>,
    /// Completion instant of every transfer, ns (0 = never completed).
    done: Vec<u64>,
    /// Virtual ns spent in store batches.
    store_ns: u64,
    /// Virtual ns spent in get batches.
    get_ns: u64,
}

fn bulk_setup(spec: &Spec, trace: Option<usize>) -> Built<BulkLayout> {
    let t0 = Instant::now();
    let (rounds, batch, len) = (
        spec.size.bulk_rounds,
        spec.size.bulk_batch,
        spec.size.bulk_bytes,
    );
    let per_dir = rounds * batch * len as usize;
    let mut rng = SplitMix::new(spec.seed, 2);
    let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
    let stored = bytes(per_dir);
    let source = bytes(per_dir);
    let (mut m, tracer) = machine(sp_config(spec), AmConfig::default(), spec.seed, trace);
    let pool = m.mem();
    let area = u32::try_from(per_dir).expect("bulk area fits the 32-bit address space");
    let landing = pool.alloc(1, area);
    let get_src = pool.alloc(1, area);
    let get_dst = pool.alloc(0, area);
    pool.write(get_src, &source);
    let sink = StatsSink::default();
    let threads = Arc::new(AtomicU64::new(0));
    let out: Arc<Mutex<BulkOut>> = Arc::default();
    let ops = 2 * rounds * batch;
    {
        let (sink, threads, out, data) =
            (sink.clone(), threads.clone(), out.clone(), stored.clone());
        let init = BulkSt {
            done_ns: vec![0; ops],
            finished: false,
        };
        m.spawn("client", init, move |am: &mut Am<'_, BulkSt>| {
            am.register(done_handler);
            am.register(finish_handler);
            note_threads(&threads);
            let mut issued = vec![0u64; ops];
            let (mut store_ns, mut get_ns) = (0u64, 0u64);
            let mut op = 0usize;
            for round in 0..rounds {
                let t = am.now();
                let first = op;
                for k in 0..batch {
                    let off = (round * batch + k) * len as usize;
                    issued[op] = am.now().as_ns();
                    am.store_async(
                        landing.offset(off as u32),
                        &data[off..off + len as usize],
                        None,
                        &[],
                        Some((DONE, [op as u32, 0, 0, 0])),
                    );
                    op += 1;
                }
                let last = op;
                am.poll_until(move |s| s.done_ns[first..last].iter().all(|&d| d > 0));
                store_ns += (am.now() - t).as_ns();
                let t = am.now();
                let first = op;
                for k in 0..batch {
                    let off = ((round * batch + k) * len as usize) as u32;
                    issued[op] = am.now().as_ns();
                    am.get(
                        get_src.offset(off),
                        get_dst.addr + off,
                        len,
                        Some(DONE),
                        &[op as u32],
                    );
                    op += 1;
                }
                let last = op;
                am.poll_until(move |s| s.done_ns[first..last].iter().all(|&d| d > 0));
                get_ns += (am.now() - t).as_ns();
            }
            am.quiesce();
            am.request_1(1, FINISH, 0);
            push_stats(&sink, am);
            *out.lock().expect("client output") = BulkOut {
                issued,
                done: am.state().done_ns.clone(),
                store_ns,
                get_ns,
            };
        });
    }
    {
        let sink = sink.clone();
        m.spawn(
            "server",
            BulkSt::default(),
            move |am: &mut Am<'_, BulkSt>| {
                am.register(done_handler);
                am.register(finish_handler);
                am.poll_until(|s| s.finished);
                push_stats(&sink, am);
            },
        );
    }
    Built {
        machine: m,
        tracer,
        sink,
        threads,
        setup: t0.elapsed(),
        extra: BulkLayout {
            stored,
            source,
            landing,
            get_dst,
            out,
        },
    }
}

fn bulk(spec: &Spec, trace: Option<usize>) -> Iteration {
    let b = bulk_setup(spec, trace);
    let pool = b.machine.mem();
    let (mut it, lay) = run_am(b);
    let (batch, len) = (spec.size.bulk_batch, spec.size.bulk_bytes as usize);
    let BulkOut {
        issued,
        done,
        store_ns,
        get_ns,
    } = std::mem::take(&mut *lay.out.lock().expect("client output"));
    let ops = 2 * spec.size.bulk_rounds * batch;
    it.attempted = ops as u64;
    let landed = pool.read_vec(lay.landing, lay.stored.len());
    let fetched = pool.read_vec(lay.get_dst, lay.source.len());
    let mut lat = Vec::with_capacity(ops);
    let mut failed = 0u64;
    for op in 0..ops {
        // Ops alternate: `batch` stores, then `batch` gets, per round.
        let (round, k, is_get) = (op / (2 * batch), op % batch, (op / batch) % 2 == 1);
        let off = (round * batch + k) * len;
        let (got, sent) = if is_get {
            (&fetched, &lay.source)
        } else {
            (&landed, &lay.stored)
        };
        let ok = got.get(off..off + len) == Some(&sent[off..off + len]);
        let finished = done.get(op).is_some_and(|&d| d > 0);
        if !ok || !finished {
            failed += 1;
        }
        if finished {
            lat.push(done[op] - issued[op]);
        }
    }
    if failed > 0 {
        it.problems.push(format!(
            "{failed} of {ops} transfers did not complete or landed bytes differ from the sent pattern"
        ));
    }
    it.failed = failed;
    lat.sort_unstable();
    it.virt.lat_ns = lat;
    let half = (ops / 2 * len) as u64;
    it.virt.store = (half, store_ns);
    it.virt.get = (half, get_ns);
    it.virt.payload = Some((2 * half, store_ns + get_ns));
    it
}

// ---------------------------------------------------------- fattree-128

const SERVE: HandlerId = 0;
const RESP: HandlerId = 1;
const ARRIVE: HandlerId = 2;
const RELEASE: HandlerId = 3;

/// Children per parent in the start/stop tree barrier, as `run_traffic`
/// uses: a flat barrier would funnel every arrival into node 0.
const BARRIER_FAN: usize = 8;

/// Virtual time the barrier root adds when it stamps the schedule epoch,
/// so the release wave reaches every leaf before the first flow is due.
const EPOCH_MARGIN_NS: u64 = 300_000;

/// The fat tree's machine: 8 leaf frames of 16 nodes under one spine tier.
const FATTREE_NODES: usize = 128;
const FATTREE_SERVERS: usize = 32;
/// Per-client arrival rate as a share of `TrafficConfig::new`'s default.
const FATTREE_RATE_SCALE: f64 = 0.25;

#[derive(Default)]
struct TrafficSt {
    served: u64,
    done: Vec<(u32, u64)>,
    barrier_arrived: [u32; 2],
    barrier_released: [bool; 2],
    epoch_ns: u64,
}

fn serve_handler(env: &mut AmEnv<'_, TrafficSt>, args: AmArgs) {
    env.state.served += 1;
    env.reply_1(RESP, args.a[0]);
}

fn resp_handler(env: &mut AmEnv<'_, TrafficSt>, args: AmArgs) {
    let now = env.now().as_ns();
    env.state.done.push((args.a[0], now));
}

fn arrive_handler(env: &mut AmEnv<'_, TrafficSt>, args: AmArgs) {
    env.state.barrier_arrived[args.a[0] as usize] += 1;
}

fn release_handler(env: &mut AmEnv<'_, TrafficSt>, args: AmArgs) {
    env.state.barrier_released[args.a[0] as usize] = true;
    env.state.epoch_ns = args.a[1] as u64;
}

fn register_traffic(am: &mut Am<'_, TrafficSt>) {
    assert_eq!(am.register(serve_handler), SERVE);
    assert_eq!(am.register(resp_handler), RESP);
    assert_eq!(am.register(arrive_handler), ARRIVE);
    assert_eq!(am.register(release_handler), RELEASE);
}

/// One generation of the k-ary tree barrier; returns the common schedule
/// epoch the root stamps into generation 0's release wave.
fn tree_barrier(am: &mut Am<'_, TrafficSt>, gen: u32) -> u64 {
    let (me, n) = (am.node(), am.nodes());
    let g = gen as usize;
    let first_child = BARRIER_FAN * me + 1;
    let children = first_child..(first_child + BARRIER_FAN).min(n);
    let expected = children.len() as u32;
    am.poll_until(move |s| s.barrier_arrived[g] >= expected);
    let epoch = if me != 0 {
        am.request_1((me - 1) / BARRIER_FAN, ARRIVE, gen);
        am.poll_until(move |s| s.barrier_released[g]);
        am.state().epoch_ns
    } else if gen == 0 {
        am.now().as_ns() + EPOCH_MARGIN_NS
    } else {
        0
    };
    for child in children {
        am.request_2(child, RELEASE, gen, epoch as u32);
    }
    epoch
}

/// One completed flow: client, flow index, due ns, issue ns and response
/// ns (all relative to the schedule epoch), payload bytes.
type Sample = (usize, u32, u64, u64, u64, u32);

/// The fat-tree traffic configuration for `seed`.
fn traffic_config(seed: u64, horizon_ns: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        horizon_ns,
        ..TrafficConfig::new(FATTREE_SERVERS)
    }
    .scaled(FATTREE_RATE_SCALE)
}

struct TrafficInputs {
    flows: u64,
    bytes: u64,
    horizon_ns: u64,
    generate: Duration,
    samples: Arc<Mutex<Vec<Sample>>>,
}

fn fattree_setup(spec: &Spec, trace: Option<usize>) -> Built<TrafficInputs> {
    let t0 = Instant::now();
    let cfg = traffic_config(spec.seed, spec.size.horizon_ns);
    let sp = sp_config(spec);
    assert_eq!(sp.nodes, FATTREE_NODES);
    let tg = Instant::now();
    let mut sched = TrafficSchedule::generate(&cfg, sp.nodes);
    let generate = tg.elapsed();
    let (flows, bytes) = (sched.total_flows() as u64, sched.total_bytes());
    let landing = cfg.size.max_bytes();
    let mut expect = vec![0u64; cfg.servers];
    for f in sched.flows.iter().flatten() {
        expect[f.server] += 1;
    }
    let am_cfg = AmConfig {
        keepalive_polls: cfg.keepalive_polls,
        ..AmConfig::default()
    };
    let (mut m, tracer) = machine(sp, am_cfg, cfg.seed, trace);
    if let Some(budget) = cfg.event_budget {
        m.set_event_budget(budget);
    }
    let sink = StatsSink::default();
    let threads = Arc::new(AtomicU64::new(0));
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::default();
    for (server, &expected) in expect.iter().enumerate() {
        let (sink, threads) = (sink.clone(), threads.clone());
        m.spawn(
            format!("srv{server}"),
            TrafficSt::default(),
            move |am: &mut Am<'_, TrafficSt>| {
                register_traffic(am);
                am.alloc(landing);
                if server == 0 {
                    note_threads(&threads);
                }
                tree_barrier(am, 0);
                am.poll_until(move |s| s.served >= expected);
                am.quiesce();
                tree_barrier(am, 1);
                am.quiesce();
                am.drain_quiet(Dur::ms(0.5));
                push_stats(&sink, am);
            },
        );
    }
    for client in cfg.servers..FATTREE_NODES {
        let flows = std::mem::take(&mut sched.flows[client]);
        let (sink, out) = (sink.clone(), samples.clone());
        m.spawn(
            format!("cli{client}"),
            TrafficSt::default(),
            move |am: &mut Am<'_, TrafficSt>| {
                register_traffic(am);
                let epoch = tree_barrier(am, 0);
                let mut issued = Vec::with_capacity(flows.len());
                let total = flows.len();
                for (idx, f) in flows.iter().enumerate() {
                    // Open loop: poll until the flow is due, then issue it
                    // whatever is still outstanding.
                    let at = Time(epoch + f.at_ns);
                    while am.now() < at {
                        am.drain(at - am.now());
                    }
                    issued.push(am.now().as_ns() - epoch);
                    let data = vec![0x5Au8; f.bytes as usize];
                    let dst = GlobalPtr {
                        node: f.server,
                        addr: 0,
                    };
                    am.store_async(dst, &data, Some(SERVE), &[idx as u32], None);
                }
                am.poll_until(move |s| s.done.len() == total);
                am.quiesce();
                tree_barrier(am, 1);
                am.quiesce();
                am.drain_quiet(Dur::ms(0.5));
                push_stats(&sink, am);
                let mut out = out.lock().expect("sample sink");
                for &(idx, done_ns) in &am.state().done {
                    let i = idx as usize;
                    let f = &flows[i];
                    out.push((client, idx, f.at_ns, issued[i], done_ns - epoch, f.bytes));
                }
            },
        );
    }
    Built {
        machine: m,
        tracer,
        sink,
        threads,
        setup: t0.elapsed(),
        extra: TrafficInputs {
            flows,
            bytes,
            horizon_ns: cfg.horizon_ns,
            generate,
            samples,
        },
    }
}

fn fattree(spec: &Spec, trace: Option<usize>) -> Iteration {
    let b = fattree_setup(spec, trace);
    let (mut it, inp) = run_am(b);
    it.generate = Some(inp.generate);
    let mut samples = std::mem::take(&mut *inp.samples.lock().expect("sample sink"));
    samples.sort_unstable();
    it.attempted = inp.flows;
    // A flow counts once, under its (client, index), with its response.
    let mut distinct = samples.clone();
    distinct.dedup_by_key(|s| (s.0, s.1));
    let completed = distinct.len() as u64;
    it.failed = inp.flows.saturating_sub(completed);
    if completed != inp.flows || samples.len() as u64 != inp.flows {
        it.problems.push(format!(
            "{} responses for {completed} distinct flows of {} scheduled",
            samples.len(),
            inp.flows
        ));
    }
    let mut lat: Vec<u64> = samples.iter().map(|s| s.4.saturating_sub(s.2)).collect();
    lat.sort_unstable();
    let (p50, p99, max) = (
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        lat.last().copied().unwrap_or(0),
    );
    if !(p50 <= p99 && p99 <= max) {
        it.problems.push(format!(
            "latency quantiles out of order: p50 {p50} p99 {p99} max {max}"
        ));
        it.failed = it.attempted;
    }
    let mut late: Vec<u64> = samples.iter().map(|s| s.3.saturating_sub(s.2)).collect();
    late.sort_unstable();
    // Goodput runs to the last response, and never below the horizon.
    let last = samples
        .iter()
        .map(|s| s.4)
        .max()
        .unwrap_or(0)
        .max(inp.horizon_ns);
    it.virt.lat_ns = lat;
    it.virt.issue_late_ns = late;
    it.virt.payload = Some((inp.bytes, last));
    let offered = inp.bytes as f64 / (inp.horizon_ns as f64 / 1e9) / 1e6;
    it.virt.traffic = Some((inp.flows, offered));
    it
}

// ---------------------------------------------------------------- mg-16

/// Ranks of the MG run (one frame of thin nodes).
const MG_RANKS: usize = 16;

/// The machine `sp_mpi`'s runner builds for an MPI-AM run: the part of
/// `mg-16`'s set-up that happens before the engine starts.
fn mg_setup(spec: &Spec) -> (SpConfig, AmMachine, Vec<sp_mpi::MpiSt>) {
    let sp = sp_config(spec);
    let cfg = sp_mpi::MpiAmConfig::optimized();
    let m = AmMachine::new(sp.clone(), AmConfig::default(), spec.seed);
    let states = (0..MG_RANKS)
        .map(|node| sp_mpi::MpiSt::new(&cfg, node, MG_RANKS, &sp.cost))
        .collect();
    (sp, m, states)
}

fn mg(spec: &Spec) -> Iteration {
    let t0 = Instant::now();
    let (sp, m, states) = mg_setup(spec);
    drop((m, states));
    let setup = t0.elapsed();
    let class = spec.size.nas_class;
    let seed = spec.seed;
    let (u0, s0) = (Usage::now(), host::steal());
    let t0 = Instant::now();
    // `run_kernel_on` asserts that every rank computed the same residual;
    // a disagreement is this workload's failed check.
    let result = std::panic::catch_unwind(move || {
        sp_nas::run_kernel_on(Kernel::Mg, MpiImpl::AmOptimized, sp, seed, class)
    });
    let wall = t0.elapsed();
    let usage = Usage::now().since(u0);
    let steal = host::steal().saturating_sub(s0);
    let mut it = Iteration {
        setup,
        wall,
        usage,
        steal,
        os_threads: None,
        generate: None,
        virt: Virt::default(),
        trace: None,
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
    };
    match result {
        Ok((nas, run)) => {
            if !nas.checksum.is_finite() {
                it.failed = 1;
                it.problems
                    .push(format!("residual checksum is {}", nas.checksum));
            }
            let v = &mut it.virt;
            v.end_ns = run.end_ns;
            v.events = run.events;
            v.hash = run.report_hash;
            v.completion_ns = nas.time.as_ns();
            v.sync_events = run.sync_events;
            v.windows = run.windows;
            v.profile = run.profile;
            v.checksum = Some(nas.checksum.to_bits());
        }
        Err(_) => {
            it.failed = 1;
            it.problems
                .push("MG ranks disagree on the residual, or the run failed".into());
        }
    }
    it
}
