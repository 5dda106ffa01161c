//! MPI over SP Active Messages, MPICH-ADI style (paper §4.1–4.2).
//!
//! * **Buffered protocol** (short messages): every receiver owns a 16 KB
//!   staging region *per source*; the sender allocates space in its region
//!   at the destination entirely locally ("involves no communication"),
//!   `am_store`s data + envelope there, and the receiving handler (or a
//!   later matching `MPI_Irecv`) copies the message out and frees the space
//!   with a small reply.
//! * **Rendezvous protocol** (long messages): a request-for-address travels
//!   as an `am_request`; the grant comes back as the reply (receive already
//!   posted) or as a later request (posted afterwards). The grant handler
//!   is *not allowed* to start the transfer (GAM handler restriction, as in
//!   the paper) — it queues the store for the next progress poll.
//! * **Optimizations** (§4.2): a binned allocator (8 × 1 KB bins) replacing
//!   first-fit for small messages, batched buffer-free replies, and the
//!   **hybrid** protocol: a 4 KB prefix is stored eagerly (serving as the
//!   rendezvous request, with the grant riding its reply) so the pipeline
//!   stays full across the protocol switch.

use crate::iface::{Mpi, Req, Status};
use sp_am::{Am, AmArgs, AmEnv, GlobalPtr};
use sp_sim::{Dur, Time};
use std::collections::{HashMap, HashSet, VecDeque};

/// Protocol configuration (presets: [`MpiAmConfig::unoptimized`],
/// [`MpiAmConfig::optimized`]).
#[derive(Debug, Clone)]
pub struct MpiAmConfig {
    /// Apply the §4.2 optimizations (binned allocator, batched frees,
    /// hybrid protocol).
    pub optimized: bool,
    /// Messages strictly below this use the buffered protocol (16 KB
    /// unoptimized, 8 KB optimized).
    pub eager_limit: usize,
    /// Hybrid prefix bytes (optimized only).
    pub hybrid_prefix: usize,
    /// Staging region bytes per (receiver, source) pair.
    pub region_size: u32,
    /// Bin size for the binned allocator.
    pub bin_size: u32,
    /// Number of bins.
    pub bins: usize,
    /// Use the binned allocator (set by the optimized preset; exposed
    /// separately for the allocator ablation).
    pub binned_allocator: bool,
    /// Bin frees accumulated before one reply carries them (optimized).
    pub free_batch: usize,
    /// MPICH software cost per send call.
    pub send_cpu: Dur,
    /// MPICH software cost per receive completion (matching, bookkeeping).
    pub recv_cpu: Dur,
    /// Record a protocol-event trace (used by the Figure 5/6 regeneration).
    pub trace_protocol: bool,
    /// Replace MPICH's generic collectives with schedules tuned for the SP
    /// (currently: a staggered all-to-all) — the paper's §4.4 future-work
    /// item ("implementing collective communication functions directly
    /// over AM ... would improve performance").
    pub tuned_collectives: bool,
}

impl MpiAmConfig {
    /// The basic implementation of §4.1: first-fit allocator, per-message
    /// frees, buffered→rendezvous switch at 16 KB.
    pub fn unoptimized() -> Self {
        MpiAmConfig {
            optimized: false,
            eager_limit: 16 * 1024,
            hybrid_prefix: 4 * 1024,
            region_size: 16 * 1024,
            bin_size: 1024,
            bins: 8,
            binned_allocator: false,
            free_batch: 3,
            trace_protocol: false,
            send_cpu: Dur::us(9.5),
            recv_cpu: Dur::us(6.5),
            tuned_collectives: false,
        }
    }

    /// The optimized implementation of §4.2.
    pub fn optimized() -> Self {
        MpiAmConfig {
            optimized: true,
            binned_allocator: true,
            eager_limit: 8 * 1024,
            send_cpu: Dur::us(3.0),
            recv_cpu: Dur::us(2.5),
            ..Self::unoptimized()
        }
    }
}

// ---------------------------------------------------------------- allocator

/// Sender-side allocator for this sender's staging region at one receiver.
/// Offsets are region-relative.
#[derive(Debug)]
struct RegionAlloc {
    binned: bool,
    bin_size: u32,
    bins: usize,
    bin_free: Vec<bool>,
    /// First-fit free list over the non-bin remainder: (offset, len),
    /// sorted by offset, coalesced on free.
    free_list: Vec<(u32, u32)>,
}

impl RegionAlloc {
    fn new(region_size: u32, binned: bool, bin_size: u32, bins: usize) -> Self {
        let bin_bytes = if binned { bin_size * bins as u32 } else { 0 };
        assert!(bin_bytes < region_size, "bins exceed region");
        RegionAlloc {
            binned,
            bin_size,
            bins,
            bin_free: vec![true; if binned { bins } else { 0 }],
            free_list: vec![(bin_bytes, region_size - bin_bytes)],
        }
    }

    /// Allocate `len` bytes; returns (offset, scan_steps) — scan steps feed
    /// the CPU cost model (first-fit scanning was "a major cost", §4.2).
    fn alloc(&mut self, len: u32) -> Option<(u32, u32)> {
        if self.binned && len <= self.bin_size {
            if let Some(i) = self.bin_free.iter().position(|&f| f) {
                self.bin_free[i] = false;
                return Some((i as u32 * self.bin_size, 1));
            }
            // Bins exhausted: fall through to first-fit.
        }
        let mut steps = 0u32;
        for i in 0..self.free_list.len() {
            steps += 1;
            let (off, flen) = self.free_list[i];
            if flen >= len {
                if flen == len {
                    self.free_list.remove(i);
                } else {
                    self.free_list[i] = (off + len, flen - len);
                }
                return Some((off, steps));
            }
        }
        None
    }

    /// Whether `off` falls in the bin area.
    fn is_bin(&self, off: u32) -> bool {
        self.binned && off < self.bin_size * self.bins as u32
    }

    fn free(&mut self, off: u32, len: u32) {
        if self.is_bin(off) {
            debug_assert_eq!(off % self.bin_size, 0, "bin offset misaligned");
            let i = (off / self.bin_size) as usize;
            debug_assert!(!self.bin_free[i], "double free of bin {i}");
            self.bin_free[i] = true;
            return;
        }
        // Insert sorted and coalesce.
        let pos = self.free_list.partition_point(|&(o, _)| o < off);
        self.free_list.insert(pos, (off, len));
        // Coalesce with next, then with previous.
        if pos + 1 < self.free_list.len() {
            let (o, l) = self.free_list[pos];
            let (no, nl) = self.free_list[pos + 1];
            debug_assert!(o + l <= no, "overlapping free at {o}+{l} vs {no}");
            if o + l == no {
                self.free_list[pos] = (o, l + nl);
                self.free_list.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (po, pl) = self.free_list[pos - 1];
            let (o, l) = self.free_list[pos];
            debug_assert!(po + pl <= o, "overlapping free at {po}+{pl} vs {o}");
            if po + pl == o {
                self.free_list[pos - 1] = (po, pl + l);
                self.free_list.remove(pos);
            }
        }
    }
}

// ------------------------------------------------------------ shared state

/// View of the configuration + cost model that handlers need.
#[derive(Debug, Clone)]
struct ProtoView {
    trace: bool,
    free_batch: usize,
    memcpy_setup: Dur,
    memcpy_ns_per_byte: f64,
    recv_cpu: Dur,
}

impl ProtoView {
    fn memcpy(&self, len: usize) -> Dur {
        self.memcpy_setup + Dur::ns((len as f64 * self.memcpy_ns_per_byte).round() as u64)
    }
}

/// An arrived-but-unmatched envelope.
#[derive(Debug)]
enum InEnvelope {
    /// Buffered-protocol message still staged in the region.
    Eager {
        src: usize,
        tag: i32,
        staged_addr: u32,
        len: usize,
    },
    /// Rendezvous request (optionally with a staged hybrid prefix).
    Rdv {
        src: usize,
        tag: i32,
        total_len: usize,
        xfer: u32,
        prefix: Option<(u32, usize)>,
    },
}

#[derive(Debug)]
enum PostedState {
    Waiting,
    Done(Vec<u8>, Status),
    Consumed,
}

#[derive(Debug)]
struct PostedRecv {
    src: Option<usize>,
    tag: Option<i32>,
    state: PostedState,
}

/// Active rendezvous receive: where the data lands and which posted recv it
/// completes.
#[derive(Debug)]
struct RdvRecv {
    posted: usize,
    buf_addr: u32,
    total_len: usize,
    tag: i32,
}

/// Per-node MPI protocol state (the `Am` state type — everything handlers
/// touch lives here).
pub struct MpiSt {
    view: ProtoView,
    me: usize,
    stage_base: u32,
    region_size: u32,
    allocs: Vec<RegionAlloc>,
    posted: Vec<PostedRecv>,
    /// Indices of posted receives still waiting, in post order (MPI
    /// matches the earliest posted first). Keeping this separate makes
    /// matching O(waiting), not O(everything ever posted).
    waiting: Vec<usize>,
    /// Recycled posted slots.
    free_slots: Vec<usize>,
    unexpected: VecDeque<InEnvelope>,
    /// Grants waiting for the progress engine to start the store (the
    /// grant handler may not transfer data itself).
    pending_grants: Vec<(usize, u32, u32)>, // (dst, xfer, remainder addr)
    /// Rendezvous sends whose data has been fully stored and acknowledged.
    send_done: HashSet<u32>,
    /// Active rendezvous receives keyed by (source, xfer).
    rdv_recv: HashMap<(usize, u32), RdvRecv>,
    /// Deferred bin frees per source (batched replies, §4.2).
    deferred_bin_frees: Vec<Vec<u32>>,
    /// (src, xfer) pairs already granted (suppresses duplicate envelopes
    /// when both a prefix and a request arrive).
    rdv_seen: HashSet<(usize, u32)>,
    /// Protocol-event log (only filled when `trace_protocol` is set).
    plog: Vec<(sp_sim::Time, usize, &'static str)>,
}

impl std::fmt::Debug for MpiSt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MpiSt {{ posted: {}, unexpected: {}, pending_grants: {} }}",
            self.posted.len(),
            self.unexpected.len(),
            self.pending_grants.len()
        )
    }
}

fn tag_matches(want_src: Option<usize>, want_tag: Option<i32>, src: usize, tag: i32) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

impl MpiSt {
    /// Find, claim, and return the earliest waiting posted recv matching
    /// (src, tag) — removing it from the waiting list.
    fn match_posted(&mut self, src: usize, tag: i32) -> Option<usize> {
        let wpos = self.waiting.iter().position(|&i| {
            let p = &self.posted[i];
            tag_matches(p.src, p.tag, src, tag)
        })?;
        Some(self.waiting.remove(wpos))
    }

    /// Register a new posted receive (recycling consumed slots); returns
    /// its index, already on the waiting list.
    fn post(&mut self, src: Option<usize>, tag: Option<i32>) -> usize {
        let rec = PostedRecv {
            src,
            tag,
            state: PostedState::Waiting,
        };
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.posted[i] = rec;
                i
            }
            None => {
                self.posted.push(rec);
                self.posted.len() - 1
            }
        };
        self.waiting.push(idx);
        idx
    }

    /// Remove a posted index from the waiting list (used when irecv matches
    /// an already-arrived envelope immediately).
    fn unwait(&mut self, idx: usize) {
        if let Some(pos) = self.waiting.iter().position(|&i| i == idx) {
            self.waiting.remove(pos);
        }
    }

    /// Region-relative offset of a staged absolute address from `src`.
    fn region_off(&self, src: usize, addr: u32) -> u32 {
        addr - (self.stage_base + src as u32 * self.region_size)
    }
}

// ---------------------------------------------------------------- handlers

// Handler argument conventions (4 words):
//   h_eager  (store):  [tag, xfer, flags, total_len]   flags bit0 = prefix
//   h_eager0 (request): [tag, 0, 0, 0]                 zero-length message
//   h_free_one:         [off, len, 0, 0]
//   h_free_bins:        [count, off0, off1, off2]
//   h_rdv_req (request): [tag, len, xfer, 0]
//   h_rdv_grant:         [xfer, addr, freed_off, freed_len+1]  (0 = none)
//   h_rdv_done (store):  [xfer, 0, 0, 0]
//   h_send_done (local): [xfer, 0, 0, 0]

const FLAG_PREFIX: u32 = 1;

/// Complete a matched eager message: copy it out of the staging region and
/// arrange the space to be freed (reply if in handler context — signaled by
/// `reply_ctx` — else the caller sends a free request).
/// Returns the bin-free batch to flush, if any.
fn consume_eager(
    env: &mut AmEnv<'_, MpiSt>,
    posted: usize,
    src: usize,
    tag: i32,
    staged_addr: u32,
    len: usize,
) -> FreeAction {
    let data = if len > 0 {
        env.work(env_view(env).memcpy(len));
        let mut buf = vec![0u8; len];
        env.mem().read(staged_addr, &mut buf);
        buf
    } else {
        Vec::new()
    };
    env.state.posted[posted].state = PostedState::Done(
        data,
        Status {
            source: src,
            tag,
            len,
        },
    );
    if len == 0 {
        return FreeAction::None;
    }
    let off = env.state.region_off(src, staged_addr);
    plan_free(env.state, src, off, len as u32)
}

fn env_view(env: &AmEnv<'_, MpiSt>) -> ProtoView {
    env.state.view.clone()
}

/// How the staged space should be given back to the sender.
enum FreeAction {
    None,
    /// Free exactly this (off, len) now.
    One(u32, u32),
    /// Flush this batch of bin offsets now.
    Bins(Vec<u32>),
}

/// Decide whether a free goes out now or joins the deferred bin batch.
fn plan_free(st: &mut MpiSt, src: usize, off: u32, len: u32) -> FreeAction {
    let is_bin = st.allocs[src].is_bin(off) && len <= 1024;
    if !is_bin || st.view.free_batch <= 1 {
        return FreeAction::One(off, len);
    }
    st.deferred_bin_frees[src].push(off);
    if st.deferred_bin_frees[src].len() >= st.view.free_batch {
        FreeAction::Bins(std::mem::take(&mut st.deferred_bin_frees[src]))
    } else {
        FreeAction::None
    }
}

// Handler table indices (fixed registration order in MpiAm::new).
const H_EAGER: u16 = 0;
const H_EAGER0: u16 = 1;
const H_FREE_ONE: u16 = 2;
const H_FREE_BINS: u16 = 3;
const H_RDV_REQ: u16 = 4;
const H_RDV_GRANT: u16 = 5;
const H_RDV_DONE: u16 = 6;
const H_SEND_DONE: u16 = 7;

fn h_eager(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let tag = args.a[0] as i32;
    let xfer = args.a[1];
    let is_prefix = args.a[2] & FLAG_PREFIX != 0;
    let info = args.info.expect("store handler has bulk info");
    let staged_addr = info.base;
    let staged_len = info.len as usize;
    env.work(env_view(env).recv_cpu);

    if is_prefix {
        let total_len = args.a[3] as usize;
        let now = env.now();
        env.state
            .log(now, env.node(), "hybrid prefix landed in staging region");
        h_rdv_envelope(
            env,
            src,
            tag,
            total_len,
            xfer,
            Some((staged_addr, staged_len)),
            true,
        );
        return;
    }

    match env.state.match_posted(src, tag) {
        Some(p) => {
            let now = env.now();
            env.state.log(
                now,
                env.node(),
                "store handler: matched, copy to user buffer",
            );
            let action = consume_eager(env, p, src, tag, staged_addr, staged_len);
            send_free(env, action, true);
            let now = env.now();
            env.state.log(now, env.node(), "reply: free staging space");
        }
        None => {
            let now = env.now();
            env.state
                .log(now, env.node(), "store handler: unexpected, recorded");
            env.state.unexpected.push_back(InEnvelope::Eager {
                src,
                tag,
                staged_addr,
                len: staged_len,
            });
        }
    }
}

fn h_eager0(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let tag = args.a[0] as i32;
    env.work(env_view(env).recv_cpu);
    match env.state.match_posted(src, tag) {
        Some(p) => {
            env.state.posted[p].state = PostedState::Done(
                Vec::new(),
                Status {
                    source: src,
                    tag,
                    len: 0,
                },
            );
        }
        None => {
            env.state.unexpected.push_back(InEnvelope::Eager {
                src,
                tag,
                staged_addr: 0,
                len: 0,
            });
        }
    }
}

/// Emit a free action: as a reply when legal (`can_reply`), else it is
/// queued through `pending_grants`-style mainline sends — but frees are
/// cheap requests, so the non-reply path just sends a request directly via
/// the envelope-processing mainline (see `MpiAm::send_free_request`). In
/// handler context we always have reply permission for stores/requests.
fn send_free(env: &mut AmEnv<'_, MpiSt>, action: FreeAction, can_reply: bool) {
    debug_assert!(can_reply, "handler-context frees only");
    match action {
        FreeAction::None => {}
        FreeAction::One(off, len) => env.reply_2(H_FREE_ONE, off, len),
        FreeAction::Bins(offs) => {
            let mut a = [0u32; 3];
            for (i, &o) in offs.iter().take(3).enumerate() {
                a[i] = o;
            }
            env.reply_4(H_FREE_BINS, offs.len().min(3) as u32, a[0], a[1], a[2]);
            debug_assert!(offs.len() <= 3, "free batch exceeds reply capacity");
        }
    }
}

fn h_free_one(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    env.state.allocs[src].free(args.a[0], args.a[1]);
}

fn h_free_bins(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let count = args.a[0] as usize;
    for i in 0..count {
        let off = args.a[1 + i];
        let bin = env.state.allocs[src].bin_size;
        env.state.allocs[src].free(off, bin);
    }
}

/// Common rendezvous-envelope processing for both arrival paths (prefix
/// store or explicit request). `can_reply` is true in both handler
/// contexts; the grant rides the reply when the receive is already posted.
fn h_rdv_envelope(
    env: &mut AmEnv<'_, MpiSt>,
    src: usize,
    tag: i32,
    total_len: usize,
    xfer: u32,
    prefix: Option<(u32, usize)>,
    can_reply: bool,
) {
    if env.state.rdv_seen.contains(&(src, xfer)) {
        return; // duplicate envelope (prefix + request pair)
    }
    match env.state.match_posted(src, tag) {
        Some(p) => {
            let now = env.now();
            env.state
                .log(now, env.node(), "receive posted: grant address (reply)");
            env.state.rdv_seen.insert((src, xfer));
            let (addr, freed) = accept_rdv(env, p, src, tag, total_len, xfer, prefix);
            debug_assert!(can_reply);
            match addr {
                Some(addr) => {
                    let (foff, flen) = freed.unwrap_or((0, u32::MAX));
                    env.reply_4(H_RDV_GRANT, xfer, addr, foff, flen.wrapping_add(1));
                }
                None => {
                    // Message complete; just release the prefix space.
                    if let Some((off, len)) = freed {
                        env.reply_2(H_FREE_ONE, off, len);
                    }
                }
            }
        }
        None => {
            let now = env.now();
            env.state
                .log(now, env.node(), "no receive yet: request recorded");
            env.state.unexpected.push_back(InEnvelope::Rdv {
                src,
                tag,
                total_len,
                xfer,
                prefix,
            });
        }
    }
}

/// Allocate the landing buffer for a matched rendezvous message, absorb the
/// prefix if one was staged, and record the active receive. Returns the
/// address the *remainder* should be stored at (`None` if the prefix
/// covered the whole message), plus the staged prefix space to free.
fn accept_rdv(
    env: &mut AmEnv<'_, MpiSt>,
    posted: usize,
    src: usize,
    tag: i32,
    total_len: usize,
    xfer: u32,
    prefix: Option<(u32, usize)>,
) -> (Option<u32>, Option<(u32, u32)>) {
    let buf_addr = env.mem().alloc(total_len as u32).addr;
    let mut remainder_addr = buf_addr;
    let mut freed = None;
    if let Some((paddr, plen)) = prefix {
        // Copy the prefix into place and release its staging space.
        env.work(env_view(env).memcpy(plen));
        let mut tmp = vec![0u8; plen];
        env.mem().read(paddr, &mut tmp);
        env.mem().write(buf_addr, &tmp);
        remainder_addr = buf_addr + plen as u32;
        let off = env.state.region_off(src, paddr);
        freed = Some((off, plen as u32));
        if plen >= total_len {
            // Whole message fit in the prefix: complete immediately; no
            // grant (the sender expects none).
            let mut data = vec![0u8; total_len];
            env.mem().read(buf_addr, &mut data);
            env.state.posted[posted].state = PostedState::Done(
                data,
                Status {
                    source: src,
                    tag,
                    len: total_len,
                },
            );
            return (None, freed);
        }
    }
    env.state.rdv_recv.insert(
        (src, xfer),
        RdvRecv {
            posted,
            buf_addr,
            total_len,
            tag,
        },
    );
    (Some(remainder_addr), freed)
}

fn h_rdv_req(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let tag = args.a[0] as i32;
    let len = args.a[1] as usize;
    let xfer = args.a[2];
    env.work(env_view(env).recv_cpu);
    let now = env.now();
    env.state
        .log(now, env.node(), "request-for-address arrived");
    h_rdv_envelope(env, src, tag, len, xfer, None, true);
}

fn h_rdv_grant(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let xfer = args.a[0];
    let addr = args.a[1];
    // Free the prefix staging space if the grant reports one.
    if args.a[3] != 0 {
        let (off, len) = (args.a[2], args.a[3].wrapping_sub(1));
        if len != u32::MAX {
            env.state.allocs[src].free(off, len);
        }
    }
    // The ADI forbids transferring from the handler: queue for progress.
    let now = env.now();
    env.state.log(
        now,
        env.node(),
        "grant received; store queued for next poll",
    );
    env.state.pending_grants.push((src, xfer, addr));
}

fn h_rdv_done(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    let src = args.src;
    let xfer = args.a[0];
    env.work(env_view(env).recv_cpu);
    let now = env.now();
    env.state
        .log(now, env.node(), "rendezvous data landed: receive complete");
    let rec = env
        .state
        .rdv_recv
        .remove(&(src, xfer))
        .expect("rendezvous receive active");
    env.state.rdv_seen.remove(&(src, xfer));
    let mut data = vec![0u8; rec.total_len];
    env.mem().read(rec.buf_addr, &mut data);
    env.state.posted[rec.posted].state = PostedState::Done(
        data,
        Status {
            source: src,
            tag: rec.tag,
            len: rec.total_len,
        },
    );
}

fn h_send_done(env: &mut AmEnv<'_, MpiSt>, args: AmArgs) {
    env.state.send_done.insert(args.a[0]);
}

// ---------------------------------------------------------------- wrapper

#[derive(Debug)]
enum ReqRec {
    SendDone,
    SendRdv { xfer: u32 },
    Recv { posted: usize },
}

/// MPI endpoint over SP Active Messages.
pub struct MpiAm<'a, 'c> {
    am: &'a mut Am<'c, MpiSt>,
    cfg: MpiAmConfig,
    next_xfer: u32,
    next_req: u64,
    reqs: HashMap<u64, ReqRec>,
    /// Snapshot of rendezvous send data, keyed by xfer.
    rdv_data: HashMap<u32, (Vec<u8>, usize)>, // (data, prefix_already_sent)
    /// Computation charged through [`Mpi::work`].
    worked: Dur,
}

impl MpiSt {
    /// Initial protocol state (used by the runner when spawning nodes).
    pub fn new(cfg: &MpiAmConfig, me: usize, n: usize, cost: &sp_machine::CostModel) -> Self {
        MpiSt {
            view: ProtoView {
                trace: cfg.trace_protocol,
                free_batch: if cfg.optimized { cfg.free_batch } else { 1 },
                memcpy_setup: cost.memcpy_setup,
                memcpy_ns_per_byte: 1000.0 / cost.memcpy_mb_s,
                recv_cpu: cfg.recv_cpu,
            },
            me,
            stage_base: 0,
            region_size: cfg.region_size,
            allocs: (0..n)
                .map(|_| {
                    RegionAlloc::new(
                        cfg.region_size,
                        cfg.binned_allocator,
                        cfg.bin_size,
                        cfg.bins,
                    )
                })
                .collect(),
            posted: Vec::new(),
            waiting: Vec::new(),
            free_slots: Vec::new(),
            unexpected: VecDeque::new(),
            pending_grants: Vec::new(),
            send_done: HashSet::new(),
            rdv_recv: HashMap::new(),
            deferred_bin_frees: (0..n).map(|_| Vec::new()).collect(),
            rdv_seen: HashSet::new(),
            plog: Vec::new(),
        }
    }

    fn log(&mut self, at: sp_sim::Time, node: usize, what: &'static str) {
        if self.view.trace {
            self.plog.push((at, node, what));
        }
    }

    /// The protocol-event trace: (time, acting node, event).
    pub fn protocol_log(&self) -> &[(sp_sim::Time, usize, &'static str)] {
        &self.plog
    }
}

impl<'a, 'c> MpiAm<'a, 'c> {
    /// Wrap an AM endpoint (state type [`MpiSt`]). Registers the handler
    /// table and allocates the staging regions; must run before any other
    /// allocation (SPMD discipline keeps regions at identical addresses on
    /// every rank).
    pub fn new(am: &'a mut Am<'c, MpiSt>, cfg: MpiAmConfig) -> Self {
        let h = [
            am.register(h_eager),
            am.register(h_eager0),
            am.register(h_free_one),
            am.register(h_free_bins),
            am.register(h_rdv_req),
            am.register(h_rdv_grant),
            am.register(h_rdv_done),
            am.register(h_send_done),
        ];
        debug_assert_eq!(
            h,
            [
                H_EAGER,
                H_EAGER0,
                H_FREE_ONE,
                H_FREE_BINS,
                H_RDV_REQ,
                H_RDV_GRANT,
                H_RDV_DONE,
                H_SEND_DONE
            ]
        );
        let n = am.nodes();
        let stage = am.alloc(cfg.region_size * n as u32);
        am.state_mut().stage_base = stage.addr;
        MpiAm {
            am,
            cfg,
            next_xfer: 1,
            next_req: 0,
            reqs: HashMap::new(),
            rdv_data: HashMap::new(),
            worked: Dur::ZERO,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MpiAmConfig {
        &self.cfg
    }

    /// The protocol-event trace (empty unless
    /// [`MpiAmConfig::trace_protocol`] is set): (time, acting node, event).
    pub fn protocol_log(&self) -> &[(sp_sim::Time, usize, &'static str)] {
        self.am.state().protocol_log()
    }

    fn new_req(&mut self, rec: ReqRec) -> Req {
        let id = self.next_req;
        self.next_req += 1;
        self.reqs.insert(id, rec);
        Req(id)
    }

    /// Absolute address of offset `off` inside my staging region at `dst`.
    fn region_addr_at(&self, dst: usize, off: u32) -> GlobalPtr {
        GlobalPtr {
            node: dst,
            addr: self.am.state().stage_base + self.am.node() as u32 * self.cfg.region_size + off,
        }
    }

    /// Allocate staging space at `dst`, polling for frees under pressure.
    fn alloc_region(&mut self, dst: usize, len: u32) -> u32 {
        loop {
            let got = self.am.state_mut().allocs[dst].alloc(len);
            match got {
                Some((off, steps)) => {
                    // First-fit scanning cost vs. a bin hit (§4.2).
                    let cycles = if steps <= 1 {
                        15
                    } else {
                        40 + 15 * steps as u64
                    };
                    self.am.work(self.am.cost().cycles(cycles));
                    return off;
                }
                None => {
                    // Region exhausted: wait for frees.
                    self.progress_once();
                }
            }
        }
    }

    /// Try to allocate without blocking (hybrid prefix "reverts to plain
    /// rendezvous" when no space is available).
    fn try_alloc_region(&mut self, dst: usize, len: u32) -> Option<u32> {
        let got = self.am.state_mut().allocs[dst].alloc(len);
        got.map(|(off, steps)| {
            let cycles = if steps <= 1 {
                15
            } else {
                40 + 15 * steps as u64
            };
            self.am.work(self.am.cost().cycles(cycles));
            off
        })
    }

    fn progress_once(&mut self) {
        self.am.poll();
        self.pump_grants();
    }

    /// Start stores for any rendezvous grants the handlers queued.
    fn pump_grants(&mut self) {
        while let Some((dst, xfer, addr)) = self.am.state_mut().pending_grants.pop() {
            let now = self.am.now();
            let me = self.am.node();
            self.am
                .state_mut()
                .log(now, me, "poll: store data to granted address");
            let (data, prefix_sent) = self
                .rdv_data
                .remove(&xfer)
                .expect("rendezvous data retained");
            let remainder = &data[prefix_sent..];
            debug_assert!(!remainder.is_empty(), "grant for fully-sent message");
            let _ = self.am.store_async(
                GlobalPtr { node: dst, addr },
                remainder,
                Some(H_RDV_DONE),
                &[xfer],
                Some((H_SEND_DONE, [xfer, 0, 0, 0])),
            );
        }
    }

    /// Send a free as a request (mainline context, where replies are not
    /// available).
    fn send_free_request(&mut self, dst: usize, action: FreeAction) {
        match action {
            FreeAction::None => {}
            FreeAction::One(off, len) => self.am.request_2(dst, H_FREE_ONE, off, len),
            FreeAction::Bins(offs) => {
                let mut a = [0u32; 3];
                for (i, &o) in offs.iter().take(3).enumerate() {
                    a[i] = o;
                }
                self.am
                    .request_4(dst, H_FREE_BINS, offs.len().min(3) as u32, a[0], a[1], a[2]);
            }
        }
    }
}

impl Mpi for MpiAm<'_, '_> {
    fn rank(&self) -> usize {
        self.am.node()
    }

    fn size(&self) -> usize {
        self.am.nodes()
    }

    fn now(&self) -> Time {
        self.am.now()
    }

    fn work(&mut self, d: Dur) {
        self.worked += d;
        self.am.work(d);
    }

    fn worked(&self) -> Dur {
        self.worked
    }

    fn progress(&mut self) {
        self.progress_once();
    }

    fn isend(&mut self, buf: &[u8], dest: usize, tag: i32) -> Req {
        self.am.work(self.cfg.send_cpu);
        if dest == self.am.node() {
            // Self-send: deliver directly.
            let me = self.am.node();
            let st = self.am.state_mut();
            match st.match_posted(me, tag) {
                Some(p) => {
                    st.posted[p].state = PostedState::Done(
                        buf.to_vec(),
                        Status {
                            source: me,
                            tag,
                            len: buf.len(),
                        },
                    );
                }
                None => {
                    // Stash as a zero-copy eager envelope in a private
                    // arena block.
                    let addr = self.am.alloc(buf.len().max(1) as u32).addr;
                    self.am.mem().write(addr, buf);
                    self.am.state_mut().unexpected.push_back(InEnvelope::Eager {
                        src: me,
                        tag,
                        staged_addr: addr,
                        len: buf.len(),
                    });
                }
            }
            return self.new_req(ReqRec::SendDone);
        }

        if buf.is_empty() {
            self.am.request_1(dest, H_EAGER0, tag as u32);
            return self.new_req(ReqRec::SendDone);
        }

        if buf.len() < self.cfg.eager_limit {
            // Buffered protocol.
            let now = self.am.now();
            let me = self.am.node();
            self.am.state_mut().log(
                now,
                me,
                "MPI_Send: allocate staging space (sender-side), store data",
            );
            let off = self.alloc_region(dest, buf.len() as u32);
            let dst = self.region_addr_at(dest, off);
            let xfer = self.next_xfer;
            self.next_xfer += 1;
            let _ = self
                .am
                .store_async(dst, buf, Some(H_EAGER), &[tag as u32, xfer, 0, 0], None);
            return self.new_req(ReqRec::SendDone);
        }

        // Rendezvous (hybrid when optimized and space permits).
        let xfer = self.next_xfer;
        self.next_xfer += 1;
        let mut prefix_sent = 0usize;
        if self.cfg.optimized {
            let plen = self.cfg.hybrid_prefix.min(buf.len()) as u32;
            if let Some(off) = self.try_alloc_region(dest, plen) {
                let dst = self.region_addr_at(dest, off);
                prefix_sent = plen as usize;
                // The prefix store carries the whole rendezvous envelope;
                // its reply is the grant.
                let _ = self.am.store_async(
                    dst,
                    &buf[..prefix_sent],
                    Some(H_EAGER),
                    &[tag as u32, xfer, FLAG_PREFIX, buf.len() as u32],
                    None,
                );
            }
        }
        if prefix_sent == 0 {
            let now = self.am.now();
            let me = self.am.node();
            self.am
                .state_mut()
                .log(now, me, "MPI_Send: rendezvous request-for-address");
            self.am
                .request_3(dest, H_RDV_REQ, tag as u32, buf.len() as u32, xfer);
        } else {
            let now = self.am.now();
            let me = self.am.node();
            self.am.state_mut().log(
                now,
                me,
                "MPI_Send: hybrid prefix store (doubles as the request)",
            );
        }
        if prefix_sent >= buf.len() {
            // Whole message travelled as the prefix.
            return self.new_req(ReqRec::SendDone);
        }
        self.rdv_data.insert(xfer, (buf.to_vec(), prefix_sent));
        self.new_req(ReqRec::SendRdv { xfer })
    }

    fn irecv(&mut self, source: Option<usize>, tag: Option<i32>) -> Req {
        self.am.work(self.cfg.recv_cpu);
        // Match against already-arrived envelopes, in arrival order.
        let pos = self.am.state().unexpected.iter().position(|e| match e {
            InEnvelope::Eager { src, tag: t, .. } | InEnvelope::Rdv { src, tag: t, .. } => {
                tag_matches(source, tag, *src, *t)
            }
        });
        // Register the posted recv first (envelope consumption needs its
        // index).
        let posted = self.am.state_mut().post(source, tag);
        if let Some(pos) = pos {
            self.am.state_mut().unwait(posted);
            let env = self
                .am
                .state_mut()
                .unexpected
                .remove(pos)
                .expect("position valid");
            match env {
                InEnvelope::Eager {
                    src,
                    tag: t,
                    staged_addr,
                    len,
                } => {
                    // Copy out and free (request context).
                    let data = if len > 0 {
                        let cost = self.am.state().view.memcpy(len);
                        self.am.work(cost);
                        let mut buf = vec![0u8; len];
                        self.am.mem().read(staged_addr, &mut buf);
                        buf
                    } else {
                        Vec::new()
                    };
                    let st = self.am.state_mut();
                    st.posted[posted].state = PostedState::Done(
                        data,
                        Status {
                            source: src,
                            tag: t,
                            len,
                        },
                    );
                    if len > 0 && src != st.me {
                        let off = st.region_off(src, staged_addr);
                        let action = plan_free(st, src, off, len as u32);
                        self.send_free_request(src, action);
                    }
                }
                InEnvelope::Rdv {
                    src,
                    tag: t,
                    total_len,
                    xfer,
                    prefix,
                } => {
                    // Accept: allocate the buffer, absorb any prefix, grant
                    // via request.
                    let now = self.am.now();
                    let me = self.am.node();
                    self.am.state_mut().log(
                        now,
                        me,
                        "MPI_Irecv: matches recorded request; grant address (request)",
                    );
                    self.am.state_mut().rdv_seen.insert((src, xfer));
                    let buf_addr = self.am.alloc(total_len as u32).addr;
                    let mut remainder_addr = buf_addr;
                    let mut freed = FreeAction::None;
                    let mut done = false;
                    if let Some((paddr, plen)) = prefix {
                        let cost = self.am.state().view.memcpy(plen);
                        self.am.work(cost);
                        let mut tmp = vec![0u8; plen];
                        self.am.mem().read(paddr, &mut tmp);
                        self.am.mem().write(buf_addr, &tmp);
                        remainder_addr = buf_addr + plen as u32;
                        let st = self.am.state_mut();
                        let off = st.region_off(src, paddr);
                        freed = plan_free(st, src, off, plen as u32);
                        if plen >= total_len {
                            let mut data = vec![0u8; total_len];
                            self.am.mem().read(buf_addr, &mut data);
                            self.am.state_mut().posted[posted].state = PostedState::Done(
                                data,
                                Status {
                                    source: src,
                                    tag: t,
                                    len: total_len,
                                },
                            );
                            done = true;
                        }
                    }
                    self.send_free_request(src, freed);
                    if !done {
                        self.am.state_mut().rdv_recv.insert(
                            (src, xfer),
                            RdvRecv {
                                posted,
                                buf_addr,
                                total_len,
                                tag: t,
                            },
                        );
                        self.am.request_2(src, H_RDV_GRANT, xfer, remainder_addr);
                    }
                }
            }
        }
        self.new_req(ReqRec::Recv { posted })
    }

    fn test(&mut self, req: Req) -> bool {
        self.progress_once();
        match self.reqs.get(&req.0) {
            None => true,
            Some(ReqRec::SendDone) => true,
            Some(ReqRec::SendRdv { xfer }) => self.am.state().send_done.contains(xfer),
            Some(ReqRec::Recv { posted }) => {
                matches!(self.am.state().posted[*posted].state, PostedState::Done(..))
            }
        }
    }

    fn wait(&mut self, req: Req) -> Option<(Vec<u8>, Status)> {
        let rec = self
            .reqs
            .remove(&req.0)
            .expect("request exists (wait once)");
        match rec {
            ReqRec::SendDone => None,
            ReqRec::SendRdv { xfer } => {
                while !self.am.state().send_done.contains(&xfer) {
                    self.progress_once();
                }
                self.am.state_mut().send_done.remove(&xfer);
                None
            }
            ReqRec::Recv { posted } => {
                while matches!(self.am.state().posted[posted].state, PostedState::Waiting) {
                    self.progress_once();
                }
                let st = self.am.state_mut();
                let out =
                    match std::mem::replace(&mut st.posted[posted].state, PostedState::Consumed) {
                        PostedState::Done(data, status) => Some((data, status)),
                        _ => unreachable!("just checked"),
                    };
                st.free_slots.push(posted);
                out
            }
        }
    }

    /// With `tuned_collectives` the all-to-all staggers destinations (rank
    /// r starts at r+1) instead of MPICH's everyone-hammers-rank-0
    /// schedule — the paper's proposed fix for FT's bottleneck. Otherwise
    /// the generic default runs.
    fn alltoall(&mut self, bufs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        if !self.cfg.tuned_collectives {
            return crate::iface::generic_alltoall(self, bufs);
        }
        let (me, p) = (self.rank(), self.size());
        assert_eq!(bufs.len(), p);
        const TAG: i32 = i32::MAX - 4;
        let recvs: Vec<Req> = (1..p)
            .map(|i| self.irecv(Some((me + p - i) % p), Some(TAG)))
            .collect();
        let mut sends = Vec::with_capacity(p - 1);
        for i in 1..p {
            let d = (me + i) % p;
            sends.push(self.isend(&bufs[d], d, TAG));
        }
        let mut out: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = bufs[me].clone();
        for r in recvs {
            let (bytes, st) = self.wait(r).expect("receive yields");
            out[st.source] = bytes;
        }
        for s in sends {
            self.wait(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ff(region: u32) -> RegionAlloc {
        RegionAlloc::new(region, false, 1024, 8)
    }

    #[test]
    fn first_fit_allocates_and_coalesces() {
        let mut a = ff(16 * 1024);
        let (x, _) = a.alloc(4000).unwrap();
        let (y, _) = a.alloc(4000).unwrap();
        let (z, _) = a.alloc(4000).unwrap();
        assert!(x < y && y < z);
        // Free out of order; the region must coalesce back to one block.
        a.free(y, 4000);
        a.free(x, 4000);
        a.free(z, 4000);
        let (w, steps) = a.alloc(16 * 1024).unwrap();
        assert_eq!(w, 0);
        assert_eq!(
            steps, 1,
            "coalescing failed: {} free-list entries scanned",
            steps
        );
    }

    #[test]
    fn binned_allocator_prefers_bins() {
        let mut a = RegionAlloc::new(16 * 1024, true, 1024, 8);
        for i in 0..8u32 {
            let (off, steps) = a.alloc(500).unwrap();
            assert_eq!(off, i * 1024, "bin order");
            assert_eq!(steps, 1, "bin hit must not scan");
        }
        // Ninth small allocation falls through to first-fit territory.
        let (off, _) = a.alloc(500).unwrap();
        assert!(off >= 8 * 1024);
        // Free a bin: next small allocation reuses it.
        a.free(2 * 1024, 500);
        let (off, _) = a.alloc(400).unwrap();
        assert_eq!(off, 2 * 1024);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = ff(8 * 1024);
        assert!(a.alloc(8 * 1024).is_some());
        assert!(a.alloc(1).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Live allocations never overlap and always fit the region, for
        /// arbitrary alloc/free interleavings, with and without bins.
        #[test]
        fn allocations_disjoint(
            ops in prop::collection::vec((any::<bool>(), 1u32..3000), 1..200),
            binned in any::<bool>(),
        ) {
            let region = 16 * 1024u32;
            let mut a = RegionAlloc::new(region, binned, 1024, 8);
            let mut live: Vec<(u32, u32)> = Vec::new();
            for (is_alloc, len) in ops {
                if is_alloc || live.is_empty() {
                    if let Some((off, _)) = a.alloc(len) {
                        prop_assert!(off + len <= region, "allocation escapes the region");
                        for &(o, l) in &live {
                            // Bin allocations may be smaller than the bin
                            // they occupy; compare against the bin extent.
                            let extent = |off: u32, len: u32| {
                                if a.is_bin(off) { (off, off + 1024) } else { (off, off + len) }
                            };
                            let (s1, e1) = extent(off, len);
                            let (s2, e2) = extent(o, l);
                            prop_assert!(e1 <= s2 || e2 <= s1,
                                "overlap: [{s1},{e1}) vs [{s2},{e2})");
                        }
                        live.push((off, len));
                    }
                } else {
                    let (off, len) = live.swap_remove(len as usize % live.len());
                    a.free(off, len);
                }
            }
            // Free everything: the full region must be allocatable again.
            for (off, len) in live.drain(..) {
                a.free(off, len);
            }
            let bin_bytes = if binned { 8 * 1024 } else { 0 };
            prop_assert!(a.alloc(region - bin_bytes).is_some(), "region leaked");
        }
    }
}
