//! An "MPI-F"-like native MPI baseline.
//!
//! IBM's MPI-F was written from scratch against the CSS user-space path;
//! the paper uses it as the measured comparator for MPI-AM (Figures 8–11,
//! Table 6). We reproduce its externally visible behaviour: an eager
//! protocol below 4 KB, a rendezvous protocol above (with the bandwidth dip
//! at the switch that the hybrid MPI-AM avoids — Figure 7 vs. the MPI-F
//! curves), tuned collectives (staggered all-to-all), and per-message
//! software costs calibrated to its measured small-message latency —
//! lighter than MPL's, heavier than optimized MPI-AM's on thin nodes.
//!
//! Mechanically it reuses the `sp-mpl` fragmentation engine with its own
//! cost constants; MPI-F is a measured baseline here, not an artifact.

use crate::iface::{Mpi, Req, Status};
use sp_mpl::{Mpl, MplConfig, Msg};
use sp_sim::{Dur, Time};
use std::collections::{HashMap, VecDeque};

/// MPI-F configuration.
#[derive(Debug, Clone)]
pub struct MpiFConfig {
    /// Eager/rendezvous switch (4 KB per the paper's footnote 4).
    pub eager_limit: usize,
    /// Per-send software cost beyond the transport path.
    pub send_cpu: Dur,
    /// Per-receive-completion software cost.
    pub recv_cpu: Dur,
    /// Transport cost profile (the CSS-like path MPI-F drives directly).
    pub transport: MplConfig,
}

impl Default for MpiFConfig {
    fn default() -> Self {
        MpiFConfig {
            eager_limit: 4 * 1024,
            send_cpu: Dur::us(3.5),
            recv_cpu: Dur::us(3.0),
            transport: MplConfig {
                o_send: Dur::us(7.0),
                o_recv: Dur::us(6.0),
                poll_cpu: Dur::us(1.4),
                per_packet_cpu: Dur::ns(450),
                credit_window: 48,
                credit_batch: 16,
                doorbell_batch: 8,
            },
        }
    }
}

// Wire tag encoding: kind in the top nibble, payload identifier below.
const KIND_SHIFT: u32 = 28;
const KIND_EAGER: u32 = 0x1;
const KIND_RDV_REQ: u32 = 0x2;
const KIND_RDV_GRANT: u32 = 0x3;
const KIND_RDV_DATA: u32 = 0x4;

fn wire_tag(kind: u32, low: u32) -> u32 {
    debug_assert!(low < (1 << KIND_SHIFT));
    (kind << KIND_SHIFT) | low
}

fn kind_of(t: u32) -> u32 {
    t >> KIND_SHIFT
}

/// MPI user tags must fit in 24 bits here (plenty for the benchmarks);
/// the envelope carries the real i32 tag, the wire tag only multiplexes.
#[derive(Debug)]
enum InEnvelope {
    Eager {
        src: usize,
        tag: i32,
        data: Vec<u8>,
    },
    Rdv {
        src: usize,
        tag: i32,
        len: usize,
        xfer: u32,
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

#[derive(Debug)]
enum ReqRec {
    SendDone,
    SendRdv { xfer: u32 },
    Recv { posted: usize },
}

/// MPI-F endpoint.
pub struct MpiF<'a, 'c> {
    mpl: &'a mut Mpl<'c>,
    cfg: MpiFConfig,
    posted: Vec<PostedRecv>,
    waiting: Vec<usize>,
    free_slots: Vec<usize>,
    unexpected: VecDeque<InEnvelope>,
    /// Rendezvous sends awaiting a grant: xfer -> (dest, data).
    rdv_send: HashMap<u32, (usize, Vec<u8>)>,
    /// Grants received, data push pending: (dest, xfer).
    pending_grants: Vec<(usize, u32)>,
    /// Rendezvous sends fully pushed.
    send_done: std::collections::HashSet<u32>,
    /// Active rendezvous receives: (src, xfer) -> (posted, tag, len).
    rdv_recv: HashMap<(usize, u32), (usize, i32, usize)>,
    reqs: HashMap<u64, ReqRec>,
    next_req: u64,
    next_xfer: u32,
    /// Computation charged through [`Mpi::work`].
    worked: Dur,
}

impl<'a, 'c> MpiF<'a, 'c> {
    /// Wrap an MPL-engine endpoint (configured with
    /// [`MpiFConfig::transport`]) as an MPI-F endpoint.
    pub fn new(mpl: &'a mut Mpl<'c>, cfg: MpiFConfig) -> Self {
        MpiF {
            mpl,
            cfg,
            posted: Vec::new(),
            waiting: Vec::new(),
            free_slots: Vec::new(),
            unexpected: VecDeque::new(),
            rdv_send: HashMap::new(),
            pending_grants: Vec::new(),
            send_done: std::collections::HashSet::new(),
            rdv_recv: HashMap::new(),
            reqs: HashMap::new(),
            next_req: 0,
            next_xfer: 1,
            worked: Dur::ZERO,
        }
    }

    fn new_req(&mut self, rec: ReqRec) -> Req {
        let id = self.next_req;
        self.next_req += 1;
        self.reqs.insert(id, rec);
        Req(id)
    }

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

    fn match_posted(&mut self, src: usize, tag: i32) -> Option<usize> {
        let wpos = self.waiting.iter().position(|&i| {
            let p = &self.posted[i];
            p.src.is_none_or(|s| s == src) && p.tag.is_none_or(|t| t == tag)
        })?;
        Some(self.waiting.remove(wpos))
    }

    /// Drain transport arrivals into envelopes and protocol actions.
    fn service(&mut self) {
        self.mpl.poll();
        while let Some(msg) = self.mpl.take_unexpected(|_| true) {
            self.dispatch(msg);
        }
        // Push data for any grants received (outside the drain loop so the
        // bsends don't recurse).
        while let Some((dest, xfer)) = self.pending_grants.pop() {
            let (d, data) = self
                .rdv_send
                .remove(&xfer)
                .expect("rendezvous data retained");
            debug_assert_eq!(d, dest);
            self.mpl
                .bsend(dest, wire_tag(KIND_RDV_DATA, xfer & 0x0FFF_FFFF), &data);
            self.send_done.insert(xfer);
        }
    }

    fn dispatch(&mut self, msg: Msg) {
        match kind_of(msg.tag) {
            KIND_EAGER => {
                // Payload: [tag i32][data...]
                let tag = i32::from_le_bytes(msg.data[0..4].try_into().expect("tag"));
                let data = msg.data[4..].to_vec();
                self.mpl.work(self.cfg.recv_cpu);
                match self.match_posted(msg.src, tag) {
                    Some(p) => {
                        let st = Status {
                            source: msg.src,
                            tag,
                            len: data.len(),
                        };
                        self.posted[p].state = PostedState::Done(data, st);
                    }
                    None => self.unexpected.push_back(InEnvelope::Eager {
                        src: msg.src,
                        tag,
                        data,
                    }),
                }
            }
            KIND_RDV_REQ => {
                // Payload: [tag i32][len u32][xfer u32]
                let tag = i32::from_le_bytes(msg.data[0..4].try_into().expect("tag"));
                let len = u32::from_le_bytes(msg.data[4..8].try_into().expect("len")) as usize;
                let xfer = u32::from_le_bytes(msg.data[8..12].try_into().expect("xfer"));
                match self.match_posted(msg.src, tag) {
                    Some(p) => {
                        self.rdv_recv.insert((msg.src, xfer), (p, tag, len));
                        self.mpl
                            .bsend(msg.src, wire_tag(KIND_RDV_GRANT, 0), &xfer.to_le_bytes());
                    }
                    None => self.unexpected.push_back(InEnvelope::Rdv {
                        src: msg.src,
                        tag,
                        len,
                        xfer,
                    }),
                }
            }
            KIND_RDV_GRANT => {
                let xfer = u32::from_le_bytes(msg.data[0..4].try_into().expect("xfer"));
                self.pending_grants.push((msg.src, xfer));
            }
            KIND_RDV_DATA => {
                let xfer = msg.tag & 0x0FFF_FFFF;
                let (posted, tag, len) = self
                    .rdv_recv
                    .remove(&(msg.src, xfer))
                    .expect("rendezvous receive active");
                debug_assert_eq!(len, msg.data.len());
                self.mpl.work(self.cfg.recv_cpu);
                let st = Status {
                    source: msg.src,
                    tag,
                    len,
                };
                self.posted[posted].state = PostedState::Done(msg.data, st);
            }
            other => unreachable!("unknown wire kind {other}"),
        }
    }
}

impl Mpi for MpiF<'_, '_> {
    fn rank(&self) -> usize {
        self.mpl.node()
    }

    fn size(&self) -> usize {
        self.mpl.nodes()
    }

    fn now(&self) -> Time {
        self.mpl.now()
    }

    fn work(&mut self, d: Dur) {
        self.worked += d;
        self.mpl.work(d);
    }

    fn worked(&self) -> Dur {
        self.worked
    }

    fn progress(&mut self) {
        self.service();
    }

    fn isend(&mut self, buf: &[u8], dest: usize, tag: i32) -> Req {
        self.mpl.work(self.cfg.send_cpu);
        if dest == self.rank() {
            match self.match_posted(dest, tag) {
                Some(p) => {
                    let st = Status {
                        source: dest,
                        tag,
                        len: buf.len(),
                    };
                    self.posted[p].state = PostedState::Done(buf.to_vec(), st);
                }
                None => self.unexpected.push_back(InEnvelope::Eager {
                    src: dest,
                    tag,
                    data: buf.to_vec(),
                }),
            }
            return self.new_req(ReqRec::SendDone);
        }
        if buf.len() <= self.cfg.eager_limit {
            let mut payload = Vec::with_capacity(4 + buf.len());
            payload.extend_from_slice(&tag.to_le_bytes());
            payload.extend_from_slice(buf);
            self.mpl.bsend(dest, wire_tag(KIND_EAGER, 0), &payload);
            return self.new_req(ReqRec::SendDone);
        }
        let xfer = self.next_xfer;
        self.next_xfer += 1;
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&(buf.len() as u32).to_le_bytes());
        payload.extend_from_slice(&xfer.to_le_bytes());
        self.mpl.bsend(dest, wire_tag(KIND_RDV_REQ, 0), &payload);
        self.rdv_send.insert(xfer, (dest, buf.to_vec()));
        self.new_req(ReqRec::SendRdv { xfer })
    }

    fn irecv(&mut self, source: Option<usize>, tag: Option<i32>) -> Req {
        self.mpl.work(self.cfg.recv_cpu);
        let pos = self.unexpected.iter().position(|e| match e {
            InEnvelope::Eager { src, tag: t, .. } | InEnvelope::Rdv { src, tag: t, .. } => {
                source.is_none_or(|s| s == *src) && tag.is_none_or(|w| w == *t)
            }
        });
        let posted = self.post(source, tag);
        if let Some(pos) = pos {
            // Claim our own just-posted slot.
            let w = self.waiting.pop().expect("just pushed");
            debug_assert_eq!(w, posted);
            match self.unexpected.remove(pos).expect("position valid") {
                InEnvelope::Eager { src, tag: t, data } => {
                    let st = Status {
                        source: src,
                        tag: t,
                        len: data.len(),
                    };
                    self.posted[posted].state = PostedState::Done(data, st);
                }
                InEnvelope::Rdv {
                    src,
                    tag: t,
                    len,
                    xfer,
                } => {
                    self.rdv_recv.insert((src, xfer), (posted, t, len));
                    self.mpl
                        .bsend(src, wire_tag(KIND_RDV_GRANT, 0), &xfer.to_le_bytes());
                }
            }
        }
        self.new_req(ReqRec::Recv { posted })
    }

    fn test(&mut self, req: Req) -> bool {
        self.service();
        match self.reqs.get(&req.0) {
            None => true,
            Some(ReqRec::SendDone) => true,
            Some(ReqRec::SendRdv { xfer }) => self.send_done.contains(xfer),
            Some(ReqRec::Recv { posted }) => {
                matches!(self.posted[*posted].state, PostedState::Done(..))
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
                while !self.send_done.contains(&xfer) {
                    self.service();
                }
                self.send_done.remove(&xfer);
                None
            }
            ReqRec::Recv { posted } => {
                while matches!(self.posted[posted].state, PostedState::Waiting) {
                    self.service();
                }
                let out = match std::mem::replace(
                    &mut self.posted[posted].state,
                    PostedState::Consumed,
                ) {
                    PostedState::Done(data, status) => Some((data, status)),
                    _ => unreachable!("just checked"),
                };
                self.free_slots.push(posted);
                out
            }
        }
    }

    /// MPI-F ships tuned collectives: the all-to-all staggers sources so
    /// rank r starts with destination r+1 instead of everyone hammering
    /// rank 0 (contrast with the generic MPICH schedule MPI-AM uses).
    fn alltoall(&mut self, bufs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let (me, p) = (self.rank(), self.size());
        assert_eq!(bufs.len(), p);
        const TAG: i32 = i32::MAX - 4; // same tag space as the generic one
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
