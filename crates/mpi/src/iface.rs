//! The MPI interface subset, with MPICH-style generic collectives as
//! default methods.

use sp_sim::{Dur, Time};

/// Wildcard source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<usize> = None;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<i32> = None;

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Sending rank.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Message length in bytes.
    pub len: usize,
}

/// Request handle for non-blocking operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req(pub(crate) u64);

// Tags reserved for the generic collectives (top of the tag space).
const TAG_BARRIER: i32 = i32::MAX - 1;
const TAG_BCAST: i32 = i32::MAX - 2;
const TAG_REDUCE: i32 = i32::MAX - 3;
const TAG_ALLTOALL: i32 = i32::MAX - 4;
const TAG_GATHER: i32 = i32::MAX - 5;

/// The MPI operations the paper's evaluation requires.
///
/// Implementations provide point-to-point; the collectives are MPICH's
/// *generic* algorithms (built from point-to-point) unless overridden —
/// [`MpiF`](crate::MpiF) overrides `alltoall` the way a tuned native MPI
/// would.
pub trait Mpi {
    /// This process's rank.
    fn rank(&self) -> usize;
    /// Communicator size.
    fn size(&self) -> usize;
    /// Current virtual time.
    fn now(&self) -> Time;
    /// Charge computation time.
    fn work(&mut self, d: Dur);
    /// Total computation charged through [`Mpi::work`] on this rank so far.
    fn worked(&self) -> Dur;

    /// `MPI_Isend`: start a send; the buffer is captured (reusable
    /// immediately, like a buffered send).
    fn isend(&mut self, buf: &[u8], dest: usize, tag: i32) -> Req;
    /// `MPI_Irecv`: post a receive.
    fn irecv(&mut self, source: Option<usize>, tag: Option<i32>) -> Req;
    /// `MPI_Wait`: complete one request. Receives yield their message.
    fn wait(&mut self, req: Req) -> Option<(Vec<u8>, Status)>;
    /// `MPI_Test`-ish: has the request completed?
    fn test(&mut self, req: Req) -> bool;
    /// Let the progress engine run once (poll the network).
    fn progress(&mut self);

    /// `MPI_Send` (blocks until the message is safely on its way and the
    /// protocol's completion condition holds).
    fn send(&mut self, buf: &[u8], dest: usize, tag: i32) {
        let r = self.isend(buf, dest, tag);
        self.wait(r);
    }

    /// `MPI_Recv`.
    fn recv(&mut self, source: Option<usize>, tag: Option<i32>) -> (Vec<u8>, Status) {
        let r = self.irecv(source, tag);
        self.wait(r).expect("receive yields a message")
    }

    /// `MPI_Waitall`.
    fn waitall(&mut self, reqs: Vec<Req>) -> Vec<Option<(Vec<u8>, Status)>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// `MPI_Sendrecv`.
    fn sendrecv(
        &mut self,
        buf: &[u8],
        dest: usize,
        send_tag: i32,
        source: Option<usize>,
        recv_tag: Option<i32>,
    ) -> (Vec<u8>, Status) {
        let rr = self.irecv(source, recv_tag);
        let sr = self.isend(buf, dest, send_tag);
        let out = self.wait(rr).expect("receive yields a message");
        self.wait(sr);
        out
    }

    /// `MPI_Barrier` (generic: dissemination algorithm, ⌈log₂ p⌉ rounds).
    fn barrier(&mut self) {
        let (me, p) = (self.rank(), self.size());
        let mut round = 1usize;
        while round < p {
            let to = (me + round) % p;
            let from = (me + p - round % p) % p;
            let rr = self.irecv(Some(from), Some(TAG_BARRIER));
            let sr = self.isend(&[], to, TAG_BARRIER);
            self.wait(rr);
            self.wait(sr);
            round <<= 1;
        }
    }

    /// `MPI_Bcast` (generic: binomial tree). Root passes `data`; everyone
    /// returns the broadcast bytes.
    fn bcast(&mut self, root: usize, data: &[u8]) -> Vec<u8> {
        let (me, p) = (self.rank(), self.size());
        let vrank = (me + p - root) % p; // rotate so root is 0
        let mut have: Option<Vec<u8>> = if me == root {
            Some(data.to_vec())
        } else {
            None
        };
        // Receive from parent.
        if vrank != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vrank & mask != 0 {
                    let parent = ((vrank ^ mask) + root) % p;
                    let (bytes, _) = self.recv(Some(parent), Some(TAG_BCAST));
                    have = Some(bytes);
                    break;
                }
                mask <<= 1;
            }
        }
        // Forward to children.
        let data = have.expect("bcast data present");
        let mut mask = {
            // First mask with vrank&mask != 0, or top bit for the root.
            let mut m = 1usize;
            while m < p && vrank & m == 0 {
                m <<= 1;
            }
            m >> 1
        };
        while mask > 0 {
            let vchild = vrank | mask;
            if vchild < p && vchild != vrank {
                let child = (vchild + root) % p;
                self.send(&data, child, TAG_BCAST);
            }
            mask >>= 1;
        }
        data
    }

    /// Generic `MPI_Reduce` of f64 vectors with operator `op` (element
    /// wise); result valid at `root` (binomial tree).
    fn reduce_f64(
        &mut self,
        root: usize,
        mine: &[f64],
        op: fn(f64, f64) -> f64,
    ) -> Option<Vec<f64>> {
        let (me, p) = (self.rank(), self.size());
        let vrank = (me + p - root) % p;
        let mut acc = mine.to_vec();
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = ((vrank ^ mask) + root) % p;
                let bytes: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
                self.send(&bytes, parent, TAG_REDUCE);
                return None;
            }
            let vchild = vrank | mask;
            if vchild < p {
                let child = (vchild + root) % p;
                let (bytes, _) = self.recv(Some(child), Some(TAG_REDUCE));
                for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                    let v = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                    acc[i] = op(acc[i], v);
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Generic `MPI_Allreduce` (reduce to 0, then broadcast).
    fn allreduce_f64(&mut self, mine: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
        let reduced = self.reduce_f64(0, mine, op);
        let data = reduced.map(|v| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
        let bytes = self.bcast(0, data.as_deref().unwrap_or(&[]));
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }

    /// `MPI_Alltoall`: `bufs[d]` goes to rank `d`; returns what every rank
    /// sent to us, indexed by source.
    ///
    /// Generic MPICH schedule: post all receives, then send to ranks **in
    /// ascending order** — so at the start every processor targets rank 0
    /// simultaneously. This is the convergent pattern the paper identifies
    /// as FT's bottleneck ("all processors try to send to the same
    /// processor at the same time, rather than spreading out the
    /// communication pattern", §4.4).
    fn alltoall(&mut self, bufs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let (me, p) = (self.rank(), self.size());
        assert_eq!(bufs.len(), p);
        let recvs: Vec<Req> = (0..p)
            .filter(|&s| s != me)
            .map(|s| self.irecv(Some(s), Some(TAG_ALLTOALL)))
            .collect();
        let mut sends = Vec::with_capacity(p - 1);
        #[allow(clippy::needless_range_loop)] // d is a *rank*, not just an index
        for d in 0..p {
            if d != me {
                sends.push(self.isend(&bufs[d], d, TAG_ALLTOALL));
            }
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

    /// Generic `MPI_Gather` of equal-size contributions to `root`.
    /// (See also `generic_alltoall` for reuse by implementations that
    /// conditionally override `alltoall`.)
    fn gather(&mut self, root: usize, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        let (me, p) = (self.rank(), self.size());
        if me == root {
            let mut out: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
            out[me] = mine.to_vec();
            for _ in 0..p - 1 {
                let (bytes, st) = self.recv(None, Some(TAG_GATHER));
                out[st.source] = bytes;
            }
            Some(out)
        } else {
            self.send(mine, root, TAG_GATHER);
            None
        }
    }
}

/// The generic MPICH all-to-all schedule as a free function, so trait
/// implementations that override `alltoall` conditionally can fall back to
/// it (calling the default method from an override would recurse).
pub(crate) fn generic_alltoall<M: Mpi + ?Sized>(mpi: &mut M, bufs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let (me, p) = (mpi.rank(), mpi.size());
    assert_eq!(bufs.len(), p);
    let recvs: Vec<Req> = (0..p)
        .filter(|&s| s != me)
        .map(|s| mpi.irecv(Some(s), Some(TAG_ALLTOALL)))
        .collect();
    let mut sends = Vec::with_capacity(p - 1);
    #[allow(clippy::needless_range_loop)] // d is a *rank*, not just an index
    for d in 0..p {
        if d != me {
            sends.push(mpi.isend(&bufs[d], d, TAG_ALLTOALL));
        }
    }
    let mut out: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
    out[me] = bufs[me].clone();
    for r in recvs {
        let (bytes, st) = mpi.wait(r).expect("receive yields");
        out[st.source] = bytes;
    }
    for s in sends {
        mpi.wait(s);
    }
    out
}
