//! Node programs: the baton handshake and the [`NodeCtx`] API they program
//! against.
//!
//! Each simulated node's program runs on a dedicated OS thread, and a
//! per-node *baton* makes sure exactly one thread per shard executes at any
//! moment. There is no engine thread: a node that yields releases its baton
//! and drives its shard's event loop itself (see the `parallel` module),
//! either resuming in place when the next event is its own wake or granting
//! the baton to the node that event wakes. The handshake is one atomic
//! state word per node: a waiting node blocks in [`std::thread::park`], and
//! a grant publishes `Run` and unparks the node's thread. A pass therefore
//! costs at most one futex wake, none if the target has not parked yet,
//! and the woken node never contends for a lock its granter holds.

use crate::engine::{EvKind, NodeId, Shared};
use crate::parallel::Core;
use crate::time::{Dur, Time};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// Why a blocked node program resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// The requested virtual-time span elapsed (for [`NodeCtx::advance`] and
    /// the timeout arm of [`NodeCtx::park_timeout`]).
    Timeout,
    /// Another node or a scheduled event called `unpark` on this node.
    Unparked,
}

/// Baton state: the node does not hold the baton.
const IDLE: u8 = 0;
/// Baton state: a driver granted the node the right to run.
const RUN: u8 = 1;
/// Baton state: the run is being torn down; the node thread must exit.
const EXIT: u8 = 2;

/// Panic payload used to unwind a node thread during teardown.
pub(crate) struct ShutdownToken;

/// One node's run permission: granted by whichever thread drives the
/// node's shard, released by the node when it yields.
pub(crate) struct Baton {
    /// `IDLE`, `RUN` or `EXIT`.
    state: AtomicU8,
    /// Virtual time of the latest grant, published by its `RUN` store.
    at: AtomicU64,
    /// Whether the latest grant was an unpark, published likewise.
    unparked: AtomicBool,
    /// The node thread that waits on this baton.
    thread: OnceLock<Thread>,
}

impl Baton {
    pub(crate) fn new() -> Arc<Baton> {
        Arc::new(Baton {
            state: AtomicU8::new(IDLE),
            at: AtomicU64::new(0),
            unparked: AtomicBool::new(false),
            thread: OnceLock::new(),
        })
    }

    /// Name the thread that waits on this baton. Must happen before the
    /// first grant.
    pub(crate) fn bind(&self, thread: Thread) {
        self.thread.set(thread).expect("baton bound twice");
    }

    fn thread(&self) -> &Thread {
        self.thread.get().expect("baton not bound to a node thread")
    }

    /// Teardown: tell a blocked node thread to unwind and exit.
    pub(crate) fn exit(&self) {
        self.state.store(EXIT, Ordering::Release);
        self.thread().unpark();
    }

    /// Grant the baton to a node without blocking for its yield (the
    /// granting thread goes on driving the shard or waits for its own
    /// grant). The target must be idle; a teardown `Exit` is kept, so a
    /// grant racing the teardown cannot resurrect the node.
    pub(crate) fn grant(&self, at: Time, reason: WakeReason) {
        self.at.store(at.as_ns(), Ordering::Relaxed);
        self.unparked
            .store(reason == WakeReason::Unparked, Ordering::Relaxed);
        let prev = self
            .state
            .compare_exchange(IDLE, RUN, Ordering::Release, Ordering::Relaxed);
        debug_assert!(prev != Err(RUN), "grant: baton not idle");
        self.thread().unpark();
    }

    /// Give the baton back before driving the shard. Only replaces a
    /// `Run`; a concurrent teardown `Exit` is preserved so the thread still
    /// unwinds at its next wait. The shard lock orders this before the
    /// node's next grant.
    pub(crate) fn release(&self) {
        let _ = self
            .state
            .compare_exchange(RUN, IDLE, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Node side: block until a driver grants `Run` (or teardown unwinds
    /// the thread with a [`ShutdownToken`]). Leaves `Run` in place: it
    /// marks that the node holds the baton until it yields again. Only the
    /// bound thread may wait.
    pub(crate) fn wait_for_run(&self) -> (Time, WakeReason) {
        loop {
            match self.state.load(Ordering::Acquire) {
                RUN => {
                    let reason = if self.unparked.load(Ordering::Relaxed) {
                        WakeReason::Unparked
                    } else {
                        WakeReason::Timeout
                    };
                    return (Time(self.at.load(Ordering::Relaxed)), reason);
                }
                EXIT => std::panic::resume_unwind(Box::new(ShutdownToken)),
                // Spurious returns and tokens left by an earlier grant just
                // go round the loop again.
                _ => std::thread::park(),
            }
        }
    }
}

/// Handle through which a node program interacts with the simulation.
///
/// A `NodeCtx` is handed (by mutable reference) to the node program closure.
/// All methods that touch virtual time are *explicit*: wall-clock time spent
/// computing inside the closure costs nothing; only [`NodeCtx::advance`]
/// moves this node's clock.
pub struct NodeCtx<W: Send + 'static> {
    pub(crate) id: NodeId,
    pub(crate) num_nodes: usize,
    pub(crate) now: Time,
    /// This node's shard (`core.shards[shard]`).
    pub(crate) shared: Arc<Shared<W>>,
    pub(crate) baton: Arc<Baton>,
    pub(crate) rng: SmallRng,
    /// The run's driver, which this node becomes whenever it yields.
    pub(crate) core: Arc<Core<W>>,
    pub(crate) shard: usize,
}

impl<W: Send + 'static> NodeCtx<W> {
    pub(crate) fn new(
        id: NodeId,
        num_nodes: usize,
        seed: u64,
        core: Arc<Core<W>>,
        shard: usize,
    ) -> Self {
        // Mix the node id into the master seed so per-node streams differ.
        let node_seed = seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        NodeCtx {
            id,
            num_nodes,
            now: Time::ZERO,
            shared: core.shards[shard].clone(),
            baton: core.batons[id.0].clone(),
            rng: SmallRng::seed_from_u64(node_seed),
            core,
            shard,
        }
    }

    /// Yield: release the baton and *become* the shard's driver. If this
    /// node's own wake surfaces while driving, it resumes with zero context
    /// switches; otherwise it waits for the node it granted (or a later
    /// driver) to grant it back.
    fn yield_and_drive(&mut self) -> (Time, WakeReason) {
        self.baton.release();
        match self.core.drive(self.shard, Some(self.id)) {
            Some(own_wake) => own_wake,
            None => self.baton.wait_for_run(),
        }
    }

    /// This node's id (dense, `0..num_nodes`).
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total number of node programs in the simulation.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Current virtual time at this node.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic per-node random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Charge `d` of virtual time to this node (e.g. CPU work, an I/O-bus
    /// access, a cache flush). Scheduled events whose time falls within the
    /// span execute while this node "computes"; unparks arriving meanwhile
    /// are latched and delivered by the next `park`/`park_timeout`.
    ///
    /// When nothing else could run inside the span — no pending event at or
    /// before `now + d`, no latched unpark — the clock moves under a single
    /// uncontended lock acquire without yielding the baton
    /// (see `Shared::try_fast_advance`); virtual-time behavior is identical
    /// either way.
    pub fn advance(&mut self, d: Dur) {
        let until = self.now + d;
        if self.shared.try_fast_advance(self.id, until) {
            self.now = until;
            return;
        }
        self.shared.note_sleep(self.id, until);
        let (t, _) = self.yield_and_drive();
        debug_assert_eq!(t, until);
        self.now = t;
    }

    /// Access the world and charge virtual time in one combined operation:
    /// `f` returns `(result, cost)` and the cost is charged as by
    /// [`NodeCtx::advance`], all under a single lock acquire when the fast
    /// path applies. A zero cost charges nothing and never yields (use it
    /// for error arms that abort before touching the hardware).
    pub fn world_then_advance<R>(&mut self, f: impl FnOnce(&mut W) -> (R, Dur)) -> R {
        let (r, until, fast) = self.shared.world_charge(self.id, self.now, f);
        if fast {
            self.now = until;
            return r;
        }
        self.shared.note_sleep(self.id, until);
        let (t, _) = self.yield_and_drive();
        debug_assert_eq!(t, until);
        self.now = t;
        r
    }

    /// Block until another node or an event calls unpark on this node.
    /// Consecutive unparks coalesce (as with `std::thread::park`). Returns
    /// immediately if a signal is already pending.
    pub fn park(&mut self) -> WakeReason {
        if self.shared.take_signal(self.id) {
            return WakeReason::Unparked;
        }
        self.shared.note_park(self.id, None);
        let (t, reason) = self.yield_and_drive();
        self.now = t;
        reason
    }

    /// Block until unparked, but at most for `d` of virtual time.
    ///
    /// When the deadline precedes every queued event and no signal is
    /// latched, nothing can unpark this node before the timeout, so the
    /// park degenerates to a timed advance and takes the same zero-handoff
    /// fast path as [`NodeCtx::advance`]: one uncontended lock acquire, no
    /// baton exchange, and the elided timeout `Wake` event is counted so
    /// schedules stay byte-identical with the slow path.
    pub fn park_timeout(&mut self, d: Dur) -> WakeReason {
        if self.shared.take_signal(self.id) {
            return WakeReason::Unparked;
        }
        let until = self.now + d;
        // No other node runs while we hold the baton, so no signal can
        // appear between the check above and the fast-path attempt.
        if self.shared.try_fast_advance(self.id, until) {
            self.now = until;
            return WakeReason::Timeout;
        }
        self.shared.note_park(self.id, Some(until));
        let (t, reason) = self.yield_and_drive();
        self.now = t;
        reason
    }

    /// Unpark node `target`: if it is parked it becomes runnable *now*;
    /// otherwise the signal is latched for its next park.
    pub fn unpark(&mut self, target: NodeId) {
        self.shared.unpark(target, self.now);
    }

    /// Access the shared world state (the simulated hardware). No virtual
    /// time is charged; pair with [`NodeCtx::advance`] to model cost.
    pub fn world<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        self.shared.with_world(f)
    }

    /// Schedule `f` to run as an engine event `after` from now.
    pub fn schedule(
        &self,
        after: Dur,
        f: impl FnOnce(&mut crate::engine::EventCtx<'_, W>) + Send + 'static,
    ) {
        self.shared.schedule(self.now + after, EvKind::call(f));
    }

    /// Schedule an allocation-free event `after` from now (see
    /// [`EventCtx::schedule_hot`](crate::engine::EventCtx::schedule_hot)).
    pub fn schedule_hot(&self, after: Dur, f: crate::engine::HotFn<W>, a: u64, b: u64) {
        self.shared
            .schedule(self.now + after, EvKind::Hot { f, a, b });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `wait_for_run` on a fresh thread bound to `baton`, mapping a
    /// teardown unwind to `Err(true)` and any other panic to `Err(false)`.
    fn spawn_waiter(
        baton: &Arc<Baton>,
        go: mpsc::Receiver<()>,
    ) -> std::thread::JoinHandle<Result<(Time, WakeReason), bool>> {
        let b = baton.clone();
        let handle = std::thread::spawn(move || {
            go.recv().unwrap();
            catch_unwind(AssertUnwindSafe(|| b.wait_for_run())).map_err(|p| p.is::<ShutdownToken>())
        });
        baton.bind(handle.thread().clone());
        handle
    }

    #[test]
    fn grant_before_first_wait_returns_at_once() {
        let baton = Baton::new();
        let (go, rx) = mpsc::channel();
        let waiter = spawn_waiter(&baton, rx);
        // The node thread has not reached its wait yet, so the wait must
        // find `Run` before it ever parks.
        baton.grant(Time(42), WakeReason::Unparked);
        go.send(()).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok((Time(42), WakeReason::Unparked)));
    }

    #[test]
    fn exit_unwinds_a_parked_node() {
        let baton = Baton::new();
        let (go, rx) = mpsc::channel();
        let waiter = spawn_waiter(&baton, rx);
        go.send(()).unwrap();
        // Let the node park; the outcome is the same if it has not yet.
        std::thread::sleep(Duration::from_millis(20));
        baton.exit();
        assert_eq!(waiter.join().unwrap(), Err(true));
    }

    #[test]
    fn release_after_exit_keeps_exit() {
        let baton = Baton::new();
        baton.bind(std::thread::current());
        baton.grant(Time(7), WakeReason::Timeout);
        assert_eq!(baton.wait_for_run(), (Time(7), WakeReason::Timeout));
        baton.exit();
        baton.release();
        // A grant racing the teardown keeps `Exit` too.
        baton.grant(Time(8), WakeReason::Timeout);
        let out = catch_unwind(AssertUnwindSafe(|| baton.wait_for_run()));
        assert!(out.unwrap_err().is::<ShutdownToken>());
    }
}
