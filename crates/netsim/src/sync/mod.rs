//! Synchronization facade for the sharded engine.
//!
//! Every atomic the simulator owns lives behind this module — that is
//! a workspace lint rule (`atomic-outside-facade`, see
//! `crates/xtask`), not a convention. Centralizing the primitives buys
//! two things:
//!
//! 1. **Auditability.** Each atomic access below carries a comment
//!    naming the invariant its memory ordering protects, and every
//!    `Ordering::Relaxed` carries a lint waiver with a written
//!    justification.
//! 2. **Model checking.** Under `--features model` the re-exports at
//!    the bottom of this file swap [`real`] for [`shadow`]: the same
//!    `SpinBarrier` / `ShardSlots` / `Mailboxes` source compiles
//!    against instrumented shadow atomics whose every access yields to
//!    a deterministic DFS schedule explorer ([`model`]). The explorer
//!    permutes thread interleavings *and* the values weak loads may
//!    observe, so the orderings chosen here are not folklore: the
//!    model-checker tests (`tests/model_checker.rs`) prove the
//!    weakest orderings used below sufficient on this single-core
//!    host, and prove the checker has teeth by detecting seeded
//!    mutations (a relaxed publish edge, a skipped generation bump, a
//!    frozen mailbox parity).
//!
//! The primitives themselves are documented where they are used: the
//! compute→exchange cycle protocol in [`crate::shard`] and the
//! determinism argument in [`crate::sim`].

pub mod real;

#[cfg(feature = "model")]
pub mod model;
#[cfg(feature = "model")]
pub mod shadow;

#[cfg(not(feature = "model"))]
pub use real::{spin_until, AtomicBool, AtomicU64, Mutex};
#[cfg(feature = "model")]
pub use shadow::{spin_until, AtomicBool, AtomicU64, Mutex};

pub use std::sync::atomic::Ordering;

/// All boundary mailboxes of a tiled run: one double-buffered box per
/// directed tile adjacency, generic over the staged message type.
///
/// Mailboxes are **double-buffered by cycle parity**, which is what
/// makes a *single* barrier per cycle sufficient: while shard `B` is
/// still draining parity-0 boxes for cycle `c`, shard `A` may already
/// be filling parity-1 boxes for cycle `c + 1` — the barrier between
/// compute and exchange guarantees `B`'s previous drain of the
/// parity-1 box (in cycle `c − 1`) happened before `A`'s refill.
///
/// Each box is `Mutex`-wrapped, but the lock is taken once per shard
/// per cycle to *swap* a whole staged batch in (or out), never per
/// message — and batches are exchanged by `mem::swap`, so the Vec
/// capacities warm up once and the steady-state loop performs no
/// allocation.
#[derive(Debug)]
pub struct Mailboxes<T> {
    /// `boxes[i][parity]` — the two parity buffers of directed edge `i`.
    boxes: Vec<[Mutex<Vec<T>>; 2]>,
    /// Per receiving shard: `(sender shard, box index)`, ascending by
    /// sender — the documented deterministic drain order.
    inboxes: Vec<Vec<(usize, usize)>>,
    /// Per sending shard: `(destination shard, box index)`, ascending
    /// by destination.
    outboxes: Vec<Vec<(usize, usize)>>,
}

impl<T> Mailboxes<T> {
    /// Builds the mailbox set for `shards` shards from explicit
    /// directed edges `(sender, receiver, capacity)`, pre-sizing each
    /// box to its fixed per-cycle message budget. Edges must be given
    /// in ascending `(sender, receiver)` order (the deterministic
    /// drain order is derived from it).
    pub fn from_edges(shards: usize, edges: &[(usize, usize, usize)]) -> Mailboxes<T> {
        let mut boxes = Vec::new();
        let mut inboxes = vec![Vec::new(); shards];
        let mut outboxes = vec![Vec::new(); shards];
        for &(sender, dst, cap) in edges {
            let idx = boxes.len();
            boxes.push([
                Mutex::new(Vec::with_capacity(cap)),
                Mutex::new(Vec::with_capacity(cap)),
            ]);
            outboxes[sender].push((dst, idx));
            inboxes[dst].push((sender, idx));
        }
        for inbox in &mut inboxes {
            inbox.sort_unstable();
        }
        Mailboxes {
            boxes,
            inboxes,
            outboxes,
        }
    }

    /// The outboxes of shard `s`: `(destination, box index)` pairs.
    pub fn outboxes(&self, s: usize) -> &[(usize, usize)] {
        &self.outboxes[s]
    }

    /// The inboxes of shard `s`: `(sender, box index)` pairs, ascending
    /// by sender — drain in this order.
    pub fn inboxes(&self, s: usize) -> &[(usize, usize)] {
        &self.inboxes[s]
    }

    /// Sender side: swaps the staged batch into the parity box (which
    /// must be empty — its receiver drained it two cycles ago) and
    /// hands the drained-empty Vec back as the next staging buffer.
    ///
    /// The emptiness invariant is exactly the property the model
    /// checker's torn-read test pins: it holds *because* of the
    /// barrier + parity protocol, not because of this mutex.
    pub fn send(&self, box_idx: usize, parity: usize, staged: &mut Vec<T>) {
        let mut slot = self.boxes[box_idx][parity]
            .lock()
            .expect("mailbox poisoned");
        debug_assert!(slot.is_empty(), "mailbox parity buffer not yet drained");
        std::mem::swap(&mut *slot, staged);
    }

    /// Receiver side: swaps the parity box's contents out into `into`
    /// (which must be empty), leaving the box empty for its sender.
    pub fn receive(&self, box_idx: usize, parity: usize, into: &mut Vec<T>) {
        debug_assert!(into.is_empty());
        let mut slot = self.boxes[box_idx][parity]
            .lock()
            .expect("mailbox poisoned");
        std::mem::swap(&mut *slot, into);
    }
}

/// One shard's compute-phase outcome, published through
/// [`ShardSlots`] and read by every shard after the barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotReport {
    /// `Some(buffered)` when the shard made no progress this cycle (no
    /// transfer, no source-queue drain), with the flits buffered in its
    /// routers; `None` when it made progress. The watchdog fires only
    /// when every shard is stalled with flits buffered somewhere.
    pub stalled: Option<u64>,
    /// The earliest cycle at which this shard may next have work: the
    /// next cycle while it still holds any flit — buffered, waiting in
    /// a source queue, or staged in an outgoing mailbox (already
    /// subtracted from the sender's buffers, not yet added to the
    /// receiver's) — otherwise its next scheduled arrival. The network
    /// may leap to the minimum over every shard.
    pub wake_at: u64,
}

/// Per-shard, parity-indexed report slots: written by each shard at
/// the end of its compute phase, read by every shard after the barrier
/// to take the *same* global watchdog and leap decisions. Parity
/// indexing keeps a shard's next-step store from racing a peer's
/// current-step read.
#[derive(Debug, Default)]
pub struct ShardSlots {
    /// [`SlotReport::stalled`] per parity (`u64::MAX` = `None`; no
    /// shard can buffer that many flits).
    stalled: [AtomicU64; 2],
    /// [`SlotReport::wake_at`] per parity.
    wake_at: [AtomicU64; 2],
}

impl ShardSlots {
    /// Publishes this shard's compute-phase outcome for `parity`.
    ///
    /// Ordering invariant: peers only read these slots *after* the
    /// phase barrier, and the barrier crossing is a release/acquire
    /// edge from every publisher to every reader (see
    /// [`SpinBarrier::wait`]). The stores therefore need no ordering
    /// of their own; the model checker's `slots_publish_*` tests fail
    /// the moment the barrier edge is weakened, proving it is the
    /// barrier — not these stores — carrying the synchronization.
    pub fn publish(&self, parity: usize, report: SlotReport) {
        let stalled = report.stalled.unwrap_or(u64::MAX);
        // lint:allow(relaxed-needs-waiver) -- ordered by the phase
        // barrier's release/acquire edge; model-checked in
        // slots_publish_visible_after_barrier.
        self.stalled[parity].store(stalled, Ordering::Relaxed);
        // lint:allow(relaxed-needs-waiver) -- same barrier edge as the
        // stalled store above.
        self.wake_at[parity].store(report.wake_at, Ordering::Relaxed);
    }

    /// Reads a shard's published report for `parity`.
    pub fn read(&self, parity: usize) -> SlotReport {
        // lint:allow(relaxed-needs-waiver) -- reader side of the
        // barrier-ordered publish; see ShardSlots::publish.
        let stalled = self.stalled[parity].load(Ordering::Relaxed);
        SlotReport {
            stalled: (stalled != u64::MAX).then_some(stalled),
            // lint:allow(relaxed-needs-waiver) -- reader side of the
            // barrier-ordered publish; see ShardSlots::publish.
            wake_at: self.wake_at[parity].load(Ordering::Relaxed),
        }
    }
}

/// Which seeded bug a [`SpinBarrier`] carries — model-checker builds
/// only. The mutation tests prove the checker detects each one; the
/// real kernel can never construct a mutated barrier.
#[cfg(feature = "model")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMutation {
    /// The correct barrier.
    #[default]
    None,
    /// The last arriver publishes the generation flip with `Relaxed`
    /// instead of `Release` — the removed release edge lets waiters
    /// cross the barrier without acquiring the publishers' stores.
    RelaxedGenerationStore,
    /// Waiters poll the generation with `Relaxed` instead of
    /// `Acquire` — the removed acquire edge on the reader side.
    RelaxedSpinLoad,
    /// Arrivals count themselves in with `Relaxed` instead of
    /// `AcqRel` — the release-sequence chain through the counter is
    /// cut, so the last arriver crosses without its peers' stores.
    RelaxedArrival,
    /// The last arriver resets the count but never bumps the
    /// generation — the lost flip leaves every waiter spinning.
    SkipGenerationBump,
}

/// A sense-reversing spin barrier for the per-cycle phase handoff.
///
/// `std::sync::Barrier` parks threads through a mutex/condvar pair —
/// microseconds per crossing, paid once per cycle. This barrier spins
/// briefly and then yields, which keeps the crossing in the
/// sub-microsecond range when every worker has its own core and
/// degrades gracefully (to yields) when workers share cores.
///
/// A worker that panics poisons the barrier from its unwind guard, so
/// peers spin-waiting on it panic too instead of hanging the run.
///
/// # Ordering audit
///
/// The barrier is the only release/acquire edge the sharded engine
/// has; everything else (`ShardSlots`, the mailbox parity discipline)
/// is ordered *through* a crossing. A crossing works like this:
///
/// ```text
/// arrival:   count.fetch_add(1, AcqRel)      // join release sequence
/// last:      count.store(0, Relaxed)         // ordered by the …
///            generation.store(g+1, Release)  // … publish below
/// waiters:   generation.load(Acquire) != g   // acquire the publish
/// ```
///
/// Each ordering is the weakest the model checker proves sufficient —
/// every `SeqCst` the original implementation used has been downgraded
/// (the equivalence suites pin that the stats stayed bit-identical,
/// and `barrier_publishes_every_shards_stores` explores every
/// schedule). Per-op justifications sit on the accesses below.
#[derive(Debug)]
pub struct SpinBarrier {
    n: u64,
    count: AtomicU64,
    generation: AtomicU64,
    poisoned: AtomicBool,
    #[cfg(feature = "model")]
    mutation: BarrierMutation,
}

impl SpinBarrier {
    /// A barrier for `n` participating workers.
    pub fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n: n as u64,
            count: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            #[cfg(feature = "model")]
            mutation: BarrierMutation::None,
        }
    }

    /// A barrier carrying a seeded bug — model-checker builds only,
    /// used to prove the checker detects each mutation.
    #[cfg(feature = "model")]
    pub fn with_mutation(n: usize, mutation: BarrierMutation) -> SpinBarrier {
        SpinBarrier {
            mutation,
            ..SpinBarrier::new(n)
        }
    }

    /// Marks the barrier poisoned (a peer is unwinding).
    pub fn poison(&self) {
        // lint:allow(relaxed-needs-waiver) -- one-way abort flag; the
        // waiters' panic needs no happens-before edge, only eventual
        // visibility, which the spin loop's re-read provides
        // (model-checked in poison_unblocks_every_waiter).
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Blocks until all `n` workers have arrived.
    ///
    /// # Panics
    ///
    /// Panics if a peer poisons the barrier while this worker waits.
    pub fn wait(&self) {
        if self.n == 1 {
            return;
        }
        // Invariant: a thread's previous crossing of generation `g`
        // already ordered the `g`-th flip into its past, and the
        // `g + 1`-th flip cannot happen before this thread arrives —
        // so a relaxed load reads exactly the current generation.
        // lint:allow(relaxed-needs-waiver) -- coherence alone pins the
        // value; model-checked (no schedule reads a stale generation
        // here).
        let gen = self.generation.load(Ordering::Relaxed);
        // AcqRel: the release half chains this worker's pre-barrier
        // stores into the counter's release sequence; the acquire half
        // makes the last arriver inherit every earlier arriver's
        // stores through that chain (mutating this to Relaxed is
        // detected by barrier_mutation_relaxed_arrival).
        let arrival_order = Ordering::AcqRel;
        #[cfg(feature = "model")]
        let arrival_order = if self.mutation == BarrierMutation::RelaxedArrival {
            // lint:allow(relaxed-needs-waiver) -- seeded bug under
            // test (cuts the release-sequence chain); never compiled
            // into the real kernel.
            Ordering::Relaxed
        } else {
            arrival_order
        };
        if self.count.fetch_add(1, arrival_order) + 1 == self.n {
            // Last arriver: reset the count *before* releasing the
            // generation, so early re-arrivers of the next phase start
            // from zero. The reset itself can be relaxed: it is
            // sequenced before the Release publish below, and waiters
            // only touch the count again after acquiring that publish.
            // lint:allow(relaxed-needs-waiver) -- ordered by the
            // generation Release store below; model-checked in
            // barrier_two_rounds_no_lost_flip.
            self.count.store(0, Ordering::Relaxed);
            #[cfg(feature = "model")]
            match self.mutation {
                BarrierMutation::SkipGenerationBump => return,
                BarrierMutation::RelaxedGenerationStore => {
                    // lint:allow(relaxed-needs-waiver) -- seeded bug
                    // under test, never compiled into the real kernel.
                    self.generation.store(gen + 1, Ordering::Relaxed);
                    return;
                }
                _ => {}
            }
            // Release: publishes the whole round — every arriver's
            // pre-barrier stores (inherited through the AcqRel chain)
            // plus the count reset above. Only the last arriver ever
            // stores the generation, so a plain store (not an RMW)
            // suffices.
            self.generation.store(gen + 1, Ordering::Release);
        } else {
            #[cfg(feature = "model")]
            let spin_order = if self.mutation == BarrierMutation::RelaxedSpinLoad {
                // lint:allow(relaxed-needs-waiver) -- seeded bug under
                // test (drops the waiters' acquire edge); never
                // compiled into the real kernel.
                Ordering::Relaxed
            } else {
                Ordering::Acquire
            };
            #[cfg(not(feature = "model"))]
            let spin_order = Ordering::Acquire;
            spin_until(|| {
                // lint:allow(relaxed-needs-waiver) -- abort flag, see
                // SpinBarrier::poison.
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("a peer shard worker panicked; aborting this worker");
                }
                // Acquire: pairs with the last arriver's Release
                // publish — crossing the barrier is what makes every
                // peer's compute-phase stores visible to this worker's
                // exchange phase.
                self.generation.load(spin_order) != gen
            });
        }
    }
}

/// Poisons the barrier if the owning worker unwinds, so peers abort
/// instead of spinning forever on a barrier that will never fill.
#[derive(Debug)]
pub struct PoisonGuard<'a>(pub &'a SpinBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_synchronizes_workers() {
        let barrier = SpinBarrier::new(4);
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=50u64 {
                        // lint:allow(relaxed-needs-waiver) -- test
                        // counter; the barrier supplies the ordering
                        // the assertion below relies on.
                        hits.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // After the barrier every worker of this round
                        // has contributed.
                        // lint:allow(relaxed-needs-waiver) -- read
                        // side of the barrier-ordered test counter.
                        assert!(hits.load(Ordering::Relaxed) >= round * 4);
                        barrier.wait();
                    }
                });
            }
        });
        // lint:allow(relaxed-needs-waiver) -- workers joined; no
        // concurrency left.
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn poisoned_barrier_panics_waiters() {
        let barrier = SpinBarrier::new(2);
        barrier.poison();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            barrier.wait();
        }));
        assert!(caught.is_err(), "waiting on a poisoned barrier must abort");
    }

    #[test]
    fn mailboxes_from_edges_orders_inboxes() {
        let mail: Mailboxes<u32> = Mailboxes::from_edges(3, &[(2, 0, 4), (0, 2, 4), (1, 0, 4)]);
        let senders: Vec<usize> = mail.inboxes(0).iter().map(|&(s, _)| s).collect();
        assert_eq!(senders, vec![1, 2]);
        let mut staged = vec![7, 9];
        let (_, bx) = mail.outboxes(2)[0];
        mail.send(bx, 1, &mut staged);
        assert!(staged.is_empty());
        let mut drained = Vec::new();
        mail.receive(bx, 1, &mut drained);
        assert_eq!(drained, vec![7, 9]);
    }
}
