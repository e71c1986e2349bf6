//! Exchange, the second phase of a cycle: apply what peers staged, then
//! take the global leap decision from every shard's report.

use super::{RunCtx, Tile, Window};
use crate::shard::BoundaryMsg;
use crate::sync::{ShardSlots, SlotReport};
use crate::topology::Direction;

impl Tile {
    /// Phase 2 of a cycle, after the barrier: drain the inboxes
    /// (senders ascending) and apply boundary arrivals and credit
    /// returns, then take the global watchdog decision from the
    /// network-wide report `net`. Returns `true` when the watchdog
    /// fired and the worker must abort (the designated shard records
    /// the diagnostic).
    pub(super) fn phase_exchange(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        parity: usize,
        net: &SlotReport,
        win: &mut Window<'_>,
    ) -> bool {
        if ctx.tile_map.shards() > 1 {
            let me = self.shard;
            for k in 0..ctx.mail.inboxes(me).len() {
                let (_, bx) = ctx.mail.inboxes(me)[k];
                let mut incoming = std::mem::take(&mut self.incoming[k]);
                ctx.mail.receive(bx, parity, &mut incoming);
                for msg in incoming.drain(..) {
                    match msg {
                        BoundaryMsg::Arrival { rid, port, flit } => {
                            let rid = rid as usize;
                            let lr = rid - self.base;
                            self.accept(ctx, lr, Direction::from_index(port as usize), flit);
                            self.buffered_flits += 1;
                            if win.stats.is_some() {
                                win.activity[lr].buffer_writes += 1;
                            }
                            // The receiver was already accounted idle
                            // for this whole cycle; it steps from the
                            // next one.
                            self.activate(ctx, lr, cycle, win);
                        }
                        BoundaryMsg::Credit { lane } => {
                            self.credits[lane as usize - self.base * ctx.geom.lanes()] += 1;
                        }
                    }
                }
                self.incoming[k] = incoming;
            }
        }
        self.watchdog(ctx, cycle, parity, net)
    }
}

/// The network-wide reduction of every shard's [`SlotReport`] for
/// `parity`: stalled only if every shard is (buffered flits summed),
/// the wake cycle minimized. Every worker computes it from the same
/// slots after the same barrier, so every decision taken from it is
/// global and deterministic.
pub(super) fn network_report(slots: &[ShardSlots], parity: usize) -> SlotReport {
    slots.iter().map(|s| s.read(parity)).fold(
        SlotReport {
            stalled: Some(0),
            wake_at: u64::MAX,
        },
        |net, r| SlotReport {
            stalled: net.stalled.zip(r.stalled).map(|(a, b)| a + b),
            wake_at: net.wake_at.min(r.wake_at),
        },
    )
}

/// The leap decision, taken after the step that produced `net` with
/// `i` the next loop index: when every shard's wake cycle lies beyond
/// the next one, no flit exists anywhere — none buffered, queued or
/// staged in a mailbox — and nothing can happen before the earliest
/// scheduled arrival or horizon boundary, so the loop jumps to that
/// cycle's index. Every skipped cycle is provably dead; its idle time
/// is settled later by the deferred bulk accounting. Never leaps past
/// the measurement boundary (iteration `warmup` must open the window);
/// the horizon already caps targets at fault epochs, the cycle budget
/// and the run's end.
pub(super) fn leap_target(ctx: &RunCtx<'_>, net: &SlotReport, i: u64) -> Option<u64> {
    // Loop index `j` executes cycle `start_cycle + j + 1`.
    let mut target = net.wake_at - ctx.start_cycle - 1;
    if i <= ctx.warmup {
        target = target.min(ctx.warmup);
    }
    (target > i).then_some(target)
}
