//! The zero-progress watchdog and its per-lane diagnostic.

use super::{RunCtx, SimAbort, Tile};
use crate::router::occupancy;
use crate::sync::SlotReport;
use crate::topology::Direction;

impl Tile {
    /// The watchdog's decision after a cycle's exchange, from the
    /// network-wide report `net`. Returns `true` when it fired and the
    /// worker must abort (the designated shard records the diagnostic).
    ///
    /// Every transfer both moves a flit and returns a credit, so "no
    /// transfers anywhere and nothing drained from any source queue"
    /// is exactly the no-progress condition. All shards read the same
    /// slots, so the decision is global and deterministic.
    pub(super) fn watchdog(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        parity: usize,
        net: &SlotReport,
    ) -> bool {
        if ctx.cfg.watchdog_cycles == 0 {
            return false;
        }
        let buffered = match net.stalled {
            Some(buffered) if buffered > 0 => buffered,
            _ => {
                self.stagnant_cycles = 0;
                return false;
            }
        };
        self.stagnant_cycles += 1;
        if self.stagnant_cycles < ctx.cfg.watchdog_cycles {
            return false;
        }
        // Fired. The lowest shard holding blocked flits carries the
        // diagnostic; every other worker backs out quietly.
        let who = ctx
            .slots
            .iter()
            .position(|s| s.read(parity).stalled > Some(0))
            .expect("buffered > 0 in some shard");
        if who == self.shard {
            let diagnostic = self.watchdog_report(ctx, cycle, buffered);
            let mut slot = ctx.abort.lock().expect("abort slot poisoned");
            *slot = Some(SimAbort::Deadlock {
                cycle,
                buffered,
                diagnostic,
            });
        }
        true
    }

    /// The watchdog fired: build the per-lane diagnostic of every
    /// blocked flit in this tile so a deadlock regression names the
    /// cycle's participants instead of hanging CI. On a faulted
    /// network the diagnostic also classifies each stuck flit by
    /// whether the active fault map still offers it a route — "true
    /// routing deadlock" and "stranded by a fault the reap should
    /// have caught" are different bugs — and prints the fault-map
    /// summary. The caller wraps the text in [`SimAbort::Deadlock`].
    fn watchdog_report(&self, ctx: &RunCtx<'_>, cycle: u64, buffered: u64) -> String {
        let v = ctx.cfg.vcs;
        let lanes = ctx.geom.lanes();
        let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
        let mut report = String::new();
        let mut shown = 0usize;
        let mut blocked = 0usize;
        for (lr, block) in self.lanes.chunks(lanes).enumerate() {
            let rid = self.base + lr;
            for d in Direction::ALL {
                for vc in 0..v {
                    let occ = occupancy(block, v, d, vc);
                    if occ == 0 {
                        continue;
                    }
                    blocked += 1;
                    if shown < 8 {
                        let credit = self.credits[lr * lanes + d.index() * v + vc];
                        report.push_str(&format!(
                            "\n  router {rid} input {d} vc {vc}: {occ} flit(s) waiting \
                             (upstream-side credit counter: {credit})"
                        ));
                        shown += 1;
                    }
                }
            }
        }
        let fault_note = match fmap {
            Some(fm) => {
                let mut routable = 0u64;
                let mut stranded = 0u64;
                for (lr, r) in self.routers.iter().enumerate() {
                    let rid = self.base + lr;
                    let block = &self.lanes[lr * lanes..(lr + 1) * lanes];
                    r.for_each_flit(&ctx.geom, block, &self.rings, |f| {
                        if fm.reachable(rid, f.dst as usize) {
                            routable += 1;
                        } else {
                            stranded += 1;
                        }
                    });
                }
                format!(
                    "\n  active fault map (epoch {}): {}\n  of this tile's buffered flits, \
                     {routable} still hold a live route (true deadlock suspects) and \
                     {stranded} are fault-disconnected (reap bug suspects)",
                    self.epoch,
                    fm.summary()
                )
            }
            None if ctx.faults.is_some() => "\n  fault schedule armed; no faults active".into(),
            None => String::new(),
        };
        let tile_note = if ctx.tile_map.shards() > 1 {
            format!(
                " [diagnosing tile {} of {}; other tiles may hold more]",
                self.shard,
                ctx.tile_map.shards()
            )
        } else {
            String::new()
        };
        format!(
            "watchdog: no flit moved and no credit returned for {} cycles at cycle {} \
             with {} flits buffered{tile_note} ({} occupied input VCs, first {} shown):{}{}\n\
             (torus DOR with vcs = 1 has no dateline escape — run with vcs >= 2)",
            ctx.cfg.watchdog_cycles, cycle, buffered, blocked, shown, report, fault_note
        )
    }
}
