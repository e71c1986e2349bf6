//! The fault reap: three barrier-separated passes per fault epoch that
//! purge doomed packets and return the credits their slots owe.

use super::{EjectProgress, RunCtx, Tile, Window};
use crate::fault::FaultSchedule;
use crate::router::clear_route_cache;
#[cfg(doc)]
use crate::topology::Mesh;
use crate::topology::{Direction, FaultMap};
use crate::traffic::packet_source;

/// One shard's contribution to a fault-epoch boundary, exchanged
/// through a mutex (cold path: faults fire a handful of times per
/// run, never per cycle). Pass 1 fills `doomed` (sorted packet ids
/// nominated by this shard's scan); pass 2 reads every shard's
/// nominations and fills `credit_returns` (the global index of the
/// upstream lane of each slot freed in this tile, which may live
/// elsewhere); pass 3 applies the returns lane-owner-side.
#[derive(Debug, Default)]
pub(super) struct FaultReap {
    doomed: Vec<u64>,
    credit_returns: Vec<u64>,
}

/// The doom rule for a fault-epoch boundary: a packet with a flit at
/// router `at` bound for `dst` is doomed iff the new fault map changes
/// (or removes) any hop of its remaining path. Wormhole packets
/// cannot be rerouted mid-flight — the worm's flits are strung along
/// the old path, and bending the route at any hop would tear the worm
/// across two paths — so any divergence kills the whole packet and
/// its flits are purged network-wide.
///
/// `old = None` means healthy dimension-order routing
/// ([`Mesh::route_xy`]), which every kernel computes identically, so
/// the doomed set is kernel- and shard-count-independent.
fn path_diverges(
    ctx: &RunCtx<'_>,
    old: Option<&FaultMap>,
    new: Option<&FaultMap>,
    at: usize,
    dst: usize,
) -> bool {
    // A dead or disconnected destination dooms even flits already
    // sitting at `dst` awaiting ejection (the walk below would accept
    // them without stepping).
    if let Some(fm) = new {
        if !fm.reachable(at, dst) {
            return true;
        }
    }
    let mesh = &ctx.mesh;
    let step = |fm: Option<&FaultMap>, here: usize| -> Option<Direction> {
        match fm {
            Some(fm) => fm.route(here, dst),
            None => Some(mesh.route_xy(here, dst)),
        }
    };
    let mut here = at;
    while here != dst {
        let Some(nd) = step(new, here) else {
            return true;
        };
        match step(old, here) {
            Some(od) if od == nd => {}
            _ => return true,
        }
        here = mesh
            .neighbor(here, nd)
            .expect("routes only use existing links");
    }
    false
}

impl Tile {
    /// Fault boundary, pass 1 of 3: scan this tile's buffered flits
    /// and in-flight source-queue fronts against the epoch about to
    /// apply, and nominate doomed packets ([`path_diverges`]) into
    /// this shard's reap slot. Read-only over the network state, so
    /// every shard scans concurrently.
    pub(super) fn fault_collect(&mut self, ctx: &RunCtx<'_>, sched: &FaultSchedule) {
        let applied = self.epoch;
        let old = sched.map_after(applied);
        let new = sched.epochs[applied].map.as_ref();
        let mut slot = ctx.fault_slots[self.shard].lock().unwrap();
        let slot = &mut *slot;
        slot.doomed.clear();
        slot.credit_returns.clear();
        let lanes = ctx.geom.lanes();
        for lr in 0..self.len {
            let rid = self.base + lr;
            let doomed = &mut slot.doomed;
            self.routers[lr].for_each_flit(
                &ctx.geom,
                &self.lanes[lr * lanes..(lr + 1) * lanes],
                &self.rings,
                |f| {
                    if path_diverges(ctx, old, new, rid, f.dst as usize) {
                        doomed.push(f.packet_id);
                    }
                },
            );
            // A partially sent source packet is a worm whose tail is
            // still being synthesized: same doom rule, from the
            // source.
            if let Some(front) = self.queues.front(self.source_queue[lr]) {
                if front.sent > 0 && path_diverges(ctx, old, new, rid, front.dst as usize) {
                    doomed.push(front.packet_id);
                }
            }
        }
        slot.doomed.sort_unstable();
        slot.doomed.dedup();
    }

    /// Fault boundary, pass 2 of 3: purge the union of every shard's
    /// nominations from this tile — router buffers, output-lane
    /// ownership, source-queue fronts and ejection progress — plus
    /// fully unsent queued packets whose destination the new map
    /// disconnects. Every freed buffer slot publishes a credit return
    /// for its upstream lane (applied lane-owner-side in pass 3), so
    /// credit conservation holds exactly across the boundary.
    pub(super) fn fault_purge(
        &mut self,
        ctx: &RunCtx<'_>,
        sched: &FaultSchedule,
        win: &mut Window<'_>,
    ) {
        let new = sched.epochs[self.epoch].map.as_ref();
        // The merged doomed set: each slot is sorted, and the sorted
        // dedup of the union is independent of shard geometry.
        let mut doomed: Vec<u64> = Vec::new();
        for slot in ctx.fault_slots {
            doomed.extend_from_slice(&slot.lock().unwrap().doomed);
        }
        doomed.sort_unstable();
        doomed.dedup();
        let is_doomed = |pid: u64| doomed.binary_search(&pid).is_ok();
        let v = ctx.cfg.vcs;
        let lanes = ctx.geom.lanes();
        let plen = ctx.cfg.packet_len_flits;
        let mut returns: Vec<u64> = Vec::new();
        let mut dropped_flits = 0u64;
        let mut unroutable = 0u64;
        for lr in 0..self.len {
            let rid = self.base + lr;
            let rings = &mut self.rings;
            let removed = self.routers[lr].purge_packets(
                &ctx.geom,
                &mut self.lanes[lr * lanes..(lr + 1) * lanes],
                rings,
                is_doomed,
                |lane, _flit| {
                    let port = Direction::from_index(lane / v);
                    if port != Direction::Local {
                        let up = ctx
                            .neighbor(rid, port)
                            .expect("buffered flits arrived over an existing link");
                        let glane = up * lanes + port.opposite().index() * v + (lane % v);
                        returns.push(glane as u64);
                    }
                },
            );
            dropped_flits += removed as u64;
            self.buffered_flits -= removed as u64;
            let queues = &mut self.queues;
            let q = &mut self.source_queue[lr];
            if let Some(front) = queues.front(*q) {
                if front.sent > 0 && is_doomed(front.packet_id) {
                    let pkt = queues.pop_front(q).expect("front exists");
                    let rem = pkt.remaining_flits(plen);
                    dropped_flits += rem;
                    self.queued_flits -= rem;
                }
            }
            // Remaining queued packets are fully unsent; those the new
            // map strands are discarded whole. The packets count as
            // unroutable (no flit of theirs ever entered the network)
            // but their queued flits were counted at injection, so
            // they still join the dropped-flit total — conservation
            // stays exact. A partially sent survivor still at the
            // front is kept: its path did not diverge, so its
            // destination is reachable.
            if let Some(fm) = new {
                let removed_pkts =
                    queues.retain(q, |p| p.sent > 0 || fm.reachable(rid, p.dst as usize)) as u64;
                unroutable += removed_pkts;
                dropped_flits += removed_pkts * plen as u64;
                self.queued_flits -= removed_pkts * plen as u64;
            }
            // A doomed packet mid-ejection never completes; forget its
            // progress so the validator expects a fresh head next.
            if is_doomed(self.eject[lr].packet) {
                self.eject[lr] = EjectProgress::IDLE;
            }
        }
        // Packet-level accounting: each doomed packet is counted once,
        // by the shard owning its source (recoverable from the id).
        let mut dropped_pkts = 0u64;
        for &pid in &doomed {
            if self.contains(packet_source(pid)) {
                dropped_pkts += 1;
            }
        }
        self.flits_dropped += dropped_flits;
        if let Some(s) = &mut win.stats {
            s.flits_dropped_by_fault += dropped_flits;
            s.packets_dropped_by_fault += dropped_pkts;
            s.packets_unroutable += unroutable;
        }
        ctx.fault_slots[self.shard].lock().unwrap().credit_returns = returns;
    }

    /// Fault boundary, pass 3 of 3: apply every shard's published
    /// credit returns to the lanes this tile owns, then advance the
    /// epoch counter. (The reference rebuilds credits from live
    /// buffers each cycle, so the returns are redundant there —
    /// harmless, and it keeps one code path.)
    pub(super) fn fault_apply_credits(&mut self, ctx: &RunCtx<'_>) {
        let lanes = ctx.geom.lanes();
        let lo = (self.base * lanes) as u64;
        let hi = ((self.base + self.len) * lanes) as u64;
        for slot in ctx.fault_slots {
            for &lane in slot.lock().unwrap().credit_returns.iter() {
                if (lo..hi).contains(&lane) {
                    self.credits[(lane - lo) as usize] += 1;
                }
            }
        }
        // The routing function changes with the epoch: every cached
        // front-flit route is recomputed against the new map.
        clear_route_cache(&mut self.lanes);
        self.epoch += 1;
    }
}
