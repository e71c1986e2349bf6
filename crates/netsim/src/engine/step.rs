//! Compute, the first phase of a cycle: inject, step the worklist and
//! apply or stage the departures.

use super::{xy_at, RunCtx, SimKernel, Tile, Window};
use crate::router::{occupancy, PortLane, RouteTarget};
use crate::shard::BoundaryMsg;
use crate::sync::SlotReport;
use crate::topology::Direction;
use crate::traffic::{Flit, NO_QUEUE};
use crate::worklist::Cursor;

/// The engine steps every lane of its active routers on each cycle
/// that is a multiple of this, so a lane left behind by lane-granular
/// stepping never lags its router by more than 2³¹ cycles — well inside
/// the 32-bit watermarks ([`PortLane::settled`]).
const WATERMARK_REFRESH: u64 = 1 << 31;

/// One flit crossing a link (or ejecting) this cycle, recorded during
/// router stepping and applied afterwards so a flit moves one hop per
/// cycle. Carries the input lane it was popped from so the engine can
/// return the freed slot's credit to the upstream router.
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    from: u32,
    input: Direction,
    input_vc: u8,
    output: Direction,
    flit: Flit,
}

const _: () = assert!(std::mem::size_of::<Transfer>() == 32);

impl Tile {
    /// Phase 1 of a cycle: inject, step this tile's routers against
    /// the cycle-start credit snapshot, apply tile-local transfers and
    /// stage boundary effects, then publish this shard's
    /// [`SlotReport`] and hand the staged batches to the mailboxes.
    pub(super) fn phase_compute(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        parity: usize,
        win: &mut Window<'_>,
    ) {
        let drained = match ctx.cfg.kernel {
            SimKernel::Engine => self.inject_events(ctx, cycle, win),
            SimKernel::Reference => {
                let drained = self.inject_scan(ctx, cycle, win);
                // The dense oracle: rebuild the credit snapshot from
                // the live buffers and step *every* router — expressed
                // as a full worklist so both kernels share one stepping
                // path.
                self.rebuild_credits(ctx);
                self.active.fill(self.len);
                drained
            }
        };
        self.route_active(ctx, cycle, win);
        let transfers = self.transfers.len() as u64;
        let staged = self.apply_transfers(ctx, cycle, win);
        // Flits staged for a peer have left this tile's buffers but not
        // yet reached the receiver's: they still pin the next cycle, or
        // a boundary crossing could open a leap over a live flit. The
        // reference never schedules, so it always wakes next cycle.
        let pending = self.buffered_flits + self.queued_flits + staged;
        let wake_at = match &self.events {
            Some(ev) if pending == 0 => ev
                .wheel
                .next_event(cycle + 1)
                .unwrap_or(u64::MAX)
                .min(ev.horizon + 1),
            _ => cycle + 1,
        };
        let progress = transfers + drained > 0;
        ctx.slots[self.shard].publish(
            parity,
            SlotReport {
                stalled: (!progress).then_some(self.buffered_flits),
                wake_at,
            },
        );
        if ctx.tile_map.shards() > 1 {
            let me = self.shard;
            for (k, &(_, bx)) in ctx.mail.outboxes(me).iter().enumerate() {
                ctx.mail.send(bx, parity, &mut self.outgoing[k]);
            }
        }
    }

    /// The reference's credit snapshot: rebuilt from the live buffers
    /// (the reference always runs as a single tile, so every downstream
    /// router is local).
    fn rebuild_credits(&mut self, ctx: &RunCtx<'_>) {
        let depth = ctx.cfg.buffer_depth;
        let v = ctx.cfg.vcs;
        let lanes = ctx.geom.lanes();
        for lr in 0..self.len {
            let rid = self.base + lr;
            for d in &Direction::ALL[..4] {
                for vc in 0..v {
                    self.credits[lr * lanes + d.index() * v + vc] = match ctx.neighbor(rid, *d) {
                        Some(next) => {
                            debug_assert!(self.contains(next), "reference runs one tile");
                            let block = &self.lanes[(next - self.base) * lanes..];
                            (depth - occupancy(block, v, d.opposite(), vc)) as u16
                        }
                        None => 0,
                    };
                }
            }
        }
    }

    /// Steps this tile's worklist — in router-index order straight off
    /// its bits, with lazy credit reads and dimension-order routing
    /// on cached coordinates ([`crate::router::Router::step`]). The credit state is
    /// the cycle-start snapshot (maintained incrementally, or just
    /// rebuilt by the reference), so results are visit-order
    /// independent.
    ///
    /// The engine steps only each router's live lanes; the reference
    /// steps every lane, and so does the engine once every
    /// [`WATERMARK_REFRESH`] cycles, which keeps every lane of a
    /// long-active router less than 2³² cycles behind its anchor (the
    /// lane watermarks hold 32 bits).
    fn route_active(&mut self, ctx: &RunCtx<'_>, cycle: u64, win: &mut Window<'_>) {
        let visit_reversed = ctx.visit_reversed;
        let mesh = ctx.mesh;
        let geom = ctx.geom;
        let xy = ctx.xy;
        let v = ctx.cfg.vcs;
        let lanes = ctx.geom.lanes();
        let fl = ctx.fsm_lanes;
        let base_rid = self.base;
        let retire = ctx.cfg.kernel == SimKernel::Engine;
        let all_live =
            ctx.cfg.kernel == SimKernel::Reference || cycle.is_multiple_of(WATERMARK_REFRESH);
        let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
        // Split borrows once: the per-router loop needs disjoint
        // mutable access to routers / SoA lanes / transfers while the
        // readiness closure reads the credit counters.
        let Tile {
            routers,
            lanes: lane_slab,
            source_queue,
            credits,
            idle_run,
            fsm,
            settled,
            last_stepped,
            active,
            transfers,
            routers_stepped,
            rings,
            ..
        } = self;
        let at = |rid: usize| xy_at(xy, rid);
        transfers.clear();

        let mut visit = Cursor::new(visit_reversed);
        while let Some(lr) = visit.next(active) {
            let rid = base_rid + lr;

            let route = |flit: &Flit| {
                // Faulted epochs route on the fault map's BFS
                // tables, which never target a dead channel — so
                // the readiness check below stays untouched and
                // credit conservation needs no fault cases. Every
                // buffered flit has a route: unroutable packets
                // are reaped at the epoch boundary, and BFS next
                // hops strictly descend the distance-to-dst, so a
                // route exists at every hop within a component.
                let out = match fmap {
                    Some(fm) => fm
                        .route(rid, flit.dst as usize)
                        .expect("unroutable packets are reaped at fault boundaries"),
                    None => mesh.route_xy_at(at(rid), at(flit.dst as usize)),
                };
                RouteTarget {
                    out,
                    vc: mesh.hop_vc_at(at(rid), at(flit.src()), flit.packet_id, out, v),
                }
            };
            // Lazy credit reads: only evaluated for lanes a flit
            // actually wants (ejection always sinks; edge lanes
            // hold zero credits, so no-link and no-room collapse
            // into one check).
            let lane_base = lr * lanes;
            let ready = |d: Direction, vc: usize| match d {
                Direction::Local => true,
                d => credits[lane_base + d.index() * v + vc] > 0,
            };
            let lane = PortLane {
                lanes: &mut lane_slab[lane_base..lane_base + lanes],
                idle_run: &mut idle_run[lane_base..lane_base + lanes],
                fsm: &mut fsm[lr * fl..(lr + 1) * fl],
                counters: &mut win.gating[lr],
                settled: &mut settled[lane_base..lane_base + lanes],
                rings: &mut *rings,
            };
            let mut departed = 0u64;
            let mut link_departed = 0u64;
            let mut histograms = win.stats.as_mut().map(|s| &mut s.idle_histograms);
            let arbitrations =
                routers[lr].step(&geom, cycle, all_live, route, ready, lane, |dep| {
                    departed += 1;
                    if dep.output != Direction::Local {
                        link_departed += 1;
                    }
                    // The only idle runs a step ends are those of the
                    // lanes it sends on.
                    if let Some(h) = histograms.as_mut() {
                        if dep.idle_run > 0 {
                            let l = dep.output.index() * v + dep.flit.vc as usize;
                            h.lane_mut(lr, l).record(dep.idle_run);
                        }
                    }
                    transfers.push(Transfer {
                        from: rid as u32,
                        input: dep.input,
                        input_vc: dep.input_vc,
                        output: dep.output,
                        flit: dep.flit,
                    });
                });
            *routers_stepped += 1;

            if win.stats.is_some() {
                let a = &mut win.activity[lr];
                a.cycles += 1;
                a.arbitrations += arbitrations;
                a.crossbar_traversals += departed;
                a.buffer_reads += departed;
                a.link_traversals += link_departed;
            }

            // Retire the router if it just went quiescent (nothing
            // this cycle's remaining steps can change that — only
            // later arrivals can, and they re-activate it). Lanes
            // left behind keep their watermarks and settle on
            // reactivation or at close-out, whatever state their
            // FSMs are in. (The reference refills its worklist
            // every cycle, so retiring is moot there.)
            if retire && routers[lr].is_quiet() && source_queue[lr] == NO_QUEUE {
                active.remove(lr);
                last_stepped[lr] = cycle;
            }
        }
    }

    /// Applies the collected transfers (ejections and link crossings):
    /// moves the credits, activates local receivers, and stages every
    /// cross-tile effect for the exchange phase. Returns the flits
    /// staged for peer tiles.
    fn apply_transfers(&mut self, ctx: &RunCtx<'_>, cycle: u64, win: &mut Window<'_>) -> u64 {
        let maintain = ctx.cfg.kernel == SimKernel::Engine;
        let mut staged = 0u64;
        let v = ctx.cfg.vcs;
        let lanes = ctx.geom.lanes();
        for ti in 0..self.transfers.len() {
            let t = self.transfers[ti];
            let from = t.from as usize;
            // The pop freed a slot in `from`'s input VC: return the
            // credit to the upstream router that fills it (injection
            // from the local source checks the buffer directly, so the
            // Local input has no credit counter).
            if maintain && t.input != Direction::Local {
                let up = ctx
                    .neighbor(from, t.input)
                    .expect("buffered flits arrived over an existing link");
                let lane = up * lanes + t.input.opposite().index() * v + t.input_vc as usize;
                if self.contains(up) {
                    self.credits[lane - self.base * lanes] += 1;
                } else {
                    self.stage(ctx, up, BoundaryMsg::Credit { lane: lane as u64 });
                }
            }
            match t.output {
                Direction::Local => {
                    self.buffered_flits -= 1;
                    self.flits_delivered += 1;
                    self.check_ejection(ctx, from, &t.flit);
                    if let Some(s) = &mut win.stats {
                        s.flits_delivered += 1;
                        if t.flit.is_tail {
                            s.packets_delivered += 1;
                            let latency = cycle - t.flit.injected_at;
                            s.latency_sum += latency;
                            s.latency_max = s.latency_max.max(latency);
                            // Degradation view: deliveries after the
                            // first fault fires, so post-fault latency
                            // and throughput are separable from the
                            // healthy prefix.
                            if ctx.faults.is_some_and(|f| cycle >= f.first_fault_cycle) {
                                s.packets_delivered_post_fault += 1;
                                s.latency_sum_post_fault += latency;
                            }
                        }
                    }
                }
                d => {
                    let next = ctx
                        .neighbor(from, d)
                        .expect("departures only target existing neighbours");
                    if maintain {
                        // Consume the credit for the slot just filled.
                        self.credits
                            [(from - self.base) * lanes + d.index() * v + t.flit.vc as usize] -= 1;
                    }
                    if self.contains(next) {
                        self.accept(ctx, next - self.base, d.opposite(), t.flit);
                        if maintain {
                            // The receiver was already accounted idle
                            // for this whole cycle; it steps from the
                            // next one.
                            self.activate(ctx, next - self.base, cycle, win);
                        }
                        if win.stats.is_some() {
                            win.activity[next - self.base].buffer_writes += 1;
                        }
                    } else {
                        // The flit leaves this tile; its arrival (and
                        // the receiver's bookkeeping) is the owning
                        // shard's exchange-phase work.
                        self.buffered_flits -= 1;
                        staged += 1;
                        self.stage(
                            ctx,
                            next,
                            BoundaryMsg::Arrival {
                                rid: next as u32,
                                port: d.opposite().index() as u8,
                                flit: t.flit,
                            },
                        );
                    }
                }
            }
        }
        staged
    }

    /// Pushes a flit arriving on input port `port` into local router
    /// `lr`'s buffers.
    pub(super) fn accept(&mut self, ctx: &RunCtx<'_>, lr: usize, port: Direction, flit: Flit) {
        let block = &mut self.lanes[lr * ctx.geom.lanes()..(lr + 1) * ctx.geom.lanes()];
        self.routers[lr].accept(&ctx.geom, block, &mut self.rings, port, flit);
    }

    /// Stages a boundary message for the shard owning `target_rid`.
    pub(super) fn stage(&mut self, ctx: &RunCtx<'_>, target_rid: usize, msg: BoundaryMsg) {
        let me = self.shard;
        let dst = ctx.tile_map.shard_of(target_rid);
        let k = ctx
            .mail
            .outboxes(me)
            .iter()
            .position(|&(d, _)| d == dst)
            .expect("cross-tile effects only reach halo-adjacent shards");
        self.outgoing[k].push(msg);
    }
}
