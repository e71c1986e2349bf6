//! Injection: the reference's per-cycle scan, the engine's wheel, and
//! the offer and drain both share.

use super::{EventState, RunCtx, Tile, Window};
use crate::router::can_accept;
use crate::topology::Direction;
use crate::traffic::{packet_id, InjectionProcess, SourcePacket};
use crate::worklist::Cursor;

impl Tile {
    /// The reference's injection: scan every source once per cycle,
    /// generate new packets into the source queues and move waiting
    /// flits into local input buffers. Every RNG draw comes from the
    /// node's own stream, in the same order the engine's wheel
    /// consumes it. Returns the number of flits moved into local input
    /// buffers (progress, for the watchdog).
    pub(super) fn inject_scan(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        win: &mut Window<'_>,
    ) -> u64 {
        let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
        let mut drained = 0u64;
        for l in 0..self.len {
            let src = self.base + l;
            // A dead router's source is silent: no bursty flip, no
            // offer. Skipping it entirely (rather than drawing and
            // discarding) keeps the node's stream a pure function of
            // its own alive-history — identical in both kernels.
            if fmap.is_some_and(|fm| !fm.router_alive(src)) {
                continue;
            }
            // One-cycle window: a bursty source replays its flip and
            // offer draws, a Bernoulli source compares the cycle
            // against its pre-drawn renewal slot (catching up offers
            // missed while dead) — no per-cycle RNG work at all.
            let due = ctx
                .cfg
                .injection
                .next_arrival(
                    ctx.on_rate,
                    &mut self.source_on[l],
                    &mut self.next_offer[l],
                    ctx.gap,
                    &mut self.rngs[l],
                    cycle - 1,
                    cycle,
                )
                .is_some();
            if due {
                if let Some(dst) = ctx
                    .cfg
                    .pattern
                    .destination(src, &ctx.mesh, &mut self.rngs[l])
                {
                    self.offer(ctx, l, dst, cycle, win);
                }
                // After the destination draw: a Bernoulli source rolls
                // its renewal slot forward one gap (bursty draws
                // nothing here).
                ctx.cfg.injection.rearm_after_offer(
                    &mut self.next_offer[l],
                    ctx.gap,
                    &mut self.rngs[l],
                    cycle,
                );
            }
            drained += self.drain_source(ctx, l, win);
        }
        drained
    }

    /// Resolves one injection offer from router `l` to `dst` at
    /// `cycle`, identically in both kernels: abandoned as unroutable
    /// when no route survives the active fault map, rejected when the
    /// source queue is at its cap (either way the packet never existed,
    /// so conservation stays exact), enqueued otherwise. Returns whether
    /// a packet was enqueued.
    fn offer(
        &mut self,
        ctx: &RunCtx<'_>,
        l: usize,
        dst: usize,
        cycle: u64,
        win: &mut Window<'_>,
    ) -> bool {
        let src = self.base + l;
        let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
        if fmap.is_some_and(|fm| !fm.reachable(src, dst)) {
            if let Some(s) = &mut win.stats {
                s.packets_unroutable += 1;
            }
            return false;
        }
        if self.queues.len(self.source_queue[l]) >= ctx.cfg.source_queue_cap {
            if let Some(s) = &mut win.stats {
                s.packets_dropped_at_source += 1;
            }
            return false;
        }
        let id = packet_id(src, self.next_seq[l]);
        self.next_seq[l] += 1;
        self.queues.push_back(
            &mut self.source_queue[l],
            SourcePacket {
                packet_id: id,
                dst: dst as u32,
                injected_at: cycle,
                sent: 0,
                vc: ctx.mesh.injection_vc(id, ctx.cfg.vcs),
            },
        );
        let len = ctx.cfg.packet_len_flits as u64;
        self.flits_injected += len;
        self.queued_flits += len;
        if let Some(s) = &mut win.stats {
            s.packets_injected += 1;
        }
        true
    }

    /// Moves waiting flits from router `l`'s source queue into its
    /// local input VC buffer (queue checked first so idle nodes never
    /// touch router memory). The source is FIFO: the front packet
    /// waits for its own VC even if a sibling VC has room. Returns the
    /// flits moved (progress, for the watchdog).
    fn drain_source(&mut self, ctx: &RunCtx<'_>, l: usize, win: &mut Window<'_>) -> u64 {
        let len = ctx.cfg.packet_len_flits;
        let lanes = &mut self.lanes[l * ctx.geom.lanes()..(l + 1) * ctx.geom.lanes()];
        let queues = &mut self.queues;
        let mut drained = 0u64;
        while let Some(pkt) = queues.front_mut(self.source_queue[l]) {
            if !can_accept(&ctx.geom, lanes, Direction::Local, pkt.vc as usize) {
                break;
            }
            let flit = pkt
                .next_flit(len)
                .expect("queued descriptors have flits left");
            if pkt.remaining_flits(len) == 0 {
                queues.pop_front(&mut self.source_queue[l]);
            }
            self.routers[l].accept(&ctx.geom, lanes, &mut self.rings, Direction::Local, flit);
            self.buffered_flits += 1;
            self.queued_flits -= 1;
            drained += 1;
            if win.stats.is_some() {
                win.activity[l].buffer_writes += 1;
            }
        }
        drained
    }

    /// The engine's injection: instead of scanning every source, fire
    /// the offers the wheel says are due *now* — a bursty source's
    /// draws were consumed ahead by [`Tile::predict_router`] —
    /// then drain source queues. The schedule is first (re)armed if a
    /// fault epoch moved the horizon.
    /// Only routers on the worklist can hold queued packets (a packet
    /// enqueue activates its router, and retirement requires an empty
    /// queue), so the drain visits the worklist's members instead of
    /// the whole tile: the cost per cycle is O(due events + active
    /// routers), plus one summary word per 4 096 routers.
    pub(super) fn inject_events(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        win: &mut Window<'_>,
    ) -> u64 {
        let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
        let mut ev = self.events.take().expect("event state armed at run start");
        if ev.armed_epoch != self.epoch {
            self.rearm_events(ctx, &mut ev);
        }
        let mut due = std::mem::take(&mut ev.due);
        due.clear();
        ev.wheel.drain_due(cycle, &mut due);
        for &l32 in &due {
            let l = l32 as usize;
            let src = self.base + l;
            self.events_processed += 1;
            // Resolve the offer destination the way the cycle loop
            // would at this exact cycle. A Bernoulli arrival draws its
            // destination *now* (fire time — a dead router's arrival
            // is a miss that consumes only its catch-up gap, exactly
            // like the reference scan's lazy catch-up at revival); a
            // bursty arrival pre-drew it at prediction time, which is
            // sound because bursty predictions never cross a fault
            // epoch.
            let offer = match ctx.cfg.injection {
                InjectionProcess::Bernoulli => {
                    debug_assert_eq!(self.next_offer[l], cycle, "stale wheel entry");
                    if fmap.is_some_and(|fm| !fm.router_alive(src)) {
                        None
                    } else {
                        ctx.cfg
                            .pattern
                            .destination(src, &ctx.mesh, &mut self.rngs[l])
                    }
                }
                InjectionProcess::BurstyOnOff { .. } => {
                    debug_assert_eq!(ev.drawn_through[l], cycle, "stale pending arrival");
                    Some(ev.pending_dst[l] as usize)
                }
            };
            // Replicate the reference's offer outcome exactly —
            // including the fire-time reachability check against the
            // *current* epoch's map. An enqueued packet's router must be
            // stepped *this* cycle (skipped cycles end at cycle − 1).
            if let Some(dst) = offer {
                if self.offer(ctx, l, dst, cycle, win) {
                    self.activate(ctx, l, cycle - 1, win);
                }
            }
            // This offer consumed the stream through `cycle`; roll the
            // router forward to its next arrival.
            match ctx.cfg.injection {
                InjectionProcess::Bernoulli => {
                    ctx.cfg.injection.rearm_after_offer(
                        &mut self.next_offer[l],
                        ctx.gap,
                        &mut self.rngs[l],
                        cycle,
                    );
                    if self.next_offer[l] != u64::MAX {
                        ev.wheel.schedule(self.next_offer[l], l32);
                    }
                }
                InjectionProcess::BurstyOnOff { .. } => self.predict_router(ctx, &mut ev, l),
            }
        }
        due.clear();
        ev.due = due;
        self.events = Some(ev);
        // Drain waiting flits for every router on the worklist (the
        // only routers that can hold queued packets — see above).
        let mut drained = 0u64;
        let mut visit = Cursor::new(false);
        while let Some(l) = visit.next(&self.active) {
            drained += self.drain_source(ctx, l, win);
        }
        drained
    }

    /// Run-start (re)initialization of the tile's injection schedule:
    /// the RNG frontier starts at the run's first cycle and the
    /// `armed_epoch` sentinel forces the first
    /// [`Tile::inject_events`] to arm every router against the
    /// then-current fault epoch.
    pub(super) fn reset_events(&mut self, ctx: &RunCtx<'_>) {
        let start = ctx.start_cycle;
        let ev = self
            .events
            .as_mut()
            .expect("the engine allocates its schedules at construction");
        ev.wheel.reset(start + 1);
        ev.drawn_through.fill(start);
        ev.armed_epoch = usize::MAX;
        ev.horizon = start;
    }

    /// Re-arms arrival predictions for the current fault epoch: the
    /// horizon is the run's last cycle clamped by the cycle budget and
    /// the next epoch boundary.
    ///
    /// Only the bursty process predicts per epoch — each alive
    /// router's stream is rolled forward to its first offer in the
    /// window, while dead routers draw nothing (their streams stay
    /// frozen, exactly like the cycle loop's skip), so revival at a
    /// later epoch resumes from the same stream position in every
    /// kernel. Bernoulli renewal entries are scheduled once per run
    /// and stay parked across epochs: the arrival *times* are
    /// independent of the alive-map (a dead router's due arrival is a
    /// miss, handled at fire time), so epoch boundaries only move the
    /// horizon.
    fn rearm_events(&mut self, ctx: &RunCtx<'_>, ev: &mut EventState) {
        let run_start = ev.armed_epoch == usize::MAX;
        let mut horizon = ctx.start_cycle + ctx.warmup + ctx.measure;
        if ctx.cfg.cycle_budget != 0 {
            horizon = horizon.min(ctx.start_cycle.saturating_add(ctx.cfg.cycle_budget));
        }
        if let Some(sched) = ctx.faults {
            if let Some(e) = sched.epochs.get(self.epoch) {
                horizon = horizon.min(e.start.saturating_sub(1));
            }
        }
        ev.horizon = horizon;
        ev.armed_epoch = self.epoch;
        match ctx.cfg.injection {
            InjectionProcess::Bernoulli => {
                if run_start {
                    for l in 0..self.len {
                        let offer = self.next_offer[l];
                        if offer != u64::MAX {
                            debug_assert!(
                                offer > ctx.start_cycle,
                                "renewal slots never lapse in the engine"
                            );
                            ev.wheel.schedule(offer, l as u32);
                        }
                    }
                }
            }
            InjectionProcess::BurstyOnOff { .. } => {
                debug_assert_eq!(
                    ev.wheel.len(),
                    0,
                    "pending bursty arrivals must fire before their epoch ends"
                );
                let fmap = ctx.faults.and_then(|s| s.map_after(self.epoch));
                for l in 0..self.len {
                    if fmap.is_some_and(|fm| !fm.router_alive(self.base + l)) {
                        // Silent source: consumed-through jumps the
                        // epoch with no draws. (`max` guards the
                        // degenerate first-epoch case where the
                        // horizon sits below the frontier.)
                        ev.drawn_through[l] = ev.drawn_through[l].max(horizon);
                    } else {
                        self.predict_router(ctx, ev, l);
                    }
                }
            }
        }
    }

    /// Rolls a *bursty* router `l`'s private stream forward from its
    /// frontier to the next offer that names a real destination and
    /// schedules it on the wheel; a window with no such offer parks
    /// the frontier at the horizon. Draw order per predicted cycle is
    /// exactly the cycle loop's: ON/OFF flip, offer coin, then the
    /// destination draw immediately after a hit — so the stream state
    /// is reproduced bit-for-bit, just ahead of wall-time. (Bernoulli
    /// routers never come here: their renewal slot already names the
    /// next arrival, no draws needed.)
    fn predict_router(&mut self, ctx: &RunCtx<'_>, ev: &mut EventState, l: usize) {
        debug_assert!(
            matches!(ctx.cfg.injection, InjectionProcess::BurstyOnOff { .. }),
            "Bernoulli arrivals are renewal-scheduled, not predicted"
        );
        let src = self.base + l;
        loop {
            match ctx.cfg.injection.next_arrival(
                ctx.on_rate,
                &mut self.source_on[l],
                &mut self.next_offer[l],
                ctx.gap,
                &mut self.rngs[l],
                ev.drawn_through[l],
                ev.horizon,
            ) {
                Some(c) => {
                    ev.drawn_through[l] = c;
                    if let Some(dst) =
                        ctx.cfg
                            .pattern
                            .destination(src, &ctx.mesh, &mut self.rngs[l])
                    {
                        ev.pending_dst[l] = dst as u32;
                        ev.wheel.schedule(c, l as u32);
                        return;
                    }
                    // Self-mapped destination: the cycle loop injects
                    // nothing and keeps drawing — so keep predicting.
                }
                None => {
                    ev.drawn_through[l] = ev.drawn_through[l].max(ev.horizon);
                    return;
                }
            }
        }
    }
}
