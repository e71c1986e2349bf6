//! Settlement: the measurement window's open and close, and the
//! closed-form accounting of cycles a router or lane was not stepped.

use super::{tile_stats, RunCtx, Tile, Window};
use crate::router::{settle_lanes, PortLane};
use crate::sleep::SleepFsm;
use crate::worklist::Cursor;
use lnoc_power::gating::GatingCounters;
#[cfg(doc)]
use {super::Simulation, crate::stats::IdleBank};

impl Tile {
    /// Measurement-boundary reset (see [`Simulation::run`]).
    ///
    /// Under deferred settlement (`ctx.deferred`) this is O(active),
    /// not O(tile): the boundary cycle is recorded as the watermark in
    /// `boundary` and only routers currently on the worklist
    /// are reset eagerly (they are mid-step — their lanes are live this
    /// very cycle). Every quiescent router keeps its stale warmup state
    /// as *settlement debt* — a debtor is recognizable later by
    /// `last_stepped ≤ watermark` while off the worklist — paid on
    /// first touch ([`Tile::activate`]) or in the close-out sweep
    /// ([`Tile::close_run`]). The eager branch resets the whole
    /// tile up front: the reference needs it (it fills the
    /// worklist wholesale, never through `activate`), and the
    /// lazy-settlement property tests run it as the oracle.
    pub(super) fn open_measurement(
        &mut self,
        ctx: &RunCtx<'_>,
        boundary_cycle: u64,
        win: &mut Window<'_>,
    ) {
        if ctx.deferred {
            self.boundary = Some(boundary_cycle);
            let mut visit = Cursor::new(false);
            while let Some(lr) = visit.next(&self.active) {
                self.reset_router_gating(ctx, lr, boundary_cycle);
            }
        } else {
            for lr in 0..self.len {
                self.reset_router_gating(ctx, lr, boundary_cycle);
            }
        }
        // The reset re-arms threshold sleeping (`slept_this_interval`
        // clears); quiescent routers need no reactivation — their walk
        // back to sleep is replayed in closed form when they next
        // flush or reactivate ([`SleepFsm::settle_idle_bulk`]).
        // Tile-sized record (local router indices): per-shard memory
        // stays proportional to the tile, not the network, and the
        // run-end reduction places it at `base` via
        // [`NetworkStats::append`].
        win.stats = Some(tile_stats(self.len, ctx.cfg.vcs));
    }

    /// End of run: settle all quiescent routers up to the final cycle,
    /// close out open idle runs and collect gating counters. Under
    /// deferred settlement this is the once-per-run walk that pays
    /// every remaining debtor ([`Tile::close_run_deferred`]).
    pub(super) fn close_run(&mut self, ctx: &RunCtx<'_>, end_cycle: u64, win: &mut Window<'_>) {
        if let Some(w) = self.boundary.take() {
            self.close_run_deferred(ctx, end_cycle, w, win);
            return;
        }
        for lr in 0..self.len {
            self.settle_router(ctx, lr, end_cycle, win);
        }
        if let Some(s) = &mut win.stats {
            s.measured_cycles = ctx.measure;
            let lanes = ctx.geom.lanes();
            for lr in 0..self.len {
                for lane in 0..lanes {
                    let run = std::mem::take(&mut self.idle_run[lr * lanes + lane]);
                    s.idle_histograms.lane_mut(lr, lane).record_open(run);
                }
                win.gating[lr] = self.counters[lr];
            }
        }
    }

    /// An aborted run leaves the network frozen at the abort cycle.
    /// The remaining debtors' deferred boundary resets are paid here,
    /// so the frozen slabs are bit-identical to an eager run cut short
    /// at the same cycle. A debtor settles exactly the *partial* span
    /// it owes: nothing since the watermark ever touched it, so the
    /// boundary reset is its entire settlement.
    pub(super) fn freeze(&mut self, ctx: &RunCtx<'_>) {
        let Some(w) = self.boundary.take() else {
            return;
        };
        for lr in 0..self.len {
            let active = self.active.contains(lr);
            if !active && self.last_stepped[lr] <= w {
                self.reset_router_gating(ctx, lr, w);
                self.routers_settled += 1;
            }
        }
    }

    /// Deferred close-out: the only place remaining debtors are walked,
    /// and even that walk is O(1) per debtor. Every router that was
    /// never touched after the measurement boundary slept through the
    /// *identical* `boundary → end` span, so what the eager path would
    /// compute per router — boundary reset, one `settle_router` over
    /// the span, one open-run record per lane — is computed **once**
    /// into a template (FSM end state, gating counters, arbitration
    /// count) and copied into each debtor's slabs. Debtor histograms
    /// are not even materialized: one `record_open` per lane lands on
    /// the [`IdleBank`] shared default row after every touched lane
    /// that needs its own histogram has claimed it (ordering matters —
    /// see [`IdleBank::record_open_untouched`]). A touched router's
    /// lane is left on the default too when it was never materialized
    /// and its trailing run spans the whole window: its content is
    /// then `{open: span}`, exactly what the default receives.
    fn close_run_deferred(
        &mut self,
        ctx: &RunCtx<'_>,
        end_cycle: u64,
        w: u64,
        win: &mut Window<'_>,
    ) {
        let lanes = ctx.geom.lanes();
        let span = end_cycle - w;
        // Template: the state a full-window debtor ends the run in.
        // Replays settle_router's gated branch lane by lane so the
        // shared per-router counters accumulate exactly as the eager
        // path's would (lane order is immaterial — every lane is
        // identical — but the *count* of settles is not).
        let mut tmpl_fsm = SleepFsm::default();
        let mut tmpl_counters = GatingCounters::default();
        let mut tmpl_arbs = 0u64;
        if span > 0 {
            match &ctx.cfg.gating {
                None => tmpl_arbs = lanes as u64 * span,
                Some(cfg) => {
                    let th = cfg.threshold();
                    for _ in 0..lanes {
                        let mut f = SleepFsm::default();
                        tmpl_arbs += f.settle_idle_bulk(span, 0, th, &mut tmpl_counters);
                        tmpl_fsm = f;
                    }
                }
            }
        }
        let mut debtors = 0u64;
        let mut on_default = 0u64;
        for lr in 0..self.len {
            let active = self.active.contains(lr);
            if !active && self.last_stepped[lr] <= w {
                // Debtor: stale warmup slabs become the template.
                self.reset_router_gating(ctx, lr, end_cycle);
                let fl = ctx.fsm_lanes;
                self.fsm[lr * fl..(lr + 1) * fl].fill(tmpl_fsm);
                self.counters[lr] = tmpl_counters;
                debtors += 1;
                if win.stats.is_some() {
                    let a = &mut win.activity[lr];
                    a.cycles += span;
                    a.arbitrations += tmpl_arbs;
                    win.gating[lr] = tmpl_counters;
                }
                continue;
            }
            self.settle_router(ctx, lr, end_cycle, win);
            if let Some(s) = &mut win.stats {
                // Touched router: a lane still on the default whose run
                // spans the window reads the default's open run below;
                // every other lane is materialized even if its run is
                // zero, so that open run cannot reach it.
                let bank = &mut s.idle_histograms;
                for lane in 0..lanes {
                    let run = std::mem::take(&mut self.idle_run[lr * lanes + lane]);
                    if run == span && !bank.is_materialized(lr, lane) {
                        on_default += 1;
                    } else {
                        bank.lane_mut(lr, lane).record_open(run);
                    }
                }
                win.gating[lr] = self.counters[lr];
            }
        }
        self.routers_settled += debtors;
        if debtors > 0 {
            self.max_debt_span = self.max_debt_span.max(span);
        }
        if let Some(s) = &mut win.stats {
            s.measured_cycles = ctx.measure;
            if span > 0 && debtors + on_default > 0 {
                s.idle_histograms.record_open_untouched(span);
            }
        }
    }

    /// Resets one router's gating slabs to their measurement-boundary
    /// state at cycle `at`: idle runs cleared, every lane FSM re-armed
    /// ([`SleepFsm::reset`]), gating counters zeroed, and the router
    /// and every lane settled through `at`. The shared tail of the eager
    /// boundary fill, lazy debt payment and the close-out template.
    fn reset_router_gating(&mut self, ctx: &RunCtx<'_>, lr: usize, at: u64) {
        let lanes = ctx.geom.lanes();
        let base = lr * lanes;
        self.idle_run[base..base + lanes].fill(0);
        let fl = ctx.fsm_lanes;
        for f in &mut self.fsm[lr * fl..(lr + 1) * fl] {
            f.reset();
        }
        self.counters[lr] = GatingCounters::default();
        self.settled[base..base + lanes].fill(at as u32);
        self.last_stepped[lr] = at;
    }

    /// Pays one router's settlement debt: replays the measurement
    /// boundary it slept through (reset to the watermark `w`), so the
    /// caller's normal pre-boundary→now accounting becomes the correct
    /// `w`→now span. `now` is only used for the `max_debt_span`
    /// telemetry.
    fn settle_debt(&mut self, ctx: &RunCtx<'_>, lr: usize, w: u64, now: u64) {
        self.reset_router_gating(ctx, lr, w);
        self.routers_settled += 1;
        self.settle_ops += 1;
        self.max_debt_span = self.max_debt_span.max(now - w);
    }

    /// Puts a quiescent router back in the worklist, first settling the
    /// cycles it skipped (`through` is the last cycle it should be
    /// accounted as idle; injection activations pass `cycle − 1`
    /// because the router still steps this cycle, arrival activations
    /// pass `cycle` because it only steps from the next one). `lr` is
    /// tile-local.
    pub(super) fn activate(
        &mut self,
        ctx: &RunCtx<'_>,
        lr: usize,
        through: u64,
        win: &mut Window<'_>,
    ) {
        if self.active.contains(lr) {
            return;
        }
        // First touch since the measurement boundary: pay the deferred
        // boundary reset before accounting the post-boundary idle span.
        if let Some(w) = self.boundary {
            if self.last_stepped[lr] <= w {
                self.settle_debt(ctx, lr, w, through);
            }
        }
        self.settle_router(ctx, lr, through, win);
        self.active.insert(lr);
    }

    /// Settles every lane of router `lr` through cycle `through`, each
    /// from its own watermark ([`settle_lanes`]) — exactly what
    /// the dense loop would have done: idle runs grow, awake lanes
    /// arbitrate, and sleep FSMs replay their closed-form future,
    /// including a threshold walk that asserts sleep partway through
    /// the gap. A quiescent router settles the cycles it skipped
    /// (anchored at `last_stepped`, which moves to `through`); a
    /// worklist member, already stepped through `through`, settles only
    /// the lanes its steps left behind.
    fn settle_router(&mut self, ctx: &RunCtx<'_>, lr: usize, through: u64, win: &mut Window<'_>) {
        let active = self.active.contains(lr);
        let anchor = if active {
            through
        } else {
            self.last_stepped[lr]
        };
        let lanes = ctx.geom.lanes();
        let base = lr * lanes;
        let fl = ctx.fsm_lanes;
        let arbitrations = settle_lanes(
            &ctx.geom,
            &mut PortLane {
                lanes: &mut self.lanes[base..base + lanes],
                idle_run: &mut self.idle_run[base..base + lanes],
                fsm: &mut self.fsm[lr * fl..(lr + 1) * fl],
                counters: &mut self.counters[lr],
                settled: &mut self.settled[base..base + lanes],
                rings: &mut self.rings,
            },
            anchor,
            through,
        );
        if win.stats.is_some() {
            let a = &mut win.activity[lr];
            a.cycles += through - anchor;
            a.arbitrations += arbitrations;
        }
        if !active {
            self.last_stepped[lr] = through;
        }
    }
}
