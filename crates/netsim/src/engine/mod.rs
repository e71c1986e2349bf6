//! The cycle loop: injection, router stepping, link transfer, credit
//! return, ejection.
//!
//! Two result-identical kernels execute the loop (selected by
//! [`MeshConfig::kernel`]), both configurations of **one shared
//! two-phase engine**:
//!
//! * [`SimKernel::Engine`] — the production engine. Three ideas make
//!   it fast, and none of them changes a result:
//!   - **Worklist, down to the lane.** Only routers that can possibly
//!     do work this cycle are stepped: routers with buffered flits, an
//!     output VC lane held mid-packet, or a waiting source packet.
//!     Inside a stepped router only the *live* output lanes are
//!     visited — owned, or requested by a waiting head flit
//!     ([`Router::step`]); each input lane's front flit is routed
//!     once, when it reaches the front. Every other lane, and every
//!     lane of a quiescent router, can only idle, and an idle lane's
//!     future is closed-form in whatever sleep state it is in
//!     ([`SleepFsm::settle_idle_bulk`]). So each lane carries a
//!     settlement watermark and is settled in O(1) from it when it
//!     becomes live, when its router reactivates, or when the window
//!     closes — one closed form for lane- and router-level laziness.
//!     Credit counters are maintained incrementally on flit departure
//!     and arrival instead of rebuilt.
//!   - **Time wheel.** Each source's next injection arrival is parked
//!     on a per-shard calendar queue (the `TimeWheel`), so injection
//!     costs O(due arrivals + active routers) per cycle instead of an
//!     O(n) scan. Whenever the whole network holds no flit — nothing
//!     buffered, queued or in a mailbox — the clock **leaps** straight
//!     to the next scheduled arrival (or fault-epoch boundary); the
//!     skipped span is settled by the same bulk idle accounting.
//!   - **Tiles.** The mesh is partitioned into full-width row bands
//!     ([`TileMap`]). Each band is one `Tile`, the sole owner of its
//!     routers' state: their per-router and per-lane records (routers,
//!     lanes, credits, RNG streams, source-queue ids), its pools of
//!     input-ring blocks and source queues, its worklist and its wheel.
//!     Bands step concurrently on worker threads
//!     ([`MeshConfig::shards`] / [`MeshConfig::threads`] — pure
//!     geometry: neither changes a result).
//! * [`SimKernel::Reference`] — the dense oracle: one tile, every
//!   router and every lane stepped every cycle (the same step function
//!   with every lane live), injection by a per-cycle scan of every
//!   source, and the credit state rebuilt O(5·V·n) per cycle from the
//!   live buffers. Simple, obviously correct, slow.
//!
//! Each phase of a cycle is one `impl Tile` block in its own module:
//! `build` (construction and the initial credits), `inject`, `step`
//! (route and transfer), `exchange` (mailboxes and the global leap
//! decision), `settle` (the measurement window and settlement debts),
//! `reap` (fault epochs), `watchdog` and `check` (the conservation
//! oracles). [`Simulation::try_run`] hands every worker its tiles, and
//! the worker's loop is a short schedule of phase calls.
//!
//! ## Why the tiled engine is deterministic
//!
//! A cycle runs in two phases per shard with one barrier between them:
//!
//! 1. **compute** (parallel) — inject, step the tile's active set
//!    against the cycle-start credit snapshot, and apply transfers.
//!    Everything read here is tile-local by construction: a router's
//!    readiness reads only *its own* output-lane credits, routing reads
//!    shared immutable tables, and injection draws come from per-router
//!    RNG streams. Effects that land in another tile — a flit crossing
//!    the band boundary, a credit returning upstream — are staged into
//!    fixed-capacity, double-buffered mailboxes instead of applied.
//!    Each shard then publishes a [`SlotReport`] (stall state, wake
//!    cycle) into its [`ShardSlots`].
//! 2. **exchange** (parallel, after the barrier) — each shard drains
//!    its inboxes (senders in ascending shard order) and applies the
//!    arrivals and credit returns to its own state. Every shard then
//!    reads every report and takes the same two global decisions: the
//!    zero-progress watchdog, and whether (and how far) to leap.
//!
//! Within one cycle, all cross-tile effects commute: at most one flit
//! can arrive per input VC buffer per cycle (one flit per upstream
//! output lane), at most one credit can return per output lane (one
//! pop per downstream input port), and every statistics update is an
//! integer add or max. So *when* within the cycle a boundary effect is
//! applied cannot change the cycle's outcome — the same argument that
//! makes a serial run independent of router visit order. Each tile
//! writes its per-router activity and gating rows into its own slice
//! of the run result; the per-shard scalar counters and idle
//! histograms are joined with [`NetworkStats::append`] in ascending
//! shard order. A leap needs every shard's report to name a
//! wake cycle past the next one, which no shard holding a flit —
//! buffered, queued or staged in a mailbox — ever does. The result:
//! `shards ∈ {1, 2, 4, 8, …}` × any thread count produce the same
//! `NetworkStats` as the reference, pinned by the kernel-equivalence
//! and shard-equivalence test matrices.
//!
//! Flow control is credit-based: the simulation carries one explicit
//! credit counter per output VC lane (`router * 5V + port * V + vc`),
//! holding the free slots of the downstream router's input VC buffer.
//! A flit may depart only on a lane with a credit; the credit is
//! consumed when the flit is applied and returned when the downstream
//! router pops the flit onward. With `V = 1` this is numerically
//! identical to the old occupancy-snapshot backpressure (`credit > 0 ⇔
//! occupancy < depth`), which is what keeps the refactor
//! behaviour-preserving at one VC.
//!
//! The engine only skips work that draws no randomness and whose
//! effect is a closed-form function of the skipped cycle count, which
//! is why both kernels produce **bit-identical [`NetworkStats`]**.
//!
//! **RNG discipline.** Every node draws from its own deterministic
//! stream, keyed by `(seed, router id)` (`node_rng`), and packet ids
//! are allocated per source (`packet_id`: source in the high bits,
//! a private sequence number in the low bits). A node's draw sequence
//! is therefore a pure function of its own history — independent of
//! the order nodes are visited in, of what any other node draws, and
//! of how the mesh is partitioned across parallel workers. This is
//! what lets tiles inject in parallel, and the wheel draw ahead of the
//! clock, and still reproduce the reference bit for bit.
//!
//! Correctness notes:
//!
//! * Credit state is evaluated against the cycle-start snapshot
//!   (rebuilt per cycle in the reference, mutated only in the transfer
//!   phase in the engine), so results are independent of the order
//!   routers are visited in — see [`Simulation::set_visit_reversed`]
//!   and the order-independence test.
//! * On a torus with `vcs ≥ 2`, dimension-order routing switches VC
//!   class at each ring's dateline ([`Mesh::dateline_class`]), making
//!   wormhole DOR deadlock-free; a zero-progress watchdog
//!   ([`MeshConfig::watchdog_cycles`]) aborts with a per-lane
//!   diagnostic instead of spinning forever if a regression ever
//!   reintroduces a cycle.
//! * Ejection is checked on the fly, in every build: every packet must
//!   arrive at its destination head-first, contiguously, with exactly
//!   `packet_len_flits` flits — one O(1) check per ejected flit.
//! * The per-cycle scratch (transfers, worklist, wheel) is reused
//!   across cycles and [`Router::step`] is allocation-free, so the
//!   steady-state loop performs no heap allocation.

mod build;
mod check;
mod config;
mod exchange;
mod inject;
mod reap;
mod settle;
mod step;
mod watchdog;

#[cfg(test)]
mod tests;

pub use config::{MeshConfig, SimAbort, SimKernel};

use crate::fault::FaultSchedule;
use crate::router::{Lane, RingPool, Router, RouterGeometry};
use crate::shard::{boundary_mailboxes, BoundaryMsg};
use crate::sleep::SleepFsm;
use crate::stats::{IdleBank, NetworkStats};
#[cfg(doc)]
use crate::sync::SlotReport;
use crate::sync::{Mailboxes, PoisonGuard, ShardSlots, SpinBarrier};
use crate::topology::{Direction, Mesh, TileMap};
use crate::traffic::{GapSampler, QueuePool};
use crate::wheel::TimeWheel;
use crate::worklist::Worklist;
use check::{check_credits, EjectProgress};
use exchange::{leap_target, network_report};
use lnoc_power::gating::GatingCounters;
use lnoc_power::router::RouterActivity;
use rand::rngs::StdRng;
use reap::FaultReap;
use std::sync::Mutex;
use step::Transfer;

/// A running mesh simulation.
///
/// The simulation keeps what every tile shares — configuration, mesh,
/// geometry, coordinates, fault schedule, partition ([`TileMap`]) and
/// clock — plus one `Tile` per row band, which owns all of its
/// routers' state. A run hands each worker its tiles whole; only the
/// result's per-router rows are carved per tile.
#[derive(Debug)]
pub struct Simulation {
    cfg: MeshConfig,
    mesh: Mesh,
    /// What every router shares: buffer depth, VC count and sleep
    /// configuration.
    geom: RouterGeometry,
    /// Geometric gap sampler for the Bernoulli renewal chain, built
    /// once from the ON rate (unused by bursty configurations).
    gap: GapSampler,
    cycle: u64,
    visit_reversed: bool,
    /// Expanded fault schedule (`None` when [`MeshConfig::faults`] is
    /// unset or the plan produces no events). Epochs are applied at
    /// cycle boundaries by the three-pass reap in [`run_worker`];
    /// [`Tile::epoch`] tracks how many each tile has applied.
    faults: Option<FaultSchedule>,
    /// Cached `(x, y)` per router id, so the hot route closure — XY
    /// routing ([`Mesh::route_xy_at`]) and the dateline class
    /// ([`Mesh::hop_vc_at`]) — and neighbour lookup
    /// ([`Mesh::neighbor_at`]) never divide a router id into
    /// coordinates.
    xy: Vec<(u16, u16)>,
    /// The tile partition (a single tile for the reference).
    tile_map: TileMap,
    /// One tile per shard of `tile_map`, in shard order.
    tiles: Vec<Tile>,
    /// Resolved worker-thread budget.
    threads: usize,
}

/// One row band of the mesh and everything its routers own. Local
/// index `lr` addresses global router `base + lr`; per-lane records
/// are indexed `lr * 5V + port * V + vc`. Input VC buffers and source
/// queues come from the tile's pools — a [`RingPool`] block per router
/// that buffers a flit, a queue per router with packets waiting — so
/// they cost what is buffered or queued, not a fixed amount per router.
/// Gating counters are not the tile's: every FSM settle writes straight
/// into its router's row of the run's [`Window`].
#[derive(Debug)]
struct Tile {
    /// Shard index.
    shard: usize,
    /// First global router id of the tile.
    base: usize,
    /// Routers in the tile.
    len: usize,

    // ---- Per-router records ----
    routers: Vec<Router>,
    /// Source-queue id in `queues` ([`crate::traffic::NO_QUEUE`]
    /// while no packet waits); flits are synthesized on acceptance.
    source_queue: Vec<u32>,
    /// ON/OFF state of the bursty injection process.
    source_on: Vec<bool>,
    /// Renewal slot of the Bernoulli injection process: the absolute
    /// cycle of the node's next scheduled arrival (`u64::MAX` = never —
    /// rate 0, or a bursty configuration, which keeps per-cycle draws
    /// instead). Advanced one geometric gap draw per arrival
    /// ([`GapSampler`]), so idle sources cost no RNG work at all.
    next_offer: Vec<u64>,
    /// Private RNG streams (see [`build::node_rng`]).
    rngs: Vec<StdRng>,
    /// Packet sequence numbers (see [`crate::traffic::packet_id`]).
    next_seq: Vec<u64>,
    /// Ejection progress, for the in-order delivery check.
    eject: Vec<EjectProgress>,
    /// Last cycle a (now quiescent) router was stepped or accounted
    /// through; the gap to the current cycle is its pending bulk-idle
    /// accounting, and it anchors its lanes' watermarks.
    last_stepped: Vec<u64>,

    // ---- Per-lane records ----
    /// Lane records ([`Lane`]).
    lanes: Vec<Lane>,
    /// Credit counters — free slots in the downstream input VC buffer
    /// reachable through that output lane (0 for edge ports without a
    /// link; Local lanes unused, the ejection port always sinks).
    credits: Vec<u16>,
    /// Consecutive idle cycles per output VC lane.
    idle_run: Vec<u64>,
    /// Sleep FSM per output VC lane — empty on an ungated network,
    /// where no FSM is ever read (see [`RunCtx::fsm_lanes`]).
    fsm: Vec<SleepFsm>,
    /// Settlement watermark per output VC lane
    /// ([`crate::router::PortLane::settled`]): the low 32 bits of the
    /// last cycle the lane's idle run, FSM and gating row account for. A
    /// router step visits only live lanes; the rest catch up from here.
    settled: Vec<u32>,

    // ---- Pools, worklist, schedule and scratch ----
    rings: RingPool,
    queues: QueuePool,
    /// The routers that step this cycle (local indices), visited in
    /// index order at a cost that follows its members, not the tile.
    active: Worklist,
    /// The engine's injection schedule (`None` on the reference).
    events: Option<Box<EventState>>,
    /// Reused per-cycle scratch: departures waiting to be applied.
    transfers: Vec<Transfer>,
    /// Staged outgoing boundary messages, parallel to
    /// `Mailboxes::outboxes(shard)`.
    outgoing: Vec<Vec<BoundaryMsg>>,
    /// Receiver-side drain buffers, parallel to
    /// `Mailboxes::inboxes(shard)`.
    incoming: Vec<Vec<BoundaryMsg>>,

    // ---- Counters ----
    /// Flits injected by this tile's sources since construction.
    flits_injected: u64,
    /// Flits ejected at this tile's routers since construction.
    flits_delivered: u64,
    /// Flits still waiting in this tile's source queues (maintained
    /// incrementally; the O(n) scan is debug-asserted against it).
    queued_flits: u64,
    /// Flits buffered in this tile's routers (maintained
    /// incrementally: inject drain +1, ejection −1, boundary departure
    /// −1, boundary arrival +1).
    buffered_flits: u64,
    /// Consecutive cycles with buffered flits but zero network-wide
    /// progress (the same value in every shard).
    stagnant_cycles: u64,
    /// Router-step executions in this tile (the quiescence tests
    /// assert an all-idle run performs none).
    routers_stepped: u64,
    /// Fault epochs this tile has applied — advanced in lockstep by
    /// the three-pass reap, so every shard agrees on the active
    /// [`crate::topology::FaultMap`] at every cycle.
    epoch: usize,
    /// Flits discarded by fault reaping since construction: injected =
    /// delivered + in flight + dropped.
    flits_dropped: u64,
    /// Cycles the engine leapt over outright, counted on shard 0 only
    /// (performance telemetry, deliberately *outside* [`NetworkStats`]
    /// so the bit-identity contract stays about simulated behaviour).
    cycles_leapt: u64,
    /// Injection-arrival events fired by this tile's wheel.
    events_processed: u64,
    /// Leaps the engine took (jump count, shard 0 only; `cycles_leapt`
    /// is the cycle total).
    leaps: u64,
    /// Measurement-boundary watermark of the current run. `Some(w)`
    /// means the window opened at cycle `w` under *deferred
    /// settlement*: routers whose `last_stepped ≤ w` and whose active
    /// bit is clear still owe the boundary reset of their idle runs,
    /// sleep FSMs and gating rows (their *settlement debt*), paid
    /// on first touch ([`Tile::activate`]), at close-out
    /// ([`Tile::close_run`]) or when an abort freezes the run.
    /// `None` during warmup, on the reference and under
    /// [`MeshConfig::eager_settlement`].
    boundary: Option<u64>,
    /// Deferred boundary settlements paid, touch + close-out (persists
    /// across runs, like `cycles_leapt`).
    routers_settled: u64,
    /// The subset of `routers_settled` paid on *touch* — a wheel-event
    /// fire, an incoming flit — i.e. the per-leap settlement work the
    /// O(touched) claim is about.
    settle_ops: u64,
    /// Longest deferred span settled at once, on touch or at close-out
    /// (cycles between the watermark and the settlement; a close-out
    /// replays every remaining debtor's whole span in one step).
    max_debt_span: u64,
}

/// One tile's injection schedule: one pending arrival per source
/// router, parked on a calendar-queue [`TimeWheel`].
///
/// Two modes, by injection process:
///
/// * **Bernoulli** — the wheel mirrors the tile's renewal chain
///   ([`Tile::next_offer`]): each router's next arrival cycle was
///   produced by one [`GapSampler`] draw, so entries are scheduled
///   once at run start and persist across fault epochs. A router that
///   is dead when its slot fires is a *miss*: no destination draw,
///   just the re-arm gap draw — the identical sequence the reference's
///   per-cycle scan consumes in its lazy catch-up loop, so
///   bit-identity holds by construction. Dead routers stay scheduled (their misses
///   are the "phantom" events), which also bounds every leap.
/// * **Bursty on/off** — predictions replay the per-cycle draw order
///   (ON/OFF flip, offer coin, then destination on a hit) ahead of
///   wall-time. The invariant that buys bit-identity: router `l`'s
///   private stream has been consumed for every cycle in
///   `(run start, drawn_through[l]]` and no further. Because streams
///   are per-router ([`build::node_rng`]), consuming them ahead of
///   wall-time is unobservable; predictions never cross a fault-epoch
///   boundary (the aliveness map is only constant within one), so
///   every epoch re-arms the whole population.
#[derive(Debug)]
struct EventState {
    /// Pending arrivals keyed by absolute cycle (at most one per
    /// router: the *next* one).
    wheel: TimeWheel,
    /// Bursty only (empty otherwise): last absolute cycle whose
    /// injection draws have been consumed from each router's stream.
    drawn_through: Vec<u64>,
    /// Bursty only (empty otherwise): destination of the pending offer,
    /// valid while the router has an event scheduled. (Bernoulli draws the destination
    /// at fire time — pre-drawing would diverge if the router dies
    /// before the slot comes up.)
    pending_dst: Vec<u32>,
    /// Fault epoch the horizon was armed under; a mismatch (or the
    /// `usize::MAX` run-start sentinel) recomputes the horizon and, on
    /// bursty, re-predicts every router against it.
    armed_epoch: usize,
    /// Scheduling horizon (inclusive): the run's last cycle, clamped
    /// by the cycle budget and the next fault-epoch boundary, so leaps
    /// land on epoch edges and deadlines exactly.
    horizon: u64,
    /// Reused drain buffer for the ids due at the current cycle.
    due: Vec<u32>,
}

impl Tile {
    /// Whether global router `rid` belongs to this tile.
    fn contains(&self, rid: usize) -> bool {
        (self.base..self.base + self.len).contains(&rid)
    }
}

impl EventState {
    /// The schedule of a `len`-router tile, allocated once at
    /// construction and reset in place by every run.
    fn new(len: usize, bursty: bool) -> Self {
        let per_router = if bursty { len } else { 0 };
        EventState {
            wheel: TimeWheel::new(0, len),
            drawn_through: vec![0; per_router],
            pending_dst: vec![0; per_router],
            armed_epoch: usize::MAX,
            horizon: 0,
            due: Vec::new(),
        }
    }
}

/// One tile's share of one run's result: its record of the measurement
/// window and its rows of the result's per-router vectors.
///
/// The rows are the tile's slices of the result, carved per run, so
/// joining the tiles copies no per-router record. A window lives only
/// as long as its run: an aborted run drops its windows, so nothing a
/// window recorded can leak into the next run.
#[derive(Debug)]
struct Window<'a> {
    /// The scalar counters and the tile's idle histograms (local router
    /// indices; see [`tile_stats`]) — `None` until the measurement
    /// window opens. The run's end appends them in ascending shard
    /// order via [`NetworkStats::append`].
    stats: Option<NetworkStats>,
    /// Per-router activity, written only while `stats` is `Some`.
    activity: &'a mut [RouterActivity],
    /// Per-router gating counters: every FSM settle of the run adds
    /// into its router's row. The measurement boundary zeroes a row
    /// (eagerly, on a debtor's first touch, or as the close-out
    /// template overwrites it), so a completed run's rows hold the
    /// window's counters only, and a run whose window never opens
    /// reports them all-zero ([`Tile::close_run`]).
    gating: &'a mut [GatingCounters],
}

/// Shared, immutable context of one `run` call (everything a worker
/// needs beyond its own tiles and windows).
#[derive(Debug)]
struct RunCtx<'a> {
    cfg: &'a MeshConfig,
    mesh: Mesh,
    geom: RouterGeometry,
    /// FSM-slab entries per router: `lanes` on a gated network, 0 on an
    /// ungated one, whose routers never read a sleep FSM.
    fsm_lanes: usize,
    xy: &'a [(u16, u16)],
    tile_map: &'a TileMap,
    mail: &'a Mailboxes<BoundaryMsg>,
    slots: &'a [ShardSlots],
    barrier: &'a SpinBarrier,
    workers: usize,
    visit_reversed: bool,
    warmup: u64,
    measure: u64,
    start_cycle: u64,
    /// Whether this run defers the measurement-boundary settlement of
    /// untouched routers (the debt/watermark scheme). Off for the
    /// reference — it fills the worklist wholesale instead of
    /// going through `activate`, so debts would never be paid — and
    /// under [`MeshConfig::eager_settlement`].
    deferred: bool,
    on_rate: f64,
    /// Geometric gap sampler for the Bernoulli renewal chain.
    gap: &'a GapSampler,
    /// The run's fault schedule (`None` = healthy network, zero
    /// fault-layer cost on the hot path).
    faults: Option<&'a FaultSchedule>,
    /// Per-shard fault-reap exchange slots (see [`FaultReap`]).
    fault_slots: &'a [Mutex<FaultReap>],
    /// Where a worker records why the run stopped early. Written at
    /// most once per run (the abort decision is globally deterministic,
    /// so the first writer's value is the value); read by
    /// [`Simulation::try_run`] after the workers join.
    abort: &'a Mutex<Option<SimAbort>>,
}

impl RunCtx<'_> {
    /// Router `rid`'s neighbour in cardinal direction `dir`, from the
    /// cached coordinates.
    fn neighbor(&self, rid: usize, dir: Direction) -> Option<usize> {
        debug_assert!(dir != Direction::Local);
        self.mesh.neighbor_at(xy_at(self.xy, rid), dir)
    }
}

/// Router `rid`'s cached coordinates.
fn xy_at(xy: &[(u16, u16)], rid: usize) -> (usize, usize) {
    let (x, y) = xy[rid];
    (x as usize, y as usize)
}

/// Sleep-FSM slab entries per router: one per lane on a gated network,
/// none on an ungated one (its routers never read a sleep FSM).
fn fsm_lanes(cfg: &MeshConfig) -> usize {
    if cfg.gating.is_some() {
        5 * cfg.vcs
    } else {
        0
    }
}

/// A tile's record for one measurement window: the scalar counters
/// and the tile's idle histograms (local router indices). Its per-router
/// activity and gating vectors stay empty — the tile writes those rows
/// into its [`Window`]'s slices of the run result.
fn tile_stats(len: usize, vcs: usize) -> NetworkStats {
    NetworkStats {
        idle_histograms: IdleBank::new(len, 5 * vcs, NetworkStats::DEFAULT_IDLE_BINS),
        ..NetworkStats::new(0, vcs, NetworkStats::DEFAULT_IDLE_BINS)
    }
}

impl Simulation {
    /// The mesh being simulated.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The kernel executing the loop.
    pub fn kernel(&self) -> SimKernel {
        self.cfg.kernel
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.cfg.vcs
    }

    /// The number of tile shards the simulation is partitioned into
    /// (1 for the reference).
    pub fn shards(&self) -> usize {
        self.tile_map.shards()
    }

    /// The resolved worker-thread budget (1 for the reference).
    /// Purely an execution detail: results are identical for any
    /// thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Routers in the current worklists — the ones the next cycle will
    /// step. The reference steps everything, always.
    pub fn active_router_count(&self) -> usize {
        match self.cfg.kernel {
            SimKernel::Reference => self.mesh.len(),
            SimKernel::Engine => self.tiles.iter().map(|t| t.active.len()).sum(),
        }
    }

    /// Total router-step executions performed so far — the all-idle
    /// quiescence tests assert a settled network performs none.
    pub fn routers_stepped_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.routers_stepped).sum()
    }

    /// Visits routers in reverse order within each cycle (within each
    /// tile). With the cycle-start credit
    /// snapshot the visit order must not change any observable result
    /// — this knob exists so tests can prove it.
    pub fn set_visit_reversed(&mut self, reversed: bool) {
        self.visit_reversed = reversed;
    }

    /// Flits currently inside the network (source queues + buffers) —
    /// with the injected/delivered counters this gives exact flit
    /// conservation when measuring from cycle 0.
    ///
    /// O(shards): maintained incrementally at inject, accept and eject
    /// (debug builds re-derive it with the full scan and assert
    /// agreement), so watchdog-style progress checks never pay an
    /// O(routers × ports × vcs) walk per call.
    pub fn in_flight_flits(&self) -> u64 {
        let fast: u64 = self
            .tiles
            .iter()
            .map(|t| t.queued_flits + t.buffered_flits)
            .sum();
        debug_assert_eq!(
            fast,
            self.tiles
                .iter()
                .map(|t| {
                    let (queued, buffered) = t.flits_scanned(&self.cfg);
                    queued + buffered
                })
                .sum::<u64>(),
            "incremental in-flight counters diverged from the full scan"
        );
        fast
    }

    /// Flits injected since construction (all cycles, not just the
    /// measurement window). O(shards).
    pub fn flits_injected_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.flits_injected).sum()
    }

    /// Flits discarded by fault reaping since construction (all
    /// cycles, not just the measurement window). O(shards). With
    /// [`Simulation::flits_injected_total`] and
    /// [`Simulation::in_flight_flits`] this keeps flit conservation
    /// exact on faulted networks: measuring from cycle 0,
    /// `injected == delivered + in_flight + dropped_by_fault`.
    pub fn flits_dropped_by_fault_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.flits_dropped).sum()
    }

    /// Cycles the engine leapt over since construction — whole
    /// simulated cycles that executed no per-cycle work at all. Always
    /// zero on the reference. Performance telemetry only: the counter
    /// lives outside [`NetworkStats`] so kernel choice can never
    /// perturb the bit-identity contract.
    pub fn cycles_leapt_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.cycles_leapt).sum()
    }

    /// Injection-arrival events the engine's wheels fired since
    /// construction (one per accepted, dropped or unroutable offer, or
    /// dead-router miss). Always zero on the reference.
    pub fn events_processed_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.events_processed).sum()
    }

    /// Leaps the engine took since construction (jump count;
    /// [`Simulation::cycles_leapt_total`] is the cycle total). Always
    /// zero on the reference.
    pub fn leaps_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.leaps).sum()
    }

    /// Deferred measurement-boundary settlements paid since
    /// construction — on first touch, at close-out, or when an abort
    /// froze the run. Zero under eager settlement (the reference, or
    /// [`MeshConfig::eager_settlement`]). Performance
    /// telemetry only, like [`Simulation::cycles_leapt_total`].
    pub fn routers_settled_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.routers_settled).sum()
    }

    /// The subset of [`Simulation::routers_settled_total`] paid on
    /// *touch* (wheel-event fire or incoming flit) rather than in the
    /// close-out sweep — the per-leap settlement work.
    pub fn settle_ops_total(&self) -> u64 {
        self.tiles.iter().map(|t| t.settle_ops).sum()
    }

    /// Longest deferred span settled at once since construction, on
    /// touch or at close-out (cycles between the measurement watermark
    /// and the settlement; a close-out replays every remaining
    /// debtor's whole span in one step).
    pub fn max_debt_span(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.max_debt_span)
            .max()
            .unwrap_or(0)
    }

    /// Asserts the credit-conservation invariant: for every link, the
    /// credits held by the upstream output lane plus the flits buffered
    /// in the downstream input VC equal the per-VC buffer depth.
    ///
    /// The engine checks this at the end of every successful run in
    /// every build, and in debug builds also at the end of every
    /// single-worker cycle; this public entry point lets integration
    /// tests assert it at arbitrary observation points. The reference
    /// rebuilds credits from the live buffers each cycle, making the
    /// invariant true by construction — calling this is then a no-op.
    pub fn check_credit_conservation(&self) {
        if self.cfg.kernel == SimKernel::Engine {
            check_credits(&self.tiles, &self.tile_map, &self.mesh, &self.cfg);
        }
    }

    /// Runs `warmup` cycles unmeasured, then `measure` cycles with
    /// statistics collection, and returns the stats.
    ///
    /// # Panics
    ///
    /// Panics if the run aborts — watchdog deadlock or cycle-budget
    /// overrun — with the [`SimAbort`] display text (for a deadlock,
    /// the full per-lane diagnostic). Supervised callers that want the
    /// abort as a value use [`Simulation::try_run`].
    pub fn run(&mut self, warmup: u64, measure: u64) -> NetworkStats {
        match self.try_run(warmup, measure) {
            Ok(stats) => stats,
            Err(abort) => panic!("{abort}"),
        }
    }

    /// Like [`Simulation::run`], but a watchdog deadlock or a
    /// [`MeshConfig::cycle_budget`] overrun comes back as
    /// `Err(`[`SimAbort`]`)` instead of a panic, so an orchestrator can
    /// record the failure and move on to the next configuration.
    ///
    /// After an `Err` the simulation holds the network frozen at the
    /// abort cycle — consistent (flit and credit conservation hold,
    /// the clock advances to the cycle the loop reached, and every
    /// outstanding settlement debt is paid through its partial span)
    /// but mid-traffic; a further run resumes from the abort cycle
    /// with a fresh measurement record, and callers wanting a clean
    /// state build a fresh [`Simulation`].
    ///
    /// At the measurement boundary the idle runs *and* the sleep FSMs
    /// are reset, so the idle histograms and the in-loop gating
    /// counters describe exactly the same intervals.
    ///
    /// Both kernels run through the same two-phase loop: each worker
    /// executes the cycle loop over its tiles (one for the reference),
    /// exchanging boundary traffic through the mailboxes at the phase
    /// barrier. Per-shard statistics are merged in ascending shard
    /// order.
    pub fn try_run(&mut self, warmup: u64, measure: u64) -> Result<NetworkStats, SimAbort> {
        let shard_count = self.tile_map.shards();
        // Workers: cap the thread budget so every worker owns at least
        // one tile, and count the *actual* participants for the
        // barrier.
        let per_worker = shard_count.div_ceil(self.threads.max(1));
        let workers = shard_count.div_ceil(per_worker);
        let mail = boundary_mailboxes(&self.tile_map);
        let slots: Vec<ShardSlots> = (0..shard_count).map(|_| ShardSlots::default()).collect();
        let fault_slots: Vec<Mutex<FaultReap>> =
            (0..shard_count).map(|_| Mutex::default()).collect();
        let barrier = SpinBarrier::new(workers);
        let abort_slot: Mutex<Option<SimAbort>> = Mutex::new(None);
        // The result's per-router rows, carved into one window per tile:
        // tiles write their own rows in place, so joining the tiles
        // never copies a per-router record.
        let n = self.mesh.len();
        let mut activity = vec![RouterActivity::default(); n];
        let mut gating = vec![GatingCounters::default(); n];
        let mut windows: Vec<Window<'_>> = {
            let (mut activity, mut gating) = (activity.as_mut_slice(), gating.as_mut_slice());
            self.tiles
                .iter()
                .map(|t| {
                    let (a, rest) = std::mem::take(&mut activity).split_at_mut(t.len);
                    activity = rest;
                    let (g, rest) = std::mem::take(&mut gating).split_at_mut(t.len);
                    gating = rest;
                    Window {
                        stats: None,
                        activity: a,
                        gating: g,
                    }
                })
                .collect()
        };
        let ctx = RunCtx {
            cfg: &self.cfg,
            mesh: self.mesh,
            geom: self.geom,
            fsm_lanes: fsm_lanes(&self.cfg),
            xy: &self.xy,
            tile_map: &self.tile_map,
            mail: &mail,
            slots: &slots,
            barrier: &barrier,
            workers,
            visit_reversed: self.visit_reversed,
            warmup,
            measure,
            start_cycle: self.cycle,
            deferred: self.cfg.kernel == SimKernel::Engine && !self.cfg.eager_settlement,
            on_rate: self.cfg.injection.on_rate(self.cfg.injection_rate),
            gap: &self.gap,
            faults: self.faults.as_ref(),
            fault_slots: &fault_slots,
            abort: &abort_slot,
        };
        let groups = self.tiles.chunks_mut(per_worker);
        if workers == 1 {
            for (tiles, windows) in groups.zip(windows.chunks_mut(per_worker)) {
                run_worker(tiles, windows, &ctx);
            }
        } else {
            std::thread::scope(|scope| {
                for (tiles, windows) in groups.zip(windows.chunks_mut(per_worker)) {
                    let ctx = &ctx;
                    scope.spawn(move || run_worker(tiles, windows, ctx));
                }
            });
        }
        // An aborted run stops mid-cycle-loop: report it and drop the
        // windows (the network stays frozen for post-mortem inspection,
        // see `Tile::freeze`) — but the cycle counter advances to the
        // cycle the loop actually reached, so a later run resumes time
        // monotonically (in-flight flits keep injection stamps from
        // the aborted window).
        if let Some(abort) = abort_slot.lock().expect("abort slot poisoned").take() {
            self.cycle = match &abort {
                // The watchdog names the cycle it fired on; the
                // budget check stops every worker at the top of
                // iteration `budget`, so exactly `budget` cycles
                // completed.
                SimAbort::Deadlock { cycle: at, .. } => *at,
                SimAbort::CycleBudgetExceeded { budget, .. } => ctx.start_cycle + budget,
            };
            return Err(abort);
        }
        self.cycle += warmup + measure;

        // Deterministic reduction: the tiles' records (scalars and
        // idle histograms) are appended in ascending shard order,
        // then take the per-router rows the tiles filled in place.
        let vcs = self.cfg.vcs;
        let mut records = windows
            .into_iter()
            .map(|w| w.stats.unwrap_or_else(|| tile_stats(w.activity.len(), vcs)));
        let mut merged = records.next().expect("at least one tile");
        for record in records {
            merged.append(record);
        }
        merged.router_activity = activity;
        merged.gating = gating;
        merged.measured_cycles = measure;
        // The per-tile stats cannot see the whole mesh, so the
        // network-wide degradation floor is stamped here, once.
        if let Some(f) = self.faults.as_ref() {
            merged.min_reachable_fraction =
                merged.min_reachable_fraction.min(f.min_reachable_fraction);
        }
        // Every run checks the credit and flit invariants once here, in
        // every build: O(routers × lanes) per run (the serial path
        // re-checks credits every cycle in debug builds too).
        self.check_credit_conservation();
        self.check_flit_conservation();
        Ok(merged)
    }
}

/// One worker's whole run: the cycle loop over its tiles (with
/// `windows[k]` tile `group[k]`'s share of the result), one phase call
/// per tile at a time, with the phase barrier between compute and
/// exchange. A single-worker run holds every tile in one group behind
/// a 1-participant (no-op) barrier — same code path, no
/// synchronization cost.
fn run_worker(group: &mut [Tile], windows: &mut [Window<'_>], ctx: &RunCtx<'_>) {
    let _guard = PoisonGuard(ctx.barrier);
    let total = ctx.warmup + ctx.measure;
    let budget = ctx.cfg.cycle_budget;
    if ctx.cfg.kernel == SimKernel::Engine {
        // Fresh schedules per run: each wheel's window starts at the
        // run's first cycle; the first compute phase arms every router
        // against the then-current fault epoch.
        for t in group.iter_mut() {
            t.reset_events(ctx);
        }
    }
    // Mailboxes and report slots flip parity once per *executed*
    // cycle: a leap may skip any number of cycles, and the
    // double-buffering argument needs consecutive steps to alternate.
    let mut parity = 0;
    let mut i = 0;
    let completed = loop {
        if i >= total {
            break true;
        }
        // In-engine deadline: the budget predicate is a pure function
        // of the loop index, so every worker evaluates it identically
        // at the top of the same iteration and all stop together
        // without another barrier. The lowest shard records the abort.
        if budget != 0 && i >= budget {
            if group[0].shard == 0 {
                let mut slot = ctx.abort.lock().expect("abort slot poisoned");
                *slot = Some(SimAbort::CycleBudgetExceeded {
                    budget,
                    requested: total,
                });
            }
            break false;
        }
        let cycle = ctx.start_cycle + i + 1;
        if i == ctx.warmup {
            // Measurement boundary: reset idle runs and gating state so
            // warmup does not pollute the measurement. Quiescent
            // routers only need their skip markers moved to the
            // boundary — materializing their pending idle cycles would
            // be discarded by the resets anyway. Tile-local state only,
            // so no barrier is needed.
            for (t, w) in group.iter_mut().zip(windows.iter_mut()) {
                t.open_measurement(ctx, ctx.start_cycle + ctx.warmup, w);
            }
        }
        // Fault-epoch boundaries apply *between* cycles, in three
        // barrier-separated passes, so both kernels and every shard ×
        // thread count see exactly the same network at the start of
        // the cycle. The pending test is a pure function of
        // (schedule, applied-epoch count, cycle) — identical in every
        // worker, so all workers take the same barriers.
        if let Some(sched) = ctx.faults {
            while sched.pending(group[0].epoch, cycle) {
                // Pass 1: each shard scans its own routers and source
                // queues and nominates doomed packets into its slot.
                for t in group.iter_mut() {
                    t.fault_collect(ctx, sched);
                }
                ctx.barrier.wait();
                // Pass 2: each shard purges the union of all
                // nominations from its own state and publishes the
                // credits freed for (possibly remote) upstream lanes.
                for (t, w) in group.iter_mut().zip(windows.iter_mut()) {
                    t.fault_purge(ctx, sched, w);
                }
                ctx.barrier.wait();
                // Pass 3: each shard applies the returns for lanes it
                // owns and advances its epoch counter.
                for t in group.iter_mut() {
                    t.fault_apply_credits(ctx);
                }
                ctx.barrier.wait();
            }
        }
        for (t, w) in group.iter_mut().zip(windows.iter_mut()) {
            t.phase_compute(ctx, cycle, parity, w);
        }
        ctx.barrier.wait();
        let net = network_report(ctx.slots, parity);
        let mut abort = false;
        for (t, w) in group.iter_mut().zip(windows.iter_mut()) {
            abort |= t.phase_exchange(ctx, cycle, parity, &net, w);
        }
        if cfg!(debug_assertions) && ctx.workers == 1 && ctx.cfg.kernel == SimKernel::Engine {
            // Debug oracle for the incremental credit counters after
            // every cycle. It reads across tiles, so it only runs when
            // one worker owns every tile.
            check_credits(group, ctx.tile_map, &ctx.mesh, ctx.cfg);
        }
        if abort {
            // The watchdog fired network-wide; the designated shard
            // recorded the diagnostic. Leave without touching the
            // barrier again so no worker waits on a peer that is gone.
            break false;
        }
        parity ^= 1;
        i += 1;
        if let Some(target) = leap_target(ctx, &net, i) {
            if group[0].shard == 0 {
                group[0].cycles_leapt += target - i;
                group[0].leaps += 1;
            }
            i = target;
        }
    };
    for (t, w) in group.iter_mut().zip(windows.iter_mut()) {
        if completed {
            t.close_run(ctx, ctx.start_cycle + total, w);
        } else {
            t.freeze(ctx, w);
        }
    }
}
