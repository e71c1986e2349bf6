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
//!     ([`Router::step_fast`]); each input lane's front flit is routed
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
//!     ([`crate::topology::TileMap`]). Each band owns a contiguous
//!     slice of every per-router SoA slab (buffers, lanes, credits, RNG
//!     streams, source queues), its own worklist bitset and its own
//!     wheel, and bands step concurrently on worker threads
//!     ([`MeshConfig::shards`] / [`MeshConfig::threads`] — pure
//!     geometry: neither changes a result).
//! * [`SimKernel::Reference`] — the dense oracle: one tile, every
//!   router and every lane stepped every cycle (the same step function
//!   with every lane live), injection by a per-cycle scan of every
//!   source, and the credit state rebuilt O(5·V·n) per cycle from the
//!   live buffers. Simple, obviously correct, slow.
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
//! * Ejection order is validated on the fly: every packet must arrive
//!   at its destination head-first, contiguously, with exactly
//!   `packet_len_flits` flits. The check is always on in debug builds
//!   and behind [`MeshConfig::validate_ejection`] in release, so sweep
//!   binaries do not pay per-flit assertion cost.
//! * The per-cycle scratch (transfers, worklist, wheel) is reused
//!   across cycles and [`Router::step_fast`] is
//!   allocation-free, so the steady-state loop performs no heap
//!   allocation.

use crate::fault::{FaultPlan, FaultSchedule};
use crate::router::{PortLane, RouteTarget, Router, MAX_VCS};
use crate::shard::{boundary_mailboxes, BoundaryMsg};
use crate::sleep::{SleepConfig, SleepFsm};
use crate::stats::{IdleBank, NetworkStats};
use crate::sync::{Mailboxes, PoisonGuard, ShardSlots, SlotReport, SpinBarrier};
use crate::topology::{Direction, FaultMap, Mesh, NeighborTable, RouteTable, TileMap};
use crate::traffic::{
    packet_id, packet_source, Flit, GapSampler, InjectionProcess, SourcePacket, TrafficPattern,
    MAX_ROUTERS,
};
use crate::wheel::TimeWheel;
use lnoc_power::gating::{GatingCounters, GatingPolicy};
use lnoc_power::router::RouterActivity;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Which cycle-loop kernel executes the simulation.
///
/// Both kernels produce bit-identical [`NetworkStats`] for the same
/// configuration; they differ only in speed. `Reference` is retained as
/// the oracle the engine is tested against (the same playbook as the
/// circuit engine's `SolverKind::Reference`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimKernel {
    /// The production engine: a worklist of routers that can do work,
    /// time-wheel injection that leaps the clock over dead spans, and
    /// row-band tiles stepped by parallel workers (see the module
    /// docs). Bit-identical to `Reference` for every shard and thread
    /// count.
    #[default]
    Engine,
    /// Dense oracle: one tile, every router stepped every cycle,
    /// injection by a per-cycle scan, credit state rebuilt O(5·V·n)
    /// per cycle.
    Reference,
}

impl SimKernel {
    /// Short name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            SimKernel::Engine => "engine",
            SimKernel::Reference => "reference",
        }
    }
}

/// Why a simulation run stopped early instead of completing its
/// configured cycles.
///
/// Produced by [`Simulation::try_run`]; [`Simulation::run`] panics with
/// the [`std::fmt::Display`] rendering instead (the historical
/// behaviour, still what CI deadlock-regression tests pin). Every abort
/// is deterministic — a pure function of the configuration — so a
/// supervisor can safely record it as a permanent, non-retryable
/// failure of that configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimAbort {
    /// The zero-progress watchdog fired: flits were buffered and, for
    /// [`MeshConfig::watchdog_cycles`] consecutive cycles, no flit
    /// moved and no credit returned.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Flits buffered network-wide when it fired.
        buffered: u64,
        /// The full per-lane diagnostic (router / port / VC / credit
        /// report, fault-map classification) — exactly the text the
        /// panicking path has always printed.
        diagnostic: String,
    },
    /// The run would exceed [`MeshConfig::cycle_budget`]: the worker
    /// loop stopped at the budget boundary. The check is a pure
    /// function of the loop index, so every worker, shard and kernel
    /// stops at the same cycle.
    CycleBudgetExceeded {
        /// The configured budget ([`MeshConfig::cycle_budget`]).
        budget: u64,
        /// Cycles the run was asked to execute (warmup + measure).
        requested: u64,
    },
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The diagnostic already carries cycle and buffered-flit
            // context; printing it verbatim keeps the rendered text
            // identical to the historical panic message.
            SimAbort::Deadlock { diagnostic, .. } => f.write_str(diagnostic),
            SimAbort::CycleBudgetExceeded { budget, requested } => write!(
                f,
                "cycle budget exceeded: run of {requested} cycles stopped at the \
                 configured budget of {budget} cycles"
            ),
        }
    }
}

impl std::error::Error for SimAbort {}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Mesh width.
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Mean packet injection probability per node per cycle.
    pub injection_rate: f64,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Flits per packet.
    pub packet_len_flits: usize,
    /// Input buffer depth in flits, **per virtual channel**.
    pub buffer_depth: usize,
    /// Virtual channels per port (1..=[`MAX_VCS`]). `1` reproduces the
    /// pre-VC single-FIFO router bit-for-bit; `≥ 2` enables dateline
    /// VC switching on a torus (deadlock-free DOR).
    pub vcs: usize,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Torus wraparound links (see [`Mesh`] for the deadlock caveat at
    /// `vcs == 1`).
    pub wrap: bool,
    /// Temporal injection process (Bernoulli or bursty ON–OFF).
    pub injection: InjectionProcess,
    /// In-loop power gating of router output VC lanes; `None`
    /// simulates ungated hardware (and skips all gating bookkeeping).
    pub gating: Option<SleepConfig>,
    /// Cycle-loop kernel (see [`SimKernel`]).
    pub kernel: SimKernel,
    /// Run the per-flit in-order ejection validation in release builds
    /// too. Debug builds (and therefore `cargo test`) always validate;
    /// release sweeps default to skipping the assertion cost.
    pub validate_ejection: bool,
    /// Maximum packets a node's source queue holds (≥ 1). Offers made
    /// while the queue is full are rejected and counted in
    /// [`NetworkStats::packets_dropped_at_source`] — without the cap, a
    /// saturated network grows source queues (and memory) without
    /// bound.
    pub source_queue_cap: usize,
    /// Zero-progress watchdog: if flits are buffered in the network
    /// and, for this many consecutive cycles, no flit moves and no
    /// credit returns, the run aborts with a per-lane diagnostic
    /// (router, port, VC, owner) instead of spinning forever — so
    /// deadlock regressions fail fast in CI. [`Simulation::try_run`]
    /// returns the diagnostic as [`SimAbort::Deadlock`];
    /// [`Simulation::run`] panics with the same text. `0` disables
    /// the watchdog.
    pub watchdog_cycles: u64,
    /// Escape hatch for deadlock debugging: when set, the watchdog
    /// panics at the fire site inside the worker (the historical
    /// behaviour) even under [`Simulation::try_run`], so a test or a
    /// debugger sees the stack of the wedged worker instead of a
    /// returned error. The panic payload is the same diagnostic text
    /// either way.
    pub panic_on_deadlock: bool,
    /// Upper bound on cycles one `run`/`try_run` call may execute
    /// (`0` = unlimited). If `warmup + measure` exceeds the budget the
    /// worker loop stops at the boundary and the run aborts with
    /// [`SimAbort::CycleBudgetExceeded`]. The check is part of the
    /// deterministic cycle loop — a pure function of the loop index —
    /// so all kernels, shard counts and thread counts abort
    /// identically; orchestrators use it as the in-engine half of a
    /// per-point deadline (the engine itself stays wall-clock-free).
    pub cycle_budget: u64,
    /// Tile count for [`SimKernel::Engine`] (`0` = auto: one tile per
    /// available core on meshes of at least
    /// [`MeshConfig::SHARD_MIN_ROUTERS`] routers, one tile below).
    /// Clamped to the mesh height (every tile band owns at least one
    /// row). **Never changes results**: statistics are bit-identical
    /// for every shard count — the count only trades parallelism
    /// against per-tile work. The reference always runs one tile.
    pub shards: usize,
    /// Worker threads for [`SimKernel::Engine`] (`0` = auto: one per
    /// available core, at most one per shard). Purely an execution
    /// detail — `shards` fixes the tile geometry and the results;
    /// threads only decide how many tiles step concurrently, so
    /// `--threads 1` replays an 8-shard run bit-for-bit on one core.
    pub threads: usize,
    /// Deterministic fault schedule ([`FaultPlan`]); `None` simulates
    /// a fault-free network and skips every fault check, leaving all
    /// statistics bit-for-bit identical to builds without the fault
    /// layer. The plan expands to the same event sequence for every
    /// kernel and every shard × thread count, so faulted runs stay as
    /// reproducible as healthy ones. Faulted meshes are capped at
    /// [`FaultMap::MAX_ROUTERS`] routers.
    pub faults: Option<FaultPlan>,
    /// Force the pre-debt *eager* measurement-boundary behaviour: at
    /// the boundary, reset every router's idle runs, sleep FSMs and
    /// gating counters up front instead of deferring untouched routers'
    /// settlement to first touch or close-out. Results are bit-identical
    /// either way — this switch exists so the lazy-settlement property
    /// tests can run the eager path as the oracle. Leave `false`
    /// (deferred) everywhere else: eager settlement costs O(routers) at
    /// the boundary, which at a million routers dwarfs the engine's
    /// whole leaping cycle loop.
    pub eager_settlement: bool,
}

impl MeshConfig {
    /// Default [`MeshConfig::source_queue_cap`]: deep enough that drops
    /// only happen under sustained saturation.
    pub const DEFAULT_SOURCE_QUEUE_CAP: usize = 64;

    /// Default [`MeshConfig::watchdog_cycles`]: far above any
    /// legitimate zero-progress stretch (the longest is a network-wide
    /// simultaneous wake, bounded by the wake latency), far below
    /// "spins forever".
    pub const DEFAULT_WATCHDOG_CYCLES: u64 = 100_000;

    /// Router count from which `shards = 0` picks one tile per
    /// available core (64×64). Smaller meshes run one tile: there the
    /// per-tile overhead outweighs the parallelism.
    pub const SHARD_MIN_ROUTERS: usize = 4096;
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            width: 4,
            height: 4,
            injection_rate: 0.05,
            pattern: TrafficPattern::UniformRandom,
            packet_len_flits: 4,
            buffer_depth: 4,
            vcs: 1,
            seed: 1,
            wrap: false,
            injection: InjectionProcess::Bernoulli,
            gating: None,
            kernel: SimKernel::Engine,
            validate_ejection: false,
            source_queue_cap: MeshConfig::DEFAULT_SOURCE_QUEUE_CAP,
            watchdog_cycles: MeshConfig::DEFAULT_WATCHDOG_CYCLES,
            panic_on_deadlock: false,
            cycle_budget: 0,
            shards: 0,
            threads: 0,
            faults: None,
            eager_settlement: false,
        }
    }
}

/// Builds router `rid`'s private RNG stream for a run seeded with
/// `seed`.
///
/// The golden-ratio multiply keeps the expanded seed distinct per
/// router (injective in `rid` for a fixed run seed), and
/// `seed_from_u64`'s SplitMix64 expansion decorrelates the resulting
/// generator states. Because each node only ever draws from its own
/// stream, its draw sequence does not depend on other nodes, on visit
/// order, or on shard geometry.
pub(crate) fn node_rng(seed: u64, rid: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (rid as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15))
}

/// The engine steps every lane of its active routers on each cycle
/// that is a multiple of this, so a lane left behind by lane-granular
/// stepping never lags its router by more than 2³¹ cycles — well inside
/// the 32-bit watermarks ([`PortLane::settled`]).
const WATERMARK_REFRESH: u64 = 1 << 31;

/// Per-destination ejection progress, for on-the-fly validation of
/// in-order, contiguous packet delivery.
#[derive(Debug, Clone, Copy, Default)]
struct EjectProgress {
    current: Option<(u64, usize)>,
}

/// One flit crossing a link (or ejecting) this cycle, recorded during
/// router stepping and applied afterwards so a flit moves one hop per
/// cycle. Carries the input lane it was popped from so the engine can
/// return the freed slot's credit to the upstream router.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: u32,
    input: Direction,
    input_vc: u8,
    output: Direction,
    flit: Flit,
}

const _: () = assert!(std::mem::size_of::<Transfer>() == 32);

/// A running mesh simulation.
///
/// All per-router state lives in network-wide SoA slabs ordered by
/// router id. Because the tile partition is made of full-width row
/// bands ([`TileMap`]), every shard owns a *contiguous* slice of every
/// slab — the sharded runner carves the slabs with `split_at_mut` and
/// hands each worker a `ShardView` of disjoint slices, no index
/// translation and no locks on the hot path.
#[derive(Debug)]
pub struct Simulation {
    cfg: MeshConfig,
    /// The kernel executing the loop.
    kernel: SimKernel,
    mesh: Mesh,
    routers: Vec<Router>,
    /// Source queues: packet descriptors wait here until the local port
    /// accepts; flits are synthesized on acceptance.
    source_queues: Vec<VecDeque<SourcePacket>>,
    /// Per-node ON/OFF state of the bursty injection process.
    source_on: Vec<bool>,
    /// Per-node renewal slot of the Bernoulli injection process: the
    /// absolute cycle of the node's next scheduled arrival
    /// (`u64::MAX` = never — rate 0, or a bursty configuration, which
    /// keeps per-cycle draws instead). Advanced one geometric gap draw
    /// per arrival ([`GapSampler`]), so idle sources cost no RNG work
    /// at all.
    next_offer: Vec<u64>,
    /// Per-router RNG streams (see [`node_rng`]).
    rngs: Vec<StdRng>,
    /// Geometric gap sampler for the Bernoulli renewal chain, built
    /// once from the ON rate (unused by bursty configurations).
    gap: GapSampler,
    /// Per-source packet sequence numbers (see [`packet_id`]).
    next_seq: Vec<u64>,
    cycle: u64,
    visit_reversed: bool,
    /// Credit counters, `router * 5V + port * V + vc` — free slots in
    /// the downstream input VC buffer reachable through that output
    /// lane (0 for edge ports without a link; Local lanes unused, the
    /// ejection port always sinks). The reference rebuilds them every
    /// cycle; the engine maintains them incrementally on departure
    /// (consume) and downstream pop (return).
    credits: Vec<u32>,
    eject: Vec<EjectProgress>,

    // ---- SoA per-lane state (indexed `router * 5V + port * V + vc`) ----
    /// Consecutive idle cycles per output VC lane.
    idle_run: Vec<u64>,
    /// Sleep FSM per output VC lane.
    fsm: Vec<SleepFsm>,
    /// Gating counters per router (all lanes summed).
    counters: Vec<GatingCounters>,
    /// Settlement watermark per output VC lane ([`PortLane::settled`]):
    /// the low 32 bits of the last cycle the lane's idle run, FSM and
    /// counters account for. A router step visits only live lanes;
    /// the rest catch up from here.
    settled: Vec<u32>,
    /// Last cycle a (now quiescent) router was stepped or accounted
    /// through; the gap to the current cycle is its pending bulk-idle
    /// accounting, and it anchors its lanes' watermarks.
    last_stepped: Vec<u64>,

    // ---- Shared immutable lookup state ----
    neighbors: NeighborTable,
    routes: Option<RouteTable>,
    /// Expanded fault schedule (`None` when [`MeshConfig::faults`] is
    /// unset or the plan produces no events). Epochs are applied at
    /// cycle boundaries by the three-pass reap in [`run_worker`];
    /// `ShardScratch::epoch` tracks how many each tile has applied.
    faults: Option<FaultSchedule>,
    /// Cached `(x, y)` per router id, so the hot route closure's
    /// dateline-class computation ([`Mesh::hop_vc_at`]) performs no
    /// divisions — the same treatment [`NeighborTable`] gives
    /// neighbour lookup.
    xy: Vec<(u16, u16)>,

    // ---- Tile partition ----
    /// The tile partition (a single tile for the reference).
    tiles: TileMap,
    /// Per-shard worklists, scratch and counters (one entry per tile).
    scratch: Vec<ShardScratch>,
    /// Resolved worker-thread budget.
    threads: usize,
}

/// Per-shard persistent state: the tile's worklist bitset, per-cycle
/// scratch, mailbox staging buffers, and the tile's share of the
/// network-wide conservation counters.
#[derive(Debug)]
struct ShardScratch {
    /// Shard index.
    shard: usize,
    /// First global router id of the tile.
    base: usize,
    /// Routers in the tile.
    len: usize,
    /// The tile's worklist as a bitset over *local* router indices
    /// (bit `lr` set ⇔ router `base + lr` steps this cycle). A bitset
    /// keeps the traversal in router-index order — cache-linear over
    /// the tile's slice of the router array and the SoA lanes.
    active_bits: Vec<u64>,
    /// Reused per-cycle scratch: departures waiting to be applied.
    transfers: Vec<Transfer>,
    /// Staged outgoing boundary messages, parallel to
    /// `Mailboxes::outboxes(shard)`.
    outgoing: Vec<Vec<BoundaryMsg>>,
    /// Receiver-side drain buffers, parallel to
    /// `Mailboxes::inboxes(shard)`.
    incoming: Vec<Vec<BoundaryMsg>>,
    /// Flits injected by this tile's sources since construction.
    flits_injected: u64,
    /// Flits still waiting in this tile's source queues (maintained
    /// incrementally; the O(n) scan is debug-asserted against it).
    queued_flits: u64,
    /// Flits buffered in this tile's routers (maintained
    /// incrementally: inject drain +1, ejection −1, boundary departure
    /// −1, boundary arrival +1).
    buffered_flits: u64,
    /// Consecutive cycles with buffered flits but zero network-wide
    /// progress — every shard computes the same value from the shared
    /// progress slots, so the watchdog decision is global and
    /// deterministic.
    stagnant_cycles: u64,
    /// Router-step executions in this tile (the quiescence tests
    /// assert an all-idle run performs none).
    routers_stepped: u64,
    /// Fault epochs this tile has applied — advanced in lockstep by
    /// the three-pass reap, so every shard agrees on the active
    /// [`FaultMap`] at every cycle.
    epoch: usize,
    /// Flits discarded by fault reaping since construction (persists
    /// across runs, like `flits_injected` — together they keep flit
    /// conservation exact: injected = delivered + in flight +
    /// dropped).
    flits_dropped: u64,
    /// This tile's statistics for the current measurement window —
    /// scalar counters and tile-sized, locally indexed idle histograms
    /// (see [`tile_stats`]) — merged into the run result in ascending
    /// shard order via [`NetworkStats::append`].
    stats: Option<NetworkStats>,
    /// The engine's injection schedule (`None` on the reference).
    events: Option<Box<EventState>>,
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
    /// sleep FSMs and gating counters (their *settlement debt*), paid
    /// on first touch ([`ShardView::activate`]), at close-out
    /// ([`ShardView::close_run`]) or when an abort freezes the run.
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
    /// Longest deferred span settled on touch (cycles between the
    /// watermark and the settlement).
    max_debt_span: u64,
}

/// One tile's injection schedule: one pending arrival per source
/// router, parked on a calendar-queue [`TimeWheel`].
///
/// Two modes, by injection process:
///
/// * **Bernoulli** — the wheel mirrors the shared renewal chain
///   (`Simulation::next_offer`): each router's next arrival cycle was
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
///   are per-router ([`node_rng`]), consuming them ahead of wall-time
///   is unobservable; predictions never cross a fault-epoch boundary
///   (the aliveness map is only constant within one), so every epoch
///   re-arms the whole population.
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

/// One worker's mutable window onto a tile: disjoint slices of every
/// per-router slab, plus the tile's scratch. Local index `lr`
/// addresses global router `base + lr`; lane arrays are indexed
/// `lr * 5V + port * V + vc`.
#[derive(Debug)]
struct ShardView<'a> {
    base: usize,
    len: usize,
    scratch: &'a mut ShardScratch,
    routers: &'a mut [Router],
    source_queues: &'a mut [VecDeque<SourcePacket>],
    source_on: &'a mut [bool],
    next_offer: &'a mut [u64],
    rngs: &'a mut [StdRng],
    next_seq: &'a mut [u64],
    credits: &'a mut [u32],
    eject: &'a mut [EjectProgress],
    idle_run: &'a mut [u64],
    fsm: &'a mut [SleepFsm],
    counters: &'a mut [GatingCounters],
    settled: &'a mut [u32],
    last_stepped: &'a mut [u64],
    /// This tile's rows of the run result's per-router activity and
    /// gating counters, written only while the measurement window is
    /// open (`scratch.stats` is `Some`).
    activity: &'a mut [RouterActivity],
    window_gating: &'a mut [GatingCounters],
}

/// One shard's contribution to a fault-epoch boundary, exchanged
/// through a mutex (cold path: faults fire a handful of times per
/// run, never per cycle). Pass 1 fills `doomed` (sorted packet ids
/// nominated by this shard's scan); pass 2 reads every shard's
/// nominations and fills `credit_returns` (global lane index → count)
/// for slots freed in this tile whose upstream lane may live
/// elsewhere; pass 3 applies the returns lane-owner-side.
#[derive(Debug, Default)]
struct FaultReap {
    doomed: Vec<u64>,
    credit_returns: Vec<(u64, u32)>,
}

/// Shared, immutable context of one `run` call (everything a worker
/// needs beyond its own [`ShardView`]).
#[derive(Debug)]
struct RunCtx<'a> {
    cfg: &'a MeshConfig,
    kernel: SimKernel,
    mesh: Mesh,
    vcs: usize,
    lanes: usize,
    neighbors: &'a NeighborTable,
    routes: Option<&'a RouteTable>,
    xy: &'a [(u16, u16)],
    tiles: &'a TileMap,
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

impl Simulation {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (empty mesh, a mesh of more
    /// than 2²⁴ − 1 routers — packet ids carry the source in 24 bits —
    /// zero-length packets, zero buffers, a VC count outside
    /// `1..=`[`MAX_VCS`], a zero source-queue cap, an
    /// [`GatingPolicy::Oracle`] in-loop policy — the oracle needs future
    /// knowledge and only exists offline — or a bursty process with
    /// zero mean dwell times).
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(
            cfg.width >= 2 && cfg.height >= 2,
            "mesh must be at least 2×2"
        );
        assert!(
            cfg.width.saturating_mul(cfg.height) <= MAX_ROUTERS,
            "meshes are capped at {MAX_ROUTERS} routers (packet ids carry \
             the source router in 24 bits)"
        );
        assert!(cfg.packet_len_flits >= 1, "packets need at least one flit");
        assert!(cfg.buffer_depth >= 1, "buffers need at least one slot");
        assert!(
            (1..=MAX_VCS).contains(&cfg.vcs),
            "vcs must be in 1..={MAX_VCS}"
        );
        assert!(
            cfg.source_queue_cap >= 1,
            "source queues need room for at least one packet"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.injection_rate),
            "injection rate is a probability"
        );
        if let Some(gating) = &cfg.gating {
            assert!(
                gating.policy != GatingPolicy::Oracle,
                "the Oracle policy needs future knowledge; it exists only offline"
            );
        }
        if let InjectionProcess::BurstyOnOff {
            mean_burst,
            mean_idle,
        } = cfg.injection
        {
            assert!(
                mean_burst >= 1 && mean_idle >= 1,
                "bursty dwell times must be at least one cycle"
            );
            let duty = mean_burst as f64 / (mean_burst + mean_idle) as f64;
            assert!(
                cfg.injection_rate <= duty,
                "injection rate {} exceeds the ON duty cycle {duty:.3}; the bursty \
                 source saturates and cannot offer the configured load",
                cfg.injection_rate
            );
        }
        let mesh = Mesh {
            width: cfg.width,
            height: cfg.height,
            wrap: cfg.wrap,
        };
        let n = mesh.len();
        let v = cfg.vcs;
        let lanes = 5 * v;
        let kernel = cfg.kernel;
        if cfg.faults.is_some() {
            assert!(
                n <= FaultMap::MAX_ROUTERS,
                "faulted meshes are capped at {} routers (the fault layer \
                 keeps per-destination BFS routing tables)",
                FaultMap::MAX_ROUTERS
            );
        }
        // Expanded once, up front: the schedule is a pure function of
        // (plan, mesh), shared read-only by every worker.
        let faults = cfg
            .faults
            .as_ref()
            .and_then(|plan| FaultSchedule::build(plan, &mesh));
        // Shard geometry: the reference always runs one tile; the
        // engine defaults to one tile per available core on big meshes
        // and one tile on small ones, clamped so every tile band owns
        // at least one row. The shard count never changes results —
        // only how work is partitioned.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let (shard_count, threads) = match kernel {
            SimKernel::Engine => {
                let s = match cfg.shards {
                    0 if n >= MeshConfig::SHARD_MIN_ROUTERS => cores,
                    0 => 1,
                    s => s,
                };
                let s = s.clamp(1, cfg.height);
                let t = if cfg.threads > 0 { cfg.threads } else { cores };
                (s, t.clamp(1, s))
            }
            SimKernel::Reference => (1, 1),
        };
        let tiles = TileMap::new(&mesh, shard_count);
        // Initial credits: the full per-VC depth wherever a link
        // exists, zero on edge ports (so `credit > 0` doubles as the
        // link-existence check in the hot readiness closure).
        let mut credits = vec![0u32; n * lanes];
        for rid in 0..n {
            for d in &Direction::ALL[..4] {
                if mesh.neighbor(rid, *d).is_some() {
                    for vc in 0..v {
                        credits[rid * lanes + d.index() * v + vc] = cfg.buffer_depth as u32;
                    }
                }
            }
        }
        let scratch: Vec<ShardScratch> = (0..shard_count)
            .map(|s| {
                let range = tiles.router_range(s);
                ShardScratch {
                    shard: s,
                    base: range.start,
                    len: range.len(),
                    active_bits: vec![0; range.len().div_ceil(64)],
                    transfers: Vec::new(),
                    outgoing: vec![Vec::new(); tiles.neighbors(s).len()],
                    incoming: vec![Vec::new(); tiles.neighbors(s).len()],
                    flits_injected: 0,
                    queued_flits: 0,
                    buffered_flits: 0,
                    stagnant_cycles: 0,
                    routers_stepped: 0,
                    epoch: 0,
                    flits_dropped: 0,
                    stats: None,
                    events: (kernel == SimKernel::Engine).then(|| {
                        let bursty = matches!(cfg.injection, InjectionProcess::BurstyOnOff { .. });
                        Box::new(EventState::new(range.len(), bursty))
                    }),
                    cycles_leapt: 0,
                    events_processed: 0,
                    leaps: 0,
                    boundary: None,
                    routers_settled: 0,
                    settle_ops: 0,
                    max_debt_span: 0,
                }
            })
            .collect();
        // The Bernoulli renewal chain: each live source's first arrival
        // is drawn at construction — the first draw on its stream, in
        // both kernels — and re-drawn once per subsequent arrival.
        let on_rate = cfg.injection.on_rate(cfg.injection_rate);
        let gap = GapSampler::new(on_rate);
        let mut rngs: Vec<StdRng> = (0..n).map(|rid| node_rng(cfg.seed, rid)).collect();
        let next_offer: Vec<u64> = match cfg.injection {
            InjectionProcess::Bernoulli if on_rate > 0.0 => {
                rngs.iter_mut().map(|rng| gap.sample(rng)).collect()
            }
            _ => vec![u64::MAX; n],
        };
        let sim = Simulation {
            mesh,
            kernel,
            routers: (0..n)
                .map(|id| Router::with_gating(id, cfg.buffer_depth, v, cfg.gating))
                .collect(),
            source_queues: vec![VecDeque::new(); n],
            source_on: vec![true; n],
            next_offer,
            rngs,
            gap,
            next_seq: vec![0; n],
            cycle: 0,
            visit_reversed: false,
            credits,
            eject: vec![EjectProgress::default(); n],
            idle_run: vec![0; n * lanes],
            fsm: vec![SleepFsm::default(); n * lanes],
            counters: vec![GatingCounters::default(); n],
            settled: vec![0; n * lanes],
            last_stepped: vec![0; n],
            neighbors: NeighborTable::new(&mesh),
            xy: (0..n)
                .map(|rid| {
                    let (x, y) = mesh.coords(rid);
                    (x as u16, y as u16)
                })
                .collect(),
            routes: (kernel != SimKernel::Reference)
                .then(|| RouteTable::build(&mesh))
                .flatten(),
            faults,
            tiles,
            scratch,
            threads,
            cfg,
        };
        // Every router starts empty, hence quiescent: the worklists
        // begin empty and fill from injection. Even gated networks
        // need no initial members — an idle lane's walk to sleep is
        // replayed in closed form when the router first activates.
        debug_assert!(sim
            .scratch
            .iter()
            .all(|s| s.active_bits.iter().all(|&w| w == 0)));
        sim
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The kernel executing the loop.
    pub fn kernel(&self) -> SimKernel {
        self.kernel
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.cfg.vcs
    }

    /// The number of tile shards the simulation is partitioned into
    /// (1 for the reference).
    pub fn shards(&self) -> usize {
        self.tiles.shards()
    }

    /// The resolved worker-thread budget (1 for the reference).
    /// Purely an execution detail: results are identical for any
    /// thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lanes per router (`5 * vcs`).
    fn lanes(&self) -> usize {
        5 * self.cfg.vcs
    }

    /// Routers in the current worklists — the ones the next cycle will
    /// step. The reference steps everything, always.
    pub fn active_router_count(&self) -> usize {
        match self.kernel {
            SimKernel::Reference => self.mesh.len(),
            _ => self
                .scratch
                .iter()
                .flat_map(|s| s.active_bits.iter())
                .map(|w| w.count_ones() as usize)
                .sum(),
        }
    }

    /// Total router-step executions performed so far — the all-idle
    /// quiescence tests assert a settled network performs none.
    pub fn routers_stepped_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.routers_stepped).sum()
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
            .scratch
            .iter()
            .map(|s| s.queued_flits + s.buffered_flits)
            .sum();
        debug_assert_eq!(
            fast,
            self.in_flight_flits_scanned(),
            "incremental in-flight counters diverged from the full scan"
        );
        fast
    }

    /// The O(routers × lanes) scan the incremental counters replace —
    /// kept as the debug oracle.
    fn in_flight_flits_scanned(&self) -> u64 {
        let len = self.cfg.packet_len_flits;
        let queued: u64 = self
            .source_queues
            .iter()
            .flat_map(|q| q.iter())
            .map(|p| p.remaining_flits(len))
            .sum();
        let buffered: usize = self.routers.iter().map(Router::total_occupancy).sum();
        queued + buffered as u64
    }

    /// Flits injected since construction (all cycles, not just the
    /// measurement window). O(shards).
    pub fn flits_injected_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.flits_injected).sum()
    }

    /// Flits discarded by fault reaping since construction (all
    /// cycles, not just the measurement window). O(shards). With
    /// [`Simulation::flits_injected_total`] and
    /// [`Simulation::in_flight_flits`] this keeps flit conservation
    /// exact on faulted networks: measuring from cycle 0,
    /// `injected == delivered + in_flight + dropped_by_fault`.
    pub fn flits_dropped_by_fault_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.flits_dropped).sum()
    }

    /// Cycles the engine leapt over since construction — whole
    /// simulated cycles that executed no per-cycle work at all. Always
    /// zero on the reference. Performance telemetry only: the counter
    /// lives outside [`NetworkStats`] so kernel choice can never
    /// perturb the bit-identity contract.
    pub fn cycles_leapt_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.cycles_leapt).sum()
    }

    /// Injection-arrival events the engine's wheels fired since
    /// construction (one per accepted, dropped or unroutable offer, or
    /// dead-router miss). Always zero on the reference.
    pub fn events_processed_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.events_processed).sum()
    }

    /// Leaps the engine took since construction (jump count;
    /// [`Simulation::cycles_leapt_total`] is the cycle total). Always
    /// zero on the reference.
    pub fn leaps_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.leaps).sum()
    }

    /// Deferred measurement-boundary settlements paid since
    /// construction — on first touch, at close-out, or when an abort
    /// froze the run. Zero under eager settlement (the reference, or
    /// [`MeshConfig::eager_settlement`]). Performance
    /// telemetry only, like [`Simulation::cycles_leapt_total`].
    pub fn routers_settled_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.routers_settled).sum()
    }

    /// The subset of [`Simulation::routers_settled_total`] paid on
    /// *touch* (wheel-event fire or incoming flit) rather than in the
    /// close-out sweep — the per-leap settlement work.
    pub fn settle_ops_total(&self) -> u64 {
        self.scratch.iter().map(|s| s.settle_ops).sum()
    }

    /// Longest deferred span settled on touch since construction
    /// (cycles between the measurement watermark and the settlement).
    pub fn max_debt_span(&self) -> u64 {
        self.scratch
            .iter()
            .map(|s| s.max_debt_span)
            .max()
            .unwrap_or(0)
    }

    /// Asserts the credit-conservation invariant: for every link, the
    /// credits held by the upstream output lane plus the flits buffered
    /// in the downstream input VC equal the per-VC buffer depth.
    ///
    /// The engine re-checks this in debug builds at the end of every
    /// single-worker cycle and at the end of every run (so `cargo test`
    /// exercises it on every simulated configuration); this public
    /// entry point lets integration tests assert it at arbitrary
    /// observation points in release builds too. The reference
    /// rebuilds credits from the live buffers each cycle, making the
    /// invariant true by construction — calling this is then a no-op.
    pub fn check_credit_conservation(&self) {
        if self.kernel == SimKernel::Reference {
            return;
        }
        let lanes = self.lanes();
        assert_credits(
            &self.neighbors,
            self.mesh.len(),
            self.cfg.vcs,
            self.cfg.buffer_depth as u32,
            |rid, lane| self.credits[rid * lanes + lane],
            |rid, d, vc| self.routers[rid].occupancy(d, vc) as u32,
        );
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
    /// (Exception: with [`MeshConfig::panic_on_deadlock`] set, the
    /// watchdog still panics at the fire site inside the worker.)
    ///
    /// After an `Err` the simulation holds the network frozen at the
    /// abort cycle — consistent (flit and credit conservation hold,
    /// the clock advances to the cycle the loop reached, and every
    /// outstanding settlement debt is paid through its partial span)
    /// but mid-traffic; a further run resumes from the abort cycle,
    /// and callers wanting a clean state build a fresh [`Simulation`].
    ///
    /// At the measurement boundary the idle runs *and* the sleep FSMs
    /// are reset, so the idle histograms and the in-loop gating
    /// counters describe exactly the same intervals.
    ///
    /// Both kernels run through the same two-phase loop: the
    /// per-router slabs are carved into per-shard `ShardView`s (one
    /// for the reference) and each worker executes the cycle loop over
    /// its tiles, exchanging boundary traffic through the mailboxes at
    /// the phase barrier. Per-shard statistics are merged in ascending
    /// shard order.
    pub fn try_run(&mut self, warmup: u64, measure: u64) -> Result<NetworkStats, SimAbort> {
        let vcs = self.cfg.vcs;
        let lanes = self.lanes();
        let shard_count = self.tiles.shards();
        // Workers: cap the thread budget so every worker owns at least
        // one tile, and count the *actual* participants for the
        // barrier.
        let per_worker = shard_count.div_ceil(self.threads.max(1));
        let workers = shard_count.div_ceil(per_worker);
        let mail = boundary_mailboxes(&self.tiles);
        let slots: Vec<ShardSlots> = (0..shard_count).map(|_| ShardSlots::default()).collect();
        let fault_slots: Vec<Mutex<FaultReap>> =
            (0..shard_count).map(|_| Mutex::default()).collect();
        let barrier = SpinBarrier::new(workers);
        let abort_slot: Mutex<Option<SimAbort>> = Mutex::new(None);
        // The result's per-router rows, carved into tile slices below:
        // tiles write their own rows in place, so joining the tiles
        // never copies a per-router record.
        let n = self.mesh.len();
        let mut activity = vec![RouterActivity::default(); n];
        let mut window_gating = vec![GatingCounters::default(); n];

        let merged = {
            let Simulation {
                cfg,
                kernel,
                mesh,
                routers,
                source_queues,
                source_on,
                next_offer,
                rngs,
                gap,
                next_seq,
                cycle,
                visit_reversed,
                credits,
                eject,
                idle_run,
                fsm,
                counters,
                settled,
                last_stepped,
                neighbors,
                routes,
                faults,
                xy,
                tiles,
                scratch,
                ..
            } = self;
            let ctx = RunCtx {
                cfg: &*cfg,
                kernel: *kernel,
                mesh: *mesh,
                vcs,
                lanes,
                neighbors: &*neighbors,
                routes: routes.as_ref(),
                xy: xy.as_slice(),
                tiles: &*tiles,
                mail: &mail,
                slots: &slots,
                barrier: &barrier,
                workers,
                visit_reversed: *visit_reversed,
                warmup,
                measure,
                start_cycle: *cycle,
                deferred: *kernel == SimKernel::Engine && !cfg.eager_settlement,
                on_rate: cfg.injection.on_rate(cfg.injection_rate),
                gap: &*gap,
                faults: faults.as_ref(),
                fault_slots: &fault_slots,
                abort: &abort_slot,
            };

            // Carve every per-router slab into disjoint per-tile
            // slices (tiles are contiguous id ranges by construction).
            let mut views: Vec<ShardView<'_>> = Vec::with_capacity(shard_count);
            {
                let mut routers = routers.as_mut_slice();
                let mut source_queues = source_queues.as_mut_slice();
                let mut source_on = source_on.as_mut_slice();
                let mut next_offer = next_offer.as_mut_slice();
                let mut rngs = rngs.as_mut_slice();
                let mut next_seq = next_seq.as_mut_slice();
                let mut credits = credits.as_mut_slice();
                let mut eject = eject.as_mut_slice();
                let mut idle_run = idle_run.as_mut_slice();
                let mut fsm = fsm.as_mut_slice();
                let mut counters = counters.as_mut_slice();
                let mut settled = settled.as_mut_slice();
                let mut last_stepped = last_stepped.as_mut_slice();
                let mut activity = activity.as_mut_slice();
                let mut window_gating = window_gating.as_mut_slice();
                macro_rules! take {
                    ($rest:ident, $n:expr) => {{
                        let (head, tail) = $rest.split_at_mut($n);
                        $rest = tail;
                        head
                    }};
                }
                for sc in scratch.iter_mut() {
                    let len = sc.len;
                    views.push(ShardView {
                        base: sc.base,
                        len,
                        routers: take!(routers, len),
                        source_queues: take!(source_queues, len),
                        source_on: take!(source_on, len),
                        next_offer: take!(next_offer, len),
                        rngs: take!(rngs, len),
                        next_seq: take!(next_seq, len),
                        credits: take!(credits, len * lanes),
                        eject: take!(eject, len),
                        idle_run: take!(idle_run, len * lanes),
                        fsm: take!(fsm, len * lanes),
                        counters: take!(counters, len),
                        settled: take!(settled, len * lanes),
                        last_stepped: take!(last_stepped, len),
                        activity: take!(activity, len),
                        window_gating: take!(window_gating, len),
                        scratch: sc,
                    });
                }
            }

            if workers == 1 {
                run_worker(&mut views, &ctx);
            } else {
                std::thread::scope(|scope| {
                    for group in views.chunks_mut(per_worker) {
                        let ctx = &ctx;
                        scope.spawn(move || run_worker(group, ctx));
                    }
                });
            }
            drop(views);
            // An aborted run stops mid-cycle-loop: report it without
            // touching the per-shard stats (the network stays frozen
            // for post-mortem inspection, see `ShardView::freeze`) —
            // but the cycle counter advances to the cycle the loop
            // actually reached, so a later run resumes time
            // monotonically (in-flight flits keep injection stamps from
            // the aborted window).
            if let Some(abort) = abort_slot.lock().expect("abort slot poisoned").take() {
                *cycle = match &abort {
                    // The watchdog names the cycle it fired on; the
                    // budget check stops every worker at the top of
                    // iteration `budget`, so exactly `budget` cycles
                    // completed.
                    SimAbort::Deadlock { cycle: at, .. } => *at,
                    SimAbort::CycleBudgetExceeded { budget, .. } => ctx.start_cycle + budget,
                };
                return Err(abort);
            }
            *cycle += warmup + measure;

            // Deterministic reduction: the tiles' records (scalars and
            // idle histograms) are appended in ascending shard order,
            // then take the per-router rows the tiles filled in place.
            let mut tiles = scratch
                .iter_mut()
                .map(|sc| sc.stats.take().unwrap_or_else(|| tile_stats(sc.len, vcs)));
            let mut merged = tiles.next().expect("at least one tile");
            for tile in tiles {
                merged.append(tile);
            }
            merged.router_activity = activity;
            merged.gating = window_gating;
            merged.measured_cycles = measure;
            // The per-tile stats cannot see the whole mesh, so the
            // network-wide degradation floor is stamped here, once.
            if let Some(f) = faults.as_ref() {
                merged.min_reachable_fraction =
                    merged.min_reachable_fraction.min(f.min_reachable_fraction);
            }
            merged
        };
        // Threaded runs check the credit invariant once here (the
        // serial path re-checks it every cycle in debug builds).
        #[cfg(debug_assertions)]
        self.check_credit_conservation();
        Ok(merged)
    }
}

/// One worker's whole run: the cycle loop over its tiles, with the
/// phase barrier between compute and exchange. A single-worker run
/// holds every tile in one group behind a 1-participant (no-op)
/// barrier — same code path, no synchronization cost.
fn run_worker(group: &mut [ShardView<'_>], ctx: &RunCtx<'_>) {
    let _guard = PoisonGuard(ctx.barrier);
    let total = ctx.warmup + ctx.measure;
    let budget = ctx.cfg.cycle_budget;
    if ctx.kernel == SimKernel::Engine {
        // Fresh schedules per run: each wheel's window starts at the
        // run's first cycle; the first compute phase arms every router
        // against the then-current fault epoch.
        for v in group.iter_mut() {
            v.reset_events(ctx);
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
            if group[0].scratch.shard == 0 {
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
            for v in group.iter_mut() {
                v.open_measurement(ctx, ctx.start_cycle + ctx.warmup);
            }
        }
        // Fault-epoch boundaries apply *between* cycles, in three
        // barrier-separated passes, so both kernels and every shard ×
        // thread count see exactly the same network at the start of
        // the cycle. The pending test is a pure function of
        // (schedule, applied-epoch count, cycle) — identical in every
        // worker, so all workers take the same barriers.
        if let Some(sched) = ctx.faults {
            while sched.pending(group[0].scratch.epoch, cycle) {
                // Pass 1: each shard scans its own routers and source
                // queues and nominates doomed packets into its slot.
                for v in group.iter_mut() {
                    v.fault_collect(ctx, sched);
                }
                ctx.barrier.wait();
                // Pass 2: each shard purges the union of all
                // nominations from its own state and publishes the
                // credits freed for (possibly remote) upstream lanes.
                for v in group.iter_mut() {
                    v.fault_purge(ctx, sched);
                }
                ctx.barrier.wait();
                // Pass 3: each shard applies the returns for lanes it
                // owns and advances its epoch counter.
                for v in group.iter_mut() {
                    v.fault_apply_credits(ctx);
                }
                ctx.barrier.wait();
            }
        }
        for v in group.iter_mut() {
            v.phase_compute(ctx, cycle, parity);
        }
        ctx.barrier.wait();
        let net = network_report(ctx.slots, parity);
        let mut abort = false;
        for v in group.iter_mut() {
            abort |= v.phase_exchange(ctx, cycle, parity, &net);
        }
        if cfg!(debug_assertions) && ctx.workers == 1 && ctx.kernel == SimKernel::Engine {
            // Debug oracle for the incremental credit counters after
            // every cycle. It reads across tiles, so it only runs when
            // one worker owns every view.
            let view = |rid: usize| &group[ctx.tiles.shard_of(rid)];
            assert_credits(
                ctx.neighbors,
                ctx.mesh.len(),
                ctx.vcs,
                ctx.cfg.buffer_depth as u32,
                |rid, lane| view(rid).credits[(rid - view(rid).base) * ctx.lanes + lane],
                |rid, d, vc| view(rid).routers[rid - view(rid).base].occupancy(d, vc) as u32,
            );
        }
        if abort {
            // The watchdog fired network-wide; the designated shard
            // recorded (or panicked with) the diagnostic. Leave without
            // touching the barrier again so no worker waits on a peer
            // that is gone.
            break false;
        }
        parity ^= 1;
        i += 1;
        if let Some(target) = leap_target(ctx, &net, i) {
            if group[0].scratch.shard == 0 {
                group[0].scratch.cycles_leapt += target - i;
                group[0].scratch.leaps += 1;
            }
            i = target;
        }
    };
    for v in group.iter_mut() {
        if completed {
            v.close_run(ctx, ctx.start_cycle + total);
        } else {
            v.freeze(ctx);
        }
    }
}

/// The network-wide reduction of every shard's [`SlotReport`] for
/// `parity`: stalled only if every shard is (buffered flits summed),
/// the wake cycle minimized. Every worker computes it from the same
/// slots after the same barrier, so every decision taken from it is
/// global and deterministic.
fn network_report(slots: &[ShardSlots], parity: usize) -> SlotReport {
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
fn leap_target(ctx: &RunCtx<'_>, net: &SlotReport, i: u64) -> Option<u64> {
    // Loop index `j` executes cycle `start_cycle + j + 1`.
    let mut target = net.wake_at - ctx.start_cycle - 1;
    if i <= ctx.warmup {
        target = target.min(ctx.warmup);
    }
    (target > i).then_some(target)
}

/// A tile's record for one measurement window: the scalar counters
/// and the tile's idle-histogram rows (local indices). Its per-router
/// activity and gating vectors stay empty — the tile writes those rows
/// into its slices of the run result ([`ShardView::activity`],
/// [`ShardView::window_gating`]).
fn tile_stats(len: usize, vcs: usize) -> NetworkStats {
    NetworkStats {
        idle_histograms: IdleBank::new(len, 5 * vcs, NetworkStats::DEFAULT_IDLE_BINS),
        ..NetworkStats::new(0, vcs, NetworkStats::DEFAULT_IDLE_BINS)
    }
}

/// Asserts the credit-conservation invariant over routers
/// `0..routers`: every link lane's credits (`credit(router, lane)`)
/// plus the downstream input VC's occupancy (`occupancy(router, port,
/// vc)`) equal the per-VC depth, and edge lanes hold none.
fn assert_credits(
    neighbors: &NeighborTable,
    routers: usize,
    vcs: usize,
    depth: u32,
    credit: impl Fn(usize, usize) -> u32,
    occupancy: impl Fn(usize, Direction, usize) -> u32,
) {
    for rid in 0..routers {
        for d in &Direction::ALL[..4] {
            for vc in 0..vcs {
                let held = credit(rid, d.index() * vcs + vc);
                match neighbors.get(rid, *d) {
                    Some(next) => {
                        let buffered = occupancy(next, d.opposite(), vc);
                        assert_eq!(
                            held + buffered,
                            depth,
                            "credit conservation broken: router {rid} {d} vc {vc}: \
                             {held} credits + {buffered} buffered != depth {depth}"
                        );
                    }
                    None => assert_eq!(held, 0, "edge lane must hold no credits"),
                }
            }
        }
    }
}

/// The doom rule for a fault-epoch boundary: a packet with a flit at
/// router `at` bound for `dst` is doomed iff the new fault map changes
/// (or removes) any hop of its remaining path. Wormhole packets
/// cannot be rerouted mid-flight — the worm's flits are strung along
/// the old path, and bending the route at any hop would tear the worm
/// across two paths — so any divergence kills the whole packet and
/// its flits are purged network-wide.
///
/// `old = None` means healthy routing (the XY table), which every
/// kernel computes identically ([`RouteTable`] is XY by
/// construction), so the doomed set is kernel- and
/// shard-count-independent.
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

impl ShardView<'_> {
    /// Whether global router `rid` belongs to this tile.
    fn contains(&self, rid: usize) -> bool {
        (self.base..self.base + self.len).contains(&rid)
    }

    /// Measurement-boundary reset (see [`Simulation::run`]).
    ///
    /// Under deferred settlement (`ctx.deferred`) this is O(active),
    /// not O(tile): the boundary cycle is recorded as the watermark in
    /// `scratch.boundary` and only routers currently on the worklist
    /// are reset eagerly (they are mid-step — their lanes are live this
    /// very cycle). Every quiescent router keeps its stale warmup state
    /// as *settlement debt* — a debtor is recognizable later by
    /// `last_stepped ≤ watermark` with its active bit clear — paid on
    /// first touch ([`ShardView::activate`]) or in the close-out sweep
    /// ([`ShardView::close_run`]). The eager branch resets the whole
    /// tile up front: the reference needs it (it fills the
    /// worklist wholesale, never through `activate`), and the
    /// lazy-settlement property tests run it as the oracle.
    fn open_measurement(&mut self, ctx: &RunCtx<'_>, boundary_cycle: u64) {
        if ctx.deferred {
            self.scratch.boundary = Some(boundary_cycle);
            for wi in 0..self.scratch.active_bits.len() {
                let mut word = self.scratch.active_bits[wi];
                while word != 0 {
                    let lr = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.reset_router_gating(ctx, lr, boundary_cycle);
                }
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
        self.scratch.stats = Some(tile_stats(self.len, ctx.vcs));
    }

    /// Phase 1 of a cycle: inject, step this tile's routers against
    /// the cycle-start credit snapshot, apply tile-local transfers and
    /// stage boundary effects, then publish this shard's
    /// [`SlotReport`] and hand the staged batches to the mailboxes.
    fn phase_compute(&mut self, ctx: &RunCtx<'_>, cycle: u64, parity: usize) {
        let mut stats = self.scratch.stats.take();
        let drained = match ctx.kernel {
            SimKernel::Engine => self.inject_events(ctx, cycle, &mut stats),
            SimKernel::Reference => {
                let drained = self.inject_scan(ctx, cycle, &mut stats);
                // The dense oracle: rebuild the credit snapshot from
                // the live buffers and step *every* router — expressed
                // as a full worklist so both kernels share one stepping
                // path.
                self.rebuild_credits(ctx);
                let len = self.len;
                for (wi, w) in self.scratch.active_bits.iter_mut().enumerate() {
                    let bits = (len - (wi * 64).min(len)).min(64);
                    *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
                }
                drained
            }
        };
        self.route_active(ctx, cycle, &mut stats);
        let transfers = self.scratch.transfers.len() as u64;
        let staged = self.apply_transfers(ctx, cycle, &mut stats);
        // Flits staged for a peer have left this tile's buffers but not
        // yet reached the receiver's: they still pin the next cycle, or
        // a boundary crossing could open a leap over a live flit. The
        // reference never schedules, so it always wakes next cycle.
        let pending = self.scratch.buffered_flits + self.scratch.queued_flits + staged;
        let wake_at = match &self.scratch.events {
            Some(ev) if pending == 0 => ev
                .wheel
                .next_event(cycle + 1)
                .unwrap_or(u64::MAX)
                .min(ev.horizon + 1),
            _ => cycle + 1,
        };
        let progress = transfers + drained > 0;
        ctx.slots[self.scratch.shard].publish(
            parity,
            SlotReport {
                stalled: (!progress).then_some(self.scratch.buffered_flits),
                wake_at,
            },
        );
        if ctx.tiles.shards() > 1 {
            let me = self.scratch.shard;
            for (k, &(_, bx)) in ctx.mail.outboxes(me).iter().enumerate() {
                ctx.mail.send(bx, parity, &mut self.scratch.outgoing[k]);
            }
        }
        self.scratch.stats = stats;
    }

    /// Phase 2 of a cycle, after the barrier: drain the inboxes
    /// (senders ascending) and apply boundary arrivals and credit
    /// returns, then take the global watchdog decision from the
    /// network-wide report `net`. Returns `true` when the watchdog
    /// fired and the worker must abort (the designated shard records
    /// the diagnostic, or panics with it).
    fn phase_exchange(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        parity: usize,
        net: &SlotReport,
    ) -> bool {
        let mut stats = self.scratch.stats.take();
        if ctx.tiles.shards() > 1 {
            let me = self.scratch.shard;
            for k in 0..ctx.mail.inboxes(me).len() {
                let (_, bx) = ctx.mail.inboxes(me)[k];
                let mut incoming = std::mem::take(&mut self.scratch.incoming[k]);
                ctx.mail.receive(bx, parity, &mut incoming);
                for msg in incoming.drain(..) {
                    match msg {
                        BoundaryMsg::Arrival { rid, port, flit } => {
                            let rid = rid as usize;
                            let lr = rid - self.base;
                            self.routers[lr].accept(Direction::from_index(port as usize), flit);
                            self.scratch.buffered_flits += 1;
                            if stats.is_some() {
                                self.activity[lr].buffer_writes += 1;
                            }
                            // The receiver was already accounted idle
                            // for this whole cycle; it steps from the
                            // next one.
                            self.activate(ctx, lr, cycle, &mut stats);
                        }
                        BoundaryMsg::Credit { lane } => {
                            self.credits[lane as usize - self.base * ctx.lanes] += 1;
                        }
                    }
                }
                self.scratch.incoming[k] = incoming;
            }
        }
        self.scratch.stats = stats;

        // Zero-progress watchdog: every transfer both moves a flit and
        // returns a credit, so "no transfers anywhere and nothing
        // drained from any source queue" is exactly the no-progress
        // condition. All shards read the same slots, so the decision
        // is global and deterministic.
        if ctx.cfg.watchdog_cycles == 0 {
            return false;
        }
        let buffered = match net.stalled {
            Some(buffered) if buffered > 0 => buffered,
            _ => {
                self.scratch.stagnant_cycles = 0;
                return false;
            }
        };
        self.scratch.stagnant_cycles += 1;
        if self.scratch.stagnant_cycles < ctx.cfg.watchdog_cycles {
            return false;
        }
        // Fired. The lowest shard holding blocked flits carries the
        // diagnostic; every other worker backs out quietly.
        let who = ctx
            .slots
            .iter()
            .position(|s| s.read(parity).stalled > Some(0))
            .expect("buffered > 0 in some shard");
        if who == self.scratch.shard {
            let diagnostic = self.watchdog_report(ctx, cycle, buffered);
            if ctx.cfg.panic_on_deadlock {
                // Escape hatch: fail at the fire site so the wedged
                // worker's stack survives into the panic.
                panic!("{diagnostic}");
            }
            let mut slot = ctx.abort.lock().expect("abort slot poisoned");
            *slot = Some(SimAbort::Deadlock {
                cycle,
                buffered,
                diagnostic,
            });
        }
        true
    }

    /// End of run: settle all quiescent routers up to the final cycle,
    /// close out open idle runs and collect gating counters. Under
    /// deferred settlement this is the once-per-run walk that pays
    /// every remaining debtor ([`ShardView::close_run_deferred`]).
    fn close_run(&mut self, ctx: &RunCtx<'_>, end_cycle: u64) {
        if let Some(w) = self.scratch.boundary.take() {
            self.close_run_deferred(ctx, end_cycle, w);
            return;
        }
        let mut stats = self.scratch.stats.take();
        for lr in 0..self.len {
            self.settle_router(ctx, lr, end_cycle, &mut stats);
        }
        if let Some(s) = stats.as_mut() {
            s.measured_cycles = ctx.measure;
            let lanes = ctx.lanes;
            for lr in 0..self.len {
                for lane in 0..lanes {
                    let run = std::mem::take(&mut self.idle_run[lr * lanes + lane]);
                    s.idle_histograms.lane_mut(lr, lane).record_open(run);
                }
                self.window_gating[lr] = self.counters[lr];
            }
        }
        self.scratch.stats = stats;
    }

    /// An aborted run leaves the network frozen at the abort cycle.
    /// The remaining debtors' deferred boundary resets are paid here,
    /// so the frozen slabs are bit-identical to an eager run cut short
    /// at the same cycle. A debtor settles exactly the *partial* span
    /// it owes: nothing since the watermark ever touched it, so the
    /// boundary reset is its entire settlement.
    fn freeze(&mut self, ctx: &RunCtx<'_>) {
        let Some(w) = self.scratch.boundary.take() else {
            return;
        };
        for lr in 0..self.len {
            let active = self.scratch.active_bits[lr / 64] & (1u64 << (lr % 64)) != 0;
            if !active && self.last_stepped[lr] <= w {
                self.reset_router_gating(ctx, lr, w);
                self.scratch.routers_settled += 1;
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
    /// the [`IdleBank`] shared default row after every touched router
    /// has claimed its own row (ordering matters — see
    /// [`IdleBank::record_open_untouched`]).
    fn close_run_deferred(&mut self, ctx: &RunCtx<'_>, end_cycle: u64, w: u64) {
        let mut stats = self.scratch.stats.take();
        let lanes = ctx.lanes;
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
        for lr in 0..self.len {
            let active = self.scratch.active_bits[lr / 64] & (1u64 << (lr % 64)) != 0;
            if !active && self.last_stepped[lr] <= w {
                // Debtor: stale warmup slabs become the template.
                let base = lr * lanes;
                self.idle_run[base..base + lanes].fill(0);
                self.fsm[base..base + lanes].fill(tmpl_fsm);
                self.counters[lr] = tmpl_counters;
                self.settled[base..base + lanes].fill(end_cycle as u32);
                self.last_stepped[lr] = end_cycle;
                debtors += 1;
                if stats.is_some() {
                    let a = &mut self.activity[lr];
                    a.cycles += span;
                    a.arbitrations += tmpl_arbs;
                    self.window_gating[lr] = tmpl_counters;
                }
                continue;
            }
            self.settle_router(ctx, lr, end_cycle, &mut stats);
            if let Some(s) = stats.as_mut() {
                // Touched router: materialize its histogram row even if
                // every lane run is zero, so the shared-default open
                // run below cannot reach it.
                for lane in 0..lanes {
                    let run = std::mem::take(&mut self.idle_run[lr * lanes + lane]);
                    s.idle_histograms.lane_mut(lr, lane).record_open(run);
                }
                self.window_gating[lr] = self.counters[lr];
            }
        }
        self.scratch.routers_settled += debtors;
        if debtors > 0 {
            self.scratch.max_debt_span = self.scratch.max_debt_span.max(span);
        }
        if let Some(s) = stats.as_mut() {
            s.measured_cycles = ctx.measure;
            if span > 0 && debtors > 0 {
                s.idle_histograms.record_open_untouched(span);
            }
        }
        self.scratch.stats = stats;
    }

    /// Fault boundary, pass 1 of 3: scan this tile's buffered flits
    /// and in-flight source-queue fronts against the epoch about to
    /// apply, and nominate doomed packets ([`path_diverges`]) into
    /// this shard's reap slot. Read-only over the network state, so
    /// every shard scans concurrently.
    fn fault_collect(&mut self, ctx: &RunCtx<'_>, sched: &FaultSchedule) {
        let applied = self.scratch.epoch;
        let old = sched.map_after(applied);
        let new = sched.epochs[applied].map.as_ref();
        let mut slot = ctx.fault_slots[self.scratch.shard].lock().unwrap();
        let slot = &mut *slot;
        slot.doomed.clear();
        slot.credit_returns.clear();
        for lr in 0..self.len {
            let rid = self.base + lr;
            let doomed = &mut slot.doomed;
            self.routers[lr].for_each_flit(|f| {
                if path_diverges(ctx, old, new, rid, f.dst as usize) {
                    doomed.push(f.packet_id);
                }
            });
            // A partially sent source packet is a worm whose tail is
            // still being synthesized: same doom rule, from the
            // source.
            if let Some(front) = self.source_queues[lr].front() {
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
    fn fault_purge(&mut self, ctx: &RunCtx<'_>, sched: &FaultSchedule) {
        let new = sched.epochs[self.scratch.epoch].map.as_ref();
        // The merged doomed set: each slot is sorted, and the sorted
        // dedup of the union is independent of shard geometry.
        let mut doomed: Vec<u64> = Vec::new();
        for slot in ctx.fault_slots {
            doomed.extend_from_slice(&slot.lock().unwrap().doomed);
        }
        doomed.sort_unstable();
        doomed.dedup();
        let mut stats = self.scratch.stats.take();
        let is_doomed = |pid: u64| doomed.binary_search(&pid).is_ok();
        let v = ctx.vcs;
        let lanes = ctx.lanes;
        let plen = ctx.cfg.packet_len_flits;
        let mut returns: Vec<(u64, u32)> = Vec::new();
        let mut dropped_flits = 0u64;
        let mut unroutable = 0u64;
        for lr in 0..self.len {
            let rid = self.base + lr;
            let removed = self.routers[lr].purge_packets(is_doomed, |lane, _flit| {
                let port = Direction::from_index(lane / v);
                if port != Direction::Local {
                    let up = ctx
                        .neighbors
                        .get(rid, port)
                        .expect("buffered flits arrived over an existing link");
                    let glane = up * lanes + port.opposite().index() * v + (lane % v);
                    returns.push((glane as u64, 1));
                }
            });
            dropped_flits += removed as u64;
            self.scratch.buffered_flits -= removed as u64;
            let q = &mut self.source_queues[lr];
            if let Some(front) = q.front() {
                if front.sent > 0 && is_doomed(front.packet_id) {
                    let pkt = q.pop_front().expect("front exists");
                    let rem = pkt.remaining_flits(plen);
                    dropped_flits += rem;
                    self.scratch.queued_flits -= rem;
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
                let before = q.len();
                q.retain(|p| p.sent > 0 || fm.reachable(rid, p.dst as usize));
                let removed_pkts = (before - q.len()) as u64;
                unroutable += removed_pkts;
                dropped_flits += removed_pkts * plen as u64;
                self.scratch.queued_flits -= removed_pkts * plen as u64;
            }
            // A doomed packet mid-ejection never completes; forget its
            // progress so the validator expects a fresh head next.
            if let Some((pid, _)) = self.eject[lr].current {
                if is_doomed(pid) {
                    self.eject[lr].current = None;
                }
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
        self.scratch.flits_dropped += dropped_flits;
        if let Some(s) = stats.as_mut() {
            s.flits_dropped_by_fault += dropped_flits;
            s.packets_dropped_by_fault += dropped_pkts;
            s.packets_unroutable += unroutable;
        }
        ctx.fault_slots[self.scratch.shard]
            .lock()
            .unwrap()
            .credit_returns = returns;
        self.scratch.stats = stats;
    }

    /// Fault boundary, pass 3 of 3: apply every shard's published
    /// credit returns to the lanes this tile owns, then advance the
    /// epoch counter. (The reference rebuilds credits from live
    /// buffers each cycle, so the returns are redundant there —
    /// harmless, and it keeps one code path.)
    fn fault_apply_credits(&mut self, ctx: &RunCtx<'_>) {
        let lanes = ctx.lanes;
        let lo = (self.base * lanes) as u64;
        let hi = ((self.base + self.len) * lanes) as u64;
        for slot in ctx.fault_slots {
            for &(lane, k) in slot.lock().unwrap().credit_returns.iter() {
                if (lo..hi).contains(&lane) {
                    self.credits[(lane - lo) as usize] += k;
                }
            }
        }
        // The routing function changes with the epoch: every cached
        // front-flit route is recomputed against the new map.
        for r in self.routers.iter_mut() {
            r.clear_route_cache();
        }
        self.scratch.epoch += 1;
    }

    /// The reference's injection: scan every source once per cycle,
    /// generate new packets into the source queues and move waiting
    /// flits into local input buffers. Every RNG draw comes from the
    /// node's own stream, in the same order the engine's wheel
    /// consumes it. Returns the number of flits moved into local input
    /// buffers (progress, for the watchdog).
    fn inject_scan(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        stats: &mut Option<NetworkStats>,
    ) -> u64 {
        let len = ctx.cfg.packet_len_flits;
        let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
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
                    self.offer(ctx, l, dst, cycle, stats);
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
            drained += self.drain_source(l, len, stats);
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
        stats: &mut Option<NetworkStats>,
    ) -> bool {
        let src = self.base + l;
        let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
        if fmap.is_some_and(|fm| !fm.reachable(src, dst)) {
            if let Some(s) = stats.as_mut() {
                s.packets_unroutable += 1;
            }
            return false;
        }
        if self.source_queues[l].len() >= ctx.cfg.source_queue_cap {
            if let Some(s) = stats.as_mut() {
                s.packets_dropped_at_source += 1;
            }
            return false;
        }
        let id = packet_id(src, self.next_seq[l]);
        self.next_seq[l] += 1;
        self.source_queues[l].push_back(SourcePacket {
            packet_id: id,
            dst: dst as u32,
            injected_at: cycle,
            sent: 0,
            vc: ctx.mesh.injection_vc(id, ctx.vcs),
        });
        let len = ctx.cfg.packet_len_flits as u64;
        self.scratch.flits_injected += len;
        self.scratch.queued_flits += len;
        if let Some(s) = stats.as_mut() {
            s.packets_injected += 1;
        }
        true
    }

    /// Moves waiting flits from router `l`'s source queue into its
    /// local input VC buffer (queue checked first so idle nodes never
    /// touch router memory). The source is FIFO: the front packet
    /// waits for its own VC even if a sibling VC has room. Returns the
    /// flits moved (progress, for the watchdog).
    fn drain_source(&mut self, l: usize, len: usize, stats: &mut Option<NetworkStats>) -> u64 {
        let mut drained = 0u64;
        while let Some(pkt) = self.source_queues[l].front_mut() {
            if !self.routers[l].can_accept(Direction::Local, pkt.vc as usize) {
                break;
            }
            let flit = pkt
                .next_flit(len)
                .expect("queued descriptors have flits left");
            let done = pkt.remaining_flits(len) == 0;
            if done {
                self.source_queues[l].pop_front();
            }
            self.routers[l].accept(Direction::Local, flit);
            self.scratch.buffered_flits += 1;
            self.scratch.queued_flits -= 1;
            drained += 1;
            if stats.is_some() {
                self.activity[l].buffer_writes += 1;
            }
        }
        drained
    }

    /// The engine's injection: instead of scanning every source, fire
    /// the offers the wheel says are due *now* — a bursty source's
    /// draws were consumed ahead by [`ShardView::predict_router`] —
    /// then drain source queues. The schedule is first (re)armed if a
    /// fault epoch moved the horizon.
    /// Only routers on the worklist can hold queued packets (a packet
    /// enqueue activates its router, and retirement requires an empty
    /// queue), so the drain walks the active bitset instead of the
    /// whole tile: the cost per cycle is O(due events + active
    /// routers), independent of mesh size.
    fn inject_events(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        stats: &mut Option<NetworkStats>,
    ) -> u64 {
        let len = ctx.cfg.packet_len_flits;
        let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
        let mut ev = self
            .scratch
            .events
            .take()
            .expect("event state armed at run start");
        if ev.armed_epoch != self.scratch.epoch {
            self.rearm_events(ctx, &mut ev);
        }
        let mut due = std::mem::take(&mut ev.due);
        due.clear();
        ev.wheel.drain_due(cycle, &mut due);
        for &l32 in &due {
            let l = l32 as usize;
            let src = self.base + l;
            self.scratch.events_processed += 1;
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
                if self.offer(ctx, l, dst, cycle, stats) {
                    self.activate(ctx, l, cycle - 1, stats);
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
        self.scratch.events = Some(ev);
        // Drain waiting flits for every router on the worklist (the
        // only routers that can hold queued packets — see above).
        let mut drained = 0u64;
        for w in 0..self.scratch.active_bits.len() {
            let mut word = self.scratch.active_bits[w];
            while word != 0 {
                let l = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                drained += self.drain_source(l, len, stats);
            }
        }
        drained
    }

    /// Run-start (re)initialization of the tile's injection schedule:
    /// the RNG frontier starts at the run's first cycle and the
    /// `armed_epoch` sentinel forces the first
    /// [`ShardView::inject_events`] to arm every router against the
    /// then-current fault epoch.
    fn reset_events(&mut self, ctx: &RunCtx<'_>) {
        let start = ctx.start_cycle;
        let ev = self
            .scratch
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
            if let Some(e) = sched.epochs.get(self.scratch.epoch) {
                horizon = horizon.min(e.start.saturating_sub(1));
            }
        }
        ev.horizon = horizon;
        ev.armed_epoch = self.scratch.epoch;
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
                let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
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

    /// The reference's credit snapshot: rebuilt from the live buffers
    /// (the reference always runs as a single tile, so every downstream
    /// router is local).
    fn rebuild_credits(&mut self, ctx: &RunCtx<'_>) {
        let depth = ctx.cfg.buffer_depth as u32;
        let v = ctx.vcs;
        let lanes = ctx.lanes;
        for lr in 0..self.len {
            let rid = self.base + lr;
            for d in &Direction::ALL[..4] {
                for vc in 0..v {
                    self.credits[lr * lanes + d.index() * v + vc] = match ctx.neighbors.get(rid, *d)
                    {
                        Some(next) => {
                            debug_assert!(self.contains(next), "reference runs one tile");
                            depth
                                - self.routers[next - self.base].occupancy(d.opposite(), vc) as u32
                        }
                        None => 0,
                    };
                }
            }
        }
    }

    /// Steps this tile's worklist — in router-index order straight off
    /// the bitset, with lazy credit reads and table-driven routing
    /// ([`Router::step_fast`]). The credit state is the cycle-start
    /// snapshot (maintained incrementally, or just rebuilt by the
    /// reference), so results are visit-order independent.
    ///
    /// The engine steps only each router's live lanes; the reference
    /// steps every lane, and so does the engine once every
    /// [`WATERMARK_REFRESH`] cycles, which keeps every lane of a
    /// long-active router less than 2³² cycles behind its anchor (the
    /// lane watermarks hold 32 bits).
    fn route_active(&mut self, ctx: &RunCtx<'_>, cycle: u64, stats: &mut Option<NetworkStats>) {
        let visit_reversed = ctx.visit_reversed;
        let mesh = ctx.mesh;
        let routes = ctx.routes;
        let xy = ctx.xy;
        let v = ctx.vcs;
        let lanes = ctx.lanes;
        let base_rid = self.base;
        let retire = ctx.kernel == SimKernel::Engine;
        let all_live =
            ctx.kernel == SimKernel::Reference || cycle.is_multiple_of(WATERMARK_REFRESH);
        let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
        // Split borrows once: the per-router loop needs disjoint
        // mutable access to routers / SoA lanes / transfers while the
        // readiness closure reads the credit counters.
        let ShardView {
            scratch,
            routers,
            source_queues,
            credits,
            idle_run,
            fsm,
            counters,
            settled,
            last_stepped,
            activity,
            ..
        } = self;
        let ShardScratch {
            active_bits,
            transfers,
            routers_stepped,
            ..
        } = &mut **scratch;
        let at = |rid: usize| {
            let (x, y) = xy[rid];
            (x as usize, y as usize)
        };
        transfers.clear();

        let words = active_bits.len();
        for wi in 0..words {
            let w = if visit_reversed { words - 1 - wi } else { wi };
            let mut bits = active_bits[w];
            while bits != 0 {
                let b = if visit_reversed {
                    63 - bits.leading_zeros() as usize
                } else {
                    bits.trailing_zeros() as usize
                };
                bits &= !(1u64 << b);
                let lr = w * 64 + b;
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
                        None => match routes {
                            Some(t) => t.route(rid, flit.dst as usize),
                            None => mesh.route_xy_at(at(rid), at(flit.dst as usize)),
                        },
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
                    idle_run: &mut idle_run[lane_base..lane_base + lanes],
                    fsm: &mut fsm[lane_base..lane_base + lanes],
                    counters: &mut counters[lr],
                    settled: &mut settled[lane_base..lane_base + lanes],
                };
                let mut departed = 0u64;
                let mut link_departed = 0u64;
                let mut histograms = stats.as_mut().map(|s| &mut s.idle_histograms);
                let outcome = routers[lr].step_fast(cycle, all_live, route, ready, lane, |dep| {
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

                if stats.is_some() {
                    let a = &mut activity[lr];
                    a.cycles += 1;
                    a.arbitrations += outcome.arbitrations;
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
                if retire && routers[lr].is_quiet() && source_queues[lr].is_empty() {
                    active_bits[w] &= !(1u64 << b);
                    last_stepped[lr] = cycle;
                }
            }
        }
    }

    /// Applies the collected transfers (ejections and link crossings):
    /// moves the credits, activates local receivers, and stages every
    /// cross-tile effect for the exchange phase. Returns the flits
    /// staged for peer tiles.
    fn apply_transfers(
        &mut self,
        ctx: &RunCtx<'_>,
        cycle: u64,
        stats: &mut Option<NetworkStats>,
    ) -> u64 {
        let maintain = ctx.kernel == SimKernel::Engine;
        let mut staged = 0u64;
        let v = ctx.vcs;
        let lanes = ctx.lanes;
        for ti in 0..self.scratch.transfers.len() {
            let t = self.scratch.transfers[ti];
            let from = t.from as usize;
            // The pop freed a slot in `from`'s input VC: return the
            // credit to the upstream router that fills it (injection
            // from the local source checks the buffer directly, so the
            // Local input has no credit counter).
            if maintain && t.input != Direction::Local {
                let up = ctx
                    .neighbors
                    .get(from, t.input)
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
                    self.scratch.buffered_flits -= 1;
                    if cfg!(debug_assertions) || ctx.cfg.validate_ejection {
                        self.validate_ejection(ctx, from, &t.flit);
                    }
                    if let Some(s) = stats.as_mut() {
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
                        .neighbors
                        .get(from, d)
                        .expect("departures only target existing neighbours");
                    if maintain {
                        // Consume the credit for the slot just filled.
                        self.credits
                            [(from - self.base) * lanes + d.index() * v + t.flit.vc as usize] -= 1;
                    }
                    if self.contains(next) {
                        self.routers[next - self.base].accept(d.opposite(), t.flit);
                        if maintain {
                            // The receiver was already accounted idle
                            // for this whole cycle; it steps from the
                            // next one.
                            self.activate(ctx, next - self.base, cycle, stats);
                        }
                        if stats.is_some() {
                            self.activity[next - self.base].buffer_writes += 1;
                        }
                    } else {
                        // The flit leaves this tile; its arrival (and
                        // the receiver's bookkeeping) is the owning
                        // shard's exchange-phase work.
                        self.scratch.buffered_flits -= 1;
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

    /// Stages a boundary message for the shard owning `target_rid`.
    fn stage(&mut self, ctx: &RunCtx<'_>, target_rid: usize, msg: BoundaryMsg) {
        let me = self.scratch.shard;
        let dst = ctx.tiles.shard_of(target_rid);
        let k = ctx
            .mail
            .outboxes(me)
            .iter()
            .position(|&(d, _)| d == dst)
            .expect("cross-tile effects only reach halo-adjacent shards");
        self.scratch.outgoing[k].push(msg);
    }

    /// Resets one router's gating slabs to their measurement-boundary
    /// state at cycle `at`: idle runs cleared, every lane FSM re-armed
    /// ([`SleepFsm::reset`]), gating counters zeroed, and the router
    /// and every lane settled through `at`. The shared tail of both the
    /// eager boundary fill and lazy debt payment.
    fn reset_router_gating(&mut self, ctx: &RunCtx<'_>, lr: usize, at: u64) {
        let lanes = ctx.lanes;
        let base = lr * lanes;
        self.idle_run[base..base + lanes].fill(0);
        for f in &mut self.fsm[base..base + lanes] {
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
        self.scratch.routers_settled += 1;
        self.scratch.settle_ops += 1;
        self.scratch.max_debt_span = self.scratch.max_debt_span.max(now - w);
    }

    /// Puts a quiescent router back in the worklist, first settling the
    /// cycles it skipped (`through` is the last cycle it should be
    /// accounted as idle; injection activations pass `cycle − 1`
    /// because the router still steps this cycle, arrival activations
    /// pass `cycle` because it only steps from the next one). `lr` is
    /// tile-local.
    fn activate(
        &mut self,
        ctx: &RunCtx<'_>,
        lr: usize,
        through: u64,
        stats: &mut Option<NetworkStats>,
    ) {
        if self.scratch.active_bits[lr / 64] & (1u64 << (lr % 64)) != 0 {
            return;
        }
        // First touch since the measurement boundary: pay the deferred
        // boundary reset before accounting the post-boundary idle span.
        if let Some(w) = self.scratch.boundary {
            if self.last_stepped[lr] <= w {
                self.settle_debt(ctx, lr, w, through);
            }
        }
        self.settle_router(ctx, lr, through, stats);
        self.scratch.active_bits[lr / 64] |= 1u64 << (lr % 64);
    }

    /// Settles every lane of router `lr` through cycle `through`, each
    /// from its own watermark ([`Router::settle_lanes`]) — exactly what
    /// the dense loop would have done: idle runs grow, awake lanes
    /// arbitrate, and sleep FSMs replay their closed-form future,
    /// including a threshold walk that asserts sleep partway through
    /// the gap. A quiescent router settles the cycles it skipped
    /// (anchored at `last_stepped`, which moves to `through`); a
    /// worklist member, already stepped through `through`, settles only
    /// the lanes its steps left behind.
    fn settle_router(
        &mut self,
        ctx: &RunCtx<'_>,
        lr: usize,
        through: u64,
        stats: &mut Option<NetworkStats>,
    ) {
        let active = self.scratch.active_bits[lr / 64] & (1u64 << (lr % 64)) != 0;
        let anchor = if active {
            through
        } else {
            self.last_stepped[lr]
        };
        let lanes = ctx.lanes;
        let base = lr * lanes;
        let arbitrations = self.routers[lr].settle_lanes(
            &mut PortLane {
                idle_run: &mut self.idle_run[base..base + lanes],
                fsm: &mut self.fsm[base..base + lanes],
                counters: &mut self.counters[lr],
                settled: &mut self.settled[base..base + lanes],
            },
            anchor,
            through,
        );
        if stats.is_some() {
            let a = &mut self.activity[lr];
            a.cycles += through - anchor;
            a.arbitrations += arbitrations;
        }
        if !active {
            self.last_stepped[lr] = through;
        }
    }

    /// The watchdog fired: build the per-lane diagnostic of every
    /// blocked flit in this tile so a deadlock regression names the
    /// cycle's participants instead of hanging CI. On a faulted
    /// network the diagnostic also classifies each stuck flit by
    /// whether the active fault map still offers it a route — "true
    /// routing deadlock" and "stranded by a fault the reap should
    /// have caught" are different bugs — and prints the fault-map
    /// summary. The caller either panics with the text
    /// ([`MeshConfig::panic_on_deadlock`]) or wraps it in
    /// [`SimAbort::Deadlock`].
    fn watchdog_report(&self, ctx: &RunCtx<'_>, cycle: u64, buffered: u64) -> String {
        let v = ctx.vcs;
        let lanes = ctx.lanes;
        let fmap = ctx.faults.and_then(|s| s.map_after(self.scratch.epoch));
        let mut report = String::new();
        let mut shown = 0usize;
        let mut blocked = 0usize;
        for (lr, r) in self.routers.iter().enumerate() {
            let rid = self.base + lr;
            for d in Direction::ALL {
                for vc in 0..v {
                    let occ = r.occupancy(d, vc);
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
                    r.for_each_flit(|f| {
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
                    self.scratch.epoch,
                    fm.summary()
                )
            }
            None if ctx.faults.is_some() => "\n  fault schedule armed; no faults active".into(),
            None => String::new(),
        };
        let tile_note = if ctx.tiles.shards() > 1 {
            format!(
                " [diagnosing tile {} of {}; other tiles may hold more]",
                self.scratch.shard,
                ctx.tiles.shards()
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

    /// Asserts in-order, contiguous, complete per-packet delivery.
    fn validate_ejection(&mut self, ctx: &RunCtx<'_>, rid: usize, flit: &Flit) {
        assert_eq!(flit.dst as usize, rid, "flit ejected at the wrong router");
        let progress = &mut self.eject[rid - self.base];
        match progress.current {
            None => {
                assert!(
                    flit.is_head,
                    "packet {} ejected body flit before its head at router {rid}",
                    flit.packet_id
                );
                if flit.is_tail {
                    assert_eq!(ctx.cfg.packet_len_flits, 1);
                } else {
                    progress.current = Some((flit.packet_id, 1));
                }
            }
            Some((pkt, seen)) => {
                assert_eq!(
                    flit.packet_id, pkt,
                    "packet interleaving at router {rid} ejection port"
                );
                assert!(!flit.is_head, "duplicate head flit in packet {pkt}");
                let seen = seen + 1;
                if flit.is_tail {
                    assert_eq!(
                        seen, ctx.cfg.packet_len_flits,
                        "packet {pkt} delivered with the wrong flit count"
                    );
                    progress.current = None;
                } else {
                    progress.current = Some((pkt, seen));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep::SleepConfig;
    use lnoc_power::gating::{energy_from_counters, evaluate_policy, GatingParams, GatingPolicy};
    use lnoc_tech::units::{Hertz, Joules, Watts};

    fn base_cfg() -> MeshConfig {
        MeshConfig {
            width: 4,
            height: 4,
            injection_rate: 0.05,
            pattern: TrafficPattern::UniformRandom,
            packet_len_flits: 4,
            buffer_depth: 4,
            seed: 42,
            ..MeshConfig::default()
        }
    }

    #[test]
    fn packets_flow_and_are_conserved() {
        // Measure from cycle 0: packets straddling a warmup/measure
        // boundary would otherwise split their flit counts across the
        // unmeasured and measured windows and break exact conservation.
        let mut sim = Simulation::new(base_cfg());
        let stats = sim.run(0, 3500);
        assert!(stats.packets_delivered > 100, "{}", stats.packets_delivered);
        // Flits delivered = packets × packet length (within in-flight
        // slack of injected − delivered).
        assert!(
            stats.flits_delivered >= stats.packets_delivered * 4,
            "every delivered packet contributed all its flits"
        );
        assert!(stats.packets_injected >= stats.packets_delivered);
        // Exact conservation: injected = delivered + still in flight.
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
    }

    #[test]
    fn packets_flow_with_virtual_channels() {
        for vcs in [2usize, 4] {
            let mut sim = Simulation::new(MeshConfig { vcs, ..base_cfg() });
            let stats = sim.run(0, 3000);
            assert!(
                stats.packets_delivered > 100,
                "vcs {vcs}: {}",
                stats.packets_delivered
            );
            assert_eq!(
                sim.flits_injected_total(),
                stats.flits_delivered + sim.in_flight_flits()
            );
            sim.check_credit_conservation();
        }
    }

    #[test]
    fn latency_at_least_hop_count() {
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.01,
            ..base_cfg()
        });
        let stats = sim.run(200, 3000);
        // Minimum latency: ≥ packet length (serialization) at zero load.
        assert!(stats.avg_latency() >= 4.0, "{}", stats.avg_latency());
        assert!(stats.avg_latency() < 60.0, "{}", stats.avg_latency());
    }

    #[test]
    fn higher_load_means_higher_latency_and_throughput() {
        let run = |rate: f64| {
            let mut sim = Simulation::new(MeshConfig {
                injection_rate: rate,
                seed: 9,
                ..base_cfg()
            });
            sim.run(500, 4000)
        };
        let light = run(0.01);
        let heavy = run(0.08);
        assert!(heavy.throughput() > light.throughput());
        assert!(heavy.avg_latency() > light.avg_latency());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = Simulation::new(base_cfg());
            let s = sim.run(100, 1000);
            (s.packets_delivered, s.flits_delivered, s.latency_sum)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn router_visit_order_is_irrelevant() {
        // With the cycle-start credit snapshot, stepping routers in
        // reverse (or any) order must produce bit-identical statistics
        // — in both kernels and at any VC count. Before the snapshot
        // fix, downstream readiness read live buffers that earlier
        // routers had already popped, so behaviour depended on
        // iteration order.
        for kernel in [SimKernel::Engine, SimKernel::Reference] {
            for cfg in [
                base_cfg(),
                MeshConfig {
                    injection_rate: 0.12,
                    pattern: TrafficPattern::Transpose,
                    seed: 3,
                    vcs: 2,
                    ..base_cfg()
                },
                MeshConfig {
                    wrap: true,
                    pattern: TrafficPattern::Tornado,
                    injection_rate: 0.03,
                    vcs: 2,
                    ..base_cfg()
                },
                MeshConfig {
                    gating: Some(SleepConfig {
                        policy: GatingPolicy::IdleThreshold(3),
                        wake_latency: 2,
                    }),
                    injection_rate: 0.06,
                    seed: 7,
                    vcs: 4,
                    ..base_cfg()
                },
            ] {
                let cfg = MeshConfig { kernel, ..cfg };
                let mut fwd = Simulation::new(cfg.clone());
                let mut rev = Simulation::new(cfg);
                rev.set_visit_reversed(true);
                let s_fwd = fwd.run(100, 1500);
                let s_rev = rev.run(100, 1500);
                assert_eq!(s_fwd, s_rev);
            }
        }
    }

    #[test]
    fn idle_histograms_fill_under_light_load() {
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.02,
            ..base_cfg()
        });
        let stats = sim.run(200, 2000);
        let merged = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
        assert!(merged.interval_count() > 0);
        // Under 2 % load, most output-cycles are idle.
        let idle_frac = merged.total_idle_cycles() as f64 / (2000.0 * 16.0 * 5.0);
        assert!(idle_frac > 0.5, "idle fraction {idle_frac}");
    }

    #[test]
    fn utilization_tracks_load() {
        let mut light_sim = Simulation::new(MeshConfig {
            injection_rate: 0.01,
            ..base_cfg()
        });
        let mut heavy_sim = Simulation::new(MeshConfig {
            injection_rate: 0.10,
            ..base_cfg()
        });
        let light = light_sim.run(300, 2000).crossbar_utilization();
        let heavy = heavy_sim.run(300, 2000).crossbar_utilization();
        assert!(heavy > 2.0 * light, "light {light}, heavy {heavy}");
    }

    #[test]
    #[should_panic(expected = "at least 2×2")]
    fn tiny_mesh_rejected() {
        let _ = Simulation::new(MeshConfig {
            width: 1,
            ..base_cfg()
        });
    }

    /// 4096 × 4096 is exactly 2²⁴ routers, one past the id space; the
    /// check fires before any per-router state is allocated.
    #[test]
    #[should_panic(expected = "meshes are capped at 16777215 routers")]
    fn mesh_past_source_id_space_rejected() {
        let _ = Simulation::new(MeshConfig {
            width: 4096,
            height: 4096,
            ..base_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "Oracle")]
    fn oracle_rejected_in_loop() {
        let _ = Simulation::new(MeshConfig {
            gating: Some(SleepConfig {
                policy: GatingPolicy::Oracle,
                wake_latency: 1,
            }),
            ..base_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "source queues")]
    fn zero_source_queue_cap_rejected() {
        let _ = Simulation::new(MeshConfig {
            source_queue_cap: 0,
            ..base_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "vcs must be in")]
    fn zero_vcs_rejected() {
        let _ = Simulation::new(MeshConfig {
            vcs: 0,
            ..base_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "vcs must be in")]
    fn oversized_vcs_rejected() {
        let _ = Simulation::new(MeshConfig {
            vcs: MAX_VCS + 1,
            ..base_cfg()
        });
    }

    #[test]
    fn all_patterns_deliver() {
        for pattern in TrafficPattern::ALL {
            let mut sim = Simulation::new(MeshConfig {
                pattern,
                injection_rate: 0.03,
                ..base_cfg()
            });
            let stats = sim.run(300, 2000);
            assert!(
                stats.packets_delivered > 10,
                "{pattern:?} delivered {}",
                stats.packets_delivered
            );
        }
    }

    #[test]
    fn torus_delivers_and_shortens_paths() {
        let run = |wrap: bool| {
            let mut sim = Simulation::new(MeshConfig {
                wrap,
                injection_rate: 0.02,
                pattern: TrafficPattern::Tornado,
                seed: 17,
                ..base_cfg()
            });
            sim.run(300, 3000)
        };
        let mesh = run(false);
        let torus = run(true);
        assert!(mesh.packets_delivered > 50);
        assert!(torus.packets_delivered > 50);
        // Tornado on a 4-wide torus is a single wraparound-assisted hop
        // pattern; the mesh must walk the long way.
        assert!(
            torus.avg_latency() < mesh.avg_latency(),
            "torus {:.1} vs mesh {:.1}",
            torus.avg_latency(),
            mesh.avg_latency()
        );
    }

    #[test]
    fn torus_tornado_saturation_drains_with_dateline_vcs() {
        // The acceptance scenario: Tornado at saturation on a wrapped
        // 16×16 with 2 VCs (dateline switching) must make sustained
        // progress without tripping the watchdog. At vcs = 1 the same
        // load wedges wormhole DOR on the rings.
        let mut sim = Simulation::new(MeshConfig {
            width: 16,
            height: 16,
            wrap: true,
            vcs: 2,
            pattern: TrafficPattern::Tornado,
            injection_rate: 1.0,
            source_queue_cap: 4,
            watchdog_cycles: 2_000,
            seed: 9,
            ..base_cfg()
        });
        let stats = sim.run(0, 6000);
        assert!(
            stats.packets_delivered > 2_000,
            "saturated torus must stream packets, got {}",
            stats.packets_delivered
        );
        sim.check_credit_conservation();
    }

    #[test]
    fn watchdog_names_the_blocked_lanes_on_deadlock() {
        // vcs = 1 torus DOR has no dateline escape: Tornado at
        // saturation wedges the rings and the watchdog must abort with
        // the diagnostic instead of spinning.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulation::new(MeshConfig {
                width: 8,
                height: 8,
                wrap: true,
                vcs: 1,
                pattern: TrafficPattern::Tornado,
                injection_rate: 1.0,
                packet_len_flits: 8,
                source_queue_cap: 8,
                watchdog_cycles: 500,
                seed: 5,
                ..base_cfg()
            });
            sim.run(0, 50_000)
        }));
        let msg = *result
            .expect_err("saturated vcs=1 torus tornado must deadlock")
            .downcast::<String>()
            .expect("panic carries the diagnostic string");
        assert!(msg.contains("watchdog"), "{msg}");
        assert!(msg.contains("router"), "diagnostic names a router: {msg}");
        assert!(msg.contains("vc"), "diagnostic names a VC: {msg}");
    }

    #[test]
    fn bursty_injection_conserves_and_matches_load() {
        let mut sim = Simulation::new(MeshConfig {
            injection: InjectionProcess::BurstyOnOff {
                mean_burst: 20,
                mean_idle: 60,
            },
            injection_rate: 0.04,
            seed: 23,
            ..base_cfg()
        });
        let stats = sim.run(0, 8000);
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
        // Offered load stays near the configured average rate.
        let offered = stats.packets_injected as f64 / (8000.0 * 16.0);
        assert!(
            (offered - 0.04).abs() < 0.01,
            "offered load {offered} vs configured 0.04"
        );
    }

    #[test]
    fn capped_source_queue_drops_and_stays_exact() {
        // A tiny cap under a saturating hotspot load must reject offers
        // without breaking flit conservation.
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.5,
            pattern: TrafficPattern::Hotspot,
            source_queue_cap: 2,
            seed: 3,
            ..base_cfg()
        });
        let stats = sim.run(0, 2000);
        assert!(
            stats.packets_dropped_at_source > 0,
            "saturating load must hit the cap"
        );
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
        assert_eq!(
            stats.packets_injected * 4,
            sim.flits_injected_total(),
            "dropped packets contribute no flits"
        );
        // The source queues themselves respect the cap.
        assert!(sim.source_queues.iter().all(|q| q.len() <= 2));
    }

    #[test]
    fn gating_stalls_traffic_and_matches_offline_energy() {
        let params = GatingParams {
            p_idle_awake: Watts(10.0e-6),
            p_standby: Watts(1.0e-6),
            e_transition: Joules(9.0e-15),
            wake_latency_cycles: 2,
        };
        let clock = Hertz(3.0e9);
        let policy = GatingPolicy::IdleThreshold(params.min_idle_cycles(clock));

        let gated_cfg = MeshConfig {
            gating: Some(SleepConfig {
                policy,
                wake_latency: params.wake_latency_cycles,
            }),
            injection_rate: 0.03,
            ..base_cfg()
        };
        let mut gated = Simulation::new(gated_cfg.clone());
        let g = gated.run(500, 6000);
        let mut ungated = Simulation::new(MeshConfig {
            gating: None,
            ..gated_cfg
        });
        let u = ungated.run(500, 6000);

        // Wake latency back-pressures real traffic.
        let counters = g.total_gating_counters();
        assert!(counters.sleep_entries > 100, "{counters:?}");
        assert!(counters.wake_stall_cycles > 0, "{counters:?}");
        assert!(
            g.avg_latency() > u.avg_latency(),
            "gated {:.2} must exceed ungated {:.2}",
            g.avg_latency(),
            u.avg_latency()
        );

        // In-loop energy agrees with the offline model evaluated on the
        // same run's histograms.
        let in_loop = energy_from_counters(&counters, &params, clock);
        let offline = evaluate_policy(
            &g.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS),
            &params,
            policy,
            clock,
        );
        let rel =
            (in_loop.energy_policy.0 - offline.energy_policy.0).abs() / offline.energy_policy.0;
        assert!(rel < 0.05, "in-loop vs offline disagreement {rel:.4}");
        let rel_never =
            (in_loop.energy_never.0 - offline.energy_never.0).abs() / offline.energy_never.0;
        assert!(rel_never < 1e-9, "idle-cycle totals must match exactly");
    }

    #[test]
    fn per_vc_gating_sleeps_finer_than_per_port() {
        // Same traffic, same policy: with 2 VCs the sleep controllers
        // see twice the lanes, and an empty VC bank can park while its
        // sibling carries a worm — so the asleep fraction of all
        // lane-cycles must not drop when granularity rises.
        let run = |vcs: usize| {
            let mut sim = Simulation::new(MeshConfig {
                vcs,
                injection_rate: 0.04,
                gating: Some(SleepConfig {
                    policy: GatingPolicy::IdleThreshold(4),
                    wake_latency: 1,
                }),
                seed: 31,
                ..base_cfg()
            });
            let stats = sim.run(300, 5000);
            let k = stats.total_gating_counters();
            let lane_cycles = (5 * vcs) as f64 * 16.0 * 5000.0;
            (k.cycles_asleep as f64 / lane_cycles, k.sleep_entries)
        };
        let (frac1, _) = run(1);
        let (frac2, entries2) = run(2);
        assert!(entries2 > 0);
        assert!(
            frac2 >= frac1 * 0.95,
            "finer gating granularity lost sleep coverage: {frac1:.3} -> {frac2:.3}"
        );
    }

    #[test]
    fn default_geometry_depends_on_size_only() {
        // `shards = 0` is derived from router count and cores alone —
        // offered load selects nothing — and explicit geometry passes
        // through, clamped to the mesh height.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for rate in [0.0, 0.01, 0.5] {
            let small = Simulation::new(MeshConfig {
                injection_rate: rate,
                ..base_cfg()
            });
            assert_eq!(small.kernel(), SimKernel::Engine);
            assert_eq!((small.shards(), small.threads()), (1, 1));
            let big = Simulation::new(MeshConfig {
                width: 64,
                height: 64,
                injection_rate: rate,
                ..base_cfg()
            });
            assert_eq!(64 * 64, MeshConfig::SHARD_MIN_ROUTERS);
            assert_eq!(big.shards(), cores.min(64));
            assert_eq!(big.threads(), cores.min(64));
        }
        let pinned = Simulation::new(MeshConfig {
            shards: 3,
            threads: 2,
            ..base_cfg()
        });
        assert_eq!((pinned.shards(), pinned.threads()), (3, 2));
        let reference = Simulation::new(MeshConfig {
            kernel: SimKernel::Reference,
            shards: 3,
            threads: 2,
            ..base_cfg()
        });
        assert_eq!((reference.shards(), reference.threads()), (1, 1));
    }

    fn faulted_cfg() -> MeshConfig {
        MeshConfig {
            width: 6,
            height: 6,
            vcs: 2,
            injection_rate: 0.06,
            seed: 77,
            faults: Some(FaultPlan {
                seed: 11,
                link_faults: 2,
                router_faults: 1,
                transient_link_faults: 1,
                transient_duration: 150,
                start_cycle: 100,
                window: 400,
                ..FaultPlan::default()
            }),
            ..base_cfg()
        }
    }

    #[test]
    fn faulted_run_conserves_flits_and_credits() {
        // Measuring from cycle 0, every injected flit is delivered,
        // in flight, or was reaped by a fault — exactly.
        let mut sim = Simulation::new(faulted_cfg());
        let stats = sim.run(0, 2500);
        assert!(stats.packets_delivered > 100);
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
        );
        sim.check_credit_conservation();
        assert!(stats.min_reachable_fraction < 1.0);
        assert!(stats.min_reachable_fraction > 0.0);
    }

    #[test]
    fn transient_fault_heals_and_traffic_resumes() {
        // One transient link fault: the map goes back to pristine, so
        // post-heal routing is the healthy XY table again and traffic
        // keeps flowing to the end of the run.
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.05,
            faults: Some(FaultPlan {
                seed: 3,
                link_faults: 0,
                transient_link_faults: 1,
                transient_duration: 200,
                start_cycle: 100,
                window: 1,
                ..FaultPlan::default()
            }),
            ..base_cfg()
        });
        let stats = sim.run(0, 4000);
        assert!(stats.packets_delivered > 200);
        assert!(stats.packets_delivered_post_fault > 100);
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
        );
        sim.check_credit_conservation();
    }

    #[test]
    fn dead_router_isolates_its_sources_and_sinks() {
        // A permanent router death: its source goes silent, packets
        // already bound for it are reaped, and later offers to it are
        // refused as unroutable.
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.08,
            faults: Some(FaultPlan {
                seed: 5,
                link_faults: 0,
                router_faults: 1,
                start_cycle: 300,
                window: 1,
                ..FaultPlan::default()
            }),
            ..base_cfg()
        });
        let stats = sim.run(0, 4000);
        assert!(stats.packets_unroutable > 0, "offers to the dead router");
        assert!(stats.packets_dropped_by_fault > 0, "in-flight victims");
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
        );
        sim.check_credit_conservation();
    }

    #[test]
    fn saturated_dateline_torus_with_dead_link_drains() {
        // The acceptance scenario: Tornado at saturation on a wrapped
        // 16×16 with 2 VCs loses one link mid-run and must keep
        // streaming packets around the detour without tripping the
        // watchdog.
        let mut sim = Simulation::new(MeshConfig {
            width: 16,
            height: 16,
            wrap: true,
            vcs: 2,
            pattern: TrafficPattern::Tornado,
            injection_rate: 1.0,
            source_queue_cap: 4,
            watchdog_cycles: 2_000,
            seed: 9,
            faults: Some(FaultPlan {
                seed: 13,
                link_faults: 1,
                start_cycle: 500,
                window: 1,
                ..FaultPlan::default()
            }),
            ..base_cfg()
        });
        let stats = sim.run(0, 6000);
        assert!(
            stats.packets_delivered > 2_000,
            "faulted saturated torus must stream packets, got {}",
            stats.packets_delivered
        );
        assert!(stats.packets_delivered_post_fault > 1_000);
        sim.check_credit_conservation();
    }

    #[test]
    fn watchdog_diagnostic_reports_the_fault_map() {
        // Satellite of the fault work: when the watchdog fires on a
        // faulted network, the diagnostic must carry the fault-map
        // summary so true deadlock and reap bugs are distinguishable
        // at a glance. vcs = 1 torus tornado wedges regardless of the
        // (mesh-side, healthy-by-then) fault plan.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulation::new(MeshConfig {
                width: 8,
                height: 8,
                wrap: true,
                vcs: 1,
                pattern: TrafficPattern::Tornado,
                injection_rate: 1.0,
                packet_len_flits: 8,
                source_queue_cap: 8,
                watchdog_cycles: 500,
                seed: 5,
                faults: Some(FaultPlan {
                    seed: 21,
                    link_faults: 1,
                    start_cycle: 50,
                    window: 1,
                    ..FaultPlan::default()
                }),
                ..base_cfg()
            });
            sim.run(0, 50_000)
        }));
        let msg = *result
            .expect_err("saturated vcs=1 torus tornado must deadlock")
            .downcast::<String>()
            .expect("panic carries the diagnostic string");
        assert!(msg.contains("watchdog"), "{msg}");
        assert!(msg.contains("active fault map"), "{msg}");
        assert!(msg.contains("pairs reachable"), "{msg}");
        assert!(msg.contains("live route"), "{msg}");
    }

    /// The vcs = 1 saturated torus Tornado configuration every
    /// watchdog test wedges on.
    fn deadlocking_cfg() -> MeshConfig {
        MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: 1,
            pattern: TrafficPattern::Tornado,
            injection_rate: 1.0,
            packet_len_flits: 8,
            source_queue_cap: 8,
            watchdog_cycles: 500,
            seed: 5,
            ..base_cfg()
        }
    }

    #[test]
    fn try_run_returns_deadlock_as_value() {
        // The supervised path: the same wedge that makes `run` panic
        // comes back from `try_run` as a typed abort carrying the
        // byte-identical diagnostic, and the simulation's state stays
        // consistent for post-mortem checks.
        let mut sim = Simulation::new(deadlocking_cfg());
        let abort = sim
            .try_run(0, 50_000)
            .expect_err("saturated vcs=1 torus tornado must deadlock");
        let SimAbort::Deadlock {
            cycle,
            buffered,
            ref diagnostic,
        } = abort
        else {
            panic!("expected a deadlock abort, got {abort:?}");
        };
        assert!(cycle >= 500, "fires only after the watchdog window");
        assert!(buffered > 0);
        assert!(diagnostic.contains("watchdog"), "{diagnostic}");
        assert!(diagnostic.contains("router"), "{diagnostic}");
        assert!(diagnostic.contains("vc"), "{diagnostic}");
        assert_eq!(abort.to_string(), *diagnostic, "Display is the diagnostic");
        sim.check_credit_conservation();

        // And the panicking path renders the exact same text.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulation::new(deadlocking_cfg()).run(0, 50_000)
        }));
        let msg = *panicked
            .expect_err("run() still panics")
            .downcast::<String>()
            .expect("panic carries the diagnostic string");
        assert_eq!(msg, *diagnostic, "run and try_run agree byte-for-byte");
    }

    #[test]
    fn panic_on_deadlock_hatch_fires_inside_try_run() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulation::new(MeshConfig {
                panic_on_deadlock: true,
                ..deadlocking_cfg()
            });
            sim.try_run(0, 50_000)
        }));
        let msg = *result
            .expect_err("the hatch panics at the fire site")
            .downcast::<String>()
            .expect("panic carries the diagnostic string");
        assert!(msg.contains("watchdog"), "{msg}");
    }

    #[test]
    fn cycle_budget_aborts_identically_across_kernels() {
        for (kernel, shards) in [
            (SimKernel::Reference, 0),
            (SimKernel::Engine, 1),
            (SimKernel::Engine, 4),
        ] {
            let cfg = MeshConfig {
                kernel,
                shards,
                threads: 2,
                cycle_budget: 200,
                ..base_cfg()
            };
            let abort = Simulation::new(cfg)
                .try_run(100, 900)
                .expect_err("budget below warmup+measure must abort");
            assert_eq!(
                abort,
                SimAbort::CycleBudgetExceeded {
                    budget: 200,
                    requested: 1000
                },
                "kernel {kernel:?}"
            );
        }
    }

    #[test]
    fn sufficient_cycle_budget_changes_nothing() {
        let baseline = Simulation::new(base_cfg()).run(100, 900);
        let budgeted = Simulation::new(MeshConfig {
            cycle_budget: 1000,
            ..base_cfg()
        })
        .try_run(100, 900)
        .expect("budget == warmup+measure completes");
        assert_eq!(baseline, budgeted, "an adequate budget is invisible");
    }

    #[test]
    fn engine_leaps_and_stays_identical_across_runs() {
        // Two back-to-back runs at a rate low enough that most cycles
        // are dead: the engine must (a) actually leap, at one shard and
        // at four, (b) match the reference bit for bit in BOTH windows
        // — the second run only agrees if the first left every RNG
        // frontier, ON/OFF state and sequence counter exactly where the
        // per-cycle scan would have.
        let low = |kernel, shards| MeshConfig {
            injection_rate: 0.004,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(4),
                wake_latency: 1,
            }),
            kernel,
            shards,
            threads: 2,
            ..base_cfg()
        };
        let mut reference = Simulation::new(low(SimKernel::Reference, 0));
        let mut serial = Simulation::new(low(SimKernel::Engine, 1));
        let mut tiled = Simulation::new(low(SimKernel::Engine, 4));
        for window in 0..2 {
            let r = reference.run(50, 2000);
            assert_eq!(r, serial.run(50, 2000), "window {window} diverged");
            assert_eq!(r, tiled.run(50, 2000), "tiled window {window} diverged");
        }
        assert_eq!(
            reference.flits_injected_total(),
            serial.flits_injected_total()
        );
        assert_eq!(reference.cycles_leapt_total(), 0);
        for engine in [&serial, &tiled] {
            assert!(
                engine.cycles_leapt_total() > 1000,
                "a 0.4% load must leave most of {} cycles leapable, leapt {}",
                2 * 2050,
                engine.cycles_leapt_total()
            );
            assert!(engine.events_processed_total() > 0);
        }
        // The leap decision is global, so geometry cannot change it.
        assert_eq!(serial.cycles_leapt_total(), tiled.cycles_leapt_total());
        assert_eq!(serial.leaps_total(), tiled.leaps_total());
    }

    #[test]
    fn lane_watermarks_span_more_than_u32_cycles() {
        // Lane watermarks keep only the low 32 bits of their cycle. A
        // near-dead mesh leaps across 1.2·10¹⁰ cycles, so routers retire
        // with lanes left behind and are touched again (or closed out)
        // more than 2³² cycles later: every lane-cycle must still be billed exactly
        // once, and the eager-settlement engine — a different settle
        // schedule — must agree bit for bit.
        let measure = 12_000_000_000u64;
        let cfg = |eager_settlement| MeshConfig {
            injection_rate: 1e-10,
            vcs: 2,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 2,
            }),
            eager_settlement,
            ..base_cfg()
        };
        let lazy = Simulation::new(cfg(false)).run(1000, measure);
        let eager = Simulation::new(cfg(true)).run(1000, measure);
        assert_eq!(lazy, eager);
        assert!(lazy.packets_delivered > 4, "{}", lazy.packets_delivered);
        for (g, a) in lazy.gating.iter().zip(&lazy.router_activity) {
            assert_eq!(a.cycles, measure);
            let billed = g.cycles_busy + g.cycles_idle_awake + g.cycles_asleep + g.cycles_waking;
            assert_eq!(billed, 5 * 2 * measure, "{g:?}");
        }
    }

    #[test]
    fn leap_waits_for_flits_staged_in_mailboxes() {
        // A single-flit packet crossing a tile boundary leaves both
        // tiles' buffers empty for one exchange: the sender already
        // subtracted it, the receiver has not yet added it. Only the
        // staged count in each shard's published report stops a leap
        // over that live flit. At this rate nearly every packet that
        // crosses the two-band boundary does so in an otherwise
        // quiescent network.
        let cfg = MeshConfig {
            injection_rate: 0.002,
            pattern: TrafficPattern::UniformRandom,
            packet_len_flits: 1,
            seed: 3,
            ..base_cfg()
        };
        let reference = Simulation::new(MeshConfig {
            kernel: SimKernel::Reference,
            ..cfg.clone()
        })
        .run(0, 20_000);
        assert!(reference.packets_delivered > 20, "traffic must flow");
        for threads in [1, 2] {
            let mut tiled = Simulation::new(MeshConfig {
                shards: 2,
                threads,
                ..cfg.clone()
            });
            assert_eq!(
                reference,
                tiled.run(0, 20_000),
                "a leap skipped a flit in a mailbox ({threads} threads)"
            );
            assert!(tiled.leaps_total() > 20, "the run must leap");
        }
    }
}
