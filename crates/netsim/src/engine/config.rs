//! What a run is: [`MeshConfig`], [`SimKernel`] and [`SimAbort`].

use crate::fault::FaultPlan;
use crate::sleep::SleepConfig;
use crate::traffic::{InjectionProcess, TrafficPattern};
use serde::{Deserialize, Serialize};
#[cfg(doc)]
use {
    super::Simulation,
    crate::router::{MAX_BUFFER_DEPTH, MAX_VCS},
    crate::stats::NetworkStats,
    crate::topology::{FaultMap, Mesh},
};

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
    /// Input buffer depth in flits, **per virtual channel**
    /// (1..=[`MAX_BUFFER_DEPTH`], 65 535: lane cursors and credit
    /// counters are 16-bit).
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
            source_queue_cap: MeshConfig::DEFAULT_SOURCE_QUEUE_CAP,
            watchdog_cycles: MeshConfig::DEFAULT_WATCHDOG_CYCLES,
            cycle_budget: 0,
            shards: 0,
            threads: 0,
            faults: None,
            eager_settlement: false,
        }
    }
}
