//! # lnoc-netsim — flit-level NoC simulator
//!
//! The paper proposes its crossbars for on-chip networks and defines a
//! *Minimum Idle Time* for the sleep decision, but never shows network
//! data. This crate supplies the missing substrate: a flit-level 2-D
//! mesh/torus simulator with input-buffered wormhole routers carrying
//! **virtual channels with credit-based flow control** ([`router`]),
//! dimension-order routing with **dateline VC switching** on the torus
//! (deadlock-free DOR at `vcs ≥ 2`), synthetic traffic patterns (with
//! Bernoulli or bursty ON–OFF injection) and — crucially — per-VC-lane
//! **idle-interval histograms** plus an **in-loop sleep FSM** per
//! output VC lane ([`sleep`]), so power gating is simulated where it
//! belongs: inside the cycle loop, where wake latency back-pressures
//! real flits and an empty VC bank can sleep while its sibling carries
//! a worm. The offline policy models in [`lnoc_power::gating`] are
//! cross-validated against these in-loop measurements.
//!
//! The cycle loop runs on one production engine beside one oracle
//! ([`SimKernel`]), result-identical by construction and by test. The
//! engine ([`SimKernel::Engine`], the default) steps only the routers
//! that can do work and bulk-accounts everyone else's idleness in
//! closed form; it parks each source's next injection arrival
//! ([`InjectionProcess::next_arrival`]) on a per-tile time wheel and
//! **leaps the global clock over dead windows** whenever the whole
//! network holds no flit; and it partitions the mesh into row-band
//! tiles ([`topology::TileMap`]) stepped by parallel workers that
//! exchange boundary traffic through double-buffered mailboxes —
//! deterministic for every shard and thread count
//! ([`MeshConfig::shards`] / [`MeshConfig::threads`] are pure
//! geometry). The dense `Reference` kernel steps every router every
//! cycle and is kept as the oracle the engine is tested against. A
//! zero-progress watchdog ([`MeshConfig::watchdog_cycles`]) turns any
//! routing-deadlock regression into a fast, named failure instead of a
//! hung run — a panic from [`Simulation::run`], or a typed
//! [`SimAbort`] value from [`Simulation::try_run`] so sweep
//! orchestrators can record a deadlocked point and keep going.
//!
//! Robustness is first-class: a seeded [`FaultPlan`]
//! ([`MeshConfig::faults`]) schedules permanent and transient link and
//! router failures; routing swaps to per-epoch BFS detour tables
//! ([`FaultMap`], dateline-safe on the torus), doomed worms are reaped
//! with exact flit/credit conservation, unreachable destinations are
//! dropped with accounting, and [`NetworkStats`] reports the
//! degradation (drops, unroutable packets, reachable-pair floor,
//! post-fault latency) — all bit-identical across every kernel and
//! shard/thread geometry, faults included.
//!
//! ## Example
//!
//! ```
//! use lnoc_netsim::{
//!     GatingPolicy, InjectionProcess, MeshConfig, Simulation, SleepConfig, TrafficPattern,
//! };
//!
//! let cfg = MeshConfig {
//!     width: 4,
//!     height: 4,
//!     injection_rate: 0.05,
//!     pattern: TrafficPattern::UniformRandom,
//!     packet_len_flits: 4,
//!     buffer_depth: 4,                         // flits per VC
//!     vcs: 2,                                  // VCs per port
//!     seed: 7,
//!     wrap: false,                             // set for a torus
//!     injection: InjectionProcess::Bernoulli,  // or BurstyOnOff
//!     gating: Some(SleepConfig {
//!         policy: GatingPolicy::IdleThreshold(3),
//!         wake_latency: 1,
//!     }),
//!     // kernel: SimKernel::{Engine, Reference} — both produce
//!     // bit-identical statistics; shards/threads only set geometry.
//!     // faults: Some(FaultPlan { .. }) arms a seeded fault scenario.
//!     ..MeshConfig::default()
//! };
//! let mut sim = Simulation::new(cfg);
//! let stats = sim.run(200, 1000);
//! assert!(stats.flits_delivered > 0);
//! assert!(stats.total_gating_counters().sleep_entries > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod router;
mod shard;
pub mod sleep;
pub mod stats;
pub mod sync;
pub mod topology;
pub mod traffic;
mod wheel;
mod worklist;

/// The engine under its earlier module name, so `lnoc_netsim::sim::…`
/// paths keep resolving.
pub use engine as sim;
pub use engine::{MeshConfig, SimAbort, SimKernel, Simulation};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use lnoc_power::gating::GatingPolicy;
pub use router::{RouteTarget, MAX_BUFFER_DEPTH, MAX_VCS};
pub use sleep::{SleepConfig, SleepState};
pub use stats::{IdleBank, NetworkStats};
pub use topology::FaultMap;
pub use traffic::{Flit, GapSampler, InjectionProcess, TrafficPattern};
