//! Experiment X3: in-loop gating sweep. Runs the mesh simulator with
//! the sleep FSM live in the cycle loop over a mesh-size ×
//! injection-rate × policy × scheme × VC-count grid and emits the
//! committed `BENCH_noc.json` baseline (schema 9): energy saved, the
//! latency/throughput penalty the offline model cannot see, the
//! in-loop vs offline agreement on every point — and, per grid point,
//! the wall time, cycle rate and tile geometry of both simulation
//! kernels, so the engine's win over the dense reference and its
//! thread scaling are tracked in-repo alongside the energy numbers.
//! Rows also carry `cycles_leapt` / `events_processed` /
//! `leap_fraction` — how much of the run the time wheel let the clock
//! skip.
//!
//! Gating runs at the simulator's native granularity, the output VC
//! lane: each point's `GatingParams` are
//! [`RouterPowerModel::vc_lane_gating_params`] — a `1/V` share of a
//! crossbar port plus the downstream input-VC buffer bank — so the VC
//! dimension directly measures how finer gating granularity moves the
//! energy/latency frontier. A saturated Tornado point on a wrapped
//! 16×16 with dateline VCs exercises deadlock-free torus operation
//! under the armed watchdog; the 64×64 and larger rows are the scale
//! tiling and leaping exist for (the dense reference kernel is
//! excluded from those rows — it would dominate the sweep's wall time
//! without adding information; kernel equality is asserted per point
//! wherever both run).
//!
//! The grid is data: the [`Block`] tables below ([`FULL`],
//! [`FULL_FAULTS`], [`SMOKE`], [`SMOKE_FAULTS`]) list every block of
//! points, and [`expand`] walks them in one fixed nest. The cached
//! payload is one ordered field list (`payload!`) that drives its
//! encoding, decoding and the cross-kernel fingerprint.
//!
//! **Supervision** (schema 9): every grid point × kernel executes as an
//! isolated job on the checkpointed [`lnoc_bench::runner`] — panic
//! capture, an optional wall-clock deadline plus the engine's
//! deterministic cycle budget (`--deadline-cycles`), bounded retry with
//! backoff — and its serialized result lands in a content-addressed
//! cache keyed by a canonical config digest. A killed sweep resumed
//! with `--resume` re-runs only the missing points and regenerates the
//! artifacts **byte-identically** (pass `--deterministic` to also pin
//! the wall-time fields so whole files diff clean). Points that
//! exhaust their retries land in `out/x3_gating_sweep_failures.json`
//! while every other point completes; each row carries its
//! `attempts`/`panics`/`deadline_hits` supervision counters.
//!
//! Grid points run serially (characterization is still parallel) so
//! the per-kernel timings are not distorted by core contention. Both
//! kernels are asserted bit-identical on every point they share; each
//! kernel writes a deterministic per-point stats digest to
//! `out/x3_sweep_stats_<kernel>.json` so CI can diff the kernels as
//! files.
//!
//! **Fault sweep**: the full grid also carries a fault dimension —
//! deterministic [`FaultPlan`]s (fault count × injection rate × gating
//! policy, plus a dead-link saturated dateline-torus point) —
//! quantifying the leakage-savings story under graceful degradation:
//! dropped/unroutable packets, the reachable-pair floor and post-fault
//! latency land in the same rows and digests, and the faulted points
//! are asserted bit-identical across kernels exactly like the healthy
//! ones. Smoke grids opt in with `--faults`; the healthy smoke rows are
//! a prefix of the faulted run's, so CI runs the faulted smoke grid
//! once under both kernels and diffs the two digest files.
//!
//! With `LNOC_OUT_DIR` set, the full grid writes `BENCH_noc.json` there
//! instead of over the committed file.
//!
//! ```sh
//! cargo run --release -p lnoc-bench --bin gating_sweep                  # full grid → BENCH_noc.json
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke       # CI smoke grid → out/
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --faults --kernel all --shards 4
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --deterministic --fuse 5   # simulated kill
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --deterministic --resume   # finish it
//! ```

use lnoc_bench::digest::{mesh_config, DigestBuilder};
use lnoc_bench::json::{self, Obj};
use lnoc_bench::runner::{
    arg_num, arg_value, failure_manifest, run_jobs, AbortKind, AttemptMeta, Job, JobAbort,
    SweepFlags, FLAGS_HELP,
};
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_netsim::{
    FaultPlan, MeshConfig, NetworkStats, SimKernel, Simulation, SleepConfig, TrafficPattern,
};
use lnoc_power::gating::{
    energy_from_counters, evaluate_policy, GatingOutcome, GatingParams, GatingPolicy,
};
use lnoc_power::router::RouterPowerModel;
use lnoc_tech::units::{Hertz, Joules};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-VC input buffer depth used by BOTH the simulated network
/// (`MeshConfig::buffer_depth`) and the leakage/gating-parameter model
/// (`with_buffer_geometry`) — one constant so the two can never
/// silently describe different buffer geometries.
const DEPTH_PER_VC: usize = 4;

/// Cache-key domain: versions the job payload encoding. Bump whenever
/// the payload format or the digested field set changes.
const DIGEST_DOMAIN: &str = "x3.schema9.v2";

/// A gating policy in Minimum Idle Time terms: the threshold policies
/// are scheme- and VC-specific (each scheme × granularity has its own
/// MIT), so a block names them as functions of the MIT they resolve.
type Policy = fn(u32) -> GatingPolicy;
const NEVER: Policy = |_| GatingPolicy::Never;
const IMMEDIATE: Policy = |_| GatingPolicy::Immediate;
/// Sleep after MIT idle cycles.
const MIT: Policy = GatingPolicy::IdleThreshold;
/// Sleep after four MITs (MIT floored at one cycle): a late threshold
/// that trades savings for fewer wake stalls.
const FOUR_MIT: Policy = |mit| GatingPolicy::IdleThreshold(4 * mit.max(1));

/// Which VC counts of `--vcs` a block runs.
type Vcs = fn(&[usize]) -> Vec<usize>;
/// V = 1, whatever `--vcs` asks for.
const ONE_VC: Vcs = |_| vec![1];
/// Every requested count.
const ALL_VCS: Vcs = <[usize]>::to_vec;
/// Every requested count above one (the V = 1 points already sit in
/// the baseline block; repeating them would double-count rows in any
/// aggregation over the committed JSON).
const VCS_ABOVE_ONE: Vcs = |vcs| vcs.iter().copied().filter(|&v| v > 1).collect();
/// The first requested count ≥ 2: a dateline torus needs two VCs, so
/// the block is skipped when none is requested.
const DATELINE_VCS: Vcs = |vcs| vcs.iter().copied().find(|&v| v >= 2).into_iter().collect();

/// A block's fault schedule. Plan seeds derive from the sweep seed so
/// `--seed` reproduces the whole scenario, kills included.
#[derive(Clone, Copy)]
enum Faults {
    /// Plan `i` of a fault-count ladder: `[permanent links, routers,
    /// transient links]` killed across the first half of measurement,
    /// seeded `seed ^ (0xFA17 + i)`.
    Scatter(u64, [usize; 3]),
    /// One link dies a third of the way into measurement; the torus
    /// must keep streaming around the detour without tripping the
    /// watchdog.
    DeadLink,
}

impl Faults {
    fn plan(self, seed: u64, block: &Block) -> FaultPlan {
        match self {
            Faults::Scatter(i, [links, routers, transients]) => FaultPlan {
                seed: seed ^ (0xFA17 + i),
                link_faults: links,
                router_faults: routers,
                transient_link_faults: transients,
                transient_duration: block.measure / 4,
                start_cycle: block.warmup,
                window: block.measure / 2,
                ..FaultPlan::default()
            },
            Faults::DeadLink => FaultPlan {
                seed: seed ^ 0xDEAD,
                start_cycle: block.warmup + block.measure / 3,
                window: 1,
                ..FaultPlan::links(1)
            },
        }
    }
}

/// One block of the grid: the cross product schemes × VC counts ×
/// rates × policies, everything else shared.
#[derive(Clone, Copy)]
struct Block {
    schemes: &'static [Scheme],
    mesh: (usize, usize),
    rates: &'static [f64],
    pattern: TrafficPattern,
    wrap: bool,
    vcs: Vcs,
    policies: &'static [Policy],
    warmup: u64,
    measure: u64,
    /// Timing repetitions (big meshes run once; the rest best-of-2).
    reps: u32,
    /// The fault schedule, `None` when healthy.
    faults: Option<Faults>,
}

const SC_DPC: &[Scheme] = &[Scheme::Sc, Scheme::Dpc];

impl Block {
    /// DPC under uniform traffic on an open mesh at V = 1, never vs
    /// MIT, healthy: the defaults the builders below override. `run`
    /// is (warm-up cycles, measured cycles, timing repetitions).
    const fn uniform(mesh: (usize, usize), rates: &'static [f64], run: (u64, u64, u32)) -> Block {
        let (warmup, measure, reps) = run;
        Block {
            schemes: &[Scheme::Dpc],
            mesh,
            rates,
            pattern: TrafficPattern::UniformRandom,
            wrap: false,
            vcs: ONE_VC,
            policies: &[NEVER, MIT],
            warmup,
            measure,
            reps,
            faults: None,
        }
    }

    /// Nearest-neighbour (1-hop) traffic: at vanishing rates the
    /// network quiesces between arrivals and the time wheel leaps the
    /// dead windows.
    const fn leap(mesh: (usize, usize), rates: &'static [f64], run: (u64, u64, u32)) -> Block {
        Block {
            pattern: TrafficPattern::NearestNeighbor,
            ..Block::uniform(mesh, rates, run)
        }
    }

    /// Tornado at full offered load on a wrapped mesh with dateline
    /// VCs, watchdog armed (the default): deadlock-free torus operation
    /// and per-VC gating numbers under heavy, structured traffic.
    const fn torus(mesh: (usize, usize), run: (u64, u64, u32)) -> Block {
        Block {
            pattern: TrafficPattern::Tornado,
            wrap: true,
            vcs: DATELINE_VCS,
            ..Block::uniform(mesh, &[1.0], run)
        }
    }

    const fn schemes(self, schemes: &'static [Scheme]) -> Block {
        Block { schemes, ..self }
    }

    const fn vcs(self, vcs: Vcs) -> Block {
        Block { vcs, ..self }
    }

    const fn policies(self, policies: &'static [Policy]) -> Block {
        Block { policies, ..self }
    }

    const fn faults(self, faults: Faults) -> Block {
        Block {
            faults: Some(faults),
            ..self
        }
    }
}

/// The committed baseline grid (`BENCH_noc.json`), in row order.
const FULL: &[Block] = &[
    // Scheme × rate × policy matrix at the V = 1 baseline granularity.
    Block::uniform((4, 4), &[0.02, 0.05, 0.08], (1000, 12000, 2))
        .schemes(&Scheme::ALL)
        .policies(&[NEVER, MIT, IMMEDIATE, FOUR_MIT]),
    // VC-granularity dimension: how finer per-VC gating moves the
    // energy/latency frontier, for the baseline and the best-gating
    // scheme.
    Block::uniform((4, 4), &[0.05], (1000, 12000, 2))
        .schemes(SC_DPC)
        .vcs(VCS_ABOVE_ONE)
        .policies(&[NEVER, MIT, IMMEDIATE]),
    // Scaling points: low-rate large meshes — the ultra-low utilization
    // regime the paper's leakage argument (and the engine) target.
    Block::uniform((16, 16), &[0.0025, 0.005], (1000, 12000, 2)).schemes(SC_DPC),
    Block::uniform((32, 32), &[0.0025, 0.005], (500, 8000, 2)),
    // The loaded 32×32 row: at medium rate the active set is large and
    // there is no quiescence to skip.
    Block::uniform((32, 32), &[0.05], (500, 6000, 2)),
    // The scales tiling exists for. The dense reference kernel sits
    // these out (see the job loop in `main`).
    Block::uniform((64, 64), &[0.005], (500, 4000, 1)),
    Block::uniform((128, 128), &[0.0025], (200, 1500, 1)),
    // Leap rows: mid-size meshes at vanishing rates.
    Block::leap((64, 64), &[1e-5, 2e-6], (500, 4000, 1)),
    Block::leap((128, 128), &[2e-6], (200, 1500, 1)),
    // The scale showcase rows: quarter-million- and million-router
    // meshes. A per-cycle scan would pay O(n) per cycle here; the wheel
    // leaps those cycles away, and with lazy per-router settlement each
    // leap pays only for the routers actually touched — quiescent
    // routers carry settlement debt that the run-end close-out pays
    // once, so the whole run is O(touched) plus one O(n) walk
    // (`routers_settled` / `settle_ops_per_leap` / `max_debt_span`
    // report that machinery per row).
    Block::leap((512, 512), &[2e-7], (100, 500, 1)),
    Block::leap((1024, 1024), &[5e-8], (50, 250, 1)),
    Block::torus((16, 16), (500, 6000, 2)),
];

/// The full grid's fault dimension: fault count × injection rate ×
/// gating policy, each with its own Never row as the faulted latency
/// baseline, plus a dead-link saturated dateline torus.
const FULL_FAULTS: &[Block] = &[
    Block::uniform((16, 16), &[0.02, 0.05], (500, 8000, 2)).faults(Faults::Scatter(0, [1, 0, 0])),
    Block::uniform((16, 16), &[0.02, 0.05], (500, 8000, 2)).faults(Faults::Scatter(1, [2, 0, 1])),
    Block::uniform((16, 16), &[0.02, 0.05], (500, 8000, 2)).faults(Faults::Scatter(2, [2, 1, 2])),
    Block::torus((16, 16), (500, 8000, 2)).faults(Faults::DeadLink),
];

/// The CI smoke grid, run under both kernels everywhere.
const SMOKE: &[Block] = &[
    Block::uniform((4, 4), &[0.05], (300, 2000, 1))
        .schemes(SC_DPC)
        .vcs(ALL_VCS),
    // One larger-mesh point keeps the worklist fast path under CI, and
    // a short 64×64 point keeps the tile/mailbox path (and its digest)
    // alive.
    Block::uniform((16, 16), &[0.02], (200, 1500, 1)),
    Block::uniform((64, 64), &[0.005], (100, 600, 1)),
    // One large near-dead mesh keeps the engine's leap path — and the
    // lazy settlement debts it leaves behind — under CI's cross-kernel
    // digest diff, with the dense reference as the independent oracle.
    // Both policies run so the gated and ungated close-out templates
    // are each exercised.
    Block::leap((128, 128), &[2e-6], (50, 400, 1)),
    // The saturated dateline torus keeps the deadlock-freedom path
    // alive. It runs threshold before never: the committed row order.
    Block::torus((8, 8), (200, 1500, 1)).policies(&[MIT, NEVER]),
];

/// The smoke grid's fault dimension (`--faults`).
const SMOKE_FAULTS: &[Block] = &[
    Block::uniform((8, 8), &[0.05], (100, 1500, 1)).faults(Faults::Scatter(0, [1, 0, 0])),
    Block::uniform((8, 8), &[0.05], (100, 1500, 1)).faults(Faults::Scatter(1, [2, 1, 1])),
    Block::torus((8, 8), (100, 1500, 1)).faults(Faults::DeadLink),
];

/// One point of the sweep grid (kernel-independent): its block plus
/// the scheme, VC count, rate and resolved policy it was expanded to.
#[derive(Clone)]
struct GridPoint {
    block: Block,
    scheme: Scheme,
    params: GatingParams,
    vcs: usize,
    rate: f64,
    policy: GatingPolicy,
    faults: Option<FaultPlan>,
}

/// Expands the blocks into grid points in the fixed nest block →
/// scheme → VC count → rate → policy.
fn expand(
    blocks: &[Block],
    requested_vcs: &[usize],
    seed: u64,
    lane_params: impl Fn(Scheme, usize) -> GatingParams,
    clock: Hertz,
) -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for &block in blocks {
        let faults = block.faults.map(|f| f.plan(seed, &block));
        for &scheme in block.schemes {
            for vcs in (block.vcs)(requested_vcs) {
                let params = lane_params(scheme, vcs);
                let mit = params.min_idle_cycles(clock);
                for &rate in block.rates {
                    for policy in block.policies {
                        grid.push(GridPoint {
                            block,
                            scheme,
                            params,
                            vcs,
                            rate,
                            policy: policy(mit),
                            faults: faults.clone(),
                        });
                    }
                }
            }
        }
    }
    grid
}

impl GridPoint {
    fn routers(&self) -> usize {
        self.block.mesh.0 * self.block.mesh.1
    }

    fn mesh_name(&self) -> String {
        format!("{}x{}", self.block.mesh.0, self.block.mesh.1)
    }

    /// Total kills in the point's fault plan (0 when healthy).
    fn fault_count(&self) -> usize {
        self.faults.as_ref().map_or(0, |f| {
            f.link_faults + f.router_faults + f.transient_link_faults
        })
    }

    fn label(&self) -> String {
        format!(
            "{} {} {} rate {} vcs {} {}{}",
            self.scheme.name(),
            self.mesh_name(),
            self.block.pattern.name(),
            self.rate,
            self.vcs,
            self.policy,
            self.faults.as_ref().map_or("", |_| " faulted"),
        )
    }

    /// The identity fields that open both a result row and a stats
    /// digest line.
    fn identity(&self, seed: u64) -> Obj {
        Obj::new()
            .str("scheme", self.scheme.name())
            .str("mesh", self.mesh_name())
            .str("pattern", self.block.pattern.name())
            .raw("wrap", self.block.wrap)
            .raw("vcs", self.vcs)
            .raw("seed", seed)
            .raw("rate", self.rate)
            .str("policy", self.policy)
    }

    /// The point's engine config on `kernel`, on top of the
    /// sweep-wide `base` (seed, packet and buffer shape, tile geometry,
    /// cycle budget).
    fn mesh_cfg(&self, kernel: SimKernel, base: &MeshConfig) -> MeshConfig {
        MeshConfig {
            width: self.block.mesh.0,
            height: self.block.mesh.1,
            injection_rate: self.rate,
            pattern: self.block.pattern,
            wrap: self.block.wrap,
            vcs: self.vcs,
            // Every policy (including Never) runs through the FSM so
            // counters are collected; Never simply never sleeps.
            gating: Some(SleepConfig {
                policy: self.policy,
                wake_latency: self.params.wake_latency_cycles,
            }),
            kernel,
            faults: self.faults.clone(),
            ..base.clone()
        }
    }

    /// The job's cache key: the full engine config (exhaustive, via
    /// [`mesh_config`]) plus every sweep-level input that shapes the
    /// payload — run lengths, repetitions, the gating parameter set,
    /// the clock, and whether timings are pinned.
    fn job_digest(&self, cfg: &MeshConfig, reps: u32, deterministic: bool, clock: Hertz) -> String {
        let p = &self.params;
        mesh_config(DigestBuilder::new(DIGEST_DOMAIN), cfg)
            .field("scheme", self.scheme.name())
            .field("warmup", self.block.warmup)
            .field("measure", self.block.measure)
            .field("reps", reps)
            .field("deterministic", deterministic)
            .f64("clock_hz", clock.0)
            .f64("params.p_idle_awake_w", p.p_idle_awake.0)
            .f64("params.p_standby_w", p.p_standby.0)
            .f64("params.e_transition_j", p.e_transition.0)
            .field("params.wake_latency_cycles", p.wake_latency_cycles)
            .finish()
    }

    /// Deterministic per-point digest for file-level kernel diffing
    /// (everything in it must be bit-identical across kernels).
    fn stats_digest(&self, seed: u64, stats: &NetworkStats) -> String {
        let hist = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
        let k = stats.total_gating_counters();
        self.identity(seed)
            .raw("faults", self.fault_count())
            .raw("packets_injected", stats.packets_injected)
            .raw("packets_delivered", stats.packets_delivered)
            .raw("flits_delivered", stats.flits_delivered)
            .raw("dropped_at_source", stats.packets_dropped_at_source)
            .raw("latency_sum", stats.latency_sum)
            .raw("latency_max", stats.latency_max)
            .raw("idle_intervals", hist.interval_count())
            .raw("idle_cycles", hist.total_idle_cycles())
            .raw("sleep_entries", k.sleep_entries)
            .raw("wake_stalls", k.wake_stall_cycles)
            .raw("cycles_asleep", k.cycles_asleep)
            .raw("dropped_by_fault", stats.flits_dropped_by_fault)
            .raw("packets_unroutable", stats.packets_unroutable)
            .raw("delivered_post_fault", stats.packets_delivered_post_fault)
            .raw("latency_sum_post_fault", stats.latency_sum_post_fault)
            .build()
    }
}

/// How one payload scalar is written to and read back from the cache
/// line.
trait Scalar: Sized {
    fn put(&self, obj: Obj, key: &str) -> Obj;
    fn get(line: &str, key: &str) -> Option<Self>;
}

impl Scalar for String {
    fn put(&self, obj: Obj, key: &str) -> Obj {
        obj.str(key, self)
    }
    fn get(line: &str, key: &str) -> Option<Self> {
        json::field_str(line, key)
    }
}

impl Scalar for u64 {
    fn put(&self, obj: Obj, key: &str) -> Obj {
        obj.raw(key, self)
    }
    fn get(line: &str, key: &str) -> Option<Self> {
        json::field_u64(line, key)
    }
}

/// Floats travel as their exact bit patterns under a `_bits` key, so a
/// cached payload reproduces them exactly.
impl Scalar for f64 {
    fn put(&self, obj: Obj, key: &str) -> Obj {
        obj.f64_bits(&format!("{key}_bits"), *self)
    }
    fn get(line: &str, key: &str) -> Option<Self> {
        json::field_f64_bits(line, &format!("{key}_bits"))
    }
}

/// Whether a payload scalar must agree across kernels.
#[derive(Clone, Copy)]
enum Class {
    /// A pure function of the run's statistics: part of the
    /// cross-kernel fingerprint.
    Stats,
    /// Kernel identity, tile geometry, wall-clock timing or engine
    /// telemetry, which legitimately differ between kernels.
    Kernel,
}

/// Declares the cached payload's scalars once, in cache-line order.
/// The list drives the struct, [`Payload::render`], [`Payload::parse`]
/// and [`Payload::stats_fingerprint`]. Reordering, renaming or adding a
/// field changes the cache bytes, so bump [`DIGEST_DOMAIN`] with it.
macro_rules! payload {
    ($($(#[$doc:meta])* $name:ident: $ty:ty = $class:ident,)*) => {
        /// Everything one job run produces, serialized as the cached
        /// payload: a flat scalar line plus the kernel-diffable stats
        /// digest line, verbatim. Caching the exact bytes is what makes
        /// resumed artifacts byte-identical.
        struct Payload {
            $($(#[$doc])* $name: $ty,)*
            digest_line: String,
        }

        impl Payload {
            fn render(&self) -> String {
                let obj = Obj::new();
                $(let obj = self.$name.put(obj, stringify!($name));)*
                format!("{}\n{}", obj.build(), self.digest_line)
            }

            fn parse(payload: &str) -> Option<Payload> {
                let (line, digest_line) = payload.split_once('\n')?;
                Some(Payload {
                    $($name: Scalar::get(line, stringify!($name))?,)*
                    digest_line: digest_line.to_string(),
                })
            }

            /// The digest line plus every [`Class::Stats`] scalar, for
            /// the cross-kernel bit-identity assertion.
            fn stats_fingerprint(&self) -> String {
                let mut obj = Obj::new();
                $(if matches!(Class::$class, Class::Stats) {
                    obj = self.$name.put(obj, stringify!($name));
                })*
                format!("{}\n{}", self.digest_line, obj.build())
            }
        }
    };
}

payload! {
    kernel: String = Kernel,
    shards: u64 = Kernel,
    threads: u64 = Kernel,
    wall_s: f64 = Kernel,
    cycles_per_sec: f64 = Kernel,
    /// Cycle rate of the same geometry at two worker threads — the
    /// thread-scaling measurement, taken on engine rows with at least
    /// two shards (0 when not measured).
    cycles_per_sec_2t: f64 = Kernel,
    avg_latency: f64 = Stats,
    throughput: f64 = Stats,
    wake_stall_cycles: u64 = Stats,
    dropped_at_source: u64 = Stats,
    sleep_events: u64 = Stats,
    energy_never: f64 = Stats,
    energy_policy: f64 = Stats,
    offline_energy_never: f64 = Stats,
    offline_energy_policy: f64 = Stats,
    dropped_by_fault: u64 = Stats,
    packets_unroutable: u64 = Stats,
    min_reachable: f64 = Stats,
    avg_latency_post_fault: f64 = Stats,
    /// Cycles the engine's time wheel let the clock skip (0 for the
    /// reference).
    cycles_leapt: u64 = Kernel,
    /// Injection arrivals fired from the wheel (0 for the reference).
    events_processed: u64 = Kernel,
    /// Routers whose settlement debt was paid during the run —
    /// on-touch and at close-out combined (0 for the eager reference
    /// kernel).
    routers_settled: u64 = Kernel,
    /// Touch-paid debt settlements per clock leap: the actual per-leap
    /// settlement cost, which lazy settlement keeps at O(touched)
    /// instead of O(n).
    settle_ops_per_leap: f64 = Kernel,
    /// Longest deferred span (cycles) any single settlement replayed.
    max_debt_span: u64 = Kernel,
}

/// Runs one grid point on one kernel and measures it.
fn run_point(
    point: &GridPoint,
    sim_cfg: &MeshConfig,
    reps: u32,
    deterministic: bool,
    clock: Hertz,
    warmed: &Mutex<BTreeSet<(usize, usize)>>,
) -> Result<Payload, JobAbort> {
    // One untimed throwaway per distinct mesh size pays the
    // page-fault/warm-up cost outside any timed run (skipped in
    // deterministic mode, where timings are pinned to zero anyway).
    if !deterministic {
        let first_at_this_size = warmed
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(point.block.mesh);
        // The 512×512 and 1024×1024 showcase rows skip the throwaway:
        // their timed runs take a fraction of a second, but building
        // the mesh (outside the timer) takes seconds and hundreds of
        // megabytes, so a throwaway would double the row's real cost.
        if first_at_this_size && point.routers() <= 16384 {
            let _ =
                Simulation::new(sim_cfg.clone()).try_run(point.block.warmup, point.block.measure);
        }
    }
    // Construction (including the engine's route-table build) stays
    // outside the timer: cycle rate measures the loop. Best-of-`reps`
    // wall time — the repeats are identical simulations (stats, geometry
    // and telemetry included), so the minimum is the least-noise
    // estimate and the last rep's results stand for all.
    let time_runs = |cfg: &MeshConfig| -> Result<(f64, (NetworkStats, Simulation)), JobAbort> {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..reps {
            let mut sim = Simulation::new(cfg.clone());
            let start = Instant::now();
            let stats = sim
                .try_run(point.block.warmup, point.block.measure)
                .map_err(JobAbort::from_sim)?;
            best = best.min(start.elapsed().as_secs_f64());
            last = Some((stats, sim));
        }
        Ok((best, last.expect("at least one rep")))
    };
    let (wall_s, (stats, sim)) = time_runs(sim_cfg)?;
    let cycles = (point.block.warmup + point.block.measure) as f64;
    let (wall_s, cycles_per_sec) = if deterministic {
        (0.0, 0.0)
    } else {
        (wall_s, cycles / wall_s)
    };
    let in_loop = energy_from_counters(&stats.total_gating_counters(), &point.params, clock);
    let offline = evaluate_policy(
        &stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS),
        &point.params,
        point.policy,
        clock,
    );
    let mut payload = Payload {
        kernel: sim_cfg.kernel.name().to_string(),
        shards: sim.shards() as u64,
        threads: sim.threads() as u64,
        wall_s,
        cycles_per_sec,
        cycles_per_sec_2t: 0.0,
        avg_latency: stats.avg_latency(),
        throughput: stats.throughput(),
        wake_stall_cycles: stats.wake_stall_cycles(),
        dropped_at_source: stats.packets_dropped_at_source,
        sleep_events: in_loop.sleep_events,
        energy_never: in_loop.energy_never.0,
        energy_policy: in_loop.energy_policy.0,
        offline_energy_never: offline.energy_never.0,
        offline_energy_policy: offline.energy_policy.0,
        dropped_by_fault: stats.flits_dropped_by_fault,
        packets_unroutable: stats.packets_unroutable,
        min_reachable: stats.min_reachable_fraction,
        avg_latency_post_fault: stats.avg_latency_post_fault(),
        cycles_leapt: sim.cycles_leapt_total(),
        events_processed: sim.events_processed_total(),
        routers_settled: sim.routers_settled_total(),
        settle_ops_per_leap: sim.settle_ops_total() as f64 / sim.leaps_total().max(1) as f64,
        max_debt_span: sim.max_debt_span(),
        digest_line: point.stats_digest(sim_cfg.seed, &stats),
    };
    // Thread scaling: the same geometry re-timed at two worker threads
    // (best of `reps`), on engine rows that have two tiles to run
    // concurrently. The measured run is dropped first: the largest
    // meshes hold gigabytes.
    drop(sim);
    if !deterministic && payload.shards >= 2 && sim_cfg.kernel == SimKernel::Engine {
        let cfg_2t = MeshConfig {
            shards: payload.shards as usize,
            threads: 2,
            ..sim_cfg.clone()
        };
        payload.cycles_per_sec_2t = cycles / time_runs(&cfg_2t)?.0;
    }
    Ok(payload)
}

/// Renders a value with `prec` decimals.
fn fix(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Renders a value in scientific notation with six decimals.
fn sci(v: f64) -> String {
    format!("{v:.6e}")
}

/// Renders an optional value with `prec` decimals, `null` when absent.
fn opt(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "null".into(), |v| fix(v, prec))
}

/// The share of the never-gated leakage a policy saved, in percent.
fn saved_pct(energy_never: f64, energy_policy: f64) -> f64 {
    let outcome = GatingOutcome {
        energy_never: Joules(energy_never),
        energy_policy: Joules(energy_policy),
        sleep_events: 0,
        wake_penalty_cycles: 0,
    };
    outcome.savings_fraction() * 100.0
}

const USAGE: &str = "\
gating_sweep — X3 in-loop gating sweep (schema 9)

Grid flags:
  --smoke            CI smoke grid (writes out/x3_gating_sweep_smoke.json
                     instead of the committed BENCH_noc.json)
  --faults           include the fault dimension in smoke grids
                     (the full grid always carries it)
  --kernel <k>       reference | engine | all (default all)
  --seed <n>         sweep seed (default 2005)
  --shards <n>       engine tile count (default 0 = the simulator's
                     size-derived default)
  --threads <n>      engine worker threads (default 1; engine rows with
                     two or more shards are also timed at 2 threads)
  --vcs <list>       VC counts, e.g. 1,2,4
  --inject-panic     append a job that always panics (supervision demo:
                     retried per policy, then isolated in the manifest)
  --inject-deadlock  append a deadlocking point (the watchdog's typed abort
                     fails fast into the manifest; exit 2)
";

const NOTE: &str = "in-loop per-VC-lane sleep-FSM gating sweep; gating params are one output \
         VC lane (1/V crossbar port share + downstream input-VC buffer bank); every grid point x \
         kernel runs as an isolated supervised job (panic capture, cycle-budget + wall-clock \
         deadline, bounded retry) whose result is cached under its canonical config digest — a \
         killed sweep resumed with --resume regenerates this file byte-identically; attempts / \
         panics / deadline_hits are each row's supervision counters; agreement = |in_loop - \
         offline| / offline on the same run's histograms; both kernels are asserted \
         bit-identical on every point they share before timing is reported; \
         speedup_vs_reference = cycle rate of the row's kernel over the dense reference on the \
         same point; shards/threads are the row's resolved tile geometry (the simulator's \
         size-derived default: one tile per core from 64x64 up, so it depends on \
         threads_available, the host's cores); thread_scaling = the engine's cycle rate at two \
         worker threads over one on the same geometry (engine rows with at least two shards); \
         the wrapped tornado points run dateline VCs at saturation under the armed watchdog; \
         cycles_leapt / events_processed / leap_fraction are the engine's time-wheel telemetry \
         (how much of the run the clock skipped; identically zero for the reference and \
         excluded from the bit-identity assertion); routers_settled / settle_ops_per_leap / \
         max_debt_span are the lazy-settlement counters (debts paid over the run, touch-paid \
         settlements per leap, longest span replayed at once; telemetry, excluded like \
         cycles_leapt); the rows above 32x32 exclude the dense reference kernel; faults > 0 rows \
         run a seeded FaultPlan (permanent + transient link/router kills) with fault-aware \
         rerouting — their latency penalty is against their own faulted Never baseline, and \
         min_reachable_pct / dropped_by_fault / packets_unroutable / avg_latency_post_fault \
         quantify graceful degradation";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\n{FLAGS_HELP}");
        return;
    }
    let flags = SweepFlags::parse(&args);
    let smoke = args.iter().any(|a| a == "--smoke");
    // The full sweep always carries the fault grid (the committed
    // baseline quantifies graceful degradation); smoke grids opt in
    // with `--faults` so the plain smoke run stays minimal.
    let with_faults = !smoke || args.iter().any(|a| a == "--faults");
    let kernels: Vec<SimKernel> = match arg_value(&args, "--kernel") {
        None | Some("all") => vec![SimKernel::Reference, SimKernel::Engine],
        Some("reference") => vec![SimKernel::Reference],
        Some("engine") => vec![SimKernel::Engine],
        Some(other) => panic!("unknown --kernel {other} (reference | engine | all)"),
    };
    let seed: u64 = arg_num(&args, "--seed").unwrap_or(2005);
    // Engine tile geometry. `--shards 0` keeps the simulator's
    // size-derived default (one tile per core from 64×64 up), which is
    // what the committed baseline records; rows carry the resolved
    // geometry. Shard and thread counts never change results — only
    // wall time.
    let base = MeshConfig {
        packet_len_flits: 4,
        buffer_depth: DEPTH_PER_VC,
        seed,
        shards: arg_num(&args, "--shards").unwrap_or(0),
        threads: arg_num(&args, "--threads").unwrap_or(1),
        cycle_budget: flags.deadline_cycles,
        ..MeshConfig::default()
    };
    let vc_list: Vec<usize> = arg_value(&args, "--vcs")
        .map(|s| {
            s.split(',')
                .map(|v| v.trim().parse().expect("--vcs takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| if smoke { vec![1, 2] } else { vec![1, 2, 4] });
    let cfg = if smoke {
        CrossbarConfig {
            flit_bits: 32,
            sim_dt: 0.5e-12,
            ..CrossbarConfig::paper()
        }
    } else {
        CrossbarConfig::paper()
    };
    let clock = cfg.clock;
    let (grid_blocks, fault_blocks) = if smoke {
        (SMOKE, SMOKE_FAULTS)
    } else {
        (FULL, FULL_FAULTS)
    };
    let blocks = [grid_blocks, if with_faults { fault_blocks } else { &[] }].concat();

    // Characterize each scheme the grid uses once, in parallel; derive
    // per-VC-lane gating parameters for every VC count (the buffer
    // geometry — and with it the gateable leakage — scales with V).
    let ch = Characterizer::new(&cfg);
    let models: Vec<(Scheme, RouterPowerModel)> = Scheme::ALL
        .into_iter()
        .filter(|s| blocks.iter().any(|b| b.schemes.contains(s)))
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&scheme| {
            let c = ch.characterize(scheme).expect("characterization");
            (scheme, RouterPowerModel::from_characterization(&c, &cfg))
        })
        .collect();
    let lane_params = |scheme: Scheme, vcs: usize| -> GatingParams {
        let (_, model) = models
            .iter()
            .find(|(s, _)| *s == scheme)
            .expect("characterized");
        model
            .clone()
            .with_buffer_geometry(vcs, DEPTH_PER_VC)
            .vc_lane_gating_params(cfg.radix, vcs)
    };
    let grid = expand(&blocks, &vc_list, seed, lane_params, clock);

    let threads_available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "sweeping {} grid points × up to {} kernel(s), seed {seed}, vcs {:?}, \
         shards {}, threads {} (host cores: {threads_available}), serially (timings stay clean)…",
        grid.len(),
        kernels.len(),
        vc_list,
        base.shards,
        match base.threads {
            0 => "auto".to_string(),
            n => n.to_string(),
        },
    );

    // One supervised job per grid point × kernel. Jobs run serially
    // under the runner (wall times mean something), each isolated on
    // its own thread with panic capture and the deadline. The full
    // sweep excludes the dense reference from meshes beyond the 32×32
    // route-table cap, where dense stepping would dominate the sweep's
    // wall time without adding information; smoke grids keep both
    // kernels everywhere so the per-kernel digest files stay
    // row-aligned for CI's diff.
    let deterministic = flags.deterministic;
    let warmed: Arc<Mutex<BTreeSet<(usize, usize)>>> = Arc::default();
    let mut jobs: Vec<Job> = Vec::new();
    // Parallel to the grid's jobs, which come first: the grid point a
    // job computes (the injected demo jobs after them add no rows).
    let mut job_point: Vec<usize> = Vec::new();
    for (point_idx, point) in grid.iter().enumerate() {
        for &kernel in &kernels {
            if !smoke && kernel == SimKernel::Reference && point.routers() > 1024 {
                continue;
            }
            let reps = if deterministic {
                1
            } else {
                point.block.reps.max(1)
            };
            let sim_cfg = point.mesh_cfg(kernel, &base);
            let digest = point.job_digest(&sim_cfg, reps, deterministic, clock);
            let (point, warmed) = (point.clone(), warmed.clone());
            let label = format!("{} [{}]", point.label(), kernel.name());
            jobs.push(Job::new(label, digest, move || {
                run_point(&point, &sim_cfg, reps, deterministic, clock, &warmed).map(|p| p.render())
            }));
            job_point.push(point_idx);
        }
    }
    // Injected-failure demo jobs: exercise the supervision path
    // end-to-end (retry → manifest → exit 2) without touching the
    // real grid.
    if args.iter().any(|a| a == "--inject-panic") {
        jobs.push(Job::new(
            "injected panic (supervision demo)",
            DigestBuilder::new("x3.inject-panic.v1")
                .field("seed", seed)
                .finish(),
            || panic!("injected panic (supervision demo)"),
        ));
    }
    if args.iter().any(|a| a == "--inject-deadlock") {
        // A config the engine provably wedges on: saturated Tornado on
        // a wrapped 8×8 with a single VC (no dateline escape), short
        // watchdog. The watchdog's typed abort fails fast — no retries
        // burned — and lands in the manifest while every real point
        // completes.
        let wedge = MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: 1,
            injection_rate: 1.0,
            pattern: TrafficPattern::Tornado,
            packet_len_flits: 8,
            source_queue_cap: 8,
            watchdog_cycles: 500,
            seed: 5,
            ..MeshConfig::default()
        };
        let digest = mesh_config(DigestBuilder::new("x3.inject-deadlock.v2"), &wedge)
            .field("warmup", 0u64)
            .field("measure", 5_000u64)
            .finish();
        jobs.push(Job::new(
            "injected deadlock (supervision demo)",
            digest,
            move || {
                Simulation::new(wedge.clone())
                    .try_run(0, 5_000)
                    .map_err(JobAbort::from_sim)?;
                Err(JobAbort {
                    kind: AbortKind::Other,
                    message: "expected deadlock did not occur".to_string(),
                })
            },
        ));
    }

    let runner_cfg = flags.runner_config("gating_sweep");
    eprintln!(
        "runner: {} jobs, cache {}, journal {}, {}",
        jobs.len(),
        runner_cfg.cache_dir.display(),
        runner_cfg.journal_path.display(),
        flags.summary(),
    );
    let report = run_jobs(&runner_cfg, &jobs);
    let manifest = failure_manifest(&jobs, &report);
    lnoc_bench::write_artifact("x3_gating_sweep_failures.json", &manifest);

    // Assemble rows from the payloads (fresh or cached — the bytes are
    // identical either way). Failed / not-run jobs contribute no row.
    struct Row {
        point_idx: usize,
        payload: Payload,
        meta: AttemptMeta,
    }
    let mut rows: Vec<Row> = Vec::new();
    for ((status, &point_idx), job) in report.statuses.iter().zip(&job_point).zip(&jobs) {
        let Some(payload) = status.payload() else {
            continue;
        };
        rows.push(Row {
            point_idx,
            payload: Payload::parse(payload)
                .unwrap_or_else(|| panic!("corrupt payload for job {}", job.label)),
            meta: status.meta().expect("done jobs carry meta"),
        });
    }
    // Kernel bit-identity, asserted on the serialized stats (digest
    // line + every stats-derived scalar): both kernels, where both ran
    // a point, must agree exactly, wherever their payloads came from.
    // A point's rows are adjacent, in kernel order.
    for w in rows.windows(2).filter(|w| w[0].point_idx == w[1].point_idx) {
        assert_eq!(
            w[0].payload.stats_fingerprint(),
            w[1].payload.stats_fingerprint(),
            "kernel divergence ({} vs {}) at {}",
            w[0].payload.kernel,
            w[1].payload.kernel,
            grid[w[0].point_idx].label(),
        );
    }

    // Per-point kernel speedups ride along on the engine rows: the
    // engine over the reference, and the engine's thread scaling — the
    // numbers the README quotes.
    let mut worst_disagreement: f64 = 0.0;
    let mut min_16x16_low_rate: f64 = f64::INFINITY;
    let mut scaling_range = (f64::INFINITY, 0.0f64);
    let mut result_rows: Vec<String> = Vec::new();
    let mut speedups: Vec<String> = Vec::new();
    for r in &rows {
        let point = &grid[r.point_idx];
        let p = &r.payload;
        let agreement = if p.offline_energy_policy > 0.0 {
            (p.energy_policy - p.offline_energy_policy).abs() / p.offline_energy_policy
        } else {
            0.0
        };
        if point.policy != GatingPolicy::Never {
            worst_disagreement = worst_disagreement.max(agreement);
        }
        let cycles = point.block.warmup + point.block.measure;
        let leap_fraction = p.cycles_leapt as f64 / cycles as f64;
        // The cycle rate over the reference's on the same point, if it
        // ran (and timings are not pinned by --deterministic).
        let speedup_vs_reference = rows
            .iter()
            .find(|b| b.point_idx == r.point_idx && b.payload.kernel == SimKernel::Reference.name())
            .map(|b| b.payload.cycles_per_sec)
            .filter(|&cps| cps > 0.0)
            .map(|base| p.cycles_per_sec / base);
        // Latency penalty against the Never row of the same network
        // (mesh, rate, pattern, wrap, vcs, faults): the Never policy
        // behaves identically for every scheme and kernel. Faulted
        // points compare against their own faulted Never baseline, so
        // the penalty isolates gating from degradation. `None`
        // (rendered null) when the baseline point failed or has not run
        // yet — an interrupted sweep still emits what it has.
        let penalty = rows
            .iter()
            .find(|b| {
                let b = &grid[b.point_idx];
                b.block.mesh == point.block.mesh
                    && b.rate == point.rate
                    && b.block.pattern == point.block.pattern
                    && b.block.wrap == point.block.wrap
                    && b.vcs == point.vcs
                    && b.faults == point.faults
                    && b.policy == GatingPolicy::Never
            })
            .map(|b| p.avg_latency - b.payload.avg_latency);
        // The engine's two-thread over one-thread cycle rate, when both
        // were timed (engine rows with at least two shards, timings not
        // pinned).
        let scaling = (p.cycles_per_sec > 0.0 && p.cycles_per_sec_2t > 0.0)
            .then(|| p.cycles_per_sec_2t / p.cycles_per_sec);
        let saved = saved_pct(p.energy_never, p.energy_policy);
        let offline_saved = saved_pct(p.offline_energy_never, p.offline_energy_policy);
        result_rows.push(
            point
                .identity(seed)
                .str("kernel", &p.kernel)
                .raw("shards", p.shards)
                .raw("threads", p.threads)
                .raw("speedup_vs_reference", opt(speedup_vs_reference, 2))
                .raw("thread_scaling", opt(scaling, 2))
                .raw("cycles_leapt", p.cycles_leapt)
                .raw("events_processed", p.events_processed)
                .raw("leap_fraction", fix(leap_fraction, 4))
                .raw("routers_settled", p.routers_settled)
                .raw("settle_ops_per_leap", fix(p.settle_ops_per_leap, 2))
                .raw("max_debt_span", p.max_debt_span)
                .raw("mit_cycles", point.params.min_idle_cycles(clock))
                .raw("cycles", cycles)
                .raw("wall_s", fix(p.wall_s, 4))
                .raw("cycles_per_sec", fix(p.cycles_per_sec, 0))
                .raw("avg_latency_cy", fix(p.avg_latency, 3))
                .raw("latency_penalty_cy", opt(penalty, 3))
                .raw("throughput", fix(p.throughput, 4))
                .raw("wake_stall_cycles", p.wake_stall_cycles)
                .raw("sleep_events", p.sleep_events)
                .raw("dropped_at_source", p.dropped_at_source)
                .raw("energy_never_j", sci(p.energy_never))
                .raw("energy_policy_j", sci(p.energy_policy))
                .raw("saved_pct", fix(saved, 2))
                .raw("offline_energy_j", sci(p.offline_energy_policy))
                .raw("offline_saved_pct", fix(offline_saved, 2))
                .raw("agreement_pct", fix(agreement * 100.0, 3))
                .raw("faults", point.fault_count())
                .raw("dropped_by_fault", p.dropped_by_fault)
                .raw("packets_unroutable", p.packets_unroutable)
                .raw("min_reachable_pct", fix(p.min_reachable * 100.0, 2))
                .raw("avg_latency_post_fault", fix(p.avg_latency_post_fault, 3))
                .raw("attempts", r.meta.attempts)
                .raw("panics", r.meta.panics)
                .raw("deadline_hits", r.meta.deadline_hits)
                .build(),
        );
        if p.kernel != SimKernel::Engine.name() {
            continue;
        }
        let vs_ref = speedup_vs_reference.filter(|_| p.cycles_per_sec > 0.0);
        if let Some(s) = vs_ref.filter(|_| point.block.mesh == (16, 16) && point.rate <= 0.02) {
            min_16x16_low_rate = min_16x16_low_rate.min(s);
        }
        if let Some(t) = scaling {
            scaling_range = (scaling_range.0.min(t), scaling_range.1.max(t));
        }
        speedups.push(
            Obj::new()
                .str("scheme", point.scheme.name())
                .str("mesh", point.mesh_name())
                .str("pattern", point.block.pattern.name())
                .raw("vcs", point.vcs)
                .raw("rate", point.rate)
                .str("policy", point.policy)
                .raw("engine_vs_reference", opt(vs_ref, 2))
                .raw("engine_2t_vs_1t", opt(scaling, 2))
                .build(),
        );
    }

    let join = |items: Vec<String>| items.join(", ");
    let json = format!(
        "{{\n  \"schema\": 9,\n  \"note\": \"{NOTE}\",\n  \"kernels\": [{}],\n  \
         \"seed\": {seed},\n  \"threads_available\": {threads_available},\n  \
         \"vc_counts\": [{}],\n  \"smoke\": {smoke},\n  \"deterministic\": {deterministic},\n  \
         \"results\": {},\n  \"speedup\": {}\n}}\n",
        join(kernels.iter().map(|k| format!("{:?}", k.name())).collect()),
        join(vc_list.iter().map(ToString::to_string).collect()),
        json::array(&result_rows, "    ", "  "),
        json::array(&speedups, "    ", "  "),
    );
    println!("{json}");
    println!(
        "worst in-loop vs offline disagreement (gated points): {:.3}%",
        worst_disagreement * 100.0
    );
    assert!(
        worst_disagreement < 0.05,
        "in-loop energy must agree with the offline model within 5%"
    );
    if min_16x16_low_rate.is_finite() {
        println!(
            "minimum engine speedup vs reference on 16x16, rate <= 0.02: {min_16x16_low_rate:.2}x"
        );
    }
    if scaling_range.0.is_finite() {
        println!(
            "engine thread scaling, 2 vs 1 threads (threads_available = {threads_available}): \
             {:.2}x..{:.2}x",
            scaling_range.0, scaling_range.1
        );
    }

    // Stats digests for file-level kernel diffing in CI (in grid
    // order, exactly the rows that ran).
    for &kernel in &kernels {
        let lines: Vec<String> = rows
            .iter()
            .filter(|r| r.payload.kernel == kernel.name())
            .map(|r| format!("  {}", r.payload.digest_line))
            .collect();
        let body = if lines.is_empty() {
            String::new()
        } else {
            lines.join(",\n") + "\n"
        };
        let name = format!("x3_sweep_stats_{}.json", kernel.name());
        lnoc_bench::write_artifact(&name, &format!("[\n{body}]\n"));
    }

    if smoke {
        lnoc_bench::write_artifact("x3_gating_sweep_smoke.json", &json);
    } else {
        let path = lnoc_bench::baseline_path("BENCH_noc.json");
        std::fs::write(&path, &json).expect("write BENCH_noc.json");
        println!("wrote {}", path.display());
    }
    if report.fuse_tripped {
        eprintln!(
            "sweep interrupted by --fuse after {} fresh jobs — finish it with --resume",
            report.executed
        );
    }
    std::process::exit(report.exit_code());
}
