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
//! ones. Smoke grids opt in with `--faults` (CI runs that per kernel
//! and diffs the digests).
//!
//! ```sh
//! cargo run --release -p lnoc-bench --bin gating_sweep                  # full grid → BENCH_noc.json
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke       # CI smoke grid → out/
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --faults --kernel engine --shards 4
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --deterministic --fuse 5   # simulated kill
//! cargo run --release -p lnoc-bench --bin gating_sweep -- --smoke --deterministic --resume   # finish it
//! ```

use lnoc_bench::digest::{mesh_config, DigestBuilder};
use lnoc_bench::json::{self, Obj};
use lnoc_bench::runner::{failure_manifest, run_jobs, Job, JobAbort, SweepFlags, FLAGS_HELP};
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_netsim::{
    FaultPlan, MeshConfig, NetworkStats, SimKernel, Simulation, SleepConfig, TrafficPattern,
};
use lnoc_power::gating::{energy_from_counters, evaluate_policy, GatingParams, GatingPolicy};
use lnoc_power::router::RouterPowerModel;
use lnoc_tech::units::Hertz;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-VC input buffer depth used by BOTH the simulated network
/// (`MeshConfig::buffer_depth`) and the leakage/gating-parameter model
/// (`with_buffer_geometry`) — one constant so the two can never
/// silently describe different buffer geometries.
const DEPTH_PER_VC: usize = 4;

/// Cache-key domain: versions the job payload encoding. Bump whenever
/// the payload format or the digested field set changes.
const DIGEST_DOMAIN: &str = "x3.schema9.v1";

/// One point of the sweep grid (kernel-independent).
#[derive(Clone)]
struct GridPoint {
    scheme: Scheme,
    params: GatingParams,
    mesh: (usize, usize),
    rate: f64,
    pattern: TrafficPattern,
    wrap: bool,
    vcs: usize,
    policy: GatingPolicy,
    warmup: u64,
    measure: u64,
    /// Timing repetitions (big meshes run once; the rest best-of-2).
    reps: u32,
    /// Fault schedule for the fault-sweep dimension (`None` = healthy).
    faults: Option<FaultPlan>,
}

impl GridPoint {
    /// Whether the dense reference kernel is excluded from this point
    /// in the *full* sweep (meshes beyond the 32×32 route-table cap,
    /// where dense stepping would dominate the sweep's wall time).
    /// Smoke grids keep both kernels on every point so CI can diff all
    /// digest files row-for-row.
    fn too_big_for_reference(&self) -> bool {
        self.mesh.0 * self.mesh.1 > 1024
    }

    /// The 512×512 and 1024×1024 leap showcase rows, which skip the
    /// untimed warm-up run (doubling their cost buys nothing).
    fn huge_showcase(&self) -> bool {
        self.mesh.0 * self.mesh.1 > 16384
    }
}

fn mesh_cfg(
    point: &GridPoint,
    kernel: SimKernel,
    seed: u64,
    shards: usize,
    threads: usize,
    cycle_budget: u64,
) -> MeshConfig {
    MeshConfig {
        width: point.mesh.0,
        height: point.mesh.1,
        injection_rate: point.rate,
        pattern: point.pattern,
        wrap: point.wrap,
        vcs: point.vcs,
        packet_len_flits: 4,
        buffer_depth: DEPTH_PER_VC,
        seed,
        // Every policy (including Never) runs through the FSM so
        // counters are collected; Never simply never sleeps.
        gating: Some(SleepConfig {
            policy: point.policy,
            wake_latency: point.params.wake_latency_cycles,
        }),
        kernel,
        shards,
        threads,
        cycle_budget,
        faults: point.faults.clone(),
        ..MeshConfig::default()
    }
}

/// Deterministic per-point digest for file-level kernel diffing
/// (everything in it must be bit-identical across kernels).
fn stats_digest(point: &GridPoint, seed: u64, stats: &NetworkStats) -> String {
    let hist = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
    let k = stats.total_gating_counters();
    let faults = point
        .faults
        .as_ref()
        .map(|f| f.link_faults + f.router_faults + f.transient_link_faults)
        .unwrap_or(0);
    format!(
        "{{\"scheme\": \"{}\", \"mesh\": \"{}x{}\", \"pattern\": \"{}\", \"wrap\": {}, \
         \"vcs\": {}, \"seed\": {}, \"rate\": {}, \"policy\": \"{}\", \"faults\": {}, \
         \"packets_injected\": {}, \"packets_delivered\": {}, \"flits_delivered\": {}, \
         \"dropped_at_source\": {}, \"latency_sum\": {}, \"latency_max\": {}, \
         \"idle_intervals\": {}, \"idle_cycles\": {}, \"sleep_entries\": {}, \
         \"wake_stalls\": {}, \"cycles_asleep\": {}, \"dropped_by_fault\": {}, \
         \"packets_unroutable\": {}, \"delivered_post_fault\": {}, \
         \"latency_sum_post_fault\": {}}}",
        point.scheme.name(),
        point.mesh.0,
        point.mesh.1,
        point.pattern.name(),
        point.wrap,
        point.vcs,
        seed,
        point.rate,
        point.policy,
        faults,
        stats.packets_injected,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.packets_dropped_at_source,
        stats.latency_sum,
        stats.latency_max,
        hist.interval_count(),
        hist.total_idle_cycles(),
        k.sleep_entries,
        k.wake_stall_cycles,
        k.cycles_asleep,
        stats.flits_dropped_by_fault,
        stats.packets_unroutable,
        stats.packets_delivered_post_fault,
        stats.latency_sum_post_fault,
    )
}

/// Everything one job run produces, serialized as the cached payload:
/// a flat scalar line (floats as exact bit patterns) plus the
/// kernel-diffable stats digest line, verbatim. Caching the exact
/// bytes is what makes resumed artifacts byte-identical.
struct PointPayload {
    kernel: String,
    shards: u64,
    threads: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    /// Cycle rate of the same geometry at two worker threads — the
    /// thread-scaling measurement, taken on engine rows with at least
    /// two shards (0 when not measured).
    cycles_per_sec_2t: f64,
    avg_latency: f64,
    throughput: f64,
    wake_stall_cycles: u64,
    dropped_at_source: u64,
    sleep_events: u64,
    energy_never: f64,
    energy_policy: f64,
    offline_energy_never: f64,
    offline_energy_policy: f64,
    dropped_by_fault: u64,
    packets_unroutable: u64,
    min_reachable: f64,
    avg_latency_post_fault: f64,
    /// Cycles the engine's time wheel let the clock skip (0 for the
    /// reference). Telemetry, not statistics: kept out of
    /// [`Self::stats_fingerprint`] by construction.
    cycles_leapt: u64,
    /// Injection arrivals fired from the wheel (0 for the reference).
    /// Telemetry like `cycles_leapt`.
    events_processed: u64,
    /// Routers whose settlement debt was paid during the run —
    /// on-touch and at close-out combined (0 for the eager reference
    /// kernel). Telemetry like `cycles_leapt`.
    routers_settled: u64,
    /// Touch-paid debt settlements per clock leap: the actual
    /// per-leap settlement cost, which lazy settlement keeps at
    /// O(touched) instead of O(n). Telemetry like `cycles_leapt`.
    settle_ops_per_leap: f64,
    /// Longest deferred span (cycles) any single settlement replayed.
    /// Telemetry like `cycles_leapt`.
    max_debt_span: u64,
    digest_line: String,
}

impl PointPayload {
    fn render(&self) -> String {
        let scalars = Obj::new()
            .str("kernel", &self.kernel)
            .raw("shards", self.shards)
            .raw("threads", self.threads)
            .f64_bits("wall_s_bits", self.wall_s)
            .f64_bits("cycles_per_sec_bits", self.cycles_per_sec)
            .f64_bits("cycles_per_sec_2t_bits", self.cycles_per_sec_2t)
            .f64_bits("avg_latency_bits", self.avg_latency)
            .f64_bits("throughput_bits", self.throughput)
            .raw("wake_stall_cycles", self.wake_stall_cycles)
            .raw("dropped_at_source", self.dropped_at_source)
            .raw("sleep_events", self.sleep_events)
            .f64_bits("energy_never_bits", self.energy_never)
            .f64_bits("energy_policy_bits", self.energy_policy)
            .f64_bits("offline_energy_never_bits", self.offline_energy_never)
            .f64_bits("offline_energy_policy_bits", self.offline_energy_policy)
            .raw("dropped_by_fault", self.dropped_by_fault)
            .raw("packets_unroutable", self.packets_unroutable)
            .f64_bits("min_reachable_bits", self.min_reachable)
            .f64_bits("avg_latency_post_fault_bits", self.avg_latency_post_fault)
            .raw("cycles_leapt", self.cycles_leapt)
            .raw("events_processed", self.events_processed)
            .raw("routers_settled", self.routers_settled)
            .f64_bits("settle_ops_per_leap_bits", self.settle_ops_per_leap)
            .raw("max_debt_span", self.max_debt_span)
            .build();
        format!("{scalars}\n{}", self.digest_line)
    }

    fn parse(payload: &str) -> Option<PointPayload> {
        let (scalars, digest_line) = payload.split_once('\n')?;
        Some(PointPayload {
            kernel: json::field_str(scalars, "kernel")?,
            shards: json::field_u64(scalars, "shards")?,
            threads: json::field_u64(scalars, "threads")?,
            wall_s: json::field_f64_bits(scalars, "wall_s_bits")?,
            cycles_per_sec: json::field_f64_bits(scalars, "cycles_per_sec_bits")?,
            cycles_per_sec_2t: json::field_f64_bits(scalars, "cycles_per_sec_2t_bits")?,
            avg_latency: json::field_f64_bits(scalars, "avg_latency_bits")?,
            throughput: json::field_f64_bits(scalars, "throughput_bits")?,
            wake_stall_cycles: json::field_u64(scalars, "wake_stall_cycles")?,
            dropped_at_source: json::field_u64(scalars, "dropped_at_source")?,
            sleep_events: json::field_u64(scalars, "sleep_events")?,
            energy_never: json::field_f64_bits(scalars, "energy_never_bits")?,
            energy_policy: json::field_f64_bits(scalars, "energy_policy_bits")?,
            offline_energy_never: json::field_f64_bits(scalars, "offline_energy_never_bits")?,
            offline_energy_policy: json::field_f64_bits(scalars, "offline_energy_policy_bits")?,
            dropped_by_fault: json::field_u64(scalars, "dropped_by_fault")?,
            packets_unroutable: json::field_u64(scalars, "packets_unroutable")?,
            min_reachable: json::field_f64_bits(scalars, "min_reachable_bits")?,
            avg_latency_post_fault: json::field_f64_bits(scalars, "avg_latency_post_fault_bits")?,
            cycles_leapt: json::field_u64(scalars, "cycles_leapt")?,
            events_processed: json::field_u64(scalars, "events_processed")?,
            routers_settled: json::field_u64(scalars, "routers_settled")?,
            settle_ops_per_leap: json::field_f64_bits(scalars, "settle_ops_per_leap_bits")?,
            max_debt_span: json::field_u64(scalars, "max_debt_span")?,
            digest_line: digest_line.to_string(),
        })
    }

    /// Every stats-derived field — everything except the timing
    /// fields, the kernel geometry and the engine-only telemetry
    /// counters (`cycles_leapt` / `events_processed` legitimately
    /// differ across kernels) — for the cross-kernel bit-identity
    /// assertion.
    fn stats_fingerprint(&self) -> String {
        format!(
            "{} | {:016x} {:016x} {} {} {} {:016x} {:016x} {:016x} {:016x} {} {} {:016x} {:016x}",
            self.digest_line,
            self.avg_latency.to_bits(),
            self.throughput.to_bits(),
            self.wake_stall_cycles,
            self.dropped_at_source,
            self.sleep_events,
            self.energy_never.to_bits(),
            self.energy_policy.to_bits(),
            self.offline_energy_never.to_bits(),
            self.offline_energy_policy.to_bits(),
            self.dropped_by_fault,
            self.packets_unroutable,
            self.min_reachable.to_bits(),
            self.avg_latency_post_fault.to_bits(),
        )
    }
}

/// Renders an optional ratio with two decimals, `null` when absent.
fn fmt_opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.2}"))
        .unwrap_or_else(|| "null".into())
}

/// The engine's two-thread over one-thread cycle rate, when both were
/// timed (engine rows with at least two shards, timings not pinned).
fn thread_scaling(p: &PointPayload) -> Option<f64> {
    (p.cycles_per_sec > 0.0 && p.cycles_per_sec_2t > 0.0)
        .then(|| p.cycles_per_sec_2t / p.cycles_per_sec)
}

/// Replicates [`lnoc_power::gating::GatingOutcome::savings_fraction`]
/// for energies reconstructed from a payload.
fn savings_fraction(energy_never: f64, energy_policy: f64) -> f64 {
    if energy_never <= 0.0 {
        return 0.0;
    }
    1.0 - energy_policy / energy_never
}

/// The job's cache key: the full engine config (exhaustive, via
/// [`mesh_config`]) plus every sweep-level input that shapes the
/// payload — run lengths, repetitions, the gating parameter set, the
/// clock, and whether timings are pinned.
fn job_digest(
    point: &GridPoint,
    cfg: &MeshConfig,
    reps: u32,
    deterministic: bool,
    clock: Hertz,
) -> String {
    mesh_config(DigestBuilder::new(DIGEST_DOMAIN), cfg)
        .field("scheme", point.scheme.name())
        .field("warmup", point.warmup)
        .field("measure", point.measure)
        .field("reps", reps)
        .field("deterministic", deterministic)
        .f64("clock_hz", clock.0)
        .f64("params.p_idle_awake_w", point.params.p_idle_awake.0)
        .f64("params.p_standby_w", point.params.p_standby.0)
        .f64("params.e_transition_j", point.params.e_transition.0)
        .field(
            "params.wake_latency_cycles",
            point.params.wake_latency_cycles,
        )
        .finish()
}

/// Parses `--flag value` style arguments.
fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
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
    // with `--faults` so the plain CI smoke run stays minimal.
    let with_faults = !smoke || args.iter().any(|a| a == "--faults");
    let kernels: Vec<SimKernel> = match arg_value(&args, "--kernel") {
        None | Some("all") => vec![SimKernel::Reference, SimKernel::Engine],
        Some("reference") => vec![SimKernel::Reference],
        Some("engine") => vec![SimKernel::Engine],
        Some(other) => panic!("unknown --kernel {other} (reference | engine | all)"),
    };
    let seed: u64 = arg_value(&args, "--seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(2005);
    // Engine tile geometry. `--shards 0` keeps the simulator's
    // size-derived default (one tile per core from 64×64 up), which is
    // what the committed baseline records; rows carry the resolved
    // geometry. Shard and thread counts never change results — only
    // wall time.
    let shards: usize = arg_value(&args, "--shards")
        .map(|s| s.parse().expect("--shards takes an integer"))
        .unwrap_or(0);
    let threads: usize = arg_value(&args, "--threads")
        .map(|s| s.parse().expect("--threads takes an integer"))
        .unwrap_or(1);
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
    let schemes: &[Scheme] = if smoke {
        &[Scheme::Sc, Scheme::Dpc]
    } else {
        &Scheme::ALL
    };

    // Characterize each scheme once, in parallel; derive per-VC-lane
    // gating parameters for every requested VC count (the buffer
    // geometry — and with it the gateable leakage — scales with V).
    let ch = Characterizer::new(&cfg);
    let models: Vec<(Scheme, RouterPowerModel)> = schemes
        .par_iter()
        .map(|&scheme| {
            let c = ch.characterize(scheme).expect("characterization");
            (scheme, RouterPowerModel::from_characterization(&c, &cfg))
        })
        .collect();
    let lane_params = |scheme: Scheme, vcs: usize| -> GatingParams {
        let model = &models
            .iter()
            .find(|(s, _)| *s == scheme)
            .expect("characterized")
            .1;
        model
            .clone()
            .with_buffer_geometry(vcs, DEPTH_PER_VC)
            .vc_lane_gating_params(cfg.radix, vcs)
    };

    // Build the grid. The threshold policies are scheme- and
    // VC-specific (each scheme × granularity has its own Minimum Idle
    // Time). The 4×4 grid carries the full scheme × policy matrix at
    // V = 1; the VC dimension re-runs the interesting schemes across
    // granularities; the larger meshes probe the low-rate regime where
    // the engine's worklist and leaps matter most; the wrapped Tornado
    // point exercises dateline deadlock freedom at saturation; the
    // 32×32 medium-rate, 64×64 and 128×128 rows are the tiling
    // showcase.
    let mut grid: Vec<GridPoint> = Vec::new();
    let mut push = |scheme: Scheme,
                    mesh: (usize, usize),
                    rate: f64,
                    pattern: TrafficPattern,
                    wrap: bool,
                    vcs: usize,
                    policy: GatingPolicy,
                    warmup: u64,
                    measure: u64,
                    reps: u32| {
        grid.push(GridPoint {
            scheme,
            params: lane_params(scheme, vcs),
            mesh,
            rate,
            pattern,
            wrap,
            vcs,
            policy,
            warmup,
            measure,
            reps,
            faults: None,
        });
    };
    let uniform = TrafficPattern::UniformRandom;
    let mit_of = |scheme: Scheme, vcs: usize| lane_params(scheme, vcs).min_idle_cycles(cfg.clock);
    if smoke {
        for &scheme in schemes {
            for &vcs in &vc_list {
                let mit = mit_of(scheme, vcs);
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        (4, 4),
                        0.05,
                        uniform,
                        false,
                        vcs,
                        policy,
                        300,
                        2000,
                        1,
                    );
                }
            }
        }
        // One larger-mesh point keeps the worklist fast path under CI,
        // a short 64×64 point keeps the tile/mailbox path (and its
        // digest) alive, and one saturated dateline-torus point keeps
        // the deadlock-freedom path alive (needs vcs >= 2).
        let scheme = *schemes.last().expect("smoke characterizes two schemes");
        let mit = mit_of(scheme, 1);
        for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
            push(
                scheme,
                (16, 16),
                0.02,
                uniform,
                false,
                1,
                policy,
                200,
                1500,
                1,
            );
        }
        for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
            push(
                scheme,
                (64, 64),
                0.005,
                uniform,
                false,
                1,
                policy,
                100,
                600,
                1,
            );
        }
        // One large near-dead mesh keeps the engine's leap path — and
        // the lazy settlement debts it leaves behind — under CI's
        // cross-kernel digest diff, with the dense reference as the
        // independent oracle. Both policies run so the gated and
        // ungated close-out templates are each exercised.
        for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
            push(
                scheme,
                (128, 128),
                2e-6,
                TrafficPattern::NearestNeighbor,
                false,
                1,
                policy,
                50,
                400,
                1,
            );
        }
        if let Some(&vcs) = vc_list.iter().find(|&&v| v >= 2) {
            let mit = mit_of(scheme, vcs);
            push(
                scheme,
                (8, 8),
                1.0,
                TrafficPattern::Tornado,
                true,
                vcs,
                GatingPolicy::IdleThreshold(mit),
                200,
                1500,
                1,
            );
            push(
                scheme,
                (8, 8),
                1.0,
                TrafficPattern::Tornado,
                true,
                vcs,
                GatingPolicy::Never,
                200,
                1500,
                1,
            );
        }
    } else {
        // Scheme × rate × policy matrix at the V = 1 baseline
        // granularity.
        for &scheme in schemes {
            let mit = mit_of(scheme, 1);
            let policies = [
                GatingPolicy::Never,
                GatingPolicy::IdleThreshold(mit),
                GatingPolicy::Immediate,
                GatingPolicy::IdleThreshold(4 * mit.max(1)),
            ];
            for rate in [0.02, 0.05, 0.08] {
                for &policy in &policies {
                    push(
                        scheme,
                        (4, 4),
                        rate,
                        uniform,
                        false,
                        1,
                        policy,
                        1000,
                        12000,
                        2,
                    );
                }
            }
        }
        // VC-granularity dimension: how finer per-VC gating moves the
        // energy/latency frontier, for the baseline and the
        // best-gating scheme. vcs = 1 is skipped here — the baseline
        // matrix above already carries those exact points (same rate,
        // same policies), and duplicating them would both waste two
        // 13k-cycle runs per kernel and double-count rows in any
        // aggregation over the committed JSON.
        for &scheme in schemes
            .iter()
            .filter(|s| matches!(s, Scheme::Sc | Scheme::Dpc))
        {
            for &vcs in vc_list.iter().filter(|&&v| v > 1) {
                let mit = mit_of(scheme, vcs);
                for policy in [
                    GatingPolicy::Never,
                    GatingPolicy::IdleThreshold(mit),
                    GatingPolicy::Immediate,
                ] {
                    push(
                        scheme,
                        (4, 4),
                        0.05,
                        uniform,
                        false,
                        vcs,
                        policy,
                        1000,
                        12000,
                        2,
                    );
                }
            }
        }
        // Scaling points: low-rate large meshes — the ultra-low
        // utilization regime the paper's leakage argument (and the
        // engine) target.
        for &scheme in schemes
            .iter()
            .filter(|s| matches!(s, Scheme::Sc | Scheme::Dpc))
        {
            let mit = mit_of(scheme, 1);
            for rate in [0.0025, 0.005] {
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        (16, 16),
                        rate,
                        uniform,
                        false,
                        1,
                        policy,
                        1000,
                        12000,
                        2,
                    );
                }
            }
        }
        for &scheme in schemes.iter().filter(|s| matches!(s, Scheme::Dpc)) {
            let mit = mit_of(scheme, 1);
            for rate in [0.0025, 0.005] {
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        (32, 32),
                        rate,
                        uniform,
                        false,
                        1,
                        policy,
                        500,
                        8000,
                        2,
                    );
                }
            }
            // The loaded 32×32 row: at medium rate the active set is
            // large and there is no quiescence to skip.
            for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                push(
                    scheme,
                    (32, 32),
                    0.05,
                    uniform,
                    false,
                    1,
                    policy,
                    500,
                    6000,
                    2,
                );
            }
            // The scales tiling exists for. The reference kernel is
            // excluded (too_big_for_reference).
            for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                push(
                    scheme,
                    (64, 64),
                    0.005,
                    uniform,
                    false,
                    1,
                    policy,
                    500,
                    4000,
                    1,
                );
            }
            for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                push(
                    scheme,
                    (128, 128),
                    0.0025,
                    uniform,
                    false,
                    1,
                    policy,
                    200,
                    1500,
                    1,
                );
            }
            // Leap rows: mid-size meshes at vanishing rates with local
            // (nearest-neighbour, 1-hop) traffic, so the network
            // quiesces between arrivals and the wheel leaps the dead
            // windows.
            for (mesh, rate, warmup, measure) in [
                ((64, 64), 1e-5, 500, 4000),
                ((64, 64), 2e-6, 500, 4000),
                ((128, 128), 2e-6, 200, 1500),
            ] {
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        mesh,
                        rate,
                        TrafficPattern::NearestNeighbor,
                        false,
                        1,
                        policy,
                        warmup,
                        measure,
                        1,
                    );
                }
            }
            // The scale showcase rows: quarter-million- and
            // million-router meshes at vanishing rates with
            // nearest-neighbour traffic. A per-cycle scan would pay
            // O(n) per cycle here; the wheel leaps those cycles away,
            // and with lazy per-router settlement each leap pays only
            // for the routers actually touched — quiescent routers
            // carry settlement debt that the run-end close-out pays
            // once, so the whole run is O(touched) plus one O(n) walk
            // (`routers_settled` / `settle_ops_per_leap` /
            // `max_debt_span` report that machinery per row).
            for (mesh, rate, warmup, measure) in
                [((512, 512), 2e-7, 100, 500), ((1024, 1024), 5e-8, 50, 250)]
            {
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        mesh,
                        rate,
                        TrafficPattern::NearestNeighbor,
                        false,
                        1,
                        policy,
                        warmup,
                        measure,
                        1,
                    );
                }
            }
        }
        // Deadlock-free saturated torus: Tornado at full offered load
        // on a wrapped 16×16 with dateline VCs, watchdog armed (the
        // default). Per-VC gating numbers under heavy, structured
        // traffic.
        if let Some(&vcs) = vc_list.iter().find(|&&v| v >= 2) {
            for &scheme in schemes.iter().filter(|s| matches!(s, Scheme::Dpc)) {
                let mit = mit_of(scheme, vcs);
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    push(
                        scheme,
                        (16, 16),
                        1.0,
                        TrafficPattern::Tornado,
                        true,
                        vcs,
                        policy,
                        500,
                        6000,
                        2,
                    );
                }
            }
        }
    }
    // Fault-sweep dimension: deterministic fault plans — fault count ×
    // injection rate × gating policy, each with its own Never row as
    // the faulted latency baseline, plus a dead-link saturated
    // dateline torus. Plan seeds derive from the sweep seed so
    // `--seed` reproduces the whole scenario, kills included, and
    // every faulted point is asserted bit-identical across kernels
    // exactly like the healthy ones.
    if with_faults {
        let scheme = Scheme::Dpc;
        let (mesh, warmup, measure, reps) = if smoke {
            ((8, 8), 100u64, 1500u64, 1u32)
        } else {
            ((16, 16), 500, 8000, 2)
        };
        let mit = mit_of(scheme, 1);
        // (permanent link, router, transient link) fault counts.
        let plans: &[(usize, usize, usize)] = if smoke {
            &[(1, 0, 0), (2, 1, 1)]
        } else {
            &[(1, 0, 0), (2, 0, 1), (2, 1, 2)]
        };
        let rates: &[f64] = if smoke { &[0.05] } else { &[0.02, 0.05] };
        for (i, &(links, routers, transients)) in plans.iter().enumerate() {
            let plan = FaultPlan {
                seed: seed ^ (0xFA17 + i as u64),
                link_faults: links,
                router_faults: routers,
                transient_link_faults: transients,
                transient_duration: measure / 4,
                start_cycle: warmup,
                window: measure / 2,
                ..FaultPlan::default()
            };
            for &rate in rates {
                for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                    grid.push(GridPoint {
                        scheme,
                        params: lane_params(scheme, 1),
                        mesh,
                        rate,
                        pattern: uniform,
                        wrap: false,
                        vcs: 1,
                        policy,
                        warmup,
                        measure,
                        reps,
                        faults: Some(plan.clone()),
                    });
                }
            }
        }
        // Graceful degradation at saturation: the dateline torus loses
        // one link mid-measurement and must keep streaming around the
        // detour without tripping the watchdog.
        if let Some(&vcs) = vc_list.iter().find(|&&v| v >= 2) {
            let mit = mit_of(scheme, vcs);
            let plan = FaultPlan {
                seed: seed ^ 0xDEAD,
                link_faults: 1,
                router_faults: 0,
                transient_link_faults: 0,
                start_cycle: warmup + measure / 3,
                window: 1,
                ..FaultPlan::default()
            };
            for policy in [GatingPolicy::Never, GatingPolicy::IdleThreshold(mit)] {
                grid.push(GridPoint {
                    scheme,
                    params: lane_params(scheme, vcs),
                    mesh,
                    rate: 1.0,
                    pattern: TrafficPattern::Tornado,
                    wrap: true,
                    vcs,
                    policy,
                    warmup,
                    measure,
                    reps,
                    faults: Some(plan.clone()),
                });
            }
        }
    }
    let threads_available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "sweeping {} grid points × up to {} kernel(s), seed {seed}, vcs {:?}, \
         shards {shards}, threads {} (host cores: {threads_available}), serially (timings stay clean)…",
        grid.len(),
        kernels.len(),
        vc_list,
        if threads == 0 { "auto".to_string() } else { threads.to_string() },
    );

    // Which kernels run a given point: the full sweep excludes the
    // dense reference from the big meshes; smoke grids keep both
    // kernels everywhere so the per-kernel digest files stay
    // row-aligned for CI's diff.
    let kernels_for = |point: &GridPoint| -> Vec<SimKernel> {
        kernels
            .iter()
            .copied()
            .filter(|&k| smoke || k == SimKernel::Engine || !point.too_big_for_reference())
            .collect()
    };

    // Build one supervised job per grid point × kernel. Jobs run
    // serially under the runner (wall times mean something), each
    // isolated on its own thread with panic capture and the deadline.
    // One untimed throwaway per distinct mesh size pays the
    // page-fault/warm-up cost outside any timed run (skipped in
    // deterministic mode, where timings are pinned to zero anyway).
    let deterministic = flags.deterministic;
    let clock = cfg.clock;
    let warmed: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut jobs: Vec<Job> = Vec::new();
    // Parallel to `jobs`: which (grid point, kernel) a job computes
    // (`None` for the injected demo jobs, which contribute no rows).
    let mut job_meta: Vec<Option<(usize, SimKernel)>> = Vec::new();
    for (point_idx, point) in grid.iter().enumerate() {
        for kernel in kernels_for(point) {
            let reps = if deterministic { 1 } else { point.reps.max(1) };
            let sim_cfg = mesh_cfg(point, kernel, seed, shards, threads, flags.deadline_cycles);
            let digest = job_digest(point, &sim_cfg, reps, deterministic, clock);
            let fault_tag = point.faults.as_ref().map(|_| " faulted").unwrap_or("");
            let label = format!(
                "{} {}x{} {} rate {} vcs {} {}{} [{}]",
                point.scheme.name(),
                point.mesh.0,
                point.mesh.1,
                point.pattern.name(),
                point.rate,
                point.vcs,
                point.policy,
                fault_tag,
                kernel.name(),
            );
            let point = point.clone();
            let warmed = warmed.clone();
            jobs.push(Job::new(label, digest, move || {
                if !deterministic {
                    let first_at_this_size = {
                        let mut w = warmed.lock().unwrap_or_else(|p| p.into_inner());
                        if w.contains(&point.mesh) {
                            false
                        } else {
                            w.push(point.mesh);
                            true
                        }
                    };
                    // Huge showcase rows skip the throwaway: at
                    // minutes per stepping run the page-fault warm-up
                    // is noise, and doubling the row's cost is not.
                    if first_at_this_size && !point.huge_showcase() {
                        let mut sim = Simulation::new(sim_cfg.clone());
                        let _ = sim.try_run(point.warmup, point.measure);
                    }
                }
                // Construction (including the engine's route-table
                // build) stays outside the timer: cycle rate measures
                // the loop. Best-of-`reps` wall time — the repeats are
                // identical simulations, so the minimum is the
                // least-noise estimate.
                let mut best: Option<(NetworkStats, f64, usize, usize, [u64; 6])> = None;
                for _ in 0..reps {
                    let mut sim = Simulation::new(sim_cfg.clone());
                    let geometry = (sim.shards(), sim.threads());
                    let start = Instant::now();
                    let stats = sim
                        .try_run(point.warmup, point.measure)
                        .map_err(JobAbort::from_sim)?;
                    let wall = start.elapsed().as_secs_f64();
                    // Leap/settlement telemetry is identical across
                    // reps (the runs are identical simulations);
                    // carrying it with the best rep just keeps one
                    // tuple.
                    let telemetry = [
                        sim.cycles_leapt_total(),
                        sim.events_processed_total(),
                        sim.routers_settled_total(),
                        sim.settle_ops_total(),
                        sim.leaps_total(),
                        sim.max_debt_span(),
                    ];
                    if best.as_ref().is_none_or(|(_, w, ..)| wall < *w) {
                        best = Some((stats, wall, geometry.0, geometry.1, telemetry));
                    }
                }
                let (stats, wall_s, shards, threads, telemetry) = best.expect("at least one rep");
                let [cycles_leapt, events_processed, routers_settled, settle_ops, leaps, max_debt_span] =
                    telemetry;
                let cycles = (point.warmup + point.measure) as f64;
                let (wall_s, cycles_per_sec) = if deterministic {
                    (0.0, 0.0)
                } else {
                    (wall_s, cycles / wall_s)
                };
                // Thread scaling: the same geometry re-timed at two
                // worker threads (best of `reps`), on engine rows that
                // have two tiles to run concurrently.
                let mut cycles_per_sec_2t = 0.0;
                if !deterministic && shards >= 2 && sim_cfg.kernel == SimKernel::Engine {
                    let cfg_2t = MeshConfig {
                        shards,
                        threads: 2,
                        ..sim_cfg.clone()
                    };
                    let mut best_2t = f64::INFINITY;
                    for _ in 0..reps {
                        let mut sim = Simulation::new(cfg_2t.clone());
                        let start = Instant::now();
                        sim.try_run(point.warmup, point.measure)
                            .map_err(JobAbort::from_sim)?;
                        best_2t = best_2t.min(start.elapsed().as_secs_f64());
                    }
                    cycles_per_sec_2t = cycles / best_2t;
                }
                let counters = stats.total_gating_counters();
                let in_loop = energy_from_counters(&counters, &point.params, clock);
                let offline = evaluate_policy(
                    &stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS),
                    &point.params,
                    point.policy,
                    clock,
                );
                Ok(PointPayload {
                    kernel: sim_cfg.kernel.name().to_string(),
                    shards: shards as u64,
                    threads: threads as u64,
                    wall_s,
                    cycles_per_sec,
                    cycles_per_sec_2t,
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
                    cycles_leapt,
                    events_processed,
                    routers_settled,
                    settle_ops_per_leap: settle_ops as f64 / leaps.max(1) as f64,
                    max_debt_span,
                    digest_line: stats_digest(&point, seed, &stats),
                }
                .render())
            }));
            job_meta.push(Some((point_idx, kernel)));
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
        job_meta.push(None);
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
        let digest = mesh_config(DigestBuilder::new("x3.inject-deadlock.v1"), &wedge)
            .field("warmup", 0u64)
            .field("measure", 5_000u64)
            .finish();
        jobs.push(Job::new(
            "injected deadlock (supervision demo)",
            digest,
            move || {
                let mut sim = Simulation::new(wedge.clone());
                let stats = sim.try_run(0, 5_000).map_err(JobAbort::from_sim)?;
                let _ = stats;
                Err(JobAbort {
                    kind: lnoc_bench::runner::AbortKind::Other,
                    message: "expected deadlock did not occur".to_string(),
                })
            },
        ));
        job_meta.push(None);
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
    lnoc_bench::write_artifact(
        "x3_gating_sweep_failures.json",
        &failure_manifest(&jobs, &report),
    );

    // Assemble rows from the payloads (fresh or cached — the bytes are
    // identical either way). Failed / not-run jobs contribute no row.
    struct Row {
        point_idx: usize,
        payload: PointPayload,
        attempts: u32,
        panics: u32,
        deadline_hits: u32,
    }
    let mut rows: Vec<Row> = Vec::new();
    for ((status, meta), job) in report.statuses.iter().zip(&job_meta).zip(&jobs) {
        let (Some((point_idx, _)), Some(payload)) = (meta, status.payload()) else {
            continue;
        };
        let payload = PointPayload::parse(payload)
            .unwrap_or_else(|| panic!("corrupt payload for job {}", job.label));
        let m = status.meta().expect("done jobs carry meta");
        rows.push(Row {
            point_idx: *point_idx,
            payload,
            attempts: m.attempts,
            panics: m.panics,
            deadline_hits: m.deadline_hits,
        });
    }
    // Kernel bit-identity, asserted on the serialized stats (digest
    // line + every stats-derived scalar): both kernels, where both ran a point,
    // must agree exactly, wherever their payloads came from.
    for (point_idx, point) in grid.iter().enumerate() {
        let fps: Vec<(&str, String)> = rows
            .iter()
            .filter(|r| r.point_idx == point_idx)
            .map(|r| (r.payload.kernel.as_str(), r.payload.stats_fingerprint()))
            .collect();
        for pair in fps.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "kernel divergence ({} vs {}) at scheme {} mesh {:?} rate {} vcs {} policy {}",
                pair[0].0, pair[1].0, point.scheme, point.mesh, point.rate, point.vcs, point.policy
            );
        }
    }

    // Baseline latency per (mesh, rate, pattern, wrap, vcs, faults):
    // the Never policy (identical network behaviour for every scheme
    // and kernel). Faulted points compare against their own faulted
    // Never baseline, so the penalty isolates gating from degradation.
    // `None` (rendered null) when the baseline point failed or has not
    // run yet — an interrupted sweep still emits what it has.
    let base_latency = |p: &GridPoint| -> Option<f64> {
        rows.iter()
            .find(|r| {
                let b = &grid[r.point_idx];
                b.mesh == p.mesh
                    && b.rate == p.rate
                    && b.pattern == p.pattern
                    && b.wrap == p.wrap
                    && b.vcs == p.vcs
                    && b.faults == p.faults
                    && b.policy == GatingPolicy::Never
            })
            .map(|r| r.payload.avg_latency)
    };
    // Cycle rate of a given kernel on a given point, if it ran (and
    // timings are not pinned by --deterministic).
    let cps_of = |point_idx: usize, kernel: SimKernel| -> Option<f64> {
        rows.iter()
            .find(|r| r.point_idx == point_idx && r.payload.kernel == kernel.name())
            .map(|r| r.payload.cycles_per_sec)
            .filter(|&cps| cps > 0.0)
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": 9,\n");
    let _ = writeln!(
        json,
        "  \"note\": \"in-loop per-VC-lane sleep-FSM gating sweep; gating params are one output \
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
         quantify graceful degradation\","
    );
    let _ = writeln!(
        json,
        "  \"kernels\": [{}],",
        kernels
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"threads_available\": {threads_available},");
    let _ = writeln!(
        json,
        "  \"vc_counts\": [{}],",
        vc_list
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"deterministic\": {deterministic},");
    let mut worst_disagreement: f64 = 0.0;
    let mut result_rows: Vec<String> = Vec::new();
    for r in &rows {
        let point = &grid[r.point_idx];
        let p = &r.payload;
        let penalty = base_latency(point)
            .map(|b| format!("{:.3}", p.avg_latency - b))
            .unwrap_or_else(|| "null".to_string());
        let agreement = if p.offline_energy_policy > 0.0 {
            (p.energy_policy - p.offline_energy_policy).abs() / p.offline_energy_policy
        } else {
            0.0
        };
        if point.policy != GatingPolicy::Never {
            worst_disagreement = worst_disagreement.max(agreement);
        }
        let speedup_vs_reference = cps_of(r.point_idx, SimKernel::Reference)
            .map(|base| format!("{:.2}", p.cycles_per_sec / base))
            .unwrap_or_else(|| "null".to_string());
        let thread_scaling = fmt_opt(thread_scaling(p));
        let fault_count = point
            .faults
            .as_ref()
            .map(|f| f.link_faults + f.router_faults + f.transient_link_faults)
            .unwrap_or(0);
        result_rows.push(format!(
            "{{\"scheme\": \"{}\", \"mesh\": \"{}x{}\", \"pattern\": \"{}\", \"wrap\": {}, \
             \"vcs\": {}, \"seed\": {}, \"rate\": {}, \"policy\": \"{}\", \
             \"kernel\": \"{}\", \"shards\": {}, \"threads\": {}, \
             \"speedup_vs_reference\": {}, \"thread_scaling\": {}, \
             \"cycles_leapt\": {}, \"events_processed\": {}, \
             \"leap_fraction\": {:.4}, \"routers_settled\": {}, \"settle_ops_per_leap\": {:.2}, \
             \"max_debt_span\": {}, \"mit_cycles\": {}, \"cycles\": {}, \
             \"wall_s\": {:.4}, \"cycles_per_sec\": {:.0}, \"avg_latency_cy\": {:.3}, \
             \"latency_penalty_cy\": {}, \"throughput\": {:.4}, \"wake_stall_cycles\": {}, \
             \"sleep_events\": {}, \"dropped_at_source\": {}, \"energy_never_j\": {:.6e}, \
             \"energy_policy_j\": {:.6e}, \"saved_pct\": {:.2}, \"offline_energy_j\": {:.6e}, \
             \"offline_saved_pct\": {:.2}, \"agreement_pct\": {:.3}, \"faults\": {}, \
             \"dropped_by_fault\": {}, \"packets_unroutable\": {}, \
             \"min_reachable_pct\": {:.2}, \"avg_latency_post_fault\": {:.3}, \
             \"attempts\": {}, \"panics\": {}, \"deadline_hits\": {}}}",
            point.scheme.name(),
            point.mesh.0,
            point.mesh.1,
            point.pattern.name(),
            point.wrap,
            point.vcs,
            seed,
            point.rate,
            point.policy,
            p.kernel,
            p.shards,
            p.threads,
            speedup_vs_reference,
            thread_scaling,
            p.cycles_leapt,
            p.events_processed,
            p.cycles_leapt as f64 / (point.warmup + point.measure) as f64,
            p.routers_settled,
            p.settle_ops_per_leap,
            p.max_debt_span,
            point.params.min_idle_cycles(cfg.clock),
            point.warmup + point.measure,
            p.wall_s,
            p.cycles_per_sec,
            p.avg_latency,
            penalty,
            p.throughput,
            p.wake_stall_cycles,
            p.sleep_events,
            p.dropped_at_source,
            p.energy_never,
            p.energy_policy,
            savings_fraction(p.energy_never, p.energy_policy) * 100.0,
            p.offline_energy_policy,
            savings_fraction(p.offline_energy_never, p.offline_energy_policy) * 100.0,
            agreement * 100.0,
            fault_count,
            p.dropped_by_fault,
            p.packets_unroutable,
            p.min_reachable * 100.0,
            p.avg_latency_post_fault,
            r.attempts,
            r.panics,
            r.deadline_hits,
        ));
    }
    let _ = writeln!(
        json,
        "  \"results\": {},",
        json::array(&result_rows, "    ", "  ")
    );

    // Per-point kernel speedups: the engine over the reference, and
    // the engine's thread scaling — the numbers the README quotes.
    let mut speedups: Vec<String> = Vec::new();
    let mut min_16x16_low_rate: f64 = f64::INFINITY;
    let mut scaling_range = (f64::INFINITY, 0.0f64);
    for (i, point) in grid.iter().enumerate() {
        let Some(engine) = rows
            .iter()
            .find(|r| r.point_idx == i && r.payload.kernel == SimKernel::Engine.name())
        else {
            continue;
        };
        let vs_ref = cps_of(i, SimKernel::Engine)
            .zip(cps_of(i, SimKernel::Reference))
            .map(|(e, r)| e / r);
        let scaling = thread_scaling(&engine.payload);
        if let Some(r) = vs_ref {
            if point.mesh == (16, 16) && point.rate <= 0.02 {
                min_16x16_low_rate = min_16x16_low_rate.min(r);
            }
        }
        if let Some(t) = scaling {
            scaling_range = (scaling_range.0.min(t), scaling_range.1.max(t));
        }
        speedups.push(format!(
            "{{\"scheme\": \"{}\", \"mesh\": \"{}x{}\", \"pattern\": \"{}\", \
             \"vcs\": {}, \"rate\": {}, \"policy\": \"{}\", \
             \"engine_vs_reference\": {}, \"engine_2t_vs_1t\": {}}}",
            point.scheme.name(),
            point.mesh.0,
            point.mesh.1,
            point.pattern.name(),
            point.vcs,
            point.rate,
            point.policy,
            fmt_opt(vs_ref),
            fmt_opt(scaling),
        ));
    }
    let _ = write!(
        json,
        "  \"speedup\": {}\n}}\n",
        json::array(&speedups, "    ", "  ")
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
        let body: Vec<&String> = rows
            .iter()
            .filter(|r| r.payload.kernel == kernel.name())
            .map(|r| &r.payload.digest_line)
            .collect();
        let mut s = String::from("[\n");
        for (i, d) in body.iter().enumerate() {
            let _ = writeln!(s, "  {}{}", d, if i + 1 == body.len() { "" } else { "," });
        }
        s.push_str("]\n");
        lnoc_bench::write_artifact(&format!("x3_sweep_stats_{}.json", kernel.name()), &s);
    }

    if smoke {
        lnoc_bench::write_artifact("x3_gating_sweep_smoke.json", &json);
    } else {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("BENCH_noc.json");
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
