//! End-to-end benchmark of the leakage-noc workspace.
//!
//! It drives the program from outside, through the public functions of
//! each layer: `core` characterization (which runs the `tech` and
//! `circuit` layers), `power` gating parameters and energy accounting,
//! and `netsim` construction, cycle loop and statistics. One process
//! runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--expected <file>] [--expect <metric>=<value>]... [--tiny]
//!           [--record] [--trace-out <dir>]
//! ```
//!
//! Every rep is one checked operation. Untimed warm-up reps come first;
//! the timed reps then run for `--seconds`. A fixed reference kernel runs
//! between reps, and a rep's host times are scaled by the mean host speed
//! it measured just before and just after the rep (see `calib`). Each
//! reported time is the median over the reps.
//! With `--trace 1` half of the time runs untraced and half records a
//! span around every layer call, from which the per-layer metrics come. The last line of standard output is the JSON
//! result; the line before it is a report with the host facts, every
//! end-to-end metric by name and unit, and the quartiles behind each
//! median. `perfbench/README.md` lists the metrics and workloads.

mod calib;
mod probe;

use lnoc_core::characterize::Characterizer;
use lnoc_core::{CrossbarConfig, Scheme, Table1};
use lnoc_netsim::{
    GatingPolicy, MeshConfig, NetworkStats, Simulation, SleepConfig, TrafficPattern,
};
use lnoc_power::gating::{energy_from_counters, evaluate_policy};
use lnoc_power::RouterPowerModel;
use probe::{Span, Tracer};
use std::fmt::Write as _;
use std::time::Instant;

/// Timed reps per measurement phase, whatever `--seconds` says.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// `Characterizer::new` takes about a microsecond, so each table rep
/// takes this many set-up samples, each the mean over a batch.
const TABLE_SETUP_SAMPLES: usize = 25;
const TABLE_SETUP_BATCH: u32 = 100;
/// A NoC run cycles its reps through this many consecutive traffic seeds,
/// starting at `--seed`, so that its medians cover several inputs: on
/// `noc_sparse_leap` one seed's rep takes up to 7 % more or less time
/// than another's.
const NOC_INPUTS: u64 = 4;
/// Virtual channels per port and flits per VC on every NoC workload.
const VCS: usize = 2;
const DEPTH_PER_VC: usize = 4;

/// A mesh workload. The kernel stays at `MeshConfig`'s default (`Auto`).
#[derive(Debug, Clone, Copy)]
struct Noc {
    side: usize,
    rate: f64,
    pattern: TrafficPattern,
    warmup: u64,
    measure: u64,
    /// Shard and thread count; 0 leaves both at the simulator default.
    threads: usize,
    /// Untimed reps before the timed ones, so that the heap has grown to
    /// its working size and first-touch page faults are not in a median.
    warm_reps: usize,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Table1,
    Noc(Noc),
}

fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let noc =
        |side, rate, pattern, cycles: (u64, u64), tiny_cycles: (u64, u64), threads, warm_reps| {
            let (warmup, measure) = if tiny { tiny_cycles } else { cycles };
            Workload::Noc(Noc {
                side,
                rate,
                pattern,
                warmup,
                measure,
                threads,
                warm_reps,
            })
        };
    use TrafficPattern::{NearestNeighbor, UniformRandom};
    Some(match name {
        "table1_paper" => Workload::Table1,
        "noc_uniform_loaded" => noc(16, 0.03, UniformRandom, (1_000, 7_000), (100, 400), 0, 1),
        "noc_sparse_leap" => noc(
            128,
            2.0e-6,
            NearestNeighbor,
            (2_000, 250_000),
            (0, 5_000),
            0,
            NOC_INPUTS as usize,
        ),
        "noc_saturated_sharded" => noc(64, 0.03, UniformRandom, (300, 700), (20, 60), 2, 1),
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    record: bool,
    expected: Option<String>,
    expect: Vec<(String, String)>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2005,
        seconds: 10.0,
        trace: false,
        tiny: false,
        record: false,
        expected: None,
        expect: Vec::new(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            "--tiny" => args.tiny = true,
            "--record" => args.record = true,
            "--expected" => args.expected = Some(value()?),
            "--expect" => {
                let v = value()?;
                let (k, x) = v.split_once('=').ok_or("--expect takes <metric>=<value>")?;
                args.expect.push((k.to_string(), x.to_string()));
            }
            "--trace-out" => args.trace_out = Some(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload(&args.workload, false).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err("--seconds must be non-negative".into());
    }
    Ok(args)
}

/// The checked outputs of one operation: model values that are pure
/// functions of the workload and seed, so every rep must repeat them.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    values: Vec<(&'static str, f64, &'static str)>,
    digest: String,
}

impl Model {
    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }

    /// An output in the form `expected.tsv` records it.
    fn get(&self, name: &str) -> Option<String> {
        if name == "digest" {
            return Some(self.digest.clone());
        }
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, v, _)| format!("{v:?}"))
    }
}

/// Deterministic work counters the simulator exposes, from one rep.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounters {
    routers_stepped: u64,
    cycles_leapt: u64,
    leaps: u64,
    events_processed: u64,
    routers_settled: u64,
    settle_ops: u64,
    max_debt_span: u64,
    total_cycles: u64,
    injected: u64,
    delivered: u64,
    dropped_at_source: u64,
    wake_stall_cycles: u64,
    crossbar_utilization: f64,
    sleep_events: u64,
}

/// Host facts of the resolved simulation.
#[derive(Debug, Clone, Default)]
struct Geometry {
    kernel: &'static str,
    shards: usize,
    threads: usize,
}

struct Rep {
    /// Which of the run's inputs the rep ran (0 = `--seed` itself).
    input: usize,
    setup_s: Vec<f64>,
    run_s: f64,
    try_run_s: f64,
    model: Model,
    counters: SimCounters,
    geometry: Geometry,
}

struct Bench {
    args: Args,
    work: Workload,
    tracer: Tracer,
    reference: calib::Reference,
    attempted: u64,
    failed: u64,
    /// Per input: the first rep's outputs, and the expected values.
    first: Vec<Option<Model>>,
    expected: Vec<Vec<(String, String)>>,
    expectation_source: String,
    /// The latest rep of input 0, whose outputs and counters are reported.
    last: Option<Rep>,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every field of a run's statistics, per-lane histograms
/// included; equal statistics give equal digests.
fn stats_digest(s: &NetworkStats) -> String {
    let mut h = FNV_OFFSET;
    for v in [
        s.measured_cycles,
        s.packets_injected,
        s.packets_dropped_at_source,
        s.packets_delivered,
        s.flits_delivered,
        s.latency_sum,
        s.latency_max,
        s.flits_dropped_by_fault,
        s.packets_dropped_by_fault,
        s.packets_unroutable,
        s.packets_delivered_post_fault,
        s.latency_sum_post_fault,
        s.min_reachable_fraction.to_bits(),
        s.vcs as u64,
    ] {
        fnv(&mut h, v);
    }
    for a in &s.router_activity {
        for v in [
            a.cycles,
            a.buffer_writes,
            a.buffer_reads,
            a.arbitrations,
            a.crossbar_traversals,
            a.link_traversals,
        ] {
            fnv(&mut h, v);
        }
    }
    for g in &s.gating {
        for v in [
            g.cycles_busy,
            g.cycles_idle_awake,
            g.cycles_asleep,
            g.cycles_waking,
            g.sleep_entries,
            g.wake_stall_cycles,
        ] {
            fnv(&mut h, v);
        }
    }
    let bank = &s.idle_histograms;
    for r in 0..bank.routers() {
        for l in 0..bank.lanes() {
            let hist = bank.lane(r, l);
            for (len, n) in hist.iter_lengths() {
                fnv(&mut h, len);
                fnv(&mut h, n);
            }
            fnv(&mut h, hist.total_idle_cycles());
            for &len in hist.open_runs() {
                fnv(&mut h, len);
            }
            fnv(&mut h, u64::MAX);
        }
    }
    format!("{h:016x}")
}

fn characterize_span(s: Scheme) -> &'static str {
    match s {
        Scheme::Sc => "core.characterize.sc",
        Scheme::Dfc => "core.characterize.dfc",
        Scheme::Dpc => "core.characterize.dpc",
        Scheme::Sdfc => "core.characterize.sdfc",
        Scheme::Sdpc => "core.characterize.sdpc",
    }
}

impl Bench {
    /// Serial Table 1: `Characterizer::new` is set-up; the five
    /// characterizations and the row derivation are the operation.
    fn table1_rep(&mut self) -> Result<Rep, String> {
        let tr = &mut self.tracer;
        let cfg = CrossbarConfig::paper();
        let mut setup_s = Vec::with_capacity(TABLE_SETUP_SAMPLES);
        let mut ch = None;
        for _ in 0..TABLE_SETUP_SAMPLES {
            let start = Instant::now();
            for _ in 0..TABLE_SETUP_BATCH {
                ch = Some(Characterizer::new(std::hint::black_box(&cfg)));
            }
            setup_s.push(start.elapsed().as_secs_f64() / f64::from(TABLE_SETUP_BATCH));
        }
        let ch = ch.expect("at least one set-up sample");

        let run = tr.begin("run");
        let mut raw = Vec::with_capacity(Scheme::ALL.len());
        let mut err = None;
        for scheme in Scheme::ALL {
            let o = tr.begin(characterize_span(scheme));
            let r = ch.characterize(scheme);
            tr.end(o);
            match r {
                Ok(c) => raw.push(c),
                Err(e) => {
                    err = Some(format!("characterize({}) returned Err: {e}", scheme.name()));
                    break;
                }
            }
        }
        let table = err.is_none().then(|| {
            let o = tr.begin("core.table1_from_characterizations");
            let t = Table1::from_characterizations(raw);
            tr.end(o);
            t
        });
        let run_s = tr.end(run);
        if let Some(e) = err {
            return Err(e);
        }
        let table = table.expect("built when no error");

        let paper = Table1::paper_reference();
        let mut abs_err = Vec::new();
        let mut worst_penalty: f64 = 0.0;
        for row in &table.rows {
            worst_penalty = worst_penalty.max(row.delay_penalty.unwrap_or(0.0));
            if row.scheme.is_baseline() {
                continue;
            }
            let p = paper.row(row.scheme).ok_or("paper row missing")?;
            for (m, r) in [
                (row.active_leakage_savings, p.active_leakage_savings),
                (row.standby_leakage_savings, p.standby_leakage_savings),
            ] {
                abs_err.push((m.unwrap_or(f64::NAN) - r.unwrap_or(f64::NAN)).abs());
            }
        }
        let paper_err_pp = 100.0 * abs_err.iter().sum::<f64>() / abs_err.len() as f64;
        let mut h = FNV_OFFSET;
        for b in format!("{table:?}").bytes() {
            fnv(&mut h, b as u64);
        }
        Ok(Rep {
            input: 0,
            setup_s,
            run_s,
            try_run_s: 0.0,
            model: Model {
                values: vec![
                    ("paper_err_pp", paper_err_pp, "pp"),
                    ("delay_penalty_pct", 100.0 * worst_penalty, "%"),
                ],
                digest: format!("{h:016x}"),
            },
            counters: SimCounters::default(),
            geometry: Geometry::default(),
        })
    }

    /// One NoC operation. Set-up characterizes SDPC, derives its per-VC
    /// lane gating parameters and builds the simulation; the operation
    /// runs it and does the in-loop and offline energy accounting.
    fn noc_rep(&mut self, w: Noc, threads: usize, input: usize) -> Result<Rep, String> {
        let tr = &mut self.tracer;
        let cfg = CrossbarConfig::paper();
        let setup = tr.begin("setup");
        let o = tr.begin("core.characterizer_new");
        let ch = Characterizer::new(&cfg);
        tr.end(o);
        let o = tr.begin("core.characterize.sdpc");
        let c = ch.characterize(Scheme::Sdpc);
        tr.end(o);
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                tr.end(setup);
                return Err(format!("characterize(SDPC) returned Err: {e}"));
            }
        };
        let o = tr.begin("power.gating_params");
        let params = RouterPowerModel::from_characterization(&c, &cfg)
            .with_buffer_geometry(VCS, DEPTH_PER_VC)
            .vc_lane_gating_params(cfg.radix, VCS);
        tr.end(o);
        let policy = GatingPolicy::IdleThreshold(params.min_idle_cycles(cfg.clock));
        let mesh = MeshConfig {
            width: w.side,
            height: w.side,
            injection_rate: w.rate,
            pattern: w.pattern,
            packet_len_flits: 4,
            buffer_depth: DEPTH_PER_VC,
            vcs: VCS,
            seed: self.args.seed.wrapping_add(input as u64),
            gating: Some(SleepConfig {
                policy,
                wake_latency: params.wake_latency_cycles,
            }),
            shards: threads,
            threads,
            ..MeshConfig::default()
        };
        let o = tr.begin("netsim.new");
        let mut sim = Simulation::new(mesh);
        tr.end(o);
        let setup_s = tr.end(setup);

        let run = tr.begin("run");
        let o = tr.begin("netsim.try_run");
        let stats = sim.try_run(w.warmup, w.measure);
        let try_run_s = tr.end(o);
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                tr.end(run);
                return Err(format!("try_run aborted: {e}"));
            }
        };
        let o = tr.begin("stats.total_gating_counters");
        let counters = stats.total_gating_counters();
        tr.end(o);
        let o = tr.begin("power.energy_from_counters");
        let in_loop = energy_from_counters(&counters, &params, cfg.clock);
        tr.end(o);
        let o = tr.begin("stats.merged_idle_histogram");
        let hist = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
        tr.end(o);
        let o = tr.begin("power.evaluate_policy");
        let offline = evaluate_policy(&hist, &params, policy, cfg.clock);
        tr.end(o);
        let run_s = tr.end(run);

        let offline_err_pct = 100.0 * (offline.energy_policy.0 - in_loop.energy_policy.0).abs()
            / in_loop.energy_policy.0;
        Ok(Rep {
            input,
            setup_s: vec![setup_s],
            run_s,
            try_run_s,
            model: Model {
                values: vec![
                    ("leakage_saved_pct", 100.0 * in_loop.savings_fraction(), "%"),
                    ("avg_latency_cy", stats.avg_latency(), "cycles"),
                    ("offline_err_pct", offline_err_pct, "%"),
                    ("packets_injected", stats.packets_injected as f64, "count"),
                    ("packets_delivered", stats.packets_delivered as f64, "count"),
                ],
                digest: stats_digest(&stats),
            },
            counters: SimCounters {
                routers_stepped: sim.routers_stepped_total(),
                cycles_leapt: sim.cycles_leapt_total(),
                leaps: sim.leaps_total(),
                events_processed: sim.events_processed_total(),
                routers_settled: sim.routers_settled_total(),
                settle_ops: sim.settle_ops_total(),
                max_debt_span: sim.max_debt_span(),
                total_cycles: w.warmup + w.measure,
                injected: stats.packets_injected,
                delivered: stats.packets_delivered,
                dropped_at_source: stats.packets_dropped_at_source,
                wake_stall_cycles: stats.wake_stall_cycles(),
                crossbar_utilization: stats.crossbar_utilization(),
                sleep_events: in_loop.sleep_events,
            },
            geometry: Geometry {
                kernel: sim.kernel().name(),
                shards: sim.shards(),
                threads: sim.threads(),
            },
        })
    }

    /// Problems with one operation's outputs, checked against the first
    /// rep of its input, the recorded expected values and the model's
    /// invariants.
    fn check(&self, model: &Model, input: usize) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(first) = &self.first[input] {
            if first != model {
                problems.push(format!(
                    "outputs differ from the first rep: {model:?} vs {first:?}"
                ));
            }
        }
        for (name, want) in &self.expected[input] {
            match model.get(name) {
                None => problems.push(format!("expected metric {name} is not produced")),
                Some(got) if !same_value(&got, want) => {
                    problems.push(format!("{name} = {got}, expected {want}"));
                }
                Some(_) => {}
            }
        }
        let v = |n: &str| model.value(n);
        let mut require = |ok: bool, what: &str| {
            if !ok {
                problems.push(format!("invariant failed: {what}"));
            }
        };
        match self.work {
            Workload::Table1 => {
                require(v("paper_err_pp") < 25.0, "paper_err_pp < 25");
                require(v("delay_penalty_pct") < 10.0, "delay_penalty_pct < 10");
            }
            Workload::Noc(_) => {
                require(v("packets_delivered") > 0.0, "packets are delivered");
                let saved = v("leakage_saved_pct");
                require(saved > 0.0 && saved < 100.0, "0 < leakage_saved_pct < 100");
                require(
                    v("offline_err_pct") < 5.0,
                    "in-loop and offline energy agree within 5 %",
                );
            }
        }
        problems
    }

    /// Runs one operation and checks it; returns it when it succeeded.
    fn op(&mut self, threads: Option<usize>) -> Option<Rep> {
        let input = (self.attempted % self.first.len() as u64) as usize;
        self.attempted += 1;
        let rep = match self.work {
            Workload::Table1 => self.table1_rep(),
            Workload::Noc(w) => self.noc_rep(w, threads.unwrap_or(w.threads), input),
        };
        let problems = match &rep {
            Ok(r) => self.check(&r.model, input),
            Err(e) => vec![e.clone()],
        };
        if !problems.is_empty() {
            self.failed += 1;
            for p in &problems {
                println!("FAILED op {}: {p}", self.attempted);
            }
            return None;
        }
        let rep = rep.expect("checked above");
        if self.first[input].is_none() {
            self.first[input] = Some(rep.model.clone());
        }
        Some(rep)
    }

    /// Runs timed reps for `seconds` (at least [`MIN_REPS`]) and
    /// returns their samples.
    fn timed(&mut self, seconds: f64, first_rep: usize) -> Samples {
        let mut out = Samples::default();
        let start = Instant::now();
        let mut k = 0;
        let mut before = self.reference.speed();
        while k < MIN_REPS || (start.elapsed().as_secs_f64() < seconds && k < MAX_REPS) {
            self.tracer.set_rep(first_rep + k);
            k += 1;
            probe::reset_peak_rss();
            let rep = self.op(None);
            let peak_rss_kib = probe::vm_hwm_kib();
            let after = self.reference.speed();
            let speed = (before + after) / 2.0;
            before = after;
            if let Some(r) = rep {
                out.peak_rss_mb.push(peak_rss_kib as f64 / 1024.0);
                out.setup_s.extend(r.setup_s.iter().map(|s| s * speed));
                out.run_s.push(r.run_s * speed);
                out.host_run_s.push(r.run_s);
                out.speed.push(speed);
                out.try_run_s.push(r.try_run_s);
                if r.input == 0 {
                    self.last = Some(r);
                }
            }
        }
        out
    }
}

fn same_value(got: &str, want: &str) -> bool {
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(a), Ok(b)) => a == b,
        _ => got == want,
    }
}

/// Host measurements of the timed reps of one phase.
#[derive(Debug, Default)]
struct Samples {
    /// Set-up and run times scaled by the rep's host speed.
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    /// Unscaled run times and the host speed of each rep.
    host_run_s: Vec<f64>,
    speed: Vec<f64>,
    try_run_s: Vec<f64>,
    /// Peak RSS of each rep (the warm heap the earlier reps left
    /// included).
    peak_rss_mb: Vec<f64>,
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(n=4)` (exclusive method) give them.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n,
        };
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn summary_json(s: Summary) -> String {
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
        num(s.median),
        num(s.q1),
        num(s.q3),
        s.n
    )
}

/// Median duration (and its summary) of the timed traced spans called
/// `name`, plus the medians of their fault and CPU deltas.
fn span_stats(spans: &[Span], name: &str) -> (Summary, f64, f64, f64) {
    let hits: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == name && s.rep > 0)
        .collect();
    let med =
        |f: &dyn Fn(&Span) -> f64| summarize(&hits.iter().map(|s| f(s)).collect::<Vec<_>>()).median;
    (
        summarize(&hits.iter().map(|s| s.secs()).collect::<Vec<_>>()),
        med(&|s| s.minflt as f64),
        med(&|s| s.user_s),
        med(&|s| s.sys_s),
    )
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"rep\": {}, \"start_s\": {}, \"end_s\": {}, \"minflt\": {}, \"user_s\": {}, \"sys_s\": {}, \"vm_hwm_kib\": {}}}{}",
            s.name,
            s.rep,
            num(s.start_s),
            num(s.end_s),
            s.minflt,
            num(s.user_s),
            num(s.sys_s),
            s.vm_hwm_kib,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// `workload seed metric value` lines; `*` matches any seed.
fn load_expected(path: &str, workload: &str, seed: u64) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let seed = seed.to_string();
    Ok(text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && (f[1] == "*" || f[1] == seed))
                .then(|| (f[2].to_string(), f[3].to_string()))
        })
        .collect())
}

/// The traced half of a `--trace 1` run: timed reps with a span around
/// every layer call (plus, on a multi-threaded workload, one rep at a
/// single thread), reduced to the per-layer metrics. Returns them with
/// the report fragment that gives each host-time median its quartiles.
fn traced_phase(b: &mut Bench, seconds: f64, run: Summary) -> (Vec<Metric>, String) {
    let work = b.work;
    let mut per_layer: Vec<Metric> = Vec::new();
    let mut report_layers = String::new();
    b.tracer.set_tracing(true);
    let traced = b.timed(seconds, MAX_REPS + 1);
    let traced_run = summarize(&traced.run_s);
    let traced_try = summarize(&traced.try_run_s);
    // Thread scaling: the same operation at one thread, same shards.
    let mut thread_speedup = 0.0;
    if let Workload::Noc(w) = work {
        if w.threads > 1 {
            b.tracer.set_rep(0);
            if let Some(r) = b.op(Some(1)) {
                thread_speedup = r.try_run_s / traced_try.median;
            }
        }
    }
    b.tracer.set_tracing(false);
    let spans = b.tracer.spans();
    let mut time = |key: &str, s: Summary| {
        let _ = write!(report_layers, "\"{key}\": {}, ", summary_json(s));
        per_layer.push((key.to_string(), s.median, "s"));
        s
    };
    // The table times `Characterizer::new` in batches, not spans.
    time(
        "core.characterizer_new_s",
        match work {
            Workload::Table1 => summarize(&traced.setup_s),
            Workload::Noc(_) => span_stats(spans, "core.characterizer_new").0,
        },
    );
    for scheme in Scheme::ALL {
        let span = characterize_span(scheme);
        let key = format!(
            "core.characterize_s.{}",
            &span["core.characterize.".len()..]
        );
        time(&key, span_stats(spans, span).0);
    }
    for (key, span) in [
        (
            "core.table1_from_characterizations_s",
            "core.table1_from_characterizations",
        ),
        ("power.gating_params_s", "power.gating_params"),
        ("netsim.new_s", "netsim.new"),
        ("netsim.try_run_s", "netsim.try_run"),
        (
            "stats.total_gating_counters_s",
            "stats.total_gating_counters",
        ),
        ("power.energy_from_counters_s", "power.energy_from_counters"),
        (
            "stats.merged_idle_histogram_s",
            "stats.merged_idle_histogram",
        ),
        ("power.evaluate_policy_s", "power.evaluate_policy"),
    ] {
        time(key, span_stats(spans, span).0);
    }
    let try_run = span_stats(spans, "netsim.try_run").0;
    let (_, new_minflt, ..) = span_stats(spans, "netsim.new");
    let (_, run_minflt, run_user, run_sys) = span_stats(spans, "netsim.try_run");
    let c = b.last.as_ref().map(|r| r.counters).unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let overhead = traced_run.median - run.median;
    for (k, v, u) in [
        ("netsim.new_minflt", new_minflt, "count"),
        ("netsim.try_run_minflt", run_minflt, "count"),
        ("netsim.try_run_user_s", run_user, "s"),
        ("netsim.try_run_sys_s", run_sys, "s"),
        ("netsim.routers_stepped", c.routers_stepped as f64, "count"),
        (
            "netsim.ns_per_router_step",
            ratio(try_run.median * 1e9, c.routers_stepped as f64),
            "ns",
        ),
        ("netsim.cycles_leapt", c.cycles_leapt as f64, "cycles"),
        (
            "netsim.leap_fraction",
            ratio(c.cycles_leapt as f64, c.total_cycles as f64),
            "ratio",
        ),
        ("netsim.leaps", c.leaps as f64, "count"),
        (
            "netsim.events_processed",
            c.events_processed as f64,
            "count",
        ),
        ("netsim.routers_settled", c.routers_settled as f64, "count"),
        ("netsim.settle_ops", c.settle_ops as f64, "count"),
        ("netsim.max_debt_span", c.max_debt_span as f64, "cycles"),
        ("netsim.packets_injected", c.injected as f64, "count"),
        ("netsim.packets_delivered", c.delivered as f64, "count"),
        (
            "netsim.delivered_ratio",
            ratio(c.delivered as f64, c.injected as f64),
            "ratio",
        ),
        (
            "netsim.packets_dropped_at_source",
            c.dropped_at_source as f64,
            "count",
        ),
        (
            "netsim.wake_stall_cycles",
            c.wake_stall_cycles as f64,
            "cycles",
        ),
        (
            "netsim.crossbar_utilization",
            c.crossbar_utilization,
            "ratio",
        ),
        ("power.sleep_events", c.sleep_events as f64, "count"),
        ("netsim.thread_speedup", thread_speedup, "ratio"),
        ("bench.trace_overhead_s", overhead, "s"),
    ] {
        per_layer.push((k.to_string(), v, u));
    }
    let _ = write!(
        report_layers,
        "\"traced_run_s\": {}, \"untraced_run_s\": {}, \"trace_overhead_s\": {}, \"spans\": {}",
        summary_json(traced_run),
        summary_json(run),
        num(overhead),
        spans.len()
    );
    if let Some(dir) = &b.args.trace_out {
        let path = format!("{dir}/spans-{}-seed{}.json", b.args.workload, b.args.seed);
        if let Err(e) = write_spans(&path, spans) {
            eprintln!("perfbench: writing {path}: {e}");
        }
    }
    (per_layer, report_layers)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = workload(&args.workload, args.tiny).expect("validated workload name");
    let inputs = match work {
        Workload::Table1 => 1,
        Workload::Noc(_) => NOC_INPUTS,
    };
    let mut expected = vec![Vec::new(); inputs as usize];
    if let (Some(path), false, false) = (&args.expected, args.tiny, args.record) {
        for (i, e) in expected.iter_mut().enumerate() {
            match load_expected(path, &args.workload, args.seed.wrapping_add(i as u64)) {
                Ok(lines) => *e = lines,
                Err(err) => {
                    eprintln!("perfbench: {err}");
                    std::process::exit(2);
                }
            }
        }
    }
    let recorded = expected.iter().filter(|e| !e.is_empty()).count();
    let mut expectation_source = format!("recorded for {recorded} of {inputs} inputs");
    if !args.expect.is_empty() {
        expectation_source.push_str(", and given on the command line");
        for e in &mut expected {
            e.extend(args.expect.iter().cloned());
        }
    }
    let mut b = Bench {
        args,
        work,
        tracer: Tracer::new(),
        reference: calib::Reference::new(),
        attempted: 0,
        failed: 0,
        first: vec![None; inputs as usize],
        expected,
        expectation_source,
        last: None,
    };

    if b.args.record {
        // One operation, printed as `expected.tsv` lines.
        let Some(r) = b.op(None) else {
            std::process::exit(1);
        };
        let seed = match work {
            Workload::Table1 => "*".to_string(),
            Workload::Noc(_) => b.args.seed.to_string(),
        };
        let name = &b.args.workload;
        for (metric, v, _) in &r.model.values {
            println!("{name}\t{seed}\t{metric}\t{v:?}");
        }
        println!("{name}\t{seed}\tdigest\t{}", r.model.digest);
        return;
    }

    // Warm-up reps: checked, but kept out of every median.
    let warm_reps = match work {
        Workload::Table1 => 1,
        Workload::Noc(w) => w.warm_reps,
    };
    let mut cold_run_s = Vec::new();
    for _ in 0..warm_reps {
        if let Some(r) = b.op(None) {
            cold_run_s.push(r.run_s);
        }
    }

    let seconds = b.args.seconds;
    let trace = b.args.trace;
    let untraced = b.timed(if trace { seconds / 2.0 } else { seconds }, 1);
    let (setup, run) = (summarize(&untraced.setup_s), summarize(&untraced.run_s));
    let (host_run, speed) = (summarize(&untraced.host_run_s), summarize(&untraced.speed));
    let peak_rss = summarize(&untraced.peak_rss_mb);

    let (per_layer, report_layers) = if trace {
        traced_phase(&mut b, seconds / 2.0, run)
    } else {
        (Vec::new(), String::new())
    };

    // Report line: host facts, every end-to-end metric with its unit,
    // and the samples behind each host-time median.
    let cpus_allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
    let last = b.last.as_ref();
    let geometry = last.map(|r| r.geometry.clone()).unwrap_or_default();
    let model = last.map(|r| r.model.clone());
    let failed_ops_pct = 100.0 * b.failed as f64 / b.attempted.max(1) as f64;
    let mut report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \"cpus_allowed\": {cpus_allowed},",
        b.args.workload,
        b.args.seed,
        seconds,
        trace,
        probe::host_cpus()
    );
    match work {
        Workload::Table1 => {
            report.push_str("\"threads\": 1, \"schemes\": 5, \"parallelism\": \"serial\", ")
        }
        Workload::Noc(w) => {
            let _ = write!(
                report,
                "\"mesh\": \"{0}x{0}\", \"rate\": {1}, \"pattern\": \"{2:?}\", \"vcs\": {VCS}, \"warmup_cycles\": {3}, \"measure_cycles\": {4}, \"kernel\": \"{5}\", \"shards\": {6}, \"threads\": {7}, ",
                w.side, w.rate, w.pattern, w.warmup, w.measure, geometry.kernel, geometry.shards, geometry.threads
            );
        }
    }
    let _ = write!(
        report,
        "\"warm_reps\": {warm_reps}, \"cold_run_s\": [{}], \"expected_values\": \"{}\", \"metrics\": {{\"setup_s\": {{\"unit\": \"s\", \"host\": true, \"summary\": {}}}, \"run_s\": {{\"unit\": \"s\", \"host\": true, \"summary\": {}}}, \"unscaled_run_s\": {{\"unit\": \"s\", \"host\": true, \"summary\": {}}}, \"host_speed\": {{\"unit\": \"ratio\", \"summary\": {}}}, \"peak_rss_mb\": {{\"unit\": \"MB\", \"host\": true, \"summary\": {}}}, \"failed_ops_pct\": {{\"unit\": \"%\", \"value\": {}}}",
        cold_run_s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "),
        b.expectation_source,
        summary_json(setup),
        summary_json(run),
        summary_json(host_run),
        summary_json(speed),
        summary_json(peak_rss),
        num(failed_ops_pct)
    );
    if let Some(m) = &model {
        for (name, v, unit) in &m.values {
            if name.starts_with("packets_") {
                continue;
            }
            let note = if *name == "offline_err_pct" {
                ", \"note\": \"self-consistency of in-loop vs offline energy; the NoC model is unvalidated\""
            } else {
                ""
            };
            let _ = write!(
                report,
                ", \"{name}\": {{\"unit\": \"{unit}\", \"host\": false, \"value\": {}{note}}}",
                num(*v)
            );
        }
    }
    report.push('}');
    if trace {
        let _ = write!(report, ", \"per_layer\": {{{report_layers}}}");
    }
    report.push('}');
    println!("perfbench-report {report}");

    let metrics: Vec<Metric> = if trace {
        per_layer
    } else {
        vec![
            ("setup_s".into(), setup.median, "s"),
            ("run_s".into(), run.median, "s"),
            ("peak_rss_mb".into(), peak_rss.median, "MB"),
        ]
    };
    let metrics = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        b.failed == 0 && b.attempted > 0,
        b.attempted,
        b.failed
    );
}
