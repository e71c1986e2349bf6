//! Emits `BENCH_circuit.json` — the committed performance baseline of the
//! circuit engine, so future PRs have a measured trajectory to compare
//! against.
//!
//! Three headline comparisons, each new-engine vs the seed's full-restamp
//! dense kernel (`SolverKind::Reference`) measured in the same binary:
//!
//! 1. `transient/inverter_chain_100ps` — [`CHAIN_STAGES`]-stage chain
//!    (300 stages, ~300 unknowns), 100 ps window;
//! 2. `crossbar16/dc_slice` — one radix-16 crossbar-slice leakage solve;
//! 3. `table1_single_corner` — the full five-scheme Table 1 pipeline at
//!    the reduced configuration (parallel + sparse vs serial reference).
//!
//! Each comparison alternates fast and baseline runs, so host drift hits
//! both sides alike, and records the median with the min/max spread.
//!
//! Run with `cargo run --release -p lnoc-bench --bin bench_circuit`.

use lnoc_bench::circuits::{crossbar_16x16_cfg, inverter_chain, table1_bench_cfg, CHAIN_STAGES};
use lnoc_circuit::dc::{self, NewtonOptions, SolverKind};
use lnoc_circuit::transient::{self, TransientSpec};
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_core::slice::BitSlice;
use lnoc_core::table1::Table1;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Interleaved rounds per comparison.
const RUNS: usize = 5;

/// Median and spread of one side's wall times (s).
#[derive(Debug, Clone, Copy)]
struct Timing {
    median: f64,
    min: f64,
    max: f64,
}

impl Timing {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        Timing {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// One measured comparison.
struct Entry {
    name: &'static str,
    fast: Timing,
    baseline: Timing,
}

/// [`RUNS`] rounds of one `fast` then one `baseline` run.
fn interleaved(mut fast: impl FnMut(), mut baseline: impl FnMut()) -> (Timing, Timing) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut f, mut b) = (Vec::with_capacity(RUNS), Vec::with_capacity(RUNS));
    for _ in 0..RUNS {
        f.push(time(&mut fast));
        b.push(time(&mut baseline));
    }
    (Timing::of(f), Timing::of(b))
}

fn chain_spec(solver: SolverKind) -> TransientSpec {
    let mut spec = TransientSpec::new(100e-12, 0.2e-12);
    spec.newton.solver = solver;
    spec
}

fn main() {
    let mut entries = Vec::new();

    // --- 1. Inverter chain transient.
    let (chain, _out) = inverter_chain(CHAIN_STAGES);
    println!("measuring transient/inverter_chain_100ps ({CHAIN_STAGES} stages)…");
    let run_chain = |solver| {
        black_box(transient::run(&chain, &chain_spec(solver)).expect("runs"));
    };
    let (fast, baseline) = interleaved(
        || run_chain(SolverKind::Auto),
        || run_chain(SolverKind::Reference),
    );
    entries.push(Entry {
        name: "transient/inverter_chain_100ps",
        fast,
        baseline,
    });

    // --- 2. Crossbar-slice DC leakage solve (radix 16).
    println!("measuring crossbar16/dc_slice…");
    let cfg16 = crossbar_16x16_cfg();
    let mut slice = BitSlice::build(Scheme::Sdpc, &cfg16);
    slice.set_grant(0, true);
    slice.set_data(0, true);
    slice.set_enable_far(true);
    let solve = |solver: SolverKind| {
        let opts = NewtonOptions {
            solver,
            max_iterations: 300,
            ..NewtonOptions::default()
        };
        let sol = dc::solve_with(&slice.netlist, &opts, None).expect("dc converges");
        black_box(sol.total_source_power(&slice.netlist));
    };
    let (fast, baseline) = interleaved(|| solve(SolverKind::Auto), || solve(SolverKind::Reference));
    entries.push(Entry {
        name: "crossbar16/dc_slice",
        fast,
        baseline,
    });

    // --- 3. Full single-corner Table 1 characterization: parallel +
    // sparse against the serial reference.
    println!("measuring table1_single_corner…");
    let cfg_fast = table1_bench_cfg();
    let cfg_ref = CrossbarConfig {
        solver: SolverKind::Reference,
        ..table1_bench_cfg()
    };
    let (fast, baseline) = interleaved(
        || {
            black_box(Table1::generate(&cfg_fast).expect("pipeline"));
        },
        || {
            black_box(Table1::generate_serial(&cfg_ref).expect("pipeline"));
        },
    );
    entries.push(Entry {
        name: "table1_single_corner",
        fast,
        baseline,
    });

    // --- Emit JSON (hand-formatted; the offline mini-serde does not
    // serialize).
    let mut json = String::new();
    json.push_str("{\n  \"schema\": 2,\n");
    let _ = writeln!(
        json,
        "  \"note\": \"wall-clock medians with [min, max] over {RUNS} interleaved fast/baseline rounds, release profile; baseline = SolverKind::Reference (seed dense full-restamp kernel) in this same build. Both sides step shared transient prefixes once (a solver-independent batching of the characterization runs); only the fast side fast-forwards exact Newton limit cycles\","
    );
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"median_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}, \"baseline_median_s\": {:.6}, \"baseline_min_s\": {:.6}, \"baseline_max_s\": {:.6}, \"speedup\": {:.2}, \"runs\": {RUNS}}}{}",
            e.name,
            e.fast.median,
            e.fast.min,
            e.fast.max,
            e.baseline.median,
            e.baseline.min,
            e.baseline.max,
            e.baseline.median / e.fast.median,
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_circuit.json");
    std::fs::write(&path, &json).expect("write BENCH_circuit.json");
    println!("\n{json}");
    println!("wrote {}", path.display());
    for e in &entries {
        println!(
            "{:<34} {:>10.3} ms vs {:>10.3} ms  → {:.2}×",
            e.name,
            e.fast.median * 1e3,
            e.baseline.median * 1e3,
            e.baseline.median / e.fast.median
        );
    }
}
