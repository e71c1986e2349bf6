//! Criterion bench for the circuit engine kernels: device evaluation,
//! dense-vs-sparse linear solves, the reference-vs-fast transient engine on
//! the [`CHAIN_STAGES`]-stage (300-stage) inverter chain, a 16×16
//! crossbar-slice characterization step, and one whole-scheme
//! characterization (SDFC, the costliest Table 1 column) at the paper
//! configuration.
//!
//! The `*_dense_baseline` ids run [`SolverKind::Reference`] — the seed's
//! full-restamp dense kernel — so the sparse/reuse speedup is measured
//! in-repo rather than asserted. `cargo run --release -p lnoc-bench --bin
//! bench_circuit` distills the same comparisons into `BENCH_circuit.json`.
//!
//! Set `CIRCUIT_BENCH_QUICK=1` (CI) to shrink the LU sizes and sample
//! counts and skip the second-long reference chain to a smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use lnoc_bench::circuits::{crossbar_16x16_cfg, inverter_chain, CHAIN_STAGES};
use lnoc_circuit::dc::{self, NewtonOptions, SolverKind};
use lnoc_circuit::sparse::{CscPattern, SparseLu};
use lnoc_circuit::transient::{self, TransientSpec};
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_core::slice::BitSlice;
use lnoc_tech::device::{Polarity, VtClass};
use lnoc_tech::node45::Node45;
use std::hint::black_box;

/// Smoke-run mode for CI.
fn quick() -> bool {
    std::env::var_os("CIRCUIT_BENCH_QUICK").is_some()
}

fn bench_device_eval(c: &mut Criterion) {
    let tech = Node45::tt();
    let m = tech.mos(Polarity::Nmos, VtClass::Nominal);
    c.bench_function("mosfet_eval", |b| {
        b.iter(|| black_box(m.eval(black_box(1.0e-6), 0.62, 0.81, 0.12, 0.0)))
    });
}

/// A banded test system shaped like an MNA matrix (dominant diagonal, a
/// few couplings per row).
fn banded_system(n: usize) -> (CscPattern, Vec<f64>) {
    let mut positions = Vec::new();
    for i in 0..n {
        positions.push((i, i));
        for d in 1..4usize {
            if i + d < n {
                positions.push((i, i + d));
                positions.push((i + d, i));
            }
        }
    }
    let pattern = CscPattern::from_positions(n, &positions);
    let mut values = vec![0.0; pattern.nnz()];
    for col in 0..n {
        for k in pattern.col_range(col) {
            let row = pattern.col_rows(col)[k - pattern.col_range(col).start];
            values[k] = if row == col {
                10.0 + (col % 7) as f64
            } else {
                1.0 / (1.0 + (row + 2 * col) as f64)
            };
        }
    }
    (pattern, values)
}

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu");
    if quick() {
        group.sample_size(5);
    }
    let sizes: &[usize] = if quick() {
        &[12, 60]
    } else {
        &[12, 30, 60, 120]
    };
    for &n in sizes {
        let (pattern, values) = banded_system(n);
        let dense = pattern.to_dense(&values);
        group.bench_function(format!("dense_{n}"), |b| {
            b.iter(|| {
                let mut m = dense.clone();
                let mut rhs = vec![1.0; n];
                m.solve_in_place(&mut rhs).expect("well conditioned");
                black_box(rhs)
            })
        });
        group.bench_function(format!("sparse_factorize_{n}"), |b| {
            b.iter(|| {
                let mut lu = SparseLu::new(n);
                lu.factorize(&pattern, &values).expect("well conditioned");
                let mut rhs = vec![1.0; n];
                lu.solve_in_place(&mut rhs);
                black_box(rhs)
            })
        });
        // The hot-loop case: pattern + pivots reused, numbers replayed.
        let mut lu = SparseLu::new(n);
        lu.factorize(&pattern, &values).expect("well conditioned");
        group.bench_function(format!("sparse_refactorize_{n}"), |b| {
            b.iter(|| {
                lu.refactorize(&pattern, &values).expect("stable");
                let mut rhs = vec![1.0; n];
                lu.solve_in_place(&mut rhs);
                black_box(rhs)
            })
        });
    }
    group.finish();
}

fn chain_spec(solver: SolverKind) -> TransientSpec {
    let mut spec = TransientSpec::new(100e-12, 0.2e-12);
    spec.newton = NewtonOptions {
        solver,
        ..spec.newton
    };
    spec
}

fn bench_inverter_chain_transient(c: &mut Criterion) {
    let (nl, _out) = inverter_chain(CHAIN_STAGES);
    let mut group = c.benchmark_group("transient");
    group.sample_size(if quick() { 2 } else { 10 });
    group.bench_function("inverter_chain_100ps", |b| {
        b.iter(|| black_box(transient::run(&nl, &chain_spec(SolverKind::Auto)).expect("runs")))
    });
    if !quick() {
        group.bench_function("inverter_chain_100ps_dense_baseline", |b| {
            b.iter(|| {
                black_box(transient::run(&nl, &chain_spec(SolverKind::Reference)).expect("runs"))
            })
        });
    }
    group.finish();
}

fn bench_crossbar_slice(c: &mut Criterion) {
    // One leakage-state DC solve of a radix-16 crossbar slice — the unit
    // of work the Table 1 pipeline repeats hundreds of times.
    let cfg = crossbar_16x16_cfg();
    let mut slice = BitSlice::build(Scheme::Sdpc, &cfg);
    slice.set_grant(0, true);
    slice.set_data(0, true);
    slice.set_enable_far(true);
    let mut group = c.benchmark_group("crossbar16");
    group.sample_size(if quick() { 3 } else { 10 });
    for (label, solver) in [
        ("dc_slice_sparse", SolverKind::Auto),
        ("dc_slice_dense_baseline", SolverKind::Reference),
    ] {
        let opts = NewtonOptions {
            solver,
            max_iterations: 300,
            ..NewtonOptions::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let sol =
                    dc::solve_with(black_box(&slice.netlist), &opts, None).expect("dc converges");
                black_box(sol.total_source_power(&slice.netlist))
            })
        });
    }
    group.finish();
}

fn bench_characterize(c: &mut Criterion) {
    // One Table 1 column end to end: delay, cycle-energy and sleep-entry
    // transients (one shared-prefix batch) plus the leakage DC solves.
    let ch = Characterizer::new(&CrossbarConfig::paper());
    let mut group = c.benchmark_group("characterize");
    group.sample_size(if quick() { 2 } else { 10 });
    group.bench_function("sdfc_paper", |b| {
        b.iter(|| black_box(ch.characterize(Scheme::Sdfc).expect("characterizes")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_device_eval,
    bench_lu,
    bench_inverter_chain_transient,
    bench_crossbar_slice,
    bench_characterize
);
criterion_main!(benches);
