//! Criterion bench for the NoC simulator's cycle rate: the engine vs
//! the dense reference across mesh sizes and VC counts, ungated and
//! with the in-loop sleep FSM enabled, plus the engine on eight pinned
//! tiles. The engine must win big at the low injection rates the
//! leakage study sweeps, the gating bookkeeping must stay cheap, the
//! VC generalization must not tax the single-VC fast path, and tiling
//! must pay at the 64×64 scale (cache locality even on one thread;
//! parallel scaling on real cores). The loaded 16×16 rows at rate 0.03
//! (the perfbench `noc_uniform_loaded` point: V = 2, ungated and
//! `IdleThreshold(2)` with wake 1) put the per-router step itself, not
//! skipped idle time, at the centre of the measurement.
//!
//! Set `NETSIM_BENCH_QUICK=1` (CI) to shrink the grid and sample count
//! to a smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use lnoc_netsim::{
    FaultPlan, GatingPolicy, MeshConfig, SimKernel, Simulation, SleepConfig, TrafficPattern,
};
use std::hint::black_box;

fn bench_mesh_cycles(c: &mut Criterion) {
    let quick = std::env::var_os("NETSIM_BENCH_QUICK").is_some();
    let mut group = c.benchmark_group("netsim");
    group.sample_size(if quick { 3 } else { 10 });

    let gated = Some(SleepConfig {
        policy: GatingPolicy::IdleThreshold(4),
        wake_latency: 1,
    });
    let loaded_gated = Some(SleepConfig {
        policy: GatingPolicy::IdleThreshold(2),
        wake_latency: 1,
    });
    /// (kernel, shards): `0` is the simulator's default geometry; the
    /// engine also runs on eight pinned tiles so the label means the
    /// same thing on every host (threads stay auto — an execution
    /// detail only).
    type Variant = (SimKernel, usize);
    const SERIAL: &[Variant] = &[(SimKernel::Engine, 0), (SimKernel::Reference, 0)];
    const ALL: &[Variant] = &[
        (SimKernel::Engine, 0),
        (SimKernel::Reference, 0),
        (SimKernel::Engine, 8),
    ];
    /// Big meshes skip the dense reference kernel (it would dominate
    /// bench wall time without adding information).
    const FAST: &[Variant] = &[(SimKernel::Engine, 0), (SimKernel::Engine, 8)];
    type Entry = (
        usize,
        usize,
        f64,
        usize,
        Option<SleepConfig>,
        &'static [Variant],
    );
    let sizes: &[Entry] = if quick {
        &[
            (4, 4, 0.05, 1, None, SERIAL),
            (16, 16, 0.005, 1, None, ALL),
            (16, 16, 0.005, 2, None, SERIAL),
            (16, 16, 0.03, 2, loaded_gated, &[(SimKernel::Engine, 0)]),
            (64, 64, 0.005, 1, None, FAST),
        ]
    } else {
        &[
            (4, 4, 0.05, 1, None, SERIAL),
            (4, 4, 0.05, 2, None, SERIAL),
            (4, 4, 0.05, 4, None, SERIAL),
            (8, 8, 0.05, 1, None, SERIAL),
            (8, 8, 0.05, 1, gated, SERIAL),
            (8, 8, 0.05, 2, gated, SERIAL),
            (16, 16, 0.005, 1, None, ALL),
            (16, 16, 0.005, 2, None, SERIAL),
            (16, 16, 0.005, 1, gated, ALL),
            (16, 16, 0.005, 2, gated, SERIAL),
            (16, 16, 0.03, 2, None, SERIAL),
            (16, 16, 0.03, 2, loaded_gated, SERIAL),
            (32, 32, 0.005, 1, None, ALL),
            (32, 32, 0.005, 1, gated, ALL),
            (64, 64, 0.005, 1, None, FAST),
            (64, 64, 0.005, 1, gated, FAST),
        ]
    };
    let cycles = if quick { 300 } else { 1000 };

    let name = |(kernel, shards): Variant| match shards {
        0 => kernel.name().to_string(),
        s => format!("{}-{s}tiles", kernel.name()),
    };
    for &(w, h, rate, vcs, gating, variants) in sizes {
        for &(kernel, shards) in variants {
            let label = format!(
                "{w}x{h}_r{rate}_v{vcs}{}_{}_{}cy",
                match gating.map(|g| g.policy) {
                    None => String::new(),
                    Some(GatingPolicy::IdleThreshold(4)) => "_gated".to_string(),
                    Some(GatingPolicy::IdleThreshold(th)) => format!("_gated-th{th}"),
                    Some(policy) => format!("_gated-{policy:?}"),
                },
                name((kernel, shards)),
                cycles
            );
            group.bench_function(label, |b| {
                b.iter(|| {
                    let mut sim = Simulation::new(MeshConfig {
                        width: w,
                        height: h,
                        injection_rate: rate,
                        pattern: TrafficPattern::UniformRandom,
                        packet_len_flits: 4,
                        buffer_depth: 4,
                        vcs,
                        seed: 7,
                        gating,
                        kernel,
                        shards,
                        ..MeshConfig::default()
                    });
                    black_box(sim.run(0, cycles))
                })
            });
        }
    }

    // Fault machinery overhead: the same 16×16 low-rate point with a
    // seeded fault plan live (two permanent link kills, one router
    // kill, one transient). Routing swaps from the static tables to
    // the FaultMap's BFS tables and every epoch boundary pays the
    // three-pass reap, so this row vs its healthy twin above is the
    // price of graceful degradation.
    for &(kernel, shards) in ALL {
        let label = format!(
            "16x16_r0.005_v1_faulted_{}_{}cy",
            name((kernel, shards)),
            cycles
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut sim = Simulation::new(MeshConfig {
                    width: 16,
                    height: 16,
                    injection_rate: 0.005,
                    pattern: TrafficPattern::UniformRandom,
                    packet_len_flits: 4,
                    buffer_depth: 4,
                    seed: 7,
                    kernel,
                    shards,
                    faults: Some(FaultPlan {
                        seed: 17,
                        link_faults: 2,
                        router_faults: 1,
                        transient_link_faults: 1,
                        transient_duration: cycles / 4,
                        start_cycle: cycles / 8,
                        window: cycles / 2,
                        ..FaultPlan::default()
                    }),
                    ..MeshConfig::default()
                });
                black_box(sim.run(0, cycles))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mesh_cycles);
criterion_main!(benches);
