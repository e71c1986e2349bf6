//! The engine is an optimization, not a model change: for any
//! configuration and seed — at every shard and thread count — it must
//! produce **bit-identical** [`NetworkStats`] to the dense reference
//! kernel: every counter, every idle-interval histogram bin, every
//! gating counter. These tests pin that across the full scenario
//! matrix (`tests/sharded_equivalence.rs` adds the dedicated
//! shard/thread dimension), including the points that stress the
//! leap machinery: near-dead meshes that leap across tile boundaries,
//! fault epochs landing mid-leap, and saturated dateline-torus traffic
//! where the engine steps every cycle.

use leakage_noc::netsim::{
    FaultPlan, GatingPolicy, InjectionProcess, MeshConfig, NetworkStats, SimAbort, SimKernel,
    Simulation, SleepConfig, TrafficPattern,
};
use proptest::prelude::*;

mod common;
use common::assert_lane_cycles_conserved;

/// CI runs the suite once per VC count by exporting `LNOC_VCS`; when
/// set, it overrides the generated VC dimension so every case in the
/// matrix exercises exactly that configuration.
fn vcs_override() -> Option<usize> {
    std::env::var("LNOC_VCS").ok().map(|v| {
        v.parse()
            .expect("LNOC_VCS must be a VC count (e.g. 1, 2, 4)")
    })
}

/// Runs one config under the reference, the engine on one tile, and
/// the engine at a shard × thread geometry derived from the seed (so
/// the proptest matrix sweeps geometries too), and asserts exact
/// equality of stats and conservation state.
fn assert_kernels_agree(cfg: MeshConfig, warmup: u64, measure: u64, reversed: bool) {
    let shards = [1usize, 2, 4, 8][(cfg.seed % 4) as usize];
    let threads = 1 + (cfg.seed / 4 % 2) as usize;
    assert_kernels_agree_at(cfg, warmup, measure, reversed, shards, threads);
}

/// [`assert_kernels_agree`] with the tiled engine at an explicit
/// `shards × threads` geometry; every run's stats must also conserve
/// lane-cycles on their own ([`assert_lane_cycles_conserved`]).
fn assert_kernels_agree_at(
    cfg: MeshConfig,
    warmup: u64,
    measure: u64,
    reversed: bool,
    shards: usize,
    threads: usize,
) {
    let mut reference = Simulation::new(MeshConfig {
        kernel: SimKernel::Reference,
        ..cfg.clone()
    });
    let mut serial = Simulation::new(MeshConfig {
        kernel: SimKernel::Engine,
        shards: 1,
        threads: 1,
        ..cfg.clone()
    });
    let mut tiled = Simulation::new(MeshConfig {
        kernel: SimKernel::Engine,
        shards,
        threads,
        ..cfg.clone()
    });
    reference.set_visit_reversed(reversed);
    serial.set_visit_reversed(reversed);
    tiled.set_visit_reversed(reversed);
    let sr = reference.run(warmup, measure);
    let ss = serial.run(warmup, measure);
    let st = tiled.run(warmup, measure);
    for stats in [&sr, &ss, &st] {
        assert_lane_cycles_conserved(&cfg, stats);
    }
    assert_eq!(sr, ss, "NetworkStats diverged between reference and engine");
    assert_eq!(
        sr,
        st,
        "NetworkStats diverged between reference and engine ({} shards x {} threads)",
        tiled.shards(),
        tiled.threads()
    );
    for (name, other) in [("engine", &serial), ("tiled engine", &tiled)] {
        assert_eq!(
            reference.flits_injected_total(),
            other.flits_injected_total(),
            "flits_injected diverged vs {name}"
        );
        assert_eq!(
            reference.in_flight_flits(),
            other.in_flight_flits(),
            "in-flight flits diverged vs {name}"
        );
        assert_eq!(
            reference.flits_dropped_by_fault_total(),
            other.flits_dropped_by_fault_total(),
            "fault drops diverged vs {name}"
        );
    }
    // The leap decision is global, so geometry cannot change it; leap
    // telemetry never leaks into the reference.
    assert_eq!(serial.cycles_leapt_total(), tiled.cycles_leapt_total());
    assert_eq!(reference.cycles_leapt_total(), 0);
    assert_eq!(reference.events_processed_total(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-identical stats across patterns × injection processes ×
    /// mesh/torus × VC counts × gating policies × visit order × packet
    /// lengths.
    #[test]
    fn engine_matches_reference(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        rate in 0.005f64..0.12,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        bursty_sel in 0u8..2,
        reversed_sel in 0u8..2,
        len in 1usize..6,
        vcs_sel in 0usize..3,
        gating_sel in 0u8..5,
        wake in 0u32..3,
        warmup in 0u64..200,
    ) {
        let gating = match gating_sel {
            0 => None,
            1 => Some(GatingPolicy::Never),
            2 => Some(GatingPolicy::Immediate),
            3 => Some(GatingPolicy::IdleThreshold(2)),
            _ => Some(GatingPolicy::IdleThreshold(9)),
        }
        .map(|policy| SleepConfig {
            policy,
            wake_latency: wake,
        });
        let cfg = MeshConfig {
            pattern: TrafficPattern::ALL[pattern_idx],
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            packet_len_flits: len,
            vcs: vcs_override().unwrap_or([1, 2, 4][vcs_sel]),
            injection: if bursty_sel == 1 {
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 }
            } else {
                InjectionProcess::Bernoulli
            },
            gating,
            ..MeshConfig::default()
        };
        assert_kernels_agree(cfg, warmup, 900, reversed_sel == 1);
    }

    /// Faulted runs stay bit-identical too: the fault schedule is a
    /// pure function of (plan, mesh) and epochs apply at cycle
    /// boundaries, so link/router deaths, transient heals and the
    /// reaping of torn worms must not introduce any kernel- or
    /// shard-dependent behaviour.
    #[test]
    fn faulted_kernels_agree(
        rate in 0.01f64..0.10,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        wrap_sel in 0u8..2,
        vcs_sel in 0usize..3,
        link_faults in 0usize..3,
        router_faults in 0usize..2,
        transients in 0usize..2,
        start in 50u64..300,
        window in 1u64..400,
    ) {
        prop_assume!(link_faults + router_faults + transients > 0);
        let cfg = MeshConfig {
            width: 6,
            height: 6,
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            // Wrapped runs need the dateline escape VC.
            vcs: vcs_override().unwrap_or([1, 2, 4][vcs_sel]).max(
                if wrap_sel == 1 { 2 } else { 1 }
            ),
            faults: Some(FaultPlan {
                seed: fault_seed,
                link_faults,
                router_faults,
                transient_link_faults: transients,
                transient_duration: 120,
                start_cycle: start,
                window,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        };
        assert_kernels_agree(cfg, 0, 900, false);
    }

    /// Faults plus gating: a fault reap can remove the flit a waking
    /// lane was waking for, leaving the lane to finish its countdown
    /// with nothing to carry — possibly in a router that then goes
    /// quiet and is settled in closed form. Covers Immediate and
    /// threshold gating across wake latencies, on the reference, the
    /// engine on one tile, and the engine on 4 tiles × 2 threads.
    #[test]
    fn faulted_gated_kernels_agree(
        rate in 0.02f64..0.08,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        link_faults in 0usize..3,
        router_faults in 0usize..2,
        transients in 0usize..2,
        start in 50u64..300,
        window in 1u64..400,
        policy_sel in 0u8..3,
        wake in 0u32..7,
        warmup in 0u64..100,
    ) {
        prop_assume!(link_faults + router_faults + transients > 0);
        let policy = [
            GatingPolicy::Immediate,
            GatingPolicy::IdleThreshold(2),
            GatingPolicy::IdleThreshold(9),
        ][policy_sel as usize];
        let cfg = MeshConfig {
            width: 6,
            height: 6,
            injection_rate: rate,
            seed,
            vcs: vcs_override().unwrap_or(1),
            gating: Some(SleepConfig {
                policy,
                wake_latency: wake,
            }),
            faults: Some(FaultPlan {
                seed: fault_seed,
                link_faults,
                router_faults,
                transient_link_faults: transients,
                transient_duration: 120,
                start_cycle: start,
                window,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        };
        assert_kernels_agree_at(cfg, warmup, 800, false, 4, 2);
    }

    /// Flit conservation under faults, measured from cycle 0: every
    /// injected flit is delivered, still in flight, or was reaped at a
    /// fault boundary — exactly, for any plan the generator draws.
    #[test]
    fn faulted_flit_conservation(
        rate in 0.01f64..0.12,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        wrap_sel in 0u8..2,
        link_faults in 0usize..4,
        router_faults in 0usize..3,
        transients in 0usize..3,
        len in 1usize..6,
        measure in 300u64..1200,
    ) {
        let mut sim = Simulation::new(MeshConfig {
            width: 6,
            height: 6,
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            vcs: if wrap_sel == 1 { 2 } else { 1 },
            packet_len_flits: len,
            faults: Some(FaultPlan {
                seed: fault_seed,
                link_faults,
                router_faults,
                transient_link_faults: transients,
                transient_duration: 100,
                start_cycle: 100,
                window: 300,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        });
        let stats = sim.run(0, measure);
        prop_assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
        );
        sim.check_credit_conservation();
    }

    /// Near-dead meshes leap at every shard count × thread count and
    /// still match the reference — with fault epochs landing inside
    /// leaps and cycle budgets cutting runs short mid-leap.
    #[test]
    fn near_dead_engine_leaps_like_reference(
        rate in 0.0002f64..0.004,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        len in 1usize..4,
        faulted in 0u8..2,
        pattern_sel in 0usize..3,
        fault_seed in 0u64..1_000,
        budget_sel in 0u8..3,
        warmup in 0u64..200,
    ) {
        let wrap = wrap_sel == 1;
        let cfg = MeshConfig {
            width: 8,
            height: 8,
            injection_rate: rate,
            // Row-crossing patterns put boundary crossings right
            // before leap decisions.
            pattern: [
                TrafficPattern::NearestNeighbor,
                TrafficPattern::UniformRandom,
                TrafficPattern::Transpose,
            ][pattern_sel],
            seed,
            wrap,
            vcs: if wrap { 2 } else { 1 },
            packet_len_flits: len,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 1,
            }),
            faults: (faulted == 1).then(|| FaultPlan {
                seed: fault_seed,
                link_faults: 1,
                router_faults: 1,
                transient_link_faults: 1,
                transient_duration: 300,
                start_cycle: 200,
                window: 900,
                ..FaultPlan::default()
            }),
            // A third of the cases abort on the budget, mid-run.
            cycle_budget: if budget_sel == 0 { warmup + 700 } else { 0 },
            ..MeshConfig::default()
        };
        let measure = 1500;
        let expected = Simulation::new(MeshConfig {
            kernel: SimKernel::Reference,
            ..cfg.clone()
        })
        .try_run(warmup, measure);
        let mut leapt = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2] {
                let mut sim = Simulation::new(MeshConfig {
                    shards,
                    threads,
                    ..cfg.clone()
                });
                let got = sim.try_run(warmup, measure);
                prop_assert!(expected == got, "diverged at {} shards x {} threads", shards, threads);
                if let Err(abort) = &got {
                    prop_assert!(matches!(abort, SimAbort::CycleBudgetExceeded { .. }));
                }
                leapt.push(sim.cycles_leapt_total());
            }
        }
        prop_assert!(leapt[0] > 0, "a near-dead mesh must leap");
        prop_assert!(leapt.iter().all(|&l| l == leapt[0]), "leaps depend on geometry: {:?}", leapt);
    }
}

#[test]
fn kernels_agree_on_larger_meshes() {
    // Deterministic spot checks at the sizes the sweep baselines use,
    // including the gated low-rate regime the paper cares about and
    // the multi-VC variants the sweep's VC dimension runs.
    for (w, h, rate, vcs, gating) in [
        (8, 8, 0.02, 1, None),
        (8, 8, 0.02, 4, None),
        (
            16,
            16,
            0.01,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(4),
                wake_latency: 2,
            }),
        ),
        (
            16,
            16,
            0.01,
            2,
            Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(4),
                wake_latency: 2,
            }),
        ),
        (
            16,
            16,
            0.05,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::Immediate,
                wake_latency: 1,
            }),
        ),
    ] {
        assert_kernels_agree(
            MeshConfig {
                width: w,
                height: h,
                injection_rate: rate,
                vcs: vcs_override().unwrap_or(vcs),
                gating,
                seed: 2005,
                ..MeshConfig::default()
            },
            300,
            2000,
            false,
        );
    }
}

#[test]
fn kernels_agree_on_faulted_grid() {
    // Deterministic faulted spot checks: permanent link kills, a
    // router death and a transient heal, on mesh and torus, at the
    // sweep's sizes — each run under both kernels (the engine also at
    // a seed-derived geometry via `assert_kernels_agree`).
    for (wrap, vcs, links, routers, transients, seed) in [
        (false, 1, 1, 0, 0, 0u64),
        (false, 2, 2, 1, 0, 1),
        (true, 2, 1, 0, 1, 2),
        (true, 4, 2, 1, 1, 3),
    ] {
        assert_kernels_agree(
            MeshConfig {
                width: 8,
                height: 8,
                injection_rate: 0.05,
                wrap,
                vcs: vcs_override().unwrap_or(vcs).max(if wrap { 2 } else { 1 }),
                seed: 100 + seed,
                faults: Some(FaultPlan {
                    seed: 40 + seed,
                    link_faults: links,
                    router_faults: routers,
                    transient_link_faults: transients,
                    transient_duration: 150,
                    start_cycle: 150,
                    window: 250,
                    ..FaultPlan::default()
                }),
                ..MeshConfig::default()
            },
            0,
            1800,
            false,
        );
    }
}

#[test]
fn kernels_agree_on_saturated_dateline_torus() {
    // The deadlock-freedom showcase must also be kernel-exact: Tornado
    // at saturation on a wrapped mesh with dateline VCs, where credits
    // are scarce and the worklist never empties.
    assert_kernels_agree(
        MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: vcs_override().unwrap_or(2).max(2),
            pattern: TrafficPattern::Tornado,
            injection_rate: 0.6,
            source_queue_cap: 4,
            watchdog_cycles: 2_000,
            seed: 11,
            ..MeshConfig::default()
        },
        100,
        1500,
        false,
    );
}

#[test]
fn kernels_agree_on_faulted_saturated_torus() {
    // The leap machinery's worst case, both stressors at once: a
    // saturated dateline torus (the network never empties, so the
    // engine steps every cycle) that loses a link mid-run (the
    // prediction horizon must stop exactly at the epoch boundary and
    // re-arm against the detoured, smaller alive set).
    assert_kernels_agree(
        MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: vcs_override().unwrap_or(2).max(2),
            pattern: TrafficPattern::Tornado,
            injection_rate: 0.6,
            source_queue_cap: 4,
            watchdog_cycles: 2_000,
            seed: 23,
            faults: Some(FaultPlan {
                seed: 19,
                link_faults: 1,
                transient_link_faults: 1,
                transient_duration: 200,
                start_cycle: 200,
                window: 300,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        },
        100,
        1500,
        false,
    );
}

#[test]
fn kernels_agree_under_source_saturation() {
    // The source-queue cap and drop accounting must behave identically
    // in both kernels, including the drop counter itself.
    let cfg = MeshConfig {
        injection_rate: 0.4,
        pattern: TrafficPattern::Hotspot,
        source_queue_cap: 3,
        seed: 77,
        ..MeshConfig::default()
    };
    let mut engine = Simulation::new(cfg.clone());
    let mut reference = Simulation::new(MeshConfig {
        kernel: SimKernel::Reference,
        ..cfg
    });
    let se = engine.run(100, 1500);
    let sr = reference.run(100, 1500);
    assert!(se.packets_dropped_at_source > 0, "cap must bite");
    assert_eq!(se, sr);
}

#[test]
fn zero_injection_quiesces_the_whole_network() {
    // With nothing to do, the worklist must empty immediately and the
    // bulk accounting must reproduce the exact idle totals: one open
    // interval of `measure` cycles per output VC lane.
    let measure = 5000u64;
    for vcs in [1usize, 4] {
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.0,
            vcs,
            ..MeshConfig::default()
        });
        assert_eq!(sim.kernel(), SimKernel::Engine, "the engine is the default");
        let stats = sim.run(0, measure);
        assert_eq!(sim.active_router_count(), 0, "no router may stay active");
        assert_eq!(
            (sim.leaps_total(), sim.cycles_leapt_total()),
            (1, measure - 1),
            "a dead network is one stepped cycle, then one single leap"
        );
        let n = sim.mesh().len() as u64;
        let lanes = 5 * vcs as u64;
        let merged = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
        assert_eq!(merged.total_idle_cycles(), measure * n * lanes);
        assert_eq!(merged.interval_count(), n * lanes);
        assert_eq!(merged.open_runs().len(), (n * lanes) as usize);
        // Activity bulk accounting is exact too: every router saw every
        // cycle, and every free lane arbitrated every cycle.
        for a in &stats.router_activity {
            assert_eq!(a.cycles, measure);
            assert_eq!(a.arbitrations, measure * lanes);
            assert_eq!(a.crossbar_traversals, 0);
        }
        assert_eq!(stats.packets_injected, 0);
    }
}

#[test]
fn gated_network_quiesces_once_asleep() {
    // With gating, routers stay in the worklist only until their lanes
    // park; after the threshold walk the active set must still empty.
    for vcs in [1usize, 2] {
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: 0.0,
            vcs,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 2,
            }),
            ..MeshConfig::default()
        });
        let measure = 1000;
        let stats = sim.run(0, measure);
        assert_eq!(sim.active_router_count(), 0);
        let counters = stats.total_gating_counters();
        let lanes = sim.mesh().len() as u64 * 5 * vcs as u64;
        // Every lane: 3 awake idle cycles, then asleep for the rest.
        assert_eq!(counters.sleep_entries, lanes);
        assert_eq!(counters.cycles_idle_awake, lanes * 3);
        assert_eq!(counters.cycles_asleep, lanes * (measure - 3));
        // And the reference kernel agrees bit-for-bit.
        assert_kernels_agree(
            MeshConfig {
                injection_rate: 0.0,
                vcs,
                gating: Some(SleepConfig {
                    policy: GatingPolicy::IdleThreshold(3),
                    wake_latency: 2,
                }),
                ..MeshConfig::default()
            },
            0,
            measure,
            false,
        );
    }
}
