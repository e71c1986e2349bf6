//! Tiling is a parallelization, not a model change: for any
//! configuration and seed the engine must produce **byte-identical**
//! [`NetworkStats`] on one tile and on many — every counter, every
//! idle-interval histogram bin, every gating counter — for every shard
//! count *and* every thread count. These tests pin that across
//! `shards ∈ {1, 2, 4, 8}` × {mesh, torus} × {uniform, tornado,
//! bursty} × `vcs ∈ {1, 2}` × gating on/off, near-dead meshes
//! included: their global leap decision must not depend on the
//! geometry either.

use leakage_noc::netsim::{
    FaultPlan, GatingPolicy, InjectionProcess, MeshConfig, NetworkStats, Simulation, SleepConfig,
    TrafficPattern,
};
use proptest::prelude::*;

mod common;
use common::assert_lane_cycles_conserved;

/// Runs one config on a single tile and at every requested shard
/// count (each at one and two worker threads), asserting exact
/// equality of statistics, conservation state and leap telemetry.
fn assert_sharded_matches_serial(
    cfg: MeshConfig,
    shard_counts: &[usize],
    warmup: u64,
    measure: u64,
) {
    let mut serial = Simulation::new(MeshConfig {
        shards: 1,
        threads: 1,
        ..cfg.clone()
    });
    let expected = serial.run(warmup, measure);
    assert_lane_cycles_conserved(&cfg, &expected);
    for &shards in shard_counts {
        for threads in [1, 2] {
            let mut sim = Simulation::new(MeshConfig {
                shards,
                threads,
                ..cfg.clone()
            });
            let got = sim.run(warmup, measure);
            assert_eq!(
                expected,
                got,
                "NetworkStats diverged at shards={shards} threads={threads} (resolved {})",
                sim.shards()
            );
            assert_eq!(serial.flits_injected_total(), sim.flits_injected_total());
            assert_eq!(serial.in_flight_flits(), sim.in_flight_flits());
            assert_eq!(
                serial.flits_dropped_by_fault_total(),
                sim.flits_dropped_by_fault_total()
            );
            assert_eq!(serial.cycles_leapt_total(), sim.cycles_leapt_total());
            assert_eq!(serial.leaps_total(), sim.leaps_total());
            sim.check_credit_conservation();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-identical stats across shard counts × mesh/torus ×
    /// {uniform, tornado, bursty} × VC counts × gating on/off.
    #[test]
    fn sharded_matches_serial(
        seed in 0u64..10_000,
        rate_sel in 0u8..2,
        rate in 0.005f64..0.10,
        wrap_sel in 0u8..2,
        traffic_sel in 0u8..3,
        vcs_sel in 0usize..2,
        gated_sel in 0u8..2,
        len in 1usize..6,
        warmup in 0u64..150,
    ) {
        let (pattern, injection) = match traffic_sel {
            0 => (TrafficPattern::UniformRandom, InjectionProcess::Bernoulli),
            1 => (TrafficPattern::Tornado, InjectionProcess::Bernoulli),
            _ => (
                TrafficPattern::UniformRandom,
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 },
            ),
        };
        let cfg = MeshConfig {
            width: 8,
            height: 8,
            // Half the cases are near-dead, so the global leap decision
            // runs with packets crossing tile boundaries right before it.
            injection_rate: if rate_sel == 0 { rate * 0.05 } else { rate },
            pattern,
            injection,
            wrap: wrap_sel == 1,
            vcs: [1, 2][vcs_sel],
            packet_len_flits: len,
            gating: (gated_sel == 1).then_some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 2,
            }),
            seed,
            ..MeshConfig::default()
        };
        assert_sharded_matches_serial(cfg, &[1, 2, 4, 8], warmup, 700);
    }
}

#[test]
fn thread_count_never_changes_results() {
    // `shards` fixes the tile geometry and the results; `threads` is
    // an execution detail. Replay the same 8-shard run with 1, 2, 3
    // and 8 workers (on any host core count) and demand byte-identical
    // statistics — including a worker count that does not divide the
    // shard count evenly.
    let cfg = MeshConfig {
        width: 8,
        height: 16,
        injection_rate: 0.06,
        wrap: true,
        vcs: 2,
        pattern: TrafficPattern::Tornado,
        gating: Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(4),
            wake_latency: 1,
        }),
        seed: 99,
        shards: 8,
        ..MeshConfig::default()
    };
    let run = |threads: usize| {
        let mut sim = Simulation::new(MeshConfig {
            threads,
            ..cfg.clone()
        });
        let stats = sim.run(100, 1200);
        sim.check_credit_conservation();
        stats
    };
    let one = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(one, run(threads), "threads={threads} changed results");
    }
}

#[test]
fn visit_order_is_irrelevant_in_tiles() {
    // The cycle-start credit snapshot argument carries over to tiles:
    // reversing the per-tile visit order must not change anything.
    let cfg = MeshConfig {
        width: 8,
        height: 8,
        injection_rate: 0.08,
        vcs: 2,
        seed: 5,
        shards: 4,
        threads: 1,
        ..MeshConfig::default()
    };
    let mut fwd = Simulation::new(cfg.clone());
    let mut rev = Simulation::new(cfg);
    rev.set_visit_reversed(true);
    assert_eq!(fwd.run(100, 1200), rev.run(100, 1200));
}

#[test]
fn sharded_64x64_all_idle_settles_in_bulk() {
    // The quiescence acceptance test: an all-idle 64×64 tiled run
    // must settle every tile's worklist immediately — no router is
    // ever stepped, the clock leaps after the first cycle, and the bulk
    // accounting reproduces the exact idle totals (one open interval
    // of `measure` cycles per output VC lane), across every tile and
    // the merge.
    let measure = 2000u64;
    let mut sim = Simulation::new(MeshConfig {
        width: 64,
        height: 64,
        injection_rate: 0.0,
        shards: 8,
        ..MeshConfig::default()
    });
    assert_eq!(sim.shards(), 8);
    let stats = sim.run(0, measure);
    assert_eq!(sim.active_router_count(), 0, "no router may stay active");
    assert_eq!(
        sim.routers_stepped_total(),
        0,
        "an all-idle network must never wake a worker to step a router"
    );
    assert_eq!(sim.cycles_leapt_total(), measure - 1);
    let n = sim.mesh().len() as u64;
    let lanes = 5;
    let merged = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
    assert_eq!(merged.total_idle_cycles(), measure * n * lanes);
    assert_eq!(merged.interval_count(), n * lanes);
    assert_eq!(merged.open_runs().len(), (n * lanes) as usize);
    for a in &stats.router_activity {
        assert_eq!(a.cycles, measure);
        assert_eq!(a.arbitrations, measure * lanes);
        assert_eq!(a.crossbar_traversals, 0);
    }
    assert_eq!(stats.packets_injected, 0);
}

#[test]
fn sharded_64x64_spot_check_matches_serial() {
    // One deterministic large-mesh point: the scale tiling exists for,
    // checked against one tile at a short length so the suite stays
    // fast.
    let cfg = MeshConfig {
        width: 64,
        height: 64,
        injection_rate: 0.01,
        gating: Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(4),
            wake_latency: 2,
        }),
        seed: 2005,
        ..MeshConfig::default()
    };
    assert_sharded_matches_serial(cfg, &[8], 50, 300);
}

#[test]
fn shard_count_is_clamped_to_mesh_height() {
    // Every tile band needs at least one row; an over-asked shard
    // count degrades gracefully instead of panicking.
    let mut sim = Simulation::new(MeshConfig {
        width: 4,
        height: 4,
        shards: 64,
        threads: 16,
        ..MeshConfig::default()
    });
    assert_eq!(sim.shards(), 4);
    assert!(sim.threads() <= 4);
    let stats = sim.run(50, 500);
    assert!(stats.measured_cycles == 500);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Faulted runs are shard-count-independent too: the three-pass
    /// reap exchanges doomed packets and credit returns through the
    /// barrier, so kills, heals and reroutes land identically at every
    /// shard geometry — including tiles whose routers all die.
    #[test]
    fn faulted_sharded_matches_serial(
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        rate in 0.01f64..0.10,
        wrap_sel in 0u8..2,
        link_faults in 0usize..3,
        router_faults in 0usize..2,
        transients in 0usize..2,
    ) {
        prop_assume!(link_faults + router_faults + transients > 0);
        let cfg = MeshConfig {
            width: 8,
            height: 8,
            injection_rate: rate,
            wrap: wrap_sel == 1,
            vcs: if wrap_sel == 1 { 2 } else { 1 },
            seed,
            faults: Some(FaultPlan {
                seed: fault_seed,
                link_faults,
                router_faults,
                transient_link_faults: transients,
                transient_duration: 120,
                start_cycle: 80,
                window: 250,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        };
        // 3 tiles on 8 rows gives uneven bands (3, 3, 2).
        assert_sharded_matches_serial(cfg, &[1, 2, 3, 4, 8], 0, 800);
    }
}

#[test]
fn faulted_sharded_survives_threads() {
    // Thread count stays an execution detail on a faulted network:
    // the reap barriers synchronize every worker, so 1, 2 and 8
    // workers replay the same kills byte-for-byte.
    let cfg = MeshConfig {
        width: 8,
        height: 16,
        injection_rate: 0.06,
        wrap: true,
        vcs: 2,
        seed: 42,
        shards: 8,
        faults: Some(FaultPlan {
            seed: 17,
            link_faults: 2,
            router_faults: 1,
            transient_link_faults: 1,
            transient_duration: 200,
            start_cycle: 150,
            window: 300,
            ..FaultPlan::default()
        }),
        ..MeshConfig::default()
    };
    let run = |threads: usize| {
        let mut sim = Simulation::new(MeshConfig {
            threads,
            ..cfg.clone()
        });
        let stats = sim.run(0, 1500);
        sim.check_credit_conservation();
        stats
    };
    let one = run(1);
    assert!(one.flits_dropped_by_fault > 0, "the plan must bite");
    for threads in [2, 8] {
        assert_eq!(one, run(threads), "threads={threads} changed results");
    }
}

#[test]
fn sharded_saturated_dateline_torus_drains_around_dead_link() {
    // The graceful-degradation acceptance scenario, sharded: a
    // saturated dateline torus loses a link mid-run and must keep
    // streaming packets around the detour — identically at every
    // shard count, without tripping the watchdog.
    let cfg = MeshConfig {
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
            start_cycle: 400,
            window: 1,
            ..FaultPlan::default()
        }),
        ..MeshConfig::default()
    };
    assert_sharded_matches_serial(cfg, &[2, 4], 0, 1500);
}

#[test]
fn sharded_saturated_dateline_torus_drains() {
    // The deadlock-freedom showcase on tiles: Tornado
    // at saturation on a wrapped 16×16 with dateline VCs, watchdog
    // armed, boundary mailboxes carrying wrap traffic between the
    // first and last band.
    let cfg = MeshConfig {
        width: 16,
        height: 16,
        wrap: true,
        vcs: 2,
        pattern: TrafficPattern::Tornado,
        injection_rate: 1.0,
        source_queue_cap: 4,
        watchdog_cycles: 2_000,
        seed: 9,
        ..MeshConfig::default()
    };
    assert_sharded_matches_serial(cfg, &[2, 4], 0, 1500);
}
