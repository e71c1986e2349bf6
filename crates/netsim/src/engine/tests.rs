//! The engine's unit tests: behaviour of whole runs, the
//! configuration checks, faults and aborts, and the pools and oracles
//! that only the engine's own state can show.

use super::*;
use crate::fault::FaultPlan;
use crate::router::{total_occupancy, MAX_BUFFER_DEPTH, MAX_VCS};
use crate::sleep::SleepConfig;
use crate::traffic::{packet_id, InjectionProcess, SourcePacket, TrafficPattern, NO_QUEUE};
use lnoc_power::gating::{
    energy_from_counters, evaluate_policy, GatingParams, GatingPolicy, IdleHistogram,
};
use lnoc_tech::units::{Hertz, Joules, Watts};

fn base_cfg() -> MeshConfig {
    MeshConfig {
        width: 4,
        height: 4,
        injection_rate: 0.05,
        pattern: TrafficPattern::UniformRandom,
        packet_len_flits: 4,
        buffer_depth: 4,
        seed: 42,
        ..MeshConfig::default()
    }
}

#[test]
fn packets_flow_and_are_conserved() {
    // Measure from cycle 0: packets straddling a warmup/measure
    // boundary would otherwise split their flit counts across the
    // unmeasured and measured windows and break exact conservation.
    let mut sim = Simulation::new(base_cfg());
    let stats = sim.run(0, 3500);
    assert!(stats.packets_delivered > 100, "{}", stats.packets_delivered);
    // Flits delivered = packets × packet length (within in-flight
    // slack of injected − delivered).
    assert!(
        stats.flits_delivered >= stats.packets_delivered * 4,
        "every delivered packet contributed all its flits"
    );
    assert!(stats.packets_injected >= stats.packets_delivered);
    // Exact conservation: injected = delivered + still in flight.
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits()
    );
}

#[test]
fn packets_flow_with_virtual_channels() {
    for vcs in [2usize, 4] {
        let mut sim = Simulation::new(MeshConfig { vcs, ..base_cfg() });
        let stats = sim.run(0, 3000);
        assert!(
            stats.packets_delivered > 100,
            "vcs {vcs}: {}",
            stats.packets_delivered
        );
        assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
        sim.check_credit_conservation();
    }
}

#[test]
fn latency_at_least_hop_count() {
    let mut sim = Simulation::new(MeshConfig {
        injection_rate: 0.01,
        ..base_cfg()
    });
    let stats = sim.run(200, 3000);
    // Minimum latency: ≥ packet length (serialization) at zero load.
    assert!(stats.avg_latency() >= 4.0, "{}", stats.avg_latency());
    assert!(stats.avg_latency() < 60.0, "{}", stats.avg_latency());
}

#[test]
fn higher_load_means_higher_latency_and_throughput() {
    let run = |rate: f64| {
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: rate,
            seed: 9,
            ..base_cfg()
        });
        sim.run(500, 4000)
    };
    let light = run(0.01);
    let heavy = run(0.08);
    assert!(heavy.throughput() > light.throughput());
    assert!(heavy.avg_latency() > light.avg_latency());
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut sim = Simulation::new(base_cfg());
        let s = sim.run(100, 1000);
        (s.packets_delivered, s.flits_delivered, s.latency_sum)
    };
    assert_eq!(run(), run());
}

#[test]
fn router_visit_order_is_irrelevant() {
    // With the cycle-start credit snapshot, stepping routers in
    // reverse (or any) order must produce bit-identical statistics
    // — in both kernels and at any VC count. Before the snapshot
    // fix, downstream readiness read live buffers that earlier
    // routers had already popped, so behaviour depended on
    // iteration order.
    for kernel in [SimKernel::Engine, SimKernel::Reference] {
        for cfg in [
            base_cfg(),
            MeshConfig {
                injection_rate: 0.12,
                pattern: TrafficPattern::Transpose,
                seed: 3,
                vcs: 2,
                ..base_cfg()
            },
            MeshConfig {
                wrap: true,
                pattern: TrafficPattern::Tornado,
                injection_rate: 0.03,
                vcs: 2,
                ..base_cfg()
            },
            MeshConfig {
                gating: Some(SleepConfig {
                    policy: GatingPolicy::IdleThreshold(3),
                    wake_latency: 2,
                }),
                injection_rate: 0.06,
                seed: 7,
                vcs: 4,
                ..base_cfg()
            },
        ] {
            let cfg = MeshConfig { kernel, ..cfg };
            let mut fwd = Simulation::new(cfg.clone());
            let mut rev = Simulation::new(cfg);
            rev.set_visit_reversed(true);
            let s_fwd = fwd.run(100, 1500);
            let s_rev = rev.run(100, 1500);
            assert_eq!(s_fwd, s_rev);
        }
    }
}

#[test]
fn idle_histograms_fill_under_light_load() {
    let mut sim = Simulation::new(MeshConfig {
        injection_rate: 0.02,
        ..base_cfg()
    });
    let stats = sim.run(200, 2000);
    let merged = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
    assert!(merged.interval_count() > 0);
    // Under 2 % load, most output-cycles are idle.
    let idle_frac = merged.total_idle_cycles() as f64 / (2000.0 * 16.0 * 5.0);
    assert!(idle_frac > 0.5, "idle fraction {idle_frac}");
}

#[test]
fn utilization_tracks_load() {
    let mut light_sim = Simulation::new(MeshConfig {
        injection_rate: 0.01,
        ..base_cfg()
    });
    let mut heavy_sim = Simulation::new(MeshConfig {
        injection_rate: 0.10,
        ..base_cfg()
    });
    let light = light_sim.run(300, 2000).crossbar_utilization();
    let heavy = heavy_sim.run(300, 2000).crossbar_utilization();
    assert!(heavy > 2.0 * light, "light {light}, heavy {heavy}");
}

#[test]
#[should_panic(expected = "at least 2×2")]
fn tiny_mesh_rejected() {
    let _ = Simulation::new(MeshConfig {
        width: 1,
        ..base_cfg()
    });
}

/// 4096 × 4096 is exactly 2²⁴ routers, one past the id space; the
/// check fires before any per-router state is allocated.
#[test]
#[should_panic(expected = "meshes are capped at 16777215 routers")]
fn mesh_past_source_id_space_rejected() {
    let _ = Simulation::new(MeshConfig {
        width: 4096,
        height: 4096,
        ..base_cfg()
    });
}

/// 65 537 × 2 is well inside the router cap, but its last column's
/// x coordinate does not fit the `u16` cache; the check fires
/// before any per-router state is allocated.
#[test]
#[should_panic(expected = "mesh sides are capped at 65536 routers")]
fn mesh_side_past_u16_coordinates_rejected() {
    let _ = Simulation::new(MeshConfig {
        width: (1 << 16) + 1,
        height: 2,
        ..base_cfg()
    });
}

#[test]
#[should_panic(expected = "Oracle")]
fn oracle_rejected_in_loop() {
    let _ = Simulation::new(MeshConfig {
        gating: Some(SleepConfig {
            policy: GatingPolicy::Oracle,
            wake_latency: 1,
        }),
        ..base_cfg()
    });
}

#[test]
#[should_panic(expected = "source queues")]
fn zero_source_queue_cap_rejected() {
    let _ = Simulation::new(MeshConfig {
        source_queue_cap: 0,
        ..base_cfg()
    });
}

/// One flit past 16-bit lane cursors and credits.
#[test]
#[should_panic(expected = "buffer depths are capped at 65535 flits per VC")]
fn oversized_buffer_depth_rejected() {
    let _ = Simulation::new(MeshConfig {
        buffer_depth: MAX_BUFFER_DEPTH + 1,
        ..base_cfg()
    });
}

#[test]
#[should_panic(expected = "vcs must be in")]
fn zero_vcs_rejected() {
    let _ = Simulation::new(MeshConfig {
        vcs: 0,
        ..base_cfg()
    });
}

#[test]
#[should_panic(expected = "vcs must be in")]
fn oversized_vcs_rejected() {
    let _ = Simulation::new(MeshConfig {
        vcs: MAX_VCS + 1,
        ..base_cfg()
    });
}

#[test]
fn all_patterns_deliver() {
    for pattern in TrafficPattern::ALL {
        let mut sim = Simulation::new(MeshConfig {
            pattern,
            injection_rate: 0.03,
            ..base_cfg()
        });
        let stats = sim.run(300, 2000);
        assert!(
            stats.packets_delivered > 10,
            "{pattern:?} delivered {}",
            stats.packets_delivered
        );
    }
}

#[test]
fn torus_delivers_and_shortens_paths() {
    let run = |wrap: bool| {
        let mut sim = Simulation::new(MeshConfig {
            wrap,
            injection_rate: 0.02,
            pattern: TrafficPattern::Tornado,
            seed: 17,
            ..base_cfg()
        });
        sim.run(300, 3000)
    };
    let mesh = run(false);
    let torus = run(true);
    assert!(mesh.packets_delivered > 50);
    assert!(torus.packets_delivered > 50);
    // Tornado on a 4-wide torus is a single wraparound-assisted hop
    // pattern; the mesh must walk the long way.
    assert!(
        torus.avg_latency() < mesh.avg_latency(),
        "torus {:.1} vs mesh {:.1}",
        torus.avg_latency(),
        mesh.avg_latency()
    );
}

#[test]
fn torus_tornado_saturation_drains_with_dateline_vcs() {
    // The acceptance scenario: Tornado at saturation on a wrapped
    // 16×16 with 2 VCs (dateline switching) must make sustained
    // progress without tripping the watchdog. At vcs = 1 the same
    // load wedges wormhole DOR on the rings.
    let mut sim = Simulation::new(MeshConfig {
        width: 16,
        height: 16,
        wrap: true,
        vcs: 2,
        pattern: TrafficPattern::Tornado,
        injection_rate: 1.0,
        source_queue_cap: 4,
        watchdog_cycles: 2_000,
        seed: 9,
        ..base_cfg()
    });
    let stats = sim.run(0, 6000);
    assert!(
        stats.packets_delivered > 2_000,
        "saturated torus must stream packets, got {}",
        stats.packets_delivered
    );
    sim.check_credit_conservation();
}

#[test]
fn watchdog_names_the_blocked_lanes_on_deadlock() {
    // vcs = 1 torus DOR has no dateline escape: Tornado at
    // saturation wedges the rings and the watchdog must abort with
    // the diagnostic instead of spinning.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Simulation::new(MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: 1,
            pattern: TrafficPattern::Tornado,
            injection_rate: 1.0,
            packet_len_flits: 8,
            source_queue_cap: 8,
            watchdog_cycles: 500,
            seed: 5,
            ..base_cfg()
        });
        sim.run(0, 50_000)
    }));
    let msg = *result
        .expect_err("saturated vcs=1 torus tornado must deadlock")
        .downcast::<String>()
        .expect("panic carries the diagnostic string");
    assert!(msg.contains("watchdog"), "{msg}");
    assert!(msg.contains("router"), "diagnostic names a router: {msg}");
    assert!(msg.contains("vc"), "diagnostic names a VC: {msg}");
}

#[test]
fn bursty_injection_conserves_and_matches_load() {
    let mut sim = Simulation::new(MeshConfig {
        injection: InjectionProcess::BurstyOnOff {
            mean_burst: 20,
            mean_idle: 60,
        },
        injection_rate: 0.04,
        seed: 23,
        ..base_cfg()
    });
    let stats = sim.run(0, 8000);
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits()
    );
    // Offered load stays near the configured average rate.
    let offered = stats.packets_injected as f64 / (8000.0 * 16.0);
    assert!(
        (offered - 0.04).abs() < 0.01,
        "offered load {offered} vs configured 0.04"
    );
}

#[test]
fn capped_source_queue_drops_and_stays_exact() {
    // A tiny cap under a saturating hotspot load must reject offers
    // without breaking flit conservation.
    let mut sim = Simulation::new(MeshConfig {
        injection_rate: 0.5,
        pattern: TrafficPattern::Hotspot,
        source_queue_cap: 2,
        seed: 3,
        ..base_cfg()
    });
    let stats = sim.run(0, 2000);
    assert!(
        stats.packets_dropped_at_source > 0,
        "saturating load must hit the cap"
    );
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits()
    );
    assert_eq!(
        stats.packets_injected * 4,
        sim.flits_injected_total(),
        "dropped packets contribute no flits"
    );
    // The source queues themselves respect the cap.
    let tile = &sim.tiles[0];
    assert!(tile.source_queue.iter().all(|&q| tile.queues.len(q) <= 2));
}

#[test]
fn gating_stalls_traffic_and_matches_offline_energy() {
    let params = GatingParams {
        p_idle_awake: Watts(10.0e-6),
        p_standby: Watts(1.0e-6),
        e_transition: Joules(9.0e-15),
        wake_latency_cycles: 2,
    };
    let clock = Hertz(3.0e9);
    let policy = GatingPolicy::IdleThreshold(params.min_idle_cycles(clock));

    let gated_cfg = MeshConfig {
        gating: Some(SleepConfig {
            policy,
            wake_latency: params.wake_latency_cycles,
        }),
        injection_rate: 0.03,
        ..base_cfg()
    };
    let mut gated = Simulation::new(gated_cfg.clone());
    let g = gated.run(500, 6000);
    let mut ungated = Simulation::new(MeshConfig {
        gating: None,
        ..gated_cfg
    });
    let u = ungated.run(500, 6000);

    // Wake latency back-pressures real traffic.
    let counters = g.total_gating_counters();
    assert!(counters.sleep_entries > 100, "{counters:?}");
    assert!(counters.wake_stall_cycles > 0, "{counters:?}");
    assert!(
        g.avg_latency() > u.avg_latency(),
        "gated {:.2} must exceed ungated {:.2}",
        g.avg_latency(),
        u.avg_latency()
    );

    // In-loop energy agrees with the offline model evaluated on the
    // same run's histograms.
    let in_loop = energy_from_counters(&counters, &params, clock);
    let offline = evaluate_policy(
        &g.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS),
        &params,
        policy,
        clock,
    );
    let rel = (in_loop.energy_policy.0 - offline.energy_policy.0).abs() / offline.energy_policy.0;
    assert!(rel < 0.05, "in-loop vs offline disagreement {rel:.4}");
    let rel_never =
        (in_loop.energy_never.0 - offline.energy_never.0).abs() / offline.energy_never.0;
    assert!(rel_never < 1e-9, "idle-cycle totals must match exactly");
}

#[test]
fn per_vc_gating_sleeps_finer_than_per_port() {
    // Same traffic, same policy: with 2 VCs the sleep controllers
    // see twice the lanes, and an empty VC bank can park while its
    // sibling carries a worm — so the asleep fraction of all
    // lane-cycles must not drop when granularity rises.
    let run = |vcs: usize| {
        let mut sim = Simulation::new(MeshConfig {
            vcs,
            injection_rate: 0.04,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(4),
                wake_latency: 1,
            }),
            seed: 31,
            ..base_cfg()
        });
        let stats = sim.run(300, 5000);
        let k = stats.total_gating_counters();
        let lane_cycles = (5 * vcs) as f64 * 16.0 * 5000.0;
        (k.cycles_asleep as f64 / lane_cycles, k.sleep_entries)
    };
    let (frac1, _) = run(1);
    let (frac2, entries2) = run(2);
    assert!(entries2 > 0);
    assert!(
        frac2 >= frac1 * 0.95,
        "finer gating granularity lost sleep coverage: {frac1:.3} -> {frac2:.3}"
    );
}

#[test]
fn default_geometry_depends_on_size_only() {
    // `shards = 0` is derived from router count and cores alone —
    // offered load selects nothing — and explicit geometry passes
    // through, clamped to the mesh height.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for rate in [0.0, 0.01, 0.5] {
        let small = Simulation::new(MeshConfig {
            injection_rate: rate,
            ..base_cfg()
        });
        assert_eq!(small.kernel(), SimKernel::Engine);
        assert_eq!((small.shards(), small.threads()), (1, 1));
        let big = Simulation::new(MeshConfig {
            width: 64,
            height: 64,
            injection_rate: rate,
            ..base_cfg()
        });
        assert_eq!(64 * 64, MeshConfig::SHARD_MIN_ROUTERS);
        assert_eq!(big.shards(), cores.min(64));
        assert_eq!(big.threads(), cores.min(64));
    }
    let pinned = Simulation::new(MeshConfig {
        shards: 3,
        threads: 2,
        ..base_cfg()
    });
    assert_eq!((pinned.shards(), pinned.threads()), (3, 2));
    let reference = Simulation::new(MeshConfig {
        kernel: SimKernel::Reference,
        shards: 3,
        threads: 2,
        ..base_cfg()
    });
    assert_eq!((reference.shards(), reference.threads()), (1, 1));
}

fn faulted_cfg() -> MeshConfig {
    MeshConfig {
        width: 6,
        height: 6,
        vcs: 2,
        injection_rate: 0.06,
        seed: 77,
        faults: Some(FaultPlan {
            seed: 11,
            link_faults: 2,
            router_faults: 1,
            transient_link_faults: 1,
            transient_duration: 150,
            start_cycle: 100,
            window: 400,
            ..FaultPlan::default()
        }),
        ..base_cfg()
    }
}

#[test]
fn faulted_run_conserves_flits_and_credits() {
    // Measuring from cycle 0, every injected flit is delivered,
    // in flight, or was reaped by a fault — exactly.
    let mut sim = Simulation::new(faulted_cfg());
    let stats = sim.run(0, 2500);
    assert!(stats.packets_delivered > 100);
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
    );
    sim.check_credit_conservation();
    assert!(stats.min_reachable_fraction < 1.0);
    assert!(stats.min_reachable_fraction > 0.0);
}

#[test]
fn transient_fault_heals_and_traffic_resumes() {
    // One transient link fault: the map goes back to pristine, so
    // post-heal routing is healthy XY routing again and traffic
    // keeps flowing to the end of the run.
    let mut sim = Simulation::new(MeshConfig {
        injection_rate: 0.05,
        faults: Some(FaultPlan {
            seed: 3,
            link_faults: 0,
            transient_link_faults: 1,
            transient_duration: 200,
            start_cycle: 100,
            window: 1,
            ..FaultPlan::default()
        }),
        ..base_cfg()
    });
    let stats = sim.run(0, 4000);
    assert!(stats.packets_delivered > 200);
    assert!(stats.packets_delivered_post_fault > 100);
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
    );
    sim.check_credit_conservation();
}

#[test]
fn dead_router_isolates_its_sources_and_sinks() {
    // A permanent router death: its source goes silent, packets
    // already bound for it are reaped, and later offers to it are
    // refused as unroutable.
    let mut sim = Simulation::new(MeshConfig {
        injection_rate: 0.08,
        faults: Some(FaultPlan {
            seed: 5,
            link_faults: 0,
            router_faults: 1,
            start_cycle: 300,
            window: 1,
            ..FaultPlan::default()
        }),
        ..base_cfg()
    });
    let stats = sim.run(0, 4000);
    assert!(stats.packets_unroutable > 0, "offers to the dead router");
    assert!(stats.packets_dropped_by_fault > 0, "in-flight victims");
    assert_eq!(
        sim.flits_injected_total(),
        stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total()
    );
    sim.check_credit_conservation();
}

#[test]
fn saturated_dateline_torus_with_dead_link_drains() {
    // The acceptance scenario: Tornado at saturation on a wrapped
    // 16×16 with 2 VCs loses one link mid-run and must keep
    // streaming packets around the detour without tripping the
    // watchdog.
    let mut sim = Simulation::new(MeshConfig {
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
            start_cycle: 500,
            window: 1,
            ..FaultPlan::default()
        }),
        ..base_cfg()
    });
    let stats = sim.run(0, 6000);
    assert!(
        stats.packets_delivered > 2_000,
        "faulted saturated torus must stream packets, got {}",
        stats.packets_delivered
    );
    assert!(stats.packets_delivered_post_fault > 1_000);
    sim.check_credit_conservation();
}

#[test]
fn watchdog_diagnostic_reports_the_fault_map() {
    // Satellite of the fault work: when the watchdog fires on a
    // faulted network, the diagnostic must carry the fault-map
    // summary so true deadlock and reap bugs are distinguishable
    // at a glance. vcs = 1 torus tornado wedges regardless of the
    // (mesh-side, healthy-by-then) fault plan.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Simulation::new(MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: 1,
            pattern: TrafficPattern::Tornado,
            injection_rate: 1.0,
            packet_len_flits: 8,
            source_queue_cap: 8,
            watchdog_cycles: 500,
            seed: 5,
            faults: Some(FaultPlan {
                seed: 21,
                link_faults: 1,
                start_cycle: 50,
                window: 1,
                ..FaultPlan::default()
            }),
            ..base_cfg()
        });
        sim.run(0, 50_000)
    }));
    let msg = *result
        .expect_err("saturated vcs=1 torus tornado must deadlock")
        .downcast::<String>()
        .expect("panic carries the diagnostic string");
    assert!(msg.contains("watchdog"), "{msg}");
    assert!(msg.contains("active fault map"), "{msg}");
    assert!(msg.contains("pairs reachable"), "{msg}");
    assert!(msg.contains("live route"), "{msg}");
}

/// The vcs = 1 saturated torus Tornado configuration every
/// watchdog test wedges on.
fn deadlocking_cfg() -> MeshConfig {
    MeshConfig {
        width: 8,
        height: 8,
        wrap: true,
        vcs: 1,
        pattern: TrafficPattern::Tornado,
        injection_rate: 1.0,
        packet_len_flits: 8,
        source_queue_cap: 8,
        watchdog_cycles: 500,
        seed: 5,
        ..base_cfg()
    }
}

#[test]
fn try_run_returns_deadlock_as_value() {
    // The supervised path: the same wedge that makes `run` panic
    // comes back from `try_run` as a typed abort carrying the
    // byte-identical diagnostic, and the simulation's state stays
    // consistent for post-mortem checks.
    let mut sim = Simulation::new(deadlocking_cfg());
    let abort = sim
        .try_run(0, 50_000)
        .expect_err("saturated vcs=1 torus tornado must deadlock");
    let SimAbort::Deadlock {
        cycle,
        buffered,
        ref diagnostic,
    } = abort
    else {
        panic!("expected a deadlock abort, got {abort:?}");
    };
    assert!(cycle >= 500, "fires only after the watchdog window");
    assert!(buffered > 0);
    assert!(diagnostic.contains("watchdog"), "{diagnostic}");
    assert!(diagnostic.contains("router"), "{diagnostic}");
    assert!(diagnostic.contains("vc"), "{diagnostic}");
    assert_eq!(abort.to_string(), *diagnostic, "Display is the diagnostic");
    sim.check_credit_conservation();

    // And the panicking path renders the exact same text.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Simulation::new(deadlocking_cfg()).run(0, 50_000)
    }));
    let msg = *panicked
        .expect_err("run() still panics")
        .downcast::<String>()
        .expect("panic carries the diagnostic string");
    assert_eq!(msg, *diagnostic, "run and try_run agree byte-for-byte");
}

#[test]
fn cycle_budget_aborts_identically_across_kernels() {
    for (kernel, shards) in [
        (SimKernel::Reference, 0),
        (SimKernel::Engine, 1),
        (SimKernel::Engine, 4),
    ] {
        let cfg = MeshConfig {
            kernel,
            shards,
            threads: 2,
            cycle_budget: 200,
            ..base_cfg()
        };
        let abort = Simulation::new(cfg)
            .try_run(100, 900)
            .expect_err("budget below warmup+measure must abort");
        assert_eq!(
            abort,
            SimAbort::CycleBudgetExceeded {
                budget: 200,
                requested: 1000
            },
            "kernel {kernel:?}"
        );
    }
}

#[test]
fn gating_rows_hold_the_measurement_window_only() {
    // Every FSM settle writes straight into the run's gating rows,
    // warmup included, so the boundary reset must clear what warmup
    // left there. A run whose window never opens reports all-zero
    // rows. A run resumed after an abort reports its own window only:
    // every measured cycle of every gated lane in exactly one bucket,
    // and the same rows whatever the kernel, tiling or settlement.
    let cfg = |kernel, shards, eager_settlement| MeshConfig {
        vcs: 2,
        injection_rate: 0.02,
        gating: Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(4),
            wake_latency: 2,
        }),
        kernel,
        shards,
        threads: 1,
        eager_settlement,
        cycle_budget: 500,
        ..base_cfg()
    };
    let lanes = 5 * 2;
    let mut resumed = Vec::new();
    for (kernel, shards, eager) in [
        (SimKernel::Reference, 0, false),
        (SimKernel::Engine, 1, false),
        (SimKernel::Engine, 4, false),
        (SimKernel::Engine, 1, true),
    ] {
        let mut sim = Simulation::new(cfg(kernel, shards, eager));
        let warm = sim.run(300, 0);
        assert!(warm.packets_injected == 0 && sim.flits_injected_total() > 0);
        assert!(
            warm.gating.iter().all(|g| *g == GatingCounters::default()),
            "{kernel:?}/{shards}/{eager}: a window that never opens reports zero rows"
        );
        sim.try_run(100, 900)
            .expect_err("budget below warmup+measure must abort");
        let s = sim.run(50, 400);
        for (r, g) in s.gating.iter().enumerate() {
            assert_eq!(
                g.cycles_busy + g.idle_cycles(),
                lanes * 400,
                "{kernel:?}/{shards}/{eager}: router {r} {g:?}"
            );
        }
        assert!(s.total_gating_counters().sleep_entries > 0);
        resumed.push(s.gating);
    }
    assert!(resumed.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn sufficient_cycle_budget_changes_nothing() {
    let baseline = Simulation::new(base_cfg()).run(100, 900);
    let budgeted = Simulation::new(MeshConfig {
        cycle_budget: 1000,
        ..base_cfg()
    })
    .try_run(100, 900)
    .expect("budget == warmup+measure completes");
    assert_eq!(baseline, budgeted, "an adequate budget is invisible");
}

#[test]
fn engine_leaps_and_stays_identical_across_runs() {
    // Two back-to-back runs at a rate low enough that most cycles
    // are dead: the engine must (a) actually leap, at one shard and
    // at four, (b) match the reference bit for bit in BOTH windows
    // — the second run only agrees if the first left every RNG
    // frontier, ON/OFF state and sequence counter exactly where the
    // per-cycle scan would have.
    let low = |kernel, shards| MeshConfig {
        injection_rate: 0.004,
        gating: Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(4),
            wake_latency: 1,
        }),
        kernel,
        shards,
        threads: 2,
        ..base_cfg()
    };
    let mut reference = Simulation::new(low(SimKernel::Reference, 0));
    let mut serial = Simulation::new(low(SimKernel::Engine, 1));
    let mut tiled = Simulation::new(low(SimKernel::Engine, 4));
    for window in 0..2 {
        let r = reference.run(50, 2000);
        assert_eq!(r, serial.run(50, 2000), "window {window} diverged");
        assert_eq!(r, tiled.run(50, 2000), "tiled window {window} diverged");
    }
    assert_eq!(
        reference.flits_injected_total(),
        serial.flits_injected_total()
    );
    assert_eq!(reference.cycles_leapt_total(), 0);
    for engine in [&serial, &tiled] {
        assert!(
            engine.cycles_leapt_total() > 1000,
            "a 0.4% load must leave most of {} cycles leapable, leapt {}",
            2 * 2050,
            engine.cycles_leapt_total()
        );
        assert!(engine.events_processed_total() > 0);
    }
    // The leap decision is global, so geometry cannot change it.
    assert_eq!(serial.cycles_leapt_total(), tiled.cycles_leapt_total());
    assert_eq!(serial.leaps_total(), tiled.leaps_total());
}

#[test]
fn lane_watermarks_span_more_than_u32_cycles() {
    // Lane watermarks keep only the low 32 bits of their cycle. A
    // near-dead mesh leaps across 1.2·10¹⁰ cycles, so routers retire
    // with lanes left behind and are touched again (or closed out)
    // more than 2³² cycles later: every lane-cycle must still be billed exactly
    // once, and the eager-settlement engine — a different settle
    // schedule — must agree bit for bit.
    let measure = 12_000_000_000u64;
    let cfg = |eager_settlement| MeshConfig {
        injection_rate: 1e-10,
        vcs: 2,
        gating: Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(3),
            wake_latency: 2,
        }),
        eager_settlement,
        ..base_cfg()
    };
    let lazy = Simulation::new(cfg(false)).run(1000, measure);
    let eager = Simulation::new(cfg(true)).run(1000, measure);
    assert_eq!(lazy, eager);
    assert!(lazy.packets_delivered > 4, "{}", lazy.packets_delivered);
    for (g, a) in lazy.gating.iter().zip(&lazy.router_activity) {
        assert_eq!(a.cycles, measure);
        let billed = g.cycles_busy + g.cycles_idle_awake + g.cycles_asleep + g.cycles_waking;
        assert_eq!(billed, 5 * 2 * measure, "{g:?}");
    }
}

#[test]
fn deferred_close_out_materializes_only_lanes_that_differ() {
    // A sparse run touches some routers after the boundary and
    // leaves the rest as debtors. A touched router's lanes that
    // idled through the whole window stay on the shared default,
    // as the debtors' do, so every materialized lane holds content
    // the default does not — and the record still equals the eager
    // close-out's, which materializes every lane it closes.
    let (warmup, measure) = (300, 6_000);
    for shards in [1, 2] {
        let cfg = |eager_settlement| MeshConfig {
            width: 16,
            height: 16,
            injection_rate: 1e-4,
            pattern: TrafficPattern::NearestNeighbor,
            vcs: 2,
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(4),
                wake_latency: 2,
            }),
            kernel: SimKernel::Engine,
            shards,
            threads: 1,
            eager_settlement,
            ..base_cfg()
        };
        let lazy = Simulation::new(cfg(false)).run(warmup, measure);
        let eager = Simulation::new(cfg(true)).run(warmup, measure);
        assert!(lazy.packets_delivered > 0, "traffic must flow");
        assert_eq!(lazy, eager, "{shards} tile(s)");
        let bank = &lazy.idle_histograms;
        let mut default = IdleHistogram::new(NetworkStats::DEFAULT_IDLE_BINS);
        default.record_open(measure);
        let lanes = |r: usize| (0..bank.lanes()).map(move |l| (r, l));
        let differ = (0..bank.routers())
            .flat_map(lanes)
            .filter(|&(r, l)| bank.lane(r, l) != &default)
            .count();
        assert_eq!(bank.materialized_lanes(), differ, "{shards} tile(s)");
        assert!(
            (0..bank.routers()).any(|r| {
                let private = lanes(r).filter(|&(r, l)| bank.is_materialized(r, l));
                (1..bank.lanes()).contains(&private.count())
            }),
            "some touched router keeps lanes on the default"
        );
    }
}

#[test]
fn leap_waits_for_flits_staged_in_mailboxes() {
    // A single-flit packet crossing a tile boundary leaves both
    // tiles' buffers empty for one exchange: the sender already
    // subtracted it, the receiver has not yet added it. Only the
    // staged count in each shard's published report stops a leap
    // over that live flit. At this rate nearly every packet that
    // crosses the two-band boundary does so in an otherwise
    // quiescent network.
    let cfg = MeshConfig {
        injection_rate: 0.002,
        pattern: TrafficPattern::UniformRandom,
        packet_len_flits: 1,
        seed: 3,
        ..base_cfg()
    };
    let reference = Simulation::new(MeshConfig {
        kernel: SimKernel::Reference,
        ..cfg.clone()
    })
    .run(0, 20_000);
    assert!(reference.packets_delivered > 20, "traffic must flow");
    for threads in [1, 2] {
        let mut tiled = Simulation::new(MeshConfig {
            shards: 2,
            threads,
            ..cfg.clone()
        });
        assert_eq!(
            reference,
            tiled.run(0, 20_000),
            "a leap skipped a flit in a mailbox ({threads} threads)"
        );
        assert!(tiled.leaps_total() > 20, "the run must leap");
    }
}

/// Routers of tile `s` that buffer at least one flit.
fn buffering(sim: &Simulation, s: usize) -> usize {
    sim.tiles[s]
        .lanes
        .chunks(5 * sim.cfg.vcs)
        .filter(|block| total_occupancy(block) > 0)
        .count()
}

/// Routers of tile `s` that hold a source queue.
fn queueing(sim: &Simulation, s: usize) -> usize {
    sim.tiles[s]
        .source_queue
        .iter()
        .filter(|&&q| q != NO_QUEUE)
        .count()
}

/// Queues one packet at `src` for `dst` before the next run, with
/// the bookkeeping of an accepted injection offer.
fn script_packet(sim: &mut Simulation, src: usize, dst: usize) {
    let tile = &mut sim.tiles[sim.tile_map.shard_of(src)];
    let l = src - tile.base;
    let id = packet_id(src, tile.next_seq[l]);
    tile.next_seq[l] += 1;
    tile.queues.push_back(
        &mut tile.source_queue[l],
        SourcePacket {
            packet_id: id,
            dst: dst as u32,
            injected_at: sim.cycle,
            sent: 0,
            vc: sim.mesh.injection_vc(id, sim.cfg.vcs),
        },
    );
    let len = sim.cfg.packet_len_flits as u64;
    tile.flits_injected += len;
    tile.queued_flits += len;
    tile.active.insert(l);
}

#[test]
fn ring_blocks_follow_the_routers_buffering_at_once() {
    // Nothing offered, nothing buffered: no block is ever taken.
    let mut idle = Simulation::new(MeshConfig {
        injection_rate: 0.0,
        ..base_cfg()
    });
    idle.run(100, 1_000);
    assert_eq!(idle.tiles[0].rings.high_water(), 0);

    // Packets queued before the first cycle all drain into their
    // local buffers on it, and nothing is offered after. So within
    // any later cycle the count of routers buffering only falls
    // (steps) and then only rises (transfers), and the most at once
    // is the larger of the source count and every cycle's final
    // count.
    let mut sim = Simulation::new(MeshConfig {
        width: 6,
        height: 6,
        vcs: 2,
        injection_rate: 0.0,
        shards: 1,
        ..base_cfg()
    });
    let sources = [(0, 35), (5, 30), (12, 17), (20, 2), (33, 8), (14, 15)];
    for (src, dst) in sources {
        script_packet(&mut sim, src, dst);
    }
    let mut peak = sources.len();
    let mut cycles = 0;
    while sim.in_flight_flits() > 0 {
        sim.run(0, 1);
        let now = buffering(&sim, 0);
        assert_eq!(sim.tiles[0].rings.in_use(), now, "cycle {cycles}");
        peak = peak.max(now);
        cycles += 1;
        assert!(cycles < 200, "scripted packets must drain");
    }
    assert!(peak > sources.len(), "worms must span several routers");
    assert_eq!(sim.tiles[0].rings.high_water(), peak);
    assert_eq!(sim.tiles[0].rings.in_use(), 0);

    // Loaded and tiled: every tile holds exactly one block per
    // router buffering, at every cycle's end.
    let mut tiled = Simulation::new(MeshConfig {
        width: 8,
        height: 8,
        vcs: 2,
        injection_rate: 0.2,
        shards: 2,
        threads: 2,
        ..base_cfg()
    });
    for cycle in 0..300 {
        tiled.run(0, 1);
        for s in 0..2 {
            let rings = &tiled.tiles[s].rings;
            assert_eq!(rings.in_use(), buffering(&tiled, s), "cycle {cycle}");
            assert!(rings.high_water() <= tiled.tiles[s].len);
        }
    }
}

#[test]
fn fault_purge_returns_the_ring_blocks_it_empties() {
    // One packet heads for router 5, which dies at cycle 4 while the
    // worm is spread along the way: the purge drops every flit, and
    // no router it empties still holds a block when the cycle ends
    // (the router-level test checks the purge's own return).
    let mut sim = Simulation::new(MeshConfig {
        width: 6,
        height: 6,
        injection_rate: 0.0,
        shards: 1,
        faults: Some(FaultPlan {
            link_faults: 0,
            events: vec![crate::FaultEvent {
                at: 4,
                kind: crate::FaultKind::RouterDown { router: 5 },
            }],
            ..FaultPlan::default()
        }),
        ..base_cfg()
    });
    script_packet(&mut sim, 0, 5);
    sim.run(0, 3);
    assert!(buffering(&sim, 0) > 1, "the worm spans several routers");
    assert_eq!(sim.tiles[0].rings.in_use(), buffering(&sim, 0));
    sim.run(0, 1);
    assert_eq!(sim.flits_dropped_by_fault_total(), 4);
    assert_eq!(sim.in_flight_flits(), 0);
    assert_eq!(sim.tiles[0].rings.in_use(), 0);
}

#[test]
fn source_queues_follow_the_routers_queueing_at_once() {
    // Nothing offered: no queue is ever taken.
    let mut idle = Simulation::new(MeshConfig {
        injection_rate: 0.0,
        ..base_cfg()
    });
    idle.run(100, 1_000);
    assert_eq!(idle.tiles[0].queues.high_water(), 0);

    // Nothing is offered after the scripted packets, so the count
    // of routers holding a queue only falls within a round. Two
    // packets per source keep queues alive for several cycles
    // (the second waits for the first's flits to leave the local
    // buffer). The second round takes back the first round's
    // returned queues before making new ones: the high-water mark
    // is the most sources queueing at once, not the total.
    let mut sim = Simulation::new(MeshConfig {
        width: 6,
        height: 6,
        injection_rate: 0.0,
        buffer_depth: 2,
        shards: 1,
        ..base_cfg()
    });
    let rounds: [&[(usize, usize)]; 2] = [
        &[(0, 35), (5, 30), (12, 17)],
        &[(20, 2), (33, 8), (14, 15), (7, 28), (1, 6)],
    ];
    let mut peak = 0;
    for sources in rounds {
        for &(src, dst) in sources {
            script_packet(&mut sim, src, dst);
            script_packet(&mut sim, src, dst);
        }
        peak = peak.max(sources.len());
        assert_eq!(sim.tiles[0].queues.in_use(), sources.len());
        let mut cycles = 0;
        while sim.in_flight_flits() > 0 {
            sim.run(0, 1);
            assert_eq!(
                sim.tiles[0].queues.in_use(),
                queueing(&sim, 0),
                "cycle {cycles}"
            );
            cycles += 1;
            assert!(cycles < 200, "scripted packets must drain");
        }
        assert_eq!(sim.tiles[0].queues.in_use(), 0);
        assert_eq!(sim.tiles[0].queues.high_water(), peak);
    }

    // Loaded and tiled: every tile holds exactly one queue per
    // router with packets waiting, at every cycle's end.
    let mut tiled = Simulation::new(MeshConfig {
        width: 8,
        height: 8,
        vcs: 2,
        injection_rate: 0.3,
        shards: 2,
        threads: 2,
        ..base_cfg()
    });
    let mut seen = [0; 2];
    for cycle in 0..300 {
        tiled.run(0, 1);
        for (s, most) in seen.iter_mut().enumerate() {
            let queues = &tiled.tiles[s].queues;
            let now = queueing(&tiled, s);
            assert_eq!(queues.in_use(), now, "cycle {cycle}");
            *most = (*most).max(now);
            assert!(queues.high_water() >= *most);
            assert!(queues.high_water() <= tiled.tiles[s].len);
        }
    }
    assert!(seen.iter().all(|&s| s > 1), "the load must queue packets");
}

#[test]
fn fault_purge_returns_the_source_queues_it_empties() {
    // Router 5 dies at cycle 4. Sources 0 and 30 hold packets for
    // it — a partially sent front (two-flit buffers take a
    // four-flit packet over two cycles) and whole ones behind it —
    // and the purge discards them all, giving both queues back.
    // Source 35's packets, bound for router 0, survive.
    let mut sim = Simulation::new(MeshConfig {
        width: 6,
        height: 6,
        injection_rate: 0.0,
        buffer_depth: 2,
        shards: 1,
        faults: Some(FaultPlan {
            link_faults: 0,
            events: vec![crate::FaultEvent {
                at: 4,
                kind: crate::FaultKind::RouterDown { router: 5 },
            }],
            ..FaultPlan::default()
        }),
        ..base_cfg()
    });
    for _ in 0..3 {
        script_packet(&mut sim, 0, 5);
        script_packet(&mut sim, 30, 5);
        script_packet(&mut sim, 35, 0);
    }
    sim.run(0, 3);
    assert_eq!(queueing(&sim, 0), 3);
    assert_eq!(sim.tiles[0].queues.in_use(), 3);
    sim.run(0, 1);
    assert_eq!(sim.tiles[0].source_queue[0], NO_QUEUE);
    assert_eq!(sim.tiles[0].source_queue[30], NO_QUEUE);
    assert_ne!(sim.tiles[0].source_queue[35], NO_QUEUE);
    assert_eq!(sim.tiles[0].queues.in_use(), 1);
    assert!(sim.flits_dropped_by_fault_total() > 0);
    sim.check_flit_conservation();
}

#[test]
fn a_run_resumed_after_an_abort_measures_only_its_own_window() {
    // The budget stops the first run 90 cycles into its measurement
    // window. The window's record goes with the aborted run: the
    // resumed run's rows hold its own measured cycles and nothing of
    // its warmup, exactly as a fresh simulation's do.
    for (kernel, shards) in [
        (SimKernel::Reference, 1),
        (SimKernel::Engine, 1),
        (SimKernel::Engine, 2),
    ] {
        let mut sim = Simulation::new(MeshConfig {
            kernel,
            shards,
            threads: 1,
            cycle_budget: 100,
            ..base_cfg()
        });
        sim.try_run(10, 1_000)
            .expect_err("the budget stops the run inside its window");
        let stats = sim
            .try_run(50, 40)
            .expect("a run inside the budget completes");
        for (r, a) in stats.router_activity.iter().enumerate() {
            assert_eq!(a.cycles, 40, "{kernel:?}, {shards} tile(s), router {r}");
        }
    }
}

/// An 8×8 network in four tiles, stopped with traffic in flight.
fn four_tile_run() -> Simulation {
    let mut sim = Simulation::new(MeshConfig {
        width: 8,
        height: 8,
        injection_rate: 0.1,
        shards: 4,
        threads: 1,
        ..base_cfg()
    });
    sim.run(0, 200);
    assert!(sim.in_flight_flits() > 0, "the network must hold traffic");
    sim
}

#[test]
#[should_panic(expected = "credit conservation broken")]
fn credit_oracle_reads_the_last_tile() {
    let mut sim = four_tile_run();
    let last = sim.tiles.last_mut().expect("four tiles");
    let lane = last
        .credits
        .iter()
        .position(|&c| c > 0)
        .expect("a link lane");
    last.credits[lane] -= 1;
    sim.check_credit_conservation();
}

#[test]
#[should_panic(expected = "tile 3: incremental (queued, buffered) flit counters diverged")]
fn flit_oracle_reads_every_tile() {
    let mut sim = four_tile_run();
    sim.tiles[3].buffered_flits += 1;
    sim.check_flit_conservation();
}
