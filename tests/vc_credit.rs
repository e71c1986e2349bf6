//! Property tests for the VC/credit layer: credit conservation (the
//! credits an upstream output lane holds plus the flits buffered in the
//! downstream input VC always equal the per-VC depth) and
//! deadlock-freedom of dateline DOR on the torus under the
//! torus-stressing Tornado pattern at saturation.
//!
//! Conservation is asserted on **every cycle of every debug-build
//! simulation**: the engine re-checks the invariant at the end of
//! each single-worker cycle via a `debug_assert`, so the runs below verify it
//! continuously; the explicit `check_credit_conservation` calls pin it
//! at the observation points in release builds too.

use leakage_noc::netsim::{
    GatingPolicy, InjectionProcess, MeshConfig, SimKernel, Simulation, SleepConfig, TrafficPattern,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Credits held + flits buffered == depth per VC, across patterns,
    /// topologies, VC counts, depths and gating — checked every cycle
    /// in debug (the in-loop debug_assert) and at the mid-run and
    /// end-of-run observation points explicitly.
    #[test]
    fn credits_are_conserved_across_configs(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        rate in 0.01f64..0.25,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        vcs_sel in 0usize..3,
        depth in 1usize..5,
        len in 1usize..6,
        gated in 0u8..2,
    ) {
        let mut sim = Simulation::new(MeshConfig {
            pattern: TrafficPattern::ALL[pattern_idx],
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            vcs: [1, 2, 4][vcs_sel],
            buffer_depth: depth,
            packet_len_flits: len,
            gating: (gated == 1).then_some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 1,
            }),
            kernel: SimKernel::Engine,
            ..MeshConfig::default()
        });
        // Two windows: the invariant must hold mid-stream (with worms
        // straddling links) and after drain time alike.
        sim.run(0, 400);
        sim.check_credit_conservation();
        sim.run(0, 400);
        sim.check_credit_conservation();
    }

    /// Deadlock freedom: Tornado at saturation on a wrapped mesh with
    /// 2 VCs (dateline switching) keeps streaming packets — the
    /// watchdog would abort the run if the rings ever wedged.
    #[test]
    fn torus_tornado_saturation_is_deadlock_free_with_2_vcs(
        seed in 0u64..10_000,
        rate in 0.5f64..1.0,
        len in 2usize..7,
        bursty_sel in 0u8..2,
    ) {
        let mut sim = Simulation::new(MeshConfig {
            width: 8,
            height: 8,
            wrap: true,
            vcs: 2,
            pattern: TrafficPattern::Tornado,
            injection_rate: if bursty_sel == 1 { rate.min(0.25) } else { rate },
            packet_len_flits: len,
            injection: if bursty_sel == 1 {
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 }
            } else {
                InjectionProcess::Bernoulli
            },
            source_queue_cap: 4,
            watchdog_cycles: 1_000,
            seed,
            ..MeshConfig::default()
        });
        let stats = sim.run(0, 3_000);
        // Saturated rings must actually stream, not just avoid the
        // watchdog by trickling.
        prop_assert!(
            stats.packets_delivered > 200,
            "only {} packets delivered at rate {rate}",
            stats.packets_delivered
        );
        prop_assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
        sim.check_credit_conservation();
    }
}

#[test]
fn torus_tornado_saturation_16x16_acceptance() {
    // The acceptance-criterion scenario at full size, both kernels:
    // 16×16 wrapped, Tornado, saturating injection, vcs = 2, watchdog
    // armed tight. Must drain without tripping and agree across
    // kernels.
    let cfg = MeshConfig {
        width: 16,
        height: 16,
        wrap: true,
        vcs: 2,
        pattern: TrafficPattern::Tornado,
        injection_rate: 1.0,
        source_queue_cap: 4,
        watchdog_cycles: 2_000,
        seed: 2005,
        ..MeshConfig::default()
    };
    let mut engine = Simulation::new(MeshConfig {
        kernel: SimKernel::Engine,
        ..cfg.clone()
    });
    let mut reference = Simulation::new(MeshConfig {
        kernel: SimKernel::Reference,
        ..cfg
    });
    let sa = engine.run(200, 4_000);
    let sr = reference.run(200, 4_000);
    assert_eq!(sa, sr, "kernels diverged on the saturated dateline torus");
    assert!(
        sa.packets_delivered > 1_000,
        "saturated 16×16 torus must stream packets, got {}",
        sa.packets_delivered
    );
    engine.check_credit_conservation();
}
