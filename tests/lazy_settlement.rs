//! Deferred (lazy) per-router leap settlement vs the eager oracle.
//!
//! The lazy path never settles a quiescent router at the measurement
//! boundary; it records a watermark and pays each router's *settlement
//! debt* on first touch — or at close-out, or when a deadline abort
//! freezes the run mid-window. [`MeshConfig::eager_settlement`] keeps
//! the original settle-everything-at-the-boundary path alive as a
//! test-only oracle; these properties pin that the two are
//! **bit-identical** in every observable way:
//!
//! * final [`NetworkStats`] (counters, gating, every histogram bin),
//!   across gating policies, traffic patterns, VC counts, fault plans
//!   and shard × thread geometries (one tile, and 2–8 tiles at one or
//!   two threads) — wakes and fault reaps interleave with leaps freely;
//! * typed [`SimAbort`] values when a cycle budget cuts the run short
//!   mid-measurement, **and** the post-abort engine state: a second
//!   run from the aborted state must also produce identical stats,
//!   which a debtor router can only satisfy by settling a *partial*
//!   span at the abort boundary.

use leakage_noc::netsim::{
    FaultPlan, GatingPolicy, InjectionProcess, MeshConfig, Simulation, SleepConfig, TrafficPattern,
};
use proptest::prelude::*;

mod common;
use common::assert_lane_cycles_conserved;

/// Runs `cfg` on the engine with deferred settlement and with the
/// eager oracle, asserting identical outcomes — including, on a
/// deadline abort, a follow-up run that observes the post-abort slabs.
fn assert_lazy_matches_eager(cfg: &MeshConfig, warmup: u64, measure: u64) {
    let geometry = (cfg.shards, cfg.threads);
    let mut lazy = Simulation::new(MeshConfig {
        eager_settlement: false,
        ..cfg.clone()
    });
    let mut eager = Simulation::new(MeshConfig {
        eager_settlement: true,
        ..cfg.clone()
    });
    let rl = lazy.try_run(warmup, measure);
    let re = eager.try_run(warmup, measure);
    match (rl, re) {
        (Ok(sl), Ok(se)) => {
            assert_lane_cycles_conserved(cfg, &sl);
            assert_lane_cycles_conserved(cfg, &se);
            assert_eq!(sl, se, "stats diverged from the eager oracle {geometry:?}");
        }
        (Err(al), Err(ae)) => {
            assert_eq!(al, ae, "aborts diverged from the eager oracle {geometry:?}");
            // The abort froze the run with debts outstanding; the only
            // way a later run agrees is if the lazy engine settled
            // every debtor's *partial* span (boundary → abort cycle)
            // exactly as the eager path's boundary reset did.
            let follow = cfg.cycle_budget.min(60);
            let sl = lazy
                .try_run(0, follow)
                .expect("follow-up within budget must complete");
            let se = eager
                .try_run(0, follow)
                .expect("follow-up within budget must complete");
            assert_lane_cycles_conserved(cfg, &sl);
            assert_lane_cycles_conserved(cfg, &se);
            assert_eq!(
                sl, se,
                "post-abort stats diverged from the eager oracle {geometry:?}"
            );
        }
        (rl, re) => panic!("outcome diverged {geometry:?}: lazy {rl:?} vs eager {re:?}"),
    }
}

/// Lazy vs eager on one tile and at a seed-derived shard × thread
/// geometry.
fn all_geometries_lazy_match_eager(cfg: MeshConfig, warmup: u64, measure: u64) {
    assert_lazy_matches_eager(&cfg, warmup, measure);
    let tiled = MeshConfig {
        shards: [2, 4, 8][(cfg.seed % 3) as usize],
        threads: 1 + (cfg.seed / 3 % 2) as usize,
        ..cfg
    };
    assert_lazy_matches_eager(&tiled, warmup, measure);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Leaps, wakes and close-out interleaved at random: rates span
    /// the leap-heavy regime through busy meshes, across gating
    /// policies (threshold boundaries inside and outside typical idle
    /// spans), VC counts, torus wrap and bursty injection.
    #[test]
    fn deferred_settlement_is_bit_identical(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        rate_sel in 0u8..3,
        rate in 0.0005f64..0.10,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        bursty_sel in 0u8..2,
        vcs_sel in 0usize..3,
        gating_sel in 0u8..5,
        wake in 0u32..3,
        warmup in 0u64..150,
        measure in 100u64..500,
    ) {
        let gating = match gating_sel {
            0 => None,
            1 => Some(GatingPolicy::Never),
            2 => Some(GatingPolicy::Immediate),
            3 => Some(GatingPolicy::IdleThreshold(2)),
            _ => Some(GatingPolicy::IdleThreshold(9)),
        }
        .map(|policy| SleepConfig { policy, wake_latency: wake });
        let cfg = MeshConfig {
            pattern: TrafficPattern::ALL[pattern_idx],
            // Skew toward near-dead meshes: that is where debts span
            // the whole window and the close-out walk does the work.
            injection_rate: match rate_sel { 0 => rate * 0.01, 1 => rate * 0.1, _ => rate },
            seed,
            wrap: wrap_sel == 1,
            vcs: [1, 2, 4][vcs_sel].max(if wrap_sel == 1 { 2 } else { 1 }),
            injection: if bursty_sel == 1 {
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 }
            } else {
                InjectionProcess::Bernoulli
            },
            gating,
            ..MeshConfig::default()
        };
        all_geometries_lazy_match_eager(cfg, warmup, measure);
    }

    /// Fault reaps interleave with outstanding debt: epochs land
    /// mid-window (often mid-leap), reaping worms
    /// and rerouting — none of which may disturb deferred gating state.
    #[test]
    fn deferred_settlement_survives_fault_reaps(
        rate in 0.002f64..0.08,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        wrap_sel in 0u8..2,
        link_faults in 0usize..3,
        router_faults in 0usize..2,
        transients in 0usize..2,
        start in 50u64..300,
        window in 1u64..300,
        warmup in 0u64..120,
    ) {
        prop_assume!(link_faults + router_faults + transients > 0);
        let cfg = MeshConfig {
            width: 6,
            height: 6,
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            vcs: if wrap_sel == 1 { 2 } else { 1 },
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 1,
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
        all_geometries_lazy_match_eager(cfg, warmup, 400);
    }

    /// Deadline aborts cut debtors mid-span: budgets land before,
    /// on and after the measurement boundary; abort values and
    /// post-abort state must match the oracle exactly.
    #[test]
    fn deferred_settlement_survives_budget_aborts(
        rate_sel in 0u8..2,
        rate in 0.001f64..0.08,
        seed in 0u64..10_000,
        gating_sel in 0u8..3,
        warmup in 20u64..120,
        measure in 100u64..400,
        budget_frac in 0.1f64..1.5,
    ) {
        let total = warmup + measure;
        // Spread the deadline across the whole run, biased inside the
        // measurement window (mid-window partial-span settlement).
        let budget = ((total as f64 * budget_frac) as u64).max(1);
        let gating = match gating_sel {
            0 => None,
            1 => Some(GatingPolicy::Immediate),
            _ => Some(GatingPolicy::IdleThreshold(4)),
        }
        .map(|policy| SleepConfig { policy, wake_latency: 1 });
        let cfg = MeshConfig {
            injection_rate: if rate_sel == 0 { rate * 0.05 } else { rate },
            seed,
            gating,
            cycle_budget: budget,
            ..MeshConfig::default()
        };
        all_geometries_lazy_match_eager(cfg, warmup, measure);
    }
}
