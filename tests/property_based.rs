//! Property-based tests on the cross-crate invariants.

use leakage_noc::circuit::dc;
use leakage_noc::circuit::linear::Matrix;
use leakage_noc::circuit::netlist::Netlist;
use leakage_noc::circuit::stimulus::Stimulus;
use leakage_noc::circuit::waveform::{Edge, Waveform};
use leakage_noc::netsim::{
    GapSampler, InjectionProcess, MeshConfig, NetworkStats, Simulation, SleepConfig, TrafficPattern,
};
use leakage_noc::power::breakeven::{min_idle_cycles, net_saving};
use leakage_noc::power::gating::{
    energy_from_counters, evaluate_policy, GatingParams, GatingPolicy, IdleHistogram,
};
use leakage_noc::tech::device::{Polarity, VtClass};
use leakage_noc::tech::node45::Node45;
use leakage_noc::tech::units::{Hertz, Joules, Watts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cycle of injection-source state advancement, written
/// independently of `InjectionProcess::next_arrival`: a bursty source
/// makes its per-cycle flip and offer draws, a Bernoulli source
/// compares the cycle against its renewal slot (catching up offers
/// missed while unscanned). Returns whether the source offers; the
/// caller re-arms after a hit via `rearm_after_offer`.
#[allow(clippy::too_many_arguments)]
fn oracle_tick(
    process: InjectionProcess,
    rate: f64,
    on: &mut bool,
    next_offer: &mut u64,
    gap: &GapSampler,
    rng: &mut StdRng,
    cycle: u64,
) -> bool {
    match process {
        InjectionProcess::Bernoulli => {
            if !*on || rate <= 0.0 {
                return false;
            }
            while *next_offer < cycle {
                *next_offer = next_offer.saturating_add(gap.sample(rng));
            }
            *next_offer == cycle
        }
        InjectionProcess::BurstyOnOff {
            mean_burst,
            mean_idle,
        } => {
            let flip = if *on {
                rng.gen_bool(1.0 / mean_burst as f64)
            } else {
                rng.gen_bool(1.0 / mean_idle as f64)
            };
            if flip {
                *on = !*on;
            }
            let r = if *on { rate } else { 0.0 };
            r > 0.0 && rng.gen_bool(r)
        }
    }
}

/// Initial renewal-slot arming, mirroring `Simulation::new`.
fn oracle_arm(process: InjectionProcess, rate: f64, gap: &GapSampler, rng: &mut StdRng) -> u64 {
    match process {
        InjectionProcess::Bernoulli if rate > 0.0 => gap.sample(rng),
        _ => u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MOSFET channel current is monotone in Vgs at any bias point.
    #[test]
    fn mosfet_monotone_in_vgs(
        vg1 in 0.0f64..1.0,
        vg2 in 0.0f64..1.0,
        vd in 0.0f64..1.0,
    ) {
        let m = Node45::tt().mos(Polarity::Nmos, VtClass::Nominal);
        let (lo, hi) = if vg1 <= vg2 { (vg1, vg2) } else { (vg2, vg1) };
        let i_lo = m.ids_terminals(1.0e-6, lo, vd, 0.0, 0.0);
        let i_hi = m.ids_terminals(1.0e-6, hi, vd, 0.0, 0.0);
        prop_assert!(i_hi >= i_lo - 1e-18, "Ids({hi}) = {i_hi} < Ids({lo}) = {i_lo}");
    }

    /// High-Vt devices never leak more than nominal at identical bias.
    #[test]
    fn high_vt_never_leaks_more(vd in 0.05f64..1.0, w_um in 0.1f64..10.0) {
        let tech = Node45::tt();
        let w = w_um * 1.0e-6;
        let lo = tech.mos(Polarity::Nmos, VtClass::Nominal).leakage(w, 0.0, vd, 0.0, 0.0);
        let hi = tech.mos(Polarity::Nmos, VtClass::High).leakage(w, 0.0, vd, 0.0, 0.0);
        prop_assert!(hi.channel.0 <= lo.channel.0 * 1.0001);
        prop_assert!(hi.gate.0 <= lo.gate.0 * 1.0001);
    }

    /// LU solves random diagonally dominant systems to high accuracy.
    #[test]
    fn lu_solves_diagonally_dominant(
        seed_vals in proptest::collection::vec(-1.0f64..1.0, 25),
        rhs in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let n = 5;
        let mut a = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let v = seed_vals[i * n + j];
                a.set(i, j, if i == j { 10.0 + v.abs() } else { v });
            }
        }
        let b = a.mul_vec(&rhs);
        let mut x = b.clone();
        a.clone().solve_in_place(&mut x).expect("dominant matrices are regular");
        for (xi, ri) in x.iter().zip(&rhs) {
            prop_assert!((xi - ri).abs() < 1e-9, "{xi} vs {ri}");
        }
    }

    /// A resistor divider solved by the DC engine matches algebra.
    #[test]
    fn dc_divider_matches_algebra(r1 in 10.0f64..1.0e6, r2 in 10.0f64..1.0e6, v in 0.1f64..5.0) {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let mid = nl.node("mid");
        nl.vsource("V", top, Netlist::GROUND, Stimulus::dc(v));
        nl.resistor("R1", top, mid, r1).unwrap();
        nl.resistor("R2", mid, Netlist::GROUND, r2).unwrap();
        let sol = dc::solve(&nl).expect("linear network");
        let expect = v * r2 / (r1 + r2);
        prop_assert!((sol.voltage(mid) - expect).abs() < 1e-6 * v.max(1.0));
    }

    /// Waveform crossing finds the analytic crossing of a linear ramp.
    #[test]
    fn crossing_of_linear_ramp(thr in 0.05f64..0.95) {
        let w = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]);
        let t = w.crossing(thr, Edge::Rising, -1.0).expect("must cross");
        prop_assert!((t - thr).abs() < 1e-12);
    }

    /// Histogram totals equal the sum of recorded lengths.
    #[test]
    fn histogram_conserves_cycles(lens in proptest::collection::vec(1u64..5000, 0..100)) {
        let mut h = IdleHistogram::new(256);
        let mut total = 0;
        for &l in &lens {
            h.record(l);
            total += l;
        }
        prop_assert_eq!(h.total_idle_cycles(), total);
        prop_assert_eq!(h.interval_count(), lens.len() as u64);
    }

    /// Flit conservation under every traffic pattern, injection
    /// process, packet length and topology: everything injected is
    /// either delivered or still in flight. In-order, contiguous,
    /// complete per-packet delivery is asserted inside the simulator's
    /// ejection path on every delivered flit.
    #[test]
    fn flits_conserved_under_all_traffic(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        rate in 0.01f64..0.12,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        bursty_sel in 0u8..2,
        len in 1usize..6,
    ) {
        let mut sim = Simulation::new(MeshConfig {
            pattern: TrafficPattern::ALL[pattern_idx],
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            packet_len_flits: len,
            injection: if bursty_sel == 1 {
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 }
            } else {
                InjectionProcess::Bernoulli
            },
            ..MeshConfig::default()
        });
        let stats = sim.run(0, 1200);
        prop_assert_eq!(
            sim.flits_injected_total(),
            stats.flits_delivered + sim.in_flight_flits()
        );
        prop_assert_eq!(stats.packets_injected * len as u64, sim.flits_injected_total());
    }

    /// The Oracle policy upper-bounds Never, Immediate and every
    /// IdleThreshold on any histogram (it takes the per-interval
    /// optimum among their choices).
    #[test]
    fn oracle_dominates_all_policies(
        lens in proptest::collection::vec(1u64..400, 1..120),
        th in 0u32..64,
        p_idle_uw in 1.0f64..50.0,
        p_stby_frac in 0.0f64..0.9,
        e_fj in 1.0f64..200.0,
    ) {
        let mut h = IdleHistogram::new(256);
        for &l in &lens {
            h.record(l);
        }
        let params = GatingParams {
            p_idle_awake: Watts(p_idle_uw * 1e-6),
            p_standby: Watts(p_idle_uw * p_stby_frac * 1e-6),
            e_transition: Joules(e_fj * 1e-15),
            wake_latency_cycles: 1,
        };
        let clock = Hertz(3.0e9);
        let oracle = evaluate_policy(&h, &params, GatingPolicy::Oracle, clock);
        for policy in [
            GatingPolicy::Never,
            GatingPolicy::Immediate,
            GatingPolicy::IdleThreshold(th),
        ] {
            let other = evaluate_policy(&h, &params, policy, clock);
            prop_assert!(
                oracle.energy_policy.0 <= other.energy_policy.0 * (1.0 + 1e-9) + 1e-24,
                "oracle {} must not exceed {policy} {}",
                oracle.energy_policy.0,
                other.energy_policy.0
            );
        }
        prop_assert!(oracle.savings_fraction() >= -1e-12);
    }

    /// The in-loop sleep FSM and the offline policy model agree on
    /// energy when evaluated over the same run — across seeds, loads,
    /// thresholds and wake latencies.
    #[test]
    fn in_loop_gating_matches_offline_model(
        seed in 0u64..10_000,
        rate in 0.01f64..0.07,
        th in 0u32..12,
        wake in 0u32..3,
    ) {
        let params = GatingParams {
            p_idle_awake: Watts(10.0e-6),
            p_standby: Watts(1.0e-6),
            e_transition: Joules(9.0e-15),
            wake_latency_cycles: wake,
        };
        let clock = Hertz(3.0e9);
        let policy = if th == 0 {
            GatingPolicy::Immediate
        } else {
            GatingPolicy::IdleThreshold(th)
        };
        let mut sim = Simulation::new(MeshConfig {
            injection_rate: rate,
            seed,
            gating: Some(SleepConfig { policy, wake_latency: wake }),
            ..MeshConfig::default()
        });
        let stats = sim.run(100, 1500);
        let in_loop = energy_from_counters(&stats.total_gating_counters(), &params, clock);
        let offline =
            evaluate_policy(&stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS), &params, policy, clock);
        // Identical idle-cycle totals by construction…
        let rel_never = (in_loop.energy_never.0 - offline.energy_never.0).abs()
            / offline.energy_never.0.max(1e-30);
        prop_assert!(rel_never < 1e-9, "idle totals diverge: {rel_never}");
        // …and policy energy within the cross-validation tolerance.
        let rel = (in_loop.energy_policy.0 - offline.energy_policy.0).abs()
            / offline.energy_policy.0.max(1e-30);
        prop_assert!(
            rel < 0.05,
            "in-loop vs offline: {rel:.5} (seed {seed} rate {rate:.4} th {th} wake {wake})"
        );
    }

    /// Breakeven consistency: sleeping exactly `min_idle_cycles` never
    /// loses energy; one cycle fewer never wins.
    #[test]
    fn breakeven_is_consistent(
        e_fj in 0.1f64..1000.0,
        p_uw in 0.1f64..1000.0,
        f_ghz in 0.5f64..5.0,
    ) {
        let e = Joules(e_fj * 1e-15);
        let p = Watts(p_uw * 1e-6);
        let f = Hertz(f_ghz * 1e9);
        let m = min_idle_cycles(e, p, f);
        prop_assume!(m < 1_000_000);
        prop_assert!(net_saving(e, p, m as u64, f).0 >= -1e-21);
        if m > 0 {
            prop_assert!(net_saving(e, p, (m - 1) as u64, f).0 <= 1e-21);
        }
    }

    /// The engine's arrival prediction is draw-for-draw identical to
    /// the reference's per-cycle scan — the invariant that makes the
    /// engine's time wheel bit-exact. Predicts over a random prefix of
    /// the run, then hands the stream back to tick-by-tick stepping for
    /// the remainder (a prediction window that ends at a fault-epoch
    /// boundary or at the end of a run, with the stream resumed from
    /// wherever the window left it), and requires the same arrivals,
    /// source state and RNG position throughout.
    #[test]
    fn next_arrival_matches_per_cycle_oracle(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.6,
        bursty_sel in 0u8..3,
        mean_burst in 1u32..16,
        mean_idle in 1u32..48,
        horizon in 1u64..2_500,
        split_frac in 0.0f64..1.0,
    ) {
        let process = match bursty_sel {
            0 => InjectionProcess::Bernoulli,
            1 => InjectionProcess::BurstyOnOff { mean_burst, mean_idle },
            // Degenerate dwell times flip every cycle — the adversarial
            // corner for flip/offer draw ordering.
            _ => InjectionProcess::BurstyOnOff { mean_burst: 1, mean_idle: 1 },
        };
        let gap = GapSampler::new(rate);
        let split = (horizon as f64 * split_frac) as u64;

        // Oracle: scan every cycle of 1..=horizon.
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut on_a = true;
        let mut slot_a = oracle_arm(process, rate, &gap, &mut rng_a);
        let mut scanned = Vec::new();
        for c in 1..=horizon {
            if oracle_tick(process, rate, &mut on_a, &mut slot_a, &gap, &mut rng_a, c) {
                scanned.push(c);
                process.rearm_after_offer(&mut slot_a, &gap, &mut rng_a, c);
            }
        }

        // Prediction: leap through 1..=split, then tick out the rest.
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut on_b = true;
        let mut slot_b = oracle_arm(process, rate, &gap, &mut rng_b);
        let mut predicted = Vec::new();
        let mut from = 0u64;
        while let Some(c) =
            process.next_arrival(rate, &mut on_b, &mut slot_b, &gap, &mut rng_b, from, split)
        {
            predicted.push(c);
            process.rearm_after_offer(&mut slot_b, &gap, &mut rng_b, c);
            from = c;
        }
        for c in split + 1..=horizon {
            if oracle_tick(process, rate, &mut on_b, &mut slot_b, &gap, &mut rng_b, c) {
                predicted.push(c);
                process.rearm_after_offer(&mut slot_b, &gap, &mut rng_b, c);
            }
        }

        prop_assert_eq!(predicted, scanned);
        prop_assert_eq!(on_b, on_a);
        prop_assert_eq!(slot_b, slot_a);
        prop_assert_eq!(rng_b.next_u64(), rng_a.next_u64());
    }
}
