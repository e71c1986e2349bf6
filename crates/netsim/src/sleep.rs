//! Per-output-VC-lane sleep FSM — power gating *inside* the cycle
//! loop.
//!
//! The offline model in [`lnoc_power::gating`] integrates a policy over
//! idle-interval histograms after the run; it cannot see that a sleeping
//! port stalls real flits while it wakes. This module puts the sleep
//! controller in the loop: every router output VC lane — an
//! `(output port, VC)` pair, physically the downstream input VC buffer
//! plus its share of the crossbar output — carries a four-state FSM
//!
//! ```text
//! Active ──idle──► DrowsyCountdown ──counter ≥ threshold──► Asleep
//!    ▲                                                         │
//!    └────────── Waking(wake_latency) ◄──────flit can move─────┘
//! ```
//!
//! driven by a [`GatingPolicy`]. A flit that arrives at a sleeping lane
//! waits out the wake latency — so gated runs report both the energy
//! *and* the latency/throughput penalty, and the measured
//! [`GatingCounters`] cross-validate the offline model on the same run.
//! Because the FSM granularity is the VC lane, an empty VC bank sleeps
//! while a sibling VC of the same port streams a worm.
//!
//! Timing contract (what makes in-loop energy agree with
//! [`lnoc_power::gating::evaluate_policy`] on the same histograms):
//!
//! * the sleep signal asserts at the end of the cycle on which the idle
//!   counter *reaches* the threshold — an interval of exactly
//!   `threshold` cycles still pays the transition;
//! * [`GatingPolicy::Immediate`] parks the port the moment a send
//!   completes with nothing queued behind it, so whole intervals are
//!   spent in standby;
//! * waking cycles are billed at standby power (the transition energy
//!   carries the switching overhead);
//! * a port sleeps at most once per idle interval — after a wake it
//!   stays powered until the pending flit departs.

use lnoc_power::gating::{GatingCounters, GatingPolicy};
use serde::{Deserialize, Serialize};

/// In-loop gating configuration for every router output VC lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepConfig {
    /// When to assert the sleep signal. [`GatingPolicy::Oracle`] needs
    /// future knowledge and is rejected by the simulator.
    pub policy: GatingPolicy,
    /// Cycles a sleeping port needs before it can carry a flit again.
    pub wake_latency: u32,
}

impl SleepConfig {
    /// The idle-cycle count at which the FSM asserts sleep, or `None`
    /// when the policy never sleeps in-loop.
    pub fn threshold(&self) -> Option<u32> {
        match self.policy {
            GatingPolicy::Never => None,
            GatingPolicy::Immediate => Some(0),
            GatingPolicy::IdleThreshold(th) => Some(th),
            // Rejected by `Simulation::new`; treated as Never here so
            // the FSM itself stays total.
            GatingPolicy::Oracle => None,
        }
    }
}

/// The four sleep states of one output VC lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SleepState {
    /// Powered and either carrying a flit or just finished one.
    #[default]
    Active,
    /// Powered but idle, counting toward the sleep threshold (the
    /// count itself is the router's authoritative idle-run counter,
    /// passed into [`SleepFsm::settle`] as `idle_run`).
    DrowsyCountdown,
    /// In standby: leaking at the standby level, unable to carry flits.
    Asleep,
    /// Powering back up; flits stall until the countdown expires.
    Waking {
        /// Stall cycles remaining before the port is usable.
        remaining: u32,
    },
}

/// [`SleepFsm::tag`] values, one per [`SleepState`] variant.
const ACTIVE: u8 = 0;
const DROWSY: u8 = 1;
const ASLEEP: u8 = 2;
const WAKING: u8 = 3;

/// One port's sleep controller: 8 bytes, since the simulation keeps
/// one per output VC lane of every router. The state is stored packed
/// — a variant tag beside the waking countdown, which stays 0 outside
/// `Waking` so that equal states compare equal — and read back as a
/// [`SleepState`] through [`SleepFsm::state`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepFsm {
    /// Which [`SleepState`] variant the lane is in.
    tag: u8,
    /// Set while the current idle interval has already slept once;
    /// suppresses sleep/wake thrash when a woken port is back-pressured
    /// before its flit can depart.
    slept_this_interval: bool,
    /// Stall cycles left while `Waking`; 0 in every other state.
    remaining: u32,
}

const _: () = assert!(std::mem::size_of::<SleepFsm>() == 8);

impl SleepFsm {
    /// Current state (for diagnostics and tests).
    pub fn state(&self) -> SleepState {
        match self.tag {
            ACTIVE => SleepState::Active,
            DROWSY => SleepState::DrowsyCountdown,
            ASLEEP => SleepState::Asleep,
            _ => SleepState::Waking {
                remaining: self.remaining,
            },
        }
    }

    /// Moves the controller to `state`.
    fn set(&mut self, state: SleepState) {
        (self.tag, self.remaining) = match state {
            SleepState::Active => (ACTIVE, 0),
            SleepState::DrowsyCountdown => (DROWSY, 0),
            SleepState::Asleep => (ASLEEP, 0),
            SleepState::Waking { remaining } => (WAKING, remaining),
        };
    }

    /// Start-of-cycle gate: advances the wake countdown and triggers
    /// `Asleep → Waking` when a flit can actually move (`wants` — a
    /// flit is queued for this output *and* downstream can accept it).
    /// Returns whether the port may transmit this cycle.
    pub fn gate(&mut self, wants: bool, wake_latency: u32) -> bool {
        match self.state() {
            SleepState::Active | SleepState::DrowsyCountdown => true,
            SleepState::Asleep => {
                if wants {
                    if wake_latency == 0 {
                        self.set(SleepState::Active);
                        true
                    } else {
                        self.set(SleepState::Waking {
                            remaining: wake_latency,
                        });
                        false
                    }
                } else {
                    false
                }
            }
            SleepState::Waking { remaining } => {
                if remaining <= 1 {
                    self.set(SleepState::Active);
                    true
                } else {
                    self.set(SleepState::Waking {
                        remaining: remaining - 1,
                    });
                    false
                }
            }
        }
    }

    /// End-of-cycle settle: bills this cycle to a counter bucket,
    /// applies the sleep-entry rule, and resets on a send.
    ///
    /// `idle_run` is the port's consecutive-idle-cycle count after this
    /// cycle — or, on a send, the length of the idle interval that just
    /// ended. `stalled` is whether a transmittable flit waited on the
    /// wakeup this cycle; `wants_after` is whether another flit is
    /// already queued for this output (and deliverable) after this
    /// cycle's send — [`GatingPolicy::Immediate`] parks the port only
    /// when nothing is waiting, since a zero-length gap can never
    /// recoup the transition energy.
    pub fn settle(
        &mut self,
        sent: bool,
        stalled: bool,
        wants_after: bool,
        idle_run: u64,
        cfg: &SleepConfig,
        counters: &mut GatingCounters,
    ) {
        // Account the cycle by the state it was spent in.
        match self.state() {
            SleepState::Active | SleepState::DrowsyCountdown => {
                if sent {
                    counters.cycles_busy += 1;
                } else {
                    counters.cycles_idle_awake += 1;
                }
            }
            SleepState::Asleep => counters.cycles_asleep += 1,
            SleepState::Waking { .. } => counters.cycles_waking += 1,
        }
        if stalled {
            counters.wake_stall_cycles += 1;
        }

        let threshold = cfg.threshold();
        if sent {
            // A sleep that ended with a zero-length idle interval
            // (Immediate park, zero wake latency, flit on the very next
            // cycle) never materialized: the offline model cannot even
            // record the interval, so refund the transition.
            if self.slept_this_interval && idle_run == 0 {
                counters.sleep_entries = counters.sleep_entries.saturating_sub(1);
            }
            self.slept_this_interval = false;
            // Immediate gating parks the port the moment a send
            // completes with nothing queued behind it, so whole idle
            // intervals are spent in standby.
            if threshold == Some(0) && !wants_after {
                self.set(SleepState::Asleep);
                self.slept_this_interval = true;
                counters.sleep_entries += 1;
            } else {
                self.set(SleepState::Active);
            }
            return;
        }

        // Idle cycle: drowsy countdown / sleep entry, from awake states
        // only, at most once per interval.
        if matches!(
            self.state(),
            SleepState::Active | SleepState::DrowsyCountdown
        ) {
            if let Some(th) = threshold {
                if !self.slept_this_interval && idle_run >= th as u64 {
                    self.set(SleepState::Asleep);
                    self.slept_this_interval = true;
                    counters.sleep_entries += 1;
                } else {
                    self.set(SleepState::DrowsyCountdown);
                }
            }
        }
    }

    /// Forces the controller back to `Active` and clears interval
    /// state — used when the measurement window opens so in-loop
    /// accounting and the (also reset) idle histograms see the same
    /// intervals.
    pub fn reset(&mut self) {
        *self = SleepFsm::default();
    }

    /// Settles `k` consecutive idle cycles in O(1) — the bulk
    /// equivalent of `k` per-cycle [`SleepFsm::gate`] +
    /// [`SleepFsm::settle`] rounds with nothing wanting the lane.
    /// `idle_run_before` is the lane's idle-run counter *before* those
    /// `k` cycles, so a threshold walk still asserts sleep on exactly
    /// the cycle the run reaches the threshold, bills the transition
    /// once, and spends the remainder in standby — bit-identical to the
    /// dense replay. Returns how many of the `k` cycles the lane spent
    /// awake, each of which performs one switch arbitration in the
    /// dense loop (so callers can bulk-account that too).
    ///
    /// Total over every state:
    ///
    /// * `Asleep` bills standby forever;
    /// * `Active`/`DrowsyCountdown` either stays awake (no threshold,
    ///   or the interval already slept once) or sleeps on the
    ///   predictable cycle its idle run reaches the threshold;
    /// * `Waking { remaining: r }` keeps counting down with nothing to
    ///   carry (a fault reap can remove the flit it woke for): the
    ///   first `min(k, r − 1)` cycles bill waking, and from the cycle
    ///   the countdown expires the lane is awake and idles like
    ///   `Active`.
    pub fn settle_idle_bulk(
        &mut self,
        k: u64,
        idle_run_before: u64,
        threshold: Option<u32>,
        counters: &mut GatingCounters,
    ) -> u64 {
        if k == 0 {
            return 0;
        }
        match self.state() {
            SleepState::Asleep => {
                counters.cycles_asleep += k;
                0
            }
            SleepState::Active | SleepState::DrowsyCountdown => {
                let walk = match threshold {
                    // Sleeping can still fire: it does so on the cycle
                    // the idle run reaches the threshold (at least one
                    // cycle out — the run had not reached it yet).
                    Some(th) if !self.slept_this_interval => {
                        Some((th as u64).saturating_sub(idle_run_before).max(1))
                    }
                    _ => None,
                };
                match walk {
                    Some(until_sleep) if k >= until_sleep => {
                        counters.cycles_idle_awake += until_sleep;
                        counters.cycles_asleep += k - until_sleep;
                        counters.sleep_entries += 1;
                        self.set(SleepState::Asleep);
                        self.slept_this_interval = true;
                        until_sleep
                    }
                    _ => {
                        counters.cycles_idle_awake += k;
                        // The per-cycle settle moves an idle Active
                        // port into DrowsyCountdown when a threshold
                        // policy is armed; mirror that so the state
                        // after the bulk matches the dense loop.
                        if threshold.is_some() {
                            self.set(SleepState::DrowsyCountdown);
                        }
                        k
                    }
                }
            }
            SleepState::Waking { remaining } => {
                // `gate` turns `Waking { 1 }` into `Active` and lets the
                // lane transmit that very cycle, so only `r − 1` cycles
                // are spent waking.
                let waking = k.min(remaining as u64 - 1);
                counters.cycles_waking += waking;
                if waking == k {
                    self.set(SleepState::Waking {
                        remaining: remaining - k as u32,
                    });
                    return 0;
                }
                self.set(SleepState::Active);
                self.settle_idle_bulk(k - waking, idle_run_before + waking, threshold, counters)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: GatingPolicy, wake: u32) -> SleepConfig {
        SleepConfig {
            policy,
            wake_latency: wake,
        }
    }

    #[test]
    fn threshold_fsm_walks_all_four_states() {
        let c = cfg(GatingPolicy::IdleThreshold(2), 1);
        let mut f = SleepFsm::default();
        let mut k = GatingCounters::default();

        // Two idle cycles: countdown, then sleep on the cycle the
        // counter reaches the threshold.
        assert!(f.gate(false, c.wake_latency));
        f.settle(false, false, false, 1, &c, &mut k);
        assert_eq!(f.state(), SleepState::DrowsyCountdown);
        assert!(f.gate(false, c.wake_latency));
        f.settle(false, false, false, 2, &c, &mut k);
        assert_eq!(f.state(), SleepState::Asleep);
        assert_eq!(k.sleep_entries, 1);
        assert_eq!(k.cycles_idle_awake, 2);

        // Stays asleep while nothing wants it.
        assert!(!f.gate(false, c.wake_latency));
        f.settle(false, false, false, 3, &c, &mut k);
        assert_eq!(k.cycles_asleep, 1);

        // A flit arrives: one waking stall cycle, then transmit.
        assert!(!f.gate(true, c.wake_latency));
        assert_eq!(f.state(), SleepState::Waking { remaining: 1 });
        f.settle(false, true, false, 4, &c, &mut k);
        assert_eq!(k.cycles_waking, 1);
        assert_eq!(k.wake_stall_cycles, 1);
        assert!(f.gate(true, c.wake_latency));
        f.settle(true, false, false, 5, &c, &mut k);
        assert_eq!(f.state(), SleepState::Active);
        assert_eq!(k.cycles_busy, 1);
        assert_eq!(k.sleep_entries, 1, "real sleep keeps its transition");
    }

    #[test]
    fn immediate_parks_after_send() {
        let c = cfg(GatingPolicy::Immediate, 1);
        let mut f = SleepFsm::default();
        let mut k = GatingCounters::default();
        f.gate(true, c.wake_latency);
        f.settle(true, false, false, 0, &c, &mut k);
        assert_eq!(f.state(), SleepState::Asleep);
        assert_eq!(k.sleep_entries, 1);
    }

    #[test]
    fn sleeps_at_most_once_per_interval() {
        let c = cfg(GatingPolicy::IdleThreshold(1), 1);
        let mut f = SleepFsm::default();
        let mut k = GatingCounters::default();
        // Idle to sleep.
        f.gate(false, c.wake_latency);
        f.settle(false, false, false, 1, &c, &mut k);
        assert_eq!(f.state(), SleepState::Asleep);
        // Wake, but the flit stays blocked (no send) for many cycles:
        // the port must not re-enter sleep mid-interval.
        f.gate(true, c.wake_latency);
        f.settle(false, true, false, 2, &c, &mut k);
        for i in 0..10 {
            f.gate(false, c.wake_latency);
            f.settle(false, false, false, 3 + i, &c, &mut k);
            assert_ne!(f.state(), SleepState::Asleep);
        }
        assert_eq!(k.sleep_entries, 1);
        // After the send the interval ends and sleeping re-arms.
        f.gate(true, c.wake_latency);
        f.settle(true, false, false, 13, &c, &mut k);
        f.gate(false, c.wake_latency);
        f.settle(false, false, false, 1, &c, &mut k);
        assert_eq!(k.sleep_entries, 2);
    }

    #[test]
    fn zero_wake_latency_transmits_same_cycle() {
        let c = cfg(GatingPolicy::Immediate, 0);
        let mut f = SleepFsm::default();
        let mut k = GatingCounters::default();
        f.gate(true, c.wake_latency);
        f.settle(true, false, false, 0, &c, &mut k);
        assert_eq!(f.state(), SleepState::Asleep);
        assert_eq!(k.sleep_entries, 1);
        assert!(f.gate(true, c.wake_latency), "L=0 wake is free");
        // The park lasted zero idle cycles — no histogram interval ever
        // existed, so the transition is refunded.
        f.settle(true, false, false, 0, &c, &mut k);
        assert_eq!(k.sleep_entries, 1, "park + refund + re-park nets one");
        assert_eq!(f.state(), SleepState::Asleep);
        let refunded = k.sleep_entries;
        // A park that does cover idle cycles keeps its transition.
        f.gate(false, c.wake_latency);
        f.settle(false, false, false, 1, &c, &mut k);
        f.gate(true, c.wake_latency);
        f.settle(true, false, false, 1, &c, &mut k);
        assert_eq!(k.sleep_entries, refunded + 1);
    }

    #[test]
    fn bulk_idle_settle_matches_repeated_settles() {
        // Drive controllers into every idle-predictable configuration
        // — including mid-walk states where the threshold will still
        // fire — then check that settling k idle cycles in bulk
        // produces the same state and counters as k per-cycle
        // gate+settle rounds.
        let asleep = |c: &SleepConfig| {
            let mut f = SleepFsm::default();
            let mut k = GatingCounters::default();
            let mut run = 0;
            while f.state() != SleepState::Asleep {
                run += 1;
                f.gate(false, c.wake_latency);
                f.settle(false, false, false, run, c, &mut k);
            }
            (f, run)
        };
        let drowsy_after_sleep = |c: &SleepConfig| {
            // Sleep, wake on a flit that stays blocked, then go idle
            // again: slept_this_interval suppresses re-entry.
            let (mut f, mut run) = asleep(c);
            f.gate(true, c.wake_latency);
            f.settle(false, true, false, run + 1, c, &mut k_scratch());
            f.gate(false, c.wake_latency);
            run += 2;
            f.settle(false, false, false, run, c, &mut k_scratch());
            assert_eq!(f.state(), SleepState::DrowsyCountdown);
            (f, run)
        };
        let mid_walk = |c: &SleepConfig, idles: u64| {
            // A fresh interval partway toward the sleep threshold.
            let mut f = SleepFsm::default();
            let mut k = GatingCounters::default();
            for run in 1..=idles {
                f.gate(false, c.wake_latency);
                f.settle(false, false, false, run, c, &mut k);
            }
            assert_ne!(f.state(), SleepState::Asleep);
            (f, idles)
        };
        fn k_scratch() -> GatingCounters {
            GatingCounters::default()
        }

        let never = cfg(GatingPolicy::Never, 1);
        let th2 = cfg(GatingPolicy::IdleThreshold(2), 1);
        let th9 = cfg(GatingPolicy::IdleThreshold(9), 1);
        let imm = cfg(GatingPolicy::Immediate, 1);
        let mut cases: Vec<(SleepFsm, SleepConfig, u64)> = vec![
            (SleepFsm::default(), never, 0),
            (SleepFsm::default(), th2, 0), // walks to sleep inside the bulk
            (SleepFsm::default(), th9, 0), // sleeps mid-bulk for larger k
            (SleepFsm::default(), imm, 0), // immediate: sleeps on cycle 1
            (mid_walk(&th9, 4).0, th9, 4), // partially walked already
            (mid_walk(&th9, 8).0, th9, 8), // sleeps on the very next cycle
            (asleep(&th2).0, th2, asleep(&th2).1),
            (drowsy_after_sleep(&th2).0, th2, drowsy_after_sleep(&th2).1),
        ];
        // Every `Waking { r }` a lane can be left in when the flit it
        // woke for disappears: wake, then count down one cycle at a
        // time with the flit still wanting the lane.
        for policy in [
            GatingPolicy::Immediate,
            GatingPolicy::IdleThreshold(2),
            GatingPolicy::IdleThreshold(9),
        ] {
            for wake in 1..=6 {
                let c = cfg(policy, wake);
                let (mut f, mut run) = asleep(&c);
                assert!(!f.gate(true, wake));
                loop {
                    run += 1;
                    f.settle(false, true, false, run, &c, &mut k_scratch());
                    assert!(matches!(f.state(), SleepState::Waking { .. }));
                    cases.push((f, c, run));
                    if f.state() == (SleepState::Waking { remaining: 1 }) {
                        break;
                    }
                    assert!(!f.gate(true, wake));
                }
            }
        }
        for (fsm, c, run0) in cases {
            for k in [1u64, 2, 3, 5, 17, 100] {
                let mut dense = fsm;
                let mut dense_k = GatingCounters::default();
                let mut bulk = fsm;
                let mut bulk_k = GatingCounters::default();
                let mut arbs = 0;
                for i in 1..=k {
                    if dense.gate(false, c.wake_latency) {
                        arbs += 1;
                    }
                    dense.settle(false, false, false, run0 + i, &c, &mut dense_k);
                }
                let bulk_arbs = bulk.settle_idle_bulk(k, run0, c.threshold(), &mut bulk_k);
                assert_eq!(dense, bulk, "state diverged for {c:?} k={k}");
                assert_eq!(dense_k, bulk_k, "counters diverged for {c:?} k={k}");
                assert_eq!(arbs, bulk_arbs, "awake cycles diverged for {c:?} k={k}");
            }
        }
    }

    #[test]
    fn packed_state_round_trips_every_sleep_state() {
        // Every variant, with the interval flag either way, reads back
        // unchanged, keeps the flag, and compares equal only to itself.
        let states = [
            SleepState::Active,
            SleepState::DrowsyCountdown,
            SleepState::Asleep,
            SleepState::Waking { remaining: 1 },
            SleepState::Waking { remaining: 7 },
            SleepState::Waking {
                remaining: u32::MAX,
            },
        ];
        let mut seen = Vec::new();
        for state in states {
            for slept in [false, true] {
                let mut f = SleepFsm {
                    slept_this_interval: slept,
                    ..SleepFsm::default()
                };
                f.set(SleepState::Waking { remaining: 3 });
                f.set(state);
                assert_eq!(f.state(), state);
                assert_eq!(f.slept_this_interval, slept);
                assert!(!seen.contains(&f), "{state:?} aliases another state");
                seen.push(f);
            }
        }
        assert_eq!(SleepFsm::default().state(), SleepState::Active);
    }

    #[test]
    fn never_policy_stays_awake() {
        let c = cfg(GatingPolicy::Never, 1);
        let mut f = SleepFsm::default();
        let mut k = GatingCounters::default();
        for i in 0..50 {
            assert!(f.gate(false, c.wake_latency));
            f.settle(false, false, false, i + 1, &c, &mut k);
        }
        assert_eq!(k.sleep_entries, 0);
        assert_eq!(k.cycles_idle_awake, 50);
        assert_eq!(k.cycles_asleep, 0);
    }

    #[test]
    fn bulk_idle_settle_composes_across_threshold_boundary() {
        // Deferred settlement's load-bearing algebraic property: a span
        // settled as two deferred pieces equals the same span settled
        // in one piece — *including* when the split lands the sleep
        // threshold inside either piece, so the first settle ends
        // mid-walk (DrowsyCountdown) or already asleep and the second
        // must pick up exactly where the dense replay would be. Sweep
        // every split point of a span that crosses an IdleThreshold
        // boundary, plus Immediate and Never for the degenerate
        // thresholds.
        for c in [
            cfg(GatingPolicy::IdleThreshold(5), 1),
            cfg(GatingPolicy::Immediate, 1),
            cfg(GatingPolicy::Never, 1),
        ] {
            let span = 12u64; // threshold 5 sits strictly inside
            for split in 0..=span {
                let mut whole = SleepFsm::default();
                let mut whole_k = GatingCounters::default();
                let whole_arbs = whole.settle_idle_bulk(span, 0, c.threshold(), &mut whole_k);

                let mut parts = SleepFsm::default();
                let mut parts_k = GatingCounters::default();
                let mut parts_arbs = parts.settle_idle_bulk(split, 0, c.threshold(), &mut parts_k);
                parts_arbs +=
                    parts.settle_idle_bulk(span - split, split, c.threshold(), &mut parts_k);

                assert_eq!(whole, parts, "state diverged for {c:?} split={split}");
                assert_eq!(
                    whole_k, parts_k,
                    "counters diverged for {c:?} split={split}"
                );
                assert_eq!(
                    whole_arbs, parts_arbs,
                    "awake cycles diverged for {c:?} split={split}"
                );
            }
        }
    }
}
