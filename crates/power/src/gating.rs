//! Power-gating policy evaluation over idle-interval distributions.
//!
//! The paper stops at the circuit-level breakeven (Minimum Idle Time).
//! A router only realizes those savings if its idle intervals are
//! actually longer than the breakeven — which depends on traffic. This
//! module evaluates sleep policies against measured idle-interval
//! histograms (produced by `lnoc_netsim`'s router statistics):
//!
//! * [`GatingPolicy::Never`] — baseline, no gating.
//! * [`GatingPolicy::Immediate`] — sleep the moment the port goes idle
//!   (pays the transition penalty on every interval, including losing
//!   ones shorter than the breakeven).
//! * [`GatingPolicy::IdleThreshold`] — sleep after `n` idle cycles
//!   (the paper's implied policy: "while a router will be idle for a
//!   given amount of idle time, the sleep signal is set to HIGH").
//! * [`GatingPolicy::Oracle`] — sleeps from cycle 0 exactly on the
//!   intervals where sleeping wins; upper bound on any policy.

use crate::breakeven::min_idle_cycles;
use lnoc_tech::units::{Hertz, Joules, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Scheme-level inputs to gating evaluation, normally derived from a
/// [`lnoc_core::characterize::SchemeCharacterization`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingParams {
    /// Leakage power while idle but awake (W) for the gated block.
    pub p_idle_awake: Watts,
    /// Leakage power in standby (W).
    pub p_standby: Watts,
    /// Energy to enter + exit standby (J).
    pub e_transition: Joules,
    /// Cycles needed to wake before the block can be used again.
    pub wake_latency_cycles: u32,
}

impl GatingParams {
    /// Leakage power saved per second of standby.
    pub fn p_saved(&self) -> Watts {
        Watts(self.p_idle_awake.0 - self.p_standby.0)
    }

    /// The Table 1 minimum idle time at a clock.
    pub fn min_idle_cycles(&self, clock: Hertz) -> u32 {
        min_idle_cycles(self.e_transition, self.p_saved(), clock)
    }
}

/// When to assert the sleep signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatingPolicy {
    /// Never sleep.
    Never,
    /// Sleep as soon as the block idles.
    Immediate,
    /// Sleep after this many consecutive idle cycles.
    IdleThreshold(u32),
    /// Perfect knowledge of interval lengths (upper bound).
    Oracle,
}

impl fmt::Display for GatingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatingPolicy::Never => write!(f, "never"),
            GatingPolicy::Immediate => write!(f, "immediate"),
            GatingPolicy::IdleThreshold(n) => write!(f, "threshold({n})"),
            GatingPolicy::Oracle => write!(f, "oracle"),
        }
    }
}

/// Histogram of idle-interval lengths in cycles.
///
/// Bin `k` counts intervals of exactly `k` cycles (bin 0 unused) for
/// every `k` below the configured cap; intervals of the cap or longer
/// land in an overflow count that also keeps their exact cycle sum.
///
/// *Closed* intervals (ended by a wakeup) and *open* intervals (still
/// running when the measurement window closed) are tracked separately:
/// an open interval contributes idle cycles and can be slept through,
/// but it never wakes up, so policies must not charge it a wake
/// penalty. Use [`IdleHistogram::record`] for closed intervals and
/// [`IdleHistogram::record_open`] for trailing open ones.
///
/// The bins are sized to what was recorded: they cover lengths up to
/// the longest one recorded below the cap, growing amortized (doubling,
/// clamped at `cap` entries) as longer intervals arrive. A network
/// simulation keeps `5 × vcs` histograms per router, and at the
/// injection rates the leakage study sweeps most lanes record nothing,
/// only a trailing open run, or only short intervals; a lane that
/// records only overflow lengths and open runs holds no bins at all.
/// Equality compares *contents*, so histograms that differ only in how
/// many trailing zero bins they hold are equal.
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct IdleHistogram {
    /// Configured cap: lengths below it are binned exactly.
    cap: usize,
    /// Bin `k` counts intervals of exactly `k` cycles; never longer
    /// than `cap`, and empty until the first interval shorter than the
    /// cap is recorded.
    counts: Vec<u64>,
    /// Number of closed intervals of `cap` cycles or more.
    overflow_n: u64,
    /// Total cycles of those overflow intervals.
    overflow_len_sum: u64,
    open_runs: Vec<u64>,
}

impl PartialEq for IdleHistogram {
    fn eq(&self, other: &Self) -> bool {
        // Content equality: bins past the shorter array are implicit
        // zeros.
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        let (head, tail) = long.split_at(short.len());
        self.cap == other.cap
            && short == head
            && tail.iter().all(|&c| c == 0)
            && self.overflow_n == other.overflow_n
            && self.overflow_len_sum == other.overflow_len_sum
            && self.open_runs == other.open_runs
    }
}

impl IdleHistogram {
    /// Creates a histogram tracking interval lengths up to `max_len`.
    /// Allocation-free until the first interval is recorded.
    pub fn new(max_len: usize) -> Self {
        IdleHistogram {
            cap: max_len,
            counts: Vec::new(),
            overflow_n: 0,
            overflow_len_sum: 0,
            open_runs: Vec::new(),
        }
    }

    /// The configured cap (`max_len` passed to [`IdleHistogram::new`]).
    pub fn max_len(&self) -> usize {
        self.cap
    }

    /// Grows the bins to hold at least `len` entries (`len <= cap`):
    /// to twice the current length when that is larger, clamped at the
    /// cap, so repeated growth stays amortized O(1) per bin.
    fn grow_to(&mut self, len: usize) {
        if len > self.counts.len() {
            let len = len.max(2 * self.counts.len()).min(self.cap);
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
    }

    /// Records one idle interval of `len` cycles (0-length ignored).
    pub fn record(&mut self, len: u64) {
        self.record_n(len, 1);
    }

    /// Records `count` idle intervals of `len` cycles each in O(1)
    /// amortized (0-length or 0-count ignored).
    pub fn record_n(&mut self, len: u64, count: u64) {
        if len == 0 || count == 0 {
            return;
        }
        if len >= self.cap as u64 {
            self.overflow_n += count;
            self.overflow_len_sum += len * count;
        } else {
            let k = len as usize;
            self.grow_to(k + 1);
            self.counts[k] += count;
        }
    }

    /// Records an idle interval that was still open when the
    /// measurement window closed (0-length ignored). Open intervals
    /// count toward totals but never pay a wake penalty in
    /// [`evaluate_policy`].
    pub fn record_open(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        self.open_runs.push(len);
    }

    /// Number of recorded intervals (closed + open).
    pub fn interval_count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow_n + self.open_runs.len() as u64
    }

    /// Total idle cycles across all intervals (closed + open).
    pub fn total_idle_cycles(&self) -> u64 {
        let in_bins: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(len, &n)| len as u64 * n)
            .sum();
        in_bins + self.overflow_len_sum + self.open_runs.iter().sum::<u64>()
    }

    /// Iterates `(interval_length, count)` pairs of the *closed*
    /// intervals in ascending length, the overflow intervals last
    /// (reported at their average length). Open intervals are exposed
    /// by [`IdleHistogram::open_runs`].
    pub fn iter_lengths(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let overflow_avg = self
            .overflow_len_sum
            .checked_div(self.overflow_n)
            .unwrap_or(0);
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(len, &n)| (len as u64, n))
            .chain((self.overflow_n > 0).then_some((overflow_avg, self.overflow_n)))
    }

    /// Lengths of the intervals that were still open at the end of the
    /// measurement window.
    pub fn open_runs(&self) -> &[u64] {
        &self.open_runs
    }

    /// Merges another histogram of the same cap into this one, in
    /// O(`other`'s bins): the bins grow only as far as `other`'s do.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different caps.
    pub fn merge(&mut self, other: &IdleHistogram) {
        assert_eq!(self.cap, other.cap, "bin count mismatch");
        self.grow_to(other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow_n += other.overflow_n;
        self.overflow_len_sum += other.overflow_len_sum;
        self.open_runs.extend_from_slice(&other.open_runs);
    }

    /// Merges another histogram whose cap may differ, preserving
    /// interval counts *and* total idle cycles exactly: `other`'s
    /// overflow intervals are re-binned at their average length with
    /// the remainder spread one cycle higher, so no idle cycle is lost
    /// to integer truncation. Equal caps take the bin-wise
    /// [`IdleHistogram::merge`] fast path.
    pub fn merge_rebinned(&mut self, other: &IdleHistogram) {
        if self.cap == other.cap {
            return self.merge(other);
        }
        for (len, &n) in other.counts.iter().enumerate() {
            self.record_n(len as u64, n);
        }
        if let Some(avg) = other.overflow_len_sum.checked_div(other.overflow_n) {
            let rem = other.overflow_len_sum - avg * other.overflow_n;
            self.record_n(avg, other.overflow_n - rem);
            self.record_n(avg + 1, rem);
        }
        for &len in &other.open_runs {
            self.record_open(len);
        }
    }
}

/// Result of evaluating a policy against a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingOutcome {
    /// Leakage energy with no gating at all (J).
    pub energy_never: Joules,
    /// Leakage + transition energy under the policy (J).
    pub energy_policy: Joules,
    /// Number of sleep transitions taken.
    pub sleep_events: u64,
    /// Cycles of added wake latency summed over all sleeps.
    pub wake_penalty_cycles: u64,
}

impl GatingOutcome {
    /// Fraction of the no-gating leakage energy that the policy saved.
    pub fn savings_fraction(&self) -> f64 {
        if self.energy_never.0 <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_policy.0 / self.energy_never.0
    }
}

/// Evaluates a policy against an idle histogram.
///
/// Closed intervals that sleep pay a wake penalty of
/// `wake_latency_cycles`; open intervals (still idle when the window
/// closed) sleep by the same rule but never wake, so they pay none.
pub fn evaluate_policy(
    hist: &IdleHistogram,
    params: &GatingParams,
    policy: GatingPolicy,
    clock: Hertz,
) -> GatingOutcome {
    let t_cycle = 1.0 / clock.0;
    let p_idle = params.p_idle_awake.0;
    let p_standby = params.p_standby.0;
    let e_trans = params.e_transition.0;
    let breakeven = params.min_idle_cycles(clock) as u64;

    let mut energy_never = 0.0;
    let mut energy_policy = 0.0;
    let mut sleep_events = 0u64;
    let mut wake_penalty = 0u64;

    // Cycle at which the policy asserts sleep, if at all. The sleep
    // signal goes HIGH the moment the idle counter *reaches* the
    // threshold, so an interval of exactly `th` cycles still sleeps
    // (with zero slept cycles — it pays the transition for nothing).
    let sleep_at = |len: u64| -> Option<u64> {
        match policy {
            GatingPolicy::Never => None,
            GatingPolicy::Immediate => Some(0),
            GatingPolicy::IdleThreshold(th) => (len >= th as u64).then_some(th as u64),
            GatingPolicy::Oracle => (len >= breakeven.max(1)).then_some(0),
        }
    };

    let closed = hist.iter_lengths().map(|(len, count)| (len, count, true));
    let open = hist.open_runs().iter().map(|&len| (len, 1, false));
    for (len, count, wakes) in closed.chain(open) {
        let n = count as f64;
        energy_never += n * len as f64 * t_cycle * p_idle;

        match sleep_at(len) {
            None => energy_policy += n * len as f64 * t_cycle * p_idle,
            Some(s) => {
                let awake = s.min(len) as f64;
                let slept = (len - s.min(len)) as f64;
                energy_policy +=
                    n * (awake * t_cycle * p_idle + slept * t_cycle * p_standby + e_trans);
                sleep_events += count;
                if wakes {
                    wake_penalty += count * params.wake_latency_cycles as u64;
                }
            }
        }
    }

    GatingOutcome {
        energy_never: Joules(energy_never),
        energy_policy: Joules(energy_policy),
        sleep_events,
        wake_penalty_cycles: wake_penalty,
    }
}

/// Per-port (or aggregated) cycle counters produced by an *in-loop*
/// sleep FSM — the simulator-side truth that the offline
/// [`evaluate_policy`] model is validated against.
///
/// Every measured cycle of every gated port lands in exactly one of the
/// four `cycles_*` buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatingCounters {
    /// Cycles the port carried a flit.
    pub cycles_busy: u64,
    /// Cycles idle but powered (Active idle + drowsy countdown).
    pub cycles_idle_awake: u64,
    /// Cycles in standby.
    pub cycles_asleep: u64,
    /// Cycles spent waking up (power already at standby level; the
    /// switching overhead is carried by `e_transition`).
    pub cycles_waking: u64,
    /// Sleep-mode entries (each pays one `e_transition`).
    pub sleep_entries: u64,
    /// Cycles a transmittable flit actually stalled behind a wakeup —
    /// the measured latency cost that the offline model can only
    /// estimate.
    pub wake_stall_cycles: u64,
}

impl GatingCounters {
    /// Accumulates another counter set into this one.
    pub fn add(&mut self, other: &GatingCounters) {
        self.cycles_busy += other.cycles_busy;
        self.cycles_idle_awake += other.cycles_idle_awake;
        self.cycles_asleep += other.cycles_asleep;
        self.cycles_waking += other.cycles_waking;
        self.sleep_entries += other.sleep_entries;
        self.wake_stall_cycles += other.wake_stall_cycles;
    }

    /// Total idle cycles (awake + asleep + waking).
    pub fn idle_cycles(&self) -> u64 {
        self.cycles_idle_awake + self.cycles_asleep + self.cycles_waking
    }
}

/// Leakage energy actually spent by an in-loop sleep FSM, from its
/// measured cycle counters.
///
/// Waking cycles are charged at standby power — the block ramps from
/// standby and the switching overhead of the transition is already
/// captured by `e_transition` — which makes this exactly comparable to
/// [`evaluate_policy`] run over the same run's idle histograms.
pub fn energy_from_counters(
    counters: &GatingCounters,
    params: &GatingParams,
    clock: Hertz,
) -> GatingOutcome {
    let t_cycle = 1.0 / clock.0;
    let p_idle = params.p_idle_awake.0;
    let p_standby = params.p_standby.0;
    let slept = (counters.cycles_asleep + counters.cycles_waking) as f64;
    GatingOutcome {
        energy_never: Joules(counters.idle_cycles() as f64 * t_cycle * p_idle),
        energy_policy: Joules(
            counters.cycles_idle_awake as f64 * t_cycle * p_idle
                + slept * t_cycle * p_standby
                + counters.sleep_entries as f64 * params.e_transition.0,
        ),
        sleep_events: counters.sleep_entries,
        wake_penalty_cycles: counters.wake_stall_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GatingParams {
        GatingParams {
            p_idle_awake: Watts(10.0e-6),
            p_standby: Watts(1.0e-6),
            e_transition: Joules(9.0e-15),
            wake_latency_cycles: 1,
        }
    }

    fn clock() -> Hertz {
        Hertz(3.0e9)
    }

    #[test]
    fn histogram_basics() {
        let mut h = IdleHistogram::new(16);
        h.record(3);
        h.record(3);
        h.record(100); // overflow
        h.record(0); // ignored
        assert_eq!(h.interval_count(), 3);
        assert_eq!(h.total_idle_cycles(), 106);
        let lengths: Vec<_> = h.iter_lengths().collect();
        assert!(lengths.contains(&(3, 2)));
        assert!(lengths.contains(&(100, 1)));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IdleHistogram::new(8);
        a.record(2);
        let mut b = IdleHistogram::new(8);
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.interval_count(), 3);
        assert_eq!(a.total_idle_cycles(), 9);
    }

    #[test]
    fn never_policy_saves_nothing() {
        let mut h = IdleHistogram::new(64);
        h.record(10);
        let out = evaluate_policy(&h, &params(), GatingPolicy::Never, clock());
        assert_eq!(out.energy_never, out.energy_policy);
        assert_eq!(out.sleep_events, 0);
        assert!((out.savings_fraction()).abs() < 1e-12);
    }

    #[test]
    fn oracle_never_loses() {
        // Mixture of short (losing) and long (winning) intervals.
        let mut h = IdleHistogram::new(64);
        for _ in 0..100 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(50);
        }
        let p = params();
        let oracle = evaluate_policy(&h, &p, GatingPolicy::Oracle, clock());
        let immediate = evaluate_policy(&h, &p, GatingPolicy::Immediate, clock());
        assert!(oracle.savings_fraction() >= 0.0);
        assert!(oracle.savings_fraction() >= immediate.savings_fraction());
    }

    #[test]
    fn immediate_loses_on_short_intervals() {
        // All intervals shorter than breakeven: immediate gating must
        // cost energy (negative savings).
        let mut h = IdleHistogram::new(16);
        for _ in 0..100 {
            h.record(1);
        }
        let p = params();
        assert!(p.min_idle_cycles(clock()) > 1);
        let out = evaluate_policy(&h, &p, GatingPolicy::Immediate, clock());
        assert!(out.savings_fraction() < 0.0);
    }

    #[test]
    fn threshold_skips_short_intervals() {
        let mut h = IdleHistogram::new(64);
        for _ in 0..100 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(40);
        }
        let p = params();
        let th = evaluate_policy(&h, &p, GatingPolicy::IdleThreshold(4), clock());
        // Only the 10 long intervals trigger sleep.
        assert_eq!(th.sleep_events, 10);
        assert!(th.savings_fraction() > 0.0);
    }

    #[test]
    fn wake_penalty_counts_events() {
        let mut h = IdleHistogram::new(64);
        for _ in 0..5 {
            h.record(30);
        }
        let out = evaluate_policy(&h, &params(), GatingPolicy::Immediate, clock());
        assert_eq!(out.sleep_events, 5);
        assert_eq!(out.wake_penalty_cycles, 5);
    }

    #[test]
    fn min_idle_cycles_from_params() {
        // 9 fJ / 9 µW = 1 ns = 3 cycles at 3 GHz.
        assert_eq!(params().min_idle_cycles(clock()), 3);
    }

    #[test]
    fn threshold_sleeps_on_exact_interval() {
        // The sleep signal asserts the moment the idle counter reaches
        // the threshold, so an interval of exactly `th` cycles sleeps
        // (th awake cycles, zero slept, one transition + one wake).
        let mut h = IdleHistogram::new(64);
        h.record(4);
        let p = params();
        let out = evaluate_policy(&h, &p, GatingPolicy::IdleThreshold(4), clock());
        assert_eq!(out.sleep_events, 1);
        assert_eq!(out.wake_penalty_cycles, 1);
        let t = 1.0 / clock().0;
        let expect = 4.0 * t * p.p_idle_awake.0 + p.e_transition.0;
        assert!((out.energy_policy.0 - expect).abs() < 1e-24);
        // One cycle shorter must not sleep.
        let mut h3 = IdleHistogram::new(64);
        h3.record(3);
        let out3 = evaluate_policy(&h3, &p, GatingPolicy::IdleThreshold(4), clock());
        assert_eq!(out3.sleep_events, 0);
        assert_eq!(out3.energy_never, out3.energy_policy);
    }

    #[test]
    fn open_intervals_sleep_but_never_wake() {
        let mut h = IdleHistogram::new(64);
        h.record(30); // closed: sleeps and wakes
        h.record_open(30); // open: sleeps, window ends before wakeup
        let p = params();
        let out = evaluate_policy(&h, &p, GatingPolicy::Immediate, clock());
        assert_eq!(out.sleep_events, 2);
        assert_eq!(out.wake_penalty_cycles, 1, "open interval pays no wake");
        assert_eq!(h.interval_count(), 2);
        assert_eq!(h.total_idle_cycles(), 60);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = IdleHistogram::new(32);
        let mut b = IdleHistogram::new(32);
        for (len, n) in [(3u64, 5u64), (31, 2), (100, 4)] {
            a.record_n(len, n);
            for _ in 0..n {
                b.record(len);
            }
        }
        assert_eq!(a, b);
        assert_eq!(a.interval_count(), 11);
        assert_eq!(a.total_idle_cycles(), 3 * 5 + 31 * 2 + 100 * 4);
    }

    #[test]
    fn merge_carries_open_runs() {
        let mut a = IdleHistogram::new(8);
        a.record(2);
        let mut b = IdleHistogram::new(8);
        b.record_open(7);
        a.merge(&b);
        assert_eq!(a.interval_count(), 2);
        assert_eq!(a.total_idle_cycles(), 9);
        assert_eq!(a.open_runs(), &[7]);
    }

    #[test]
    fn overflow_and_open_runs_allocate_no_bins() {
        let mut h = IdleHistogram::new(64);
        h.record(64);
        h.record_n(1_000_000, 7);
        h.record_open(3);
        h.record_open(10_000);
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!(h.interval_count(), 10);
        assert_eq!(h.total_idle_cycles(), 64 + 7_000_000 + 3 + 10_000);
        let mut merged = IdleHistogram::new(64);
        merged.merge(&h);
        assert_eq!(merged.counts.capacity(), 0);
        assert_eq!(merged, h);
    }

    #[test]
    fn bins_never_exceed_the_cap() {
        for cap in [1, 2, 3, 5, 64, 100, 4096] {
            // Straight to the longest binned length, then every length
            // on a rising ramp: capacity stays within `cap` entries.
            let mut jump = IdleHistogram::new(cap);
            jump.record(cap as u64 - 1);
            let mut ramp = IdleHistogram::new(cap);
            for len in 1..cap as u64 {
                ramp.record(len);
                assert!(ramp.counts.capacity() <= cap, "cap {cap}, len {len}");
            }
            assert!(jump.counts.capacity() <= cap, "cap {cap}");
            ramp.record(cap as u64 - 1);
            assert!(ramp.counts.capacity() <= cap, "cap {cap}");
        }
    }

    #[test]
    fn merge_into_empty_allocates_only_the_source_bins() {
        let mut src = IdleHistogram::new(4096);
        src.record(3);
        src.record(17);
        src.record_n(9_999, 2);
        let mut dst = IdleHistogram::new(4096);
        dst.merge(&src);
        assert!(dst.counts.capacity() <= src.counts.len());
        assert_eq!(dst, src);
    }

    #[test]
    fn equality_ignores_trailing_zero_bins() {
        // `a` grows to 32 bins (16 doubled) and keeps zeros past 17.
        let mut a = IdleHistogram::new(64);
        a.record(15);
        a.record(16);
        let mut b = IdleHistogram::new(64);
        b.record(16);
        b.record(15);
        assert!(a.counts.len() > b.counts.len());
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.record(20);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn counter_energy_matches_hand_calc() {
        let p = params();
        let c = GatingCounters {
            cycles_busy: 100,
            cycles_idle_awake: 40,
            cycles_asleep: 50,
            cycles_waking: 10,
            sleep_entries: 5,
            wake_stall_cycles: 5,
        };
        let out = energy_from_counters(&c, &p, clock());
        let t = 1.0 / clock().0;
        let expect_never = 100.0 * t * p.p_idle_awake.0;
        let expect_policy =
            40.0 * t * p.p_idle_awake.0 + 60.0 * t * p.p_standby.0 + 5.0 * p.e_transition.0;
        assert!((out.energy_never.0 - expect_never).abs() < 1e-24);
        assert!((out.energy_policy.0 - expect_policy).abs() < 1e-24);
        assert_eq!(out.sleep_events, 5);
        assert_eq!(out.wake_penalty_cycles, 5);
    }
}
