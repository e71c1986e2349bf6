//! Oracle test for the compact `IdleHistogram` layout: dense bins below
//! `IdleHistogram::DENSE_BINS`, a sorted list of the longer lengths
//! below the cap, an overflow count and inline-first open runs.
//!
//! Random sequences of `record`, `record_n`, `record_open`, `merge` and
//! `merge_rebinned` run on three compact histograms and, op for op, on
//! a dense model that allocates one `u64` bin per length below the cap
//! plus an overflow bin up front. Caps and lengths straddle both the
//! dense bound and the cap, repeat counts straddle 2³² (the compact
//! dense bins hold 32 bits and carry the rest), each case limits the
//! open runs per histogram to
//! none, one or any number, and the merges combine histograms of
//! different shapes and (re-binning) different caps. Every
//! content-level view must agree, and `evaluate_policy` must give
//! bit-identical outcomes under every policy.

use lnoc_power::gating::{
    evaluate_policy, GatingOutcome, GatingParams, GatingPolicy, IdleHistogram,
};
use lnoc_tech::units::{Hertz, Joules, Watts};
use proptest::prelude::*;

/// Dense reference histogram: `bins[k]` counts intervals of exactly
/// `k` cycles for `k < cap`, and `bins[cap]` counts the overflow
/// intervals, whose cycles `overflow_len_sum` adds up.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    cap: usize,
    bins: Vec<u64>,
    overflow_len_sum: u64,
    open: Vec<u64>,
}

impl Dense {
    fn new(cap: usize) -> Self {
        Dense {
            cap,
            bins: vec![0; cap + 1],
            overflow_len_sum: 0,
            open: Vec::new(),
        }
    }

    fn record_n(&mut self, len: u64, count: u64) {
        if len == 0 || count == 0 {
            return;
        }
        let k = len.min(self.cap as u64) as usize;
        self.bins[k] += count;
        if k == self.cap {
            self.overflow_len_sum += len * count;
        }
    }

    fn record_open(&mut self, len: u64) {
        if len > 0 {
            self.open.push(len);
        }
    }

    fn merge(&mut self, other: &Dense) {
        assert_eq!(self.cap, other.cap);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow_len_sum += other.overflow_len_sum;
        self.open.extend_from_slice(&other.open);
    }

    fn merge_rebinned(&mut self, other: &Dense) {
        if self.cap == other.cap {
            return self.merge(other);
        }
        for len in 1..other.cap {
            self.record_n(len as u64, other.bins[len]);
        }
        let n = other.bins[other.cap];
        if let Some(avg) = other.overflow_len_sum.checked_div(n) {
            let rem = other.overflow_len_sum - avg * n;
            self.record_n(avg, n - rem);
            self.record_n(avg + 1, rem);
        }
        for &len in &other.open {
            self.record_open(len);
        }
    }

    /// Closed intervals in ascending length, the overflow bin last at
    /// its average length.
    fn lengths(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = (1..self.cap)
            .filter(|&k| self.bins[k] > 0)
            .map(|k| (k as u64, self.bins[k]))
            .collect();
        let n = self.bins[self.cap];
        if let Some(avg) = self.overflow_len_sum.checked_div(n) {
            out.push((avg, n));
        }
        out
    }

    fn interval_count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.open.len() as u64
    }

    /// Total idle cycles, widened so the overflow guard can check it.
    fn total(&self) -> u128 {
        let closed: u128 = (1..self.cap)
            .map(|k| k as u128 * self.bins[k] as u128)
            .sum();
        closed + self.overflow_len_sum as u128 + self.open.iter().map(|&l| l as u128).sum::<u128>()
    }

    /// The policy model over the dense bins, written out separately
    /// from `evaluate_policy` with the same per-interval float
    /// expressions in the same order (closed ascending, overflow,
    /// open), so any change in what the compact layout reports or in
    /// its order shows up as a bit difference.
    fn evaluate(&self, p: &GatingParams, policy: GatingPolicy, clock: Hertz) -> GatingOutcome {
        let t = 1.0 / clock.0;
        let breakeven = p.min_idle_cycles(clock) as u64;
        let (mut never, mut spent, mut sleeps, mut wake) = (0.0, 0.0, 0u64, 0u64);
        let closed = self.lengths().into_iter().map(|(l, c)| (l, c, true));
        let open = self.open.iter().map(|&l| (l, 1, false));
        for (len, count, wakes) in closed.chain(open) {
            let n = count as f64;
            never += n * len as f64 * t * p.p_idle_awake.0;
            let sleep_at = match policy {
                GatingPolicy::Never => None,
                GatingPolicy::Immediate => Some(0),
                GatingPolicy::IdleThreshold(th) => (len >= th as u64).then_some(th as u64),
                GatingPolicy::Oracle => (len >= breakeven.max(1)).then_some(0),
            };
            match sleep_at {
                None => spent += n * len as f64 * t * p.p_idle_awake.0,
                Some(s) => {
                    let awake = s.min(len) as f64;
                    let slept = (len - s.min(len)) as f64;
                    spent += n
                        * (awake * t * p.p_idle_awake.0
                            + slept * t * p.p_standby.0
                            + p.e_transition.0);
                    sleeps += count;
                    if wakes {
                        wake += count * p.wake_latency_cycles as u64;
                    }
                }
            }
        }
        GatingOutcome {
            energy_never: Joules(never),
            energy_policy: Joules(spent),
            sleep_events: sleeps,
            wake_penalty_cycles: wake,
        }
    }

    /// A compact histogram with this content, built by recording the
    /// bins longest first (so its bins grow exactly, never amortized).
    fn to_compact(&self) -> IdleHistogram {
        let mut h = IdleHistogram::new(self.cap);
        let n = self.bins[self.cap];
        if let Some(avg) = self.overflow_len_sum.checked_div(n) {
            let rem = self.overflow_len_sum - avg * n;
            h.record_n(avg, n - rem);
            h.record_n(avg + 1, rem);
        }
        for k in (1..self.cap).rev() {
            h.record_n(k as u64, self.bins[k]);
        }
        for &len in &self.open {
            h.record_open(len);
        }
        h
    }
}

/// Keeps every total below this, so no u64 sum can overflow.
const TOTAL_LIMIT: u128 = 1 << 62;

/// The dense-bin bound of the layout under test.
const DENSE: u64 = IdleHistogram::DENSE_BINS as u64;

/// Decodes a cap from a selector: the simulator default, the dense
/// bound or one off it, a cap a little past it, or a small one.
fn cap(sel: usize) -> usize {
    let dense = DENSE as usize;
    match sel {
        0 => 4096,
        1 => dense - 1,
        2 => dense,
        3 => dense + 1,
        4..=7 => dense + 29 * sel,
        s => s - 8,
    }
}

/// Decodes an interval length from op bits: 0, `cap − 1`, `cap`,
/// `cap + 1`, far past the cap, the dense bound or one off it, a
/// random length from the dense bound on, or a short random length.
fn length(cap: usize, w: u64) -> u64 {
    let cap = cap as u64;
    match (w >> 16) % 12 {
        0 => 0,
        1 => cap.saturating_sub(1),
        2 => cap,
        3 => cap + 1,
        4 => cap + 10_000_000 + (w >> 24) % 1000,
        5 => DENSE - 1,
        6 => DENSE,
        7 => DENSE + 1,
        8 | 9 => DENSE + (w >> 24) % (cap.saturating_sub(DENSE) + 4),
        _ => 1 + (w >> 24) % (cap + 4),
    }
}

/// Decodes a repeat count from op bits: 0, 1, up to a million, or
/// within 2 048 of 2³² on either side, so a few records or merges take
/// a dense bin to `u32::MAX` and past it.
fn count(w: u64) -> u64 {
    match (w >> 40) % 6 {
        0 => 0,
        1 => 1,
        2 | 3 => 1 + (w >> 44) % 1_000_000,
        _ => (1 << 32) - 2048 + (w >> 44) % 4096,
    }
}

fn policies(cap: usize, th: u32) -> [GatingPolicy; 7] {
    [
        GatingPolicy::Never,
        GatingPolicy::Immediate,
        GatingPolicy::IdleThreshold(0),
        GatingPolicy::IdleThreshold(1),
        GatingPolicy::IdleThreshold(cap as u32),
        GatingPolicy::IdleThreshold(th),
        GatingPolicy::Oracle,
    ]
}

proptest! {
    #[test]
    fn compact_histogram_matches_dense_model(
        cap_a_sel in 0usize..48,
        cap_b_sel in 0usize..58,
        max_open_sel in 0usize..4,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..80),
        th in 0u32..80,
        p_idle_uw in 1.0f64..50.0,
        p_stby_frac in 0.0f64..0.9,
        e_fj in 1.0f64..200.0,
        wake in 0u32..4,
    ) {
        // Histograms 0 and 1 share a cap; histogram 2's cap equals it
        // or is drawn independently.
        let cap_a = cap(cap_a_sel);
        let cap_b = match cap_b_sel {
            0..=9 => cap_a,
            s => cap(s - 10),
        };
        let caps = [cap_a, cap_a, cap_b];
        // Open runs per histogram: none, at most one, or any number.
        let max_open = [0, 1, 1, usize::MAX][max_open_sel];
        let mut compact: Vec<IdleHistogram> = caps.iter().map(|&c| IdleHistogram::new(c)).collect();
        let mut dense: Vec<Dense> = caps.iter().map(|&c| Dense::new(c)).collect();

        for &w in &ops {
            let t = ((w >> 8) % 3) as usize;
            let s = ((w >> 12) % 3) as usize;
            let len = length(caps[t], w);
            match w % 6 {
                0 => {
                    if dense[t].total() + len as u128 >= TOTAL_LIMIT {
                        continue;
                    }
                    compact[t].record(len);
                    dense[t].record_n(len, 1);
                }
                1 | 2 => {
                    let n = count(w);
                    if dense[t].total() + len as u128 * n as u128 >= TOTAL_LIMIT {
                        continue;
                    }
                    compact[t].record_n(len, n);
                    dense[t].record_n(len, n);
                }
                3 => {
                    if dense[t].total() + len as u128 >= TOTAL_LIMIT
                        || (len > 0 && dense[t].open.len() >= max_open)
                    {
                        continue;
                    }
                    compact[t].record_open(len);
                    dense[t].record_open(len);
                }
                kind => {
                    // 4: bin-wise merge from a same-cap source (a
                    // histogram may merge a copy of itself); 5: merge
                    // from any source, re-binning across caps.
                    let s = if kind == 4 && caps[s] != caps[t] { t } else { s };
                    if dense[t].total() + dense[s].total() >= TOTAL_LIMIT
                        || dense[t].open.len() + dense[s].open.len() > max_open
                    {
                        continue;
                    }
                    let (src_c, src_d) = (compact[s].clone(), dense[s].clone());
                    if kind == 4 {
                        compact[t].merge(&src_c);
                        dense[t].merge(&src_d);
                    } else {
                        compact[t].merge_rebinned(&src_c);
                        dense[t].merge_rebinned(&src_d);
                    }
                }
            }
        }

        let params = GatingParams {
            p_idle_awake: Watts(p_idle_uw * 1e-6),
            p_standby: Watts(p_idle_uw * p_stby_frac * 1e-6),
            e_transition: Joules(e_fj * 1e-15),
            wake_latency_cycles: wake,
        };
        let clock = Hertz(3.0e9);
        for (h, d) in compact.iter().zip(&dense) {
            prop_assert_eq!(h.max_len(), d.cap);
            prop_assert_eq!(h.iter_lengths().collect::<Vec<_>>(), d.lengths());
            prop_assert_eq!(h.total_idle_cycles() as u128, d.total());
            prop_assert_eq!(h.interval_count(), d.interval_count());
            prop_assert_eq!(h.open_runs(), &d.open[..]);
            prop_assert!(d.open.len() <= max_open);
            for policy in policies(d.cap, th) {
                let got = evaluate_policy(h, &params, policy, clock);
                let want = d.evaluate(&params, policy, clock);
                prop_assert_eq!(got.energy_never.0.to_bits(), want.energy_never.0.to_bits());
                prop_assert_eq!(got.energy_policy.0.to_bits(), want.energy_policy.0.to_bits());
                prop_assert_eq!(got.sleep_events, want.sleep_events);
                prop_assert_eq!(got.wake_penalty_cycles, want.wake_penalty_cycles);
            }
            // Same content, bins grown another way (and possibly fewer
            // trailing zero bins than merges left behind): equal.
            let rebuilt = d.to_compact();
            prop_assert!(*h == rebuilt, "rebuilt histogram differs: {:?} vs {:?}", h, rebuilt);
            prop_assert!(rebuilt == *h);
        }
        // Equality follows content, whatever each side's bin length.
        for i in 0..3 {
            for j in 0..3 {
                prop_assert_eq!(compact[i] == compact[j], dense[i] == dense[j]);
            }
        }
    }
}

/// Every content-level view of `h` against the model `d`.
fn assert_matches(h: &IdleHistogram, d: &Dense) {
    assert_eq!(h.iter_lengths().collect::<Vec<_>>(), d.lengths());
    assert_eq!(h.total_idle_cycles() as u128, d.total());
    assert_eq!(h.interval_count(), d.interval_count());
    assert_eq!(*h, d.to_compact());
}

#[test]
fn dense_counts_reach_and_cross_u32_max_exactly() {
    let max = u32::MAX as u64;
    let mut h = IdleHistogram::new(4096);
    let mut d = Dense::new(4096);
    // `record_n` to exactly `u32::MAX`, one more to 2³², then past 2³³.
    for n in [max, 1, max, max + 2] {
        h.record_n(5, n);
        d.record_n(5, n);
        assert_matches(&h, &d);
    }
    assert_eq!(h.iter_lengths().next(), Some((5, 3 * max + 3)));
    // One `record` at a time across the limit.
    h.record_n(9, max - 1);
    d.record_n(9, max - 1);
    for _ in 0..3 {
        h.record(9);
        d.record_n(9, 1);
        assert_matches(&h, &d);
    }

    // `merge`: bins each below the limit sum past it, carries add up,
    // and a histogram can merge a copy of itself.
    let mut m = IdleHistogram::new(4096);
    let mut dm = Dense::new(4096);
    m.record_n(9, max - 7);
    dm.record_n(9, max - 7);
    m.record_n(63, max);
    dm.record_n(63, max);
    m.merge(&h);
    dm.merge(&d);
    assert_matches(&m, &dm);
    let copy = m.clone();
    m.merge(&copy);
    dm.merge(&dm.clone());
    assert_matches(&m, &dm);
    // An empty histogram merging a carried one takes its carries.
    let mut e = IdleHistogram::new(4096);
    e.merge(&m);
    assert_eq!(e, m);

    // `merge_rebinned` into a cap that moves a carried length into the
    // overflow count, and into one that keeps it dense.
    for cap in [6, 100] {
        let mut r = IdleHistogram::new(cap);
        let mut dr = Dense::new(cap);
        r.record_n(5, max);
        dr.record_n(5, max);
        r.merge_rebinned(&m);
        dr.merge_rebinned(&dm);
        assert_matches(&r, &dr);
    }
}
