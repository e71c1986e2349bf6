//! Calendar-queue time wheel for the engine's injection scheduler.
//!
//! [`TimeWheel`] holds at most one pending wake per router — the next
//! predicted injection arrival — keyed by absolute cycle. The hot
//! operations are O(1): scheduling into the slot ring, draining the
//! events due at the current cycle, and (via an occupancy bitmap)
//! finding the next scheduled cycle so the engine knows how far it may
//! leap. Events beyond the ring's window park in an overflow min-heap
//! and enter the ring when the window advances over them.
//!
//! Overflow is the common case where the engine leaps: a source's mean
//! arrival gap is `1/rate` cycles, so at 2e-6 almost every parked event
//! lies far past the window. The heap keeps that cheap — an event costs
//! O(log parked) once on the way in and once on the way out — and a
//! rebase touches only the slot-resident events and the heap events
//! that fall inside the new window, never the whole parked set.
//!
//! Slots are **intrusive lists**: one `head` entry per slot plus one
//! `next` link per event id. Because an id is scheduled at most once at
//! a time, the links never alias, so the slot ring's memory is fixed at
//! construction; only the overflow heap grows, and it keeps its
//! capacity across runs.
//!
//! Everything here is deterministic: slot order is canonicalized by
//! sorting drained ids, the heap orders by `(cycle, id)`, there is no
//! hashing and no wall clock, so the wheel never perturbs the
//! bit-identical-stats contract.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Slot-ring length (cycles representable without overflow). At rates
/// above ~2.5e-4 (mean arrival gaps under 4 096 cycles) most events
/// land in the ring; below that most park in the overflow heap.
const SLOTS: usize = 4096;

/// End-of-list marker for the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// A calendar queue over absolute cycles, holding `u32` event ids in
/// `0..ids` (local router indices), each scheduled at most once at a
/// time.
pub(crate) struct TimeWheel {
    /// Cycle of slot 0. Advances monotonically on rebase.
    base: u64,
    /// Lower bound on schedulable cycles: everything below has been
    /// drained. Draining cycle `c` raises the floor to `c + 1`.
    floor: u64,
    /// First id of each slot's list (`NIL` = empty), slot `i` holding
    /// cycle `base + i`.
    head: Vec<u32>,
    /// Per-id link to the next id in the same slot.
    next: Vec<u32>,
    /// Occupancy bitmap over slots (bit set ⇔ slot non-empty), so
    /// next-event queries scan 64 slots per word.
    occ: Vec<u64>,
    /// Events at cycles `≥ base + SLOTS`, earliest on top; each enters
    /// the ring on the rebase whose window first covers its cycle.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Total events currently scheduled.
    scheduled: usize,
}

impl fmt::Debug for TimeWheel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeWheel")
            .field("base", &self.base)
            .field("floor", &self.floor)
            .field("scheduled", &self.scheduled)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl TimeWheel {
    /// An empty wheel for ids `0..ids` whose window starts at `now`
    /// (the first schedulable cycle).
    pub(crate) fn new(now: u64, ids: usize) -> Self {
        TimeWheel {
            base: now,
            floor: now,
            head: vec![NIL; SLOTS],
            next: vec![NIL; ids],
            occ: vec![0; SLOTS / 64],
            overflow: BinaryHeap::new(),
            scheduled: 0,
        }
    }

    /// Empties the wheel and restarts its window at `now`, keeping
    /// every allocation. O(occupied words + overflow).
    pub(crate) fn reset(&mut self, now: u64) {
        for w in 0..self.occ.len() {
            let mut word = std::mem::take(&mut self.occ[w]);
            while word != 0 {
                self.head[w * 64 + word.trailing_zeros() as usize] = NIL;
                word &= word - 1;
            }
        }
        self.overflow.clear();
        self.scheduled = 0;
        self.base = now;
        self.floor = now;
    }

    /// Events currently scheduled.
    pub(crate) fn len(&self) -> usize {
        self.scheduled
    }

    /// Schedules event `id` at absolute `cycle`.
    ///
    /// `cycle` must be at or above the floor (nothing may be scheduled
    /// into the drained past), and `id` must not already be scheduled.
    pub(crate) fn schedule(&mut self, cycle: u64, id: u32) {
        debug_assert!(
            cycle >= self.floor,
            "scheduling into the drained past: cycle {cycle} < floor {}",
            self.floor
        );
        self.scheduled += 1;
        if cycle < self.base + SLOTS as u64 {
            self.link((cycle - self.base) as usize, id);
        } else {
            self.overflow.push(Reverse((cycle, id)));
        }
    }

    /// Pushes `id` onto slot `i`'s list.
    fn link(&mut self, i: usize, id: u32) {
        self.next[id as usize] = self.head[i];
        self.head[i] = id;
        self.occ[i / 64] |= 1u64 << (i % 64);
    }

    /// Unlinks slot `i`'s whole list, handing each id to `push`.
    fn take_slot(&mut self, i: usize, mut push: impl FnMut(u32)) {
        self.occ[i / 64] &= !(1u64 << (i % 64));
        let mut id = std::mem::replace(&mut self.head[i], NIL);
        while id != NIL {
            push(id);
            self.scheduled -= 1;
            id = self.next[id as usize];
        }
    }

    /// Removes every event due at exactly `cycle`, appending the ids to
    /// `out` in ascending order, and raises the floor past `cycle`.
    /// Cycles must be drained in nondecreasing order.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        debug_assert!(cycle >= self.floor, "draining cycles out of order");
        // Every overflow event lies past the window, so only a clock at
        // or past the window's edge can be due one.
        if cycle >= self.base + SLOTS as u64 {
            // Pull the window forward so due and near-future events are
            // slot-resident. Rebasing to the drained cycle keeps
            // `base ≤ floor`, so later schedules never land below the
            // window. (The floor rises only afterwards: rebasing slots
            // the events due at `cycle` itself.)
            self.rebase(cycle);
        }
        self.floor = cycle + 1;
        let i = (cycle - self.base) as usize;
        if self.occ[i / 64] & (1u64 << (i % 64)) != 0 {
            let start = out.len();
            self.take_slot(i, |id| out.push(id));
            // Canonical firing order regardless of insertion order.
            out[start..].sort_unstable();
        }
    }

    /// The earliest scheduled cycle at or after `from`, if any.
    pub(crate) fn next_event(&self, from: u64) -> Option<u64> {
        if self.scheduled == 0 {
            return None;
        }
        let lo = from.max(self.base);
        if lo < self.base + SLOTS as u64 {
            if let Some(i) = self.scan_occupied((lo - self.base) as usize) {
                let hit = self.base + i as u64;
                // An occupied slot below `from` would mean undrained
                // past events — the drain order contract forbids it.
                debug_assert!(hit >= from);
                return Some(hit);
            }
        }
        // Every slot-resident event has been ruled out, so the answer
        // is the overflow minimum (always past the window, hence past
        // any slot hit; `drain_due` keeps it out of the drained past).
        let &Reverse((min, _)) = self.overflow.peek()?;
        debug_assert!(min >= from, "undrained overflow events");
        Some(min)
    }

    /// First occupied slot index `≥ i0`, via the occupancy bitmap.
    fn scan_occupied(&self, i0: usize) -> Option<usize> {
        let mut w = i0 / 64;
        let mut word = self.occ[w] & (!0u64 << (i0 % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.occ.len() {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Moves the window so slot 0 is `new_base`, then moves the
    /// overflow events the new window covers from the heap into their
    /// slots. The drain calls it only once the clock has passed the
    /// window, and every slot below the clock has been drained, so no
    /// slot-resident event is left to move. O(entering events × log
    /// parked).
    fn rebase(&mut self, new_base: u64) {
        debug_assert!(
            new_base >= self.base + SLOTS as u64,
            "the window moves only once the clock has passed it"
        );
        debug_assert!(
            self.occ.iter().all(|&w| w == 0),
            "rebasing past a live event"
        );
        self.base = new_base;
        let end = new_base + SLOTS as u64;
        while let Some(&Reverse((cy, id))) = self.overflow.peek() {
            if cy >= end {
                break;
            }
            self.overflow.pop();
            self.link((cy - new_base) as usize, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model oracle: a plain sorted list of (cycle, id) pairs.
    #[derive(Default)]
    struct Model {
        events: Vec<(u64, u32)>,
    }

    impl Model {
        fn schedule(&mut self, cycle: u64, id: u32) {
            self.events.push((cycle, id));
        }
        fn drain_due(&mut self, cycle: u64) -> Vec<u32> {
            let mut due: Vec<u32> = self
                .events
                .iter()
                .filter(|&&(c, _)| c == cycle)
                .map(|&(_, id)| id)
                .collect();
            due.sort_unstable();
            self.events.retain(|&(c, _)| c != cycle);
            due
        }
        fn next_event(&self, from: u64) -> Option<u64> {
            self.events
                .iter()
                .map(|&(c, _)| c)
                .filter(|&c| c >= from)
                .min()
        }
    }

    #[test]
    fn drains_in_ascending_id_order() {
        let mut w = TimeWheel::new(0, 16);
        w.schedule(5, 9);
        w.schedule(5, 2);
        w.schedule(5, 7);
        let mut out = Vec::new();
        w.drain_due(5, &mut out);
        assert_eq!(out, vec![2, 7, 9]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn next_event_scans_past_empty_slots() {
        let mut w = TimeWheel::new(100, 16);
        w.schedule(100, 1);
        w.schedule(103, 2);
        w.schedule(4000, 3);
        assert_eq!(w.next_event(100), Some(100));
        let mut out = Vec::new();
        w.drain_due(100, &mut out);
        assert_eq!(w.next_event(101), Some(103));
        out.clear();
        w.drain_due(103, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(w.next_event(104), Some(4000));
    }

    #[test]
    fn overflow_events_come_back_on_rebase() {
        let mut w = TimeWheel::new(0, 16);
        // Far beyond the slot window: must park in overflow…
        w.schedule(3 * SLOTS as u64, 7);
        w.schedule(10 * SLOTS as u64 + 5, 8);
        assert_eq!(w.len(), 2);
        // …and surface exactly through the next-event query.
        assert_eq!(w.next_event(0), Some(3 * SLOTS as u64));
        let mut out = Vec::new();
        w.drain_due(3 * SLOTS as u64, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(
            w.next_event(3 * SLOTS as u64 + 1),
            Some(10 * SLOTS as u64 + 5)
        );
        out.clear();
        w.drain_due(10 * SLOTS as u64 + 5, &mut out);
        assert_eq!(out, vec![8]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_event(0), None);
    }

    #[test]
    fn reset_empties_and_rebases_the_window() {
        let mut w = TimeWheel::new(0, 16);
        w.schedule(3, 1);
        w.schedule(SLOTS as u64 * 2, 2);
        w.reset(50);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_event(50), None);
        w.schedule(50, 1);
        w.schedule(52, 2);
        let mut out = Vec::new();
        w.drain_due(50, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(w.next_event(51), Some(52));
    }

    #[test]
    fn drain_through_overflow_without_query() {
        // A drain may land directly on an overflow cycle (the kernel
        // steps cycle by cycle through a congested span).
        let mut w = TimeWheel::new(0, 16);
        let far = SLOTS as u64 + 17;
        w.schedule(far, 4);
        let mut out = Vec::new();
        w.drain_due(far, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn matches_model_on_mixed_schedule() {
        // Deterministic pseudo-random workload (LCG — no wall clocks,
        // no external entropy) interleaving schedules, drains and
        // queries, checked against the sorted-list oracle.
        let mut w = TimeWheel::new(0, 20_000);
        let mut m = Model::default();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut out = Vec::new();
        for step in 0..20_000u32 {
            if lcg() % 3 > 0 {
                let cycle = now + lcg() % (SLOTS as u64 * 3);
                w.schedule(cycle, step);
                m.schedule(cycle, step);
            }
            assert_eq!(w.next_event(now), m.next_event(now), "query at {now}");
            out.clear();
            w.drain_due(now, &mut out);
            assert_eq!(out, m.drain_due(now), "drain at {now}");
            assert_eq!(w.len(), m.events.len());
            // Advance one cycle, or leap — like the kernel, never past
            // a scheduled event (cycles must be drained in order).
            let gap = match lcg() % 13 {
                0 => 1 + lcg() % (SLOTS as u64 * 2),
                _ => 1 + lcg() % 3,
            };
            let mut target = now + gap;
            if let Some(e) = w.next_event(now + 1) {
                target = target.min(e);
            }
            now = target;
        }
    }

    #[test]
    fn matches_model_at_sparse_gaps() {
        // The regime the engine leaps through: ~500 000-cycle mean gaps
        // over 16 384 ids, so nearly every event parks in overflow, the
        // clock leaps straight onto overflow cycles, and the window
        // rebases every ~130 events.
        const IDS: u32 = 16_384;
        let mut w = TimeWheel::new(0, IDS as usize);
        let mut m = Model::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for id in 0..IDS {
            let cycle = lcg() % 1_000_000;
            w.schedule(cycle, id);
            m.schedule(cycle, id);
        }
        let mut now = 0u64;
        let mut out = Vec::new();
        let mut rebases = 0;
        for _ in 0..8_000 {
            let next = w.next_event(now);
            assert_eq!(next, m.next_event(now), "query at {now}");
            // Leap onto the next event, or now and then step one cycle
            // (never past an undrained event).
            now = match lcg() % 8 {
                0 if next != Some(now) => now + 1,
                _ => next.expect("every fired id is rescheduled"),
            };
            let base = w.base;
            out.clear();
            w.drain_due(now, &mut out);
            let due = m.drain_due(now);
            assert_eq!(out, due, "drain at {now}");
            if w.base != base {
                rebases += 1;
                let end = w.base + SLOTS as u64;
                assert!(
                    w.overflow.iter().all(|&Reverse((cy, _))| cy >= end),
                    "an event inside the window stayed parked after the rebase to {}",
                    w.base
                );
            }
            for &id in &due {
                let cycle = now + 1 + lcg() % 1_000_000;
                w.schedule(cycle, id);
                m.schedule(cycle, id);
            }
            assert_eq!(w.len(), m.events.len());
        }
        assert!(rebases >= 60, "only {rebases} rebases");
    }
}
