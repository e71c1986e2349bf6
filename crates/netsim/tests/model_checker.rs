//! Schedule-exploring model-checker tests for the `netsim::sync`
//! primitives (`cargo test -p lnoc-netsim --features model`).
//!
//! Positive tests prove the protocol: for 2 shards every schedule (and
//! every value a weak load may observe) is explored exhaustively; for
//! 3 shards exploration is CHESS-style preemption-bounded. Negative
//! tests prove the checker has teeth: each seeded mutation of the
//! barrier (a removed release edge, a removed acquire edge, a cut
//! release-sequence chain, a skipped generation bump) and a frozen
//! mailbox parity must be detected as a failing schedule.

#![cfg(feature = "model")]

use lnoc_netsim::sync::model::Explorer;
use lnoc_netsim::sync::{BarrierMutation, Mailboxes, ShardSlots, SlotReport, SpinBarrier};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A barrier plus per-shard report slots — the exact shape of the
/// engine's compute→exchange handoff.
struct BarrierRig {
    barrier: SpinBarrier,
    slots: Vec<ShardSlots>,
}

fn rig(n: usize, mutation: BarrierMutation) -> BarrierRig {
    BarrierRig {
        barrier: SpinBarrier::with_mutation(n, mutation),
        slots: (0..n).map(|_| ShardSlots::default()).collect(),
    }
}

/// The report shard `tid` publishes in `round`: every field distinct
/// per shard and round, so any stale or torn read is caught.
fn report(tid: usize, round: u64) -> SlotReport {
    SlotReport {
        stalled: Some(round * 10 + tid as u64 + 7),
        wake_at: 1_000 + round * 10 + tid as u64,
    }
}

/// One watchdog/leap round: publish the whole report, cross the
/// barrier, check that every *peer* shard's publication is visible —
/// the invariant the global watchdog and leap decisions rest on. (A
/// shard's own slots are trivially fresh, so reading them back would
/// only inflate the schedule space without adding coverage.) Any stale
/// read fails the round.
fn watchdog_round(state: &BarrierRig, tid: usize, round: u64) {
    let parity = (round % 2) as usize;
    state.slots[tid].publish(parity, report(tid, round));
    state.barrier.wait();
    for (peer, slots) in state.slots.iter().enumerate() {
        if peer == tid {
            continue;
        }
        let got = slots.read(parity);
        let want = report(peer, round);
        assert_eq!(
            got.stalled, want.stalled,
            "stale stall slot crossed the barrier"
        );
        assert_eq!(
            got.wake_at, want.wake_at,
            "stale wake slot crossed the barrier"
        );
    }
}

#[test]
fn slots_publish_visible_after_barrier_two_shards_exhaustive() {
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::None),
        |state, tid| watchdog_round(state, tid, 0),
    );
    report.assert_passed();
    assert!(
        report.executions > 50,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

#[test]
fn slots_publish_visible_after_barrier_three_shards_bounded() {
    let report = Explorer::with_preemption_bound(2).check(
        3,
        || rig(3, BarrierMutation::None),
        |state, tid| watchdog_round(state, tid, 0),
    );
    report.assert_passed();
    assert!(
        report.executions > 100,
        "expected a real schedule space, explored only {}",
        report.executions
    );
}

#[test]
fn barrier_two_rounds_no_lost_flip() {
    // Two consecutive crossings: the count reset (Relaxed, ordered by
    // the Release publish) must leave round 2 starting from zero, and
    // no generation flip may be lost between rounds.
    let report = Explorer::with_preemption_bound(3).check(
        2,
        || rig(2, BarrierMutation::None),
        |state, tid| {
            watchdog_round(state, tid, 0);
            watchdog_round(state, tid, 1);
        },
    );
    report.assert_passed();
}

#[test]
fn poison_unblocks_every_waiter() {
    // Thread 0 never joins the barrier — it poisons instead (what
    // PoisonGuard does when a worker unwinds). In *every* schedule the
    // waiters must panic out of `wait` rather than deadlock.
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::None),
        |state, tid| {
            if tid == 0 {
                state.barrier.poison();
            } else {
                let caught = catch_unwind(AssertUnwindSafe(|| state.barrier.wait()));
                assert!(caught.is_err(), "waiter crossed a poisoned barrier");
            }
        },
    );
    report.assert_passed();
}

#[test]
fn poison_unblocks_every_waiter_three_shards() {
    let report = Explorer::with_preemption_bound(2).check(
        3,
        || rig(3, BarrierMutation::None),
        |state, tid| {
            if tid == 0 {
                state.barrier.poison();
            } else {
                let caught = catch_unwind(AssertUnwindSafe(|| state.barrier.wait()));
                assert!(caught.is_err(), "waiter crossed a poisoned barrier");
            }
        },
    );
    report.assert_passed();
}

/// Two shards exchanging one message per cycle through the
/// double-buffered mailboxes, parity-switching each cycle — the claim
/// under test is that *one* barrier per cycle is enough because the
/// parity a shard refills is never the parity its peer is draining.
struct MailRig {
    barrier: SpinBarrier,
    mail: Mailboxes<u64>,
    freeze_parity: bool,
}

fn mail_round(state: &MailRig, tid: usize) {
    let peer = 1 - tid;
    let mut staged: Vec<u64> = Vec::new();
    let mut drained: Vec<u64> = Vec::new();
    for cycle in 1..=2u64 {
        let parity = if state.freeze_parity {
            0
        } else {
            (cycle % 2) as usize
        };
        staged.push(tid as u64 * 100 + cycle);
        let (_, out_bx) = state.mail.outboxes(tid)[0];
        state.mail.send(out_bx, parity, &mut staged);
        state.barrier.wait();
        let (_, in_bx) = state.mail.inboxes(tid)[0];
        state.mail.receive(in_bx, parity, &mut drained);
        assert_eq!(
            drained.as_slice(),
            &[peer as u64 * 100 + cycle],
            "torn or stale mailbox read"
        );
        drained.clear();
    }
}

#[test]
fn mailbox_parity_roundtrip_never_tears() {
    let report = Explorer::with_preemption_bound(3).check(
        2,
        || MailRig {
            barrier: SpinBarrier::new(2),
            mail: Mailboxes::from_edges(2, &[(0, 1, 1), (1, 0, 1)]),
            freeze_parity: false,
        },
        mail_round,
    );
    report.assert_passed();
}

#[test]
fn detects_frozen_mailbox_parity() {
    // Collapse the double-buffering to a single parity: a shard that
    // races ahead now refills the very box its peer is still draining.
    // The checker must find the schedule where the send hits an
    // undrained box (the emptiness invariant the real kernel asserts).
    let report = Explorer::with_preemption_bound(3).check(
        2,
        || MailRig {
            barrier: SpinBarrier::new(2),
            mail: Mailboxes::from_edges(2, &[(0, 1, 1), (1, 0, 1)]),
            freeze_parity: true,
        },
        mail_round,
    );
    report.assert_failed("drained");
}

#[test]
fn detects_skipped_generation_bump() {
    // The lost flip leaves every waiter spinning on a generation that
    // will never advance: a deadlock in every schedule.
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::SkipGenerationBump),
        |state, tid| watchdog_round(state, tid, 0),
    );
    report.assert_failed("deadlock");
}

#[test]
fn detects_relaxed_generation_store() {
    // Removed release edge (publisher side): waiters cross the barrier
    // without inheriting the publishers' slot stores.
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::RelaxedGenerationStore),
        |state, tid| watchdog_round(state, tid, 0),
    );
    let f = report.assert_failed("stale");
    assert!(!f.trace.is_empty(), "counterexample must carry a trace");
}

#[test]
fn detects_relaxed_spin_load() {
    // Removed acquire edge (waiter side): same stale reads, other half
    // of the release/acquire pair.
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::RelaxedSpinLoad),
        |state, tid| watchdog_round(state, tid, 0),
    );
    report.assert_failed("stale");
}

#[test]
fn detects_relaxed_arrival() {
    // Cut release-sequence chain through the arrival counter: the last
    // arriver crosses without its peers' stores.
    let report = Explorer::exhaustive().check(
        2,
        || rig(2, BarrierMutation::RelaxedArrival),
        |state, tid| watchdog_round(state, tid, 0),
    );
    report.assert_failed("stale");
}

/// One engine step's leap decision, as every worker takes it: the
/// earliest wake cycle over all shards' reports (own slot included),
/// read after the barrier.
fn leap_decision(state: &BarrierRig, parity: usize) -> u64 {
    state
        .slots
        .iter()
        .map(|s| s.read(parity).wake_at)
        .min()
        .expect("at least one shard")
}

#[test]
fn leap_decision_is_global_across_consecutive_steps() {
    // Two consecutive executed steps, parity flipping per step (as the
    // engine does across a leap): each round every shard publishes a
    // different wake cycle, and every shard must reduce them to the
    // same decision. A stale slot from the previous step, or a store
    // racing a peer's read through a reused parity, would split it.
    let wake = |tid: usize, round: u64| 50 + round * 20 - tid as u64;
    let report = Explorer::with_preemption_bound(2).check(
        2,
        || rig(2, BarrierMutation::None),
        move |state, tid| {
            for round in 0..2u64 {
                let parity = (round % 2) as usize;
                state.slots[tid].publish(
                    parity,
                    SlotReport {
                        wake_at: wake(tid, round),
                        ..SlotReport::default()
                    },
                );
                state.barrier.wait();
                assert_eq!(
                    leap_decision(state, parity),
                    wake(1, round),
                    "shards disagree on the leap decision"
                );
            }
        },
    );
    report.assert_passed();
}
