//! The real (production) side of the [`crate::sync`] facade: thin
//! re-exports of the `std` primitives plus the spin-wait helper.
//!
//! This file is the one place in the workspace allowed to name
//! `std::sync::atomic` types (the `atomic-outside-facade` lint rule
//! enforces it); everything else goes through the facade so the
//! `model` feature can swap in the instrumented shadow versions.

pub use std::sync::atomic::{AtomicBool, AtomicU64};
pub use std::sync::Mutex;

/// Spins (briefly) and then yields until `cond` returns `true`.
///
/// The condition is re-evaluated every iteration, so eventual
/// visibility of the store that satisfies it is all that is required
/// of the caller's memory orderings. Under the `model` feature this
/// helper is replaced by a scheduler-aware version that blocks the
/// model thread instead of burning schedule steps
/// (`super::shadow::spin_until`).
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins = spins.saturating_add(1);
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}
