//! Live-heap gates for `Simulation::new` and `Simulation::try_run`.
//!
//! A counting global allocator keeps, per thread, the number of heap
//! bytes that thread has live and their peak. The construction gate
//! reads the heap `Simulation::new` leaves live, per router. Each run
//! point reads the peak that `try_run` reaches above what was live when
//! it started, which covers the statistics record (idle histograms
//! included), the input-ring blocks routers take while they buffer
//! flits, the source queues they take while packets wait, and every
//! transient buffer of the run. On one tile and one thread the
//! run allocates only on the calling thread and its allocation sequence
//! is a pure function of the configuration, so unlike a process's RSS
//! (which also holds heap the allocator kept from earlier work) the
//! reading is exact and repeatable, and a layout change that costs
//! memory shows up here byte for byte.

use leakage_noc::netsim::{MeshConfig, SimKernel, Simulation, SleepConfig, TrafficPattern};
use leakage_noc::power::gating::GatingPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's live bytes and their
/// high-water mark.
struct Counting;

thread_local! {
    // Const-initialized and without a destructor, so reading them
    // never allocates (and so never re-enters the allocator).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `bytes` (negative for a release) to this thread's live count.
fn account(bytes: isize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged and returns its result; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: as for the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    // SAFETY: as for the impl.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    // SAFETY: as for the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as isize));
    }

    // SAFETY: as for the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(-(layout.size() as isize));
            account(new_size as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

// The bounds: readings of the current code plus a 10 % margin. The
// gated 32×32 point reads 2 826 772 B, the sparse one 533 268 B and
// the 16×16 one 1 724 700 B. `Simulation::new` at 128×128 leaves 316 B
// per router at one VC and 466 B at two ungated, 356 B and 546 B gated
// (an ungated network allocates no sleep FSMs), and 372 395 368 B at
// 1024×1024, one VC, gated.
//
// History. While every router kept a 72-byte `Router` with its own lane
// box, 24-byte lanes, 32-bit credits, 12-byte FSMs, a neighbour table
// and its own source `VecDeque`, construction read 518 B and 778 B per
// router whether gated or not, and the three run points read
// 2 956 100 B, 644 596 B and 1 718 668 B: the 16×16 point now pays
// for the pool's queue headers inside `try_run`, which construction no
// longer holds. The first two read 16 384 B more (2 972 484 B and
// 660 980 B) while the time wheel re-slotted its overflow through a
// 1 024-event rebase buffer. While every touched router held a full
// row of idle histograms they read 3 344 836 B, 1 136 116 B and
// 1 729 644 B, so the sparse point fails under whole-row records. The
// gated 32×32 and 16×16 points read 3 562 728 B and 2 026 856 B while
// every router owned its input rings from construction and idle bins
// held 8-byte counts, and the gated 32×32 point read 131 838 616 B
// before the idle histograms kept long lengths in a sorted list.
// Construction read 1 006 B and 1 746 B per router with eager rings. A
// change that lowers a reading should lower its bound with it.
const BOUND_SPARSE: isize = 3_110_000;
const BOUND_SPARSE_LEAP: isize = 587_000;
const BOUND_SATURATED: isize = 1_890_000;
const BOUND_NEW_V1: isize = 348;
const BOUND_NEW_V2: isize = 513;
const BOUND_NEW_V1_GATED: isize = 392;
const BOUND_NEW_V2_GATED: isize = 601;
/// The million-router build's ceiling: 400 MB.
const BOUND_NEW_1024: isize = 400_000_000;

/// Peak live heap of this thread during `try_run(warmup, measure)`
/// above the heap it had live when the run started, in bytes.
fn try_run_high_water(cfg: MeshConfig, warmup: u64, measure: u64) -> isize {
    let mut sim = Simulation::new(cfg);
    let before = LIVE.get();
    PEAK.set(before);
    let stats = sim.try_run(warmup, measure).expect("run completes");
    let peak = PEAK.get();
    assert!(stats.packets_delivered > 0);
    peak - before
}

#[test]
fn try_run_live_heap_stays_under_recorded_bounds() {
    let gating = Some(SleepConfig {
        policy: GatingPolicy::IdleThreshold(4),
        wake_latency: 2,
    });
    let one_tile = MeshConfig {
        vcs: 2,
        kernel: SimKernel::Engine,
        shards: 1,
        threads: 1,
        gating,
        ..MeshConfig::default()
    };
    // (name, config, warm-up, measured cycles, bound in bytes).
    let points = [
        (
            "gated 32x32 nearest neighbour",
            MeshConfig {
                width: 32,
                height: 32,
                injection_rate: 0.002,
                pattern: TrafficPattern::NearestNeighbor,
                seed: 7,
                ..one_tile.clone()
            },
            500,
            20_000,
            BOUND_SPARSE,
        ),
        (
            "sparse gated 32x32 nearest neighbour",
            MeshConfig {
                width: 32,
                height: 32,
                injection_rate: 2e-5,
                pattern: TrafficPattern::NearestNeighbor,
                seed: 5,
                ..one_tile.clone()
            },
            1_000,
            100_000,
            BOUND_SPARSE_LEAP,
        ),
        (
            "saturated 16x16 uniform",
            MeshConfig {
                width: 16,
                height: 16,
                injection_rate: 0.08,
                pattern: TrafficPattern::UniformRandom,
                seed: 11,
                ..one_tile
            },
            300,
            3_000,
            BOUND_SATURATED,
        ),
    ];
    let mut over = Vec::new();
    for (name, cfg, warmup, measure, bound) in points {
        let got = try_run_high_water(cfg, warmup, measure);
        eprintln!("{name}: try_run live-heap high-water {got} B (bound {bound} B)");
        if got > bound {
            over.push(format!("{name}: {got} B > {bound} B"));
        }
    }
    assert!(over.is_empty(), "live heap over its bound: {over:?}");
}

/// Live heap that `Simulation::new` leaves on this thread, per router.
fn construction_bytes_per_router(cfg: MeshConfig) -> isize {
    construction_bytes(cfg.clone()) / (cfg.width * cfg.height) as isize
}

/// Live heap that `Simulation::new` leaves on this thread, in bytes.
fn construction_bytes(cfg: MeshConfig) -> isize {
    let before = LIVE.get();
    let sim = Simulation::new(cfg);
    let live = LIVE.get() - before;
    drop(sim);
    live
}

/// A one-tile `side`×`side` nearest-neighbour network at 2e-6, gated
/// like `noc_sparse_leap` or not at all.
fn construction_cfg(side: usize, vcs: usize, gated: bool) -> MeshConfig {
    MeshConfig {
        width: side,
        height: side,
        vcs,
        injection_rate: 2e-6,
        pattern: TrafficPattern::NearestNeighbor,
        seed: 3,
        kernel: SimKernel::Engine,
        shards: 1,
        threads: 1,
        gating: gated.then_some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(4),
            wake_latency: 2,
        }),
        ..MeshConfig::default()
    }
}

#[test]
fn construction_live_heap_per_router_stays_under_recorded_bounds() {
    let mut over = Vec::new();
    for (vcs, gated, bound) in [
        (1, false, BOUND_NEW_V1),
        (2, false, BOUND_NEW_V2),
        (1, true, BOUND_NEW_V1_GATED),
        (2, true, BOUND_NEW_V2_GATED),
    ] {
        let got = construction_bytes_per_router(construction_cfg(128, vcs, gated));
        let gating = if gated { "gated" } else { "ungated" };
        eprintln!(
            "128x128, {vcs} VC(s), {gating}: Simulation::new leaves {got} B/router (bound {bound} B)"
        );
        if got > bound {
            over.push(format!("{vcs} VC(s), {gating}: {got} B/router > {bound} B"));
        }
    }
    assert!(
        over.is_empty(),
        "construction heap over its bound: {over:?}"
    );
}

/// A million gated routers at one VC build in under 400 MB. Ignored by
/// default (the build itself takes that much memory and ~1 s); CI's
/// release heap-gate step runs it with `--include-ignored`.
#[test]
#[ignore = "allocates ~0.4 GB; run with --include-ignored"]
fn million_router_construction_stays_under_400_mb() {
    let got = construction_bytes(construction_cfg(1024, 1, true));
    eprintln!("1024x1024, 1 VC, gated: Simulation::new leaves {got} B");
    assert!(got < BOUND_NEW_1024, "{got} B >= {BOUND_NEW_1024} B");
}
