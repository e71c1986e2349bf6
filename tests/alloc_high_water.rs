//! Live-heap gates for `Simulation::new` and `Simulation::try_run`.
//!
//! A counting global allocator keeps, per thread, the number of heap
//! bytes that thread has live and their peak. The construction gate
//! reads the heap `Simulation::new` leaves live, per router. Each run
//! point reads the peak that `try_run` reaches above what was live when
//! it started, which covers the statistics record (idle histograms
//! included), the input-ring blocks routers take while they buffer
//! flits, and every transient buffer of the run. On one tile and one thread the
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
// gated 32×32 point reads 2 956 100 B, the sparse one 644 596 B and
// the 16×16 one 1 718 668 B. The first two read 16 384 B more (2 972 484
// B and 660 980 B) while the time wheel re-slotted its overflow through
// a 1 024-event rebase buffer. While every touched router held a full
// row of idle histograms they read 3 344 836 B, 1 136 116 B and
// 1 729 644 B, so the sparse point fails under whole-row records. The
// gated 32×32 and 16×16 points read 3 562 728 B and 2 026 856 B while
// every router owned its input rings from construction and idle bins
// held 8-byte counts, and the gated 32×32 point read 131 838 616 B
// before the idle histograms kept long lengths in a sorted list.
// `Simulation::new` at 128×128 leaves 518 B per router at one VC and
// 778 B at two (1 006 B and 1 746 B with eager rings). A change that
// lowers a reading should lower its bound with it.
const BOUND_SPARSE: isize = 3_252_000;
const BOUND_SPARSE_LEAP: isize = 709_000;
const BOUND_SATURATED: isize = 1_890_000;
const BOUND_NEW_V1: isize = 570;
const BOUND_NEW_V2: isize = 856;

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
    let n = (cfg.width * cfg.height) as isize;
    let before = LIVE.get();
    let sim = Simulation::new(cfg);
    let live = LIVE.get() - before;
    drop(sim);
    live / n
}

#[test]
fn construction_live_heap_per_router_stays_under_recorded_bounds() {
    let mut over = Vec::new();
    for (vcs, bound) in [(1, BOUND_NEW_V1), (2, BOUND_NEW_V2)] {
        let cfg = MeshConfig {
            width: 128,
            height: 128,
            vcs,
            injection_rate: 2e-6,
            pattern: TrafficPattern::NearestNeighbor,
            seed: 3,
            kernel: SimKernel::Engine,
            shards: 1,
            threads: 1,
            ..MeshConfig::default()
        };
        let got = construction_bytes_per_router(cfg);
        eprintln!("128x128, {vcs} VC(s): Simulation::new leaves {got} B/router (bound {bound} B)");
        if got > bound {
            over.push(format!("{vcs} VC(s): {got} B/router > {bound} B"));
        }
    }
    assert!(
        over.is_empty(),
        "construction heap over its bound: {over:?}"
    );
}
