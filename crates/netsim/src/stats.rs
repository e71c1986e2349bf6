//! Network statistics: latency, throughput, activity, idle-interval
//! histograms and in-loop gating counters.

use lnoc_power::gating::{GatingCounters, IdleHistogram};
use lnoc_power::router::RouterActivity;
use serde::{Deserialize, Serialize};

/// Aggregate results of one simulation run (measurement phase only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Cycles in the measurement phase.
    pub measured_cycles: u64,
    /// Packets injected during measurement.
    pub packets_injected: u64,
    /// Packets the traffic pattern offered during measurement that were
    /// rejected because the node's source queue was at
    /// [`crate::MeshConfig::source_queue_cap`]. Dropped packets
    /// never enter the network, so flit conservation stays exact.
    pub packets_dropped_at_source: u64,
    /// Packets fully delivered during measurement.
    pub packets_delivered: u64,
    /// Flits delivered during measurement.
    pub flits_delivered: u64,
    /// Sum of packet latencies (injection → tail ejection), cycles.
    pub latency_sum: u64,
    /// Max packet latency seen.
    pub latency_max: u64,
    /// Flits discarded at fault boundaries during measurement: every
    /// buffered or still-queued flit of a packet killed by a fault
    /// (dead router, torn worm, or a path change that would tear the
    /// worm). Each removal returns its buffer credit upstream, so flit
    /// conservation stays exact:
    /// `injected == delivered + in_flight + dropped_by_fault`.
    pub flits_dropped_by_fault: u64,
    /// Packets killed mid-flight by a fault during measurement
    /// (counted once, at the packet's source tile).
    pub packets_dropped_by_fault: u64,
    /// Packets abandoned because no surviving route to their
    /// destination existed — offered traffic whose destination was
    /// unreachable at injection time, plus queued-but-unsent packets
    /// discarded when a fault disconnected their destination.
    pub packets_unroutable: u64,
    /// Packets delivered at or after the first fault onset — with
    /// `latency_sum_post_fault`, the degraded-mode latency the sweep
    /// reports.
    pub packets_delivered_post_fault: u64,
    /// Sum of latencies of post-fault deliveries, cycles.
    pub latency_sum_post_fault: u64,
    /// Worst reachable-pair fraction over the run's fault epochs
    /// (`1.0` when no fault plan is active). Set by the runner after
    /// the shard merge; a pure function of the fault schedule.
    pub min_reachable_fraction: f64,
    /// Per-router activity counters.
    pub router_activity: Vec<RouterActivity>,
    /// Virtual channels per port the run was simulated with (the
    /// histograms below have `5 * vcs` entries per router).
    pub vcs: usize,
    /// Idle-interval histogram per router per output VC lane
    /// (`5 * vcs` per router, indexed `port * vcs + vc` with ports in
    /// [`crate::topology::Direction`] order), stored sparsely: a lane
    /// materializes on its first write and every other lane reads one
    /// shared default per lane position ([`IdleBank`]). Each histogram
    /// holds dense bins only for the short lengths it recorded, one
    /// entry per distinct longer length and its one open run inline, so
    /// a lane costs memory in proportion to what it recorded.
    #[serde(skip)]
    pub idle_histograms: IdleBank,
    /// Per-router in-loop gating counters (all output VC lanes
    /// summed); all-zero when the run was ungated.
    pub gating: Vec<GatingCounters>,
}

impl NetworkStats {
    /// Default idle-interval histogram cap: intervals *shorter* than
    /// this many cycles are counted exactly by length; intervals of
    /// this length and longer land in the overflow bin (which still
    /// tracks their exact total cycle count). Every simulation, test
    /// and sweep in the workspace uses this cap unless it has a reason
    /// not to, so their histograms merge on the exact same-cap fast
    /// path.
    pub const DEFAULT_IDLE_BINS: usize = 4096;

    /// Creates zeroed stats for `routers` routers with `vcs` virtual
    /// channels per port.
    pub fn new(routers: usize, vcs: usize, histogram_cap: usize) -> Self {
        NetworkStats {
            measured_cycles: 0,
            packets_injected: 0,
            packets_dropped_at_source: 0,
            packets_delivered: 0,
            flits_delivered: 0,
            latency_sum: 0,
            latency_max: 0,
            flits_dropped_by_fault: 0,
            packets_dropped_by_fault: 0,
            packets_unroutable: 0,
            packets_delivered_post_fault: 0,
            latency_sum_post_fault: 0,
            min_reachable_fraction: 1.0,
            router_activity: vec![RouterActivity::default(); routers],
            vcs,
            idle_histograms: IdleBank::new(routers, 5 * vcs, histogram_cap),
            gating: vec![GatingCounters::default(); routers],
        }
    }

    /// Appends the record of the tile covering the routers right after
    /// this one's: the reduction the tiled engine applies in ascending
    /// shard order (each shard records only its own routers, so its
    /// record stays proportional to the tile, not the network). Scalar
    /// counters add up (`measured_cycles` and `latency_max` take the
    /// maximum, `min_reachable_fraction` the minimum); per-router
    /// vectors are concatenated and materialized lane histograms moved,
    /// unmaterialized lanes staying on the shared default row (see
    /// [`IdleBank::append`]).
    ///
    /// # Panics
    ///
    /// Panics when the VC counts differ.
    pub fn append(&mut self, tile: NetworkStats) {
        assert_eq!(self.vcs, tile.vcs, "joining stats of different VC counts");
        self.measured_cycles = self.measured_cycles.max(tile.measured_cycles);
        self.packets_injected += tile.packets_injected;
        self.packets_dropped_at_source += tile.packets_dropped_at_source;
        self.packets_delivered += tile.packets_delivered;
        self.flits_delivered += tile.flits_delivered;
        self.latency_sum += tile.latency_sum;
        self.latency_max = self.latency_max.max(tile.latency_max);
        self.flits_dropped_by_fault += tile.flits_dropped_by_fault;
        self.packets_dropped_by_fault += tile.packets_dropped_by_fault;
        self.packets_unroutable += tile.packets_unroutable;
        self.packets_delivered_post_fault += tile.packets_delivered_post_fault;
        self.latency_sum_post_fault += tile.latency_sum_post_fault;
        self.min_reachable_fraction = self.min_reachable_fraction.min(tile.min_reachable_fraction);
        self.router_activity.extend(tile.router_activity);
        self.gating.extend(tile.gating);
        self.idle_histograms.append(tile.idle_histograms);
    }

    /// Mean packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.packets_delivered as f64
    }

    /// Mean latency (cycles) of packets delivered at or after the
    /// first fault onset — the degraded-mode latency.
    pub fn avg_latency_post_fault(&self) -> f64 {
        if self.packets_delivered_post_fault == 0 {
            return 0.0;
        }
        self.latency_sum_post_fault as f64 / self.packets_delivered_post_fault as f64
    }

    /// Delivered flits per router per cycle — the standard accepted
    /// throughput metric.
    pub fn throughput(&self) -> f64 {
        if self.measured_cycles == 0 || self.router_activity.is_empty() {
            return 0.0;
        }
        self.flits_delivered as f64
            / (self.measured_cycles as f64 * self.router_activity.len() as f64)
    }

    /// Merges all routers' per-port histograms into one network-wide
    /// distribution.
    ///
    /// When `cap` matches the per-port histogram cap this is a direct
    /// bin-wise merge; otherwise bins are re-recorded in O(bins) via
    /// [`IdleHistogram::merge_rebinned`] (never O(idle cycles)), which
    /// preserves interval counts and total idle cycles exactly either
    /// way.
    pub fn merged_idle_histogram(&self, cap: usize) -> IdleHistogram {
        let mut merged = IdleHistogram::new(cap);
        for r in 0..self.idle_histograms.routers() {
            for l in 0..self.idle_histograms.lanes() {
                merged.merge_rebinned(self.idle_histograms.lane(r, l));
            }
        }
        merged
    }

    /// Network-wide in-loop gating counters (all routers summed).
    pub fn total_gating_counters(&self) -> GatingCounters {
        let mut total = GatingCounters::default();
        for c in &self.gating {
            total.add(c);
        }
        total
    }

    /// Total cycles flits stalled behind sleeping ports — the measured
    /// latency cost of in-loop power gating.
    pub fn wake_stall_cycles(&self) -> u64 {
        self.gating.iter().map(|c| c.wake_stall_cycles).sum()
    }

    /// Network-wide crossbar-output utilization: fraction of
    /// router-output-cycles that carried a flit.
    pub fn crossbar_utilization(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        let traversals: u64 = self
            .router_activity
            .iter()
            .map(|a| a.crossbar_traversals)
            .sum();
        traversals as f64 / (self.measured_cycles as f64 * self.router_activity.len() as f64 * 5.0)
    }
}

/// Sparse `routers × lanes` bank of [`IdleHistogram`]s, materialized
/// lane by lane.
///
/// At the injection rates the leakage study sweeps, almost every lane's
/// histogram stays empty for the whole run except for the one trailing
/// open interval the close-out records — and that holds for most lanes
/// of the routers a run does touch, too. The bank keeps one
/// `default_row` of `lanes` histograms shared by every lane never
/// written, and gives a lane its own histogram (a copy of its default)
/// on the lane's first `lane_mut`. Construction is O(routers × lanes)
/// words of index, allocated zeroed, and the run's histogram memory is
/// proportional to the lanes actually written, not to the routers
/// touched. Materialized histograms live one per slot in fixed blocks
/// of 256 slots, allocated at full size: the bank grows a block at a
/// time, never doubling and copying one array of every slot, so a run
/// leaves no freed doubling-sized buffers behind in the heap.
///
/// [`IdleBank::record_open_untouched`] is the close-out's bulk path:
/// it appends one open interval to the shared default row, which every
/// still-unmaterialized lane then reports — O(lanes) for the whole
/// untouched population. Equality, merging and iteration are all
/// content-based: an unmaterialized lane behaves exactly as if it held
/// its default's contents.
#[derive(Debug, Clone, Default)]
pub struct IdleBank {
    routers: usize,
    lanes: usize,
    cap: usize,
    /// Per-lane slot id, indexed `router * lanes + lane`: 0 marks a
    /// lane still reading `default_row[lane]`, `s > 0` its own
    /// histogram in slot `s - 1`. Zero is the default so the index can
    /// be allocated zeroed: pages of lanes never written are never
    /// touched.
    idx: Vec<u32>,
    /// Materialized histograms in first-write order: slot `i` is entry
    /// `i % BLOCK_SLOTS` of block `i / BLOCK_SLOTS`. Every block but
    /// the last is full, and each is allocated at full size.
    blocks: Vec<Vec<IdleHistogram>>,
    /// Shared content of every unmaterialized lane, one histogram per
    /// lane position. Pristine until
    /// [`IdleBank::record_open_untouched`].
    default_row: Vec<IdleHistogram>,
}

impl IdleBank {
    /// Materialized histograms per block.
    const BLOCK_SLOTS: usize = 256;

    /// Creates a bank for `routers` routers with `lanes` histograms
    /// each, every histogram counting lengths below `cap` exactly.
    ///
    /// # Panics
    ///
    /// Panics when `routers × lanes` does not fit a `u32` (a simulated
    /// mesh is far below that: `MAX_ROUTERS` × 5 × `MAX_VCS` is ~671 M).
    pub fn new(routers: usize, lanes: usize, cap: usize) -> Self {
        let n = routers
            .checked_mul(lanes)
            .filter(|&n| u32::try_from(n).is_ok())
            .expect("routers × lanes fits u32");
        IdleBank {
            routers,
            lanes,
            cap,
            idx: vec![0; n],
            blocks: Vec::new(),
            default_row: (0..lanes).map(|_| IdleHistogram::new(cap)).collect(),
        }
    }

    /// Number of routers in the bank.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Histograms per router (`5 × vcs` in a simulation record).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of materialized lanes (lanes holding their own
    /// histogram).
    pub(crate) fn materialized_lanes(&self) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * Self::BLOCK_SLOTS + last.len()
        })
    }

    /// Whether a lane holds its own histogram rather than reading the
    /// shared default.
    pub(crate) fn is_materialized(&self, router: usize, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane out of range");
        self.idx[router * self.lanes + lane] != 0
    }

    /// The block holding the slot of id `id` (slot `id - 1`), and the
    /// slot's position in it.
    fn locate(id: u32) -> (usize, usize) {
        let s = id as usize - 1;
        (s / Self::BLOCK_SLOTS, s % Self::BLOCK_SLOTS)
    }

    /// Appends `h` to `blocks`, opening a new block when the last one
    /// is full; returns its slot id. (An associated function, so a
    /// histogram can be cloned from `default_row` while `blocks` is
    /// borrowed.)
    fn push_slot(blocks: &mut Vec<Vec<IdleHistogram>>, h: IdleHistogram) -> u32 {
        if blocks.last().is_none_or(|b| b.len() == Self::BLOCK_SLOTS) {
            blocks.push(Vec::with_capacity(Self::BLOCK_SLOTS));
        }
        let full_blocks = blocks.len() - 1;
        let last = blocks.last_mut().expect("a block was just ensured");
        last.push(h);
        u32::try_from(full_blocks * Self::BLOCK_SLOTS + last.len()).expect("slot id fits u32")
    }

    /// Read access to one lane's histogram — the lane's own when
    /// materialized, its shared default otherwise.
    pub fn lane(&self, router: usize, lane: usize) -> &IdleHistogram {
        assert!(lane < self.lanes, "lane out of range");
        match self.idx[router * self.lanes + lane] {
            0 => &self.default_row[lane],
            id => {
                let (block, i) = Self::locate(id);
                &self.blocks[block][i]
            }
        }
    }

    /// Write access to one lane's histogram, materializing the lane
    /// (as a copy of its current default, so the lane's observable
    /// content is unchanged by materialization). The router's other
    /// lanes stay as they are.
    pub fn lane_mut(&mut self, router: usize, lane: usize) -> &mut IdleHistogram {
        assert!(lane < self.lanes, "lane out of range");
        let at = router * self.lanes + lane;
        if self.idx[at] == 0 {
            let h = self.default_row[lane].clone();
            self.idx[at] = Self::push_slot(&mut self.blocks, h);
        }
        let (block, i) = Self::locate(self.idx[at]);
        &mut self.blocks[block][i]
    }

    /// Records one still-open idle interval of `len` cycles into
    /// **every lane not materialized yet** (0-length ignored) — the
    /// O(lanes) close-out for the untouched population. Callers must
    /// materialize every lane whose content should not receive it
    /// first: a `lane_mut` after this call copies the default
    /// *including* this interval.
    pub fn record_open_untouched(&mut self, len: u64) {
        for h in &mut self.default_row {
            h.record_open(len);
        }
    }

    /// Whether the shared default row carries any recorded content
    /// (i.e. [`IdleBank::record_open_untouched`] recorded something).
    fn default_dirty(&self) -> bool {
        self.default_row.iter().any(|h| h.interval_count() > 0)
    }

    /// Appends a bank covering the routers right after this one's.
    /// Materialized histograms are moved into this bank's blocks, each
    /// of `bank`'s blocks freed once its slots have moved. Lanes `bank`
    /// never materialized stay unmaterialized when the two default rows
    /// agree — a run's tiles close out their untouched lanes over the
    /// same span, so every non-pristine default is the same row — and
    /// otherwise the side whose default changes materializes its
    /// untouched lanes first, so no lane's content changes.
    ///
    /// # Panics
    ///
    /// Panics when lane counts or caps differ, or when the joined
    /// bank's lanes would not fit a `u32`.
    pub fn append(&mut self, mut bank: IdleBank) {
        assert_eq!(
            self.lanes, bank.lanes,
            "joining banks of different lane counts"
        );
        assert_eq!(self.cap, bank.cap, "joining banks of different caps");
        assert!(
            u32::try_from(self.idx.len() + bank.idx.len()).is_ok(),
            "routers × lanes fits u32"
        );
        if bank.default_row != self.default_row {
            if bank.default_dirty() && !self.default_dirty() {
                self.adopt_default(bank.default_row.clone());
            } else {
                bank.adopt_default(self.default_row.clone());
            }
        }
        let offset = u32::try_from(self.materialized_lanes()).expect("slot id fits u32");
        for block in bank.blocks {
            for h in block {
                Self::push_slot(&mut self.blocks, h);
            }
        }
        self.idx.extend(
            bank.idx
                .into_iter()
                .map(|id| if id == 0 { 0 } else { offset + id }),
        );
        self.routers += bank.routers;
    }

    /// Makes `default_row` this bank's shared default without changing
    /// any lane's content: lanes still reading the old default are
    /// materialized first.
    fn adopt_default(&mut self, default_row: Vec<IdleHistogram>) {
        for at in 0..self.idx.len() {
            if self.idx[at] == 0 {
                let h = self.default_row[at % self.lanes].clone();
                self.idx[at] = Self::push_slot(&mut self.blocks, h);
            }
        }
        self.default_row = default_row;
    }
}

impl PartialEq for IdleBank {
    fn eq(&self, other: &Self) -> bool {
        // Content equality, lane by lane: materialization state is an
        // implementation detail, so a materialized lane equals an
        // unmaterialized one with the same effective content.
        self.routers == other.routers
            && self.lanes == other.lanes
            && self.cap == other.cap
            && (0..self.routers)
                .all(|r| (0..self.lanes).all(|l| self.lane(r, l) == other.lane(r, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_are_safe() {
        let s = NetworkStats::new(4, 1, 64);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.crossbar_utilization(), 0.0);
        assert_eq!(s.total_gating_counters(), GatingCounters::default());
    }

    #[test]
    fn merged_histogram_accumulates() {
        let mut s = NetworkStats::new(2, 1, 64);
        s.idle_histograms.lane_mut(0, 0).record(5);
        s.idle_histograms.lane_mut(1, 3).record(5);
        s.idle_histograms.lane_mut(1, 3).record(7);
        let merged = s.merged_idle_histogram(64);
        assert_eq!(merged.interval_count(), 3);
        assert_eq!(merged.total_idle_cycles(), 17);
    }

    #[test]
    fn merged_histogram_same_for_either_cap_path() {
        // The fast bin-wise merge (matching caps) and the re-binning
        // path (differing caps) must agree on every total — including
        // overflow bins whose average length is not an integer (100 and
        // 101 average to 100.5; naive truncation would drop a cycle).
        let mut s = NetworkStats::new(2, 2, 64);
        s.idle_histograms.lane_mut(0, 0).record_n(5, 400);
        s.idle_histograms.lane_mut(0, 7).record_n(9, 2); // a VC-1 lane of port 3
        s.idle_histograms.lane_mut(0, 2).record_n(63, 10);
        s.idle_histograms.lane_mut(1, 1).record_n(1000, 3); // overflow bin
        s.idle_histograms.lane_mut(1, 3).record(100); // overflow, inexact average
        s.idle_histograms.lane_mut(1, 3).record(101);
        s.idle_histograms.lane_mut(1, 4).record_open(77);
        let fast = s.merged_idle_histogram(64);
        let slow = s.merged_idle_histogram(128);
        assert_eq!(fast.interval_count(), slow.interval_count());
        assert_eq!(fast.interval_count(), 418);
        assert_eq!(fast.total_idle_cycles(), slow.total_idle_cycles());
        assert_eq!(fast.total_idle_cycles(), 2000 + 18 + 630 + 3000 + 201 + 77);
        assert_eq!(fast.open_runs(), &[77]);
    }

    #[test]
    fn append_places_tiles_like_one_whole_network() {
        // Two tile records (routers 0..2 and 2..4 of a 4-router
        // network) joined in order must equal the same events recorded
        // into one full-size record.
        let mut tile0 = NetworkStats::new(2, 1, 64);
        tile0.packets_injected = 3;
        tile0.packets_delivered = 2;
        tile0.flits_delivered = 8;
        tile0.latency_sum = 40;
        tile0.latency_max = 25;
        tile0.measured_cycles = 100;
        tile0.router_activity[1].cycles = 100;
        tile0.idle_histograms.lane_mut(0, 2).record(5);
        tile0.gating[1].sleep_entries = 7;
        let mut tile1 = NetworkStats::new(2, 1, 64);
        tile1.packets_injected = 1;
        tile1.packets_delivered = 1;
        tile1.flits_delivered = 4;
        tile1.latency_sum = 10;
        tile1.latency_max = 10;
        tile1.measured_cycles = 100;
        tile1.router_activity[0].cycles = 50;
        tile1.idle_histograms.lane_mut(1, 0).record_open(9);

        let mut joined = tile0;
        joined.append(tile1);

        let mut whole = NetworkStats::new(4, 1, 64);
        whole.packets_injected = 4;
        whole.packets_delivered = 3;
        whole.flits_delivered = 12;
        whole.latency_sum = 50;
        whole.latency_max = 25;
        whole.measured_cycles = 100;
        whole.router_activity[1].cycles = 100;
        whole.router_activity[2].cycles = 50;
        whole.idle_histograms.lane_mut(0, 2).record(5);
        whole.idle_histograms.lane_mut(3, 0).record_open(9);
        whole.gating[1].sleep_entries = 7;
        assert_eq!(joined, whole);
    }

    #[test]
    #[should_panic(expected = "different VC counts")]
    fn append_rejects_mixed_vc_counts() {
        NetworkStats::new(2, 1, 64).append(NetworkStats::new(2, 2, 64));
    }

    #[test]
    fn latency_math() {
        let mut s = NetworkStats::new(1, 1, 8);
        s.packets_delivered = 4;
        s.latency_sum = 40;
        assert!((s.avg_latency() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn bank_equality_is_content_based() {
        // A router materialized with default content equals an
        // unmaterialized one; actual content differences still show.
        let mut a = IdleBank::new(3, 2, 16);
        let b = IdleBank::new(3, 2, 16);
        let _ = a.lane_mut(1, 0); // materialize, write nothing
        assert_eq!(a, b);
        a.lane_mut(1, 0).record(4);
        assert_ne!(a, b);
    }

    #[test]
    fn bank_untouched_open_run_reaches_only_unmaterialized_lanes() {
        let mut bank = IdleBank::new(3, 2, 16);
        bank.lane_mut(0, 1).record(7); // one lane of router 0 touched
        assert!(bank.is_materialized(0, 1));
        assert!(
            !bank.is_materialized(0, 0),
            "the router's other lane stays shared"
        );
        assert_eq!(bank.materialized_lanes(), 1);
        bank.record_open_untouched(40);
        assert_eq!(bank.lane(0, 1).open_runs(), &[] as &[u64]);
        assert_eq!(bank.lane(0, 0).open_runs(), &[40]);
        for r in 1..3 {
            for l in 0..2 {
                assert_eq!(bank.lane(r, l).open_runs(), &[40]);
            }
        }
        // Materializing after the bulk record preserves content.
        let _ = bank.lane_mut(2, 0);
        assert_eq!(bank.lane(2, 0).open_runs(), &[40]);
        assert_eq!(bank.lane(2, 1).open_runs(), &[40]);
        assert_eq!(bank.materialized_lanes(), 2);
    }

    #[test]
    fn bank_append_carries_default_content() {
        // A tile whose routers are all untouched except one, with a
        // bulk open run applied, joined after an untouched tile: the
        // private row and the shared default content land alike, and
        // the untouched tile's routers stay empty even though the
        // joined bank's default row is not.
        let mut tile = IdleBank::new(2, 1, 16);
        tile.lane_mut(0, 0).record(3);
        tile.record_open_untouched(9);
        let mut net = IdleBank::new(2, 1, 16);
        net.append(tile.clone());
        assert_eq!(net.routers(), 4);
        assert_eq!(net.lane(2, 0).interval_count(), 1);
        assert_eq!(net.lane(2, 0).total_idle_cycles(), 3);
        assert_eq!(net.lane(3, 0).open_runs(), &[9]);
        assert_eq!(net.lane(0, 0).interval_count(), 0);
        assert_eq!(net.lane(1, 0).interval_count(), 0);
        // And in the other order: the untouched tile after the dirty
        // one keeps its empty content too.
        let mut rev = tile;
        rev.append(IdleBank::new(2, 1, 16));
        assert_eq!(rev.lane(1, 0).open_runs(), &[9]);
        assert_eq!(rev.lane(2, 0).interval_count(), 0);
        assert_eq!(rev.lane(3, 0).interval_count(), 0);
    }

    /// Plain `routers × lanes` model of an [`IdleBank`]'s content.
    type Model = Vec<Vec<IdleHistogram>>;

    /// Deterministic xorshift stream for the bank tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Records a few random intervals (short, long, overflow and open)
    /// into `touches` random routers of both the bank and the model.
    fn touch(bank: &mut IdleBank, model: &mut Model, touches: usize, rng: &mut Rng) {
        let cap = bank.cap as u64;
        for _ in 0..touches {
            let r = rng.next(model.len() as u64) as usize;
            let l = rng.next(bank.lanes() as u64) as usize;
            let len = match rng.next(4) {
                0 => 1 + rng.next(IdleHistogram::DENSE_BINS as u64),
                1 => rng.next(cap),
                2 => cap + rng.next(1000),
                _ => 1 + rng.next(2 * cap),
            };
            let kind = rng.next(3);
            let op = |h: &mut IdleHistogram| match kind {
                0 => h.record(len),
                1 => h.record_n(len, 3),
                _ => h.record_open(len),
            };
            op(bank.lane_mut(r, l));
            op(&mut model[r][l]);
        }
    }

    /// Closes out a tile: one open run of `span` cycles into every lane
    /// the bank never materialized (read off the bank before the bulk
    /// record, as the simulator's close-out does).
    fn close_out(bank: &mut IdleBank, model: &mut Model, span: u64) {
        for (r, row) in model.iter_mut().enumerate() {
            for (l, h) in row.iter_mut().enumerate() {
                if !bank.is_materialized(r, l) {
                    h.record_open(span);
                }
            }
        }
        bank.record_open_untouched(span);
    }

    /// Checks every lane and the merged histogram (at the bank's cap
    /// and at another one) against the model, and that the index
    /// names every materialized slot exactly once.
    fn assert_bank_matches(bank: &IdleBank, model: &Model) {
        assert_eq!(bank.routers(), model.len());
        for (r, row) in model.iter().enumerate() {
            for (l, h) in row.iter().enumerate() {
                assert_eq!(bank.lane(r, l), h, "router {r} lane {l}");
            }
        }
        let mut ids: Vec<u32> = bank.idx.iter().copied().filter(|&id| id != 0).collect();
        ids.sort_unstable();
        let want: Vec<u32> = (1..=bank.materialized_lanes() as u32).collect();
        assert_eq!(ids, want, "slot ids are a permutation of the slots");
        let stats = NetworkStats {
            idle_histograms: bank.clone(),
            ..NetworkStats::new(0, bank.lanes() / 5, bank.cap)
        };
        for cap in [bank.cap, 100] {
            let mut want = IdleHistogram::new(cap);
            model.iter().flatten().for_each(|h| want.merge_rebinned(h));
            assert_eq!(stats.merged_idle_histogram(cap), want, "cap {cap}");
        }
    }

    /// Asserts every block but the last is full.
    fn assert_blocks_full(bank: &IdleBank) {
        let full = bank.blocks.len().saturating_sub(1);
        assert!(bank.blocks[..full]
            .iter()
            .all(|b| b.len() == IdleBank::BLOCK_SLOTS));
    }

    #[test]
    fn bank_slots_span_several_blocks() {
        let (routers, lanes, cap) = (80, 10, 4096);
        let mut bank = IdleBank::new(routers, lanes, cap);
        let mut model: Model = vec![vec![IdleHistogram::new(cap); lanes]; routers];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        touch(&mut bank, &mut model, 300, &mut rng);
        assert!(
            bank.materialized_lanes() <= 300,
            "one slot per lane written"
        );
        close_out(&mut bank, &mut model, 77);
        assert_bank_matches(&bank, &model);
        // Lanes materialized in a scrambled first-write order, routers
        // left part shared and part private, until the slots fill
        // three blocks and one slot of a fourth.
        let slots = 3 * IdleBank::BLOCK_SLOTS + 1;
        for at in (0..routers * lanes).map(|i| i * 7 % (routers * lanes)) {
            if bank.materialized_lanes() == slots {
                break;
            }
            let _ = bank.lane_mut(at / lanes, at % lanes);
        }
        assert_eq!(bank.materialized_lanes(), slots);
        assert_eq!(bank.blocks.len(), 4);
        assert_blocks_full(&bank);
        assert_eq!(bank.blocks[3].len(), 1);
        touch(&mut bank, &mut model, 200, &mut rng);
        assert_bank_matches(&bank, &model);
    }

    #[test]
    fn bank_append_matches_model_across_block_boundaries() {
        // Tiles whose materialized slot counts are not multiples of the
        // block size, some closed out (dirty default row) and some
        // pristine, joined in order, dirty tile first and pristine
        // first.
        let (lanes, cap) = (10, 4096);
        let tiles: [(usize, usize, bool); 6] = [
            (70, 150, true),
            (45, 30, false),
            (130, 400, true),
            (1, 0, true),
            (64, 64, false),
            (90, 10, true),
        ];
        for order in [tiles.to_vec(), tiles.iter().rev().copied().collect()] {
            let mut rng = Rng(0x2545_f491_4f6c_dd1d);
            let mut joined: Option<(IdleBank, Model)> = None;
            for (routers, touches, dirty) in order {
                let mut bank = IdleBank::new(routers, lanes, cap);
                let mut model: Model = vec![vec![IdleHistogram::new(cap); lanes]; routers];
                touch(&mut bank, &mut model, touches, &mut rng);
                if dirty {
                    close_out(&mut bank, &mut model, 5_000);
                }
                assert_bank_matches(&bank, &model);
                joined = Some(match joined {
                    None => (bank, model),
                    Some((mut acc, mut acc_model)) => {
                        acc.append(bank);
                        acc_model.extend(model);
                        assert_bank_matches(&acc, &acc_model);
                        assert_blocks_full(&acc);
                        (acc, acc_model)
                    }
                });
            }
            let (bank, _) = joined.expect("six tiles");
            assert!(bank.materialized_lanes() > 2 * IdleBank::BLOCK_SLOTS);
        }
    }
}
