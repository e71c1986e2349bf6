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
    /// [`crate::sim::MeshConfig::source_queue_cap`]. Dropped packets
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
    /// [`crate::topology::Direction`] order), stored sparsely: rows
    /// materialize on first write and untouched routers share one
    /// default row ([`IdleBank`]). Each histogram holds dense bins only
    /// for the short lengths it recorded, one entry per distinct longer
    /// length and its one open run inline, so a lane costs memory in
    /// proportion to what it recorded.
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
    /// vectors are concatenated and histogram rows moved, untouched
    /// routers staying on the shared default row (see
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

/// Sparse `routers × lanes` bank of [`IdleHistogram`]s.
///
/// At the injection rates the leakage study sweeps, almost every
/// router's histograms stay empty for the whole run except for the one
/// trailing open interval the close-out records — yet the old
/// `Vec<Vec<IdleHistogram>>` paid a nested allocation per router up
/// front, which at a million routers dominated run setup. The bank
/// keeps one `default_row` shared by every router that was never
/// written and materializes a router's private row on its first
/// `lane_mut`, so construction is O(routers) words and the run's
/// histogram memory is proportional to routers actually touched.
/// Materialized rows live in fixed blocks of 64 rows, allocated at
/// full size: the bank grows a block at a time, never doubling and
/// copying one array of every row, so a run leaves no freed
/// doubling-sized buffers behind in the heap.
///
/// [`IdleBank::record_open_untouched`] is the close-out's bulk path:
/// it appends one open interval to the shared default row, which every
/// still-unmaterialized router then reports — O(lanes) for the whole
/// untouched population. Equality, merging and iteration are all
/// content-based: an unmaterialized router behaves exactly as if its
/// row held the default row's contents.
#[derive(Debug, Clone, Default)]
pub struct IdleBank {
    lanes: usize,
    cap: usize,
    /// Per-router materialized row number; `u32::MAX` marks an
    /// unmaterialized router whose content is `default_row`.
    idx: Vec<u32>,
    /// Materialized rows, `lanes` histograms each, in first-write
    /// order: row `i` is row `i % BLOCK_ROWS` of block `i / BLOCK_ROWS`.
    /// Every block but the last is full, and each is allocated at full
    /// size.
    blocks: Vec<Vec<IdleHistogram>>,
    /// Shared content of every unmaterialized router. Pristine until
    /// [`IdleBank::record_open_untouched`].
    default_row: Vec<IdleHistogram>,
}

impl IdleBank {
    /// Materialized rows per block.
    const BLOCK_ROWS: usize = 64;

    /// Creates a bank for `routers` routers with `lanes` histograms
    /// each, every histogram counting lengths below `cap` exactly.
    pub fn new(routers: usize, lanes: usize, cap: usize) -> Self {
        assert!(u32::try_from(routers).is_ok(), "router count fits u32");
        IdleBank {
            lanes,
            cap,
            idx: vec![u32::MAX; routers],
            blocks: Vec::new(),
            default_row: (0..lanes).map(|_| IdleHistogram::new(cap)).collect(),
        }
    }

    /// Number of routers in the bank.
    pub fn routers(&self) -> usize {
        self.idx.len()
    }

    /// Histograms per router (`5 × vcs` in a simulation record).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of materialized rows.
    fn rows(&self) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * Self::BLOCK_ROWS + last.len() / self.lanes
        })
    }

    /// The block holding materialized row `i`, and the row's first
    /// histogram in it.
    fn locate(&self, i: u32) -> (usize, usize) {
        let i = i as usize;
        (i / Self::BLOCK_ROWS, i % Self::BLOCK_ROWS * self.lanes)
    }

    /// A router's materialized row, if it has one.
    fn row(&self, router: usize) -> Option<&[IdleHistogram]> {
        let i = self.idx[router];
        (i != u32::MAX).then(|| {
            let (block, base) = self.locate(i);
            &self.blocks[block][base..base + self.lanes]
        })
    }

    /// Appends a row of `lanes` histograms to `blocks`, opening a new
    /// block when the last one is full; returns its row number. (An
    /// associated function, so a row can be cloned from `default_row`
    /// while `blocks` is borrowed.)
    fn push_row(
        blocks: &mut Vec<Vec<IdleHistogram>>,
        lanes: usize,
        row: impl IntoIterator<Item = IdleHistogram>,
    ) -> u32 {
        let block_len = Self::BLOCK_ROWS * lanes;
        if blocks.last().is_none_or(|b| b.len() == block_len) {
            blocks.push(Vec::with_capacity(block_len));
        }
        let full_blocks = blocks.len() - 1;
        let last = blocks.last_mut().expect("a block was just ensured");
        let next = full_blocks * Self::BLOCK_ROWS + last.len() / lanes;
        last.extend(row);
        debug_assert_eq!(last.len() % lanes, 0, "rows are whole");
        u32::try_from(next).expect("row index fits u32")
    }

    /// Read access to one lane's histogram — the router's own row when
    /// materialized, the shared default row otherwise.
    pub fn lane(&self, router: usize, lane: usize) -> &IdleHistogram {
        assert!(lane < self.lanes, "lane out of range");
        match self.row(router) {
            Some(row) => &row[lane],
            None => &self.default_row[lane],
        }
    }

    /// Write access to one lane's histogram, materializing the
    /// router's row (as a copy of the current default row, so the
    /// router's observable content is unchanged by materialization).
    pub fn lane_mut(&mut self, router: usize, lane: usize) -> &mut IdleHistogram {
        assert!(lane < self.lanes, "lane out of range");
        if self.idx[router] == u32::MAX {
            let row = self.default_row.iter().cloned();
            self.idx[router] = Self::push_row(&mut self.blocks, self.lanes, row);
        }
        let (block, base) = self.locate(self.idx[router]);
        &mut self.blocks[block][base + lane]
    }

    /// Records one still-open idle interval of `len` cycles into
    /// **every lane of every router not materialized yet** (0-length
    /// ignored) — the O(lanes) close-out for the untouched population.
    /// Callers must materialize every touched router first: a
    /// `lane_mut` after this call clones the default row *including*
    /// this interval.
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
    /// Materialized rows are moved into this bank's blocks, each of
    /// `bank`'s blocks freed once its rows have moved. Routers `bank` never materialized
    /// stay unmaterialized when the two default rows agree — a run's
    /// tiles close out their untouched routers over the same span, so
    /// every non-pristine default is the same row — and otherwise the
    /// side whose default changes materializes its untouched routers
    /// first, so no router's content changes.
    ///
    /// # Panics
    ///
    /// Panics when lane counts or caps differ.
    pub fn append(&mut self, mut bank: IdleBank) {
        assert_eq!(
            self.lanes, bank.lanes,
            "joining banks of different lane counts"
        );
        assert_eq!(self.cap, bank.cap, "joining banks of different caps");
        if bank.default_row != self.default_row {
            if bank.default_dirty() && !self.default_dirty() {
                self.adopt_default(bank.default_row.clone());
            } else {
                bank.adopt_default(self.default_row.clone());
            }
        }
        let offset = u32::try_from(self.rows()).expect("row index fits u32");
        for block in bank.blocks {
            let mut hists = block.into_iter();
            while hists.len() > 0 {
                Self::push_row(
                    &mut self.blocks,
                    self.lanes,
                    hists.by_ref().take(self.lanes),
                );
            }
        }
        self.idx.extend(
            bank.idx
                .into_iter()
                .map(|i| if i == u32::MAX { i } else { offset + i }),
        );
    }

    /// Makes `default_row` this bank's shared default without changing
    /// any router's content: routers still showing the old default are
    /// materialized first.
    fn adopt_default(&mut self, default_row: Vec<IdleHistogram>) {
        for r in 0..self.routers() {
            if self.idx[r] == u32::MAX {
                let _ = self.lane_mut(r, 0);
            }
        }
        self.default_row = default_row;
    }
}

impl PartialEq for IdleBank {
    fn eq(&self, other: &Self) -> bool {
        if self.routers() != other.routers() || self.lanes != other.lanes || self.cap != other.cap {
            return false;
        }
        // Content equality, router by router: materialization state is
        // an implementation detail, so a materialized row equals an
        // unmaterialized router with the same effective content.
        let defaults_eq = self.default_row == other.default_row;
        (0..self.routers()).all(|r| match (self.row(r), other.row(r)) {
            (None, None) => defaults_eq,
            (a, b) => a.unwrap_or(&self.default_row) == b.unwrap_or(&other.default_row),
        })
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
    fn bank_untouched_open_run_reaches_only_unmaterialized_rows() {
        let mut bank = IdleBank::new(3, 2, 16);
        bank.lane_mut(0, 1).record(7); // router 0 touched
        bank.record_open_untouched(40);
        assert_eq!(bank.lane(0, 0).open_runs(), &[] as &[u64]);
        assert_eq!(bank.lane(0, 1).open_runs(), &[] as &[u64]);
        for r in 1..3 {
            for l in 0..2 {
                assert_eq!(bank.lane(r, l).open_runs(), &[40]);
            }
        }
        // Materializing after the bulk record preserves content.
        let _ = bank.lane_mut(2, 0);
        assert_eq!(bank.lane(2, 0).open_runs(), &[40]);
        assert_eq!(bank.lane(2, 1).open_runs(), &[40]);
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
    /// of every router the bank never materialized (read off the bank
    /// before the bulk record, as the simulator's close-out does).
    fn close_out(bank: &mut IdleBank, model: &mut Model, span: u64) {
        for (r, row) in model.iter_mut().enumerate() {
            if bank.row(r).is_none() {
                row.iter_mut().for_each(|h| h.record_open(span));
            }
        }
        bank.record_open_untouched(span);
    }

    /// Checks every lane and the merged histogram (at the bank's cap
    /// and at another one) against the model.
    fn assert_bank_matches(bank: &IdleBank, model: &Model) {
        assert_eq!(bank.routers(), model.len());
        for (r, row) in model.iter().enumerate() {
            for (l, h) in row.iter().enumerate() {
                assert_eq!(bank.lane(r, l), h, "router {r} lane {l}");
            }
        }
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

    #[test]
    fn bank_rows_span_several_blocks() {
        let routers = 3 * IdleBank::BLOCK_ROWS + 1;
        let (lanes, cap) = (10, 4096);
        let mut bank = IdleBank::new(routers, lanes, cap);
        let mut model: Model = vec![vec![IdleHistogram::new(cap); lanes]; routers];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        touch(&mut bank, &mut model, 600, &mut rng);
        close_out(&mut bank, &mut model, 77);
        // Every router materialized, in a scrambled first-write order:
        // four blocks, the last holding one row.
        for r in (0..routers).map(|i| i * 7 % routers) {
            let _ = bank.lane_mut(r, 0);
        }
        assert_eq!(bank.rows(), routers);
        assert_eq!(bank.blocks.len(), 4);
        assert!(bank.blocks[..3]
            .iter()
            .all(|b| b.len() == IdleBank::BLOCK_ROWS * lanes));
        assert_eq!(bank.blocks[3].len(), lanes);
        touch(&mut bank, &mut model, 200, &mut rng);
        assert_bank_matches(&bank, &model);
    }

    #[test]
    fn bank_append_matches_model_across_block_boundaries() {
        // Tiles whose materialized row counts are not multiples of the
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
                        (acc, acc_model)
                    }
                });
            }
            let (bank, _) = joined.expect("six tiles");
            assert!(bank.blocks[..bank.blocks.len() - 1]
                .iter()
                .all(|b| b.len() == IdleBank::BLOCK_ROWS * lanes));
        }
    }
}
