//! Construction: the configuration checks, the shard geometry and each
//! tile's routers in their initial state.

use super::{fsm_lanes, EjectProgress, EventState, MeshConfig, SimKernel, Simulation, Tile};
use crate::fault::FaultSchedule;
use crate::router::{Lane, RingPool, Router, RouterGeometry, MAX_BUFFER_DEPTH, MAX_VCS};
use crate::sleep::SleepFsm;
use crate::topology::{Direction, FaultMap, Mesh, TileMap};
use crate::traffic::{GapSampler, InjectionProcess, QueuePool, MAX_ROUTERS, NO_QUEUE};
use crate::worklist::Worklist;
use lnoc_power::gating::{GatingCounters, GatingPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds router `rid`'s private RNG stream for a run seeded with
/// `seed`.
///
/// The golden-ratio multiply keeps the expanded seed distinct per
/// router (injective in `rid` for a fixed run seed), and
/// `seed_from_u64`'s SplitMix64 expansion decorrelates the resulting
/// generator states. Because each node only ever draws from its own
/// stream, its draw sequence does not depend on other nodes, on visit
/// order, or on shard geometry.
pub(super) fn node_rng(seed: u64, rid: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (rid as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15))
}

/// Longest mesh side: the route closure reads each router's `(x, y)`
/// from a `u16` cache ([`Simulation::new`] rejects longer sides).
const MAX_SIDE: usize = 1 << 16;

impl Simulation {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (empty mesh, a mesh of more
    /// than 2²⁴ − 1 routers — packet ids carry the source in 24 bits —
    /// a side longer than 2¹⁶ routers — routing caches coordinates as
    /// `u16` — zero-length packets, zero buffers or buffers deeper than
    /// [`MAX_BUFFER_DEPTH`] flits — lane cursors and credits are 16-bit
    /// — a VC count outside `1..=`[`MAX_VCS`], a zero source-queue cap,
    /// an [`GatingPolicy::Oracle`] in-loop policy — the oracle needs future
    /// knowledge and only exists offline — or a bursty process with
    /// zero mean dwell times).
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(
            cfg.width >= 2 && cfg.height >= 2,
            "mesh must be at least 2×2"
        );
        assert!(
            cfg.width.saturating_mul(cfg.height) <= MAX_ROUTERS,
            "meshes are capped at {MAX_ROUTERS} routers (packet ids carry \
             the source router in 24 bits)"
        );
        assert!(
            cfg.width <= MAX_SIDE && cfg.height <= MAX_SIDE,
            "mesh sides are capped at {MAX_SIDE} routers (routing caches \
             router coordinates in 16 bits)"
        );
        assert!(cfg.packet_len_flits >= 1, "packets need at least one flit");
        assert!(cfg.buffer_depth >= 1, "buffers need at least one slot");
        assert!(
            cfg.buffer_depth <= MAX_BUFFER_DEPTH,
            "buffer depths are capped at {MAX_BUFFER_DEPTH} flits per VC (lane \
             cursors and credit counters are 16-bit)"
        );
        assert!(
            (1..=MAX_VCS).contains(&cfg.vcs),
            "vcs must be in 1..={MAX_VCS}"
        );
        assert!(
            cfg.source_queue_cap >= 1,
            "source queues need room for at least one packet"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.injection_rate),
            "injection rate is a probability"
        );
        if let Some(gating) = &cfg.gating {
            assert!(
                gating.policy != GatingPolicy::Oracle,
                "the Oracle policy needs future knowledge; it exists only offline"
            );
        }
        if let InjectionProcess::BurstyOnOff {
            mean_burst,
            mean_idle,
        } = cfg.injection
        {
            assert!(
                mean_burst >= 1 && mean_idle >= 1,
                "bursty dwell times must be at least one cycle"
            );
            let duty = mean_burst as f64 / (mean_burst + mean_idle) as f64;
            assert!(
                cfg.injection_rate <= duty,
                "injection rate {} exceeds the ON duty cycle {duty:.3}; the bursty \
                 source saturates and cannot offer the configured load",
                cfg.injection_rate
            );
        }
        let mesh = Mesh {
            width: cfg.width,
            height: cfg.height,
            wrap: cfg.wrap,
        };
        let n = mesh.len();
        let geom = RouterGeometry::new(cfg.buffer_depth, cfg.vcs, cfg.gating);
        if cfg.faults.is_some() {
            assert!(
                n <= FaultMap::MAX_ROUTERS,
                "faulted meshes are capped at {} routers (the fault layer \
                 keeps per-destination BFS routing tables)",
                FaultMap::MAX_ROUTERS
            );
        }
        // Expanded once, up front: the schedule is a pure function of
        // (plan, mesh), shared read-only by every worker.
        let faults = cfg
            .faults
            .as_ref()
            .and_then(|plan| FaultSchedule::build(plan, &mesh));
        // Shard geometry: the reference always runs one tile; the
        // engine defaults to one tile per available core on big meshes
        // and one tile on small ones, clamped so every tile band owns
        // at least one row. The shard count never changes results —
        // only how work is partitioned.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let (shard_count, threads) = match cfg.kernel {
            SimKernel::Engine => {
                let s = match cfg.shards {
                    0 if n >= MeshConfig::SHARD_MIN_ROUTERS => cores,
                    0 => 1,
                    s => s,
                };
                let s = s.clamp(1, cfg.height);
                let t = if cfg.threads > 0 { cfg.threads } else { cores };
                (s, t.clamp(1, s))
            }
            SimKernel::Reference => (1, 1),
        };
        let tile_map = TileMap::new(&mesh, shard_count);
        let gap = GapSampler::new(cfg.injection.on_rate(cfg.injection_rate));
        let tiles = (0..shard_count)
            .map(|s| Tile::new(s, &cfg, &mesh, &geom, &tile_map, &gap))
            .collect();
        Simulation {
            mesh,
            geom,
            gap,
            cycle: 0,
            visit_reversed: false,
            xy: (0..n)
                .map(|rid| {
                    let (x, y) = mesh.coords(rid);
                    (x as u16, y as u16)
                })
                .collect(),
            faults,
            tile_map,
            tiles,
            threads,
            cfg,
        }
    }
}

impl Tile {
    /// Shard `shard` of `tile_map` as construction leaves it: every
    /// router empty, hence quiescent, so the worklist begins empty and
    /// fills from injection. Even gated networks need no initial
    /// members — an idle lane's walk to sleep is replayed in closed
    /// form when the router first activates.
    fn new(
        shard: usize,
        cfg: &MeshConfig,
        mesh: &Mesh,
        geom: &RouterGeometry,
        tile_map: &TileMap,
        gap: &GapSampler,
    ) -> Tile {
        let range = tile_map.router_range(shard);
        let len = range.len();
        let v = cfg.vcs;
        let lanes = 5 * v;
        // Initial credits: the full per-VC depth wherever a link
        // exists, zero on edge ports (so `credit > 0` doubles as the
        // link-existence check in the hot readiness closure).
        let mut credits = vec![0u16; len * lanes];
        for (lr, rid) in range.clone().enumerate() {
            for d in &Direction::ALL[..4] {
                if mesh.neighbor(rid, *d).is_some() {
                    for vc in 0..v {
                        credits[lr * lanes + d.index() * v + vc] = cfg.buffer_depth as u16;
                    }
                }
            }
        }
        // The Bernoulli renewal chain: each live source's first arrival
        // is drawn at construction — the first draw on its stream, in
        // both kernels — and re-drawn once per subsequent arrival.
        let mut rngs: Vec<StdRng> = range.clone().map(|rid| node_rng(cfg.seed, rid)).collect();
        let next_offer: Vec<u64> = match cfg.injection {
            InjectionProcess::Bernoulli if cfg.injection.on_rate(cfg.injection_rate) > 0.0 => {
                rngs.iter_mut().map(|rng| gap.sample(rng)).collect()
            }
            _ => vec![u64::MAX; len],
        };
        let neighbors = tile_map.neighbors(shard).len();
        Tile {
            shard,
            base: range.start,
            len,
            routers: vec![Router::new(); len],
            source_queue: vec![NO_QUEUE; len],
            source_on: vec![true; len],
            next_offer,
            rngs,
            next_seq: vec![0; len],
            eject: vec![EjectProgress::IDLE; len],
            counters: vec![GatingCounters::default(); len],
            last_stepped: vec![0; len],
            lanes: vec![Lane::EMPTY; len * lanes],
            credits,
            idle_run: vec![0; len * lanes],
            fsm: vec![SleepFsm::default(); len * fsm_lanes(cfg)],
            settled: vec![0; len * lanes],
            rings: RingPool::new(len, geom),
            queues: QueuePool::default(),
            active: Worklist::new(len),
            events: (cfg.kernel == SimKernel::Engine).then(|| {
                let bursty = matches!(cfg.injection, InjectionProcess::BurstyOnOff { .. });
                Box::new(EventState::new(len, bursty))
            }),
            transfers: Vec::new(),
            outgoing: vec![Vec::new(); neighbors],
            incoming: vec![Vec::new(); neighbors],
            flits_injected: 0,
            flits_delivered: 0,
            queued_flits: 0,
            buffered_flits: 0,
            stagnant_cycles: 0,
            routers_stepped: 0,
            epoch: 0,
            flits_dropped: 0,
            cycles_leapt: 0,
            events_processed: 0,
            leaps: 0,
            boundary: None,
            routers_settled: 0,
            settle_ops: 0,
            max_debt_span: 0,
        }
    }
}
