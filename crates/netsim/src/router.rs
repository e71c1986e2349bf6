//! Input-buffered wormhole router with virtual channels and
//! credit-based flow control.
//!
//! One router has five input ports (one per [`Direction`]), each split
//! into `V` virtual-channel ring buffers, and a 5×5 crossbar — the
//! paper's evaluation object generalized to VC flow control. Switching
//! is wormhole per VC: a head flit claims an *output VC lane* (an
//! `(output port, VC)` pair — physically the downstream router's input
//! VC buffer), body flits follow on that lane, and the tail flit
//! releases it. Backpressure is credit-based: the simulation carries an
//! explicit credit counter per output lane (free slots in the
//! downstream VC buffer), decremented when a flit departs and
//! incremented when the downstream router pops one.
//!
//! Allocation is two-stage, both stages resolved within a cycle:
//!
//! ```text
//!  input port 0 ─ VC0 ─┐
//!              ─ VC1 ─┤   ┌────────────────┐      ┌────────────────┐
//!  input port 1 ─ VC0 ─┼──►│ VC allocation  │─────►│ switch          │──► at most one
//!              ─ VC1 ─┤   │ (head flits     │ body │ allocation      │    flit per
//!      ⋮              │   │  claim a free   │flits │ (per output     │    output port
//!  input port 4 ─ VC0 ─┤   │  output VC with │ skip │  port: RR over  │    per cycle
//!              ─ VC1 ─┘   │  a credit)      │ VA   │  its V lanes;   │
//!                         └────────────────┘      │  per input port:│
//!                                                 │  one read/cycle)│
//!                                                 └────────────────┘
//! ```
//!
//! * **VC allocation** — a head flit at the front of an input VC
//!   requests one specific output lane (a pure function of the route
//!   and the dateline class, see [`Mesh::hop_vc`]); it is granted when
//!   the lane is free, it holds a credit, and the head wins the lane's
//!   round-robin among competing heads. The grant happens at traversal
//!   time and persists until the tail passes.
//! * **Switch allocation** — each output port carries one crossbar
//!   line, so per cycle at most one of its V lanes sends (round-robin
//!   among the lanes, [`Router`]-internal `sa_rr` state); each input
//!   port also has one crossbar line, so at most one of its VCs is
//!   read per cycle.
//!
//! With `V = 1` both stages degenerate to the pre-VC single-FIFO
//! arbitration bit-for-bit — pinned by `tests/v1_behaviour_pinned.rs`.
//!
//! A [`Router`] holds only its live state: 32 bytes of lane masks, a
//! ring-block id and switch round-robin pointers. Its per-lane records
//! ([`Lane`]: ring cursors, cached routes, output-lane owners), idle-run
//! counters, [`SleepFsm`] sleep controllers and [`GatingCounters`] are
//! **not** stored inside the router. The simulation owns them as flat
//! network-wide SoA arrays (indexed `router * 5 * V + port * V + vc`)
//! and lends this router's lane block to [`Router::step`] as a
//! [`PortLane`]; what every router shares — buffer depth, VC count,
//! sleep configuration — is one [`RouterGeometry`] passed alongside.
//! Gating is therefore per **VC lane**: an empty VC bank can sleep
//! while a sibling VC of the same port carries a worm.
//!
//! A step visits only the *live* output lanes: lanes held mid-packet or
//! requested by a waiting head flit. Every other lane can do nothing
//! but idle — no candidate, no send — so it is left behind and settled
//! later in closed form ([`SleepFsm::settle_idle_bulk`]) from its own
//! watermark ([`PortLane::settled`]): when it next becomes live, or when
//! the simulation settles the whole router ([`settle_lanes`]).
//! The router keeps the masks that make this cheap — occupied input
//! lanes, owned output lanes — plus each input lane's front-flit route,
//! computed once when the flit reaches the front. Stepping every lane
//! every cycle (`all_live`) is the dense oracle through the same code.
//!
//! A router's input VC buffers are one ring block drawn from its
//! tile's [`RingPool`], and only while it buffers a flit: the push that
//! makes it non-empty takes a block, and the pop or purge that empties
//! it gives the block back. Ring memory therefore follows the most
//! routers buffering at once, not the mesh size. [`Router::step`]
//! performs no heap allocation — the hot loop of the whole simulator.
//!
//! [`Mesh::hop_vc`]: crate::topology::Mesh::hop_vc

use crate::sleep::{SleepConfig, SleepFsm};
use crate::topology::Direction;
use crate::traffic::Flit;
use lnoc_power::gating::GatingCounters;

/// Hard cap on virtual channels per port: keeps every per-router lane
/// mask in one `u64` (`5 * 8 = 40` lanes) and the lane-owner and
/// front-route encodings in one byte.
pub const MAX_VCS: usize = 8;

/// Maximum lanes per router (`5 * MAX_VCS`) — sizes the fixed per-cycle
/// scratch arrays so [`Router::step`] stays allocation-free for
/// any VC count.
pub const MAX_LANES: usize = 5 * MAX_VCS;

/// Deepest input VC buffer, in flits: a lane's ring cursors and the
/// simulation's credit counters are 16-bit.
pub const MAX_BUFFER_DEPTH: usize = u16::MAX as usize;

/// Where a flit wants to go next: an output port plus the virtual
/// channel it must ride on the outgoing link (the downstream input VC).
/// Produced by the routing closure for every flit that reaches the
/// front of an input lane; pure in the flit, so body flits recompute
/// their head's choice exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTarget {
    /// Output port.
    pub out: Direction,
    /// Virtual channel on the outgoing link (`0` for ejection).
    pub vc: u8,
}

/// What every router of a network shares: the per-VC buffer depth, the
/// VC count and the in-loop sleep configuration. The simulation keeps
/// one and passes it to every router call, so a [`Router`] stores only
/// its live state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterGeometry {
    depth: u16,
    vcs: u8,
    sleep_cfg: Option<SleepConfig>,
}

impl RouterGeometry {
    /// Routers with `vcs` virtual channels of `buffer_depth` flits each
    /// per port, whose output VC lanes run the given sleep FSM
    /// configuration (`None` disables in-loop gating).
    ///
    /// # Panics
    ///
    /// Panics when `vcs` is 0 or exceeds [`MAX_VCS`], or when
    /// `buffer_depth` is 0 or exceeds [`MAX_BUFFER_DEPTH`].
    pub fn new(buffer_depth: usize, vcs: usize, sleep_cfg: Option<SleepConfig>) -> Self {
        assert!((1..=MAX_VCS).contains(&vcs), "vcs must be in 1..={MAX_VCS}");
        assert!(
            (1..=MAX_BUFFER_DEPTH).contains(&buffer_depth),
            "buffer depth must be in 1..={MAX_BUFFER_DEPTH}"
        );
        RouterGeometry {
            depth: buffer_depth as u16,
            vcs: vcs as u8,
            sleep_cfg,
        }
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs as usize
    }

    /// Lanes per router (`5 * vcs`).
    pub fn lanes(&self) -> usize {
        5 * self.vcs as usize
    }

    /// Flits per input VC buffer.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }
}

/// Per-output-lane state: which input lane currently owns the lane.
/// One byte per lane (`FREE` or the owning input-lane index `port * V +
/// vc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
struct PortOwner(u8);

impl PortOwner {
    /// Free for a new head flit.
    const FREE: PortOwner = PortOwner(u8::MAX);

    /// Allocated to the given input lane until a tail flit passes.
    fn owned(input_lane: usize) -> PortOwner {
        debug_assert!(input_lane < MAX_LANES);
        PortOwner(input_lane as u8)
    }

    fn is_free(self) -> bool {
        self == PortOwner::FREE
    }

    /// The owning input lane, if any.
    fn input(self) -> Option<usize> {
        (!self.is_free()).then_some(self.0 as usize)
    }
}

/// Front-route cache value of an input lane whose front flit has not
/// been routed (or that holds no flit).
const NO_ROUTE: u8 = u8::MAX;
/// Front-route cache flag: the front flit is a head flit.
const HEAD_BIT: u8 = 0x40;
/// Front-route cache field: the output lane the front flit requests.
const LANE_BITS: u8 = 0x3f;

/// Everything a router keeps per lane index `l = port * V + vc`, in one
/// 16-byte record: the *input* VC buffer's ring cursor and its front
/// flit's cached route (unrouted, or the requested output lane and
/// whether the flit is a head), and the *output* VC lane's
/// allocation state. The simulation keeps every router's lanes in one
/// network-wide slab, `5 * V` consecutive records per router, and
/// lends a router its block with each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Packet id of the worm holding the output lane — only meaningful
    /// while `owner` is allocated. Lets the fault layer release lanes
    /// held by doomed packets whose remaining flits were purged
    /// upstream.
    owner_pkt: u64,
    /// Ring-buffer index of the input VC's front flit, within the
    /// lane's `depth` slots of the router's ring block.
    head: u16,
    /// Flits buffered in the input VC.
    len: u16,
    /// Owner of the output lane.
    owner: PortOwner,
    /// VC-allocation round-robin pointer of the output lane, over the
    /// `5 * V` input lanes.
    rr_next: u8,
    /// Cached route of the input VC's front flit.
    front: u8,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 16);

impl Lane {
    /// An empty input VC and a free output lane.
    pub const EMPTY: Lane = Lane {
        owner_pkt: 0,
        head: 0,
        len: 0,
        owner: PortOwner::FREE,
        rr_next: 0,
        front: NO_ROUTE,
    };
}

/// Flits buffered in input VC `(port, vc)` of the router whose lane
/// block is `lanes`.
pub fn occupancy(lanes: &[Lane], vcs: usize, port: Direction, vc: usize) -> usize {
    lanes[port.index() * vcs + vc].len as usize
}

/// Whether input VC `(port, vc)` of the router whose lane block is
/// `lanes` can accept a flit.
pub fn can_accept(g: &RouterGeometry, lanes: &[Lane], port: Direction, vc: usize) -> bool {
    lanes[port.index() * g.vcs() + vc].len < g.depth
}

/// Total flits buffered in a router's lane block.
pub fn total_occupancy(lanes: &[Lane]) -> usize {
    lanes.iter().map(|l| l.len as usize).sum()
}

/// Drops every cached front-flit route in `lanes` — for when the
/// routing function itself changes (a fault epoch applies).
pub(crate) fn clear_route_cache(lanes: &mut [Lane]) {
    for l in lanes {
        l.front = NO_ROUTE;
    }
}

/// One router's block of the simulation-owned SoA per-lane state, lent
/// to [`Router::step`] for one cycle (or to [`settle_lanes`]), with its
/// tile's [`RingPool`]. The per-lane slices have `5 * V` entries,
/// indexed `port * V + vc`, except `fsm`, which is empty on an ungated
/// network (nothing reads it there).
///
/// A lane is *settled through* the cycle its watermark names: its idle
/// run, FSM and share of the counters account every cycle up to and
/// including it. Lanes a step does not visit keep their watermark and
/// catch up in closed form later, so between settlements the slices
/// describe each lane as of its own watermark, not as of the clock.
#[derive(Debug)]
pub struct PortLane<'a> {
    /// The router's cursors, route caches and output-lane allocation
    /// state.
    pub lanes: &'a mut [Lane],
    /// Consecutive idle cycles per output VC lane (the authoritative
    /// idle-run counters behind the idle-interval histograms).
    pub idle_run: &'a mut [u64],
    /// Sleep controller per output VC lane (empty when ungated).
    pub fsm: &'a mut [SleepFsm],
    /// This router's accumulated gating counters (all lanes summed).
    pub counters: &'a mut GatingCounters,
    /// Settlement watermark per output VC lane: the low 32 bits of the
    /// last cycle the lane is settled through. Lags are recovered
    /// against an *anchor* cycle known to be no earlier than the
    /// watermark and less than 2³² cycles past it (see
    /// [`settle_lanes`]).
    pub settled: &'a mut [u32],
    /// The tile's ring pool, which holds the router's input rings
    /// while it buffers flits and takes the block back when a step
    /// empties it (settlement never touches it).
    pub rings: &'a mut RingPool,
}

/// Cycles a lane with watermark `mark` lags behind `through`, given an
/// `anchor` with `mark ≤ anchor ≤ through` and `anchor − mark < 2³²`
/// (the watermark holds only the low 32 bits of its cycle).
fn lane_lag(mark: u32, anchor: u64, through: u64) -> u64 {
    (through - anchor) + (anchor as u32).wrapping_sub(mark) as u64
}

/// Block id of a router that holds no ring block.
const NO_BLOCK: u32 = u32::MAX;

/// One tile's store of input-ring blocks. A block holds one router's
/// `5 * V` input VC rings, lane `l` owning the slots
/// `l*depth..(l+1)*depth`. A router holds a block only while it buffers
/// a flit, so ring memory follows the most routers of the tile buffering
/// at once rather than the tile's size.
///
/// Blocks are carved from chunks of [`RingPool::CHUNK_BLOCKS`] blocks
/// (the last chunk stops at the tile's router count), allocated when
/// every carved block is in use and never reallocated or moved; a
/// returned block goes on a last-in first-out free list and is handed
/// out again before any new one is carved.
#[derive(Debug)]
pub struct RingPool {
    /// Flits per block: `5 * V * depth`.
    block_len: usize,
    /// Routers that can draw on the pool: no more blocks are ever
    /// carved.
    routers: u32,
    /// Block `b` is block `b % CHUNK_BLOCKS` of chunk `b / CHUNK_BLOCKS`.
    chunks: Vec<Box<[Flit]>>,
    /// Blocks carved so far (ids `0..carved`). Fresh blocks are carved
    /// only when none is free, so this is also the most blocks ever in
    /// use at once.
    carved: u32,
    /// Returned block ids, reused last-in first-out.
    free: Vec<u32>,
}

impl RingPool {
    /// Blocks per chunk.
    pub const CHUNK_BLOCKS: usize = 64;

    /// An empty pool for `routers` routers of geometry `g`. Allocates
    /// nothing until the first block is taken.
    pub fn new(routers: usize, g: &RouterGeometry) -> Self {
        RingPool {
            block_len: g.lanes() * g.depth(),
            routers: u32::try_from(routers).expect("router count fits u32"),
            chunks: Vec::new(),
            carved: 0,
            free: Vec::new(),
        }
    }

    /// The most blocks that were ever in use at once.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.carved as usize
    }

    /// Blocks in use now.
    #[cfg(test)]
    pub(crate) fn in_use(&self) -> usize {
        self.carved as usize - self.free.len()
    }

    /// Hands out a block: the last one returned, else a fresh one.
    fn take(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.carved;
        if id as usize == self.chunks.len() * Self::CHUNK_BLOCKS {
            let blocks = Self::CHUNK_BLOCKS.min((self.routers - id) as usize);
            assert!(blocks > 0, "more ring blocks taken than routers");
            self.chunks
                .push(vec![Flit::INVALID; blocks * self.block_len].into_boxed_slice());
        }
        self.carved += 1;
        id
    }

    /// Takes back a block handed out by [`RingPool::take`].
    fn give(&mut self, id: u32) {
        debug_assert!(id < self.carved);
        self.free.push(id);
    }

    /// Block `id`'s chunk and its slot range there.
    fn locate(&self, id: u32) -> (usize, std::ops::Range<usize>) {
        let k = id as usize % Self::CHUNK_BLOCKS;
        let slots = k * self.block_len..(k + 1) * self.block_len;
        (id as usize / Self::CHUNK_BLOCKS, slots)
    }

    /// Block `id`'s slots (none for [`NO_BLOCK`]).
    fn ring(&self, id: u32) -> &[Flit] {
        if id == NO_BLOCK {
            return &[];
        }
        let (chunk, slots) = self.locate(id);
        &self.chunks[chunk][slots]
    }

    /// Block `id`'s slots, writable (none for [`NO_BLOCK`]).
    fn ring_mut(&mut self, id: u32) -> &mut [Flit] {
        if id == NO_BLOCK {
            return &mut [];
        }
        let (chunk, slots) = self.locate(id);
        &mut self.chunks[chunk][slots]
    }
}

/// One wormhole router's live state: 32 bytes. Its lanes live in the
/// simulation's lane slab and its geometry in one [`RouterGeometry`]
/// shared by the network; both are passed to every call.
#[derive(Debug, Clone)]
pub struct Router {
    /// Bit `l` set ⇔ input lane `l` holds at least one flit.
    occupied: u64,
    /// Bit `l` set ⇔ output lane `l` is held mid-packet (its owner is
    /// not free).
    owned: u64,
    /// The [`RingPool`] block holding the `5 * V` input VC rings, or
    /// [`NO_BLOCK`]: held exactly while `occupied` is non-zero.
    block: u32,
    /// Switch-allocation round-robin pointer per output *port*, over
    /// its `V` lanes.
    sa_rr: [u8; 5],
}

const _: () = assert!(std::mem::size_of::<Router>() == 32);

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

/// A flit departing the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Input port it was popped from (so callers can return the freed
    /// slot's credit to the upstream router).
    pub input: Direction,
    /// Input virtual channel it was popped from.
    pub input_vc: u8,
    /// Output port it leaves through.
    pub output: Direction,
    /// The flit itself; `flit.vc` is the output VC it departs on.
    pub flit: Flit,
    /// Length of the idle run this departure ended on its output lane
    /// (0 when the lane also sent the cycle before) — the only idle
    /// interval a step can close.
    pub idle_run: u64,
}

/// Input lane `lane`'s front flit in the router's `ring`.
fn front<'r>(ring: &'r [Flit], lanes: &[Lane], depth: u16, lane: usize) -> Option<&'r Flit> {
    let l = lanes[lane];
    (l.len > 0).then(|| &ring[lane * depth as usize + l.head as usize])
}

/// Input lane `il`'s front flit's route as `(output lane, is_head)`,
/// computed on first use and cached until the flit leaves the front.
/// The lane must be occupied.
fn front_route(
    ring: &[Flit],
    lanes: &mut [Lane],
    g: &RouterGeometry,
    il: usize,
    route: &impl Fn(&Flit) -> RouteTarget,
) -> (usize, bool) {
    let mut c = lanes[il].front;
    if c == NO_ROUTE {
        let f = front(ring, lanes, g.depth, il).expect("routing an empty lane");
        debug_assert!(!f.is_invalid(), "routing a filler flit");
        let t = route(f);
        c = (t.out.index() * g.vcs() + t.vc as usize) as u8 | if f.is_head { HEAD_BIT } else { 0 };
        lanes[il].front = c;
    }
    ((c & LANE_BITS) as usize, c & HEAD_BIT != 0)
}

/// The cached route of input lane `il`'s front flit, if routed.
fn cached_route(lanes: &[Lane], il: usize) -> Option<(usize, bool)> {
    let c = lanes[il].front;
    (c != NO_ROUTE).then_some(((c & LANE_BITS) as usize, c & HEAD_BIT != 0))
}

/// The single implementation of the VC-allocation candidate rule for
/// output lane `ol`: the owning input lane while the lane is allocated
/// (if its routed front flit requests `ol`), otherwise the round-robin
/// winner among `heads` — the input lanes whose front head flit
/// requests `ol` — starting from the lane's round-robin pointer. Input
/// lanes in `blocked` belong to input ports that already sent a flit
/// this cycle and are skipped: an input port has one crossbar line, so
/// it feeds at most one output per cycle across all its VCs.
fn select_candidate(lanes: &[Lane], ol: usize, blocked: u64, heads: u64) -> Option<usize> {
    match lanes[ol].owner.input() {
        Some(il) => (blocked & (1 << il) == 0
            && cached_route(lanes, il).is_some_and(|(t, _)| t == ol))
        .then_some(il),
        None => {
            let open = heads & !blocked;
            let from_ptr = open & (u64::MAX << lanes[ol].rr_next);
            let pick = if from_ptr != 0 { from_ptr } else { open };
            (pick != 0).then(|| pick.trailing_zeros() as usize)
        }
    }
}

/// Settles lane `l` — its idle run and FSM, billing the router's
/// `counters` — over `lag` idle cycles in closed form: the idle run
/// grows, and the FSM replays its idle future
/// ([`SleepFsm::settle_idle_bulk`]). Returns the arbitrations those
/// cycles perform (one per awake cycle; every cycle when ungated, which
/// never reads `fsm`).
fn settle_lane(
    sleep_cfg: Option<SleepConfig>,
    idle_run: &mut [u64],
    fsm: &mut [SleepFsm],
    counters: &mut GatingCounters,
    l: usize,
    lag: u64,
) -> u64 {
    if lag == 0 {
        return 0;
    }
    let before = idle_run[l];
    idle_run[l] = before + lag;
    match sleep_cfg {
        None => lag,
        Some(cfg) => fsm[l].settle_idle_bulk(lag, before, cfg.threshold(), counters),
    }
}

/// Settles every lane of one router through cycle `through`, each from
/// its own watermark — the one closed form behind both lane- and
/// router-level laziness. `anchor` is a cycle no lane is settled past
/// and no lane lags by 2³² cycles or more (for a router the engine
/// skipped, the last cycle it was accounted through). The router must
/// have nothing a step could move: the caller guarantees the skipped
/// cycles were idle for every lane not yet settled through them.
/// Returns the arbitrations of the settled cycles.
pub fn settle_lanes(
    g: &RouterGeometry,
    ports: &mut PortLane<'_>,
    anchor: u64,
    through: u64,
) -> u64 {
    let mut arbitrations = 0;
    for l in 0..g.lanes() {
        let lag = lane_lag(ports.settled[l], anchor, through);
        arbitrations += settle_lane(
            g.sleep_cfg,
            ports.idle_run,
            ports.fsm,
            ports.counters,
            l,
            lag,
        );
        ports.settled[l] = through as u32;
    }
    arbitrations
}

impl Router {
    /// An empty router: no flit buffered, no output lane held, no ring
    /// block. Its rings come from a [`RingPool`] once it buffers a
    /// flit.
    pub const fn new() -> Self {
        Router {
            occupied: 0,
            owned: 0,
            block: NO_BLOCK,
            sa_rr: [0; 5],
        }
    }

    fn push_back(
        &mut self,
        ring: &mut [Flit],
        lanes: &mut [Lane],
        depth: u16,
        lane: usize,
        flit: Flit,
    ) {
        debug_assert!(lanes[lane].len < depth);
        debug_assert!(!flit.is_invalid(), "buffered a filler flit");
        let l = &mut lanes[lane];
        // Conditional wrap instead of `%`: the depth is a runtime
        // value, so a modulo here is a hardware divide in the hottest
        // loop of the simulator. Widened so `head + len` cannot wrap.
        let mut tail = l.head as usize + l.len as usize;
        if tail >= depth as usize {
            tail -= depth as usize;
        }
        l.len += 1;
        ring[lane * depth as usize + tail] = flit;
        self.occupied |= 1 << lane;
    }

    /// Pops input lane `lane`'s front flit; its cached route goes with
    /// it.
    fn pop_front(
        &mut self,
        ring: &[Flit],
        lanes: &mut [Lane],
        depth: u16,
        lane: usize,
    ) -> Option<Flit> {
        let l = &mut lanes[lane];
        if l.len == 0 {
            return None;
        }
        let head = l.head;
        l.head = if head + 1 == depth { 0 } else { head + 1 };
        l.len -= 1;
        l.front = NO_ROUTE;
        if l.len == 0 {
            self.occupied &= !(1 << lane);
        }
        let flit = ring[lane * depth as usize + head as usize];
        debug_assert!(!flit.is_invalid(), "popped a filler flit");
        Some(flit)
    }

    /// Gives the ring block back to `pool` once the router buffers
    /// nothing.
    fn release_if_empty(&mut self, pool: &mut RingPool) {
        if self.occupied == 0 && self.block != NO_BLOCK {
            pool.give(self.block);
            self.block = NO_BLOCK;
        }
    }

    /// Pushes an arriving flit into the input VC buffer named by
    /// `flit.vc`, first taking a ring block from `pool` if the router
    /// buffered nothing. `lanes` is the router's lane block.
    ///
    /// # Panics
    ///
    /// Panics if that VC buffer is full — callers hold one credit per
    /// free slot, so an overflow means the credit accounting broke.
    pub fn accept(
        &mut self,
        g: &RouterGeometry,
        lanes: &mut [Lane],
        pool: &mut RingPool,
        port: Direction,
        flit: Flit,
    ) {
        let vc = flit.vc as usize;
        assert!(
            can_accept(g, lanes, port, vc),
            "VC buffer overflow at port {port} vc {vc} (packet {})",
            flit.packet_id
        );
        if self.block == NO_BLOCK {
            debug_assert_eq!(pool.block_len, g.lanes() * g.depth());
            self.block = pool.take();
        }
        let ring = pool.ring_mut(self.block);
        self.push_back(ring, lanes, g.depth, port.index() * g.vcs() + vc, flit);
    }

    /// Whether the router holds no flits and no output lane is held
    /// mid-packet — the buffer/crossbar half of the engine's
    /// quiescence predicate. A quiet router's step can only tick idle
    /// counters, so it may be skipped and bulk-accounted.
    pub fn is_quiet(&self) -> bool {
        self.occupied == 0 && self.owned == 0
    }

    /// Calls `f` with every buffered flit, in input-lane order and FIFO
    /// order within a lane — the fault layer's boundary scan. `pool` is
    /// the one the router's ring block came from.
    pub(crate) fn for_each_flit(
        &self,
        g: &RouterGeometry,
        lanes: &[Lane],
        pool: &RingPool,
        mut f: impl FnMut(&Flit),
    ) {
        let ring = pool.ring(self.block);
        let depth = g.depth();
        for (lane, l) in lanes.iter().enumerate() {
            for k in 0..l.len as usize {
                let mut idx = l.head as usize + k;
                if idx >= depth {
                    idx -= depth;
                }
                f(&ring[lane * depth + idx]);
            }
        }
    }

    /// Removes every buffered flit of a doomed packet and releases
    /// output lanes held by doomed worms (their remaining flits are
    /// being purged network-wide, so the tail that would free the lane
    /// will never arrive). Survivors keep their FIFO order; every
    /// front-route cache is dropped with the pops.
    ///
    /// `on_removed` receives each removed flit and the input lane
    /// (`port * V + vc`) it was buffered in, so the caller can return
    /// the freed slot's credit upstream. A router the purge empties
    /// gives its ring block back to `pool`. Returns the number of flits
    /// removed.
    pub(crate) fn purge_packets(
        &mut self,
        g: &RouterGeometry,
        lanes: &mut [Lane],
        pool: &mut RingPool,
        doomed: impl Fn(u64) -> bool,
        mut on_removed: impl FnMut(usize, &Flit),
    ) -> usize {
        let mut removed = 0;
        let ring = pool.ring_mut(self.block);
        for lane in 0..g.lanes() {
            // Pop exactly the original occupancy; survivors re-pushed
            // at the tail come back around in their original order.
            for _ in 0..lanes[lane].len {
                let flit = self
                    .pop_front(ring, lanes, g.depth, lane)
                    .expect("occupancy counted");
                if doomed(flit.packet_id) {
                    on_removed(lane, &flit);
                    removed += 1;
                } else {
                    self.push_back(ring, lanes, g.depth, lane, flit);
                }
            }
        }
        self.release_if_empty(pool);
        for (ol, l) in lanes.iter_mut().enumerate() {
            if !l.owner.is_free() && doomed(l.owner_pkt) {
                l.owner = PortOwner::FREE;
                self.owned &= !(1 << ol);
            }
        }
        removed
    }

    /// [`select_candidate`] against the *live* buffer fronts, ignoring
    /// this cycle's port usage — used for the Immediate policy's
    /// after-send park decision, where the pops that just happened have
    /// already changed the fronts.
    fn candidate_for_lane(
        &self,
        ring: &[Flit],
        lanes: &mut [Lane],
        g: &RouterGeometry,
        ol: usize,
        route: &impl Fn(&Flit) -> RouteTarget,
    ) -> bool {
        let mut heads = 0u64;
        let mut occ = self.occupied;
        while occ != 0 {
            let il = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if front_route(ring, lanes, g, il, route) == (ol, true) {
                heads |= 1 << il;
            }
        }
        select_candidate(lanes, ol, 0, heads).is_some()
    }

    /// One VC-allocation + switch-allocation + traversal cycle at cycle
    /// `now`, with departures streamed through `on_depart` — the
    /// engine's hot path. Returns the cycle's arbitration events (for
    /// the arbiter energy model): one per awake, unallocated output lane
    /// per cycle — for the visited lanes this cycle, plus the cycles
    /// they caught up on. Lanes the step left behind bill theirs when
    /// they are settled.
    ///
    /// `route` maps a flit to its [`RouteTarget`] (output port + output
    /// VC) and is called once per flit, when it reaches the front of
    /// its input lane (and again only if a fault epoch clears the
    /// cached route); `lane_ready` reports whether the output lane
    /// holds a credit (a free slot in the downstream VC buffer; the
    /// ejection port always sinks) — callers must evaluate it against
    /// cycle-start credit state so results are independent of router
    /// iteration order. `ports` is this router's block of the
    /// simulation-owned SoA lane state; its ring pool gets the router's
    /// ring block back if the step empties it.
    ///
    /// Only live output lanes are visited — owned, or requested by a
    /// waiting head flit — unless `all_live` is set, which visits every
    /// lane (the dense oracle, and the engine's periodic watermark
    /// refresh). A visited lane first catches up the cycles through
    /// `now − 1` it sat out. Monomorphized on gating so ungated runs
    /// never touch the FSM lanes (or their cache lines) at all.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        g: &RouterGeometry,
        now: u64,
        all_live: bool,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
        on_depart: impl FnMut(Departure),
    ) -> u64 {
        if g.sleep_cfg.is_some() {
            self.step_impl::<true>(g, now, all_live, route, lane_ready, ports, on_depart)
        } else {
            self.step_impl::<false>(g, now, all_live, route, lane_ready, ports, on_depart)
        }
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn step_impl<const GATED: bool>(
        &mut self,
        g: &RouterGeometry,
        now: u64,
        all_live: bool,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
        mut on_depart: impl FnMut(Departure),
    ) -> u64 {
        let PortLane {
            lanes,
            idle_run,
            fsm,
            counters,
            settled,
            rings,
        } = ports;
        // The router's rings, resolved once; the block goes back to the
        // pool after the last pop if the step empties the router.
        let ring = rings.ring(self.block);
        let depth = g.depth;
        let v = g.vcs();
        let nlanes = 5 * v;
        let vmask = (1u64 << v) - 1;
        let mut arbitrations = 0u64;
        // Input lanes of ports that already sent this cycle.
        let mut blocked = 0u64;

        // Requesters per output lane, from the occupied input lanes'
        // cached front routes: a free lane nobody requests is not live.
        let mut heads = [0u64; MAX_LANES];
        let mut head_wants = 0u64;
        let mut occ = self.occupied;
        while occ != 0 {
            let il = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let (ol, is_head) = front_route(ring, lanes, g, il, &route);
            if is_head {
                head_wants |= 1 << ol;
                heads[ol] |= 1 << il;
            }
        }
        let live = if all_live {
            (1u64 << nlanes) - 1
        } else {
            self.owned | head_wants
        };

        for out in Direction::ALL {
            let oi = out.index();
            let port_live = (live >> (oi * v)) & vmask;
            if port_live == 0 {
                continue;
            }
            // Switch allocation: round-robin start among this output
            // port's V lanes; the first lane that can send wins the
            // port's single crossbar line this cycle. Rotating the live
            // mask puts the start lane at bit 0.
            let sa_start = self.sa_rr[oi] as usize;
            let mut order = ((port_live >> sa_start) | (port_live << (v - sa_start))) & vmask;
            let mut winner_vc: Option<usize> = None;
            while order != 0 {
                let j = order.trailing_zeros() as usize;
                order &= order - 1;
                let ovc = if sa_start + j >= v {
                    sa_start + j - v
                } else {
                    sa_start + j
                };
                let ol = oi * v + ovc;
                let lag = lane_lag(settled[ol], now - 1, now - 1);
                arbitrations += settle_lane(g.sleep_cfg, idle_run, fsm, counters, ol, lag);

                let free = lanes[ol].owner.is_free();
                let candidate = select_candidate(lanes, ol, blocked, heads[ol]);
                // A flit "wants" the lane only when it could actually
                // move: a sleeping lane stays in standby while the
                // downstream VC is out of credits instead of waking
                // into backpressure.
                let wants = candidate.is_some() && lane_ready(out, ovc);

                let can_transmit = if GATED {
                    let cfg = g.sleep_cfg.expect("GATED implies a sleep config");
                    fsm[ol].gate(wants, cfg.wake_latency)
                } else {
                    true
                };

                if can_transmit && free {
                    arbitrations += 1;
                }

                let ended = idle_run[ol];
                let mut sent = false;
                if can_transmit && wants && winner_vc.is_none() {
                    let il = candidate.expect("wants implies candidate");
                    let mut flit = self
                        .pop_front(ring, lanes, depth, il)
                        .expect("front exists");
                    if free {
                        // VC allocation: the head flit claims the lane
                        // (released again immediately for single-flit
                        // packets) and advances its round-robin.
                        if !flit.is_tail {
                            lanes[ol].owner = PortOwner::owned(il);
                            self.owned |= 1 << ol;
                            lanes[ol].owner_pkt = flit.packet_id;
                        }
                        let next = il + 1;
                        lanes[ol].rr_next = (if next == nlanes { 0 } else { next }) as u8;
                    } else if flit.is_tail {
                        lanes[ol].owner = PortOwner::FREE;
                        self.owned &= !(1 << ol);
                    }
                    let port = il / v;
                    flit.vc = ovc as u8;
                    on_depart(Departure {
                        input: Direction::from_index(port),
                        input_vc: (il - port * v) as u8,
                        output: out,
                        flit,
                        idle_run: ended,
                    });
                    blocked |= vmask << (port * v);
                    sent = true;
                    winner_vc = Some(ovc);
                }

                // Idle-run bookkeeping for the power model, per lane.
                idle_run[ol] = if sent { 0 } else { ended + 1 };

                if GATED {
                    let cfg = g.sleep_cfg.expect("GATED implies a sleep config");
                    // Only FSM-blocked cycles are wake stalls; losing
                    // switch allocation to a sibling lane is ordinary
                    // contention, not a gating penalty.
                    let stalled = wants && !can_transmit;
                    // Only Immediate's after-send park decision needs to
                    // know whether another flit is already waiting; the
                    // rescan reads the fresh buffer fronts (the pop just
                    // changed them). The just-used input port is free
                    // again next cycle, so the lookahead ignores this
                    // cycle's usage.
                    let wants_after = sent
                        && cfg.threshold() == Some(0)
                        && lane_ready(out, ovc)
                        && self.candidate_for_lane(ring, lanes, g, ol, &route);
                    let run = if sent { ended } else { ended + 1 };
                    fsm[ol].settle(sent, stalled, wants_after, run, &cfg, counters);
                }
                settled[ol] = now as u32;
            }
            if let Some(wvc) = winner_vc {
                if v > 1 {
                    let next = wvc + 1;
                    self.sa_rr[oi] = (if next == v { 0 } else { next }) as u8;
                }
            }
        }

        self.release_if_empty(rings);
        arbitrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep::SleepState;
    use lnoc_power::gating::GatingPolicy;

    /// Standalone owner of one router's lane block, SoA lane state,
    /// geometry and ring pool for unit tests (the simulation owns these
    /// per tile), with its own cycle counter.
    struct Ports {
        geom: RouterGeometry,
        lanes: Vec<Lane>,
        idle: Vec<u64>,
        fsm: Vec<SleepFsm>,
        counters: GatingCounters,
        settled: Vec<u32>,
        pool: RingPool,
        now: u64,
    }

    impl Ports {
        /// Lane state and a one-block ring pool for one router with
        /// `vcs` VCs of `depth` flits, gated by `sleep_cfg`.
        fn new(depth: usize, vcs: usize, sleep_cfg: Option<SleepConfig>) -> Self {
            let geom = RouterGeometry::new(depth, vcs, sleep_cfg);
            let lanes = geom.lanes();
            Ports {
                geom,
                lanes: vec![Lane::EMPTY; lanes],
                idle: vec![0; lanes],
                fsm: vec![SleepFsm::default(); lanes],
                counters: GatingCounters::default(),
                settled: vec![0; lanes],
                pool: RingPool::new(1, &geom),
                now: 0,
            }
        }

        fn lane(&mut self) -> PortLane<'_> {
            PortLane {
                lanes: &mut self.lanes,
                idle_run: &mut self.idle,
                fsm: &mut self.fsm,
                counters: &mut self.counters,
                settled: &mut self.settled,
                rings: &mut self.pool,
            }
        }

        fn accept(&mut self, r: &mut Router, port: Direction, flit: Flit) {
            r.accept(&self.geom, &mut self.lanes, &mut self.pool, port, flit);
        }

        fn can_accept(&self, port: Direction, vc: usize) -> bool {
            can_accept(&self.geom, &self.lanes, port, vc)
        }

        fn occupancy(&self, port: Direction, vc: usize) -> usize {
            occupancy(&self.lanes, self.geom.vcs(), port, vc)
        }

        fn total_occupancy(&self) -> usize {
            total_occupancy(&self.lanes)
        }

        fn purge(&mut self, r: &mut Router, doomed: impl Fn(u64) -> bool) -> usize {
            r.purge_packets(
                &self.geom,
                &mut self.lanes,
                &mut self.pool,
                doomed,
                |_, _| {},
            )
        }

        /// Settles every lane through cycle `now`.
        fn settle(&mut self, now: u64) -> u64 {
            let geom = self.geom;
            settle_lanes(&geom, &mut self.lane(), now, now)
        }

        /// One step of `r` at cycle `now`.
        fn step_at(
            &mut self,
            r: &mut Router,
            now: u64,
            all_live: bool,
            route: impl Fn(&Flit) -> RouteTarget,
            ready: impl Fn(Direction, usize) -> bool,
            on_depart: impl FnMut(Departure),
        ) -> u64 {
            let geom = self.geom;
            r.step(&geom, now, all_live, route, ready, self.lane(), on_depart)
        }

        /// One dense step of `r` on the next cycle — every lane
        /// visited — returning its departures in output-port order.
        fn step(
            &mut self,
            r: &mut Router,
            route: impl Fn(&Flit) -> RouteTarget,
            ready: impl Fn(Direction, usize) -> bool,
        ) -> Vec<Departure> {
            self.now += 1;
            let now = self.now;
            let mut departures = Vec::new();
            self.step_at(r, now, true, route, ready, |d| departures.push(d));
            departures
        }
    }

    fn flit(id: u64, head: bool, tail: bool) -> Flit {
        Flit {
            packet_id: id,
            dst: 1,
            vc: 0,
            is_head: head,
            is_tail: tail,
            injected_at: 0,
        }
    }

    fn vflit(id: u64, vc: u8, head: bool, tail: bool) -> Flit {
        Flit {
            vc,
            ..flit(id, head, tail)
        }
    }

    /// Route everything to one output port on VC 0.
    fn to(out: Direction) -> impl Fn(&Flit) -> RouteTarget {
        move |_| RouteTarget { out, vc: 0 }
    }

    #[test]
    fn single_flit_passes_through() {
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, true));
        let deps = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].output, Direction::East);
        assert_eq!(deps[0].input, Direction::West);
        assert_eq!(deps[0].input_vc, 0);
        assert_eq!(p.total_occupancy(), 0);
        assert!(r.is_quiet());
    }

    #[test]
    fn wormhole_holds_lane_for_whole_packet() {
        let mut r = Router::new();
        let mut p = Ports::new(8, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, false));
        p.accept(&mut r, Direction::West, flit(1, false, false));
        p.accept(&mut r, Direction::West, flit(1, false, true));
        // A competing head on another input wants the same output.
        p.accept(&mut r, Direction::North, flit(2, true, true));

        let mut winners = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            for d in out {
                winners.push(d.flit.packet_id);
            }
        }
        // All four flits cross, and packet 1's three flits stay
        // contiguous (the lane is held until the tail) — which input
        // wins the initial allocation is round-robin state, not part of
        // the contract.
        assert_eq!(winners.len(), 4);
        let first_one = winners.iter().position(|&p| p == 1).expect("packet 1 sent");
        assert_eq!(&winners[first_one..first_one + 3], &[1, 1, 1]);
    }

    #[test]
    fn no_credit_blocks() {
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(out.len(), 0);
        assert_eq!(p.total_occupancy(), 1);
        assert!(!r.is_quiet());
    }

    #[test]
    fn mid_packet_router_is_not_quiet() {
        // The head leaves but the lane stays Owned awaiting body flits:
        // the router is empty yet must not be treated as quiescent (the
        // held lane must not arbitrate).
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, false));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(out.len(), 1);
        assert_eq!(p.total_occupancy(), 0);
        assert!(!r.is_quiet(), "owned output lane keeps the router active");
    }

    #[test]
    fn buffer_overflow_panics() {
        let mut r = Router::new();
        let mut p = Ports::new(1, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, true));
        assert!(!p.can_accept(Direction::West, 0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.accept(&mut r, Direction::West, flit(2, true, true));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn vc_buffers_are_independent() {
        // Filling VC 0 must leave VC 1 accepting, and vice versa.
        let mut r = Router::new();
        let mut p = Ports::new(1, 2, None);
        p.accept(&mut r, Direction::West, vflit(1, 0, true, true));
        assert!(!p.can_accept(Direction::West, 0));
        assert!(p.can_accept(Direction::West, 1));
        p.accept(&mut r, Direction::West, vflit(2, 1, true, true));
        assert!(!p.can_accept(Direction::West, 1));
        assert_eq!(p.occupancy(Direction::West, 0), 1);
        assert_eq!(p.occupancy(Direction::West, 1), 1);
        assert_eq!(
            p.occupancy(Direction::West, 0) + p.occupancy(Direction::West, 1),
            2
        );
    }

    #[test]
    fn ring_buffer_wraps_cleanly() {
        // Push/pop more flits than the depth so heads wrap around.
        let mut r = Router::new();
        let mut p = Ports::new(3, 1, None);
        for round in 0..5u64 {
            p.accept(&mut r, Direction::West, flit(round, true, true));
            p.accept(&mut r, Direction::West, flit(round + 100, true, true));
            let f1 = p.step(&mut r, to(Direction::East), |_, _| true);
            let f2 = p.step(&mut r, to(Direction::East), |_, _| true);
            assert_eq!(f1[0].flit.packet_id, round);
            assert_eq!(f2[0].flit.packet_id, round + 100);
        }
        assert_eq!(p.total_occupancy(), 0);
    }

    #[test]
    fn deepest_buffer_fills_and_wraps() {
        // The 16-bit cursors at the depth cap: a full lane reads back
        // in FIFO order after its tail wraps past the last slot.
        let depth = MAX_BUFFER_DEPTH as u64;
        let mut r = Router::new();
        let mut p = Ports::new(MAX_BUFFER_DEPTH, 1, None);
        for id in 0..depth {
            p.accept(&mut r, Direction::West, flit(id, true, true));
        }
        assert!(!p.can_accept(Direction::West, 0));
        let mut sent = Vec::new();
        for _ in 0..3 {
            sent.extend(p.step(&mut r, to(Direction::East), |_, _| true));
        }
        for id in depth..depth + 3 {
            p.accept(&mut r, Direction::West, flit(id, true, true));
        }
        assert_eq!(p.occupancy(Direction::West, 0), MAX_BUFFER_DEPTH);
        while p.total_occupancy() > 0 {
            sent.extend(p.step(&mut r, to(Direction::East), |_, _| true));
        }
        let ids: Vec<u64> = sent.iter().map(|d| d.flit.packet_id).collect();
        assert_eq!(ids, (0..depth + 3).collect::<Vec<_>>());
    }

    #[test]
    fn one_input_port_feeds_at_most_one_output_per_cycle() {
        // Input West holds [tail of packet 1 → East, head of packet 2 →
        // Local]. A single input port has one crossbar line, so the
        // two flits must leave on different cycles even though both
        // outputs are free.
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, true));
        p.accept(&mut r, Direction::West, flit(2, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first.len(), 1, "one read per input port");
        assert_eq!(first[0].output, Direction::East);
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second[0].output, Direction::Local);
    }

    #[test]
    fn sibling_vcs_share_the_input_port_crossbar_line() {
        // Two single-flit packets on different VCs of the same input
        // port, to different outputs: one read per port per cycle, so
        // they leave on consecutive cycles.
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        p.accept(&mut r, Direction::West, vflit(1, 0, true, true));
        p.accept(&mut r, Direction::West, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first.len(), 1);
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second.len(), 1);
        assert_eq!(p.total_occupancy(), 0);
    }

    #[test]
    fn output_port_sends_one_flit_per_cycle_across_vcs() {
        // Heads on two different input ports request the two different
        // VCs of the same output port: both win VC allocation, but the
        // port's single crossbar line carries one flit per cycle, and
        // switch allocation round-robins between the lanes.
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        for _ in 0..2 {
            p.accept(&mut r, Direction::West, vflit(1, 0, true, true));
            p.accept(&mut r, Direction::North, vflit(2, 0, true, true));
        }
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let mut per_cycle = Vec::new();
        let mut vcs_seen = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, route, |_, _| true);
            per_cycle.push(out.len());
            for d in out {
                vcs_seen.push(d.flit.vc);
            }
        }
        assert_eq!(per_cycle, vec![1, 1, 1, 1], "one flit per output port");
        // Switch allocation alternates between the two lanes.
        assert_ne!(vcs_seen[0], vcs_seen[1]);
        assert_ne!(vcs_seen[1], vcs_seen[2]);
        assert_eq!(p.total_occupancy(), 0);
    }

    #[test]
    fn blocked_vc_does_not_block_its_sibling() {
        // VC 0 of the output has no credit; a packet on VC 1 must still
        // flow — the head-of-line blocking VCs exist to remove.
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        p.accept(&mut r, Direction::West, vflit(1, 0, true, true));
        p.accept(&mut r, Direction::North, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let ready = |_d: Direction, vc: usize| vc == 1;
        let mut delivered = Vec::new();
        for _ in 0..2 {
            let out = p.step(&mut r, route, ready);
            for d in out {
                delivered.push((d.flit.packet_id, d.flit.vc));
            }
        }
        assert_eq!(delivered, vec![(2, 1)], "only the credited VC moves");
        assert_eq!(p.total_occupancy(), 1, "VC 0's packet stays buffered");
    }

    #[test]
    fn round_robin_rotates_between_competitors() {
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        // Two single-flit packets per input, both to East.
        for _ in 0..2 {
            p.accept(&mut r, Direction::West, flit(10, true, true));
            p.accept(&mut r, Direction::North, flit(20, true, true));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            for d in out {
                order.push(d.flit.packet_id);
            }
        }
        assert_eq!(order.len(), 4);
        // Alternation: no input sends twice in a row.
        assert_ne!(order[0], order[1]);
        assert_ne!(order[1], order[2]);
    }

    #[test]
    fn idle_runs_are_tracked_per_lane() {
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        // Three idle cycles on every lane.
        for _ in 0..3 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        p.accept(&mut r, Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        let east0 = Direction::East.index() * 2;
        // East VC 0's 3-cycle idle run ended when the flit crossed; its
        // sibling VC 1 lane stays idle.
        assert_eq!(out[0].idle_run, 3);
        assert_eq!(p.idle[east0], 0);
        assert!(p.idle[east0 + 1] >= 4, "sibling lane keeps idling");
        assert!(p.idle[Direction::North.index() * 2] >= 4);
    }

    #[test]
    fn sleeping_lane_stalls_flit_by_wake_latency() {
        let wake = 3u32;
        let mut r = Router::new();
        let mut p = Ports::new(
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(2),
                wake_latency: wake,
            }),
        );
        // Idle past the threshold: the lane sleeps.
        for _ in 0..4 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Asleep);

        // A flit arrives; it must wait out exactly `wake` cycles.
        p.accept(&mut r, Direction::West, flit(1, true, true));
        let mut stalls = 0;
        loop {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            if out.len() == 1 {
                break;
            }
            stalls += 1;
            assert!(stalls < 10, "flit never departed");
        }
        assert_eq!(stalls, wake);
        assert_eq!(p.counters.wake_stall_cycles, wake as u64);
        assert_eq!(p.counters.cycles_waking, wake as u64);
        // All five idle lanes slept; only East had to wake.
        assert_eq!(p.counters.sleep_entries, 5);
    }

    #[test]
    fn empty_vc_sleeps_while_sibling_carries_a_worm() {
        // The per-VC gating granularity the refactor exists for: VC 1
        // of the East port sleeps through a worm crossing on VC 0.
        let cfg = SleepConfig {
            policy: GatingPolicy::IdleThreshold(2),
            wake_latency: 1,
        };
        let mut r = Router::new();
        let mut p = Ports::new(8, 2, Some(cfg));
        // A long worm on VC 0 keeps the port busy…
        p.accept(&mut r, Direction::West, vflit(1, 0, true, false));
        for _ in 0..6 {
            p.accept(&mut r, Direction::West, vflit(1, 0, false, false));
        }
        let route = |_: &Flit| RouteTarget {
            out: Direction::East,
            vc: 0,
        };
        for _ in 0..6 {
            let _ = p.step(&mut r, route, |_, _| true);
        }
        let east = Direction::East.index() * 2;
        assert_eq!(
            p.fsm[east].state(),
            SleepState::Active,
            "the worm's lane stays awake"
        );
        assert_eq!(
            p.fsm[east + 1].state(),
            SleepState::Asleep,
            "the empty sibling VC lane sleeps"
        );
        assert!(p.counters.cycles_busy >= 6);
        assert!(p.counters.cycles_asleep > 0);
    }

    #[test]
    fn ungated_router_has_zero_counters() {
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        for _ in 0..10 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        assert_eq!(p.counters, GatingCounters::default());
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Active);
    }

    #[test]
    fn never_policy_matches_ungated_behaviour_with_accounting() {
        let mut r = Router::new();
        let mut p = Ports::new(
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::Never,
                wake_latency: 1,
            }),
        );
        for _ in 0..5 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        p.accept(&mut r, Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(out.len(), 1, "Never gating never stalls");
        assert_eq!(p.counters.sleep_entries, 0);
        assert_eq!(p.counters.cycles_busy, 1);
        // 5 idle cycles × 5 lanes + 4 idle lanes on the send cycle.
        assert_eq!(p.counters.cycles_idle_awake, 29);
    }

    /// The quiescence predicate as a scan of buffers and owners — what
    /// the incrementally maintained masks must agree with.
    fn scanned_quiet(p: &Ports) -> bool {
        p.total_occupancy() == 0 && p.lanes.iter().all(|l| l.owner.is_free())
    }

    /// A deterministic xorshift stream for the randomized router tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Lane-granular stepping is an optimization, not a model
        /// change: one router stepped with every lane live and one
        /// stepped lazily, fed the same random arrivals and credit
        /// states, send the same flits every cycle (ended idle runs
        /// included), keep the same masks, and — whenever the lazy one
        /// catches up, at random cycles and at the end — agree on the
        /// running arbitration total and every idle run, FSM and
        /// counter.
        #[test]
        fn lazy_step_matches_dense_step(
            seed in 0u64..u64::MAX,
            vcs_sel in 0usize..3,
            gating_sel in 0u32..13,
            wake in 0u32..5,
            load in 1u64..4,
        ) {
            let vcs = [1usize, 2, 4][vcs_sel];
            let gating = match gating_sel {
                0 => None,
                1 => Some(GatingPolicy::Never),
                2 => Some(GatingPolicy::Immediate),
                th => Some(GatingPolicy::IdleThreshold(th - 3)),
            }
            .map(|policy| SleepConfig { policy, wake_latency: wake });
            let mut dense = Router::new();
            let mut lazy = Router::new();
            let mut dp = Ports::new(4, vcs, gating);
            let mut lp = Ports::new(4, vcs, gating);
            let mut rnd = xorshift(seed);
            let route = move |f: &Flit| RouteTarget {
                out: Direction::from_index(f.dst as usize % 5),
                vc: (f.packet_id % vcs as u64) as u8,
            };
            let (mut dense_arbs, mut lazy_arbs) = (0u64, 0u64);
            let mut pkt = 0u64;
            for now in 1..=400u64 {
                // Bursts of arrivals separated by idle stretches, so
                // lanes sleep, wake and sit out whole spans.
                let arrivals = if (now / 40) % 2 == 0 { rnd() % (load + 1) } else { 0 };
                for _ in 0..arrivals {
                    let port = Direction::from_index((rnd() % 5) as usize);
                    let vc = (rnd() % vcs as u64) as u8;
                    let dst = (rnd() % 5) as u32;
                    let len = 1 + (rnd() % 3) as usize;
                    if dp.occupancy(port, vc as usize) + len <= 4 {
                        pkt += 1;
                        for k in 0..len {
                            let f = Flit {
                                packet_id: pkt,
                                dst,
                                vc,
                                is_head: k == 0,
                                is_tail: k + 1 == len,
                                injected_at: now,
                            };
                            dp.accept(&mut dense, port, f);
                            lp.accept(&mut lazy, port, f);
                        }
                    }
                }
                let ready_mask = rnd();
                let ready = move |d: Direction, vc: usize| {
                    ready_mask & (1 << (d.index() * 8 + vc)) != 0
                };
                let mut dense_deps = Vec::new();
                let mut lazy_deps = Vec::new();
                dense_arbs += dp.step_at(&mut dense, now, true, route, ready, |d| dense_deps.push(d));
                lazy_arbs += lp.step_at(&mut lazy, now, false, route, ready, |d| lazy_deps.push(d));
                proptest::prop_assert!(dense_deps == lazy_deps, "departures diverged at cycle {now}");
                proptest::prop_assert_eq!(dense.is_quiet(), scanned_quiet(&dp));
                proptest::prop_assert_eq!(lazy.is_quiet(), scanned_quiet(&lp));
                proptest::prop_assert_eq!(dp.total_occupancy(), lp.total_occupancy());
                if rnd().is_multiple_of(8) || now == 400 {
                    lazy_arbs += lp.settle(now);
                    proptest::prop_assert!(dense_arbs == lazy_arbs, "arbitration totals diverged at cycle {now}");
                    proptest::prop_assert!(dp.idle == lp.idle, "idle runs diverged at cycle {now}");
                    proptest::prop_assert!(dp.fsm == lp.fsm, "FSMs diverged at cycle {now}");
                    proptest::prop_assert!(dp.counters == lp.counters, "counters diverged at cycle {now}");
                    proptest::prop_assert!(dp.settled == lp.settled, "watermarks diverged at cycle {now}");
                }
            }
        }
    }

    #[test]
    fn watermarks_wrap_around_u32_cleanly() {
        // The same traffic played at cycles straddling 2³² and at small
        // cycles: lanes caught up across the wrap of their 32-bit
        // watermarks settle exactly like lanes that never wrap.
        let cfg = Some(SleepConfig {
            policy: GatingPolicy::IdleThreshold(3),
            wake_latency: 2,
        });
        let play = |start: u64| {
            let mut r = Router::new();
            let mut p = Ports::new(4, 2, cfg);
            p.now = start;
            p.settled.fill(start as u32);
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
            p.accept(&mut r, Direction::West, flit(1, true, true));
            let mut deps = Vec::new();
            let mut arbs = 0;
            for gap in [2u64, 7, 1] {
                p.now += gap;
                let now = p.now;
                arbs += p.step_at(
                    &mut r,
                    now,
                    false,
                    to(Direction::East),
                    |_, _| true,
                    |d| deps.push(d),
                );
            }
            let now = p.now + 5;
            arbs += p.settle(now);
            (deps, arbs, p.idle, p.fsm, p.counters)
        };
        assert_eq!(play(3), play((1 << 32) - 4));
    }

    #[test]
    fn route_cache_is_cleared_by_a_pop() {
        // Each flit is routed once, when it reaches the front — not
        // once per cycle it waits — and a pop hands the next flit a
        // fresh route.
        let calls = std::cell::Cell::new(0);
        let route = |f: &Flit| {
            calls.set(calls.get() + 1);
            RouteTarget {
                out: if f.packet_id == 1 {
                    Direction::East
                } else {
                    Direction::North
                },
                vc: 0,
            }
        };
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, true));
        p.accept(&mut r, Direction::West, flit(2, true, true));
        for _ in 0..3 {
            assert_eq!(p.step(&mut r, route, |_, _| false).len(), 0);
        }
        assert_eq!(calls.get(), 1, "a waiting front flit is routed once");
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first[0].output, Direction::East);
        assert_eq!(cached_route(&p.lanes, 0), None, "the pop dropped the cache");
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second[0].output, Direction::North);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn route_cache_is_cleared_by_purge_and_epoch_change() {
        let west = Direction::West.index();
        let mut r = Router::new();
        let mut p = Ports::new(4, 1, None);
        p.accept(&mut r, Direction::West, flit(1, true, false));
        p.accept(&mut r, Direction::West, flit(2, true, true));
        let _ = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(
            cached_route(&p.lanes, west),
            Some((Direction::East.index(), true))
        );
        // Purging the front packet exposes a new front flit.
        p.purge(&mut r, |pid| pid == 1);
        assert_eq!(cached_route(&p.lanes, west), None);
        let _ = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(
            cached_route(&p.lanes, west),
            Some((Direction::East.index(), true))
        );
        // A new fault epoch changes the routing function itself: the
        // cached route goes, and the next step follows the new one.
        clear_route_cache(&mut p.lanes);
        assert_eq!(cached_route(&p.lanes, west), None);
        let out = p.step(&mut r, to(Direction::South), |_, _| true);
        assert_eq!(out[0].output, Direction::South);
    }

    #[test]
    fn quiet_masks_agree_with_buffer_and_owner_scan() {
        // Occupied and owned masks track push, pop, allocation, tail
        // release and purge.
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        assert!(r.is_quiet() && scanned_quiet(&p));
        p.accept(&mut r, Direction::West, vflit(1, 1, true, false));
        p.accept(&mut r, Direction::West, vflit(1, 1, false, true));
        assert!(!r.is_quiet() && !scanned_quiet(&p));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(p.total_occupancy(), 1);
        assert!(!r.is_quiet() && !scanned_quiet(&p));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert!(
            r.is_quiet() && scanned_quiet(&p),
            "the tail released the lane"
        );
        // A worm whose tail is purged upstream leaves an owned lane.
        p.accept(&mut r, Direction::North, flit(2, true, false));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(p.total_occupancy(), 0);
        assert!(!r.is_quiet() && !scanned_quiet(&p));
        p.purge(&mut r, |pid| pid == 2);
        assert!(r.is_quiet() && scanned_quiet(&p));
    }

    #[test]
    fn ring_block_goes_back_when_empty_and_order_survives_a_new_one() {
        // Two routers share a pool. `r` sends the same traffic twice:
        // between the rounds it empties and gives its block back, `other`
        // takes that block, and `r` refills into a fresh one. FIFO order
        // within each lane and the output port's VC round-robin carry
        // over unchanged. A purge gives the block back the same way.
        let mut r = Router::new();
        let mut p = Ports::new(4, 2, None);
        p.pool = RingPool::new(2, &p.geom);
        let mut other = Router::new();
        let mut other_lanes = vec![Lane::EMPTY; p.geom.lanes()];
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: (f.packet_id % 2) as u8,
        };
        // One round of `r`'s traffic, with `held` blocks already taken
        // by other routers.
        let round = |r: &mut Router, p: &mut Ports, base: u64, held: usize| {
            for k in 0..2 {
                let id = base + 2 * k;
                p.accept(r, Direction::West, vflit(id, 0, true, true));
                p.accept(r, Direction::North, vflit(id + 1, 1, true, true));
            }
            assert_eq!(p.pool.in_use(), held + 1);
            let mut sent = Vec::new();
            while p.total_occupancy() > 0 {
                for d in p.step(r, route, |_, _| true) {
                    sent.push((d.flit.packet_id - base, d.flit.vc));
                }
            }
            assert_eq!(r.block, NO_BLOCK, "an empty router holds no block");
            sent
        };
        let first = round(&mut r, &mut p, 0, 0);
        assert_eq!(p.pool.in_use(), 0);
        other.accept(
            &p.geom,
            &mut other_lanes,
            &mut p.pool,
            Direction::South,
            flit(99, true, true),
        );
        assert_eq!(other.block, 0, "the returned block is handed out first");
        let second = round(&mut r, &mut p, 100, 1);
        assert_eq!(p.pool.high_water(), 2);
        assert_eq!(first, vec![(0, 0), (1, 1), (2, 0), (3, 1)]);
        assert_eq!(second, first);

        // A purge that keeps a flit keeps the block; one that empties
        // the router gives it back.
        p.accept(&mut r, Direction::West, flit(7, true, true));
        p.accept(&mut r, Direction::North, flit(8, true, true));
        p.purge(&mut r, |pid| pid == 7);
        assert_ne!(r.block, NO_BLOCK);
        p.purge(&mut r, |pid| pid == 8);
        assert_eq!(r.block, NO_BLOCK);
        assert_eq!(p.pool.in_use(), 1, "only `other` still holds a block");
    }
}
