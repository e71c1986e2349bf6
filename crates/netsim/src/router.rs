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
//! Per-lane idle-run counters, [`SleepFsm`] sleep controllers and
//! [`GatingCounters`] are **not** stored inside the router. The
//! simulation owns them as flat network-wide SoA arrays (indexed
//! `router * 5 * V + port * V + vc`) and lends this router's lane block
//! to [`Router::step_fast`] as a [`PortLane`]. Gating is therefore per
//! **VC lane**: an empty VC bank can sleep while a sibling VC of the
//! same port carries a worm.
//!
//! A step visits only the *live* output lanes: lanes held mid-packet or
//! requested by a waiting head flit. Every other lane can do nothing
//! but idle — no candidate, no send — so it is left behind and settled
//! later in closed form ([`SleepFsm::settle_idle_bulk`]) from its own
//! watermark ([`PortLane::settled`]): when it next becomes live, or when
//! the simulation settles the whole router ([`Router::settle_lanes`]).
//! The router keeps the masks that make this cheap — occupied input
//! lanes, owned output lanes — plus each input lane's front-flit route,
//! computed once when the flit reaches the front. Stepping every lane
//! every cycle (`all_live`) is the dense oracle through the same code.
//!
//! The input VC buffers live in one flat ring-buffer allocation and
//! [`Router::step_fast`] performs no heap allocation — the hot loop of
//! the whole simulator.
//!
//! [`Mesh::hop_vc`]: crate::topology::Mesh::hop_vc

use crate::sleep::{SleepConfig, SleepFsm};
use crate::topology::Direction;
use crate::traffic::Flit;
use lnoc_power::gating::GatingCounters;
use serde::{Deserialize, Serialize};

/// Hard cap on virtual channels per port: keeps every per-router lane
/// mask in one `u64` (`5 * 8 = 40` lanes) and the lane-owner and
/// front-route encodings in one byte.
pub const MAX_VCS: usize = 8;

/// Maximum lanes per router (`5 * MAX_VCS`) — sizes the fixed per-cycle
/// scratch arrays so [`Router::step_fast`] stays allocation-free for
/// any VC count.
pub const MAX_LANES: usize = 5 * MAX_VCS;

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

/// Per-output-lane state: which input lane currently owns the lane.
/// One byte per lane (`FREE` or the owning input-lane index `port * V +
/// vc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

impl Default for PortOwner {
    fn default() -> Self {
        PortOwner::FREE
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
/// record: the *input* VC buffer's ring cursor and its front flit's
/// cached route ([`NO_ROUTE`], or the requested output lane with
/// [`HEAD_BIT`] set for a head flit), and the *output* VC lane's
/// allocation state. One allocation per router instead of one per
/// field keeps the router small on meshes of many thousands of routers.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Packet id of the worm holding the output lane — only meaningful
    /// while `owner` is allocated. Lets the fault layer release lanes
    /// held by doomed packets whose remaining flits were purged
    /// upstream.
    owner_pkt: u64,
    /// Ring-buffer index of the input VC's front flit.
    head: u32,
    /// Flits buffered in the input VC.
    len: u32,
    /// Owner of the output lane.
    owner: PortOwner,
    /// VC-allocation round-robin pointer of the output lane, over the
    /// `5 * V` input lanes.
    rr_next: u8,
    /// Cached route of the input VC's front flit.
    front: u8,
}

impl Lane {
    const EMPTY: Lane = Lane {
        owner_pkt: 0,
        head: 0,
        len: 0,
        owner: PortOwner::FREE,
        rr_next: 0,
        front: NO_ROUTE,
    };
}

/// One router's block of the simulation-owned SoA per-lane state, lent
/// to [`Router::step_fast`] for one cycle (or to
/// [`Router::settle_lanes`]). All slices have `5 * V` entries, indexed
/// `port * V + vc`.
///
/// A lane is *settled through* the cycle its watermark names: its idle
/// run, FSM and share of the counters account every cycle up to and
/// including it. Lanes a step does not visit keep their watermark and
/// catch up in closed form later, so between settlements the slices
/// describe each lane as of its own watermark, not as of the clock.
#[derive(Debug)]
pub struct PortLane<'a> {
    /// Consecutive idle cycles per output VC lane (the authoritative
    /// idle-run counters behind the idle-interval histograms).
    pub idle_run: &'a mut [u64],
    /// Sleep controller per output VC lane.
    pub fsm: &'a mut [SleepFsm],
    /// This router's accumulated gating counters (all lanes summed).
    pub counters: &'a mut GatingCounters,
    /// Settlement watermark per output VC lane: the low 32 bits of the
    /// last cycle the lane is settled through. Lags are recovered
    /// against an *anchor* cycle known to be no earlier than the
    /// watermark and less than 2³² cycles past it (see
    /// [`Router::settle_lanes`]).
    pub settled: &'a mut [u32],
}

/// Cycles a lane with watermark `mark` lags behind `through`, given an
/// `anchor` with `mark ≤ anchor ≤ through` and `anchor − mark < 2³²`
/// (the watermark holds only the low 32 bits of its cycle).
fn lane_lag(mark: u32, anchor: u64, through: u64) -> u64 {
    (through - anchor) + (anchor as u32).wrapping_sub(mark) as u64
}

/// One wormhole router.
#[derive(Debug, Clone)]
pub struct Router {
    /// This router's id in the mesh.
    pub id: usize,
    /// All `5 * V` input VC buffers in one flat allocation: lane `l`
    /// owns the slot range `l*depth..(l+1)*depth` as a ring buffer.
    slots: Box<[Flit]>,
    /// Per-lane cursors, route caches and output-lane allocation state.
    lanes: Box<[Lane]>,
    /// Flits per input VC buffer.
    depth: u32,
    /// Bit `l` set ⇔ input lane `l` holds at least one flit.
    occupied: u64,
    /// Bit `l` set ⇔ output lane `l` is held mid-packet (its owner is
    /// not free).
    owned: u64,
    /// Switch-allocation round-robin pointer per output *port*, over
    /// its `V` lanes.
    sa_rr: [u8; 5],
    vcs: u8,
    sleep_cfg: Option<SleepConfig>,
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

impl Router {
    /// Creates an empty, ungated router with `vcs` virtual channels of
    /// `buffer_depth` flits each per port.
    ///
    /// # Panics
    ///
    /// Panics when `vcs` is 0 or exceeds [`MAX_VCS`].
    pub fn new(id: usize, buffer_depth: usize, vcs: usize) -> Self {
        assert!((1..=MAX_VCS).contains(&vcs), "vcs must be in 1..={MAX_VCS}");
        let lanes = 5 * vcs;
        Router {
            id,
            slots: vec![Flit::INVALID; lanes * buffer_depth].into_boxed_slice(),
            lanes: vec![Lane::EMPTY; lanes].into_boxed_slice(),
            depth: buffer_depth as u32,
            occupied: 0,
            owned: 0,
            sa_rr: [0; 5],
            vcs: vcs as u8,
            sleep_cfg: None,
        }
    }

    /// Creates a router whose output VC lanes run the given sleep FSM
    /// configuration (`None` disables in-loop gating).
    pub fn with_gating(
        id: usize,
        buffer_depth: usize,
        vcs: usize,
        sleep_cfg: Option<SleepConfig>,
    ) -> Self {
        Router {
            sleep_cfg,
            ..Router::new(id, buffer_depth, vcs)
        }
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs as usize
    }

    /// Lanes per router (`5 * vcs`).
    fn lanes(&self) -> usize {
        5 * self.vcs as usize
    }

    /// Flits buffered in input lane `lane`.
    fn buf_len(&self, lane: usize) -> usize {
        self.lanes[lane].len as usize
    }

    fn front(&self, lane: usize) -> Option<&Flit> {
        let l = self.lanes[lane];
        (l.len > 0).then(|| &self.slots[lane * self.depth as usize + l.head as usize])
    }

    fn push_back(&mut self, lane: usize, flit: Flit) {
        debug_assert!(self.lanes[lane].len < self.depth);
        debug_assert!(!flit.is_invalid(), "buffered a filler flit");
        let l = &mut self.lanes[lane];
        // Conditional wrap instead of `%`: the depth is a runtime
        // value, so a modulo here is a hardware divide in the hottest
        // loop of the simulator.
        let mut tail = l.head + l.len;
        if tail >= self.depth {
            tail -= self.depth;
        }
        l.len += 1;
        self.slots[lane * self.depth as usize + tail as usize] = flit;
        self.occupied |= 1 << lane;
    }

    /// Pops input lane `lane`'s front flit; its cached route goes with
    /// it.
    fn pop_front(&mut self, lane: usize) -> Option<Flit> {
        let l = &mut self.lanes[lane];
        if l.len == 0 {
            return None;
        }
        let head = l.head;
        l.head = if head + 1 == self.depth { 0 } else { head + 1 };
        l.len -= 1;
        l.front = NO_ROUTE;
        if l.len == 0 {
            self.occupied &= !(1 << lane);
        }
        let flit = self.slots[lane * self.depth as usize + head as usize];
        debug_assert!(!flit.is_invalid(), "popped a filler flit");
        Some(flit)
    }

    /// Whether the input VC buffer `(port, vc)` can accept a flit.
    pub fn can_accept(&self, port: Direction, vc: usize) -> bool {
        self.lanes[port.index() * self.vcs as usize + vc].len < self.depth
    }

    /// Pushes an arriving flit into the input VC buffer named by
    /// `flit.vc`.
    ///
    /// # Panics
    ///
    /// Panics if that VC buffer is full — callers hold one credit per
    /// free slot, so an overflow means the credit accounting broke.
    pub fn accept(&mut self, port: Direction, flit: Flit) {
        let vc = flit.vc as usize;
        assert!(
            self.can_accept(port, vc),
            "VC buffer overflow at router {} port {port} vc {vc}",
            self.id
        );
        self.push_back(port.index() * self.vcs as usize + vc, flit);
    }

    /// Buffer occupancy of one input VC.
    pub fn occupancy(&self, port: Direction, vc: usize) -> usize {
        self.buf_len(port.index() * self.vcs as usize + vc)
    }

    /// Total buffered flits across an input port's VCs.
    pub fn port_occupancy(&self, port: Direction) -> usize {
        let v = self.vcs as usize;
        (0..v).map(|vc| self.buf_len(port.index() * v + vc)).sum()
    }

    /// Total buffered flits.
    pub fn total_occupancy(&self) -> usize {
        (0..self.lanes()).map(|l| self.buf_len(l)).sum()
    }

    /// Whether the router holds no flits and no output lane is held
    /// mid-packet — the buffer/crossbar half of the engine's
    /// quiescence predicate. A quiet router's step can only tick idle
    /// counters, so it may be skipped and bulk-accounted.
    pub fn is_quiet(&self) -> bool {
        self.occupied == 0 && self.owned == 0
    }

    /// Calls `f` with every buffered flit, in input-lane order and FIFO
    /// order within a lane — the fault layer's boundary scan.
    pub(crate) fn for_each_flit(&self, mut f: impl FnMut(&Flit)) {
        let depth = self.depth as usize;
        for lane in 0..self.lanes() {
            let l = self.lanes[lane];
            for k in 0..l.len as usize {
                let mut idx = l.head as usize + k;
                if idx >= depth {
                    idx -= depth;
                }
                f(&self.slots[lane * depth + idx]);
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
    /// the freed slot's credit upstream. Returns the number of flits
    /// removed.
    pub(crate) fn purge_packets(
        &mut self,
        doomed: impl Fn(u64) -> bool,
        mut on_removed: impl FnMut(usize, &Flit),
    ) -> usize {
        let mut removed = 0;
        for lane in 0..self.lanes() {
            // Pop exactly the original occupancy; survivors re-pushed
            // at the tail come back around in their original order.
            for _ in 0..self.buf_len(lane) {
                let flit = self.pop_front(lane).expect("occupancy counted");
                if doomed(flit.packet_id) {
                    on_removed(lane, &flit);
                    removed += 1;
                } else {
                    self.push_back(lane, flit);
                }
            }
        }
        for ol in 0..self.lanes() {
            if !self.lanes[ol].owner.is_free() && doomed(self.lanes[ol].owner_pkt) {
                self.lanes[ol].owner = PortOwner::FREE;
                self.owned &= !(1 << ol);
            }
        }
        removed
    }

    /// Drops every cached front-flit route — for when the routing
    /// function itself changes (a fault epoch applies).
    pub(crate) fn clear_route_cache(&mut self) {
        for l in self.lanes.iter_mut() {
            l.front = NO_ROUTE;
        }
    }

    /// Input lane `il`'s front flit's route as `(output lane, is_head)`,
    /// computed on first use and cached until the flit leaves the
    /// front. The lane must be occupied.
    fn front_route(&mut self, il: usize, route: &impl Fn(&Flit) -> RouteTarget) -> (usize, bool) {
        let mut c = self.lanes[il].front;
        if c == NO_ROUTE {
            let v = self.vcs as usize;
            let f = self.front(il).expect("routing an empty lane");
            debug_assert!(!f.is_invalid(), "routing a filler flit");
            let t = route(f);
            c = (t.out.index() * v + t.vc as usize) as u8 | if f.is_head { HEAD_BIT } else { 0 };
            self.lanes[il].front = c;
        }
        ((c & LANE_BITS) as usize, c & HEAD_BIT != 0)
    }

    /// The cached route of input lane `il`'s front flit, if routed.
    fn cached_route(&self, il: usize) -> Option<(usize, bool)> {
        let c = self.lanes[il].front;
        (c != NO_ROUTE).then_some(((c & LANE_BITS) as usize, c & HEAD_BIT != 0))
    }

    /// The single implementation of the VC-allocation candidate rule
    /// for output lane `ol`: the owning input lane while the lane is
    /// allocated (if its routed front flit requests `ol`), otherwise
    /// the round-robin winner among `heads` — the input lanes whose
    /// front head flit requests `ol` — starting from the lane's
    /// round-robin pointer. Input lanes in `blocked` belong to input
    /// ports that already sent a flit this cycle and are skipped: an
    /// input port has one crossbar line, so it feeds at most one
    /// output per cycle across all its VCs.
    fn select_candidate(&self, ol: usize, blocked: u64, heads: u64) -> Option<usize> {
        match self.lanes[ol].owner.input() {
            Some(il) => (blocked & (1 << il) == 0
                && self.cached_route(il).is_some_and(|(t, _)| t == ol))
            .then_some(il),
            None => {
                let open = heads & !blocked;
                let from_ptr = open & (u64::MAX << self.lanes[ol].rr_next);
                let pick = if from_ptr != 0 { from_ptr } else { open };
                (pick != 0).then(|| pick.trailing_zeros() as usize)
            }
        }
    }

    /// [`Router::select_candidate`] against the *live* buffer fronts,
    /// ignoring this cycle's port usage — used for the Immediate
    /// policy's after-send park decision, where the pops that just
    /// happened have already changed the fronts.
    fn candidate_for_lane(&mut self, ol: usize, route: &impl Fn(&Flit) -> RouteTarget) -> bool {
        let mut heads = 0u64;
        let mut occ = self.occupied;
        while occ != 0 {
            let il = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if self.front_route(il, route) == (ol, true) {
                heads |= 1 << il;
            }
        }
        self.select_candidate(ol, 0, heads).is_some()
    }

    /// Settles lane `l` over `lag` idle cycles in closed form: the idle
    /// run grows, and the FSM replays its idle future
    /// ([`SleepFsm::settle_idle_bulk`]). Returns the arbitrations those
    /// cycles perform (one per awake cycle; every cycle when ungated).
    fn settle_lane(&self, ports: &mut PortLane<'_>, l: usize, lag: u64) -> u64 {
        if lag == 0 {
            return 0;
        }
        let before = ports.idle_run[l];
        ports.idle_run[l] = before + lag;
        match &self.sleep_cfg {
            None => lag,
            Some(cfg) => {
                ports.fsm[l].settle_idle_bulk(lag, before, cfg.threshold(), ports.counters)
            }
        }
    }

    /// Settles every lane of this router through cycle `through`, each
    /// from its own watermark — the one closed form behind both lane-
    /// and router-level laziness. `anchor` is a cycle no lane is
    /// settled past and no lane lags by 2³² cycles or more (for a
    /// router the engine skipped, the last cycle it was accounted
    /// through). The router must have nothing a step could move: the
    /// caller guarantees the skipped cycles were idle for every lane
    /// not yet settled through them. Returns the arbitrations of the
    /// settled cycles.
    pub fn settle_lanes(&self, ports: &mut PortLane<'_>, anchor: u64, through: u64) -> u64 {
        let mut arbitrations = 0;
        for l in 0..self.lanes() {
            let lag = lane_lag(ports.settled[l], anchor, through);
            arbitrations += self.settle_lane(ports, l, lag);
            ports.settled[l] = through as u32;
        }
        arbitrations
    }

    /// One dense cycle — every lane visited — with departures collected
    /// by value: [`Router::step_fast`] with `all_live` set, for callers
    /// that want a result object rather than a stream.
    pub fn step(
        &mut self,
        now: u64,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
    ) -> StepOutcome {
        let mut departures = [None; 5];
        let outcome = self.step_fast(now, true, route, lane_ready, ports, |dep| {
            departures[dep.output.index()] = Some(dep);
        });
        StepOutcome {
            departures,
            arbitrations: outcome.arbitrations,
        }
    }

    /// One VC-allocation + switch-allocation + traversal cycle at cycle
    /// `now`, with departures streamed through `on_depart` — the
    /// engine's hot path.
    ///
    /// `route` maps a flit to its [`RouteTarget`] (output port + output
    /// VC) and is called once per flit, when it reaches the front of
    /// its input lane (and again only if a fault epoch clears the
    /// cached route); `lane_ready` reports whether the output lane
    /// holds a credit (a free slot in the downstream VC buffer; the
    /// ejection port always sinks) — callers must evaluate it against
    /// cycle-start credit state so results are independent of router
    /// iteration order. `ports` is this router's block of the
    /// simulation-owned SoA lane state.
    ///
    /// Only live output lanes are visited — owned, or requested by a
    /// waiting head flit — unless `all_live` is set, which visits every
    /// lane (the dense oracle, and the engine's periodic watermark
    /// refresh). A visited lane first catches up the cycles through
    /// `now − 1` it sat out. Monomorphized on gating so ungated runs
    /// never touch the FSM lanes (or their cache lines) at all.
    pub fn step_fast(
        &mut self,
        now: u64,
        all_live: bool,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
        on_depart: impl FnMut(Departure),
    ) -> FastOutcome {
        if self.sleep_cfg.is_some() {
            self.step_impl::<true>(now, all_live, route, lane_ready, ports, on_depart)
        } else {
            self.step_impl::<false>(now, all_live, route, lane_ready, ports, on_depart)
        }
    }

    #[inline(always)]
    fn step_impl<const GATED: bool>(
        &mut self,
        now: u64,
        all_live: bool,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        mut ports: PortLane<'_>,
        mut on_depart: impl FnMut(Departure),
    ) -> FastOutcome {
        let v = self.vcs as usize;
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
            let (ol, is_head) = self.front_route(il, &route);
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
                let lag = lane_lag(ports.settled[ol], now - 1, now - 1);
                arbitrations += self.settle_lane(&mut ports, ol, lag);

                let free = self.lanes[ol].owner.is_free();
                let candidate = self.select_candidate(ol, blocked, heads[ol]);
                // A flit "wants" the lane only when it could actually
                // move: a sleeping lane stays in standby while the
                // downstream VC is out of credits instead of waking
                // into backpressure.
                let wants = candidate.is_some() && lane_ready(out, ovc);

                let can_transmit = if GATED {
                    let cfg = self.sleep_cfg.expect("GATED implies a sleep config");
                    ports.fsm[ol].gate(wants, cfg.wake_latency)
                } else {
                    true
                };

                if can_transmit && free {
                    arbitrations += 1;
                }

                let ended = ports.idle_run[ol];
                let mut sent = false;
                if can_transmit && wants && winner_vc.is_none() {
                    let il = candidate.expect("wants implies candidate");
                    let mut flit = self.pop_front(il).expect("front exists");
                    if free {
                        // VC allocation: the head flit claims the lane
                        // (released again immediately for single-flit
                        // packets) and advances its round-robin.
                        if !flit.is_tail {
                            self.lanes[ol].owner = PortOwner::owned(il);
                            self.owned |= 1 << ol;
                            self.lanes[ol].owner_pkt = flit.packet_id;
                        }
                        let next = il + 1;
                        self.lanes[ol].rr_next = (if next == nlanes { 0 } else { next }) as u8;
                    } else if flit.is_tail {
                        self.lanes[ol].owner = PortOwner::FREE;
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
                ports.idle_run[ol] = if sent { 0 } else { ended + 1 };

                if GATED {
                    let cfg = self.sleep_cfg.expect("GATED implies a sleep config");
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
                        && self.candidate_for_lane(ol, &route);
                    let run = if sent { ended } else { ended + 1 };
                    ports.fsm[ol].settle(sent, stalled, wants_after, run, &cfg, ports.counters);
                }
                ports.settled[ol] = now as u32;
            }
            if let Some(wvc) = winner_vc {
                if v > 1 {
                    let next = wvc + 1;
                    self.sa_rr[oi] = (if next == v { 0 } else { next }) as u8;
                }
            }
        }

        FastOutcome { arbitrations }
    }
}

/// What happened in one [`Router::step_fast`] cycle (departures, with
/// the idle runs they ended, stream through `on_depart`).
#[derive(Debug, Clone, Copy)]
pub struct FastOutcome {
    /// Arbitration events (for the arbiter energy model): one per
    /// awake, unallocated output lane per cycle — for the visited lanes
    /// this cycle, plus the cycles they caught up on. Lanes the step
    /// left behind bill theirs when they are settled.
    pub arbitrations: u64,
}

/// What happened in one router cycle.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Flit leaving each output port this cycle (indexed by
    /// [`Direction::index`]).
    pub departures: [Option<Departure>; 5],
    /// Arbitration events (for the arbiter energy model).
    pub arbitrations: u64,
}

impl StepOutcome {
    /// Iterates the departures that actually happened.
    pub fn departures(&self) -> impl Iterator<Item = Departure> + '_ {
        self.departures.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep::SleepState;
    use lnoc_power::gating::GatingPolicy;

    /// Standalone owner of one router's SoA lane block for unit tests
    /// (the simulation owns these arrays network-wide), with its own
    /// cycle counter.
    struct Ports {
        idle: Vec<u64>,
        fsm: Vec<SleepFsm>,
        counters: GatingCounters,
        settled: Vec<u32>,
        now: u64,
    }

    impl Ports {
        fn new(vcs: usize) -> Self {
            Ports {
                idle: vec![0; 5 * vcs],
                fsm: vec![SleepFsm::default(); 5 * vcs],
                counters: GatingCounters::default(),
                settled: vec![0; 5 * vcs],
                now: 0,
            }
        }

        fn lane(&mut self) -> PortLane<'_> {
            PortLane {
                idle_run: &mut self.idle,
                fsm: &mut self.fsm,
                counters: &mut self.counters,
                settled: &mut self.settled,
            }
        }

        /// One dense step of `r` on the next cycle.
        fn step(
            &mut self,
            r: &mut Router,
            route: impl Fn(&Flit) -> RouteTarget,
            ready: impl Fn(Direction, usize) -> bool,
        ) -> StepOutcome {
            self.now += 1;
            let now = self.now;
            r.step(now, route, ready, self.lane())
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
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        let deps: Vec<_> = out.departures().collect();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].output, Direction::East);
        assert_eq!(deps[0].input, Direction::West);
        assert_eq!(deps[0].input_vc, 0);
        assert_eq!(r.total_occupancy(), 0);
        assert!(r.is_quiet());
    }

    #[test]
    fn wormhole_holds_lane_for_whole_packet() {
        let mut r = Router::new(0, 8, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, false));
        r.accept(Direction::West, flit(1, false, false));
        r.accept(Direction::West, flit(1, false, true));
        // A competing head on another input wants the same output.
        r.accept(Direction::North, flit(2, true, true));

        let mut winners = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            for d in out.departures() {
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
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(out.departures().count(), 0);
        assert_eq!(r.total_occupancy(), 1);
        assert!(!r.is_quiet());
    }

    #[test]
    fn mid_packet_router_is_not_quiet() {
        // The head leaves but the lane stays Owned awaiting body flits:
        // the router is empty yet must not be treated as quiescent (the
        // held lane must not arbitrate).
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, false));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(out.departures().count(), 1);
        assert_eq!(r.total_occupancy(), 0);
        assert!(!r.is_quiet(), "owned output lane keeps the router active");
    }

    #[test]
    fn buffer_overflow_panics() {
        let mut r = Router::new(0, 1, 1);
        r.accept(Direction::West, flit(1, true, true));
        assert!(!r.can_accept(Direction::West, 0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.accept(Direction::West, flit(2, true, true));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn vc_buffers_are_independent() {
        // Filling VC 0 must leave VC 1 accepting, and vice versa.
        let mut r = Router::new(0, 1, 2);
        r.accept(Direction::West, vflit(1, 0, true, true));
        assert!(!r.can_accept(Direction::West, 0));
        assert!(r.can_accept(Direction::West, 1));
        r.accept(Direction::West, vflit(2, 1, true, true));
        assert!(!r.can_accept(Direction::West, 1));
        assert_eq!(r.occupancy(Direction::West, 0), 1);
        assert_eq!(r.occupancy(Direction::West, 1), 1);
        assert_eq!(r.port_occupancy(Direction::West), 2);
    }

    #[test]
    fn ring_buffer_wraps_cleanly() {
        // Push/pop more flits than the depth so heads wrap around.
        let mut r = Router::new(0, 3, 1);
        let mut p = Ports::new(1);
        for round in 0..5u64 {
            r.accept(Direction::West, flit(round, true, true));
            r.accept(Direction::West, flit(round + 100, true, true));
            let f1 = p.step(&mut r, to(Direction::East), |_, _| true);
            let f2 = p.step(&mut r, to(Direction::East), |_, _| true);
            assert_eq!(f1.departures().next().unwrap().flit.packet_id, round);
            assert_eq!(f2.departures().next().unwrap().flit.packet_id, round + 100);
        }
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn one_input_port_feeds_at_most_one_output_per_cycle() {
        // Input West holds [tail of packet 1 → East, head of packet 2 →
        // Local]. A single input port has one crossbar line, so the
        // two flits must leave on different cycles even though both
        // outputs are free.
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        r.accept(Direction::West, flit(2, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first.departures().count(), 1, "one read per input port");
        assert_eq!(first.departures().next().unwrap().output, Direction::East);
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second.departures().next().unwrap().output, Direction::Local);
    }

    #[test]
    fn sibling_vcs_share_the_input_port_crossbar_line() {
        // Two single-flit packets on different VCs of the same input
        // port, to different outputs: one read per port per cycle, so
        // they leave on consecutive cycles.
        let mut r = Router::new(0, 4, 2);
        let mut p = Ports::new(2);
        r.accept(Direction::West, vflit(1, 0, true, true));
        r.accept(Direction::West, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first.departures().count(), 1);
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second.departures().count(), 1);
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn output_port_sends_one_flit_per_cycle_across_vcs() {
        // Heads on two different input ports request the two different
        // VCs of the same output port: both win VC allocation, but the
        // port's single crossbar line carries one flit per cycle, and
        // switch allocation round-robins between the lanes.
        let mut r = Router::new(0, 4, 2);
        let mut p = Ports::new(2);
        for _ in 0..2 {
            r.accept(Direction::West, vflit(1, 0, true, true));
            r.accept(Direction::North, vflit(2, 0, true, true));
        }
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let mut per_cycle = Vec::new();
        let mut vcs_seen = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, route, |_, _| true);
            per_cycle.push(out.departures().count());
            for d in out.departures() {
                vcs_seen.push(d.flit.vc);
            }
        }
        assert_eq!(per_cycle, vec![1, 1, 1, 1], "one flit per output port");
        // Switch allocation alternates between the two lanes.
        assert_ne!(vcs_seen[0], vcs_seen[1]);
        assert_ne!(vcs_seen[1], vcs_seen[2]);
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn blocked_vc_does_not_block_its_sibling() {
        // VC 0 of the output has no credit; a packet on VC 1 must still
        // flow — the head-of-line blocking VCs exist to remove.
        let mut r = Router::new(0, 4, 2);
        let mut p = Ports::new(2);
        r.accept(Direction::West, vflit(1, 0, true, true));
        r.accept(Direction::North, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let ready = |_d: Direction, vc: usize| vc == 1;
        let mut delivered = Vec::new();
        for _ in 0..2 {
            let out = p.step(&mut r, route, ready);
            for d in out.departures() {
                delivered.push((d.flit.packet_id, d.flit.vc));
            }
        }
        assert_eq!(delivered, vec![(2, 1)], "only the credited VC moves");
        assert_eq!(r.total_occupancy(), 1, "VC 0's packet stays buffered");
    }

    #[test]
    fn round_robin_rotates_between_competitors() {
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        // Two single-flit packets per input, both to East.
        for _ in 0..2 {
            r.accept(Direction::West, flit(10, true, true));
            r.accept(Direction::North, flit(20, true, true));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            for d in out.departures() {
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
        let mut r = Router::new(0, 4, 2);
        let mut p = Ports::new(2);
        // Three idle cycles on every lane.
        for _ in 0..3 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        r.accept(Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        let east0 = Direction::East.index() * 2;
        // East VC 0's 3-cycle idle run ended when the flit crossed; its
        // sibling VC 1 lane stays idle.
        assert_eq!(out.departures().next().unwrap().idle_run, 3);
        assert_eq!(p.idle[east0], 0);
        assert!(p.idle[east0 + 1] >= 4, "sibling lane keeps idling");
        assert!(p.idle[Direction::North.index() * 2] >= 4);
    }

    #[test]
    fn sleeping_lane_stalls_flit_by_wake_latency() {
        let wake = 3u32;
        let mut r = Router::with_gating(
            0,
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(2),
                wake_latency: wake,
            }),
        );
        let mut p = Ports::new(1);
        // Idle past the threshold: the lane sleeps.
        for _ in 0..4 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Asleep);

        // A flit arrives; it must wait out exactly `wake` cycles.
        r.accept(Direction::West, flit(1, true, true));
        let mut stalls = 0;
        loop {
            let out = p.step(&mut r, to(Direction::East), |_, _| true);
            if out.departures().count() == 1 {
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
        let mut r = Router::with_gating(0, 8, 2, Some(cfg));
        let mut p = Ports::new(2);
        // A long worm on VC 0 keeps the port busy…
        r.accept(Direction::West, vflit(1, 0, true, false));
        for _ in 0..6 {
            r.accept(Direction::West, vflit(1, 0, false, false));
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
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        for _ in 0..10 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        assert_eq!(p.counters, GatingCounters::default());
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Active);
    }

    #[test]
    fn never_policy_matches_ungated_behaviour_with_accounting() {
        let mut r = Router::with_gating(
            0,
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::Never,
                wake_latency: 1,
            }),
        );
        let mut p = Ports::new(1);
        for _ in 0..5 {
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        }
        r.accept(Direction::West, flit(1, true, true));
        let out = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(out.departures().count(), 1, "Never gating never stalls");
        assert_eq!(p.counters.sleep_entries, 0);
        assert_eq!(p.counters.cycles_busy, 1);
        // 5 idle cycles × 5 lanes + 4 idle lanes on the send cycle.
        assert_eq!(p.counters.cycles_idle_awake, 29);
    }

    /// The quiescence predicate as a scan of buffers and owners — what
    /// the incrementally maintained masks must agree with.
    fn scanned_quiet(r: &Router) -> bool {
        r.total_occupancy() == 0 && r.lanes.iter().all(|l| l.owner.is_free())
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
            let mut dense = Router::with_gating(0, 4, vcs, gating);
            let mut lazy = Router::with_gating(0, 4, vcs, gating);
            let mut dp = Ports::new(vcs);
            let mut lp = Ports::new(vcs);
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
                    if dense.occupancy(port, vc as usize) + len <= 4 {
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
                            dense.accept(port, f);
                            lazy.accept(port, f);
                        }
                    }
                }
                let ready_mask = rnd();
                let ready = move |d: Direction, vc: usize| {
                    ready_mask & (1 << (d.index() * 8 + vc)) != 0
                };
                let mut dense_deps = Vec::new();
                let mut lazy_deps = Vec::new();
                dense_arbs += dense
                    .step_fast(now, true, route, ready, dp.lane(), |d| dense_deps.push(d))
                    .arbitrations;
                lazy_arbs += lazy
                    .step_fast(now, false, route, ready, lp.lane(), |d| lazy_deps.push(d))
                    .arbitrations;
                proptest::prop_assert!(dense_deps == lazy_deps, "departures diverged at cycle {now}");
                proptest::prop_assert_eq!(dense.is_quiet(), scanned_quiet(&dense));
                proptest::prop_assert_eq!(lazy.is_quiet(), scanned_quiet(&lazy));
                proptest::prop_assert_eq!(dense.total_occupancy(), lazy.total_occupancy());
                if rnd().is_multiple_of(8) || now == 400 {
                    lazy_arbs += lazy.settle_lanes(&mut lp.lane(), now, now);
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
            let mut r = Router::with_gating(0, 4, 2, cfg);
            let mut p = Ports::new(2);
            p.now = start;
            p.settled.fill(start as u32);
            let _ = p.step(&mut r, to(Direction::East), |_, _| true);
            r.accept(Direction::West, flit(1, true, true));
            let mut deps = Vec::new();
            let mut arbs = 0;
            for gap in [2u64, 7, 1] {
                p.now += gap;
                let now = p.now;
                arbs += r
                    .step_fast(
                        now,
                        false,
                        to(Direction::East),
                        |_, _| true,
                        p.lane(),
                        |d| deps.push(d),
                    )
                    .arbitrations;
            }
            let now = p.now + 5;
            arbs += r.settle_lanes(&mut p.lane(), now, now);
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
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        r.accept(Direction::West, flit(2, true, true));
        for _ in 0..3 {
            assert_eq!(p.step(&mut r, route, |_, _| false).departures().count(), 0);
        }
        assert_eq!(calls.get(), 1, "a waiting front flit is routed once");
        let first = p.step(&mut r, route, |_, _| true);
        assert_eq!(first.departures().next().unwrap().output, Direction::East);
        assert_eq!(r.cached_route(0), None, "the pop dropped the cache");
        let second = p.step(&mut r, route, |_, _| true);
        assert_eq!(second.departures().next().unwrap().output, Direction::North);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn route_cache_is_cleared_by_purge_and_epoch_change() {
        let west = Direction::West.index();
        let mut r = Router::new(0, 4, 1);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, false));
        r.accept(Direction::West, flit(2, true, true));
        let _ = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(r.cached_route(west), Some((Direction::East.index(), true)));
        // Purging the front packet exposes a new front flit.
        r.purge_packets(|pid| pid == 1, |_, _| {});
        assert_eq!(r.cached_route(west), None);
        let _ = p.step(&mut r, to(Direction::East), |_, _| false);
        assert_eq!(r.cached_route(west), Some((Direction::East.index(), true)));
        // A new fault epoch changes the routing function itself: the
        // cached route goes, and the next step follows the new one.
        r.clear_route_cache();
        assert_eq!(r.cached_route(west), None);
        let out = p.step(&mut r, to(Direction::South), |_, _| true);
        assert_eq!(out.departures().next().unwrap().output, Direction::South);
    }

    #[test]
    fn quiet_masks_agree_with_buffer_and_owner_scan() {
        // Occupied and owned masks track push, pop, allocation, tail
        // release and purge.
        let mut r = Router::new(0, 4, 2);
        let mut p = Ports::new(2);
        assert!(r.is_quiet() && scanned_quiet(&r));
        r.accept(Direction::West, vflit(1, 1, true, false));
        r.accept(Direction::West, vflit(1, 1, false, true));
        assert!(!r.is_quiet() && !scanned_quiet(&r));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(r.total_occupancy(), 1);
        assert!(!r.is_quiet() && !scanned_quiet(&r));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert!(
            r.is_quiet() && scanned_quiet(&r),
            "the tail released the lane"
        );
        // A worm whose tail is purged upstream leaves an owned lane.
        r.accept(Direction::North, flit(2, true, false));
        let _ = p.step(&mut r, to(Direction::East), |_, _| true);
        assert_eq!(r.total_occupancy(), 0);
        assert!(!r.is_quiet() && !scanned_quiet(&r));
        r.purge_packets(|pid| pid == 2, |_, _| {});
        assert!(r.is_quiet() && scanned_quiet(&r));
    }
}
