//! Synthetic traffic patterns and packet injection.

use crate::topology::Mesh;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The classic synthetic destination patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every node sends to a uniformly random other node.
    UniformRandom,
    /// Node (x, y) sends to (y, x).
    Transpose,
    /// Node with index i sends to the bit-complement of i.
    BitComplement,
    /// A fraction of packets target one hotspot node (bottom-right
    /// corner); the rest are uniform.
    Hotspot,
    /// Node (x, y) sends to its +x neighbour (wrapping) — light, local.
    NearestNeighbor,
    /// Node (x, y) sends to ((x + ⌈w/2⌉ − 1) mod w, y) — the classic
    /// torus-stressing pattern that loads wraparound links.
    Tornado,
}

impl TrafficPattern {
    /// All patterns (for sweeps).
    pub const ALL: [TrafficPattern; 6] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::Hotspot,
        TrafficPattern::NearestNeighbor,
        TrafficPattern::Tornado,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::Hotspot => "hotspot",
            TrafficPattern::NearestNeighbor => "neighbor",
            TrafficPattern::Tornado => "tornado",
        }
    }

    /// Picks a destination for a packet from `src`. Returns `None` when
    /// the pattern maps `src` onto itself (no packet is injected).
    pub fn destination(self, src: usize, mesh: &Mesh, rng: &mut StdRng) -> Option<usize> {
        let n = mesh.len();
        let dst = match self {
            TrafficPattern::UniformRandom => {
                let mut d = rng.gen_range(0..n);
                if d == src {
                    d = (d + 1) % n;
                }
                d
            }
            TrafficPattern::Transpose => {
                let (x, y) = mesh.coords(src);
                // Transpose needs a square aspect; clamp into range.
                let (tx, ty) = (y.min(mesh.width - 1), x.min(mesh.height - 1));
                mesh.id(tx, ty)
            }
            TrafficPattern::BitComplement => (n - 1) - src,
            TrafficPattern::Hotspot => {
                if rng.gen_bool(0.2) {
                    n - 1
                } else {
                    let mut d = rng.gen_range(0..n);
                    if d == src {
                        d = (d + 1) % n;
                    }
                    d
                }
            }
            TrafficPattern::NearestNeighbor => {
                let (x, y) = mesh.coords(src);
                mesh.id((x + 1) % mesh.width, y)
            }
            TrafficPattern::Tornado => {
                let (x, y) = mesh.coords(src);
                let offset = mesh.width.div_ceil(2) - 1;
                mesh.id((x + offset) % mesh.width, y)
            }
        };
        (dst != src).then_some(dst)
    }
}

/// Temporal structure of packet injection at each node.
///
/// The destination of each packet comes from the [`TrafficPattern`];
/// the injection *process* decides on which cycles a node offers a
/// packet at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectionProcess {
    /// Memoryless: every node flips an `injection_rate` coin each
    /// cycle.
    Bernoulli,
    /// Two-state ON–OFF (bursty) source per node: dwell times in each
    /// state are geometric with the given means, and while ON the node
    /// injects at a boosted rate so the *average* offered load still
    /// equals `injection_rate`. Bursts both congest the network and
    /// lengthen the idle intervals between them — the regime where
    /// power gating matters.
    BurstyOnOff {
        /// Mean cycles of an ON burst (≥ 1).
        mean_burst: u32,
        /// Mean cycles of an OFF gap (≥ 1).
        mean_idle: u32,
    },
}

impl InjectionProcess {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InjectionProcess::Bernoulli => "bernoulli",
            InjectionProcess::BurstyOnOff { .. } => "bursty",
        }
    }

    /// Injection probability while a source is ON, scaled so the mean
    /// offered load equals `rate` (clamped to 1).
    pub fn on_rate(self, rate: f64) -> f64 {
        match self {
            InjectionProcess::Bernoulli => rate,
            InjectionProcess::BurstyOnOff {
                mean_burst,
                mean_idle,
            } => {
                let duty = mean_burst as f64 / (mean_burst + mean_idle) as f64;
                (rate / duty).min(1.0)
            }
        }
    }

    /// Returns this source's first offer in `from + 1 ..= horizon`, or
    /// `None` if the span holds none, advancing the source state
    /// exactly as the simulator's per-cycle injection loop would.
    ///
    /// The two processes keep their state differently:
    ///
    /// - **Bernoulli** sources are a renewal chain: `next_offer` holds
    ///   the absolute cycle of the next scheduled arrival, and each
    ///   arrival costs exactly one geometric gap draw
    ///   ([`GapSampler::sample`]) made *after* it fires (see
    ///   [`InjectionProcess::rearm_after_offer`]) — there is no
    ///   per-cycle coin at all. Arrivals at or before `from` were
    ///   missed (the router was dead when they came due, so the cycle
    ///   loop never scanned it); each missed arrival consumes its gap
    ///   draw — and nothing else — in the catch-up loop here, which
    ///   makes this lazy catch-up land on the same `(rng, next_offer)`
    ///   state as the engine's eager per-arrival rescheduling, draw
    ///   for draw.
    /// - **Bursty ON–OFF** sources replay their per-cycle draws — the
    ///   dwell flip and the offer coin — for every cycle of the span,
    ///   in exactly the per-cycle loop's order, advancing `on` and
    ///   `rng` through each one.
    ///
    /// Either way, alternating `next_arrival` with single-cycle spans
    /// (or with the destination draw that follows a hit) reads one
    /// seamless stream. This is the determinism keystone of the
    /// engine's time wheel ([`crate::SimKernel::Engine`]): leaping the
    /// clock over dead windows is only sound because the arrivals
    /// predicted here match what the reference's cycle loop scans out,
    /// bit for bit.
    ///
    /// `rate` must already be the boosted ON rate (see
    /// [`InjectionProcess::on_rate`]); `from` is the last cycle whose
    /// draws have been consumed. A Bernoulli source at rate 0 (or one
    /// parked OFF) draws nothing, while a bursty source keeps consuming
    /// its flip draw every cycle even when it can never offer.
    #[allow(clippy::too_many_arguments)]
    pub fn next_arrival(
        self,
        rate: f64,
        on: &mut bool,
        next_offer: &mut u64,
        gap: &GapSampler,
        rng: &mut StdRng,
        from: u64,
        horizon: u64,
    ) -> Option<u64> {
        match self {
            InjectionProcess::Bernoulli => {
                // Bernoulli sources never toggle, so an OFF or
                // zero-rate source consumes no draws at all.
                if !*on || rate <= 0.0 {
                    return None;
                }
                while *next_offer <= from {
                    // Missed while dead: the catch-up gap draw, no
                    // destination.
                    *next_offer = next_offer.saturating_add(gap.sample(rng));
                }
                (*next_offer <= horizon).then_some(*next_offer)
            }
            InjectionProcess::BurstyOnOff {
                mean_burst,
                mean_idle,
            } => {
                let p_on = 1.0 / mean_burst as f64;
                let p_off = 1.0 / mean_idle as f64;
                let mut c = from;
                while c < horizon {
                    c += 1;
                    if rng.gen_bool(if *on { p_on } else { p_off }) {
                        *on = !*on;
                    }
                    if *on && rate > 0.0 && rng.gen_bool(rate) {
                        return Some(c);
                    }
                }
                None
            }
        }
    }

    /// Consumes the offer [`InjectionProcess::next_arrival`] reported
    /// at `cycle`: a Bernoulli source draws the gap to its next
    /// arrival — *after* the destination draw, which the caller makes
    /// in between, so the per-router stream order is destination then
    /// gap at every fired offer — while a bursty source needs nothing
    /// (its stream is purely per-cycle).
    pub fn rearm_after_offer(
        self,
        next_offer: &mut u64,
        gap: &GapSampler,
        rng: &mut StdRng,
        cycle: u64,
    ) {
        if let InjectionProcess::Bernoulli = self {
            debug_assert_eq!(*next_offer, cycle, "re-arming an offer that was not due");
            *next_offer = cycle.saturating_add(gap.sample(rng));
        }
    }
}

/// Deterministic sampler for Bernoulli inter-arrival gaps.
///
/// A rate-`p` Bernoulli source's gap to its next arrival is geometric:
/// `P(G = k) = (1 − p)^(k−1) · p` for `k ≥ 1`. Sampling `G` directly —
/// one RNG draw per *arrival* — replaces the one-coin-per-cycle scan
/// whose draws dominated every kernel at low rates and put a hard
/// `O(routers × cycles)` floor under the leaping engine. Both kernels
/// share this sampler (and the renewal state it drives), so the
/// arrival streams — and therefore [`crate::NetworkStats`] — stay bit
/// identical across them by construction.
///
/// The quantile is inverted without `ln`: a binary descent over
/// precomputed repeated squarings `q^(2^j)` finds the largest `m` with
/// `q^m > u`, so the draw uses only IEEE multiplies and compares —
/// both exactly specified — and is bit-reproducible on every platform,
/// unlike anything routed through libm.
#[derive(Debug, Clone)]
pub struct GapSampler {
    /// Per-cycle survival probability `q = 1 − p`.
    q: f64,
    /// `q^(2^j)` for `j = 0..63`, by repeated squaring. High entries
    /// underflow to `0.0` for any `q < 1`, which the descent treats as
    /// "never survives that long" — exactly right.
    pows: [f64; 63],
}

impl GapSampler {
    /// Builds the sampler for per-cycle arrival probability `p`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate is a probability");
        let q = 1.0 - p;
        let mut pows = [0.0; 63];
        let mut acc = q;
        for slot in pows.iter_mut() {
            *slot = acc;
            acc *= acc;
        }
        GapSampler { q, pows }
    }

    /// Draws one gap `G ≥ 1` (consuming exactly one `next_u64`).
    ///
    /// The uniform variate is mapped like [`rand::Rng::gen_bool`]'s
    /// (top 53 bits over 2⁵³), and `G = m + 1` where `m` is the
    /// largest exponent with `q^m > u`. The greedy high-bit-first
    /// descent is exact because the running product is nonincreasing
    /// along the chain; `u = 0` walks until the product underflows
    /// (a gap of billions of cycles — harmlessly "never" at any rate
    /// worth simulating), and `p = 1` returns 1 every time.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if self.q <= u {
            return 1;
        }
        let mut m = 0u64;
        let mut prod = 1.0f64;
        for (j, &pw) in self.pows.iter().enumerate().rev() {
            let cand = prod * pw;
            if cand > u {
                m |= 1 << j;
                prod = cand;
            }
        }
        m + 1
    }
}

/// Bits of a packet id holding the source-private sequence number; the
/// bits above carry the source router id.
const PACKET_SEQ_BITS: u32 = 40;

/// Most routers a simulation can hold. Source ids live in the 24 bits
/// above the sequence number, and source 2²⁴ − 1 is left out so that no
/// packet id can reach [`Flit::INVALID`]'s `u64::MAX`.
pub(crate) const MAX_ROUTERS: usize = (1 << (64 - PACKET_SEQ_BITS)) - 1;

/// Allocates the globally unique id of source `src`'s `seq`-th packet.
///
/// Ids are per-source streams — `src` in the high bits, the source's
/// private sequence number in the low bits — so id allocation needs no
/// cross-node coordination (the property that lets tiled injection run
/// in parallel). Uniqueness: sources are distinct in the high bits and
/// sequences in the low bits; the result can never collide with
/// [`Flit::INVALID`] (`u64::MAX`) because `src < MAX_ROUTERS`, which
/// `Simulation::new` enforces.
pub(crate) fn packet_id(src: usize, seq: u64) -> u64 {
    debug_assert!(src < MAX_ROUTERS);
    debug_assert!(seq < (1 << PACKET_SEQ_BITS));
    ((src as u64) << PACKET_SEQ_BITS) | seq
}

/// The source router of the packet with id `packet_id` (the inverse of
/// [`packet_id`] in its first argument).
pub(crate) fn packet_source(packet_id: u64) -> usize {
    (packet_id >> PACKET_SEQ_BITS) as usize
}

/// A packet waiting in a node's source queue, stored as one compact
/// descriptor instead of `packet_len` expanded [`Flit`]s: flits are
/// synthesized on the fly as the local input port accepts them, so a
/// backed-up source queue costs 32 bytes per packet rather than
/// 24 bytes per flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourcePacket {
    /// Packet id; its high bits name the source router.
    pub packet_id: u64,
    /// Destination router.
    pub dst: u32,
    /// Injection cycle (of the whole packet).
    pub injected_at: u64,
    /// Flits already handed to the local input port.
    pub sent: u32,
    /// Virtual channel of the local input buffer this packet is
    /// injected into (chosen once per packet at generation time).
    pub vc: u8,
}

impl SourcePacket {
    /// Synthesizes the next flit of this packet (for packet length
    /// `len`), advancing the descriptor. Returns `None` once all `len`
    /// flits have been produced.
    pub fn next_flit(&mut self, len: usize) -> Option<Flit> {
        if self.sent as usize >= len {
            return None;
        }
        let k = self.sent as usize;
        self.sent += 1;
        Some(Flit {
            packet_id: self.packet_id,
            injected_at: self.injected_at,
            dst: self.dst,
            vc: self.vc,
            is_head: k == 0,
            is_tail: k + 1 == len,
        })
    }

    /// Flits of this packet still waiting in the source queue.
    pub fn remaining_flits(&self, len: usize) -> u64 {
        (len as u64).saturating_sub(self.sent as u64)
    }
}

/// Queue id of a source that holds no queue in its tile's
/// [`QueuePool`].
pub(crate) const NO_QUEUE: u32 = u32::MAX;

/// One tile's source queues. A source holds a queue — named by a `u32`
/// id in the tile's per-router slab, [`NO_QUEUE`] otherwise —
/// only while it has packets waiting: the enqueue onto an empty source
/// takes one, and the pop or purge that empties it gives it back. Queue
/// memory therefore follows the most sources of the tile with packets
/// queued at once, not the tile's size.
///
/// Queues are made only when none is free and are never dropped; a
/// returned queue goes on a last-in first-out free list and keeps its
/// buffer for its next holder.
#[derive(Debug, Default)]
pub(crate) struct QueuePool {
    /// Queue `id` is `queues[id]`; `queues.len()` is also the most
    /// queues ever held at once.
    queues: Vec<VecDeque<SourcePacket>>,
    /// Returned queue ids, reused last-in first-out.
    free: Vec<u32>,
}

impl QueuePool {
    /// The most queues that were ever held at once.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.queues.len()
    }

    /// Queues held now.
    pub(crate) fn in_use(&self) -> usize {
        self.queues.len() - self.free.len()
    }

    /// The packets of queue `id`, front first (none for [`NO_QUEUE`]).
    pub(crate) fn packets(&self, id: u32) -> impl Iterator<Item = &SourcePacket> {
        self.queues.get(id as usize).into_iter().flatten()
    }

    /// Packets waiting in queue `id` (0 for [`NO_QUEUE`]).
    pub(crate) fn len(&self, id: u32) -> usize {
        self.queues.get(id as usize).map_or(0, VecDeque::len)
    }

    /// The front packet of queue `id`.
    pub(crate) fn front(&self, id: u32) -> Option<&SourcePacket> {
        self.queues.get(id as usize)?.front()
    }

    /// The front packet of queue `id`, writable.
    pub(crate) fn front_mut(&mut self, id: u32) -> Option<&mut SourcePacket> {
        self.queues.get_mut(id as usize)?.front_mut()
    }

    /// Appends `pkt` to the queue `*id` names, first taking a queue —
    /// the last one returned, else a new one — when it names none.
    pub(crate) fn push_back(&mut self, id: &mut u32, pkt: SourcePacket) {
        if *id == NO_QUEUE {
            *id = match self.free.pop() {
                Some(free) => free,
                None => {
                    self.queues.push(VecDeque::new());
                    u32::try_from(self.queues.len() - 1).expect("queue count fits u32")
                }
            };
        }
        self.queues[*id as usize].push_back(pkt);
    }

    /// Pops the front packet of the queue `*id` names, giving the queue
    /// back when that empties it.
    pub(crate) fn pop_front(&mut self, id: &mut u32) -> Option<SourcePacket> {
        let pkt = self.queues.get_mut(*id as usize)?.pop_front();
        self.release_if_empty(id);
        pkt
    }

    /// Keeps only the packets of the queue `*id` names that `keep`
    /// accepts, in order, giving the queue back when that empties it.
    /// Returns the packets removed.
    pub(crate) fn retain(
        &mut self,
        id: &mut u32,
        keep: impl FnMut(&SourcePacket) -> bool,
    ) -> usize {
        let Some(q) = self.queues.get_mut(*id as usize) else {
            return 0;
        };
        let before = q.len();
        q.retain(keep);
        let removed = before - q.len();
        self.release_if_empty(id);
        removed
    }

    /// Gives queue `*id` back once it holds nothing.
    fn release_if_empty(&mut self, id: &mut u32) {
        if self.queues[*id as usize].is_empty() {
            self.free.push(*id);
            *id = NO_QUEUE;
        }
    }
}

/// One flit of a wormhole packet: 24 bytes, the unit every input
/// buffer slot, transfer record and boundary message carries. The
/// source router is not stored; [`Flit::src`] decodes it from the
/// packet id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Packet id (unique per simulation); its high bits name the
    /// source router.
    pub packet_id: u64,
    /// Injection cycle of the packet's head.
    pub injected_at: u64,
    /// Destination router.
    pub dst: u32,
    /// Virtual channel this flit occupies on its current link — the
    /// input-VC buffer it sits in (or will be written into). Restamped
    /// at every crossbar traversal with the output VC the packet won.
    pub vc: u8,
    /// First flit of its packet (carries the route).
    pub is_head: bool,
    /// Last flit of its packet (releases the switch).
    pub is_tail: bool,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 24);

impl Flit {
    /// The filler value used for unoccupied buffer slots. Real packet
    /// ids stay below `u64::MAX` (source ids stop at 2²⁴ − 2), so this
    /// can never collide with a live flit; routing an invalid flit is a
    /// buffer-bookkeeping bug and is debug-asserted against in the
    /// router.
    pub const INVALID: Flit = Flit {
        packet_id: u64::MAX,
        injected_at: 0,
        dst: 0,
        vc: 0,
        is_head: false,
        is_tail: false,
    };

    /// Whether this is the [`Flit::INVALID`] filler.
    pub fn is_invalid(&self) -> bool {
        self.packet_id == Flit::INVALID.packet_id
    }

    /// Source router of this flit's packet, decoded from its id.
    pub fn src(&self) -> usize {
        packet_source(self.packet_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    #[test]
    fn destinations_stay_in_range_and_differ_from_source() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(1);
        for pattern in TrafficPattern::ALL {
            for src in 0..m.len() {
                for _ in 0..10 {
                    if let Some(dst) = pattern.destination(src, &m, &mut rng) {
                        assert!(dst < m.len(), "{pattern:?}");
                        assert_ne!(dst, src, "{pattern:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_is_deterministic() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(2);
        let d1 = TrafficPattern::Transpose.destination(m.id(1, 3), &m, &mut rng);
        let d2 = TrafficPattern::Transpose.destination(m.id(1, 3), &m, &mut rng);
        assert_eq!(d1, d2);
        assert_eq!(d1, Some(m.id(3, 1)));
    }

    #[test]
    fn bit_complement_pairs_up() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        let d = TrafficPattern::BitComplement
            .destination(0, &m, &mut rng)
            .unwrap();
        assert_eq!(d, m.len() - 1);
    }

    #[test]
    fn tornado_shifts_half_way() {
        let m = Mesh::new(8, 2);
        let mut rng = StdRng::seed_from_u64(9);
        // ⌈8/2⌉ − 1 = 3 columns to the right, wrapping.
        let d = TrafficPattern::Tornado
            .destination(m.id(6, 1), &m, &mut rng)
            .unwrap();
        assert_eq!(d, m.id(1, 1));
    }

    #[test]
    fn bursty_on_rate_preserves_offered_load() {
        let p = InjectionProcess::BurstyOnOff {
            mean_burst: 10,
            mean_idle: 30,
        };
        // duty = 0.25 → ON rate is 4× the average rate.
        assert!((p.on_rate(0.05) - 0.2).abs() < 1e-12);
        // Clamped: a rate above the duty cycle saturates at 1.
        assert_eq!(p.on_rate(0.5), 1.0);
        assert_eq!(InjectionProcess::Bernoulli.on_rate(0.05), 0.05);
    }

    #[test]
    fn source_packet_synthesizes_exact_flit_sequence() {
        let id = packet_id(5, 42);
        let mut p = SourcePacket {
            packet_id: id,
            dst: 9,
            injected_at: 17,
            sent: 0,
            vc: 1,
        };
        let len = 3;
        assert_eq!(p.remaining_flits(len), 3);
        let flits: Vec<Flit> = std::iter::from_fn(|| p.next_flit(len)).collect();
        assert_eq!(flits.len(), 3);
        assert!(flits[0].is_head && !flits[0].is_tail);
        assert!(!flits[1].is_head && !flits[1].is_tail);
        assert!(!flits[2].is_head && flits[2].is_tail);
        for f in &flits {
            assert_eq!((f.packet_id, f.src(), f.dst, f.injected_at), (id, 5, 9, 17));
            assert_eq!(f.vc, 1, "flits inherit the packet's injection VC");
            assert!(!f.is_invalid());
        }
        assert_eq!(p.remaining_flits(len), 0);
        assert_eq!(p.next_flit(len), None);
        // Single-flit packets are head and tail at once.
        let mut single = SourcePacket {
            packet_id: 1,
            dst: 2,
            injected_at: 0,
            sent: 0,
            vc: 0,
        };
        let f = single.next_flit(1).unwrap();
        assert!(f.is_head && f.is_tail);
    }

    #[test]
    fn invalid_flit_is_detectable() {
        assert!(Flit::INVALID.is_invalid());
        let real = SourcePacket {
            packet_id: u64::MAX - 1,
            dst: 1,
            injected_at: 0,
            sent: 0,
            vc: 0,
        }
        .next_flit(1)
        .unwrap();
        assert!(!real.is_invalid());
    }

    #[test]
    fn packet_id_round_trips_through_flit_src() {
        let last_seq = (1 << PACKET_SEQ_BITS) - 1;
        for src in [0, 1, MAX_ROUTERS - 1] {
            for seq in [0, last_seq] {
                let id = packet_id(src, seq);
                assert_eq!(id & last_seq, seq);
                let f = SourcePacket {
                    packet_id: id,
                    dst: 0,
                    injected_at: 0,
                    sent: 0,
                    vc: 0,
                }
                .next_flit(1)
                .unwrap();
                assert_eq!(f.src(), src, "seq {seq}");
                assert!(!f.is_invalid(), "src {src}, seq {seq}");
                assert_ne!(f, Flit::INVALID);
            }
        }
        assert_eq!(MAX_ROUTERS - 1, (1 << 24) - 2);
    }

    /// The initial arm the simulator performs at construction: a live
    /// Bernoulli source draws its first gap; everything else parks the
    /// renewal slot at "never".
    fn arm(process: InjectionProcess, rate: f64, gap: &GapSampler, rng: &mut StdRng) -> u64 {
        match process {
            InjectionProcess::Bernoulli if rate > 0.0 => gap.sample(rng),
            _ => u64::MAX,
        }
    }

    /// Tick-by-tick oracle for [`InjectionProcess::next_arrival`]: one
    /// cycle's worth of source state advancement, written independently
    /// of the prediction code. A bursty source makes its per-cycle flip
    /// and offer draws; a Bernoulli source compares the cycle against
    /// its renewal slot (catching up offers missed while unscanned).
    /// Returns whether the source offers; the caller re-arms after a
    /// hit via [`InjectionProcess::rearm_after_offer`].
    #[allow(clippy::too_many_arguments)]
    fn tick(
        process: InjectionProcess,
        rate: f64,
        on: &mut bool,
        next_offer: &mut u64,
        gap: &GapSampler,
        rng: &mut StdRng,
        cycle: u64,
    ) -> bool {
        match process {
            InjectionProcess::Bernoulli => {
                if !*on || rate <= 0.0 {
                    return false;
                }
                while *next_offer < cycle {
                    *next_offer = next_offer.saturating_add(gap.sample(rng));
                }
                *next_offer == cycle
            }
            InjectionProcess::BurstyOnOff {
                mean_burst,
                mean_idle,
            } => {
                let flip = if *on {
                    rng.gen_bool(1.0 / mean_burst as f64)
                } else {
                    rng.gen_bool(1.0 / mean_idle as f64)
                };
                if flip {
                    *on = !*on;
                }
                let r = if *on { rate } else { 0.0 };
                r > 0.0 && rng.gen_bool(r)
            }
        }
    }

    #[test]
    fn next_arrival_matches_tick_by_tick_draws() {
        let processes = [
            InjectionProcess::Bernoulli,
            InjectionProcess::BurstyOnOff {
                mean_burst: 8,
                mean_idle: 24,
            },
            InjectionProcess::BurstyOnOff {
                mean_burst: 1,
                mean_idle: 1,
            },
        ];
        for process in processes {
            for rate in [0.0, 0.005, 0.08, 0.5] {
                for seed in 0..8u64 {
                    let horizon = 3000u64;
                    let gap = GapSampler::new(rate);
                    // Oracle: step every cycle, recording offer cycles.
                    let mut rng_a = StdRng::seed_from_u64(seed);
                    let mut on_a = true;
                    let mut slot_a = arm(process, rate, &gap, &mut rng_a);
                    let mut offers = Vec::new();
                    for c in 1..=horizon {
                        if tick(process, rate, &mut on_a, &mut slot_a, &gap, &mut rng_a, c) {
                            offers.push(c);
                            process.rearm_after_offer(&mut slot_a, &gap, &mut rng_a, c);
                        }
                    }
                    // Prediction: chain next_arrival calls over the span.
                    let mut rng_b = StdRng::seed_from_u64(seed);
                    let mut on_b = true;
                    let mut slot_b = arm(process, rate, &gap, &mut rng_b);
                    let mut predicted = Vec::new();
                    let mut from = 0u64;
                    while let Some(c) = process.next_arrival(
                        rate,
                        &mut on_b,
                        &mut slot_b,
                        &gap,
                        &mut rng_b,
                        from,
                        horizon,
                    ) {
                        predicted.push(c);
                        process.rearm_after_offer(&mut slot_b, &gap, &mut rng_b, c);
                        from = c;
                    }
                    assert_eq!(
                        predicted, offers,
                        "{process:?} rate {rate} seed {seed}: predicted arrivals diverged"
                    );
                    // The streams must end in the same state, so a
                    // caller can resume tick-by-tick afterwards.
                    assert_eq!(on_b, on_a, "ON/OFF state diverged");
                    assert_eq!(slot_b, slot_a, "renewal slot diverged");
                    assert_eq!(rng_b.next_u64(), rng_a.next_u64(), "RNG state diverged");
                }
            }
        }
    }

    #[test]
    fn next_arrival_interleaves_with_ticking() {
        // Alternate prediction spans with manual ticks: the stream must
        // stay seamless (the engine re-arms predictions after
        // every fired event and at every fault-epoch boundary).
        let process = InjectionProcess::BurstyOnOff {
            mean_burst: 5,
            mean_idle: 9,
        };
        let rate = 0.3;
        let gap = GapSampler::new(rate);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut on_a = true;
        let mut slot_a = u64::MAX;
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut on_b = true;
        let mut slot_b = u64::MAX;
        let mut cycle = 0u64;
        for span in [7u64, 1, 30, 2, 113, 60] {
            let horizon = cycle + span;
            let mut expected = None;
            for c in cycle + 1..=horizon {
                if tick(process, rate, &mut on_a, &mut slot_a, &gap, &mut rng_a, c) {
                    expected = Some(c);
                    break;
                }
            }
            let got = process.next_arrival(
                rate,
                &mut on_b,
                &mut slot_b,
                &gap,
                &mut rng_b,
                cycle,
                horizon,
            );
            assert_eq!(got, expected);
            cycle = got.unwrap_or(horizon);
            // One manual tick on both streams between spans.
            cycle += 1;
            let a = tick(
                process,
                rate,
                &mut on_a,
                &mut slot_a,
                &gap,
                &mut rng_a,
                cycle,
            );
            let b = tick(
                process,
                rate,
                &mut on_b,
                &mut slot_b,
                &gap,
                &mut rng_b,
                cycle,
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bernoulli_missed_offers_catch_up_identically() {
        // A router dead over some window misses the offers that fell
        // inside it. The reference's per-cycle scan catches up lazily at
        // the first alive scan; the engine catches up eagerly, one gap draw
        // per fired-while-dead wheel event. Both must land on the same
        // (rng, next_offer) state and the same post-revival arrivals.
        let rate = 0.2;
        let gap = GapSampler::new(rate);
        let p = InjectionProcess::Bernoulli;
        for seed in 0..16u64 {
            for (dead_from, dead_to) in [(5u64, 40u64), (1, 2), (10, 11), (3, 200)] {
                // Lazy: scan alive cycles only.
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut on_a = true;
                let mut slot_a = arm(p, rate, &gap, &mut rng_a);
                let mut offers_a = Vec::new();
                for c in (1..dead_from).chain(dead_to..300) {
                    if tick(p, rate, &mut on_a, &mut slot_a, &gap, &mut rng_a, c) {
                        offers_a.push(c);
                        p.rearm_after_offer(&mut slot_a, &gap, &mut rng_a, c);
                    }
                }
                // Eager: scan every cycle, but suppress (and re-arm
                // through) the offers due inside the dead window —
                // exactly what a dead router's wheel event does.
                let mut rng_b = StdRng::seed_from_u64(seed);
                let mut slot_b = arm(p, rate, &gap, &mut rng_b);
                let mut offers_b = Vec::new();
                for c in 1..300 {
                    if slot_b == c {
                        if !(dead_from..dead_to).contains(&c) {
                            offers_b.push(c);
                        }
                        p.rearm_after_offer(&mut slot_b, &gap, &mut rng_b, c);
                    }
                }
                assert_eq!(offers_a, offers_b, "seed {seed}: surviving offers diverged");
                assert_eq!(slot_a, slot_b, "seed {seed}: renewal slot diverged");
                assert_eq!(
                    rng_a.next_u64(),
                    rng_b.next_u64(),
                    "seed {seed}: RNG state diverged"
                );
            }
        }
    }

    #[test]
    fn next_arrival_zero_rate_consumes_flips_only() {
        // Bernoulli at rate 0 must not touch the RNG…
        let gap = GapSampler::new(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let before = rng.clone().next_u64();
        let mut on = true;
        let mut slot = u64::MAX;
        assert_eq!(
            InjectionProcess::Bernoulli
                .next_arrival(0.0, &mut on, &mut slot, &gap, &mut rng, 0, 10_000),
            None
        );
        assert_eq!(rng.next_u64(), before, "Bernoulli at rate 0 draws nothing");
        // …while a bursty source still burns one flip draw per cycle.
        let p = InjectionProcess::BurstyOnOff {
            mean_burst: 4,
            mean_idle: 4,
        };
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut on_a = true;
        let mut slot_a = u64::MAX;
        assert_eq!(
            p.next_arrival(0.0, &mut on_a, &mut slot_a, &gap, &mut rng_a, 0, 500),
            None
        );
        let mut rng_b = StdRng::seed_from_u64(6);
        let mut on_b = true;
        let mut slot_b = u64::MAX;
        for c in 1..=500 {
            tick(p, 0.0, &mut on_b, &mut slot_b, &gap, &mut rng_b, c);
        }
        assert_eq!(on_a, on_b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn gap_sampler_matches_geometric_distribution() {
        // Mean gap ≈ 1/p, and P(G = 1) ≈ p — the sampled chain is the
        // same first-success process as the per-cycle coin it replaced.
        for p in [0.5, 0.05, 0.002] {
            let gap = GapSampler::new(p);
            let mut rng = StdRng::seed_from_u64(42);
            let draws = 40_000;
            let mut total = 0u64;
            let mut ones = 0u64;
            for _ in 0..draws {
                let g = gap.sample(&mut rng);
                assert!(g >= 1);
                total += g;
                ones += (g == 1) as u64;
            }
            let mean = total as f64 / draws as f64;
            assert!(
                (mean - 1.0 / p).abs() < 0.05 / p,
                "p {p}: mean gap {mean} vs expected {}",
                1.0 / p
            );
            let p_hat = ones as f64 / draws as f64;
            assert!(
                (p_hat - p).abs() < 0.1 * p + 0.002,
                "p {p}: P(G=1) = {p_hat}"
            );
        }
        // Degenerate ends: p = 1 always fires next cycle; p = 0 never
        // fires within any horizon a simulation can reach.
        let sure = GapSampler::new(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sure.sample(&mut rng), 1);
        }
        let never = GapSampler::new(0.0);
        assert!(never.sample(&mut rng) > 1 << 62);
    }

    #[test]
    fn hotspot_prefers_corner() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(4);
        let corner = m.len() - 1;
        let hits = (0..1000)
            .filter(|_| TrafficPattern::Hotspot.destination(0, &m, &mut rng) == Some(corner))
            .count();
        // 20 % targeted + uniform share — decisively more than uniform's
        // ~1/16.
        assert!(hits > 150, "hotspot hits = {hits}");
    }
}
