//! The conservation oracles and the on-the-fly ejection check.

use super::{MeshConfig, RunCtx, Simulation, Tile};
use crate::router::{occupancy, total_occupancy};
use crate::topology::{Direction, Mesh, TileMap};
use crate::traffic::{Flit, NO_QUEUE};

/// Per-destination ejection progress, for on-the-fly validation of
/// in-order, contiguous packet delivery: the packet being ejected and
/// its flits seen so far, or [`EjectProgress::IDLE`] between packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct EjectProgress {
    /// Id of the packet mid-ejection; [`Flit::INVALID`]'s id, which no
    /// packet carries, when none is.
    pub(super) packet: u64,
    /// Flits of `packet` ejected so far.
    seen: u32,
}

impl EjectProgress {
    /// No packet mid-ejection.
    pub(super) const IDLE: EjectProgress = EjectProgress {
        packet: Flit::INVALID.packet_id,
        seen: 0,
    };
}

const _: () = assert!(std::mem::size_of::<EjectProgress>() == 16);

/// Asserts credit conservation over the whole network: for every link
/// lane of every tile, the credits the upstream lane holds plus the
/// flits buffered in the downstream input VC — in whichever tile owns
/// it — equal the per-VC depth, and edge lanes hold none. `tiles` are
/// all of `tile_map`'s tiles, in shard order.
///
/// The one oracle behind [`Simulation::check_credit_conservation`] and
/// the debug build's per-cycle check in a single-worker run.
pub(super) fn check_credits(tiles: &[Tile], tile_map: &TileMap, mesh: &Mesh, cfg: &MeshConfig) {
    let v = cfg.vcs;
    let lanes = 5 * v;
    let depth = cfg.buffer_depth as u32;
    for tile in tiles {
        for lr in 0..tile.len {
            let rid = tile.base + lr;
            for d in &Direction::ALL[..4] {
                for vc in 0..v {
                    let held = tile.credits[lr * lanes + d.index() * v + vc] as u32;
                    match mesh.neighbor(rid, *d) {
                        Some(next) => {
                            let down = &tiles[tile_map.shard_of(next)];
                            let block = &down.lanes[(next - down.base) * lanes..];
                            let buffered = occupancy(block, v, d.opposite(), vc) as u32;
                            assert_eq!(
                                held + buffered,
                                depth,
                                "credit conservation broken: router {rid} {d} vc {vc}: \
                                 {held} credits + {buffered} buffered != depth {depth}"
                            );
                        }
                        None => assert_eq!(held, 0, "edge lane must hold no credits"),
                    }
                }
            }
        }
    }
}

impl Simulation {
    /// Asserts flit conservation since construction: every flit a
    /// source injected was delivered, is buffered in a router, waits
    /// in a source queue or was dropped by a fault reap. Also checks
    /// each tile's incremental buffered and queued counters against an
    /// O(routers × lanes) scan of its lane records and source queues,
    /// and that a router holds a source queue exactly while packets
    /// wait in it.
    ///
    /// Every successful run checks this once at its end, in every
    /// build.
    pub(super) fn check_flit_conservation(&self) {
        for t in &self.tiles {
            assert_eq!(
                (t.queued_flits, t.buffered_flits),
                t.flits_scanned(&self.cfg),
                "tile {}: incremental (queued, buffered) flit counters diverged from the scan",
                t.shard
            );
            assert!(
                t.source_queue
                    .iter()
                    .all(|&q| (q == NO_QUEUE) == (t.queues.len(q) == 0)),
                "tile {}: a router holds an empty source queue",
                t.shard
            );
            let held = t.source_queue.iter().filter(|&&q| q != NO_QUEUE).count();
            assert_eq!(
                t.queues.in_use(),
                held,
                "tile {}: source queues in use != routers holding one",
                t.shard
            );
        }
        let sum = |f: fn(&Tile) -> u64| self.tiles.iter().map(f).sum::<u64>();
        let injected = sum(|t| t.flits_injected);
        let delivered = sum(|t| t.flits_delivered);
        let buffered = sum(|t| t.buffered_flits);
        let queued = sum(|t| t.queued_flits);
        let dropped = sum(|t| t.flits_dropped);
        assert_eq!(
            injected,
            delivered + buffered + queued + dropped,
            "flit conservation broken: {injected} injected != {delivered} delivered + \
             {buffered} buffered + {queued} queued + {dropped} dropped by faults"
        );
    }
}

impl Tile {
    /// This tile's queued and buffered flits, counted by an
    /// O(routers × lanes) scan of its source queues and lane records.
    pub(super) fn flits_scanned(&self, cfg: &MeshConfig) -> (u64, u64) {
        let queued = self
            .source_queue
            .iter()
            .flat_map(|&q| self.queues.packets(q))
            .map(|p| p.remaining_flits(cfg.packet_len_flits))
            .sum();
        (queued, total_occupancy(&self.lanes) as u64)
    }

    /// Asserts in-order, contiguous, complete per-packet delivery.
    pub(super) fn check_ejection(&mut self, ctx: &RunCtx<'_>, rid: usize, flit: &Flit) {
        assert_eq!(flit.dst as usize, rid, "flit ejected at the wrong router");
        let progress = &mut self.eject[rid - self.base];
        if *progress == EjectProgress::IDLE {
            assert!(
                flit.is_head,
                "packet {} ejected body flit before its head at router {rid}",
                flit.packet_id
            );
            if flit.is_tail {
                assert_eq!(ctx.cfg.packet_len_flits, 1);
            } else {
                *progress = EjectProgress {
                    packet: flit.packet_id,
                    seen: 1,
                };
            }
        } else {
            let pkt = progress.packet;
            assert_eq!(
                flit.packet_id, pkt,
                "packet interleaving at router {rid} ejection port"
            );
            assert!(!flit.is_head, "duplicate head flit in packet {pkt}");
            progress.seen += 1;
            if flit.is_tail {
                assert_eq!(
                    progress.seen as usize, ctx.cfg.packet_len_flits,
                    "packet {pkt} delivered with the wrong flit count"
                );
                *progress = EjectProgress::IDLE;
            }
        }
    }
}
