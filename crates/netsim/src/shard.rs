//! Boundary-message plumbing for the engine's tiles: what crosses
//! a tile edge, and how the per-edge mailboxes are wired up.
//!
//! A sharded cycle has exactly two phases per shard (see the module
//! docs of [`crate::sim`] for the full determinism argument):
//!
//! 1. **compute** — inject, step the tile's active set, apply every
//!    tile-local transfer, and *stage* each cross-tile effect (a flit
//!    arrival at a boundary router, or a credit returning to an
//!    upstream lane) into the outbox for the owning shard;
//! 2. **exchange** — after the barrier, drain the inboxes (senders in
//!    ascending shard order) and apply their effects to tile-local
//!    state.
//!
//! The synchronization primitives themselves — the double-buffered
//! [`Mailboxes`], the parity-indexed [`crate::sync::ShardSlots`], and
//! the sense-reversing [`crate::sync::SpinBarrier`] — live behind the
//! [`crate::sync`] facade, where every memory ordering carries its
//! invariant and the `model` feature's schedule explorer proves the
//! protocol correct (see the "Correctness tooling" section of the
//! README). This module only owns what is specific to the NoC: the
//! [`BoundaryMsg`] payload and the tile-adjacency wiring.

use crate::sync::Mailboxes;
use crate::topology::TileMap;
use crate::traffic::Flit;

/// One cross-tile effect, applied by the owning shard in the exchange
/// phase.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryMsg {
    /// A flit crossing a tile boundary: accept it at router `rid`'s
    /// input `port` (a [`crate::topology::Direction`] index).
    Arrival {
        /// Destination router (global id, owned by the receiving shard).
        rid: u32,
        /// Input port direction index at the destination router.
        port: u8,
        /// The flit itself (`flit.vc` names the input VC buffer).
        flit: Flit,
    },
    /// A credit returning to an upstream output lane owned by the
    /// receiving shard (global lane index `router * 5V + port * V +
    /// vc`).
    Credit {
        /// Global output-lane index of the lane regaining a credit.
        lane: u64,
    },
}

/// Builds the boundary mailbox set for a tile partition: one
/// double-buffered box per directed tile adjacency, pre-sized to its
/// fixed per-cycle message budget.
///
/// Capacities are fixed by construction: a directed tile edge can
/// carry at most one flit per boundary link and one credit per reverse
/// boundary link per cycle ([`TileMap::boundary_links`]). Edges are
/// emitted in ascending `(sender, destination)` order — the documented
/// deterministic drain order ([`Mailboxes::inboxes`]).
pub(crate) fn boundary_mailboxes(tiles: &TileMap) -> Mailboxes<BoundaryMsg> {
    let shards = tiles.shards();
    let mut edges = Vec::new();
    for sender in 0..shards {
        for dst in tiles.neighbors(sender) {
            // One flit per boundary link plus one credit per reverse
            // boundary link, per cycle.
            let cap = tiles.boundary_links(sender, dst) + tiles.boundary_links(dst, sender);
            edges.push((sender, dst, cap));
        }
    }
    Mailboxes::from_edges(shards, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    #[test]
    fn mailbox_roundtrip_preserves_order_and_capacity() {
        let tiles = TileMap::new(&Mesh::new(4, 4), 2);
        let mail = boundary_mailboxes(&tiles);
        assert_eq!(mail.outboxes(0), &[(1, 0)]);
        assert_eq!(mail.inboxes(1), &[(0, 0)]);
        // One flit per boundary link + one credit per reverse link:
        // a 4-wide two-band mesh pre-sizes each box to 8 messages.
        let box_cap = tiles.boundary_links(0, 1) + tiles.boundary_links(1, 0);
        assert_eq!(box_cap, 8);
        let mut staged = vec![
            BoundaryMsg::Credit { lane: 7 },
            BoundaryMsg::Credit { lane: 9 },
        ];
        mail.send(0, 0, &mut staged);
        // The sender gets the box's pre-sized empty buffer back as its
        // next staging buffer — swap, not clone/realloc.
        assert!(staged.is_empty());
        assert!(
            staged.capacity() >= box_cap,
            "send must swap in the pre-sized buffer, got capacity {}",
            staged.capacity()
        );
        let mut drained = Vec::new();
        mail.receive(0, 0, &mut drained);
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained[0], BoundaryMsg::Credit { lane: 7 }));
        assert!(matches!(drained[1], BoundaryMsg::Credit { lane: 9 }));
        // Steady state: the receiver's drained buffer is cleared and
        // reused; a second round trip must preserve its allocation
        // (the box is empty again, so the debug assert in send holds).
        let warmed_ptr = drained.as_ptr();
        let warmed_cap = drained.capacity();
        drained.clear();
        mail.send(0, 0, &mut drained);
        mail.receive(0, 0, &mut drained);
        assert!(drained.is_empty());
        assert_eq!(
            (drained.as_ptr(), drained.capacity()),
            (warmed_ptr, warmed_cap),
            "round trips must recycle the same buffer, not reallocate"
        );
    }

    #[test]
    fn torus_bands_get_wraparound_mailboxes() {
        let tiles = TileMap::new(&Mesh::torus(4, 8), 4);
        let mail = boundary_mailboxes(&tiles);
        // Shard 0 talks to 1 (south edge) and 3 (wrap edge).
        let dsts: Vec<usize> = mail.outboxes(0).iter().map(|&(d, _)| d).collect();
        assert_eq!(dsts, vec![1, 3]);
        let senders: Vec<usize> = mail.inboxes(0).iter().map(|&(s, _)| s).collect();
        assert_eq!(senders, vec![1, 3]);
    }
}
