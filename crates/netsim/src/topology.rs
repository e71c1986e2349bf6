//! 2-D mesh / torus topology and port directions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Router port direction; `Local` is the PE port of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Toward smaller y.
    North,
    /// Toward larger y.
    South,
    /// Toward larger x.
    East,
    /// Toward smaller x.
    West,
    /// The local processing element.
    Local,
}

impl Direction {
    /// All five directions, Local last.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// Index into per-port arrays.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// Inverse of [`Direction::index`] (`ALL` is in index order).
    ///
    /// # Panics
    ///
    /// Panics when `i >= 5`.
    pub fn from_index(i: usize) -> Direction {
        Direction::ALL[i]
    }

    /// The port on the neighbouring router that a flit sent out of this
    /// port arrives on.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// A `width × height` mesh, optionally with torus wraparound links.
///
/// With `wrap` set, every row and column closes into a ring and
/// dimension-order routing takes the shorter way around. Note that
/// wormhole DOR on a torus is not provably deadlock-free without
/// virtual channels; the simulator is faithful to that hardware
/// reality, so torus experiments should stay at low-to-moderate load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    /// Routers per row.
    pub width: usize,
    /// Routers per column.
    pub height: usize,
    /// Torus wraparound links on both dimensions.
    pub wrap: bool,
}

impl Mesh {
    /// A plain mesh (no wraparound).
    pub fn new(width: usize, height: usize) -> Self {
        Mesh {
            width,
            height,
            wrap: false,
        }
    }

    /// A torus (wraparound in both dimensions).
    pub fn torus(width: usize, height: usize) -> Self {
        Mesh {
            width,
            height,
            wrap: true,
        }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// `true` for a degenerate empty mesh.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Router id at coordinates.
    pub fn id(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Coordinates of a router id.
    pub fn coords(&self, id: usize) -> (usize, usize) {
        (id % self.width, id / self.width)
    }

    /// The neighbour of `id` in `dir`, if it exists. On a torus every
    /// non-Local direction has a neighbour (wrapping around the edge).
    pub fn neighbor(&self, id: usize, dir: Direction) -> Option<usize> {
        self.neighbor_at(self.coords(id), dir)
    }

    /// [`Mesh::neighbor`] of the router at `(x, y)` — identical result
    /// by construction. The simulation kernels cache every router's
    /// coordinates, so neighbour lookup never divides a router id and
    /// needs no per-router table.
    pub fn neighbor_at(&self, (x, y): (usize, usize), dir: Direction) -> Option<usize> {
        let wrap_y = self.wrap && self.height > 1;
        let wrap_x = self.wrap && self.width > 1;
        match dir {
            Direction::North => {
                if y > 0 {
                    Some(self.id(x, y - 1))
                } else {
                    wrap_y.then(|| self.id(x, self.height - 1))
                }
            }
            Direction::South => {
                if y + 1 < self.height {
                    Some(self.id(x, y + 1))
                } else {
                    wrap_y.then(|| self.id(x, 0))
                }
            }
            Direction::East => {
                if x + 1 < self.width {
                    Some(self.id(x + 1, y))
                } else {
                    wrap_x.then(|| self.id(0, y))
                }
            }
            Direction::West => {
                if x > 0 {
                    Some(self.id(x - 1, y))
                } else {
                    wrap_x.then(|| self.id(self.width - 1, y))
                }
            }
            Direction::Local => None,
        }
    }

    /// Signed hop count along one ring dimension: positive = increasing
    /// coordinate. On a torus, the shorter way around (ties broken
    /// toward the positive direction).
    fn dim_step(&self, here: usize, there: usize, extent: usize) -> isize {
        if here == there {
            return 0;
        }
        if !self.wrap {
            return there as isize - here as isize;
        }
        let fwd = (there + extent - here) % extent;
        let back = extent - fwd;
        if fwd <= back {
            fwd as isize
        } else {
            -(back as isize)
        }
    }

    /// Dimension-order (XY) routing: the output direction a flit at
    /// router `here` must take toward `dst`. On a torus each dimension
    /// is traversed the shorter way around.
    pub fn route_xy(&self, here: usize, dst: usize) -> Direction {
        self.route_xy_at(self.coords(here), self.coords(dst))
    }

    /// [`Mesh::route_xy`] with both routers' coordinates already in
    /// hand — identical result by construction. The simulation kernels
    /// cache every router's `(x, y)`, so routing a flit never divides
    /// a router id into coordinates.
    pub fn route_xy_at(&self, (hx, hy): (usize, usize), (dx, dy): (usize, usize)) -> Direction {
        let step_x = self.dim_step(hx, dx, self.width);
        if step_x > 0 {
            return Direction::East;
        }
        if step_x < 0 {
            return Direction::West;
        }
        let step_y = self.dim_step(hy, dy, self.height);
        if step_y > 0 {
            Direction::South
        } else if step_y < 0 {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// Hop distance under dimension-order routing (wrap-aware minimal
    /// distance on a torus, Manhattan on a mesh).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        self.dim_step(ax, bx, self.width).unsigned_abs()
            + self.dim_step(ay, by, self.height).unsigned_abs()
    }

    /// Dateline VC class of the link a packet from `src` takes out of
    /// `here` in direction `dir`: `0` until the packet's path in the
    /// current dimension has crossed that dimension's wraparound edge,
    /// `1` from the crossing link onward. Always `0` on a plain mesh.
    ///
    /// Each unidirectional ring's wrap edge is its dateline. Under
    /// shortest-way DOR a packet crosses it at most once per dimension,
    /// and the crossing history is a pure function of the source
    /// coordinate (the X phase starts at `src.x`, the Y phase at
    /// `src.y`), so no per-packet state is needed:
    ///
    /// * travelling East, the packet has wrapped iff `here.x < src.x`,
    ///   and the outgoing link itself wraps iff `here.x == width - 1`;
    /// * the other three directions are symmetric.
    ///
    /// Class-0 channels therefore never include a wrap link and class-1
    /// channels never wrap twice, so each class's channel-dependency
    /// graph is acyclic — the classic dateline deadlock-freedom
    /// argument for torus DOR with ≥ 2 virtual channels.
    pub fn dateline_class(&self, here: usize, src: usize, dir: Direction) -> u8 {
        if !self.wrap {
            return 0;
        }
        self.dateline_class_at(self.coords(here), self.coords(src), dir)
    }

    /// [`Mesh::dateline_class`] with both routers' coordinates already
    /// in hand — the engine caches every router's `(x, y)`
    /// so its per-flit route closure performs no divisions.
    pub fn dateline_class_at(
        &self,
        (hx, hy): (usize, usize),
        (sx, sy): (usize, usize),
        dir: Direction,
    ) -> u8 {
        if !self.wrap {
            return 0;
        }
        match dir {
            Direction::East => u8::from(hx < sx || hx == self.width - 1),
            Direction::West => u8::from(hx > sx || hx == 0),
            Direction::South => u8::from(hy < sy || hy == self.height - 1),
            Direction::North => u8::from(hy > sy || hy == 0),
            Direction::Local => 0,
        }
    }

    /// The virtual channel a packet requests for its next link.
    ///
    /// * `vcs == 1` — always VC 0 (the degenerate single-FIFO case; a
    ///   torus then has no dateline escape, faithfully reproducing the
    ///   deadlock-prone hardware the module docs warn about).
    /// * Plain mesh — all VCs are equivalent; packets are spread
    ///   `packet_id % vcs` so sibling VC banks share the load.
    /// * Torus with `vcs ≥ 2` — the VC space splits into a class-0
    ///   half `[0, ⌈vcs/2⌉)` and a class-1 half `[⌈vcs/2⌉, vcs)`;
    ///   [`Mesh::dateline_class`] picks the half and `packet_id`
    ///   spreads packets within it.
    ///
    /// The choice is a pure function of `(here, src, dst, packet_id)`,
    /// so every flit of a packet computes the same VC at a hop — body
    /// flits need no stored allocation state to follow their head.
    pub fn hop_vc(
        &self,
        here: usize,
        src: usize,
        packet_id: u64,
        dir: Direction,
        vcs: usize,
    ) -> u8 {
        if vcs == 1 || dir == Direction::Local {
            return 0;
        }
        if !self.wrap {
            return (packet_id % vcs as u64) as u8;
        }
        self.hop_vc_at(self.coords(here), self.coords(src), packet_id, dir, vcs)
    }

    /// [`Mesh::hop_vc`] with both routers' coordinates already in hand
    /// (see [`Mesh::dateline_class_at`]). Identical result by
    /// construction — the class logic lives in one place.
    pub fn hop_vc_at(
        &self,
        here: (usize, usize),
        src: (usize, usize),
        packet_id: u64,
        dir: Direction,
        vcs: usize,
    ) -> u8 {
        if vcs == 1 || dir == Direction::Local {
            return 0;
        }
        if !self.wrap {
            return (packet_id % vcs as u64) as u8;
        }
        let h0 = vcs.div_ceil(2);
        match self.dateline_class_at(here, src, dir) {
            0 => (packet_id % h0 as u64) as u8,
            _ => (h0 as u64 + packet_id % (vcs - h0) as u64) as u8,
        }
    }

    /// The virtual channel a freshly generated packet is injected into
    /// at its source's Local input port — the class-0 share of
    /// [`Mesh::hop_vc`] (injection never crosses a dateline).
    pub fn injection_vc(&self, packet_id: u64, vcs: usize) -> u8 {
        if vcs == 1 {
            return 0;
        }
        if !self.wrap {
            return (packet_id % vcs as u64) as u8;
        }
        (packet_id % vcs.div_ceil(2) as u64) as u8
    }
}

/// Sentinel direction index for "no surviving path".
const NO_ROUTE: u8 = u8::MAX;

/// Liveness state of the network under an active fault set, plus a
/// per-destination BFS next-hop table that routes *around* the dead
/// components.
///
/// A `FaultMap` answers two questions the routing layer needs:
///
/// * **liveness** — is this router / directed channel usable? Link
///   faults always take out both directions of a physical link, and a
///   dead router blocks every channel touching it.
/// * **routing** — what is the first hop of a shortest *surviving*
///   path from `rid` to `dst`? The table is rebuilt by breadth-first
///   search from every destination whenever the fault set changes
///   ([`FaultMap::rebuild`]), with a fixed direction expansion order so
///   the result is a pure function of the fault set — the property the
///   deterministic kernels need. Because every hop strictly decreases
///   the BFS distance to the destination, packets following the table
///   can neither loop nor livelock.
///
/// The table costs one byte per ordered router pair, so faulted
/// configurations are capped at [`FaultMap::MAX_ROUTERS`] routers
/// (16 MiB at the cap).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    n: usize,
    /// Explicit link faults, per directed channel `rid * 4 + dir`.
    /// [`FaultMap::kill_link`] always marks both directions.
    dead_link: Vec<bool>,
    /// Explicit router faults.
    dead_router: Vec<bool>,
    /// Effective channel liveness: blocked when the link itself is dead
    /// or either endpoint router is dead. Derived by `rebuild`.
    blocked: Vec<bool>,
    /// `next_hop[dst * n + rid]`: [`Direction::index`] of the first hop
    /// from `rid` toward `dst` on a shortest surviving path
    /// ([`Direction::Local`] at `rid == dst`); `NO_ROUTE` when
    /// unreachable.
    next_hop: Vec<u8>,
    reachable_pairs: u64,
    link_faults: usize,
    router_faults: usize,
}

impl FaultMap {
    /// Largest router count faulted configurations support (64×64);
    /// the per-destination next-hop table is quadratic in routers.
    pub const MAX_ROUTERS: usize = 4096;

    /// An all-alive map for `mesh` (routes not yet built — call
    /// [`FaultMap::rebuild`] after applying faults).
    pub fn new(mesh: &Mesh) -> Self {
        let n = mesh.len();
        assert!(
            n <= Self::MAX_ROUTERS,
            "faulted meshes are capped at {} routers, got {n}",
            Self::MAX_ROUTERS
        );
        FaultMap {
            n,
            dead_link: vec![false; n * 4],
            dead_router: vec![false; n],
            blocked: vec![false; n * 4],
            next_hop: vec![NO_ROUTE; n * n],
            reachable_pairs: 0,
            link_faults: 0,
            router_faults: 0,
        }
    }

    /// Marks the physical link out of `rid` in `dir` dead (both
    /// directions). Returns `false` when there is no such link or it is
    /// already dead. Routes are stale until [`FaultMap::rebuild`].
    pub fn kill_link(&mut self, mesh: &Mesh, rid: usize, dir: Direction) -> bool {
        let Some(nbr) = mesh.neighbor(rid, dir) else {
            return false;
        };
        if self.dead_link[rid * 4 + dir.index()] {
            return false;
        }
        self.dead_link[rid * 4 + dir.index()] = true;
        self.dead_link[nbr * 4 + dir.opposite().index()] = true;
        self.link_faults += 1;
        true
    }

    /// Revives a link previously killed with [`FaultMap::kill_link`].
    /// Returns `false` when the link does not exist or is already
    /// alive.
    pub fn revive_link(&mut self, mesh: &Mesh, rid: usize, dir: Direction) -> bool {
        let Some(nbr) = mesh.neighbor(rid, dir) else {
            return false;
        };
        if !self.dead_link[rid * 4 + dir.index()] {
            return false;
        }
        self.dead_link[rid * 4 + dir.index()] = false;
        self.dead_link[nbr * 4 + dir.opposite().index()] = false;
        self.link_faults -= 1;
        true
    }

    /// Marks router `rid` dead (all its channels block and it can
    /// neither inject nor eject). Returns `false` if already dead.
    pub fn kill_router(&mut self, rid: usize) -> bool {
        if self.dead_router[rid] {
            return false;
        }
        self.dead_router[rid] = true;
        self.router_faults += 1;
        true
    }

    /// Revives a router previously killed with
    /// [`FaultMap::kill_router`]. Returns `false` if already alive.
    pub fn revive_router(&mut self, rid: usize) -> bool {
        if !self.dead_router[rid] {
            return false;
        }
        self.dead_router[rid] = false;
        self.router_faults -= 1;
        true
    }

    /// `true` when no fault is active (the map routes like the healthy
    /// mesh and callers can drop it entirely).
    pub fn is_healthy(&self) -> bool {
        self.link_faults == 0 && self.router_faults == 0
    }

    /// Recomputes effective channel liveness and the next-hop table
    /// from the current fault set: one BFS per destination over the
    /// surviving reverse channels, expanding directions in a fixed
    /// order so the table is deterministic.
    pub fn rebuild(&mut self, mesh: &Mesh) {
        let n = self.n;
        assert_eq!(n, mesh.len(), "fault map built for a different mesh");
        for rid in 0..n {
            for d in &Direction::ALL[..4] {
                let di = d.index();
                let nbr = mesh.neighbor(rid, *d);
                self.blocked[rid * 4 + di] = self.dead_link[rid * 4 + di]
                    || self.dead_router[rid]
                    || nbr.is_none_or(|v| self.dead_router[v]);
            }
        }
        self.reachable_pairs = 0;
        let mut queue = std::collections::VecDeque::with_capacity(n);
        for dst in 0..n {
            let row = &mut self.next_hop[dst * n..(dst + 1) * n];
            row.fill(NO_ROUTE);
            if self.dead_router[dst] {
                continue;
            }
            row[dst] = Direction::Local.index() as u8;
            queue.clear();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for d in &Direction::ALL[..4] {
                    let Some(v) = mesh.neighbor(u, *d) else {
                        continue;
                    };
                    // Traffic flows v → u, i.e. out of v's opposite
                    // port; that channel must survive.
                    let out = d.opposite();
                    if row[v] != NO_ROUTE || self.blocked[v * 4 + out.index()] {
                        continue;
                    }
                    row[v] = out.index() as u8;
                    queue.push_back(v);
                }
            }
            self.reachable_pairs += row
                .iter()
                .enumerate()
                .filter(|&(rid, &h)| rid != dst && h != NO_ROUTE)
                .count() as u64;
        }
    }

    /// `true` when router `rid` is alive.
    pub fn router_alive(&self, rid: usize) -> bool {
        !self.dead_router[rid]
    }

    /// `true` when the directed channel out of `rid` in `dir` is not
    /// fault-blocked (a mesh-edge channel that never existed reports
    /// `true`; pair with the credit check, which is 0 there).
    pub fn link_alive(&self, rid: usize, dir: Direction) -> bool {
        dir == Direction::Local || !self.blocked[rid * 4 + dir.index()]
    }

    /// First hop of a shortest surviving path from `rid` toward `dst`
    /// ([`Direction::Local`] when `rid == dst`), or `None` when `dst`
    /// is unreachable from `rid` under the active faults.
    pub fn route(&self, rid: usize, dst: usize) -> Option<Direction> {
        let h = self.next_hop[dst * self.n + rid];
        (h != NO_ROUTE).then(|| Direction::from_index(h as usize))
    }

    /// `true` when a surviving path `rid → dst` exists (trivially true
    /// at `rid == dst` on an alive router).
    pub fn reachable(&self, rid: usize, dst: usize) -> bool {
        self.next_hop[dst * self.n + rid] != NO_ROUTE
    }

    /// Fraction of ordered distinct router pairs still connected, in
    /// `[0, 1]` — the degradation metric the sweep reports.
    pub fn reachable_fraction(&self) -> f64 {
        let total = (self.n * (self.n - 1)) as f64;
        if total == 0.0 {
            1.0
        } else {
            self.reachable_pairs as f64 / total
        }
    }

    /// Number of dead physical links (undirected).
    pub fn dead_link_count(&self) -> usize {
        self.link_faults
    }

    /// Number of dead routers.
    pub fn dead_router_count(&self) -> usize {
        self.router_faults
    }

    /// One-line human summary for diagnostics (watchdog, sweeps).
    pub fn summary(&self) -> String {
        format!(
            "{} dead router(s), {} dead link(s); {}/{} pairs reachable ({:.1}%)",
            self.router_faults,
            self.link_faults,
            self.reachable_pairs,
            self.n * (self.n - 1),
            self.reachable_fraction() * 100.0
        )
    }
}

/// A partition of the mesh into horizontal **tile bands** for the
/// tiled engine: shard `s` owns the full-width rectangle of rows
/// `row0[s] .. row0[s + 1]`.
///
/// Full-width bands are the partition shape that keeps the sharded
/// kernel simple *and* fast:
///
/// * router ids are row-major, so each tile is a **contiguous id
///   range** — every per-router SoA slab (lanes, credits, RNG streams,
///   source queues) splits into per-shard slices with zero index
///   translation;
/// * East/West links never cross a tile boundary, so the only halo is
///   the North/South boundary rows (plus, on a torus, the wrap edge
///   between the first and last band) — at most two neighbour shards
///   per shard, each with a fixed `width`-bounded message budget per
///   cycle.
///
/// Rows are distributed as evenly as possible (the first `height mod
/// shards` bands get one extra row), so shard loads stay balanced on
/// any mesh height.
#[derive(Debug, Clone)]
pub struct TileMap {
    width: usize,
    height: usize,
    wrap: bool,
    /// `shards + 1` entries; shard `s` owns rows `row0[s]..row0[s+1]`.
    row0: Vec<usize>,
}

impl TileMap {
    /// Partitions `mesh` into `shards` row bands.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or exceeds the mesh height (every
    /// band needs at least one row).
    pub fn new(mesh: &Mesh, shards: usize) -> TileMap {
        assert!(
            shards >= 1 && shards <= mesh.height,
            "shards must be in 1..=height ({}), got {shards}",
            mesh.height
        );
        let base = mesh.height / shards;
        let extra = mesh.height % shards;
        let mut row0 = Vec::with_capacity(shards + 1);
        let mut row = 0;
        row0.push(0);
        for s in 0..shards {
            row += base + usize::from(s < extra);
            row0.push(row);
        }
        TileMap {
            width: mesh.width,
            height: mesh.height,
            wrap: mesh.wrap,
            row0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.row0.len() - 1
    }

    /// The contiguous router-id range shard `s` owns.
    pub fn router_range(&self, s: usize) -> std::ops::Range<usize> {
        self.row0[s] * self.width..self.row0[s + 1] * self.width
    }

    /// The shard owning router `rid`.
    pub fn shard_of(&self, rid: usize) -> usize {
        debug_assert!(rid < self.width * self.height);
        let row = rid / self.width;
        self.row0.partition_point(|&r| r <= row) - 1
    }

    /// Shards sharing a halo edge with `s`, ascending. Row bands touch
    /// their immediate neighbours; on a torus the first and last band
    /// are additionally adjacent through the wrap edge.
    pub fn neighbors(&self, s: usize) -> Vec<usize> {
        let shards = self.shards();
        let mut out = Vec::with_capacity(2);
        if s > 0 {
            out.push(s - 1);
        }
        if s + 1 < shards {
            out.push(s + 1);
        }
        if self.wrap && shards > 1 {
            let other = if s == 0 { shards - 1 } else { 0 };
            if (s == 0 || s == shards - 1) && !out.contains(&other) {
                out.push(other);
            }
        }
        out.sort_unstable();
        out
    }

    /// Directed boundary-link count from shard `s` to shard `t`: the
    /// number of unidirectional mesh links whose source router is in
    /// `s` and destination in `t`. Sizes the fixed per-edge mailbox
    /// capacity — at most one flit per link and one credit per reverse
    /// link can cross per cycle.
    pub fn boundary_links(&self, s: usize, t: usize) -> usize {
        let shards = self.shards();
        let mut links = 0;
        // Southward edge: s's last row feeds t's first row.
        if t == s + 1 || (self.wrap && shards > 1 && s == shards - 1 && t == 0) {
            links += self.width;
        }
        // Northward edge: s's first row feeds t's last row.
        if s == t + 1 || (self.wrap && shards > 1 && s == 0 && t == shards - 1) {
            links += self.width;
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_coords_roundtrip() {
        let m = Mesh::new(4, 3);
        for id in 0..m.len() {
            let (x, y) = m.coords(id);
            assert_eq!(m.id(x, y), id);
        }
    }

    #[test]
    fn edges_have_no_neighbors() {
        let m = Mesh::new(3, 3);
        assert_eq!(m.neighbor(m.id(0, 0), Direction::North), None);
        assert_eq!(m.neighbor(m.id(0, 0), Direction::West), None);
        assert_eq!(m.neighbor(m.id(0, 0), Direction::East), Some(m.id(1, 0)));
    }

    #[test]
    fn torus_edges_wrap() {
        let m = Mesh::torus(3, 4);
        assert_eq!(m.neighbor(m.id(0, 0), Direction::North), Some(m.id(0, 3)));
        assert_eq!(m.neighbor(m.id(0, 0), Direction::West), Some(m.id(2, 0)));
        assert_eq!(m.neighbor(m.id(2, 3), Direction::East), Some(m.id(0, 3)));
        assert_eq!(m.neighbor(m.id(2, 3), Direction::South), Some(m.id(2, 0)));
        // Wraparound is consistent with opposite(): going out one way
        // and back returns home.
        for id in 0..m.len() {
            for d in [
                Direction::North,
                Direction::South,
                Direction::East,
                Direction::West,
            ] {
                let n = m.neighbor(id, d).expect("torus is fully connected");
                assert_eq!(m.neighbor(n, d.opposite()), Some(id));
            }
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::new(4, 4);
        let here = m.id(0, 0);
        let dst = m.id(2, 3);
        assert_eq!(m.route_xy(here, dst), Direction::East);
        let mid = m.id(2, 0);
        assert_eq!(m.route_xy(mid, dst), Direction::South);
        assert_eq!(m.route_xy(dst, dst), Direction::Local);
    }

    #[test]
    fn torus_routes_take_the_short_way() {
        let m = Mesh::torus(5, 5);
        // (0,0) → (4,0): one hop West around the edge, not four East.
        assert_eq!(m.route_xy(m.id(0, 0), m.id(4, 0)), Direction::West);
        assert_eq!(m.hops(m.id(0, 0), m.id(4, 0)), 1);
        // (0,0) → (0,4): one hop North around the edge.
        assert_eq!(m.route_xy(m.id(0, 0), m.id(0, 4)), Direction::North);
        // Exactly half way: tie broken toward the positive direction.
        let m4 = Mesh::torus(4, 4);
        assert_eq!(m4.route_xy(m4.id(0, 0), m4.id(2, 0)), Direction::East);
        assert_eq!(m4.hops(m4.id(0, 0), m4.id(2, 0)), 2);
    }

    #[test]
    fn xy_terminates_at_destination() {
        // Following route_xy always reaches dst in hops() steps, on
        // both the mesh and the torus.
        for m in [Mesh::new(5, 4), Mesh::torus(5, 4)] {
            for src in 0..m.len() {
                for dst in 0..m.len() {
                    let mut here = src;
                    let mut steps = 0;
                    while here != dst {
                        let dir = m.route_xy(here, dst);
                        here = m.neighbor(here, dir).expect("route stays in network");
                        steps += 1;
                        assert!(steps <= m.hops(src, dst), "no detours in DOR");
                    }
                    assert_eq!(steps, m.hops(src, dst));
                }
            }
        }
    }

    #[test]
    fn torus_never_beats_mesh_distance() {
        let mesh = Mesh::new(6, 3);
        let torus = Mesh::torus(6, 3);
        for a in 0..mesh.len() {
            for b in 0..mesh.len() {
                assert!(torus.hops(a, b) <= mesh.hops(a, b));
            }
        }
    }

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn from_index_roundtrips() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn dateline_class_flips_exactly_once_per_dimension() {
        // Walk the full DOR path of every (src, dst) pair on a torus:
        // within each dimension the class starts at 0, becomes 1 on the
        // wrap link, and never returns to 0.
        let m = Mesh::torus(5, 4);
        for src in 0..m.len() {
            for dst in 0..m.len() {
                let mut here = src;
                let mut last: Option<(Direction, u8)> = None;
                while here != dst {
                    let dir = m.route_xy(here, dst);
                    let class = m.dateline_class(here, src, dir);
                    if let Some((pd, pc)) = last {
                        let same_dim = matches!(
                            (pd, dir),
                            (
                                Direction::East | Direction::West,
                                Direction::East | Direction::West
                            ) | (
                                Direction::North | Direction::South,
                                Direction::North | Direction::South
                            )
                        );
                        if same_dim {
                            assert!(class >= pc, "class dropped mid-dimension");
                        }
                    }
                    let next = m.neighbor(here, dir).unwrap();
                    // The class-1 half is entered exactly on wrap links.
                    let (hx, hy) = m.coords(here);
                    let (nx, ny) = m.coords(next);
                    let wraps = (hx == m.width - 1 && nx == 0)
                        || (hx == 0 && nx == m.width - 1)
                        || (hy == m.height - 1 && ny == 0)
                        || (hy == 0 && ny == m.height - 1);
                    if wraps {
                        assert_eq!(class, 1, "wrap link must ride class 1");
                    }
                    last = Some((dir, class));
                    here = next;
                }
            }
        }
    }

    #[test]
    fn mesh_has_no_dateline() {
        let m = Mesh::new(4, 4);
        for here in 0..m.len() {
            for d in Direction::ALL {
                assert_eq!(m.dateline_class(here, 0, d), 0);
            }
        }
    }

    #[test]
    fn hop_vc_respects_class_halves() {
        let m = Mesh::torus(6, 6);
        for vcs in [2usize, 3, 4] {
            let h0 = vcs.div_ceil(2);
            for pid in 0..12u64 {
                // Class 0: injection + non-wrapped hops stay below h0.
                let vc0 = m.injection_vc(pid, vcs);
                assert!((vc0 as usize) < h0);
                // A hop on the wrap link (here.x == width-1, East) is
                // class 1 and lands in the upper half.
                let here = m.id(5, 0);
                let vc1 = m.hop_vc(here, here, pid, Direction::East, vcs);
                assert!((vc1 as usize) >= h0, "vcs={vcs} pid={pid} vc={vc1}");
                assert!((vc1 as usize) < vcs);
            }
        }
        // Single VC: always 0, wrap or not.
        assert_eq!(m.hop_vc(m.id(5, 0), m.id(5, 0), 7, Direction::East, 1), 0);
        // Plain mesh: packets spread across all VCs.
        let flat = Mesh::new(4, 4);
        let vcs: Vec<u8> = (0..8)
            .map(|pid| flat.hop_vc(0, 0, pid, Direction::East, 4))
            .collect();
        assert_eq!(vcs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn hop_vc_is_uniform_along_a_packet_path() {
        // Every flit of a packet recomputes the same VC at each hop —
        // the property that lets body flits follow their head without
        // stored allocation state.
        let m = Mesh::torus(5, 5);
        for src in 0..m.len() {
            for dst in 0..m.len() {
                let mut here = src;
                while here != dst {
                    let dir = m.route_xy(here, dst);
                    let a = m.hop_vc(here, src, 11, dir, 4);
                    let b = m.hop_vc(here, src, 11, dir, 4);
                    assert_eq!(a, b);
                    here = m.neighbor(here, dir).unwrap();
                }
            }
        }
    }

    #[test]
    fn tile_map_partitions_exactly() {
        for (w, h, wrap) in [(4, 4, false), (5, 7, true), (16, 16, false), (3, 2, true)] {
            let mesh = Mesh {
                width: w,
                height: h,
                wrap,
            };
            for shards in 1..=h {
                let t = TileMap::new(&mesh, shards);
                assert_eq!(t.shards(), shards);
                // Ranges are contiguous, ascending, and cover all ids.
                let mut next = 0;
                for s in 0..shards {
                    let r = t.router_range(s);
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty(), "every band owns at least one row");
                    assert_eq!(r.len() % w, 0, "bands are whole rows");
                    for rid in r.clone() {
                        assert_eq!(t.shard_of(rid), s);
                    }
                    next = r.end;
                }
                assert_eq!(next, mesh.len());
                // Band heights differ by at most one row.
                let rows: Vec<usize> = (0..shards).map(|s| t.router_range(s).len() / w).collect();
                let (min, max) = (rows.iter().min().unwrap(), rows.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced bands: {rows:?}");
            }
        }
    }

    #[test]
    fn tile_map_neighbors_match_actual_cross_links() {
        // The declared halo edges and their link counts must agree with
        // a brute-force scan of every mesh link.
        for (w, h, wrap) in [(4, 6, false), (4, 6, true), (3, 8, true), (5, 2, true)] {
            let mesh = Mesh {
                width: w,
                height: h,
                wrap,
            };
            for shards in 1..=h {
                let t = TileMap::new(&mesh, shards);
                let mut counted = vec![vec![0usize; shards]; shards];
                for rid in 0..mesh.len() {
                    for d in &Direction::ALL[..4] {
                        if let Some(next) = mesh.neighbor(rid, *d) {
                            let (a, b) = (t.shard_of(rid), t.shard_of(next));
                            if a != b {
                                counted[a][b] += 1;
                            }
                        }
                    }
                }
                for (s, row) in counted.iter().enumerate() {
                    let declared = t.neighbors(s);
                    let actual: Vec<usize> = row
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(o, _)| o)
                        .collect();
                    assert_eq!(
                        declared, actual,
                        "{w}x{h} wrap={wrap} shards={shards} s={s}"
                    );
                    for (o, &cnt) in row.iter().enumerate() {
                        if s != o {
                            assert_eq!(
                                t.boundary_links(s, o),
                                cnt,
                                "{w}x{h} wrap={wrap} shards={shards} {s}->{o}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_xy_at_matches_route_xy() {
        for m in [Mesh::new(5, 4), Mesh::torus(5, 4)] {
            for src in 0..m.len() {
                for dst in 0..m.len() {
                    assert_eq!(
                        m.route_xy_at(m.coords(src), m.coords(dst)),
                        m.route_xy(src, dst)
                    );
                }
            }
        }
    }

    #[test]
    fn fault_map_routes_match_bfs_distance() {
        // With no faults, BFS next-hops must reach every destination in
        // exactly hops() steps on the mesh (BFS shortest = Manhattan).
        for m in [Mesh::new(5, 4), Mesh::torus(5, 4)] {
            let mut fm = FaultMap::new(&m);
            fm.rebuild(&m);
            assert!(fm.is_healthy());
            assert_eq!(fm.reachable_fraction(), 1.0);
            for src in 0..m.len() {
                for dst in 0..m.len() {
                    let mut here = src;
                    let mut steps = 0;
                    while here != dst {
                        let dir = fm.route(here, dst).expect("healthy map is connected");
                        here = m.neighbor(here, dir).expect("route stays in network");
                        steps += 1;
                        assert!(steps <= m.hops(src, dst), "BFS route took a detour");
                    }
                    assert_eq!(steps, m.hops(src, dst));
                    assert_eq!(fm.route(dst, dst), Some(Direction::Local));
                }
            }
        }
    }

    #[test]
    fn fault_map_detours_around_a_dead_link() {
        // Kill the (1,1)→(2,1) link on a 4×4 mesh: every pair must stay
        // reachable (the mesh is 2-connected away from corners) and no
        // surviving route may use the dead channel in either direction.
        let m = Mesh::new(4, 4);
        let mut fm = FaultMap::new(&m);
        assert!(fm.kill_link(&m, m.id(1, 1), Direction::East));
        assert!(!fm.kill_link(&m, m.id(2, 1), Direction::West), "same link");
        fm.rebuild(&m);
        assert_eq!(fm.dead_link_count(), 1);
        assert!(!fm.link_alive(m.id(1, 1), Direction::East));
        assert!(!fm.link_alive(m.id(2, 1), Direction::West));
        assert_eq!(fm.reachable_fraction(), 1.0, "mesh remains connected");
        for src in 0..m.len() {
            for dst in 0..m.len() {
                let mut here = src;
                let mut steps = 0;
                while here != dst {
                    let dir = fm.route(here, dst).expect("still connected");
                    assert!(fm.link_alive(here, dir), "route used a dead link");
                    here = m.neighbor(here, dir).unwrap();
                    steps += 1;
                    assert!(steps <= m.len(), "route loops");
                }
            }
        }
        // Revival restores the original table.
        let mut healthy = FaultMap::new(&m);
        healthy.rebuild(&m);
        assert!(fm.revive_link(&m, m.id(2, 1), Direction::West));
        fm.rebuild(&m);
        assert_eq!(fm, healthy);
    }

    #[test]
    fn fault_map_dead_router_disconnects_and_isolates() {
        // Killing (1,0) on a 3×1 path mesh cuts (0,0) from (2,0); the
        // dead router itself is unreachable and cannot route.
        let m = Mesh::new(3, 1);
        let mut fm = FaultMap::new(&m);
        assert!(fm.kill_router(m.id(1, 0)));
        assert!(!fm.kill_router(m.id(1, 0)), "already dead");
        fm.rebuild(&m);
        assert!(!fm.reachable(m.id(0, 0), m.id(2, 0)));
        assert!(!fm.reachable(m.id(2, 0), m.id(0, 0)));
        assert!(!fm.reachable(m.id(0, 0), m.id(1, 0)));
        assert!(!fm.reachable(m.id(1, 0), m.id(0, 0)));
        assert!(fm.reachable(m.id(0, 0), m.id(0, 0)));
        assert!(fm.route(m.id(0, 0), m.id(2, 0)).is_none());
        // 1×3 path has 6 ordered pairs; only self pairs survive — the
        // fraction counts the 0 surviving distinct pairs.
        assert_eq!(fm.reachable_fraction(), 0.0);
        assert!(fm.summary().contains("1 dead router"));
        // On the torus the wrap link keeps the ends connected.
        let t = Mesh::torus(3, 1);
        let mut ft = FaultMap::new(&t);
        ft.kill_router(t.id(1, 0));
        ft.rebuild(&t);
        assert!(ft.reachable(t.id(0, 0), t.id(2, 0)));
    }
}
