//! Deterministic fault injection: seeded schedules of permanent and
//! transient link/router failures.
//!
//! A [`FaultPlan`] describes *what should break and when* as data: a
//! seed, fault counts, and an onset window. `FaultSchedule::build`
//! expands it — before the simulation starts — into a sorted list of
//! **epochs**, each a cycle at which the fault set changes plus the
//! [`FaultMap`] describing the network from that cycle on. The
//! expansion is a pure function of `(plan, mesh)`, keyed like the
//! per-router RNG streams (a private salt XOR'd into the plan seed), so
//! the same plan produces bit-identical fault timelines under both
//! kernels and every shards×threads count.
//!
//! The simulation applies each epoch at a cycle boundary (between the
//! exchange phase of one cycle and the compute phase of the next), so
//! shard mailboxes are empty and credit conservation stays exact; see
//! the engine's `reap` module for the reaping protocol.

use crate::topology::{Direction, FaultMap, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Salt mixed into [`FaultPlan::seed`] so fault draws never collide
/// with the per-router injection streams derived from the same user
/// seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_AB1E_0D00_5EED ^ 0x9e37_79b9_7f4a_7c15;

/// One scheduled change to the fault set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The physical link out of `router` in `dir` dies (both
    /// directions).
    LinkDown {
        /// Router on one end of the link.
        router: u32,
        /// Direction of the link out of `router`.
        dir: Direction,
    },
    /// A previously dead link heals (transient faults).
    LinkUp {
        /// Router on one end of the link.
        router: u32,
        /// Direction of the link out of `router`.
        dir: Direction,
    },
    /// Router `router` dies: every channel touching it blocks and it
    /// can neither inject nor eject.
    RouterDown {
        /// The dying router.
        router: u32,
    },
    /// A previously dead router heals.
    RouterUp {
        /// The healing router.
        router: u32,
    },
}

/// A [`FaultKind`] pinned to the cycle it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle the change applies (at the cycle's *start*; cycle numbers
    /// are absolute from simulation construction).
    pub at: u64,
    /// What breaks or heals.
    pub kind: FaultKind,
}

/// A declarative, seeded fault scenario.
///
/// The seeded draws pick distinct physical links / routers uniformly,
/// with onset cycles uniform in `[start_cycle, start_cycle + window)`;
/// `events` adds explicit hand-placed faults on top (tests and
/// reproductions). Attach the plan to [`crate::MeshConfig::faults`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault draws (independent of the traffic seed).
    pub seed: u64,
    /// Number of permanently failing links.
    pub link_faults: usize,
    /// Number of permanently failing routers.
    pub router_faults: usize,
    /// Number of transient link faults (each heals after
    /// [`FaultPlan::transient_duration`] cycles).
    pub transient_link_faults: usize,
    /// Cycles a transient link stays dead.
    pub transient_duration: u64,
    /// Earliest fault onset cycle.
    pub start_cycle: u64,
    /// Width of the onset window (0 = all faults strike at
    /// `start_cycle`).
    pub window: u64,
    /// Explicit events merged with the seeded draws.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 2005,
            link_faults: 1,
            router_faults: 0,
            transient_link_faults: 0,
            transient_duration: 250,
            start_cycle: 200,
            window: 300,
            events: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with `n` permanent link faults and defaults otherwise.
    pub fn links(n: usize) -> Self {
        FaultPlan {
            link_faults: n,
            ..FaultPlan::default()
        }
    }

    /// A plan with `n` permanent router faults and no link faults.
    pub fn routers(n: usize) -> Self {
        FaultPlan {
            link_faults: 0,
            router_faults: n,
            ..FaultPlan::default()
        }
    }

    /// A plan consisting only of the given explicit events.
    pub fn explicit(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            link_faults: 0,
            events,
            ..FaultPlan::default()
        }
    }

    /// The same plan under a different fault seed.
    pub fn with_seed(self, seed: u64) -> Self {
        FaultPlan { seed, ..self }
    }
}

/// One entry of an expanded schedule: from cycle `start` on, the
/// network looks like `map` (`None` = fully healed, route like the
/// pristine mesh).
#[derive(Debug, Clone)]
pub(crate) struct FaultEpoch {
    pub(crate) start: u64,
    pub(crate) map: Option<FaultMap>,
}

/// A [`FaultPlan`] expanded against a concrete mesh: cumulative
/// [`FaultMap`]s sorted by onset cycle.
#[derive(Debug, Clone)]
pub(crate) struct FaultSchedule {
    pub(crate) epochs: Vec<FaultEpoch>,
    /// Cycle of the first fault onset (post-fault metrics start here).
    pub(crate) first_fault_cycle: u64,
    /// Worst reachable-pair fraction over all epochs.
    pub(crate) min_reachable_fraction: f64,
}

impl FaultSchedule {
    /// Expands `plan` against `mesh`. Returns `None` when the plan
    /// produces no events at all (zero counts, no explicit events).
    pub(crate) fn build(plan: &FaultPlan, mesh: &Mesh) -> Option<FaultSchedule> {
        let n = mesh.len();
        let mut rng = StdRng::seed_from_u64(plan.seed ^ FAULT_STREAM_SALT);
        let mut events: Vec<FaultEvent> = Vec::new();
        // Distinct physical links, canonicalized to the lower-id end so
        // both directions of a link count as one draw (on a width-2
        // wrapped ring the East and West links between the same pair
        // are distinct channels and stay separately drawable).
        let mut links_taken: Vec<(usize, Direction)> = Vec::new();
        let mut draw_link = |rng: &mut StdRng| -> Option<(usize, Direction)> {
            for _ in 0..64 * n.max(1) {
                let rid = rng.gen_range(0..n);
                let dir = Direction::ALL[rng.gen_range(0..4usize)];
                let Some(nbr) = mesh.neighbor(rid, dir) else {
                    continue;
                };
                let canon = if rid <= nbr {
                    (rid, dir)
                } else {
                    (nbr, dir.opposite())
                };
                if links_taken.contains(&canon) {
                    continue;
                }
                links_taken.push(canon);
                return Some((rid, dir));
            }
            None
        };
        let window = plan.window.max(1);
        for _ in 0..plan.link_faults {
            let Some((rid, dir)) = draw_link(&mut rng) else {
                break;
            };
            let at = plan.start_cycle + rng.gen_range(0..window);
            events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown {
                    router: rid as u32,
                    dir,
                },
            });
        }
        let mut routers_taken: Vec<usize> = Vec::new();
        for _ in 0..plan.router_faults.min(n.saturating_sub(1)) {
            let rid = loop {
                let r = rng.gen_range(0..n);
                if !routers_taken.contains(&r) {
                    routers_taken.push(r);
                    break r;
                }
            };
            let at = plan.start_cycle + rng.gen_range(0..window);
            events.push(FaultEvent {
                at,
                kind: FaultKind::RouterDown { router: rid as u32 },
            });
        }
        for _ in 0..plan.transient_link_faults {
            let Some((rid, dir)) = draw_link(&mut rng) else {
                break;
            };
            let at = plan.start_cycle + rng.gen_range(0..window);
            let heal = at + plan.transient_duration.max(1);
            events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown {
                    router: rid as u32,
                    dir,
                },
            });
            events.push(FaultEvent {
                at: heal,
                kind: FaultKind::LinkUp {
                    router: rid as u32,
                    dir,
                },
            });
        }
        events.extend(plan.events.iter().copied());
        if events.is_empty() {
            return None;
        }
        for e in &mut events {
            // Cycle numbering starts at 1; an epoch at 0 would be
            // unreachable (faults apply at cycle starts).
            e.at = e.at.max(1);
        }
        events.sort_by_key(|e| e.at);

        let mut fm = FaultMap::new(mesh);
        let mut epochs: Vec<FaultEpoch> = Vec::new();
        let mut min_fraction = 1.0f64;
        let mut i = 0;
        while i < events.len() {
            let at = events[i].at;
            while i < events.len() && events[i].at == at {
                match events[i].kind {
                    FaultKind::LinkDown { router, dir } => {
                        fm.kill_link(mesh, router as usize, dir);
                    }
                    FaultKind::LinkUp { router, dir } => {
                        fm.revive_link(mesh, router as usize, dir);
                    }
                    FaultKind::RouterDown { router } => {
                        fm.kill_router(router as usize);
                    }
                    FaultKind::RouterUp { router } => {
                        fm.revive_router(router as usize);
                    }
                }
                i += 1;
            }
            fm.rebuild(mesh);
            let map = if fm.is_healthy() {
                None
            } else {
                min_fraction = min_fraction.min(fm.reachable_fraction());
                Some(fm.clone())
            };
            epochs.push(FaultEpoch { start: at, map });
        }
        let first = epochs[0].start;
        Some(FaultSchedule {
            epochs,
            first_fault_cycle: first,
            min_reachable_fraction: min_fraction,
        })
    }

    /// `true` when epoch `applied` (the number already in effect)
    /// exists and is due at or before `cycle` — a pure function of the
    /// schedule, so every shard agrees on every boundary.
    pub(crate) fn pending(&self, applied: usize, cycle: u64) -> bool {
        self.epochs.get(applied).is_some_and(|e| e.start <= cycle)
    }

    /// The fault map in effect once `applied` epochs have been applied
    /// (`None` = healthy network).
    pub(crate) fn map_after(&self, applied: usize) -> Option<&FaultMap> {
        if applied == 0 {
            None
        } else {
            self.epochs[applied - 1].map.as_ref()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        let mesh = Mesh::torus(8, 8);
        let plan = FaultPlan {
            link_faults: 3,
            router_faults: 2,
            transient_link_faults: 2,
            ..FaultPlan::default()
        };
        let a = FaultSchedule::build(&plan, &mesh).unwrap();
        let b = FaultSchedule::build(&plan, &mesh).unwrap();
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert_eq!(a.first_fault_cycle, b.first_fault_cycle);
        assert_eq!(a.min_reachable_fraction, b.min_reachable_fraction);
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.map, y.map);
        }
        // A different seed reshuffles the draws.
        let c = FaultSchedule::build(&plan.clone().with_seed(7), &mesh).unwrap();
        assert!(
            a.epochs
                .iter()
                .zip(&c.epochs)
                .any(|(x, y)| x.start != y.start || x.map != y.map),
            "different fault seeds should produce different timelines"
        );
    }

    #[test]
    fn empty_plan_yields_no_schedule() {
        let mesh = Mesh::new(4, 4);
        let plan = FaultPlan {
            link_faults: 0,
            router_faults: 0,
            transient_link_faults: 0,
            events: vec![],
            ..FaultPlan::default()
        };
        assert!(FaultSchedule::build(&plan, &mesh).is_none());
    }

    #[test]
    fn transient_fault_heals_back_to_a_pristine_map() {
        let mesh = Mesh::new(4, 4);
        let plan = FaultPlan {
            link_faults: 0,
            transient_link_faults: 1,
            transient_duration: 100,
            window: 1,
            ..FaultPlan::default()
        };
        let s = FaultSchedule::build(&plan, &mesh).unwrap();
        assert_eq!(s.epochs.len(), 2, "one onset epoch, one healed epoch");
        assert!(s.epochs[0].map.is_some());
        assert!(
            s.epochs[1].map.is_none(),
            "after the only fault heals the map must revert to pristine"
        );
        assert_eq!(s.epochs[1].start, s.epochs[0].start + 100);
        assert!(s.min_reachable_fraction <= 1.0);
        assert!(!s.pending(2, u64::MAX));
        assert!(s.pending(0, s.epochs[0].start));
        assert!(!s.pending(0, s.epochs[0].start - 1));
        assert!(s.map_after(0).is_none());
        assert!(s.map_after(1).is_some());
        assert!(s.map_after(2).is_none());
    }

    #[test]
    fn explicit_events_are_honored_verbatim() {
        let mesh = Mesh::new(3, 3);
        let plan = FaultPlan::explicit(vec![FaultEvent {
            at: 50,
            kind: FaultKind::RouterDown { router: 4 },
        }]);
        let s = FaultSchedule::build(&plan, &mesh).unwrap();
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.first_fault_cycle, 50);
        let map = s.epochs[0].map.as_ref().unwrap();
        assert!(!map.router_alive(4));
        assert_eq!(map.dead_router_count(), 1);
    }
}
