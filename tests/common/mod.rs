//! Assertions shared by the kernel-, shard- and settlement-equivalence
//! suites.

use leakage_noc::netsim::{MeshConfig, NetworkStats};

/// Lane-cycle conservation, checked without any oracle: every router
/// accounts every measured cycle, and under gating each of its `5 · V`
/// output lanes spends every measured cycle in exactly one gating
/// bucket — busy, idle awake, asleep or waking. A lane-cycle that lazy
/// settlement bills twice, or drops, fails here even when every kernel
/// makes the same mistake. Ungated runs bill no bucket at all.
pub fn assert_lane_cycles_conserved(cfg: &MeshConfig, stats: &NetworkStats) {
    let lane_cycles = if cfg.gating.is_some() {
        5 * cfg.vcs as u64 * stats.measured_cycles
    } else {
        0
    };
    assert_eq!(stats.gating.len(), stats.router_activity.len());
    for (r, (g, a)) in stats.gating.iter().zip(&stats.router_activity).enumerate() {
        assert_eq!(
            a.cycles, stats.measured_cycles,
            "router {r} accounted {} of {} measured cycles",
            a.cycles, stats.measured_cycles
        );
        let billed = g.cycles_busy + g.cycles_idle_awake + g.cycles_asleep + g.cycles_waking;
        assert_eq!(
            billed, lane_cycles,
            "router {r} billed {billed} lane-cycles, expected {lane_cycles}: {g:?}"
        );
    }
}
