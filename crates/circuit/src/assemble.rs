//! Two-phase MNA assembly with structure reuse.
//!
//! The reference assembly in [`crate::dc`] walks every device and re-stamps
//! the whole Jacobian on every Newton iteration. This module splits the
//! system once per netlist into:
//!
//! * a **constant** part — resistor conductances, voltage-source incidence,
//!   gmin diagonal, and capacitor backward-Euler companion conductances —
//!   cached per `(gmin, h)` configuration and `memcpy`'d into the working
//!   value array each iteration, with the matching linear residual obtained
//!   by one sparse matrix–vector product; and
//! * a **nonlinear** part — the MOSFET entries — the only stamps that are
//!   re-evaluated per iteration, scattered through slot indices precomputed
//!   against the fixed [`CscPattern`].
//!
//! The unknown layout matches the reference kernel: `x[i-1]` is the voltage
//! of node `i` (ground excluded) followed by one branch current per voltage
//! source in insertion order.

use crate::netlist::{Device, Netlist, NodeId};
use crate::sparse::CscPattern;
use crate::stimulus::Stimulus;
use lnoc_tech::device::MosModel;
use std::sync::Arc;

/// Derivative components a MOSFET stamp can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MosDeriv {
    Gm,
    Gds,
    Gms,
    Gmb,
    Ggs,
    Ggd,
}

/// One precomputed Jacobian stamp of a MOSFET: `values[slot] += sign · deriv`.
#[derive(Debug, Clone)]
struct MosJacStamp {
    slot: usize,
    deriv: MosDeriv,
    sign: f64,
}

/// Current components a MOSFET residual stamp can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MosCurrent {
    Id,
    Igs,
    Igd,
}

/// One precomputed residual stamp: `residual[row] += sign · current`.
#[derive(Debug, Clone)]
struct MosResStamp {
    row: usize,
    current: MosCurrent,
    sign: f64,
}

/// A MOSFET with its precomputed scatter lists.
#[derive(Debug, Clone)]
struct MosEntry {
    model: Arc<MosModel>,
    w: f64,
    /// Unknown-vector indices of the four terminals (`None` = ground).
    g: Option<usize>,
    d: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    jac: Vec<MosJacStamp>,
    res: Vec<MosResStamp>,
}

/// A constant-conductance stamp (resistor or capacitor companion).
#[derive(Debug, Clone)]
struct TwoTerminalStamp {
    /// Slots for the up-to-four matrix positions (aa, ab, ba, bb).
    aa: Option<usize>,
    ab: Option<usize>,
    ba: Option<usize>,
    bb: Option<usize>,
    /// Element value: conductance (S) for resistors, capacitance (F) for
    /// capacitors (converted to `C/h` at base-build time).
    value: f64,
}

/// A voltage source's precomputed rows/slots.
#[derive(Debug, Clone)]
struct VsrcEntry {
    /// Branch-equation row.
    row: usize,
    /// Incidence slots: (pos,row), (row,pos), (neg,row), (row,neg).
    pos_row: Option<usize>,
    row_pos: Option<usize>,
    neg_row: Option<usize>,
    row_neg: Option<usize>,
    /// Stimulus snapshot (cloned so assembly never touches the netlist).
    stimulus: Stimulus,
}

/// Capacitor history bookkeeping for the companion right-hand side.
#[derive(Debug, Clone)]
struct CapRhsEntry {
    a_row: Option<usize>,
    b_row: Option<usize>,
    /// Node indices (including ground = 0) for `v_old` lookups.
    a_node: usize,
    b_node: usize,
    farads: f64,
}

/// Reusable two-phase assembler for one netlist's MNA system.
#[derive(Debug, Clone)]
pub struct Assembler {
    dim: usize,
    n_nodes: usize,
    pattern: CscPattern,
    /// Constant (linear) matrix values for the current `(gmin, h)`.
    base_values: Vec<f64>,
    /// Working matrix values: base + MOSFET stamps.
    values: Vec<f64>,
    /// Constant right-hand side for the current step: source values and
    /// capacitor history terms. Residual = A_base·x − rhs + f_nl(x).
    rhs: Vec<f64>,
    residual: Vec<f64>,
    resistors: Vec<TwoTerminalStamp>,
    capacitors: Vec<TwoTerminalStamp>,
    cap_rhs: Vec<CapRhsEntry>,
    vsources: Vec<VsrcEntry>,
    diag_slots: Vec<usize>,
    mosfets: Vec<MosEntry>,
    /// The `(gmin, h)` pair `base_values` was built for (`h = 0` ⇒ DC).
    base_key: (f64, f64),
    base_valid: bool,
}

/// Maps a node to its unknown index (ground has none).
fn unknown(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

impl Assembler {
    /// Performs the one-time symbolic analysis of a netlist: collects the
    /// fixed sparsity pattern and precomputes every stamp's value slot.
    pub fn new(nl: &Netlist) -> Self {
        let n_nodes = nl.node_count();
        let dim = (n_nodes - 1) + nl.vsource_count();
        let branch_base = n_nodes - 1;

        // --- Pass 1: collect structurally-nonzero positions.
        let mut positions: Vec<(usize, usize)> = Vec::new();
        // Diagonal: gmin needs every node-row diagonal; it also gives the
        // factorization a structurally-nonzero diagonal to prefer.
        for i in 0..(n_nodes - 1) {
            positions.push((i, i));
        }
        let push_pair =
            |positions: &mut Vec<(usize, usize)>, a: Option<usize>, b: Option<usize>| {
                if let Some(ra) = a {
                    positions.push((ra, ra));
                    if let Some(rb) = b {
                        positions.push((ra, rb));
                        positions.push((rb, ra));
                    }
                }
                if let Some(rb) = b {
                    positions.push((rb, rb));
                }
            };
        let mut branch = 0usize;
        for entry in nl.devices() {
            match &entry.device {
                Device::Resistor { a, b, .. } | Device::Capacitor { a, b, .. } => {
                    push_pair(&mut positions, unknown(*a), unknown(*b));
                }
                Device::VSource { pos, neg, .. } => {
                    let row = branch_base + branch;
                    branch += 1;
                    positions.push((row, row)); // structural anchor (value 0)
                    if let Some(rp) = unknown(*pos) {
                        positions.push((rp, row));
                        positions.push((row, rp));
                    }
                    if let Some(rn) = unknown(*neg) {
                        positions.push((rn, row));
                        positions.push((row, rn));
                    }
                }
                Device::Mosfet(m) => {
                    let (g, d, s, b) = (unknown(m.g), unknown(m.d), unknown(m.s), unknown(m.b));
                    for r in [d, s].into_iter().flatten() {
                        for col in [g, d, s, b].into_iter().flatten() {
                            positions.push((r, col));
                        }
                    }
                    // Gate tunnelling pairs (g,s) and (g,d).
                    push_pair(&mut positions, g, s);
                    push_pair(&mut positions, g, d);
                }
            }
        }
        let pattern = CscPattern::from_positions(dim, &positions);
        let slot = |r: Option<usize>, c: Option<usize>| -> Option<usize> {
            match (r, c) {
                (Some(r), Some(c)) => {
                    Some(pattern.slot(r, c).expect("position collected in pass 1"))
                }
                _ => None,
            }
        };

        // --- Pass 2: precompute slots per device.
        let mut resistors = Vec::new();
        let mut capacitors = Vec::new();
        let mut cap_rhs = Vec::new();
        let mut vsources = Vec::new();
        let mut mosfets = Vec::new();
        let mut branch = 0usize;
        for entry in nl.devices() {
            match &entry.device {
                Device::Resistor { a, b, ohms } => {
                    let (ua, ub) = (unknown(*a), unknown(*b));
                    resistors.push(TwoTerminalStamp {
                        aa: slot(ua, ua),
                        ab: slot(ua, ub),
                        ba: slot(ub, ua),
                        bb: slot(ub, ub),
                        value: 1.0 / ohms,
                    });
                }
                Device::Capacitor { a, b, farads } => {
                    if *farads == 0.0 {
                        continue;
                    }
                    let (ua, ub) = (unknown(*a), unknown(*b));
                    capacitors.push(TwoTerminalStamp {
                        aa: slot(ua, ua),
                        ab: slot(ua, ub),
                        ba: slot(ub, ua),
                        bb: slot(ub, ub),
                        value: *farads,
                    });
                    cap_rhs.push(CapRhsEntry {
                        a_row: ua,
                        b_row: ub,
                        a_node: a.index(),
                        b_node: b.index(),
                        farads: *farads,
                    });
                }
                Device::VSource { pos, neg, stimulus } => {
                    let row = branch_base + branch;
                    branch += 1;
                    let (up, un) = (unknown(*pos), unknown(*neg));
                    vsources.push(VsrcEntry {
                        row,
                        pos_row: slot(up, Some(row)),
                        row_pos: slot(Some(row), up),
                        neg_row: slot(un, Some(row)),
                        row_neg: slot(Some(row), un),
                        stimulus: stimulus.clone(),
                    });
                }
                Device::Mosfet(m) => {
                    let (g, d, s, b) = (unknown(m.g), unknown(m.d), unknown(m.s), unknown(m.b));
                    let mut jac = Vec::new();
                    let mut res = Vec::new();
                    // Channel current: drain row positive, source row
                    // negative; derivatives against all four terminals.
                    for (row, sign) in [(d, 1.0), (s, -1.0)] {
                        if let Some(r) = row {
                            res.push(MosResStamp {
                                row: r,
                                current: MosCurrent::Id,
                                sign,
                            });
                            for (col, deriv) in [
                                (g, MosDeriv::Gm),
                                (d, MosDeriv::Gds),
                                (s, MosDeriv::Gms),
                                (b, MosDeriv::Gmb),
                            ] {
                                if let Some(sl) = slot(Some(r), col) {
                                    jac.push(MosJacStamp {
                                        slot: sl,
                                        deriv,
                                        sign,
                                    });
                                }
                            }
                        }
                    }
                    // Gate tunnelling: current from gate into source/drain
                    // with conductance on the (g, s) / (g, d) blocks.
                    for (other, current, deriv) in [
                        (s, MosCurrent::Igs, MosDeriv::Ggs),
                        (d, MosCurrent::Igd, MosDeriv::Ggd),
                    ] {
                        if let Some(rg) = g {
                            res.push(MosResStamp {
                                row: rg,
                                current,
                                sign: 1.0,
                            });
                            jac.push(MosJacStamp {
                                slot: slot(Some(rg), Some(rg)).expect("diag collected"),
                                deriv,
                                sign: 1.0,
                            });
                            if let Some(sl) = slot(Some(rg), other) {
                                jac.push(MosJacStamp {
                                    slot: sl,
                                    deriv,
                                    sign: -1.0,
                                });
                            }
                        }
                        if let Some(ro) = other {
                            res.push(MosResStamp {
                                row: ro,
                                current,
                                sign: -1.0,
                            });
                            jac.push(MosJacStamp {
                                slot: slot(Some(ro), Some(ro)).expect("diag collected"),
                                deriv,
                                sign: 1.0,
                            });
                            if let Some(sl) = slot(Some(ro), g) {
                                jac.push(MosJacStamp {
                                    slot: sl,
                                    deriv,
                                    sign: -1.0,
                                });
                            }
                        }
                    }
                    mosfets.push(MosEntry {
                        model: Arc::clone(&m.model),
                        w: m.w,
                        g,
                        d,
                        s,
                        b,
                        jac,
                        res,
                    });
                }
            }
        }
        let diag_slots = (0..(n_nodes - 1))
            .map(|i| pattern.slot(i, i).expect("diagonal collected"))
            .collect();

        let nnz = pattern.nnz();
        Assembler {
            dim,
            n_nodes,
            pattern,
            base_values: vec![0.0; nnz],
            values: vec![0.0; nnz],
            rhs: vec![0.0; dim],
            residual: vec![0.0; dim],
            resistors,
            capacitors,
            cap_rhs,
            vsources,
            diag_slots,
            mosfets,
            base_key: (f64::NAN, f64::NAN),
            base_valid: false,
        }
    }

    /// System dimension (node unknowns + branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The fixed sparsity pattern.
    pub fn pattern(&self) -> &CscPattern {
        &self.pattern
    }

    /// Rebuilds the cached constant stamps for a `(gmin, h)` configuration
    /// if it changed (`h = None` ⇒ DC, capacitors open). Costs O(nnz) and
    /// runs once per gmin stage / step size, not per Newton iteration.
    pub fn set_linear_state(&mut self, gmin: f64, h: Option<f64>) {
        let key = (gmin, h.unwrap_or(0.0));
        if self.base_valid && key == self.base_key {
            return;
        }
        self.base_key = key;
        self.base_valid = true;
        let base = &mut self.base_values;
        base.fill(0.0);
        let mut stamp = |s: &TwoTerminalStamp, g: f64| {
            if let Some(sl) = s.aa {
                base[sl] += g;
            }
            if let Some(sl) = s.bb {
                base[sl] += g;
            }
            if let Some(sl) = s.ab {
                base[sl] -= g;
            }
            if let Some(sl) = s.ba {
                base[sl] -= g;
            }
        };
        for r in &self.resistors {
            stamp(r, r.value);
        }
        if let Some(h) = h {
            for c in &self.capacitors {
                stamp(c, c.value / h);
            }
        }
        for v in &self.vsources {
            if let Some(sl) = v.pos_row {
                base[sl] += 1.0;
            }
            if let Some(sl) = v.row_pos {
                base[sl] += 1.0;
            }
            if let Some(sl) = v.neg_row {
                base[sl] -= 1.0;
            }
            if let Some(sl) = v.row_neg {
                base[sl] -= 1.0;
            }
        }
        if gmin > 0.0 {
            for &sl in &self.diag_slots {
                base[sl] += gmin;
            }
        }
    }

    /// Rebuilds the constant right-hand side for one solve/step: source
    /// values at `time` (scaled by `source_scale`) and, in transient,
    /// capacitor history terms from `v_old` (node voltages including
    /// ground at index 0). Call once per step, not per iteration.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `v_old` covers all nodes when present.
    pub fn prepare_rhs(&mut self, time: f64, source_scale: f64, v_old: Option<&[f64]>) {
        self.rhs.fill(0.0);
        for v in &self.vsources {
            self.rhs[v.row] = source_scale * v.stimulus.at(time);
        }
        if let Some(v_old) = v_old {
            debug_assert!(v_old.len() >= self.n_nodes);
            let (_, h) = self.base_key;
            debug_assert!(h > 0.0, "set_linear_state with h before transient rhs");
            for c in &self.cap_rhs {
                let i_hist = (c.farads / h) * (v_old[c.a_node] - v_old[c.b_node]);
                if let Some(r) = c.a_row {
                    self.rhs[r] += i_hist;
                }
                if let Some(r) = c.b_row {
                    self.rhs[r] -= i_hist;
                }
            }
        }
    }

    /// Assembles the Jacobian values and residual at the guess `x`:
    /// constant stamps are copied in, the linear residual comes from one
    /// sparse mat-vec, and only MOSFETs are re-evaluated. Read the results
    /// through [`Assembler::values`] / [`Assembler::residual`].
    pub fn assemble(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.dim);
        self.values.copy_from_slice(&self.base_values);
        self.pattern
            .mul_vec_into(&self.base_values, x, &mut self.residual);
        for (r, rhs) in self.residual.iter_mut().zip(&self.rhs) {
            *r -= rhs;
        }

        let volt = |u: Option<usize>| -> f64 { u.map_or(0.0, |i| x[i]) };
        for m in &self.mosfets {
            let op = m
                .model
                .eval(m.w, volt(m.g), volt(m.d), volt(m.s), volt(m.b));
            for st in &m.jac {
                let d = match st.deriv {
                    MosDeriv::Gm => op.gm,
                    MosDeriv::Gds => op.gds,
                    MosDeriv::Gms => op.gms,
                    MosDeriv::Gmb => op.gmb,
                    MosDeriv::Ggs => op.g_gs,
                    MosDeriv::Ggd => op.g_gd,
                };
                self.values[st.slot] += st.sign * d;
            }
            for st in &m.res {
                let i = match st.current {
                    MosCurrent::Id => op.i_d,
                    MosCurrent::Igs => op.i_g_s,
                    MosCurrent::Igd => op.i_g_d,
                };
                self.residual[st.row] += st.sign * i;
            }
        }
    }

    /// Jacobian values from the last [`Assembler::assemble`], aligned with
    /// [`Assembler::pattern`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Residual from the last [`Assembler::assemble`].
    pub fn residual(&self) -> &[f64] {
        &self.residual
    }

    /// Replaces a voltage source's stimulus snapshot (mirrors
    /// [`Netlist::set_stimulus`] for callers that mutate sources between
    /// phases while keeping one assembler alive). Branch order follows
    /// source insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `branch` is out of range.
    pub fn set_branch_stimulus(&mut self, branch: usize, stimulus: Stimulus) {
        self.vsources[branch].stimulus = stimulus;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc;
    use crate::linear::Matrix;
    use crate::netlist::MosfetSpec;
    use crate::stimulus::Stimulus;
    use lnoc_tech::device::{Polarity, VtClass};
    use lnoc_tech::node45::Node45;
    use std::sync::Arc;

    /// Reference assembly (the seed kernel) for oracle comparison.
    fn reference(
        nl: &Netlist,
        x: &[f64],
        time: f64,
        v_old_h: Option<(&[f64], f64)>,
        gmin: f64,
    ) -> (Matrix, Vec<f64>) {
        dc::assemble_reference_system(nl, x, time, v_old_h, gmin, 1.0)
    }

    fn demo_netlist() -> Netlist {
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let pmos = Arc::new(tech.mos(Polarity::Pmos, VtClass::Nominal));
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        let mid = nl.node("mid");
        nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
        nl.vsource(
            "IN",
            inp,
            Netlist::GROUND,
            Stimulus::ramp(0.0, 1.0, 10e-12, 5e-12),
        );
        nl.resistor("R1", out, mid, 2.0e3).unwrap();
        nl.capacitor("C1", mid, Netlist::GROUND, 5e-15).unwrap();
        nl.capacitor("CZ", out, Netlist::GROUND, 0.0).unwrap();
        nl.mosfet(
            "MP",
            MosfetSpec {
                d: out,
                g: inp,
                s: vdd,
                b: vdd,
                model: pmos,
                w: 900e-9,
            },
        )
        .unwrap();
        nl.mosfet(
            "MN",
            MosfetSpec {
                d: out,
                g: inp,
                s: Netlist::GROUND,
                b: Netlist::GROUND,
                model: nmos,
                w: 450e-9,
            },
        )
        .unwrap();
        nl
    }

    fn assert_system_matches(
        asm: &mut Assembler,
        nl: &Netlist,
        x: &[f64],
        time: f64,
        v_old_h: Option<(&[f64], f64)>,
        gmin: f64,
    ) {
        asm.set_linear_state(gmin, v_old_h.map(|(_, h)| h));
        asm.prepare_rhs(time, 1.0, v_old_h.map(|(v, _)| v));
        asm.assemble(x);
        let residual = asm.residual().to_vec();
        let fast = asm.pattern().to_dense(asm.values());
        let (want_jac, want_res) = reference(nl, x, time, v_old_h, gmin);
        let n = want_res.len();
        for r in 0..n {
            assert!(
                (residual[r] - want_res[r]).abs() <= 1e-12 * (1.0 + want_res[r].abs()),
                "residual[{r}]: fast {} vs reference {}",
                residual[r],
                want_res[r]
            );
            for c in 0..n {
                assert!(
                    (fast.get(r, c) - want_jac.get(r, c)).abs()
                        <= 1e-12 * (1.0 + want_jac.get(r, c).abs()),
                    "jac[{r},{c}]: fast {} vs reference {}",
                    fast.get(r, c),
                    want_jac.get(r, c)
                );
            }
        }
    }

    #[test]
    fn matches_reference_assembly_dc() {
        let nl = demo_netlist();
        let mut asm = Assembler::new(&nl);
        let dim = asm.dim();
        let x: Vec<f64> = (0..dim).map(|i| 0.07 * i as f64 - 0.1).collect();
        assert_system_matches(&mut asm, &nl, &x, 0.0, None, 0.0);
        assert_system_matches(&mut asm, &nl, &x, 0.0, None, 1.0e-6);
    }

    #[test]
    fn matches_reference_assembly_transient() {
        let nl = demo_netlist();
        let mut asm = Assembler::new(&nl);
        let dim = asm.dim();
        let x: Vec<f64> = (0..dim).map(|i| 0.05 * (i as f64) + 0.02).collect();
        let v_old: Vec<f64> = (0..nl.node_count()).map(|i| 0.1 * i as f64).collect();
        assert_system_matches(&mut asm, &nl, &x, 12.0e-12, Some((&v_old, 0.1e-12)), 0.0);
    }

    #[test]
    fn base_rebuild_is_keyed() {
        let nl = demo_netlist();
        let mut asm = Assembler::new(&nl);
        asm.set_linear_state(1.0e-9, None);
        let snapshot = asm.base_values.clone();
        // Same key: no change. Different key: gmin disappears from diag.
        asm.set_linear_state(1.0e-9, None);
        assert_eq!(snapshot, asm.base_values);
        asm.set_linear_state(0.0, None);
        assert_ne!(snapshot, asm.base_values);
    }

    #[test]
    fn set_branch_stimulus_updates_rhs() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GROUND, Stimulus::dc(1.0));
        nl.resistor("R", a, Netlist::GROUND, 1e3).unwrap();
        let mut asm = Assembler::new(&nl);
        asm.set_linear_state(0.0, None);
        asm.prepare_rhs(0.0, 1.0, None);
        assert!((asm.rhs[1] - 1.0).abs() < 1e-15);
        asm.set_branch_stimulus(0, Stimulus::dc(2.5));
        asm.prepare_rhs(0.0, 1.0, None);
        assert!((asm.rhs[1] - 2.5).abs() < 1e-15);
    }
}
