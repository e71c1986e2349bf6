//! DC operating-point analysis: Newton–Raphson on the MNA equations with
//! gmin stepping and per-iteration voltage damping.
//!
//! The same assembly kernel serves the transient engine (which adds
//! capacitor companion models); see [`crate::transient`].
//!
//! Two solve paths coexist (selected by [`NewtonOptions::solver`]):
//!
//! * the **fast engine** — a [`crate::assemble::Assembler`] that caches
//!   constant stamps and re-evaluates only MOSFETs, feeding either the
//!   dense LU (small systems) or the pattern-reusing sparse LU of
//!   [`crate::sparse`]; factors and scratch live in a [`NewtonWorkspace`]
//!   reused across Newton iterations, gmin stages and transient steps;
//! * the **reference kernel** — the original walk-every-device dense
//!   assembly, kept as the correctness oracle for property tests and as the
//!   measured baseline for the performance benches.
//!
//! The fast loop also fast-forwards exact limit cycles. Its state between
//! iterations is the unknown vector plus the sparse LU's pivot sequence,
//! so once `x` repeats bit-for-bit with no pivot search in between, every
//! later iteration replays the cycle. A `CycleDetector` finds such a
//! repeat (Brent's algorithm on the bits of `x`), and the loop then runs
//! only the `(remaining mod period)` iterations that decide where the
//! uncut loop would have stopped — the final `x`, residual and factors
//! are bit-identical, the replayed iterations are skipped.

use crate::assemble::Assembler;
use crate::error::CircuitError;
use crate::linear::{norm_inf, Matrix};
use crate::netlist::{Device, Netlist, NodeId};
use crate::sparse::{SparseLu, DENSE_SPARSE_CROSSOVER};

/// Which linear-algebra/assembly path a solve uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Fast assembler; sparse LU at or above
    /// [`DENSE_SPARSE_CROSSOVER`] unknowns, dense below. The default.
    #[default]
    Auto,
    /// Fast assembler with the dense LU regardless of size.
    Dense,
    /// Fast assembler with the sparse LU regardless of size.
    Sparse,
    /// The original full-restamp dense kernel, end to end: per-call
    /// allocation, every device re-stamped per iteration, and the seed's
    /// central-finite-difference device evaluation. Kept as the
    /// correctness oracle and as the benchmark baseline (its Jacobians
    /// are independent of the fast path's analytic gradients; the
    /// residual function — and therefore the converged solution — is
    /// identical).
    Reference,
}

/// Options controlling Newton iteration.
#[derive(Debug, Clone)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per gmin stage.
    pub max_iterations: usize,
    /// Convergence: max |Δv| across node voltages (V).
    pub v_tolerance: f64,
    /// Convergence: max KCL residual (A).
    pub i_tolerance: f64,
    /// Per-iteration clamp on node-voltage updates (V); damping that
    /// keeps the exponential device models inside float range.
    pub v_step_limit: f64,
    /// Ladder of gmin values for the homotopy (ends with the final gmin,
    /// normally 0).
    pub gmin_ladder: Vec<f64>,
    /// Assembly/linear-solver path.
    pub solver: SolverKind,
}

impl NewtonOptions {
    /// Bitwise equality of every option: two solves with such options
    /// take identical iterations.
    pub(crate) fn same_bits(&self, other: &NewtonOptions) -> bool {
        let bits = |v: f64| v.to_bits();
        self.max_iterations == other.max_iterations
            && bits(self.v_tolerance) == bits(other.v_tolerance)
            && bits(self.i_tolerance) == bits(other.i_tolerance)
            && bits(self.v_step_limit) == bits(other.v_step_limit)
            && self.gmin_ladder.len() == other.gmin_ladder.len()
            && self
                .gmin_ladder
                .iter()
                .zip(&other.gmin_ladder)
                .all(|(a, b)| bits(*a) == bits(*b))
            && self.solver == other.solver
    }
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 150,
            v_tolerance: 1.0e-7,
            i_tolerance: 1.0e-10,
            v_step_limit: 0.3,
            // A dense ladder keeps each continuation step small, which
            // matters for the regenerative (keeper) feedback loops in
            // the crossbar slices.
            gmin_ladder: vec![
                1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7, 1.0e-8, 1.0e-9, 1.0e-10, 1.0e-11,
                0.0,
            ],
            solver: SolverKind::Auto,
        }
    }
}

/// A converged operating point: node voltages and source branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// Voltage per node, indexed by [`NodeId::index`]; entry 0 (ground)
    /// is always 0.
    voltages: Vec<f64>,
    /// Current per voltage source, in branch order. Positive = flowing
    /// from the positive terminal *through the source* to the negative
    /// terminal; the current a supply delivers to the circuit is the
    /// negative of this.
    branch_currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage of a node (V).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages indexed by node index.
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Branch current of the `k`-th voltage source (see field docs for
    /// sign convention).
    pub fn branch_current(&self, k: usize) -> f64 {
        self.branch_currents[k]
    }

    /// Current delivered *into the circuit* by a voltage source
    /// (positive when the source is supplying energy), by device id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a voltage source of `nl`.
    pub fn supply_current(&self, nl: &Netlist, id: crate::netlist::DeviceId) -> f64 {
        let k = nl
            .branch_index(id)
            .expect("device is not a voltage source of this netlist");
        -self.branch_currents[k]
    }

    /// Total power delivered by all sources (W) — equals total static
    /// dissipation at the operating point.
    pub fn total_source_power(&self, nl: &Netlist) -> f64 {
        let mut total = 0.0;
        let mut k = 0;
        for entry in nl.devices() {
            if let Device::VSource { pos, neg, .. } = &entry.device {
                let v = self.voltage(*pos) - self.voltage(*neg);
                total += v * (-self.branch_currents[k]);
                k += 1;
            }
        }
        total
    }
}

/// Transient companion context threaded into the shared assembly kernel.
pub(crate) struct Companion<'a> {
    /// Node voltages at the previous accepted time point.
    pub v_old: &'a [f64],
    /// Time step (s).
    pub h: f64,
}

/// Device-evaluation flavour of the reference assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefDeviceEval {
    /// The shared analytic kernel (used when comparing stamping structure
    /// against the fast assembler, which must match it bit-for-bit).
    Analytic,
    /// The seed's central-finite-difference evaluation — what
    /// [`SolverKind::Reference`] solves with, so the baseline is the
    /// original engine end to end and independent of the analytic
    /// gradients.
    FiniteDifference,
}

/// Assembles the Jacobian and residual at guess `x`.
///
/// Layout of `x`: `x[i-1]` is the voltage of node `i` (ground excluded),
/// followed by one branch current per voltage source in insertion order.
/// `source_scale` multiplies every source value (1.0 normally; < 1
/// during source-stepping homotopy).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    nl: &Netlist,
    x: &[f64],
    time: f64,
    companion: Option<&Companion<'_>>,
    gmin: f64,
    source_scale: f64,
    eval: RefDeviceEval,
    jac: &mut Matrix,
    residual: &mut [f64],
) {
    let n_nodes = nl.node_count();
    let idx = |node: NodeId| -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    };
    let volt = |node: NodeId| -> f64 {
        if node.is_ground() {
            0.0
        } else {
            x[node.index() - 1]
        }
    };

    jac.clear();
    residual.fill(0.0);

    // gmin from every node to ground (0 disables).
    if gmin > 0.0 {
        for i in 0..(n_nodes - 1) {
            jac.add(i, i, gmin);
            residual[i] += gmin * x[i];
        }
    }

    let mut branch = 0usize;
    let branch_base = n_nodes - 1;

    for entry in nl.devices() {
        match &entry.device {
            Device::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let i = g * (volt(*a) - volt(*b));
                if let Some(ra) = idx(*a) {
                    residual[ra] += i;
                    jac.add(ra, ra, g);
                    if let Some(rb) = idx(*b) {
                        jac.add(ra, rb, -g);
                    }
                }
                if let Some(rb) = idx(*b) {
                    residual[rb] -= i;
                    jac.add(rb, rb, g);
                    if let Some(ra) = idx(*a) {
                        jac.add(rb, ra, -g);
                    }
                }
            }
            Device::Capacitor { a, b, farads } => {
                // Open in DC; backward-Euler companion in transient.
                let Some(c) = companion else { continue };
                if *farads == 0.0 {
                    continue;
                }
                let g = farads / c.h;
                let v_new = volt(*a) - volt(*b);
                let v_old = c.v_old[a.index()] - c.v_old[b.index()];
                let i = g * (v_new - v_old);
                if let Some(ra) = idx(*a) {
                    residual[ra] += i;
                    jac.add(ra, ra, g);
                    if let Some(rb) = idx(*b) {
                        jac.add(ra, rb, -g);
                    }
                }
                if let Some(rb) = idx(*b) {
                    residual[rb] -= i;
                    jac.add(rb, rb, g);
                    if let Some(ra) = idx(*a) {
                        jac.add(rb, ra, -g);
                    }
                }
            }
            Device::VSource { pos, neg, stimulus } => {
                let row = branch_base + branch;
                let i_branch = x[row];
                if let Some(rp) = idx(*pos) {
                    residual[rp] += i_branch;
                    jac.add(rp, row, 1.0);
                    jac.add(row, rp, 1.0);
                }
                if let Some(rn) = idx(*neg) {
                    residual[rn] -= i_branch;
                    jac.add(rn, row, -1.0);
                    jac.add(row, rn, -1.0);
                }
                residual[row] = volt(*pos) - volt(*neg) - source_scale * stimulus.at(time);
                branch += 1;
            }
            Device::Mosfet(m) => {
                let (vg, vd, vs, vb) = (volt(m.g), volt(m.d), volt(m.s), volt(m.b));
                let op = match eval {
                    RefDeviceEval::Analytic => m.model.eval(m.w, vg, vd, vs, vb),
                    RefDeviceEval::FiniteDifference => m.model.eval_fd(m.w, vg, vd, vs, vb),
                };

                // Channel current: enters the device at the drain,
                // leaves at the source.
                if let Some(rd) = idx(m.d) {
                    residual[rd] += op.i_d;
                    if let Some(c) = idx(m.g) {
                        jac.add(rd, c, op.gm);
                    }
                    if let Some(c) = idx(m.d) {
                        jac.add(rd, c, op.gds);
                    }
                    if let Some(c) = idx(m.s) {
                        jac.add(rd, c, op.gms);
                    }
                    if let Some(c) = idx(m.b) {
                        jac.add(rd, c, op.gmb);
                    }
                }
                if let Some(rs) = idx(m.s) {
                    residual[rs] -= op.i_d;
                    if let Some(c) = idx(m.g) {
                        jac.add(rs, c, -op.gm);
                    }
                    if let Some(c) = idx(m.d) {
                        jac.add(rs, c, -op.gds);
                    }
                    if let Some(c) = idx(m.s) {
                        jac.add(rs, c, -op.gms);
                    }
                    if let Some(c) = idx(m.b) {
                        jac.add(rs, c, -op.gmb);
                    }
                }

                // Gate tunnelling: gate → source and gate → drain.
                stamp_two_terminal_current(jac, residual, &idx, m.g, m.s, op.i_g_s, op.g_gs);
                stamp_two_terminal_current(jac, residual, &idx, m.g, m.d, op.i_g_d, op.g_gd);
            }
        }
    }
}

/// Stamps a current `i(v_a − v_b)` with conductance `g = di/d(v_a − v_b)`
/// flowing from `a` to `b`.
fn stamp_two_terminal_current(
    jac: &mut Matrix,
    residual: &mut [f64],
    idx: &dyn Fn(NodeId) -> Option<usize>,
    a: NodeId,
    b: NodeId,
    i: f64,
    g: f64,
) {
    if let Some(ra) = idx(a) {
        residual[ra] += i;
        jac.add(ra, ra, g);
        if let Some(rb) = idx(b) {
            jac.add(ra, rb, -g);
        }
    }
    if let Some(rb) = idx(b) {
        residual[rb] -= i;
        jac.add(rb, rb, g);
        if let Some(ra) = idx(a) {
            jac.add(rb, ra, -g);
        }
    }
}

/// Assembles the reference (oracle) Jacobian and residual at `x` and
/// returns them densely, using the shared analytic device kernel so
/// stamping *structure* can be compared bit-for-bit against the fast
/// assembler. (`SolverKind::Reference` solves instead with the seed's
/// finite-difference evaluation; see [`SolverKind`].) `v_old_h` supplies
/// the backward-Euler companion context for transient systems. Exposed
/// for property tests and for capturing real crossbar-slice systems in
/// benches.
pub fn assemble_reference_system(
    nl: &Netlist,
    x: &[f64],
    time: f64,
    v_old_h: Option<(&[f64], f64)>,
    gmin: f64,
    source_scale: f64,
) -> (Matrix, Vec<f64>) {
    let dim = (nl.node_count() - 1) + nl.vsource_count();
    let mut jac = Matrix::zeros(dim);
    let mut residual = vec![0.0; dim];
    let companion = v_old_h.map(|(v_old, h)| Companion { v_old, h });
    assemble(
        nl,
        x,
        time,
        companion.as_ref(),
        gmin,
        source_scale,
        RefDeviceEval::Analytic,
        &mut jac,
        &mut residual,
    );
    (jac, residual)
}

/// The linear-solver backend of a fast-path workspace.
#[derive(Debug, Clone)]
enum Backend {
    /// Dense LU on a scatter of the sparse values (small systems).
    Dense(Matrix),
    /// Pattern-reusing sparse LU (boxed: it carries factor + scratch
    /// arrays and dwarfs the dense variant's header).
    Sparse(Box<SparseLu>),
}

/// Reusable state of the fast Newton engine: the two-phase assembler, the
/// factorization backend, and solve scratch. Build once per netlist
/// structure and reuse across Newton iterations, gmin stages and transient
/// steps — nothing here allocates after construction. Cloning forks the
/// whole solver state (factors and pivot sequence included), which is how
/// transient batches continue one shared prefix into several runs.
#[derive(Debug, Clone)]
pub struct NewtonWorkspace {
    asm: Assembler,
    backend: Backend,
    dx: Vec<f64>,
    cycle: CycleDetector,
}

impl NewtonWorkspace {
    /// Builds a workspace for `nl`, choosing the backend per `kind`
    /// ([`SolverKind::Reference`] is not a fast path and is rejected).
    ///
    /// # Panics
    ///
    /// Panics when `kind` is [`SolverKind::Reference`].
    pub fn new(nl: &Netlist, kind: SolverKind) -> Self {
        let asm = Assembler::new(nl);
        let dim = asm.dim();
        let sparse = match kind {
            SolverKind::Sparse => true,
            SolverKind::Dense => false,
            SolverKind::Auto => dim >= DENSE_SPARSE_CROSSOVER,
            SolverKind::Reference => panic!("Reference solves do not use a workspace"),
        };
        let backend = if sparse {
            Backend::Sparse(Box::new(SparseLu::new(dim)))
        } else {
            Backend::Dense(Matrix::zeros(dim))
        };
        NewtonWorkspace {
            backend,
            dx: vec![0.0; dim],
            cycle: CycleDetector::new(dim),
            asm,
        }
    }

    /// Full (pivot-searching) factorizations so far: the part of the
    /// solver state that can change the bits of a Newton iteration besides
    /// `x` itself. The dense backend pivots afresh on every solve and so
    /// carries no such state (always 0).
    fn factorizations(&self) -> usize {
        match &self.backend {
            Backend::Dense(_) => 0,
            Backend::Sparse(lu) => lu.full_factorization_count(),
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.asm.dim()
    }

    /// Mirrors [`Netlist::set_stimulus`] into the assembler's snapshot for
    /// callers that keep a workspace alive across stimulus swaps. `branch`
    /// is the voltage-source insertion index.
    pub fn set_branch_stimulus(&mut self, branch: usize, stimulus: crate::stimulus::Stimulus) {
        self.asm.set_branch_stimulus(branch, stimulus);
    }
}

/// Brent cycle detection over the fast Newton loop's state.
///
/// The state after an iteration is `(x, pivot sequence)`. The detector
/// keeps a snapshot of `x` and of the full-factorization count at the
/// time it was taken; a later `x` equal to the snapshot bit-for-bit, with
/// the count unchanged (so no pivot search happened in between), proves
/// the loop entered a cycle whose period is the distance to the snapshot.
/// The snapshot moves forward at power-of-two distances, so a cycle of
/// period λ entered after μ iterations is found within O(μ + λ)
/// iterations.
#[derive(Debug, Clone)]
struct CycleDetector {
    snapshot: Vec<f64>,
    factorizations: usize,
    /// Iterations since the snapshot.
    distance: usize,
    /// Distance at which the snapshot moves forward.
    power: usize,
    armed: bool,
}

impl CycleDetector {
    fn new(dim: usize) -> Self {
        CycleDetector {
            snapshot: vec![0.0; dim],
            factorizations: 0,
            distance: 0,
            power: 1,
            armed: false,
        }
    }

    /// Forgets the snapshot (a new Newton call starts a new trajectory).
    fn reset(&mut self) {
        self.armed = false;
    }

    /// Records the state after one iteration; returns the cycle period
    /// when `x` repeats the snapshot under the same pivot sequence.
    fn observe(&mut self, x: &[f64], factorizations: usize) -> Option<usize> {
        if self.armed && factorizations == self.factorizations {
            self.distance += 1;
            if x.iter()
                .zip(&self.snapshot)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                return Some(self.distance);
            }
            if self.distance < self.power {
                return None;
            }
            self.power *= 2;
        } else {
            // First observation, or a pivot search changed the state
            // space: restart from here.
            self.power = 1;
            self.armed = true;
        }
        self.snapshot.copy_from_slice(x);
        self.factorizations = factorizations;
        self.distance = 0;
        None
    }
}

/// Either the fast workspace-backed engine or the reference kernel.
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    /// Original dense full-restamp kernel.
    Reference,
    /// Fast two-phase assembler + reusable factorization.
    Fast(Box<NewtonWorkspace>),
}

impl Engine {
    pub(crate) fn new(nl: &Netlist, kind: SolverKind) -> Self {
        match kind {
            SolverKind::Reference => Engine::Reference,
            kind => Engine::Fast(Box::new(NewtonWorkspace::new(nl, kind))),
        }
    }

    /// `true` for the frozen seed kernel (which also opts out of the
    /// transient predictor, so baseline measurements reflect the original
    /// engine end to end).
    pub(crate) fn is_reference(&self) -> bool {
        matches!(self, Engine::Reference)
    }

    /// Points the engine's source snapshot at `nl`'s stimuli (same
    /// structure as the netlist the engine was built for). The reference
    /// kernel reads stimuli from the netlist it is handed and needs no
    /// snapshot.
    pub(crate) fn sync_stimuli(&mut self, nl: &Netlist) {
        let Engine::Fast(ws) = self else { return };
        for (branch, stimulus) in nl.stimuli().enumerate() {
            ws.set_branch_stimulus(branch, stimulus.clone());
        }
    }
}

/// Damped Newton through whichever engine is selected.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_with_engine(
    nl: &Netlist,
    engine: &mut Engine,
    x: &mut [f64],
    time: f64,
    companion: Option<&Companion<'_>>,
    gmin: f64,
    source_scale: f64,
    opts: &NewtonOptions,
) -> Result<f64, CircuitError> {
    match engine {
        Engine::Reference => newton_scaled(nl, x, time, companion, gmin, source_scale, opts),
        Engine::Fast(ws) => newton_fast(nl, ws, x, time, companion, gmin, source_scale, opts),
    }
}

/// The fast Newton loop: memcpy'd constant stamps + MOSFET-only restamping
/// per iteration, factorization state reused across iterations, and exact
/// limit cycles fast-forwarded (see [`CycleDetector`]): on a repeat of
/// period λ only `remaining mod λ` more iterations run, which leaves `x`,
/// `dx`, the assembled system, the factors and the reported residual
/// exactly where the uncut loop would.
#[allow(clippy::too_many_arguments)]
fn newton_fast(
    nl: &Netlist,
    ws: &mut NewtonWorkspace,
    x: &mut [f64],
    time: f64,
    companion: Option<&Companion<'_>>,
    gmin: f64,
    source_scale: f64,
    opts: &NewtonOptions,
) -> Result<f64, CircuitError> {
    let n_nodes = nl.node_count();
    debug_assert_eq!(x.len(), ws.asm.dim());
    ws.asm.set_linear_state(gmin, companion.map(|c| c.h));
    ws.asm
        .prepare_rhs(time, source_scale, companion.map(|c| c.v_old));

    ws.cycle.reset();
    let mut last_residual = f64::INFINITY;
    let mut remaining = opts.max_iterations;
    while remaining > 0 {
        remaining -= 1;
        ws.asm.assemble(x);
        let residual = ws.asm.residual();
        for (d, r) in ws.dx.iter_mut().zip(residual) {
            *d = -r;
        }
        match &mut ws.backend {
            Backend::Dense(m) => {
                scatter_dense(&ws.asm, m);
                m.solve_in_place(&mut ws.dx)?;
            }
            Backend::Sparse(lu) => {
                lu.refactorize(ws.asm.pattern(), ws.asm.values())?;
                lu.solve_in_place(&mut ws.dx);
            }
        }

        // Damp voltage updates (branch currents move freely).
        let mut max_dv = 0.0_f64;
        for (i, d) in ws.dx.iter_mut().enumerate() {
            if i < n_nodes - 1 {
                *d = d.clamp(-opts.v_step_limit, opts.v_step_limit);
                max_dv = max_dv.max(d.abs());
            }
            x[i] += *d;
        }

        last_residual = norm_inf(&ws.asm.residual()[..n_nodes - 1]);
        if max_dv < opts.v_tolerance && last_residual < opts.i_tolerance {
            return Ok(last_residual);
        }
        // A later repeat is again a multiple of the period, so it leaves
        // the cut `remaining < period` as is.
        if let Some(period) = ws.cycle.observe(x, ws.factorizations()) {
            remaining %= period;
        }
    }
    Err(CircuitError::NoConvergence {
        analysis: if companion.is_some() {
            "transient"
        } else {
            "dc"
        },
        time,
        residual: last_residual,
    })
}

/// Scatters the assembler's sparse values into the dense backend matrix.
fn scatter_dense(asm: &Assembler, m: &mut Matrix) {
    m.clear();
    let pattern = asm.pattern();
    let values = asm.values();
    for col in 0..pattern.dim() {
        let range = pattern.col_range(col);
        let rows = pattern.col_rows(col);
        for (off, slot) in range.enumerate() {
            m.add(rows[off], col, values[slot]);
        }
    }
}

/// Reference damped Newton with an explicit source scale: allocates its
/// system per call and re-stamps every device per iteration (the seed
/// behaviour, kept as oracle and benchmark baseline).
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_scaled(
    nl: &Netlist,
    x: &mut [f64],
    time: f64,
    companion: Option<&Companion<'_>>,
    gmin: f64,
    source_scale: f64,
    opts: &NewtonOptions,
) -> Result<f64, CircuitError> {
    let n_nodes = nl.node_count();
    let dim = (n_nodes - 1) + nl.vsource_count();
    debug_assert_eq!(x.len(), dim);
    let mut jac = Matrix::zeros(dim);
    let mut residual = vec![0.0; dim];

    let mut last_residual = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        assemble(
            nl,
            x,
            time,
            companion,
            gmin,
            source_scale,
            RefDeviceEval::FiniteDifference,
            &mut jac,
            &mut residual,
        );
        // Newton step: J·dx = −F.
        let mut dx: Vec<f64> = residual.iter().map(|r| -r).collect();
        jac.solve_in_place(&mut dx)?;

        // Damp voltage updates.
        let mut max_dv = 0.0_f64;
        for (i, d) in dx.iter_mut().enumerate() {
            if i < n_nodes - 1 {
                *d = d.clamp(-opts.v_step_limit, opts.v_step_limit);
                max_dv = max_dv.max(d.abs());
            }
            x[i] += *d;
        }

        last_residual = norm_inf(&residual[..n_nodes - 1]);
        if max_dv < opts.v_tolerance && last_residual < opts.i_tolerance {
            return Ok(last_residual);
        }
    }
    Err(CircuitError::NoConvergence {
        analysis: if companion.is_some() {
            "transient"
        } else {
            "dc"
        },
        time,
        residual: last_residual,
    })
}

/// Solves the DC operating point with default options.
///
/// # Errors
///
/// Returns [`CircuitError::NoConvergence`] if Newton fails on every gmin
/// stage, or [`CircuitError::SingularMatrix`] for structurally defective
/// circuits (e.g. a floating sub-network with no DC path at all).
pub fn solve(nl: &Netlist) -> Result<DcSolution, CircuitError> {
    solve_with(nl, &NewtonOptions::default(), None)
}

/// Solves the DC operating point with explicit options and an optional
/// warm start (a previous solution's raw unknown vector).
pub fn solve_with(
    nl: &Netlist,
    opts: &NewtonOptions,
    warm_start: Option<&[f64]>,
) -> Result<DcSolution, CircuitError> {
    let mut engine = Engine::new(nl, opts.solver);
    solve_with_engine(nl, &mut engine, opts, warm_start)
}

/// [`solve_with`] on an existing engine (the transient loop shares one
/// engine between its initial operating point and its time steps).
pub(crate) fn solve_with_engine(
    nl: &Netlist,
    engine: &mut Engine,
    opts: &NewtonOptions,
    warm_start: Option<&[f64]>,
) -> Result<DcSolution, CircuitError> {
    match gmin_ladder_solve(nl, engine, opts, warm_start) {
        Ok(sol) => Ok(sol),
        // Last-resort homotopy: ramp all sources from zero.
        Err(first_err) => source_stepping_solve(nl, engine, opts).map_err(|_| first_err),
    }
}

/// Primary strategy: gmin continuation with damped retries per stage.
fn gmin_ladder_solve(
    nl: &Netlist,
    engine: &mut Engine,
    opts: &NewtonOptions,
    warm_start: Option<&[f64]>,
) -> Result<DcSolution, CircuitError> {
    let dim = (nl.node_count() - 1) + nl.vsource_count();
    let mut x = vec![0.0; dim];
    if let Some(ws) = warm_start {
        x.copy_from_slice(ws);
        // A warm start is already near a solution branch; entering the
        // gmin ladder would drag bistable nodes toward mid-rail and can
        // hop to the wrong branch. Try plain Newton first.
        if newton_with_engine(nl, engine, &mut x, 0.0, None, 0.0, 1.0, opts).is_ok() {
            return Ok(pack_solution(nl, &x));
        }
        x.copy_from_slice(ws);
    }

    for &gmin in &opts.gmin_ladder {
        let stage_start = x.clone();
        let mut step = opts.v_step_limit;
        let mut iters = opts.max_iterations;
        let mut last_err = None;
        let mut converged = false;
        // Positive-feedback structures (level-restoring keepers) can make
        // Newton limit-cycle, and a warm start from the previous gmin
        // stage can sit near the *unstable* equilibrium of a bistable
        // loop. Retry with heavier damping, then from a cold start.
        for attempt in 0..6 {
            let attempt_opts = NewtonOptions {
                v_step_limit: step,
                max_iterations: iters,
                ..opts.clone()
            };
            match newton_with_engine(nl, engine, &mut x, 0.0, None, gmin, 1.0, &attempt_opts) {
                Ok(_) => {
                    converged = true;
                    break;
                }
                Err(e) => {
                    last_err = Some(e);
                    if attempt < 2 {
                        x.copy_from_slice(&stage_start);
                        step *= 0.35;
                    } else {
                        // Cold restart escapes the unstable branch.
                        x.fill(0.0);
                        step = opts.v_step_limit * 0.5_f64.powi(attempt - 2);
                    }
                    iters *= 2;
                }
            }
        }
        if !converged {
            return Err(last_err.expect("attempt loop ran at least once"));
        }
    }
    Ok(pack_solution(nl, &x))
}

/// Fallback strategy: ramp every source value from 0 to its target while
/// holding a small gmin, then release the gmin. Follows a continuous
/// solution branch, which handles bistable keeper loops that defeat the
/// gmin ladder.
fn source_stepping_solve(
    nl: &Netlist,
    engine: &mut Engine,
    opts: &NewtonOptions,
) -> Result<DcSolution, CircuitError> {
    let dim = (nl.node_count() - 1) + nl.vsource_count();
    let mut x = vec![0.0; dim];
    let step_opts = NewtonOptions {
        max_iterations: 2 * opts.max_iterations,
        v_step_limit: 0.5 * opts.v_step_limit,
        ..opts.clone()
    };
    let steps = 25;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        newton_with_engine(nl, engine, &mut x, 0.0, None, 1.0e-9, scale, &step_opts)?;
    }
    // Release the residual gmin.
    for gmin in [1.0e-10, 1.0e-11, 1.0e-12, 0.0] {
        newton_with_engine(nl, engine, &mut x, 0.0, None, gmin, 1.0, &step_opts)?;
    }
    Ok(pack_solution(nl, &x))
}

/// Splits the raw unknown vector into the public solution type.
pub(crate) fn pack_solution(nl: &Netlist, x: &[f64]) -> DcSolution {
    let n_nodes = nl.node_count();
    let mut voltages = vec![0.0; n_nodes];
    voltages[1..n_nodes].copy_from_slice(&x[..n_nodes - 1]);
    let branch_currents = x[n_nodes - 1..].to_vec();
    DcSolution {
        voltages,
        branch_currents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosfetSpec;
    use crate::stimulus::Stimulus;
    use lnoc_tech::device::{Polarity, VtClass};
    use lnoc_tech::node45::Node45;
    use std::sync::Arc;

    #[test]
    fn resistor_divider() {
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let mid = nl.node("mid");
        nl.vsource("V", top, Netlist::GROUND, Stimulus::dc(2.0));
        nl.resistor("R1", top, mid, 1.0e3).unwrap();
        nl.resistor("R2", mid, Netlist::GROUND, 3.0e3).unwrap();
        let sol = solve(&nl).unwrap();
        assert!((sol.voltage(mid) - 1.5).abs() < 1e-9);
        // Source supplies V/(R1+R2) = 0.5 mA.
        assert!((sol.branch_current(0) + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn source_power_matches_dissipation() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GROUND, Stimulus::dc(1.0));
        nl.resistor("R", a, Netlist::GROUND, 2.0e3).unwrap();
        let sol = solve(&nl).unwrap();
        assert!((sol.total_source_power(&nl) - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let pmos = Arc::new(tech.mos(Polarity::Pmos, VtClass::Nominal));
        let build = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let inp = nl.node("in");
            let out = nl.node("out");
            nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
            nl.vsource("IN", inp, Netlist::GROUND, Stimulus::dc(vin));
            nl.mosfet(
                "MP",
                MosfetSpec {
                    d: out,
                    g: inp,
                    s: vdd,
                    b: vdd,
                    model: Arc::clone(&pmos),
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
                    model: Arc::clone(&nmos),
                    w: 450e-9,
                },
            )
            .unwrap();
            nl
        };
        let lo = build(0.0);
        let sol = solve(&lo).unwrap();
        let out = lo.find_node("out").unwrap();
        assert!(
            sol.voltage(out) > 0.95,
            "Vin=0 ⇒ out high, got {}",
            sol.voltage(out)
        );

        let hi = build(1.0);
        let sol = solve(&hi).unwrap();
        let out = hi.find_node("out").unwrap();
        assert!(
            sol.voltage(out) < 0.05,
            "Vin=1 ⇒ out low, got {}",
            sol.voltage(out)
        );
    }

    #[test]
    fn inverter_leakage_current_flows_from_supply() {
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let pmos = Arc::new(tech.mos(Polarity::Pmos, VtClass::Nominal));
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        let dd = nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
        nl.vsource("IN", inp, Netlist::GROUND, Stimulus::dc(0.0));
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
        let sol = solve(&nl).unwrap();
        let i_dd = sol.supply_current(&nl, dd);
        // Input low: NMOS off but subthreshold-leaking; the supply must
        // deliver a small positive current.
        assert!(i_dd > 1e-12, "leakage {i_dd}");
        assert!(i_dd < 1e-5, "leakage {i_dd} suspiciously large");
    }

    #[test]
    fn pass_transistor_drops_a_threshold() {
        // NMOS pass gate passing a high level loses ~Vth: classic
        // behaviour the DPC scheme exploits.
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let mut nl = Netlist::new();
        let src = nl.node("src");
        let gate = nl.node("gate");
        let out = nl.node("out");
        nl.vsource("S", src, Netlist::GROUND, Stimulus::dc(1.0));
        nl.vsource("G", gate, Netlist::GROUND, Stimulus::dc(1.0));
        nl.mosfet(
            "MPASS",
            MosfetSpec {
                d: src,
                g: gate,
                s: out,
                b: Netlist::GROUND,
                model: nmos,
                w: 450e-9,
            },
        )
        .unwrap();
        // Tiny load keeping the output defined.
        nl.resistor("RL", out, Netlist::GROUND, 1.0e9).unwrap();
        let sol = solve(&nl).unwrap();
        let v_out = sol.voltage(out);
        assert!(
            (0.4..0.95).contains(&v_out),
            "pass gate output should sit a threshold below Vdd, got {v_out}"
        );
    }

    /// A cross-coupled inverter pair with strong pull-downs: from a cold
    /// start, plain Newton at gmin 0 falls into an exact period-2 limit
    /// cycle (after 4–5 iterations, under the first pivot sequence)
    /// instead of converging.
    fn limit_cycling_latch() -> Netlist {
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let pmos = Arc::new(tech.mos(Polarity::Pmos, VtClass::High));
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let q = nl.node("q");
        let qb = nl.node("qb");
        nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
        for (name, input, output, w_n) in [("1", q, qb, 900e-9), ("2", qb, q, 2700e-9)] {
            let pull_up = MosfetSpec {
                d: output,
                g: input,
                s: vdd,
                b: vdd,
                model: Arc::clone(&pmos),
                w: 100e-9,
            };
            let pull_down = MosfetSpec {
                d: output,
                g: input,
                s: Netlist::GROUND,
                b: Netlist::GROUND,
                model: Arc::clone(&nmos),
                w: w_n,
            };
            nl.mosfet(&format!("P{name}"), pull_up).unwrap();
            nl.mosfet(&format!("N{name}"), pull_down).unwrap();
        }
        nl
    }

    /// Bits of everything a Newton call leaves behind: `x`, the
    /// reported residual, the last update and the pivot-search count.
    type NewtonEnd = (Vec<u64>, u64, Vec<u64>, usize);

    fn newton_end(ws: &NewtonWorkspace, x: &[f64], r: Result<f64, CircuitError>) -> NewtonEnd {
        let residual = match r {
            Err(CircuitError::NoConvergence { residual, .. }) => residual.to_bits(),
            other => panic!("the latch must not converge: {other:?}"),
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (bits(x), residual, bits(&ws.dx), ws.factorizations())
    }

    /// `cap` single-iteration calls: the uncut loop, which cannot
    /// fast-forward (a call with cap 1 never sees a repeat). Also
    /// returns the trajectory's first repeat as `(start, period)`.
    fn uncut(nl: &Netlist, kind: SolverKind, cap: usize) -> (NewtonEnd, Option<(usize, usize)>) {
        let mut ws = NewtonWorkspace::new(nl, kind);
        let mut x = vec![0.0; ws.dim()];
        let one = NewtonOptions {
            max_iterations: 1,
            ..NewtonOptions::default()
        };
        let mut seen: Vec<(Vec<u64>, usize)> = Vec::new();
        let mut repeat = None;
        let mut last = None;
        for it in 0..cap {
            last = Some(newton_fast(nl, &mut ws, &mut x, 0.0, None, 0.0, 1.0, &one));
            let state = (x.iter().map(|v| v.to_bits()).collect(), ws.factorizations());
            if repeat.is_none() {
                if let Some(j) = seen.iter().position(|s| *s == state) {
                    repeat = Some((j, it - j));
                }
                seen.push(state);
            }
        }
        let end = newton_end(&ws, &x, last.expect("cap ≥ 1"));
        (end, repeat)
    }

    /// One call with cap `cap`, free to fast-forward.
    fn fast(nl: &Netlist, kind: SolverKind, cap: usize) -> NewtonEnd {
        let mut ws = NewtonWorkspace::new(nl, kind);
        let mut x = vec![0.0; ws.dim()];
        let opts = NewtonOptions {
            max_iterations: cap,
            ..NewtonOptions::default()
        };
        let r = newton_fast(nl, &mut ws, &mut x, 0.0, None, 0.0, 1.0, &opts);
        newton_end(&ws, &x, r)
    }

    #[test]
    fn cycle_fast_forward_matches_the_uncut_loop() {
        let nl = limit_cycling_latch();
        for kind in [SolverKind::Sparse, SolverKind::Dense] {
            let (_, repeat) = uncut(&nl, kind, 400);
            let (start, period) = repeat.expect("the latch limit-cycles");
            assert!(
                period >= 2,
                "{kind:?}: a period-1 cycle would be a fixed point"
            );
            // Every remainder of the cycle, before and after it is
            // entered, and the gmin ladder's first two caps.
            let caps = (1..start + 3 * period + 2).chain([300, 301, 600]);
            for cap in caps {
                let (want, _) = uncut(&nl, kind, cap);
                assert_eq!(fast(&nl, kind, cap), want, "{kind:?}, cap {cap}");
            }
            // A cap far beyond reach of the uncut loop ends where the
            // cycle puts it: the same state as the uncut loop at any cap
            // congruent to it modulo the period past the cycle start.
            let huge = 1_000_000_007;
            let same_phase = start + period + (huge - start) % period;
            let (want, _) = uncut(&nl, kind, same_phase);
            assert_eq!(fast(&nl, kind, huge), want, "{kind:?}, cap {huge}");
        }
    }

    #[test]
    fn cycle_detector_needs_bitwise_repeats_under_one_pivot_sequence() {
        let mut d = CycleDetector::new(1);
        // x alternates 1, 2: found once the snapshot sits in the cycle.
        assert_eq!(d.observe(&[1.0], 0), None);
        assert_eq!(d.observe(&[2.0], 0), None);
        assert_eq!(d.observe(&[1.0], 0), None);
        assert_eq!(d.observe(&[2.0], 0), Some(2));
        // A pivot search between two visits voids the repeat.
        d.reset();
        assert_eq!(d.observe(&[1.0], 0), None);
        assert_eq!(d.observe(&[1.0], 1), None);
        assert_eq!(d.observe(&[1.0], 1), Some(1));
        // Equal values with different bits are different states.
        d.reset();
        assert_eq!(d.observe(&[0.0], 0), None);
        assert_eq!(d.observe(&[-0.0], 0), None);
    }

    #[test]
    fn no_convergence_is_reported_not_hung() {
        // A voltage loop: two sources forcing different voltages on the
        // same node pair is singular.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, Stimulus::dc(1.0));
        nl.vsource("V2", a, Netlist::GROUND, Stimulus::dc(2.0));
        assert!(solve(&nl).is_err());
    }
}
