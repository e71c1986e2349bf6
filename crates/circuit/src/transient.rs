//! Transient analysis: backward-Euler time stepping on the shared Newton
//! kernel.
//!
//! Backward Euler is L-stable and non-oscillatory, which suits digital
//! switching waveforms: the cost is mild numerical damping, which shifts
//! absolute delays by a fraction of the step size — so the default step
//! is chosen ≪ the measured delays (0.1 ps against 50–65 ps paper-scale
//! delays), and Table 1 comparisons are ratio-based anyway.
//!
//! Runs are submitted as batches ([`run_batch`]; [`run`] is a batch of
//! one). Jobs on the same circuit with the same step parameters whose
//! source stimuli agree bit for bit over an initial stretch
//! ([`Stimulus::agrees_until`](crate::stimulus::Stimulus::agrees_until))
//! step that stretch once — initial operating point included — and fork
//! the whole integration state where they diverge. Every step is a pure
//! function of that state and of the source values at its evaluation
//! times, so each job's result is bit-identical to running it alone.

use crate::dc::{self, Companion, NewtonOptions};
use crate::error::CircuitError;
use crate::netlist::{Device, DeviceId, Netlist, NodeId};
use crate::waveform::Waveform;
use std::sync::Arc;

/// Bisection levels a stalled step may split into (see `advance_step`).
const MAX_BISECTION_DEPTH: u32 = 4;

/// Bytes per sample-storage block. Every block of every result has this
/// size, so the blocks a finished run frees are reused as-is by the next
/// run, whatever its circuit.
const BLOCK_BYTES: usize = 64 * 1024;

/// Specification of a transient run.
#[derive(Debug, Clone)]
pub struct TransientSpec {
    /// Stop time (s).
    pub t_stop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// Record every `record_stride`-th step (1 = all).
    pub record_stride: usize,
    /// Newton options for each step.
    pub newton: NewtonOptions,
}

impl TransientSpec {
    /// A spec with the default Newton options and full recording.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientSpec {
            t_stop,
            dt,
            record_stride: 1,
            newton: NewtonOptions {
                // Transient steps start from the previous solution, so a
                // tighter leash converges fast and robustly.
                max_iterations: 60,
                ..NewtonOptions::default()
            },
        }
    }

    /// Number of fixed steps to `t_stop`.
    fn steps(&self) -> usize {
        (self.t_stop / self.dt).ceil() as usize
    }
}

/// One recorded sample: its time, every node voltage (ground included)
/// and every branch current.
type Sample<'r> = (f64, &'r [f64], &'r [f64]);

/// Result of a transient run: every recorded sample of every node and
/// branch. Samples are stored as rows `[t, node voltages…, branch
/// currents…]` in fixed-size blocks; runs of a batch that shared a
/// prefix share its blocks by reference.
#[derive(Debug, Clone)]
pub struct TransientResult {
    n_nodes: usize,
    n_branches: usize,
    /// Row blocks, oldest first. Only the last may grow, and only while
    /// no other result shares it.
    blocks: Vec<Arc<Vec<f64>>>,
}

impl TransientResult {
    fn new(n_nodes: usize, n_branches: usize) -> Self {
        TransientResult {
            n_nodes,
            n_branches,
            blocks: Vec::new(),
        }
    }

    /// Floats per sample row.
    fn row_width(&self) -> usize {
        1 + self.n_nodes + self.n_branches
    }

    /// Number of recorded samples.
    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len() / self.row_width()).sum()
    }

    /// Time points of the recorded samples.
    pub fn times(&self) -> Vec<f64> {
        self.column(|(t, _, _)| t)
    }

    /// One value per recorded sample, in time order.
    fn column(&self, value: impl Fn(Sample<'_>) -> f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.samples().map(value));
        out
    }

    /// Every recorded sample in time order.
    fn samples(&self) -> impl Iterator<Item = Sample<'_>> + '_ {
        let width = self.row_width();
        self.blocks
            .iter()
            .flat_map(move |b| b.chunks_exact(width))
            .map(|row| {
                let (nodes, branches) = row[1..].split_at(self.n_nodes);
                (row[0], nodes, branches)
            })
    }

    /// Appends one sample row.
    fn push(&mut self, t: f64, nodes: &[f64], branches: &[f64]) {
        let width = self.row_width();
        let has_room = matches!(
            self.blocks.last_mut().and_then(Arc::get_mut),
            Some(b) if b.len() + width <= b.capacity()
        );
        if !has_room {
            let rows = (BLOCK_BYTES / (8 * width)).max(1);
            self.blocks.push(Arc::new(Vec::with_capacity(rows * width)));
        }
        let block = self
            .blocks
            .last_mut()
            .and_then(Arc::get_mut)
            .expect("a fresh or unshared block");
        block.push(t);
        block.extend_from_slice(nodes);
        block.extend_from_slice(branches);
    }

    /// A waveform of one value per sample.
    fn waveform(&self, value: impl Fn(Sample<'_>) -> f64) -> Waveform {
        Waveform::new(self.times(), self.column(value))
    }

    /// Voltage waveform of a node.
    pub fn voltage(&self, node: NodeId) -> Waveform {
        self.waveform(|(_, v, _)| v[node.index()])
    }

    /// Branch-current waveform of the `k`-th voltage source (current
    /// through the source from + to −; supply delivery is its negative).
    pub fn branch_current(&self, k: usize) -> Waveform {
        self.waveform(|(_, _, i)| i[k])
    }

    /// Current a voltage source delivers into the circuit, by device id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a voltage source of `nl`.
    pub fn supply_current(&self, nl: &Netlist, id: DeviceId) -> Waveform {
        let k = nl
            .branch_index(id)
            .expect("device is not a voltage source of this netlist");
        self.waveform(|(_, _, i)| -i[k])
    }

    /// Energy delivered by a source over `[from, to]` (J): ∫ v·i dt with
    /// `i` the delivered current.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a voltage source of `nl`.
    pub fn supply_energy(&self, nl: &Netlist, id: DeviceId, from: f64, to: f64) -> f64 {
        let k = nl
            .branch_index(id)
            .expect("device is not a voltage source of this netlist");
        let Device::VSource { pos, neg, .. } = &nl.device(id).device else {
            unreachable!("branch_index succeeded, so this is a vsource");
        };
        let (pos, neg) = (pos.index(), neg.index());
        // Time and power at each recorded sample.
        let mut power = self
            .samples()
            .map(|(t, v, i)| (t, (v[pos] - v[neg]) * -i[k]));
        let Some((mut t0, mut p0)) = power.next() else {
            return 0.0;
        };
        let mut acc = 0.0;
        for (t1, p1) in power {
            if !(t1 <= from || t0 >= to) {
                let a = t0.max(from);
                let b = t1.min(to);
                // Linear interpolation of power onto [a, b].
                let lerp = |t: f64| {
                    if t1 == t0 {
                        p1
                    } else {
                        p0 + (p1 - p0) * (t - t0) / (t1 - t0)
                    }
                };
                acc += 0.5 * (lerp(a) + lerp(b)) * (b - a);
            }
            (t0, p0) = (t1, p1);
        }
        acc
    }

    /// The final sample as a flat unknown vector, usable as a warm start.
    ///
    /// # Panics
    ///
    /// Panics if the result holds no samples (never happens for results
    /// returned by [`run`] / [`run_from`]).
    pub fn final_state(&self, nl: &Netlist) -> Vec<f64> {
        let n_nodes = nl.node_count();
        assert_eq!(n_nodes, self.n_nodes, "result belongs to another netlist");
        let (_, v, i) = self.samples().last().expect("at least one sample");
        let mut x = Vec::with_capacity(n_nodes - 1 + self.n_branches);
        x.extend_from_slice(&v[1..]);
        x.extend_from_slice(i);
        x
    }
}

/// One run of a batch: a circuit and its transient spec.
#[derive(Debug, Clone, Copy)]
pub struct TransientJob<'a> {
    /// The circuit, sources included.
    pub netlist: &'a Netlist,
    /// Stop time, step and solver options.
    pub spec: &'a TransientSpec,
}

impl TransientJob<'_> {
    /// Whether the two jobs may share steps at all: the same circuit up to
    /// source stimuli, the same step, recording stride and Newton options.
    fn compatible(&self, other: &TransientJob<'_>) -> bool {
        self.spec.dt.to_bits() == other.spec.dt.to_bits()
            && self.spec.record_stride == other.spec.record_stride
            && self.spec.newton.same_bits(&other.spec.newton)
            && self.netlist.same_circuit_except_stimuli(other.netlist)
    }

    /// The latest time up to which every source of the two (compatible)
    /// jobs agrees bit for bit.
    fn agreement(&self, other: &TransientJob<'_>) -> f64 {
        self.netlist
            .stimuli()
            .zip(other.netlist.stimuli())
            .map(|(a, b)| a.agrees_until(b))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs a transient analysis: DC operating point at `t = 0` (sources at
/// their initial values) followed by fixed-step backward-Euler
/// integration.
///
/// # Errors
///
/// Propagates DC/Newton convergence failures with the failing time
/// attached.
pub fn run(nl: &Netlist, spec: &TransientSpec) -> Result<TransientResult, CircuitError> {
    let mut out = None;
    run_batch(&[TransientJob { netlist: nl, spec }], |_, r| out = Some(r));
    out.expect("a batch delivers every job")
}

/// Runs a transient analysis from an explicit initial operating point
/// (e.g. the settled end state of a previous phase).
///
/// # Errors
///
/// Propagates Newton convergence failures.
pub fn run_from(
    nl: &Netlist,
    spec: &TransientSpec,
    initial: &dc::DcSolution,
) -> Result<TransientResult, CircuitError> {
    let jobs = [TransientJob { netlist: nl, spec }];
    let mut out = None;
    let engine = dc::Engine::new(nl, spec.newton.solver);
    let stepper = Stepper::new(engine, 0, nl, initial);
    Batch::new(&jobs, |_, r| out = Some(r)).run_group(vec![0], stepper);
    out.expect("a batch delivers every job")
}

/// Runs several transient analyses, stepping shared prefixes once.
///
/// Jobs whose netlists differ only in source stimuli and whose specs
/// agree on `dt`, `record_stride` and `newton` (`t_stop` may differ) are
/// grouped. A group solves one initial operating point and steps together
/// while every step's evaluation times — bisection sub-steps included —
/// lie where all its stimuli agree
/// ([`Stimulus::agrees_until`](crate::stimulus::Stimulus::agrees_until));
/// at a divergence the integration state (unknowns, predictor and
/// companion history, solver factors, recorded samples) forks. Each job's
/// result or error is bit-identical to [`run`] on that job alone.
///
/// `deliver(i, result)` receives job `i`'s outcome as soon as it is
/// known, depth-first through the forks — not in submission order. A
/// shared prefix's samples are shared by reference, so memory peaks at
/// about one result rather than one per job.
pub fn run_batch(
    jobs: &[TransientJob<'_>],
    deliver: impl FnMut(usize, Result<TransientResult, CircuitError>),
) {
    let mut batch = Batch::new(jobs, deliver);
    // Jobs that may share steps at all, in first-appearance order.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match classes.iter_mut().find(|c| jobs[c[0]].compatible(job)) {
            Some(class) => class.push(i),
            None => classes.push(vec![i]),
        }
    }
    for class in classes {
        // The initial operating point evaluates every source at t = 0.
        for group in batch.split(class, |agreed| agreed >= 0.0) {
            batch.run_initial(group);
        }
    }
}

/// A batch in flight: the jobs, the result sink and the step scratch.
struct Batch<'j, 'a, F> {
    jobs: &'j [TransientJob<'a>],
    deliver: F,
    scratch: Scratch,
}

impl<'j, 'a, F> Batch<'j, 'a, F>
where
    F: FnMut(usize, Result<TransientResult, CircuitError>),
{
    fn new(jobs: &'j [TransientJob<'a>], deliver: F) -> Self {
        Batch {
            jobs,
            deliver,
            scratch: Scratch::default(),
        }
    }

    /// Partitions `members` into groups, each led by its first member and
    /// holding the members whose agreement time with the leader passes
    /// `fits`.
    fn split(&self, mut members: Vec<usize>, fits: impl Fn(f64) -> bool) -> Vec<Vec<usize>> {
        let mut groups = Vec::new();
        while !members.is_empty() {
            let lead = members.remove(0);
            let (joined, left): (Vec<usize>, Vec<usize>) = members
                .into_iter()
                .partition(|&m| fits(self.jobs[lead].agreement(&self.jobs[m])));
            groups.push(std::iter::once(lead).chain(joined).collect());
            members = left;
        }
        groups
    }

    /// Solves a group's shared initial operating point and steps it.
    fn run_initial(&mut self, group: Vec<usize>) {
        let lead = self.jobs[group[0]];
        // The initial operating point is a full homotopy solve; do not
        // let the per-step iteration cap (tuned for warm-started steps)
        // starve it. The engine (assembler structure + factorization
        // state) is built once and shared between the DC solve and every
        // time step.
        let mut engine = dc::Engine::new(lead.netlist, lead.spec.newton.solver);
        let dc_opts = NewtonOptions {
            max_iterations: lead.spec.newton.max_iterations.max(250),
            ..lead.spec.newton.clone()
        };
        match dc::solve_with_engine(lead.netlist, &mut engine, &dc_opts, None) {
            Ok(sol) => {
                let stepper = Stepper::new(engine, group[0], lead.netlist, &sol);
                self.run_group(group, stepper);
            }
            Err(e) => self.fail(&group, &e),
        }
    }

    /// Steps a group from `st` for as long as its members agree, delivers
    /// the members that end there, and forks the state for the rest.
    fn run_group(&mut self, mut group: Vec<usize>, mut st: Stepper) {
        loop {
            let lead = self.jobs[group[0]];
            if st.stimuli_of != group[0] {
                st.engine.sync_stimuli(lead.netlist);
                st.stimuli_of = group[0];
            }
            let dt = lead.spec.dt;
            let horizon = group[1..]
                .iter()
                .map(|&m| lead.agreement(&self.jobs[m]))
                .fold(f64::INFINITY, f64::min);
            let end = group
                .iter()
                .map(|&m| self.jobs[m].spec.steps())
                .min()
                .expect("groups are non-empty");
            while st.step < end && st.next_step_fits(dt, horizon) {
                if let Err(e) = st.advance(lead.netlist, lead.spec, &mut self.scratch) {
                    self.fail(&group, &e);
                    return;
                }
            }
            let (done, rest): (Vec<usize>, Vec<usize>) = group
                .iter()
                .partition(|&&m| self.jobs[m].spec.steps() == st.step);
            for m in done {
                let result = st.final_result(self.jobs[m].spec);
                (self.deliver)(m, Ok(result));
            }
            if rest.is_empty() {
                return;
            }
            let mut forks = self.split(rest, |agreed| st.next_step_fits(dt, agreed));
            group = forks.pop().expect("rest is non-empty");
            for fork in forks {
                self.run_group(fork, st.clone());
            }
        }
    }

    /// Delivers the same error to every member of a group.
    fn fail(&mut self, group: &[usize], e: &CircuitError) {
        for &m in group {
            (self.deliver)(m, Err(e.clone()));
        }
    }
}

/// Buffers reused by every step of a batch; no state survives a step.
#[derive(Debug, Default)]
struct Scratch {
    x_conv: Vec<f64>,
    v_old_save: Vec<f64>,
    /// Save buffers for the retry/bisection logic (one per recursion
    /// depth, allocated on first use).
    save_pool: Vec<Vec<f64>>,
}

/// The integration state of one run, or of a prefix several runs share:
/// everything a step reads. Cloning it forks the run.
#[derive(Debug, Clone)]
struct Stepper {
    engine: dc::Engine,
    /// The job whose stimuli the engine's source snapshot holds.
    stimuli_of: usize,
    x: Vec<f64>,
    /// Predictor state: the converged unknowns of the previous step.
    x_prev: Vec<f64>,
    /// Node voltages (ground included) at the last accepted step.
    v_old: Vec<f64>,
    /// Steps taken.
    step: usize,
    samples: TransientResult,
}

impl Stepper {
    /// The state at `t = 0`: the operating point, recorded as sample 0.
    fn new(engine: dc::Engine, stimuli_of: usize, nl: &Netlist, initial: &dc::DcSolution) -> Self {
        let n_nodes = nl.node_count();
        let n_branches = nl.vsource_count();
        let mut x = Vec::with_capacity(n_nodes - 1 + n_branches);
        x.extend_from_slice(&initial.voltages()[1..]);
        x.extend((0..n_branches).map(|k| initial.branch_current(k)));
        let mut samples = TransientResult::new(n_nodes, n_branches);
        samples.push(0.0, initial.voltages(), &x[n_nodes - 1..]);
        Stepper {
            engine,
            stimuli_of,
            x_prev: x.clone(),
            v_old: initial.voltages().to_vec(),
            x,
            step: 0,
            samples,
        }
    }

    /// Whether every source evaluation of the next step — its end time
    /// and every bisection sub-step time — falls at or before `horizon`.
    fn next_step_fits(&self, dt: f64, horizon: f64) -> bool {
        if horizon == f64::INFINITY {
            return true;
        }
        let t = (self.step + 1) as f64 * dt;
        latest_evaluation(t - dt, dt, 0) <= horizon
    }

    /// Takes one fixed step (recording it on the stride).
    fn advance(
        &mut self,
        nl: &Netlist,
        spec: &TransientSpec,
        scratch: &mut Scratch,
    ) -> Result<(), CircuitError> {
        let n_nodes = self.v_old.len();
        let step = self.step + 1;
        let t = step as f64 * spec.dt;
        let x = &mut self.x;
        let v_old = &mut self.v_old;
        scratch.x_conv.clone_from(x);
        scratch.v_old_save.clone_from(v_old);
        // Linear extrapolation seeds Newton close enough that smooth
        // regions converge in one or two iterations; the corrector still
        // iterates to the same tolerances, so the accepted solution is
        // unchanged. The reference engine reproduces the seed behaviour
        // exactly — including cold per-step Newton starts — so it skips
        // the predictor.
        let predicted = !self.engine.is_reference() && step >= 2;
        if predicted {
            for (xi, pi) in x.iter_mut().zip(&self.x_prev) {
                *xi = 2.0 * *xi - pi;
            }
        }
        self.x_prev.copy_from_slice(&scratch.x_conv);
        let advanced = advance_step(
            nl,
            &mut self.engine,
            x,
            v_old,
            t - spec.dt,
            spec.dt,
            &spec.newton,
            0,
            &mut scratch.save_pool,
        );
        if let Err(e) = advanced {
            // Only a step that started from an extrapolated guess gets a
            // second chance: an un-extrapolated step that failed would
            // deterministically fail again from identical state.
            if !predicted {
                return Err(e);
            }
            // An extrapolated guess can overshoot a sharp edge; retry the
            // whole step once from the un-extrapolated converged state
            // (restoring the companion history a failed bisection may
            // have partially advanced).
            x.copy_from_slice(&scratch.x_conv);
            v_old.copy_from_slice(&scratch.v_old_save);
            advance_step(
                nl,
                &mut self.engine,
                x,
                v_old,
                t - spec.dt,
                spec.dt,
                &spec.newton,
                0,
                &mut scratch.save_pool,
            )?;
        }

        // Update history.
        v_old[0] = 0.0;
        v_old[1..].copy_from_slice(&x[..n_nodes - 1]);
        self.step = step;
        if step.is_multiple_of(spec.record_stride) {
            self.samples.push(t, v_old, &x[n_nodes - 1..]);
        }
        Ok(())
    }

    /// The result of a run that ends at the current step: the samples so
    /// far (shared) plus the final step if the stride skipped it.
    fn final_result(&self, spec: &TransientSpec) -> TransientResult {
        let mut result = self.samples.clone();
        if !self.step.is_multiple_of(spec.record_stride) {
            let n_nodes = self.v_old.len();
            let t = self.step as f64 * spec.dt;
            result.push(t, &self.v_old, &self.x[n_nodes - 1..]);
        }
        result
    }
}

/// The latest time at which a step from `t_start` of size `h` evaluates
/// the sources, computed exactly as [`advance_step`] forms its times:
/// the step end, and the ends of every bisection sub-step down to
/// [`MAX_BISECTION_DEPTH`].
fn latest_evaluation(t_start: f64, h: f64, depth: u32) -> f64 {
    let t_end = t_start + h;
    if depth >= MAX_BISECTION_DEPTH {
        return t_end;
    }
    let half = 0.5 * h;
    t_end
        .max(latest_evaluation(t_start, half, depth + 1))
        .max(latest_evaluation(t_start + half, half, depth + 1))
}

/// Advances the state from `t_start` by `h` with backward Euler,
/// retrying with heavier damping and then bisecting the step (up to 4
/// levels) when Newton stalls on a sharp edge.
#[allow(clippy::too_many_arguments)]
fn advance_step(
    nl: &Netlist,
    engine: &mut dc::Engine,
    x: &mut [f64],
    v_old: &mut [f64],
    t_start: f64,
    h: f64,
    opts: &NewtonOptions,
    depth: u32,
    save_pool: &mut Vec<Vec<f64>>,
) -> Result<(), CircuitError> {
    let t_end = t_start + h;
    // Borrow a save buffer from the pool (returned before recursing).
    let mut step_start_x = save_pool.pop().unwrap_or_default();
    step_start_x.clear();
    step_start_x.extend_from_slice(x);
    let mut attempt_opts = opts.clone();
    let mut last_err = None;
    for _attempt in 0..3 {
        let companion = Companion { v_old, h };
        match dc::newton_with_engine(
            nl,
            engine,
            x,
            t_end,
            Some(&companion),
            0.0,
            1.0,
            &attempt_opts,
        ) {
            Ok(_) => {
                save_pool.push(step_start_x);
                return Ok(());
            }
            Err(e) => {
                last_err = Some(e);
                x.copy_from_slice(&step_start_x);
                attempt_opts.v_step_limit *= 0.35;
                attempt_opts.max_iterations *= 2;
            }
        }
    }
    save_pool.push(step_start_x);
    if depth >= MAX_BISECTION_DEPTH {
        return Err(last_err.expect("attempt loop ran at least once"));
    }
    // Bisect: two half-steps, refreshing the companion history between
    // them.
    let n_nodes = v_old.len();
    advance_step(
        nl,
        engine,
        x,
        v_old,
        t_start,
        0.5 * h,
        opts,
        depth + 1,
        save_pool,
    )?;
    v_old[1..].copy_from_slice(&x[..n_nodes - 1]);
    advance_step(
        nl,
        engine,
        x,
        v_old,
        t_start + 0.5 * h,
        0.5 * h,
        opts,
        depth + 1,
        save_pool,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::MosfetSpec;
    use crate::stimulus::Stimulus;
    use crate::waveform::{propagation_delay, Edge};
    use lnoc_tech::device::{Polarity, VtClass};
    use lnoc_tech::node45::Node45;
    use std::sync::Arc;

    #[test]
    fn rc_time_constant() {
        // R = 1 kΩ, C = 10 fF → τ = 10 ps; v(τ) = 1 − e⁻¹ ≈ 0.632.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource(
            "V",
            vin,
            Netlist::GROUND,
            Stimulus::ramp(0.0, 1.0, 0.0, 1e-15),
        );
        nl.resistor("R", vin, out, 1.0e3).unwrap();
        nl.capacitor("C", out, Netlist::GROUND, 10.0e-15).unwrap();
        let res = run(&nl, &TransientSpec::new(60e-12, 0.02e-12)).unwrap();
        let w = res.voltage(out);
        let v_tau = w.value_at(10e-12);
        assert!(
            (v_tau - 0.632).abs() < 0.02,
            "v(τ) = {v_tau}, expected ≈ 0.632"
        );
        assert!((w.last_value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn capacitor_charge_energy_balance() {
        // Energy delivered by the source charging C to V is C·V² (half
        // stored, half burned in R), independent of R.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        let v = nl.vsource(
            "V",
            vin,
            Netlist::GROUND,
            Stimulus::ramp(0.0, 1.0, 0.0, 1e-15),
        );
        nl.resistor("R", vin, out, 2.0e3).unwrap();
        nl.capacitor("C", out, Netlist::GROUND, 20.0e-15).unwrap();
        let res = run(&nl, &TransientSpec::new(400e-12, 0.05e-12)).unwrap();
        let e = res.supply_energy(&nl, v, 0.0, 400e-12);
        let expected = 20.0e-15 * 1.0 * 1.0; // C·V²
        assert!(
            (e - expected).abs() < 0.05 * expected,
            "E = {e}, expected ≈ {expected}"
        );
    }

    fn inverter_netlist(
        w_n: f64,
        w_p: f64,
        load_f: f64,
        stim: Stimulus,
    ) -> (Netlist, NodeId, NodeId) {
        let tech = Node45::tt();
        let nmos = Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal));
        let pmos = Arc::new(tech.mos(Polarity::Pmos, VtClass::Nominal));
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
        nl.vsource("IN", inp, Netlist::GROUND, stim);
        nl.mosfet(
            "MP",
            MosfetSpec {
                d: out,
                g: inp,
                s: vdd,
                b: vdd,
                model: pmos,
                w: w_p,
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
                w: w_n,
            },
        )
        .unwrap();
        nl.capacitor("CL", out, Netlist::GROUND, load_f).unwrap();
        (nl, inp, out)
    }

    #[test]
    fn inverter_switches_and_has_ps_scale_delay() {
        let (nl, inp, out) = inverter_netlist(
            450e-9,
            900e-9,
            5e-15,
            Stimulus::ramp(0.0, 1.0, 20e-12, 4e-12),
        );
        let res = run(&nl, &TransientSpec::new(120e-12, 0.05e-12)).unwrap();
        let w_in = res.voltage(inp);
        let w_out = res.voltage(out);
        assert!(w_out.first_value() > 0.95, "out starts high");
        assert!(w_out.last_value() < 0.05, "out ends low");
        let d = propagation_delay(&w_in, Edge::Rising, &w_out, Edge::Falling, 1.0, 0.0)
            .expect("delay measurable");
        assert!(
            (0.5e-12..40e-12).contains(&d),
            "45 nm inverter with 5 fF load: delay {d:.3e}"
        );
    }

    #[test]
    fn bigger_load_is_slower() {
        let small = {
            let (nl, inp, out) = inverter_netlist(
                450e-9,
                900e-9,
                2e-15,
                Stimulus::ramp(0.0, 1.0, 20e-12, 4e-12),
            );
            let res = run(&nl, &TransientSpec::new(150e-12, 0.05e-12)).unwrap();
            propagation_delay(
                &res.voltage(inp),
                Edge::Rising,
                &res.voltage(out),
                Edge::Falling,
                1.0,
                0.0,
            )
            .unwrap()
        };
        let big = {
            let (nl, inp, out) = inverter_netlist(
                450e-9,
                900e-9,
                20e-15,
                Stimulus::ramp(0.0, 1.0, 20e-12, 4e-12),
            );
            let res = run(&nl, &TransientSpec::new(150e-12, 0.05e-12)).unwrap();
            propagation_delay(
                &res.voltage(inp),
                Edge::Rising,
                &res.voltage(out),
                Edge::Falling,
                1.0,
                0.0,
            )
            .unwrap()
        };
        assert!(big > 2.0 * small, "10× load: {small:.3e} → {big:.3e}");
    }

    #[test]
    fn high_vt_inverter_is_slower_than_nominal() {
        let tech = Node45::tt();
        let mk = |vt: VtClass| {
            let nmos = Arc::new(tech.mos(Polarity::Nmos, vt));
            let pmos = Arc::new(tech.mos(Polarity::Pmos, vt));
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let inp = nl.node("in");
            let out = nl.node("out");
            nl.vsource("DD", vdd, Netlist::GROUND, Stimulus::dc(1.0));
            nl.vsource(
                "IN",
                inp,
                Netlist::GROUND,
                Stimulus::ramp(0.0, 1.0, 10e-12, 4e-12),
            );
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
            nl.capacitor("CL", out, Netlist::GROUND, 5e-15).unwrap();
            let res = run(&nl, &TransientSpec::new(100e-12, 0.05e-12)).unwrap();
            propagation_delay(
                &res.voltage(inp),
                Edge::Rising,
                &res.voltage(out),
                Edge::Falling,
                1.0,
                0.0,
            )
            .unwrap()
        };
        let nominal = mk(VtClass::Nominal);
        let high = mk(VtClass::High);
        assert!(
            high > 1.1 * nominal,
            "high-Vt must be measurably slower: {nominal:.3e} vs {high:.3e}"
        );
        assert!(
            high < 3.0 * nominal,
            "but not catastrophically so: {nominal:.3e} vs {high:.3e}"
        );
    }

    /// A job outcome as bits: the times, then every node's and every
    /// branch's samples; an error as its debug text.
    fn outcome_bits(
        nl: &Netlist,
        outcome: &Result<TransientResult, CircuitError>,
    ) -> Result<Vec<u64>, String> {
        let res = outcome.as_ref().map_err(|e| format!("{e:?}"))?;
        let mut bits: Vec<u64> = res.times().iter().map(|t| t.to_bits()).collect();
        for (node, _) in nl.nodes() {
            bits.extend(res.voltage(node).values().iter().map(|v| v.to_bits()));
        }
        for k in 0..nl.vsource_count() {
            bits.extend(res.branch_current(k).values().iter().map(|v| v.to_bits()));
        }
        Ok(bits)
    }

    /// Runs `jobs` as one batch and alone, asserts every outcome is
    /// bit-identical, and returns the batch results.
    fn batch_matches_solo(jobs: &[TransientJob<'_>]) -> Vec<Option<TransientResult>> {
        let mut batch: Vec<Option<Result<TransientResult, CircuitError>>> = vec![None; jobs.len()];
        run_batch(jobs, |i, r| {
            assert!(batch[i].is_none(), "job {i} delivered twice");
            batch[i] = Some(r);
        });
        batch
            .into_iter()
            .enumerate()
            .map(|(i, got)| {
                let got = got.expect("every job is delivered");
                let job = jobs[i];
                let solo = run(job.netlist, job.spec);
                assert_eq!(
                    outcome_bits(job.netlist, &got),
                    outcome_bits(job.netlist, &solo),
                    "job {i}"
                );
                got.ok()
            })
            .collect()
    }

    fn shares_first_block(a: &TransientResult, b: &TransientResult) -> bool {
        Arc::ptr_eq(&a.blocks[0], &b.blocks[0])
    }

    /// Jobs on copies of one inverter (same model cards), driven by
    /// piece-wise linear inputs that share a prefix ending mid-ramp and
    /// then diverge, with different stop times and a recording stride
    /// that does not divide them.
    #[test]
    fn batch_equals_solo_on_families_forking_mid_ramp() {
        let (base, inp, _) = inverter_netlist(450e-9, 900e-9, 5e-15, Stimulus::dc(0.0));
        let src = base.find_device("IN").expect("input source");
        let mut rng = proptest::test_runner::TestRng::for_case("forking_families", 0);
        let mut draw = |n: u64| rng.next_u64() % n;
        for family in 0..12 {
            // A shared ramp 0 → 1 over [5, 15] ps, cut at a random point.
            let cut = 6.0e-12 + draw(8) as f64 * 1.0e-12;
            let v_cut = (cut - 5.0e-12) / 10.0e-12;
            let stride = 1 + (family % 3);
            let mut nets = Vec::new();
            let mut specs = Vec::new();
            for member in 0..5 {
                let mut nl = base.clone();
                let mut points = vec![(0.0, 0.0), (5.0e-12, 0.0), (cut, v_cut)];
                match member {
                    // Continues the ramp.
                    0 => points.push((15.0e-12, 1.0)),
                    // Turns back down mid-ramp.
                    1 => points.push((cut + 2.0e-12, 0.0)),
                    // Holds the cut level.
                    2 => {}
                    // A random continuation.
                    _ => {
                        let t = cut + (1 + draw(6)) as f64 * 1.0e-12;
                        points.push((t, draw(3) as f64 * 0.5));
                    }
                }
                nl.set_stimulus(src, Stimulus::Pwl(points));
                nets.push(nl);
                let t_stop = 10.0e-12 + draw(25) as f64 * 1.0e-12;
                specs.push(TransientSpec {
                    record_stride: stride,
                    ..TransientSpec::new(t_stop, 0.1e-12)
                });
            }
            // One job on another step never joins the family.
            let mut odd_nl = base.clone();
            odd_nl.set_stimulus(src, Stimulus::ramp(0.0, 1.0, 5.0e-12, 10.0e-12));
            let odd_spec = TransientSpec::new(20.0e-12, 0.2e-12);
            let mut jobs: Vec<TransientJob<'_>> = nets
                .iter()
                .zip(&specs)
                .map(|(netlist, spec)| TransientJob { netlist, spec })
                .collect();
            jobs.insert(
                2,
                TransientJob {
                    netlist: &odd_nl,
                    spec: &odd_spec,
                },
            );
            let results = batch_matches_solo(&jobs);
            let r = |i: usize| results[i].as_ref().expect("family runs converge");
            // The family shared its initial operating point and prefix.
            assert!(shares_first_block(r(0), r(1)), "family {family}");
            assert!(shares_first_block(r(0), r(3)), "family {family}");
            assert!(!shares_first_block(r(0), r(2)), "family {family}");
            assert_eq!(r(0).voltage(inp).first_value(), 0.0);
        }
    }

    #[test]
    fn batch_delivers_a_shared_failure_to_every_member() {
        // Two sources forcing different voltages on one node: the shared
        // initial operating point fails, and each member reports the
        // error its solo run reports.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, Stimulus::dc(1.0));
        let v2 = nl.vsource("V2", a, Netlist::GROUND, Stimulus::dc(2.0));
        nl.capacitor("C", a, Netlist::GROUND, 1e-15).unwrap();
        let mut other = nl.clone();
        other.set_stimulus(v2, Stimulus::ramp(2.0, 0.0, 1e-12, 1e-12));
        let spec = TransientSpec::new(3e-12, 0.1e-12);
        let jobs = [
            TransientJob {
                netlist: &nl,
                spec: &spec,
            },
            TransientJob {
                netlist: &other,
                spec: &spec,
            },
        ];
        let results = batch_matches_solo(&jobs);
        assert!(results.iter().all(Option::is_none));
    }

    #[test]
    fn run_from_matches_a_run_through_the_same_operating_point() {
        let (nl, _, out) = inverter_netlist(
            450e-9,
            900e-9,
            5e-15,
            Stimulus::ramp(0.0, 1.0, 5e-12, 4e-12),
        );
        let spec = TransientSpec::new(30e-12, 0.1e-12);
        let dc_opts = NewtonOptions {
            max_iterations: 250,
            ..spec.newton.clone()
        };
        let op = dc::solve_with(&nl, &dc_opts, None).unwrap();
        let ran = run(&nl, &spec).unwrap();
        let from = run_from(&nl, &spec, &op).unwrap();
        assert_eq!(from.times(), ran.times());
        assert_eq!(from.voltage(out).values(), ran.voltage(out).values());
    }

    #[test]
    fn final_state_round_trips_as_warm_start() {
        let (nl, _inp, out) = inverter_netlist(450e-9, 900e-9, 5e-15, Stimulus::dc(0.0));
        let res = run(&nl, &TransientSpec::new(20e-12, 0.1e-12)).unwrap();
        let x = res.final_state(&nl);
        assert_eq!(x.len(), nl.node_count() - 1 + nl.vsource_count());
        // Node `out` should be high (input low) in the final state.
        assert!(x[out.index() - 1] > 0.9);
    }
}
