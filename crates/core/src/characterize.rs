//! Scheme characterization: every row of the paper's Table 1.
//!
//! | Table 1 row | How it is measured here |
//! |---|---|
//! | High→Low delay | transient: worst-case input edge → `output_PE` falling, 50 %→50 % |
//! | Low→High / pre-charge delay | transient: input edge (or pre-charge assertion) → output rising |
//! | Active leakage | DC leakage states during transfers, averaged over data at the static probability, at the hot corner |
//! | Standby leakage | DC leakage in the sleep state, hot corner |
//! | Minimum idle time | measured standby entry energy ÷ (idle-awake − standby) leakage power |
//! | Total power | measured per-cycle switching energy at 3 GHz + active leakage |
//! | Delay penalty | max(delays) vs the SC baseline (computed in [`crate::table1`]) |
//!
//! Delays and switching energies are simulated at the configuration's
//! nominal temperature; leakage states are solved on a twin slice built
//! at [`Temperature::HOT`] (110 °C), the usual leakage
//! sign-off point — at room temperature leakage is a negligible slice of
//! total power and none of the paper's power rows would be visible.

use crate::config::CrossbarConfig;
use crate::scheme::Scheme;
use crate::slice::{BitSlice, ModelSet};
use lnoc_circuit::analysis::{leakage_report, LeakageReport};
use lnoc_circuit::dc::{self, NewtonOptions};
use lnoc_circuit::error::CircuitError;
use lnoc_circuit::netlist::NodeId;
use lnoc_circuit::stimulus::Stimulus;
use lnoc_circuit::transient::{self, TransientJob, TransientResult, TransientSpec};
use lnoc_circuit::waveform::{propagation_delay, Edge};
use lnoc_tech::corners::Temperature;
use lnoc_tech::device::{Polarity, VtClass};
use lnoc_tech::units::{Joules, Seconds, Watts};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The full characterization of one scheme — one Table 1 column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeCharacterization {
    /// The scheme.
    pub scheme: Scheme,
    /// Worst-case-path high-to-low output delay.
    pub delay_high_to_low: Seconds,
    /// Worst-case-path low-to-high output delay; for pre-charged schemes
    /// this is the pre-charge delay (the rising output is produced by
    /// the pre-charge operation).
    pub delay_low_to_high: Seconds,
    /// Whole-crossbar leakage power during active operation (hot).
    pub active_leakage: Watts,
    /// Whole-crossbar leakage power when idle but not slept (hot).
    pub idle_awake_leakage: Watts,
    /// Whole-crossbar leakage power in standby (hot).
    pub standby_leakage: Watts,
    /// Energy to enter (and exit) standby, per bit-slice, averaged over
    /// the pre-idle data state.
    pub transition_energy: Joules,
    /// Minimum idle time in clock cycles for standby to pay off.
    pub min_idle_time_cycles: u32,
    /// Per-slice switching energy per clock cycle at the configured
    /// static probability (excludes leakage).
    pub dynamic_energy_per_cycle: Joules,
    /// Whole-crossbar total power at the configured clock: dynamic +
    /// active leakage.
    pub total_power: Watts,
    /// Count of (nominal, high) Vt devices in one slice.
    pub vt_census: (usize, usize),
}

/// One solved static operating state.
#[derive(Debug, Clone)]
pub struct StaticState {
    /// Human-readable description.
    pub label: String,
    /// Probability weight within its group (group weights sum to 1).
    pub weight: f64,
    /// Exact static supply power of one slice in this state (W) —
    /// `Σ V·I` over all sources at the DC operating point, which counts
    /// series contention paths once (unlike summing per-device
    /// magnitudes).
    pub power: f64,
    /// Per-device breakdown for diagnostics.
    pub report: LeakageReport,
}

/// Per-state leakage detail (per slice, hot corner).
#[derive(Debug, Clone)]
pub struct LeakageDetail {
    /// Weighted operating states during active traffic.
    pub active_states: Vec<StaticState>,
    /// Weighted idle-but-awake states.
    pub idle_awake_states: Vec<StaticState>,
    /// The standby (slept) state.
    pub standby: StaticState,
}

impl LeakageDetail {
    /// Weighted average power of the active states (W, per slice).
    pub fn active_power(&self) -> f64 {
        weighted_power(&self.active_states)
    }

    /// Weighted average power of the idle-awake states (W, per slice).
    pub fn idle_awake_power(&self) -> f64 {
        weighted_power(&self.idle_awake_states)
    }
}

fn weighted_power(states: &[StaticState]) -> f64 {
    let total_w: f64 = states.iter().map(|s| s.weight).sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    states.iter().map(|s| s.weight * s.power).sum::<f64>() / total_w
}

/// Characterizes schemes under one configuration, reusing model sets.
#[derive(Debug)]
pub struct Characterizer {
    cfg: CrossbarConfig,
    models_nom: ModelSet,
    models_hot: ModelSet,
}

/// DC options tuned for the slice circuits (a final touch of gmin keeps
/// floating pre-charged nodes well-conditioned without measurably
/// shifting µA-scale leakage). The solve path follows the configuration.
fn slice_dc_options(cfg: &CrossbarConfig) -> NewtonOptions {
    NewtonOptions {
        max_iterations: 300,
        solver: cfg.solver,
        ..NewtonOptions::default()
    }
}

/// A transient spec at the configuration's time step and solve path.
fn slice_transient_spec(cfg: &CrossbarConfig, t_stop: f64) -> TransientSpec {
    let mut spec = TransientSpec::new(t_stop, cfg.sim_dt);
    spec.newton.solver = cfg.solver;
    spec
}

impl Characterizer {
    /// Creates a characterizer for a configuration.
    pub fn new(cfg: &CrossbarConfig) -> Self {
        let hot_cfg = CrossbarConfig {
            tech: cfg.tech.at_temperature(Temperature::HOT),
            ..cfg.clone()
        };
        Characterizer {
            models_nom: ModelSet::new(cfg),
            models_hot: ModelSet::new(&hot_cfg),
            cfg: cfg.clone(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CrossbarConfig {
        &self.cfg
    }

    /// Runs the full Table 1 characterization of one scheme.
    ///
    /// Takes `&self` so one characterizer can serve many schemes /
    /// corners concurrently (the model sets are shared `Arc` cards).
    ///
    /// The delay, cycle-energy and sleep-entry transients go to the
    /// circuit engine as one batch, so the stretches where their stimuli
    /// agree (the priming edge at 40 ps, the settled state up to the
    /// measured edge) are simulated once; every measurement is
    /// bit-identical to a separate run.
    ///
    /// # Errors
    ///
    /// Propagates solver convergence failures (which indicate a
    /// mis-configured circuit rather than an expected condition), the
    /// first in the order delays → leakage → cycle energy → transition
    /// energy.
    pub fn characterize(&self, scheme: Scheme) -> Result<SchemeCharacterization, CircuitError> {
        let delay_runs = self.delay_runs(scheme);
        let cycle_runs = self.cycle_energy_runs(scheme);
        let (n_delay, n_cycle) = (delay_runs.len(), cycle_runs.len());
        let runs: Vec<SliceRun> = delay_runs
            .into_iter()
            .chain(cycle_runs)
            .chain(self.sleep_entry_runs(scheme))
            .collect();
        let measured = self.measure_batch(&runs);
        let (delays, rest) = measured.split_at(n_delay);
        let (cycles, sleeps) = rest.split_at(n_cycle);

        let delays = first_error(delays)?;
        let (d_hl, d_lh) = (delays[0], delays[1]);
        let leak = self.leakage_points(scheme)?;
        let e_cycle = self.cycle_energy(scheme, &first_error(cycles)?);
        let e_trans = self.transition_energy(scheme, &first_error(sleeps)?);

        let n = self.cfg.slice_count() as f64;
        let period = self.cfg.period();
        let p_saved_slice = (leak.idle_awake - leak.standby) / n;
        let min_idle_time_cycles = if p_saved_slice > 0.0 {
            ((e_trans / p_saved_slice) / period).ceil() as u32
        } else {
            u32::MAX
        };

        let total_power = e_cycle * self.cfg.clock.0 * n + leak.active;
        let vt_census =
            BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom).vt_census();

        Ok(SchemeCharacterization {
            scheme,
            delay_high_to_low: Seconds(d_hl),
            delay_low_to_high: Seconds(d_lh),
            active_leakage: Watts(leak.active),
            idle_awake_leakage: Watts(leak.idle_awake),
            standby_leakage: Watts(leak.standby),
            transition_energy: Joules(e_trans),
            min_idle_time_cycles,
            dynamic_energy_per_cycle: Joules(e_cycle),
            total_power: Watts(total_power),
            vt_census,
        })
    }

    // --- transient runs ---------------------------------------------------

    /// Runs a batch of slice transients and reads each run's measurement,
    /// in submission order.
    fn measure_batch(&self, runs: &[SliceRun]) -> Vec<Result<f64, CircuitError>> {
        let jobs: Vec<TransientJob<'_>> = runs
            .iter()
            .map(|r| TransientJob {
                netlist: &r.slice.netlist,
                spec: &r.spec,
            })
            .collect();
        let mut measured = vec![None; runs.len()];
        transient::run_batch(&jobs, |i, result| {
            measured[i] = Some(result.and_then(|res| self.measure(&runs[i], &res)));
        });
        measured
            .into_iter()
            .map(|m| m.expect("the batch delivers every run"))
            .collect()
    }

    /// Reads one run's measurement off its transient result.
    fn measure(&self, run: &SliceRun, res: &TransientResult) -> Result<f64, CircuitError> {
        let vdd = self.cfg.vdd().0;
        let slice = &run.slice;
        let delay = |from: NodeId, in_edge: Edge, out_edge: Edge, t_edge: f64| {
            propagation_delay(
                &res.voltage(from),
                in_edge,
                &res.voltage(slice.out),
                out_edge,
                vdd,
                t_edge - 10.0e-12,
            )
            .ok_or(CircuitError::NoConvergence {
                analysis: "transient",
                time: t_edge,
                residual: f64::NAN,
            })
        };
        match run.measure {
            Measure::KeeperDelay {
                input,
                edge,
                t_edge,
            } => delay(slice.inputs[input], edge, edge, t_edge),
            Measure::EvalDelay { grant, t_edge } => {
                delay(grant, Edge::Rising, Edge::Falling, t_edge)
            }
            Measure::PrechargeDelay { pre, t_pre } => {
                delay(pre, Edge::Falling, Edge::Rising, t_pre)
            }
            Measure::CycleEnergy { t0 } => {
                let period = self.cfg.period();
                let e_two = res.supply_energy(&slice.netlist, slice.vdd_src, t0, t0 + 2.0 * period);
                let leak_bg = self.room_leak_power(slice)?;
                let e_dyn = if slice.scheme.is_precharged() {
                    // Add the per-cycle pre-charge control line energy
                    // (the pre rail toggles every cycle across the whole
                    // flit).
                    let e_ctrl = self.control_line_energy_per_bit();
                    (e_two - leak_bg * 2.0 * period) / 2.0 + e_ctrl
                } else {
                    let p_transition =
                        2.0 * self.cfg.static_probability * (1.0 - self.cfg.static_probability);
                    (e_two - leak_bg * 2.0 * period) / 2.0 * (p_transition / 0.5)
                };
                Ok(e_dyn.max(0.0))
            }
            Measure::SleepEntry { t_sleep, t_stop } => {
                let e = res.supply_energy(&slice.netlist, slice.vdd_src, t_sleep - 5.0e-12, t_stop);
                // Subtract the (room) leakage background over the window.
                let leak_bg = self.room_leak_power(slice)?;
                Ok((e - leak_bg * (t_stop - t_sleep + 5.0e-12)).max(0.0))
            }
        }
    }

    // --- delay ----------------------------------------------------------

    /// The worst-case-path delay runs: high-to-low, then low-to-high.
    fn delay_runs(&self, scheme: Scheme) -> Vec<SliceRun> {
        if scheme.is_precharged() {
            vec![
                self.dpc_eval_delay_run(scheme),
                self.dpc_precharge_delay_run(scheme),
            ]
        } else {
            vec![
                self.keeper_delay_run(scheme, Edge::Falling),
                self.keeper_delay_run(scheme, Edge::Rising),
            ]
        }
    }

    /// Grants the worst-case input of a slice and returns its index.
    fn select_worst_input(&self, slice: &mut BitSlice) -> usize {
        let input = if slice.scheme.is_segmented() {
            slice.set_enable_far(true);
            slice.set_enable_near(false);
            slice.crit_inputs[0]
        } else {
            slice.input_count() - 1
        };
        slice.set_grant(input, true);
        input
    }

    /// Data-edge → output-edge delay for the feedback (keeper) schemes.
    ///
    /// Both measurements start from the easy data-0 operating point and
    /// reach the pre-edge state *physically* (a priming ramp), exactly
    /// like a SPICE test bench would — the bistable keeper loop makes a
    /// cold data-1 DC solve fragile, and a real crossbar never starts
    /// there either.
    fn keeper_delay_run(&self, scheme: Scheme, out_edge: Edge) -> SliceRun {
        let mut slice = BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom);
        let input = self.select_worst_input(&mut slice);
        let vdd = self.cfg.vdd().0;
        let t_prime = 40.0e-12;
        let t_edge = 400.0e-12; // generous settling after the priming rise
        let edge_len = 5.0e-12;
        let stim = match out_edge {
            // Prime high, then measure the fall.
            Edge::Falling => Stimulus::Pwl(vec![
                (0.0, 0.0),
                (t_prime, 0.0),
                (t_prime + edge_len, vdd),
                (t_edge, vdd),
                (t_edge + edge_len, 0.0),
            ]),
            // Start low (natural DC), measure the rise.
            Edge::Rising => {
                Stimulus::Pwl(vec![(0.0, 0.0), (t_edge, 0.0), (t_edge + edge_len, vdd)])
            }
        };
        slice.drive_data(input, stim);
        SliceRun {
            spec: slice_transient_spec(&self.cfg, t_edge + 400.0e-12),
            slice,
            measure: Measure::KeeperDelay {
                input,
                edge: out_edge,
                t_edge,
            },
        }
    }

    /// Evaluation delay of a pre-charged scheme: grant edge → output
    /// falling, with data low (the logic-0 evaluation the paper times).
    fn dpc_eval_delay_run(&self, scheme: Scheme) -> SliceRun {
        let mut slice = BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom);
        let input = if scheme.is_segmented() {
            slice.set_enable_far(true);
            slice.set_enable_near(false);
            slice.crit_inputs[0]
        } else {
            slice.input_count() - 1
        };
        let vdd = self.cfg.vdd().0;
        let t_release = 80.0e-12;
        let t_edge = 120.0e-12;
        // Pre-charging until t_release (gate low), then released.
        slice.drive_precharge(Stimulus::ramp(0.0, vdd, t_release, 5.0e-12));
        slice.set_data(input, false);
        slice.drive_grant(input, Stimulus::ramp(0.0, vdd, t_edge, 5.0e-12));
        let grant = slice
            .netlist
            .find_node(&format!("g{input}"))
            .expect("grant node");
        SliceRun {
            spec: slice_transient_spec(&self.cfg, t_edge + 400.0e-12),
            slice,
            measure: Measure::EvalDelay { grant, t_edge },
        }
    }

    /// Pre-charge delay of a pre-charged scheme: pre-charge assertion →
    /// output rising back to the idle-high state.
    fn dpc_precharge_delay_run(&self, scheme: Scheme) -> SliceRun {
        let mut slice = BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom);
        let input = if scheme.is_segmented() {
            slice.set_enable_far(true);
            slice.set_enable_near(false);
            slice.crit_inputs[0]
        } else {
            slice.input_count() - 1
        };
        let vdd = self.cfg.vdd().0;
        // Initial state: evaluated low (grant on, data 0, pre inactive).
        let t_off = 60.0e-12;
        let t_pre = 100.0e-12;
        slice.set_data(input, false);
        slice.drive_grant(input, Stimulus::ramp(vdd, 0.0, t_off, 5.0e-12));
        slice.drive_precharge(Stimulus::ramp(vdd, 0.0, t_pre, 5.0e-12));
        let pre = slice
            .netlist
            .find_node("pre_main")
            .expect("pre-charged slice has a pre_main node");
        SliceRun {
            spec: slice_transient_spec(&self.cfg, t_pre + 400.0e-12),
            slice,
            measure: Measure::PrechargeDelay { pre, t_pre },
        }
    }

    // --- leakage ----------------------------------------------------------

    /// Whole-crossbar leakage powers (W, hot corner).
    fn leakage_points(&self, scheme: Scheme) -> Result<LeakagePoints, CircuitError> {
        let detail = self.leakage_detail(scheme)?;
        let n = self.cfg.slice_count() as f64;
        Ok(LeakagePoints {
            active: detail.active_power() * n,
            idle_awake: detail.idle_awake_power() * n,
            standby: detail.standby.power * n,
        })
    }

    /// Solves one static state and packages it.
    fn solve_state(
        &self,
        slice: &BitSlice,
        label: &str,
        weight: f64,
        warm: Option<&[f64]>,
    ) -> Result<(StaticState, Vec<f64>), CircuitError> {
        let opts = slice_dc_options(&self.cfg);
        let sol = dc::solve_with(&slice.netlist, &opts, warm)?;
        let power = sol.total_source_power(&slice.netlist).max(0.0);
        let report = leakage_report(&slice.netlist, &sol);
        let raw = raw_state(&slice.netlist, &sol);
        Ok((
            StaticState {
                label: label.to_string(),
                weight,
                power,
                report,
            },
            raw,
        ))
    }

    /// Builds and solves one weighted transfer (active-traffic) state.
    fn solve_transfer_state(
        &self,
        scheme: Scheme,
        label: &str,
        data: bool,
        far: bool,
        weight: f64,
    ) -> Result<StaticState, CircuitError> {
        let mut s = BitSlice::build_with_models(scheme, &self.cfg, &self.models_hot);
        let granted = if scheme.is_segmented() {
            if far {
                s.set_enable_far(true);
                s.set_enable_near(false);
                s.set_sleep_slack(true);
                let input = s.crit_inputs[0];
                s.set_grant(input, true);
                input
            } else {
                s.set_enable_near(true);
                s.set_enable_far(false);
                s.set_sleep_main(true);
                let input = s.slack_inputs[0];
                s.set_grant(input, true);
                input
            }
        } else {
            s.set_grant(s.input_count() - 1, true);
            s.input_count() - 1
        };
        // Only the granted input carries live data; every other
        // input buffer is parked low (idle buffers are clock-gated
        // and hold their reset level).
        s.set_data(granted, data);
        if scheme.is_precharged() {
            // Evaluation phase. For data = 1 node A floats at its
            // pre-charged high level within the cycle; pin it via
            // the *active* domain's pre-charge device only (a slept
            // domain is never pre-charged).
            if scheme.is_segmented() && !far {
                s.set_precharge_slack(data);
            } else {
                s.set_precharge_main(data);
            }
        }
        let (state, _) = self.solve_state(&s, label, weight, None)?;
        Ok(state)
    }

    /// Per-state leakage reports (per slice, hot corner).
    ///
    /// State enumeration:
    ///
    /// * feedback schemes — transfers with data 0 / data 1 (the pass
    ///   path and keeper hold full levels, so static power = leakage);
    /// * pre-charged schemes — the pre-charge half-cycle (weight ½) plus
    ///   the two evaluation states (weight ¼ each). The data-1
    ///   evaluation leaves node A floating at its pre-charged level
    ///   within the cycle; we pin it through the pre-charge device,
    ///   which is exact for the channel terms and only approximates
    ///   P1's own (sub-µm device) off-state leakage;
    /// * segmented schemes — each transfer state is split into a far
    ///   transfer (slack domain slept) and a near transfer (critical
    ///   domain slept), weighted by `slack_only_fraction`.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn leakage_detail(&self, scheme: Scheme) -> Result<LeakageDetail, CircuitError> {
        let mut active = Vec::new();
        let mut idle = Vec::new();
        let p1 = self.cfg.static_probability;
        let near_f = self.cfg.slack_only_fraction;

        // Weighted transfer-state recipes: (label, data, far?, weight).
        // Data states follow the paper's static-probability convention:
        // a bit spends `p1` of its time in the 1 state and `1 − p1` in
        // the 0 state, for pre-charged and feedback schemes alike (in a
        // pre-charged scheme the 1 state is electrically the pre-charged
        // state, so this also covers the pre-charge half-cycle).
        let mut transfer_states: Vec<(String, bool, bool, f64)> = Vec::new();
        for &(data, p_data) in &[(false, 1.0 - p1), (true, p1)] {
            if scheme.is_segmented() {
                transfer_states.push((
                    format!("far transfer, data={}", data as u8),
                    data,
                    true,
                    p_data * (1.0 - near_f),
                ));
                transfer_states.push((
                    format!("near transfer, data={}", data as u8),
                    data,
                    false,
                    p_data * near_f,
                ));
            } else {
                transfer_states.push((
                    format!("transfer, data={}", data as u8),
                    data,
                    true,
                    p_data,
                ));
            }
        }

        // Each transfer state is an independent slice build + DC solve;
        // fan them out (cores permitting — on one core this degrades to
        // the original serial loop).
        let solved: Result<Vec<StaticState>, CircuitError> = transfer_states
            .into_par_iter()
            .map(|(label, data, far, weight)| {
                self.solve_transfer_state(scheme, &label, data, far, weight)
            })
            .collect();
        active.extend(solved?);

        // Idle-awake states. In the segmented schemes the transmission
        // gates stay conducting whenever no transfer needs isolation —
        // with both sub-slice drivers parked at the same level the
        // shared wire is held without contention and never floats.
        if scheme.is_precharged() {
            // §2.2 deactivates pre-charge when idle; on the cycle scale
            // that matters for the minimum-idle-time row, node A still
            // sits at its pre-charged (high) level, so the off driver
            // halves are the *nominal* ones — the state standby fixes.
            // We pin A through the pre-charge device (exact for the
            // channel terms; P1's own off-leakage is a sub-µm rounding).
            let mut s = BitSlice::build_with_models(scheme, &self.cfg, &self.models_hot);
            s.set_precharge(true);
            s.set_enable_near(true);
            s.set_enable_far(true);
            let (state, _) =
                self.solve_state(&s, "idle awake (node A at pre-charged level)", 1.0, None)?;
            idle.push(state);
        } else {
            // Keeper schemes hold the last transferred value on node A;
            // pin each branch through a momentary grant, then release.
            for &(held, p_held) in &[(false, 1.0 - p1), (true, p1)] {
                let mut s = BitSlice::build_with_models(scheme, &self.cfg, &self.models_hot);
                let input = s.input_count() - 1;
                s.set_enable_near(true);
                s.set_enable_far(true);
                s.set_grant(input, true);
                s.set_data(input, held);
                let (_, warm) = self.solve_state(&s, "seed", 0.0, None)?;
                // Idle: grant released, all input buffers parked low; the
                // keeper holds node A against the pass-transistor leakage.
                s.set_grant(input, false);
                s.set_data(input, false);
                let (state, _) = self.solve_state(
                    &s,
                    &format!("idle awake, held data={}", held as u8),
                    p_held,
                    Some(&warm),
                )?;
                idle.push(state);
            }
        }

        // Standby: everything parked, sleep asserted. The transmission
        // gates (the per-segment sleep devices of Fig. 3) stay
        // conducting so both slept drivers hold the shared wire high —
        // precisely the state in which every off transistor of a
        // pre-charged driver is one of its high-Vt halves.
        let mut s = BitSlice::build_with_models(scheme, &self.cfg, &self.models_hot);
        s.set_sleep_main(true);
        s.set_sleep_slack(true);
        s.set_enable_near(true);
        s.set_enable_far(true);
        if scheme.is_precharged() {
            s.set_precharge(false);
        }
        let (standby, _) = self.solve_state(&s, "standby", 1.0, None)?;

        Ok(LeakageDetail {
            active_states: active,
            idle_awake_states: idle,
            standby,
        })
    }

    // --- energies ---------------------------------------------------------

    /// Per-slice switching energy per cycle at the configured static
    /// probability (J), from the measured path energies of
    /// [`Self::cycle_energy_runs`]. For the segmented schemes this blends
    /// the far and near transfer paths by `slack_only_fraction` — near
    /// transfers swing only half the output wire, which is segmentation's
    /// dynamic power win.
    fn cycle_energy(&self, scheme: Scheme, paths: &[f64]) -> f64 {
        if scheme.is_segmented() {
            let (far, near) = (paths[0], paths[1]);
            let f = self.cfg.slack_only_fraction;
            (1.0 - f) * far + f * near
        } else {
            paths[0]
        }
    }

    /// The cycle-energy runs: the far transfer path, then (segmented
    /// schemes) the near one.
    fn cycle_energy_runs(&self, scheme: Scheme) -> Vec<SliceRun> {
        if scheme.is_segmented() {
            vec![
                self.cycle_energy_run(scheme, true),
                self.cycle_energy_run(scheme, false),
            ]
        } else {
            vec![self.cycle_energy_run(scheme, true)]
        }
    }

    /// Two-cycle transient energy measurement over one transfer path.
    fn cycle_energy_run(&self, scheme: Scheme, use_far: bool) -> SliceRun {
        let vdd = self.cfg.vdd().0;
        let period = self.cfg.period();
        let mut slice = BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom);
        let input = if scheme.is_segmented() {
            if use_far {
                slice.set_enable_far(true);
                slice.set_enable_near(false);
                slice.set_sleep_slack(true);
                slice.crit_inputs[0]
            } else {
                slice.set_enable_near(true);
                slice.set_enable_far(false);
                slice.set_sleep_main(true);
                slice.slack_inputs[0]
            }
        } else {
            slice.input_count() - 1
        };
        slice.set_grant(input, true);

        let t0 = 300.0e-12; // settle (includes the priming ramp below)
        let edge = 5.0e-12;
        if scheme.is_precharged() {
            // Two full pre-charge/evaluate cycles: data 0 (full swing)
            // then data 1 (no swing) — exactly the 50 % static
            // probability average.
            let half = 0.5 * period;
            slice.set_data(input, false);
            // pre gate of the *active* domain: low (charging) in the
            // first half of each cycle. A slept domain is never
            // pre-charged (its sleep pull-down would fight P1).
            let pre_stim = Stimulus::Pwl(vec![
                (0.0, 0.0),
                (t0 - 2.0 * edge, 0.0),
                (t0 - edge, vdd), // release before cycle 1 eval
                (t0 + half, vdd),
                (t0 + half + edge, 0.0), // pre-charge in second half
                (t0 + period - edge, vdd),
                (t0 + period + half, vdd),
                (t0 + period + half + edge, 0.0),
                (t0 + 2.0 * period - edge, vdd),
            ]);
            if scheme.is_segmented() && !use_far {
                slice.drive_precharge_slack(pre_stim);
            } else {
                slice.drive_precharge_main(pre_stim);
            }
            // grant asserted during evaluation windows; data 0 in the
            // first cycle, 1 in the second.
            slice.drive_grant(
                input,
                Stimulus::Pwl(vec![
                    (0.0, 0.0),
                    (t0, 0.0),
                    (t0 + edge, vdd),
                    (t0 + half - edge, vdd),
                    (t0 + half, 0.0),
                    (t0 + period, 0.0),
                    (t0 + period + edge, vdd),
                    (t0 + period + half - edge, vdd),
                    (t0 + period + half, 0.0),
                ]),
            );
            slice.drive_data(
                input,
                Stimulus::Pwl(vec![
                    (0.0, 0.0),
                    (t0 + period - 20.0e-12, 0.0),
                    (t0 + period - 10.0e-12, vdd),
                ]),
            );
        } else {
            // Feedback schemes: a 1→0→1 data pattern gives one
            // transition per cycle; random data at p = ½ has ½
            // transition per cycle, so the measurement scales by ½. The
            // initial rise at 40 ps primes node A physically (see
            // `keeper_delay_run`).
            slice.drive_data(
                input,
                Stimulus::Pwl(vec![
                    (0.0, 0.0),
                    (40.0e-12, 0.0),
                    (45.0e-12, vdd),
                    (t0, vdd),
                    (t0 + edge, 0.0),
                    (t0 + period, 0.0),
                    (t0 + period + edge, vdd),
                ]),
            );
        }
        SliceRun {
            spec: slice_transient_spec(&self.cfg, t0 + 2.0 * period),
            slice,
            measure: Measure::CycleEnergy { t0 },
        }
    }

    /// Standby entry energy per slice (J), averaged over pre-idle state,
    /// from the measured energies of [`Self::sleep_entry_runs`].
    fn transition_energy(&self, scheme: Scheme, entries: &[f64]) -> f64 {
        let e_ctrl = self.control_line_energy_per_bit();
        if scheme.is_precharged() {
            // Idle state is unique (node A pre-charged high).
            entries[0] + e_ctrl
        } else {
            let p1 = self.cfg.static_probability;
            let (e1, e0) = (entries[0], entries[1]);
            p1 * e1 + (1.0 - p1) * e0 + e_ctrl
        }
    }

    /// The sleep-entry runs: from an idle state holding 1 on node A, then
    /// (keeper schemes, whose idle state depends on the held value) 0.
    fn sleep_entry_runs(&self, scheme: Scheme) -> Vec<SliceRun> {
        if scheme.is_precharged() {
            vec![self.sleep_entry_run(scheme, true)]
        } else {
            vec![
                self.sleep_entry_run(scheme, true),
                self.sleep_entry_run(scheme, false),
            ]
        }
    }

    /// Supply energy drawn when the sleep signal asserts from an idle
    /// state holding `held` on node A.
    fn sleep_entry_run(&self, scheme: Scheme, held: bool) -> SliceRun {
        let vdd = self.cfg.vdd().0;
        let mut slice = BitSlice::build_with_models(scheme, &self.cfg, &self.models_nom);
        let input = self.select_worst_input(&mut slice);
        let t_release = 300.0e-12;
        let t_sleep = 400.0e-12;
        let t_stop = 700.0e-12;

        if scheme.is_precharged() {
            // Hold pre-charge until t_release, then idle, then sleep.
            slice.drive_precharge(Stimulus::ramp(0.0, vdd, t_release, 5.0e-12));
            slice.set_grant(input, false);
        } else {
            // Prime node A physically (data rises at 40 ps if the held
            // state is 1), then release the grant to hold it.
            let held_v = if held { vdd } else { 0.0 };
            slice.drive_data(
                input,
                Stimulus::Pwl(vec![(0.0, 0.0), (40.0e-12, 0.0), (45.0e-12, held_v)]),
            );
            slice.drive_grant(input, Stimulus::ramp(vdd, 0.0, t_release, 5.0e-12));
        }
        slice.drive_sleep_main(Stimulus::ramp(0.0, vdd, t_sleep, 5.0e-12));
        if scheme.is_segmented() {
            if let Some(src) = slice.sleep_slack_src {
                slice
                    .netlist
                    .set_stimulus(src, Stimulus::ramp(0.0, vdd, t_sleep, 5.0e-12));
            }
        }
        SliceRun {
            spec: slice_transient_spec(&self.cfg, t_stop),
            slice,
            measure: Measure::SleepEntry { t_sleep, t_stop },
        }
    }

    /// Control-line (sleep/pre rail) switching energy amortized per bit:
    /// the rail spans the flit and drives one gate per bit.
    fn control_line_energy_per_bit(&self) -> f64 {
        let vdd_v = self.cfg.vdd().0;
        let geom = self.cfg.tech.wire_geometry(self.cfg.layer);
        let bit_pitch = self.cfg.radix as f64 * geom.pitch().0 * self.cfg.pitch_factor;
        let c_line_per_bit = geom.total_capacitance_per_length().0 * bit_pitch;
        let n5 = self.cfg.tech.mos(Polarity::Nmos, VtClass::High);
        let c_gate = n5.capacitances(self.cfg.sizing.w_sleep).gate_total().0;
        (c_line_per_bit + c_gate) * vdd_v * vdd_v
    }

    /// Static supply power of the slice's current state at the nominal
    /// temperature (background to subtract from measured energies).
    fn room_leak_power(&self, slice: &BitSlice) -> Result<f64, CircuitError> {
        let sol = dc::solve_with(&slice.netlist, &slice_dc_options(&self.cfg), None)?;
        Ok(sol.total_source_power(&slice.netlist).max(0.0))
    }
}

/// One transient measurement of a characterization: a slice driven by
/// its stimuli, the run's spec, and what to read off the result.
struct SliceRun {
    slice: BitSlice,
    spec: TransientSpec,
    measure: Measure,
}

/// What a [`SliceRun`] measures (see [`Characterizer::measure`]).
#[derive(Debug, Clone, Copy)]
enum Measure {
    /// Data edge at `t_edge` → output `edge` of a keeper scheme.
    KeeperDelay {
        input: usize,
        edge: Edge,
        t_edge: f64,
    },
    /// Grant rising at `t_edge` → output falling.
    EvalDelay { grant: NodeId, t_edge: f64 },
    /// Pre-charge asserting at `t_pre` → output rising.
    PrechargeDelay { pre: NodeId, t_pre: f64 },
    /// Switching energy per cycle over two cycles from `t0`.
    CycleEnergy { t0: f64 },
    /// Energy drawn from the sleep edge at `t_sleep` to `t_stop`.
    SleepEntry { t_sleep: f64, t_stop: f64 },
}

/// The measurements in order, or the first error among them.
fn first_error(measured: &[Result<f64, CircuitError>]) -> Result<Vec<f64>, CircuitError> {
    measured.iter().cloned().collect()
}

/// Leakage power summary (W, whole crossbar).
#[derive(Debug, Clone, Copy)]
struct LeakagePoints {
    active: f64,
    idle_awake: f64,
    standby: f64,
}

/// Flattens a DC solution back into the raw unknown vector for warm
/// starts.
fn raw_state(nl: &lnoc_circuit::netlist::Netlist, sol: &dc::DcSolution) -> Vec<f64> {
    let n = nl.node_count();
    let mut x = Vec::with_capacity(n - 1 + nl.vsource_count());
    x.extend_from_slice(&sol.voltages()[1..]);
    for k in 0..nl.vsource_count() {
        x.push(sol.branch_current(k));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> CrossbarConfig {
        CrossbarConfig {
            sim_dt: 0.5e-12,
            ..CrossbarConfig::test_small()
        }
    }

    /// `(high_to_low, low_to_high)` delays through the batch path.
    fn delays(ch: &Characterizer, scheme: Scheme) -> Result<(f64, f64), CircuitError> {
        let d = first_error(&ch.measure_batch(&ch.delay_runs(scheme)))?;
        Ok((d[0], d[1]))
    }

    /// A transient outcome as bits: times, then every node's and every
    /// branch's samples; an error as its debug text.
    fn outcome_bits(
        run: &SliceRun,
        outcome: &Result<TransientResult, CircuitError>,
    ) -> Result<Vec<u64>, String> {
        let res = outcome.as_ref().map_err(|e| format!("{e:?}"))?;
        let nl = &run.slice.netlist;
        let mut bits: Vec<u64> = res.times().iter().map(|t| t.to_bits()).collect();
        for (node, _) in nl.nodes() {
            bits.extend(res.voltage(node).values().iter().map(|v| v.to_bits()));
        }
        for k in 0..nl.vsource_count() {
            bits.extend(res.branch_current(k).values().iter().map(|v| v.to_bits()));
        }
        Ok(bits)
    }

    #[test]
    fn batched_characterization_runs_equal_solo_runs() {
        let ch = Characterizer::new(&CrossbarConfig::paper());
        for scheme in [Scheme::Sc, Scheme::Sdfc] {
            let runs: Vec<SliceRun> = ch
                .delay_runs(scheme)
                .into_iter()
                .chain(ch.cycle_energy_runs(scheme))
                .chain(ch.sleep_entry_runs(scheme))
                .collect();
            let jobs: Vec<TransientJob<'_>> = runs
                .iter()
                .map(|r| TransientJob {
                    netlist: &r.slice.netlist,
                    spec: &r.spec,
                })
                .collect();
            let mut batch = vec![None; runs.len()];
            transient::run_batch(&jobs, |i, r| batch[i] = Some(outcome_bits(&runs[i], &r)));
            for (i, run) in runs.iter().enumerate() {
                let solo = transient::run(&run.slice.netlist, &run.spec);
                assert_eq!(
                    batch[i].as_ref().expect("delivered"),
                    &outcome_bits(run, &solo),
                    "{scheme} run {i}"
                );
            }
        }
    }

    #[test]
    fn sc_delays_are_tens_of_ps() {
        let ch = Characterizer::new(&fast_cfg());
        let (hl, lh) = delays(&ch, Scheme::Sc).unwrap();
        assert!((5.0e-12..200.0e-12).contains(&hl), "H→L = {hl:.3e}");
        assert!((5.0e-12..200.0e-12).contains(&lh), "L→H = {lh:.3e}");
    }

    #[test]
    fn dfc_beats_sc_on_falling_and_loses_on_rising() {
        // The high-Vt keeper fights the falling transition less (faster
        // H→L) but restores the high level more slowly (slower L→H) —
        // the signature asymmetry of Table 1.
        let ch = Characterizer::new(&fast_cfg());
        let (sc_hl, sc_lh) = delays(&ch, Scheme::Sc).unwrap();
        let (dfc_hl, dfc_lh) = delays(&ch, Scheme::Dfc).unwrap();
        assert!(dfc_hl < sc_hl, "DFC H→L {dfc_hl:.3e} vs SC {sc_hl:.3e}");
        assert!(dfc_lh > sc_lh, "DFC L→H {dfc_lh:.3e} vs SC {sc_lh:.3e}");
    }

    #[test]
    fn standby_saves_leakage_in_every_scheme() {
        let ch = Characterizer::new(&fast_cfg());
        for scheme in Scheme::ALL {
            let pts = ch.leakage_points(scheme).unwrap();
            assert!(
                pts.standby < pts.idle_awake,
                "{scheme}: standby {} !< idle {}",
                pts.standby,
                pts.idle_awake
            );
            assert!(pts.active > 0.0);
        }
    }

    #[test]
    fn dual_vt_schemes_leak_less_than_sc() {
        let ch = Characterizer::new(&fast_cfg());
        let sc = ch.leakage_points(Scheme::Sc).unwrap();
        for scheme in [Scheme::Dfc, Scheme::Dpc, Scheme::Sdfc, Scheme::Sdpc] {
            let pts = ch.leakage_points(scheme).unwrap();
            assert!(
                pts.active < sc.active,
                "{scheme} active {} !< SC {}",
                pts.active,
                sc.active
            );
            assert!(
                pts.standby < sc.standby,
                "{scheme} standby {} !< SC {}",
                pts.standby,
                sc.standby
            );
        }
    }

    #[test]
    fn precharged_standby_savings_dominate() {
        let ch = Characterizer::new(&fast_cfg());
        let sc = ch.leakage_points(Scheme::Sc).unwrap();
        let dfc = ch.leakage_points(Scheme::Dfc).unwrap();
        let dpc = ch.leakage_points(Scheme::Dpc).unwrap();
        let saving = |x: f64| 1.0 - x / sc.standby;
        assert!(
            saving(dpc.standby) > 2.0 * saving(dfc.standby),
            "DPC standby saving {:.3} should dwarf DFC's {:.3}",
            saving(dpc.standby),
            saving(dfc.standby)
        );
    }
}
