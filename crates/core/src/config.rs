//! Crossbar configuration: the paper's evaluation point plus every
//! physical knob the reproduction exposes.

use lnoc_circuit::dc::SolverKind;
use lnoc_tech::interconnect::{LayerClass, Wire};
use lnoc_tech::node45::Node45;
use lnoc_tech::units::{Hertz, Volts};
use serde::{Deserialize, Serialize};

/// Transistor widths of one crossbar bit-slice (m).
///
/// Defaults are sized so a 45 nm slice driving the crossbar-span wire
/// lands in the paper's tens-of-ps delay regime: pass devices wide
/// enough to drive the wire, a keeper weak enough to lose the ratioed
/// fight, and a first inverter skewed low so it restores the degraded
/// high the pass devices deliver (the field and `Default` comments give
/// each reason).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceSizing {
    /// Crosspoint pass transistor width (N1–N4).
    pub w_pass: f64,
    /// Keeper / pre-charge PMOS width (P1). Deliberately weak so the
    /// pass transistors win the ratioed fight.
    pub w_keeper: f64,
    /// Per-bit share of the sleep transistor (N5 is shared by all bits
    /// of a flit; this is its width divided by the flit width).
    pub w_sleep: f64,
    /// Segment-isolation pass device width (segmented schemes only).
    pub w_iso: f64,
    /// First driver inverter NMOS width.
    pub w_i1_n: f64,
    /// First driver inverter PMOS width.
    pub w_i1_p: f64,
    /// Output buffer inverter NMOS width.
    pub w_i2_n: f64,
    /// Output buffer inverter PMOS width.
    pub w_i2_p: f64,
}

impl Default for SliceSizing {
    fn default() -> Self {
        SliceSizing {
            w_pass: 2.4e-6,
            w_keeper: 1.2e-6,
            w_sleep: 0.45e-6,
            w_iso: 1.8e-6,
            // I1 is skewed to switch low (β_n ≫ β_p): the pass
            // transistors deliver a degraded high (Vdd − Vth − body
            // effect ≈ 0.55 V), and the receiving inverter must flip
            // decisively below that level so the keeper can regenerate
            // the full swing — the standard level-restorer recipe.
            w_i1_n: 3.6e-6,
            w_i1_p: 1.6e-6,
            w_i2_n: 3.6e-6,
            w_i2_p: 14.4e-6,
        }
    }
}

/// Full configuration of a crossbar evaluation.
///
/// `CrossbarConfig::paper()` reproduces the paper's §3 setup: 5×5 matrix
/// crossbar, 128 bits per flit, 45 nm, 3 GHz, 50 % static probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Router radix (ports per router). The paper's is 5.
    pub radix: usize,
    /// Bits per flit (crossbar data width). The paper's is 128.
    pub flit_bits: usize,
    /// Clock frequency for power / idle-time rows.
    pub clock: Hertz,
    /// Probability that a data bit is logic 1 in a given cycle. The
    /// paper's Table 1 assumes 50 %, "the worst case for power".
    pub static_probability: f64,
    /// For segmented schemes: fraction of transfer cycles in which the
    /// slack (near) segment alone carries the transfer, letting the far
    /// sub-slice sleep. Uniform traffic over a half/half split gives 0.5.
    pub slack_only_fraction: f64,
    /// Wire pitch relaxation over the minimum intermediate-layer pitch
    /// (crossbars are routed at a relaxed pitch for crosstalk control).
    pub pitch_factor: f64,
    /// Interconnect layer class for the crossbar spans.
    pub layer: LayerClass,
    /// Receiver load at `output_PE` (next pipeline stage input cap, F).
    pub c_receiver: f64,
    /// Transistor sizing.
    pub sizing: SliceSizing,
    /// Transient time step (s).
    pub sim_dt: f64,
    /// Circuit solve path for every DC/transient this configuration
    /// drives ([`SolverKind::Auto`] picks sparse vs dense by system size;
    /// [`SolverKind::Reference`] is the original full-restamp dense
    /// kernel kept as oracle/baseline).
    pub solver: SolverKind,
    /// Technology node.
    pub tech: Node45,
}

impl CrossbarConfig {
    /// The paper's §3 evaluation configuration.
    pub fn paper() -> Self {
        CrossbarConfig {
            radix: 5,
            flit_bits: 128,
            clock: Hertz(3.0e9),
            static_probability: 0.5,
            slack_only_fraction: 0.5,
            pitch_factor: 2.5,
            layer: LayerClass::Intermediate,
            c_receiver: 10.0e-15,
            sizing: SliceSizing::default(),
            sim_dt: 0.1e-12,
            solver: SolverKind::Auto,
            tech: Node45::tt(),
        }
    }

    /// A reduced configuration for fast unit tests: smaller flit, coarser
    /// time step. Results are qualitatively identical.
    pub fn test_small() -> Self {
        CrossbarConfig {
            flit_bits: 32,
            sim_dt: 0.25e-12,
            ..Self::paper()
        }
    }

    /// Supply voltage (from the technology node).
    pub fn vdd(&self) -> Volts {
        self.tech.vdd()
    }

    /// Clock period.
    pub fn period(&self) -> f64 {
        1.0 / self.clock.0
    }

    /// The physical span of one crossbar dimension: `radix × flit_bits`
    /// wire tracks at the relaxed pitch.
    pub fn span(&self) -> f64 {
        let pitch = self.tech.wire_geometry(self.layer).pitch().0 * self.pitch_factor;
        self.radix as f64 * self.flit_bits as f64 * pitch
    }

    /// The matrix-internal wire hanging on node A (the crosspoint output
    /// column): half a span.
    ///
    /// # Panics
    ///
    /// Never panics for valid configurations (span is positive).
    pub fn matrix_wire(&self) -> Wire {
        Wire::new(self.tech.wire_geometry(self.layer), 0.5 * self.span()).expect("span is positive")
    }

    /// The output wire from the driver to `output_PE`: a full span.
    ///
    /// # Panics
    ///
    /// Never panics for valid configurations.
    pub fn output_wire(&self) -> Wire {
        Wire::new(self.tech.wire_geometry(self.layer), self.span()).expect("span is positive")
    }

    /// Number of bit-slices in the whole crossbar (`radix × flit_bits`
    /// output paths).
    pub fn slice_count(&self) -> usize {
        self.radix * self.flit_bits
    }

    /// Validates ranges that the constructors cannot enforce statically.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.radix < 2 {
            return Err(format!("radix must be ≥ 2, got {}", self.radix));
        }
        if self.flit_bits == 0 {
            return Err("flit_bits must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.static_probability) {
            return Err(format!(
                "static_probability must be in [0,1], got {}",
                self.static_probability
            ));
        }
        if !(0.0..=1.0).contains(&self.slack_only_fraction) {
            return Err(format!(
                "slack_only_fraction must be in [0,1], got {}",
                self.slack_only_fraction
            ));
        }
        if self.sim_dt <= 0.0 || self.clock.0 <= 0.0 {
            return Err("sim_dt and clock must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section3() {
        let c = CrossbarConfig::paper();
        assert_eq!(c.radix, 5);
        assert_eq!(c.flit_bits, 128);
        assert!((c.clock.0 - 3.0e9).abs() < 1.0);
        assert!((c.static_probability - 0.5).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn span_is_hundreds_of_microns() {
        let c = CrossbarConfig::paper();
        let span_um = c.span() * 1e6;
        assert!(
            (100.0..500.0).contains(&span_um),
            "span = {span_um} µm — should be a plausible 128-bit 5-port crossbar"
        );
    }

    #[test]
    fn wires_are_constructible_and_rc_sane() {
        let c = CrossbarConfig::paper();
        let out = c.output_wire();
        assert!(out.total_resistance().0 > 50.0);
        assert!(out.total_capacitance().0 > 10.0e-15);
        let matrix = c.matrix_wire();
        assert!(matrix.length().0 < out.length().0);
    }

    #[test]
    fn slice_count() {
        assert_eq!(CrossbarConfig::paper().slice_count(), 640);
    }

    #[test]
    fn validation_catches_bad_probability() {
        let mut c = CrossbarConfig::paper();
        c.static_probability = 1.5;
        assert!(c.validate().is_err());
        c.static_probability = 0.5;
        c.radix = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn test_config_is_smaller_but_valid() {
        let c = CrossbarConfig::test_small();
        assert!(c.validate().is_ok());
        assert!(c.flit_bits < CrossbarConfig::paper().flit_bits);
    }
}
