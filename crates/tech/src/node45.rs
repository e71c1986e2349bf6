//! The 45 nm technology node used throughout the reproduction.
//!
//! The paper implemented its crossbars "in 45nm technology" with device
//! behaviour from the Berkeley Predictive Technology Model and wire
//! geometry from the ITRS roadmap. We encode an equivalent predictive
//! parameter set here. The absolute values are representative of a
//! high-performance 45 nm process (Vdd 1.0 V, Ion ≈ 1 mA/µm,
//! Ioff ≈ tens of nA/µm, gate leakage comparable to subthreshold); the
//! *ratios* between nominal-Vt and high-Vt flavours are what carry the
//! paper's results, and those are set by ΔVth ≈ 0.15 V exactly as a
//! dual-Vt menu would provide.

use crate::corners::{Corner, Temperature};
use crate::device::{MosModel, MosParams, Polarity, VtClass};
use crate::interconnect::{LayerClass, WireGeometry};
use crate::units::Volts;
use serde::{Deserialize, Serialize};

/// Difference between the high-Vt and nominal-Vt threshold magnitudes.
pub const DUAL_VT_DELTA: f64 = 0.15;

/// The 45 nm technology descriptor: supply, device cards per flavour,
/// wire geometry per layer class, process corner.
///
/// # Example
///
/// ```
/// use lnoc_tech::node45::Node45;
/// use lnoc_tech::device::{Polarity, VtClass};
///
/// let tech = Node45::tt();
/// let nominal = tech.mos(Polarity::Nmos, VtClass::Nominal);
/// let high = tech.mos(Polarity::Nmos, VtClass::High);
/// assert!(high.vth().0 > nominal.vth().0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node45 {
    corner: Corner,
    temperature: Temperature,
    vdd: f64,
    l_min: f64,
}

impl Node45 {
    /// Typical corner at room temperature — the paper's evaluation point.
    pub fn tt() -> Self {
        Self::new(Corner::Tt, Temperature::ROOM)
    }

    /// Builds the node at an explicit corner and temperature.
    pub fn new(corner: Corner, temperature: Temperature) -> Self {
        Node45 {
            corner,
            temperature,
            vdd: 1.0,
            l_min: 45.0e-9,
        }
    }

    /// Returns a copy of this node at a different temperature.
    pub fn at_temperature(&self, temperature: Temperature) -> Self {
        Node45 {
            temperature,
            ..self.clone()
        }
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        Volts(self.vdd)
    }

    /// Minimum (drawn) channel length.
    pub fn l_min(&self) -> f64 {
        self.l_min
    }

    /// Process corner.
    pub fn corner(&self) -> Corner {
        self.corner
    }

    /// Characterization temperature.
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// The raw parameter card for a device flavour at this corner.
    pub fn mos_params(&self, polarity: Polarity, vt_class: VtClass) -> MosParams {
        let (vth_base, k_prime_base) = match polarity {
            // Calibrated to the 2005-era BPTM *predictions* for a 45 nm
            // HP process (the models the paper used): Ion ≈ 1.2 mA/µm
            // and a room-temperature Ioff of a few hundred nA/µm — the
            // pre-high-k, pre-strain forecasts were far leakier than
            // the silicon that eventually shipped, and the paper's
            // 1–3-cycle minimum idle times only make sense at those
            // leakage levels (see EXPERIMENTS.md).
            Polarity::Nmos => (0.22, 2.9e-4),
            Polarity::Pmos => (0.24, 1.35e-4),
        };
        let vth_class_shift = match vt_class {
            VtClass::Nominal => 0.0,
            VtClass::High => DUAL_VT_DELTA,
        };
        // Gate tunnelling density: thicker effective oxide on high-Vt
        // devices (as in real dual-Vt menus) also trims gate leakage.
        // 2005 ITRS/BPTM gate-current density forecasts for ~1.1 nm
        // SiON: ~10³ A/cm² at full bias (high-k moved real silicon two
        // orders below this, but the paper's DFC mechanism — grounding
        // node A to kill pass-transistor gate leakage — presumes the
        // forecast levels).
        let jg0 = match vt_class {
            VtClass::Nominal => 1.2e7,
            VtClass::High => 2.5e6,
        };
        MosParams {
            polarity,
            vt_class,
            vth0: vth_base + vth_class_shift + self.corner.vth_shift(),
            n_slope: 1.5,
            dibl: 0.05,
            body_k: 0.10,
            k_prime: k_prime_base * self.corner.k_prime_factor(),
            theta: 0.30,
            length: self.l_min,
            cox_per_area: 0.0288,      // ≈ 1.2 nm effective oxide
            c_overlap_per_w: 3.0e-10,  // 0.30 fF/µm
            c_junction_per_w: 8.0e-10, // 0.80 fF/µm
            jg0,
            jg_slope: 4.6, // two decades per volt of oxide bias
            jg_vref: self.vdd,
            junction_leak_per_w: 2.0e-5,
            vth_tc: 7.0e-4,
            t_ref: 300.15,
        }
    }

    /// A ready-to-evaluate model for a device flavour at the node's
    /// default temperature.
    ///
    /// # Panics
    ///
    /// Never panics for the built-in cards (they always validate).
    pub fn mos(&self, polarity: Polarity, vt_class: VtClass) -> MosModel {
        self.mos_at(polarity, vt_class, self.temperature.kelvin())
    }

    /// A model for a device flavour at an explicit temperature (K).
    pub fn mos_at(&self, polarity: Polarity, vt_class: VtClass, temperature_k: f64) -> MosModel {
        MosModel::new(self.mos_params(polarity, vt_class), temperature_k)
            .expect("built-in 45 nm device cards are always valid")
    }

    /// ITRS-style wire geometry for a layer class at this node.
    pub fn wire_geometry(&self, class: LayerClass) -> WireGeometry {
        // ITRS 2003-era 45 nm generation numbers: M1 half-pitch 45 nm;
        // intermediate wires ~1.6× M1; global wires ~3× M1, thicker and
        // in low-k dielectric (k_eff ≈ 2.8 with manufacturing margins).
        match class {
            LayerClass::Local => WireGeometry {
                class,
                width: 45.0e-9,
                spacing: 45.0e-9,
                thickness: 81.0e-9, // AR 1.8
                height_above_plane: 90.0e-9,
                dielectric_k: 2.9,
                resistivity: crate::constants::RHO_COPPER_EFF,
            },
            LayerClass::Intermediate => WireGeometry {
                class,
                width: 70.0e-9,
                spacing: 70.0e-9,
                thickness: 140.0e-9, // AR 2.0
                height_above_plane: 130.0e-9,
                dielectric_k: 2.8,
                resistivity: crate::constants::RHO_COPPER_EFF,
            },
            LayerClass::Global => WireGeometry {
                class,
                width: 135.0e-9,
                spacing: 135.0e-9,
                thickness: 300.0e-9, // AR 2.2
                height_above_plane: 240.0e-9,
                dielectric_k: 2.8,
                resistivity: crate::constants::RHO_COPPER_EFF,
            },
        }
    }
}

impl Default for Node45 {
    fn default() -> Self {
        Self::tt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_vt_delta_applied() {
        let tech = Node45::tt();
        let lo = tech.mos_params(Polarity::Nmos, VtClass::Nominal);
        let hi = tech.mos_params(Polarity::Nmos, VtClass::High);
        assert!((hi.vth0 - lo.vth0 - DUAL_VT_DELTA).abs() < 1e-12);
    }

    #[test]
    fn pmos_weaker_than_nmos() {
        let tech = Node45::tt();
        let n = tech.mos_params(Polarity::Nmos, VtClass::Nominal);
        let p = tech.mos_params(Polarity::Pmos, VtClass::Nominal);
        assert!(p.k_prime < n.k_prime);
    }

    #[test]
    fn corners_shift_vth_coherently() {
        let ff = Node45::new(Corner::Ff, Temperature::ROOM);
        let ss = Node45::new(Corner::Ss, Temperature::ROOM);
        let vff = ff.mos_params(Polarity::Nmos, VtClass::Nominal).vth0;
        let vss = ss.mos_params(Polarity::Nmos, VtClass::Nominal).vth0;
        assert!(vff < vss);
    }

    #[test]
    fn wire_classes_get_wider_up_the_stack() {
        let tech = Node45::tt();
        let local = tech.wire_geometry(LayerClass::Local);
        let inter = tech.wire_geometry(LayerClass::Intermediate);
        let global = tech.wire_geometry(LayerClass::Global);
        assert!(local.width < inter.width);
        assert!(inter.width < global.width);
        // Wider+thicker wires ⇒ lower resistance per length.
        assert!(global.resistance_per_length().0 < inter.resistance_per_length().0);
    }

    #[test]
    fn default_is_typical_room() {
        let tech = Node45::default();
        assert_eq!(tech.corner(), Corner::Tt);
        assert!((tech.temperature().kelvin() - 300.15).abs() < 1e-9);
    }

    #[test]
    fn high_vt_has_lower_gate_leak_density() {
        let tech = Node45::tt();
        let lo = tech.mos_params(Polarity::Nmos, VtClass::Nominal);
        let hi = tech.mos_params(Polarity::Nmos, VtClass::High);
        assert!(hi.jg0 < lo.jg0);
    }
}
