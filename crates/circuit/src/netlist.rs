//! Circuit description: nodes and devices.
//!
//! A [`Netlist`] is a flat bag of named devices connecting named nodes.
//! Node 0 is always ground. MOSFETs reference shared
//! [`MosModel`] cards (via [`std::sync::Arc`]) so that
//! a scheme generator can instantiate hundreds of devices against the
//! four flavour cards of the technology without copying them.

use crate::error::CircuitError;
use crate::stimulus::Stimulus;
use lnoc_tech::device::MosModel;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a circuit node. `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a device within its netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

impl DeviceId {
    /// The raw index into the netlist device list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A MOSFET instance: four terminals, a shared model card, and a width.
#[derive(Debug, Clone)]
pub struct MosfetSpec {
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Bulk node.
    pub b: NodeId,
    /// Shared model card.
    pub model: Arc<MosModel>,
    /// Channel width (m).
    pub w: f64,
}

/// The device zoo.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance (Ω), always positive.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance (F), always positive.
        farads: f64,
    },
    /// Ideal voltage source from `pos` to `neg` with a time recipe.
    VSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Voltage-vs-time recipe.
        stimulus: Stimulus,
    },
    /// A MOSFET (see [`MosfetSpec`]).
    Mosfet(MosfetSpec),
}

/// A named device.
#[derive(Debug, Clone)]
pub struct DeviceEntry {
    /// Instance name (unique by convention, not enforced).
    pub name: String,
    /// The device itself.
    pub device: Device,
}

/// A flat circuit netlist. See the [crate-level docs](crate) for an
/// end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    name_to_node: HashMap<String, NodeId>,
    devices: Vec<DeviceEntry>,
    vsource_order: Vec<DeviceId>,
}

impl Netlist {
    /// The ground node, present in every netlist.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist (containing only ground).
    pub fn new() -> Self {
        let mut nl = Netlist {
            node_names: vec!["0".to_string()],
            name_to_node: HashMap::new(),
            devices: Vec::new(),
            vsource_order: Vec::new(),
        };
        nl.name_to_node.insert("0".to_string(), NodeId(0));
        nl
    }

    /// Returns the node with this name, creating it if needed.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// The name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Iterates over all nodes as `(id, name)` pairs, ground first.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.node_names
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i), n.as_str()))
    }

    /// Number of voltage sources (MNA branch unknowns).
    pub fn vsource_count(&self) -> usize {
        self.vsource_order.len()
    }

    /// Devices in insertion order.
    pub fn devices(&self) -> &[DeviceEntry] {
        &self.devices
    }

    /// The MNA branch index (0-based among sources) of a voltage source.
    pub fn branch_index(&self, id: DeviceId) -> Option<usize> {
        self.vsource_order.iter().position(|&d| d == id)
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance.
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<DeviceId, CircuitError> {
        if ohms <= 0.0 || !ohms.is_finite() {
            return Err(CircuitError::InvalidValue {
                device: name.to_string(),
                value: ohms,
                constraint: "resistance must be positive and finite",
            });
        }
        Ok(self.push(name, Device::Resistor { a, b, ohms }))
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite capacitance (zero is allowed and
    /// simply never stamps).
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<DeviceId, CircuitError> {
        if farads < 0.0 || !farads.is_finite() {
            return Err(CircuitError::InvalidValue {
                device: name.to_string(),
                value: farads,
                constraint: "capacitance must be non-negative and finite",
            });
        }
        Ok(self.push(name, Device::Capacitor { a, b, farads }))
    }

    /// Adds an ideal voltage source (`pos` − `neg` = stimulus value).
    pub fn vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        stimulus: Stimulus,
    ) -> DeviceId {
        let id = self.push(name, Device::VSource { pos, neg, stimulus });
        self.vsource_order.push(id);
        id
    }

    /// Adds a MOSFET.
    ///
    /// # Errors
    ///
    /// Rejects non-positive width.
    pub fn mosfet(&mut self, name: &str, spec: MosfetSpec) -> Result<DeviceId, CircuitError> {
        if spec.w <= 0.0 || !spec.w.is_finite() {
            return Err(CircuitError::InvalidValue {
                device: name.to_string(),
                value: spec.w,
                constraint: "width must be positive and finite",
            });
        }
        Ok(self.push(name, Device::Mosfet(spec)))
    }

    /// Replaces the stimulus of an existing voltage source — the cheap
    /// way to sweep leakage states without rebuilding the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a voltage source of this netlist.
    pub fn set_stimulus(&mut self, id: DeviceId, stimulus: Stimulus) {
        let entry = &mut self.devices[id.0];
        match &mut entry.device {
            Device::VSource { stimulus: s, .. } => *s = stimulus,
            _ => panic!("device {} is not a voltage source", entry.name),
        }
    }

    /// Looks up a device by name (linear scan; fine at these sizes).
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| d.name == name)
            .map(DeviceId)
    }

    /// The entry for a device id.
    pub fn device(&self, id: DeviceId) -> &DeviceEntry {
        &self.devices[id.0]
    }

    /// Iterates over all MOSFETs with their names.
    pub fn mosfets(&self) -> impl Iterator<Item = (&str, &MosfetSpec)> {
        self.devices.iter().filter_map(|e| match &e.device {
            Device::Mosfet(m) => Some((e.name.as_str(), m)),
            _ => None,
        })
    }

    /// Voltage-source stimuli in branch (insertion) order.
    pub(crate) fn stimuli(&self) -> impl Iterator<Item = &Stimulus> {
        self.devices.iter().filter_map(|e| match &e.device {
            Device::VSource { stimulus, .. } => Some(stimulus),
            _ => None,
        })
    }

    /// `true` when `other` is this circuit with at most its source
    /// stimuli changed: same nodes, same devices in the same order on the
    /// same terminals, bitwise-equal element values and the very same
    /// MOSFET model cards. Names are ignored (they never reach a solve).
    pub(crate) fn same_circuit_except_stimuli(&self, other: &Netlist) -> bool {
        let same = |a: &Device, b: &Device| match (a, b) {
            (
                Device::Resistor { a, b, ohms },
                Device::Resistor {
                    a: a2,
                    b: b2,
                    ohms: o2,
                },
            ) => a == a2 && b == b2 && ohms.to_bits() == o2.to_bits(),
            (
                Device::Capacitor { a, b, farads },
                Device::Capacitor {
                    a: a2,
                    b: b2,
                    farads: f2,
                },
            ) => a == a2 && b == b2 && farads.to_bits() == f2.to_bits(),
            (
                Device::VSource { pos, neg, .. },
                Device::VSource {
                    pos: p2, neg: n2, ..
                },
            ) => pos == p2 && neg == n2,
            (Device::Mosfet(m), Device::Mosfet(m2)) => {
                (m.d, m.g, m.s, m.b) == (m2.d, m2.g, m2.s, m2.b)
                    && m.w.to_bits() == m2.w.to_bits()
                    && Arc::ptr_eq(&m.model, &m2.model)
            }
            _ => false,
        };
        self.node_count() == other.node_count()
            && self.devices.len() == other.devices.len()
            && self
                .devices
                .iter()
                .zip(&other.devices)
                .all(|(a, b)| same(&a.device, &b.device))
    }

    /// Sum of all capacitance hanging on a node (useful for energy
    /// estimates and sanity checks).
    pub fn capacitance_on(&self, node: NodeId) -> f64 {
        self.devices
            .iter()
            .map(|e| match &e.device {
                Device::Capacitor { a, b, farads } if *a == node || *b == node => *farads,
                _ => 0.0,
            })
            .sum()
    }

    fn push(&mut self, name: &str, device: Device) -> DeviceId {
        let id = DeviceId(self.devices.len());
        self.devices.push(DeviceEntry {
            name: name.to_string(),
            device,
        });
        id
    }

    /// Emits the netlist in a SPICE-compatible flavour (for the Figure
    /// 1–3 schematic exports and for debugging against external tools).
    pub fn to_spice(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "* {title}");
        for entry in &self.devices {
            let name = &entry.name;
            match &entry.device {
                Device::Resistor { a, b, ohms } => {
                    let _ = writeln!(
                        out,
                        "R{name} {} {} {ohms:.6e}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                }
                Device::Capacitor { a, b, farads } => {
                    let _ = writeln!(
                        out,
                        "C{name} {} {} {farads:.6e}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                }
                Device::VSource { pos, neg, stimulus } => {
                    let _ = writeln!(
                        out,
                        "V{name} {} {} {:.6e}",
                        self.node_name(*pos),
                        self.node_name(*neg),
                        stimulus.dc_value()
                    );
                }
                Device::Mosfet(m) => {
                    let flavour =
                        format!("{:?}_{:?}", m.model.polarity(), m.model.vt_class()).to_lowercase();
                    let _ = writeln!(
                        out,
                        "M{name} {} {} {} {} {flavour} W={:.4e} L={:.4e}",
                        self.node_name(m.d),
                        self.node_name(m.g),
                        self.node_name(m.s),
                        self.node_name(m.b),
                        m.w,
                        m.model.params().length,
                    );
                }
            }
        }
        let _ = writeln!(out, ".end");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnoc_tech::device::{Polarity, VtClass};
    use lnoc_tech::node45::Node45;

    #[test]
    fn ground_exists_and_is_node_zero() {
        let nl = Netlist::new();
        assert_eq!(nl.node_count(), 1);
        assert!(Netlist::GROUND.is_ground());
        assert_eq!(nl.node_name(Netlist::GROUND), "0");
    }

    #[test]
    fn node_is_idempotent() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        assert_eq!(a, a2);
        assert_eq!(nl.node_count(), 2);
    }

    #[test]
    fn rejects_bad_component_values() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        assert!(nl.resistor("R1", a, Netlist::GROUND, 0.0).is_err());
        assert!(nl.resistor("R1", a, Netlist::GROUND, -1.0).is_err());
        assert!(nl.capacitor("C1", a, Netlist::GROUND, -1e-15).is_err());
        assert!(nl.capacitor("C0", a, Netlist::GROUND, 0.0).is_ok());
    }

    #[test]
    fn branch_indices_follow_insertion_order() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let v1 = nl.vsource("V1", a, Netlist::GROUND, Stimulus::dc(1.0));
        let _r = nl.resistor("R", a, b, 1e3).unwrap();
        let v2 = nl.vsource("V2", b, Netlist::GROUND, Stimulus::dc(0.0));
        assert_eq!(nl.branch_index(v1), Some(0));
        assert_eq!(nl.branch_index(v2), Some(1));
        assert_eq!(nl.vsource_count(), 2);
    }

    #[test]
    fn set_stimulus_replaces() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let v = nl.vsource("V", a, Netlist::GROUND, Stimulus::dc(0.0));
        nl.set_stimulus(v, Stimulus::dc(1.0));
        match &nl.device(v).device {
            Device::VSource { stimulus, .. } => assert_eq!(stimulus.dc_value(), 1.0),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "not a voltage source")]
    fn set_stimulus_on_resistor_panics() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R", a, Netlist::GROUND, 1e3).unwrap();
        nl.set_stimulus(r, Stimulus::dc(1.0));
    }

    #[test]
    fn spice_export_contains_all_devices() {
        let tech = Node45::tt();
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("DD", d, Netlist::GROUND, Stimulus::dc(1.0));
        nl.resistor("load", d, g, 2.0e3).unwrap();
        nl.mosfet(
            "M1",
            MosfetSpec {
                d,
                g,
                s: Netlist::GROUND,
                b: Netlist::GROUND,
                model: Arc::new(tech.mos(Polarity::Nmos, VtClass::Nominal)),
                w: 450e-9,
            },
        )
        .unwrap();
        let spice = nl.to_spice("test");
        assert!(spice.contains("* test"));
        assert!(spice.contains("Rload"));
        assert!(spice.contains("MM1"));
        assert!(spice.contains("nmos_nominal"));
        assert!(spice.ends_with(".end\n"));
    }

    #[test]
    fn capacitance_on_node_sums() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.capacitor("C1", a, Netlist::GROUND, 10e-15).unwrap();
        nl.capacitor("C2", a, b, 5e-15).unwrap();
        nl.capacitor("C3", b, Netlist::GROUND, 7e-15).unwrap();
        assert!((nl.capacitance_on(a) - 15e-15).abs() < 1e-21);
        assert!((nl.capacitance_on(b) - 12e-15).abs() < 1e-21);
    }

    #[test]
    fn find_device_by_name() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let id = nl.resistor("Rx", a, Netlist::GROUND, 50.0).unwrap();
        assert_eq!(nl.find_device("Rx"), Some(id));
        assert_eq!(nl.find_device("nope"), None);
    }
}
