//! # lnoc-core — the paper's contribution
//!
//! Implements the four leakage-aware crossbar designs of *"Leakage-Aware
//! Interconnect for On-Chip Network"* (DATE 2005) plus the single-Vt
//! baseline, and the full characterization pipeline that regenerates the
//! paper's Table 1:
//!
//! * [`scheme`] — the five schemes ([`Scheme`]) and their dual-Vt
//!   assignment tables per device role.
//! * [`config`] — the evaluation configuration (5×5, 128-bit flit,
//!   45 nm, 3 GHz — [`CrossbarConfig::paper`]).
//! * [`slice`](mod@slice) — netlist generators that realize Figures 1–3 as circuits.
//! * [`characterize`] — delay, active/standby leakage, mode-transition
//!   energy, minimum idle time and total power per scheme.
//! * [`table1`] — the end-to-end Table 1 pipeline with paper-vs-measured
//!   comparison support.
//! * [`dual_vt`] — the slack-driven high-Vt assignment algorithm as a
//!   reusable procedure (used for the ablation experiments).
//! * [`schematic`] — SPICE/DOT exports of the generated circuits
//!   (regenerating Figures 1–3 as machine-readable schematics).
//!
//! ## Quickstart
//!
//! ```no_run
//! use lnoc_core::{CrossbarConfig, Scheme};
//! use lnoc_core::characterize::Characterizer;
//!
//! let cfg = CrossbarConfig::paper();
//! let ch = Characterizer::new(&cfg);
//! let dfc = ch.characterize(Scheme::Dfc).unwrap();
//! println!("DFC high-to-low delay: {}", dfc.delay_high_to_low);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod characterize;
pub mod config;
pub mod dual_vt;
pub mod ports;
pub mod schematic;
pub mod scheme;
pub mod slice;
pub mod table1;

pub use config::{CrossbarConfig, SliceSizing};
pub use ports::Port;
pub use scheme::{DeviceRole, Scheme};
pub use slice::BitSlice;
pub use table1::{Table1, Table1Row};
