//! # lnoc-bench — experiment harnesses
//!
//! One binary per paper artifact or committed baseline:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 (all rows, all schemes) + abstract ranges + segmentation claims (T1, T1a, T1b) |
//! | `figures` | Figures 1–3 as SPICE/DOT schematics (F1–F3) |
//! | `idle_sweep` | minimum-idle-time vs clock frequency (X1) |
//! | `noc_sweep` | mesh-level gating savings across traffic patterns and loads (X2) |
//! | `gating_sweep` | in-loop per-VC-lane gating over the mesh × rate × policy × scheme × VC × fault grid → `BENCH_noc.json` (X3) |
//! | `bench_circuit` | circuit-engine wall times against the `Reference` solver → `BENCH_circuit.json` |
//!
//! The Criterion benches (`benches/`) measure the *engine* itself
//! (device evaluation, DC solve, transient step, netsim cycle rate) so
//! performance regressions in the simulator are caught independently of
//! the physics results.
//!
//! The sweep binaries run on the supervised, checkpointed [`runner`]:
//! each grid point executes as an isolated job with panic capture,
//! deadline enforcement and bounded retry, its result checkpointed in a
//! content-addressed cache keyed by a canonical config [`digest`] and
//! journalled ([`journal`]) so a killed sweep resumes exactly where it
//! stopped and regenerates byte-identical artifacts.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod circuits;
pub mod digest;
pub mod journal;
pub mod json;
pub mod runner;

use std::fs;
use std::path::{Path, PathBuf};

/// Output directory for regenerated artifacts: `LNOC_OUT_DIR` if set
/// (tests isolate runs with it), otherwise `out/` at the workspace
/// root. Created if needed.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = match std::env::var_os("LNOC_OUT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => repo_root().join("out"),
    };
    fs::create_dir_all(&dir).expect("create out/ directory");
    dir
}

/// Path of a committed baseline artifact (`BENCH_*.json`): the repo
/// root, or `LNOC_OUT_DIR` when set, so an isolated run (a test, a
/// scratch regeneration) never overwrites the committed file.
///
/// # Panics
///
/// Panics if `LNOC_OUT_DIR` is set and cannot be created.
pub fn baseline_path(name: &str) -> PathBuf {
    match std::env::var_os("LNOC_OUT_DIR") {
        Some(_) => out_dir().join(name),
        None => repo_root().join(name),
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Writes an artifact file and reports it on stdout.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_artifact(name: &str, content: &str) {
    let path = out_dir().join(name);
    fs::write(&path, content).expect("write artifact");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_exists_after_call() {
        let d = out_dir();
        assert!(d.is_dir());
    }
}
