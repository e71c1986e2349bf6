//! Canonical configuration digests for the content-addressed sweep
//! result cache.
//!
//! A simulation's statistics are a *pure function* of its
//! configuration — seed, mesh, VC count, policy, kernel, shard
//! geometry, fault plan — bit-identical across kernels, shard counts
//! and thread counts by the engine's core guarantee. That makes a
//! config digest a sound cache key: if the digest matches, the cached
//! result is exactly what a re-run would produce.
//!
//! The digest is **canonical**: fields are named, and the hash runs
//! over the fields sorted by name, so two call sites that write the
//! same fields in different orders produce the same digest (verified
//! by proptest). Floats hash by their exact bit pattern. The `domain`
//! string versions the encoding — bump it whenever the payload format
//! or the set of digested fields changes, and every stale cache entry
//! silently misses instead of resurrecting old bytes.

use crate::json;
use lnoc_netsim::MeshConfig;
use std::fmt::Display;
use std::fmt::Write as _;

/// 64-bit FNV-1a offset basis / prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis for the second lane (the first basis byte-rotated), so
/// the two lanes disagree on every stream and the combined digest is
/// effectively 128-bit against accidental collisions.
const FNV_OFFSET_B: u64 = 0x2325_cbf2_9ce4_8422;

/// Accumulates named fields and hashes them order-independently.
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    domain: String,
    fields: Vec<(String, String)>,
}

impl DigestBuilder {
    /// Starts a digest in the given domain (format-version salt).
    pub fn new(domain: &str) -> Self {
        DigestBuilder {
            domain: domain.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds a named field with a canonical textual value (integers,
    /// bools, enum names — anything whose `Display` is injective for
    /// the values it can take).
    pub fn field(mut self, name: &str, value: impl Display) -> Self {
        self.fields.push((name.to_string(), value.to_string()));
        self
    }

    /// Adds an `f64` by its exact bit pattern — `0.1 + 0.2` and `0.3`
    /// digest differently, as they must.
    pub fn f64(self, name: &str, value: f64) -> Self {
        self.field(name, format_args!("f64:{:016x}", value.to_bits()))
    }

    /// Finishes the digest: 32 hex characters over the sorted fields.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name — a silent overwrite would
    /// weaken the key.
    pub fn finish(mut self) -> String {
        self.fields.sort();
        for pair in self.fields.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate digest field");
        }
        let mut a = FNV_OFFSET;
        let mut b = FNV_OFFSET_B;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
                b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.domain.as_bytes());
        eat(&[0x1f]);
        for (name, value) in &self.fields {
            eat(name.as_bytes());
            eat(&[0x3d]); // '='
            eat(value.as_bytes());
            eat(&[0x1e]); // record separator: ("ab","c") != ("a","bc")
        }
        let mut hex = String::with_capacity(32);
        let _ = write!(hex, "{a:016x}{b:016x}");
        hex
    }
}

/// Digests every field of a [`MeshConfig`] under a `mesh.` prefix.
///
/// The destructuring is deliberately exhaustive: adding a field to
/// `MeshConfig` breaks this function at compile time, forcing the
/// cache key to learn about it (and the `domain` to be bumped) instead
/// of silently serving stale results.
pub fn mesh_config(b: DigestBuilder, cfg: &MeshConfig) -> DigestBuilder {
    let MeshConfig {
        width,
        height,
        injection_rate,
        pattern,
        packet_len_flits,
        buffer_depth,
        vcs,
        seed,
        wrap,
        injection,
        gating,
        kernel,
        source_queue_cap,
        watchdog_cycles,
        cycle_budget,
        shards,
        threads,
        faults,
        eager_settlement,
    } = cfg;
    b.field("mesh.width", width)
        .field("mesh.height", height)
        .f64("mesh.injection_rate", *injection_rate)
        .field("mesh.pattern", pattern.name())
        .field("mesh.packet_len_flits", packet_len_flits)
        .field("mesh.buffer_depth", buffer_depth)
        .field("mesh.vcs", vcs)
        .field("mesh.seed", seed)
        .field("mesh.wrap", wrap)
        // Derived Debug prints every field of these nested structs, so
        // any change to a dwell time, a policy threshold or a fault
        // plan (events included) changes the key.
        .field("mesh.injection", format_args!("{injection:?}"))
        .field("mesh.gating", format_args!("{gating:?}"))
        .field("mesh.kernel", kernel.name())
        .field("mesh.source_queue_cap", source_queue_cap)
        .field("mesh.watchdog_cycles", watchdog_cycles)
        .field("mesh.cycle_budget", cycle_budget)
        .field("mesh.shards", shards)
        .field("mesh.threads", threads)
        .field("mesh.faults", format_args!("{faults:?}"))
        .field("mesh.eager_settlement", eager_settlement)
}

/// Renders the digest (with its domain) as the one-line JSON header a
/// cache entry or journal line carries.
pub fn digest_header(domain: &str, digest: &str) -> String {
    json::Obj::new()
        .str("domain", domain)
        .str("digest", digest)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnoc_netsim::{FaultPlan, SimKernel, TrafficPattern};
    use proptest::prelude::*;

    fn digest_of(cfg: &MeshConfig, warmup: u64, measure: u64) -> String {
        mesh_config(DigestBuilder::new("test.v1"), cfg)
            .field("warmup", warmup)
            .field("measure", measure)
            .finish()
    }

    #[test]
    fn stable_across_field_write_order() {
        let a = DigestBuilder::new("d")
            .field("x", 1)
            .f64("y", 0.25)
            .field("z", "s")
            .finish();
        let b = DigestBuilder::new("d")
            .field("z", "s")
            .field("x", 1)
            .f64("y", 0.25)
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn domain_salts_the_key() {
        let a = DigestBuilder::new("v1").field("x", 1).finish();
        let b = DigestBuilder::new("v2").field("x", 1).finish();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate digest field")]
    fn duplicate_field_names_refuse() {
        let _ = DigestBuilder::new("d").field("x", 1).field("x", 2).finish();
    }

    #[test]
    fn record_separators_prevent_field_gluing() {
        let a = DigestBuilder::new("d").field("ab", "c").finish();
        let b = DigestBuilder::new("d").field("a", "bc").finish();
        assert_ne!(a, b);
    }

    proptest! {
        /// Injectivity across neighbouring grid configs: perturbing any
        /// single sweep-grid dimension must change the digest.
        #[test]
        fn injective_across_neighbouring_grid_configs(
            width in 2usize..9,
            height in 2usize..9,
            vcs in 1usize..4,
            seed in 0u64..1000,
            rate_milli in 1u64..200,
            wrap_bit in 0u8..2,
            faults in 0usize..3,
            warmup in 0u64..500,
            measure in 1u64..5000,
        ) {
            let wrap = wrap_bit == 1;
            let base = MeshConfig {
                width,
                height,
                vcs,
                seed,
                injection_rate: rate_milli as f64 / 1000.0,
                wrap,
                pattern: TrafficPattern::UniformRandom,
                faults: (faults > 0).then(|| FaultPlan {
                    link_faults: faults,
                    ..FaultPlan::default()
                }),
                ..MeshConfig::default()
            };
            let d0 = digest_of(&base, warmup, measure);
            // Every single-field neighbour digests differently.
            let neighbours = [
                MeshConfig { width: width + 1, ..base.clone() },
                MeshConfig { height: height + 1, ..base.clone() },
                MeshConfig { vcs: vcs + 1, ..base.clone() },
                MeshConfig { seed: seed + 1, ..base.clone() },
                MeshConfig {
                    injection_rate: (rate_milli + 1) as f64 / 1000.0,
                    ..base.clone()
                },
                MeshConfig { wrap: !wrap, ..base.clone() },
                MeshConfig { kernel: SimKernel::Reference, ..base.clone() },
                MeshConfig { shards: base.shards + 1, ..base.clone() },
                MeshConfig { cycle_budget: 123, ..base.clone() },
                MeshConfig {
                    faults: Some(FaultPlan {
                        link_faults: faults + 1,
                        ..FaultPlan::default()
                    }),
                    ..base.clone()
                },
            ];
            for (i, n) in neighbours.iter().enumerate() {
                let dn = digest_of(n, warmup, measure);
                prop_assert!(d0 != dn, "neighbour {i} collided: {d0}");
            }
            let dw = digest_of(&base, warmup + 1, measure);
            prop_assert!(d0 != dw, "warmup change collided");
            let dm = digest_of(&base, warmup, measure + 1);
            prop_assert!(d0 != dm, "measure change collided");
            // And the digest is a pure function of the config.
            prop_assert_eq!(&d0, &digest_of(&base.clone(), warmup, measure));
        }
    }
}
