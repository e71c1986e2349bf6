//! Pins every bit of Table 1 at the paper configuration.
//!
//! The table is built exactly as the `table1_paper` benchmark workload
//! builds it — serial `characterize` of each scheme, then
//! `Table1::from_characterizations` — and hashed the same way: FNV-1a
//! over the bytes of `format!("{table:?}")`, each byte fed as a
//! little-endian `u64`. Any engine change that moves a single cell (a
//! delay, a leakage power, an energy) changes the digest, so speedups
//! of the circuit engine must keep this test green unchanged.

use leakage_noc::core::characterize::Characterizer;
use leakage_noc::core::config::CrossbarConfig;
use leakage_noc::core::scheme::Scheme;
use leakage_noc::core::table1::Table1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn table_digest(table: &Table1) -> String {
    let mut h = FNV_OFFSET;
    for b in format!("{table:?}").bytes() {
        fnv(&mut h, b as u64);
    }
    format!("{h:016x}")
}

/// Mean absolute error (percentage points) of the measured active and
/// standby savings against the published rows, and the worst delay
/// penalty (%), computed as the benchmark reports them.
fn paper_metrics(table: &Table1) -> (f64, f64) {
    let paper = Table1::paper_reference();
    let mut abs_err = Vec::new();
    let mut worst_penalty: f64 = 0.0;
    for row in &table.rows {
        worst_penalty = worst_penalty.max(row.delay_penalty.unwrap_or(0.0));
        if row.scheme.is_baseline() {
            continue;
        }
        let p = paper.row(row.scheme).expect("paper row");
        for (m, r) in [
            (row.active_leakage_savings, p.active_leakage_savings),
            (row.standby_leakage_savings, p.standby_leakage_savings),
        ] {
            abs_err.push((m.unwrap_or(f64::NAN) - r.unwrap_or(f64::NAN)).abs());
        }
    }
    let paper_err_pp = 100.0 * abs_err.iter().sum::<f64>() / abs_err.len() as f64;
    (paper_err_pp, 100.0 * worst_penalty)
}

#[test]
fn table1_paper_config_is_bit_pinned() {
    let cfg = CrossbarConfig::paper();
    let ch = Characterizer::new(&cfg);
    let raw: Vec<_> = Scheme::ALL
        .iter()
        .map(|&s| ch.characterize(s).expect("characterization"))
        .collect();
    let table = Table1::from_characterizations(raw);

    assert_eq!(table_digest(&table), "794f007ddc64fc3c");
    let (paper_err_pp, delay_penalty_pct) = paper_metrics(&table);
    assert_eq!(paper_err_pp.to_bits(), 13.606204136254712_f64.to_bits());
    assert_eq!(delay_penalty_pct.to_bits(), 5.802568452572587_f64.to_bits());

    // The parallel pipeline characterizes the same schemes concurrently
    // and must not move a bit either.
    let parallel = Table1::generate(&cfg).expect("parallel table");
    let serial = Table1::generate_serial(&cfg).expect("serial table");
    assert_eq!(format!("{parallel:?}"), format!("{serial:?}"));
    assert_eq!(table_digest(&parallel), table_digest(&table));
}
