//! The declarative `gating_sweep` grid regenerates the committed
//! `BENCH_noc.json`: the full grid, run under a one-cycle budget so
//! every job aborts at once, must schedule exactly the jobs of the
//! committed rows, in row order. A grid-table edit that adds, drops or
//! reorders a point fails here before anyone regenerates the baseline.

use lnoc_bench::json;
use lnoc_bench::runner::EXIT_FAILURES;
use std::path::Path;
use std::process::Command;

/// Rebuilds a committed row's job label,
/// `{scheme} {mesh} {pattern} rate {rate} vcs {vcs} {policy}[ faulted] [{kernel}]`.
/// `rate` is the raw JSON text, not a parsed float: the sweep prints
/// rates with `f64`'s `Display` (`1e-5` is `0.00001`), which is also
/// how the row records them.
fn label(row: &str) -> String {
    let raw = |key: &str| json::field_raw(row, key).unwrap_or_else(|| panic!("no {key}: {row}"));
    let text = |key: &str| json::field_str(row, key).unwrap_or_else(|| panic!("no {key}: {row}"));
    format!(
        "{} {} {} rate {} vcs {} {}{} [{}]",
        text("scheme"),
        text("mesh"),
        text("pattern"),
        raw("rate"),
        raw("vcs"),
        text("policy"),
        if raw("faults") == "0" { "" } else { " faulted" },
        text("kernel"),
    )
}

#[test]
fn full_grid_schedules_the_committed_bench_rows() {
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_noc.json");
    let bench = std::fs::read_to_string(&bench_path).expect("read the committed BENCH_noc.json");
    // Result rows are the one-line objects that carry a kernel (the
    // speedup rows do not).
    let expected: Vec<String> = bench
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.contains("\"kernel\": "))
        .map(label)
        .collect();
    assert_eq!(expected.len(), 218, "committed BENCH_noc.json rows");

    let dir = std::env::temp_dir().join(format!("lnoc_grid_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp out dir");
    let status = Command::new(env!("CARGO_BIN_EXE_gating_sweep"))
        .args([
            "--deterministic",
            "--deadline-cycles",
            "1",
            "--max-retries",
            "0",
        ])
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .env("LNOC_OUT_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn gating_sweep");
    assert_eq!(status.code(), Some(EXIT_FAILURES), "every job must fail");

    let manifest = std::fs::read_to_string(dir.join("x3_gating_sweep_failures.json"))
        .expect("read the failure manifest");
    let mut labels = Vec::new();
    for entry in manifest
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"job\""))
    {
        assert_eq!(
            json::field_str(entry, "kind").as_deref(),
            Some("cycle-budget"),
            "{entry}"
        );
        assert_eq!(json::field_u64(entry, "attempts"), Some(1), "{entry}");
        labels.push(json::field_str(entry, "job").expect("job label"));
    }
    let n = labels.len().max(expected.len());
    if let Some(i) = (0..n).find(|&i| labels.get(i) != expected.get(i)) {
        panic!(
            "job {i}: the grid schedules {:?} where the committed row is {:?} \
             ({} jobs, {} committed rows)",
            labels.get(i),
            expected.get(i),
            labels.len(),
            expected.len()
        );
    }
    // With LNOC_OUT_DIR set the sweep writes its (empty) baseline there
    // and leaves the committed file alone.
    assert!(dir.join("BENCH_noc.json").is_file());
    assert_eq!(std::fs::read_to_string(&bench_path).unwrap(), bench);
    let _ = std::fs::remove_dir_all(&dir);
}
