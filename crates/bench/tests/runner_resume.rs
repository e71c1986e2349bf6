//! End-to-end supervision tests against the real `gating_sweep`
//! binary: a sweep killed mid-grid (via the `--fuse` job-count fuse)
//! and resumed with `--resume` must regenerate every artifact
//! **byte-identically** to an uninterrupted run, and injected
//! panicking/deadlocking points must be isolated into the failure
//! manifest while every real point completes.

use lnoc_bench::journal::Journal;
use lnoc_bench::runner::{EXIT_FAILURES, EXIT_FUSE};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The smoke grid shrunk to its cheapest shape (one kernel, one VC —
/// 8 points) with timings pinned so whole files are byte-comparable.
const BASE_ARGS: &[&str] = &[
    "--smoke",
    "--deterministic",
    "--kernel",
    "engine",
    "--vcs",
    "1",
];

fn temp_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lnoc_resume_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp out dir");
    dir
}

fn run_sweep(out_dir: &Path, extra: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_gating_sweep"))
        .args(BASE_ARGS)
        .args(extra)
        .env("LNOC_OUT_DIR", out_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn gating_sweep");
    status.code().expect("exit code")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read {name} from {}: {e}", dir.display()))
}

#[test]
fn killed_sweep_resumed_is_byte_identical_to_uninterrupted() {
    let a = temp_out("a");
    let b = temp_out("b");
    // Run A: uninterrupted reference.
    assert_eq!(run_sweep(&a, &[]), 0, "uninterrupted sweep must succeed");
    // Run B: the fuse kills the sweep after 4 of 8 jobs.
    assert_eq!(
        run_sweep(&b, &["--fuse", "4"]),
        EXIT_FUSE,
        "fuse-tripped sweep must exit {EXIT_FUSE}"
    );
    // Resume: only the missing points re-run; the completed ones come
    // from the content-addressed cache.
    assert_eq!(
        run_sweep(&b, &["--resume"]),
        0,
        "resumed sweep must succeed"
    );
    let events = Journal::load(&b.join("gating_sweep_journal.jsonl"));
    let cached = events.iter().filter(|e| e.event == "cached").count();
    let fused = events.iter().filter(|e| e.event == "fuse").count();
    assert_eq!(
        cached, 4,
        "resume must serve the 4 completed points from cache"
    );
    assert_eq!(
        fused, 1,
        "the interrupted run's fuse trip stays in the journal"
    );
    // The acceptance criterion: byte-identical artifacts.
    for artifact in ["x3_gating_sweep_smoke.json", "x3_sweep_stats_engine.json"] {
        assert_eq!(
            read(&a, artifact),
            read(&b, artifact),
            "{artifact} must be byte-identical after kill + resume"
        );
    }
    // Both runs were clean — empty failure manifests, also identical.
    let manifest = read(&a, "x3_gating_sweep_failures.json");
    assert!(manifest.contains("\"failures\": []"), "{manifest}");
    assert_eq!(manifest, read(&b, "x3_gating_sweep_failures.json"));
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn injected_failures_are_isolated_and_manifested() {
    let dir = temp_out("inject");
    let code = run_sweep(
        &dir,
        &[
            "--inject-panic",
            "--inject-deadlock",
            "--max-retries",
            "1",
            "--retry-backoff-ms",
            "1",
        ],
    );
    assert_eq!(
        code, EXIT_FAILURES,
        "failed points must exit {EXIT_FAILURES}"
    );
    let manifest = read(&dir, "x3_gating_sweep_failures.json");
    // The panic was retried per policy (1 + max_retries attempts)…
    assert!(manifest.contains("\"kind\": \"panic\""), "{manifest}");
    assert!(manifest.contains("\"attempts\": 2"), "{manifest}");
    // …the deadlock failed fast with the engine's typed abort, keeping
    // the full per-lane watchdog diagnostic…
    assert!(manifest.contains("\"kind\": \"deadlock\""), "{manifest}");
    assert!(
        manifest.contains("no flit moved and no credit returned"),
        "{manifest}"
    );
    // …and every real grid point still completed: the smoke artifact
    // carries all 10 rows with clean supervision counters.
    let smoke = read(&dir, "x3_gating_sweep_smoke.json");
    let rows = smoke
        .matches("\"attempts\": 1, \"panics\": 0, \"deadline_hits\": 0")
        .count();
    assert_eq!(
        rows, 10,
        "all real points must complete despite the injected failures"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
