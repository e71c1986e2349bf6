//! Experiment X1: minimum idle time vs clock frequency, per scheme —
//! the sensitivity study behind Table 1's single-frequency MIT row.
//!
//! Each scheme's characterization runs as an isolated job on the
//! supervised [`lnoc_bench::runner`] (characterization is the
//! expensive step here — there are no network simulations), with the
//! MIT row cached under a digest of the scheme, the crossbar config
//! and the clock list, so `--resume` skips schemes already done.

use lnoc_bench::digest::DigestBuilder;
use lnoc_bench::runner::{failure_manifest, run_jobs, Job, SweepFlags, FLAGS_HELP};
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_power::breakeven::min_idle_cycles;
use lnoc_power::report::TextTable;
use lnoc_tech::units::{Hertz, Joules, Watts};

const DIGEST_DOMAIN: &str = "x1.v1";

const USAGE: &str = "\
idle_sweep — X1 minimum idle time vs clock frequency per scheme
";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\n{FLAGS_HELP}");
        return;
    }
    let flags = SweepFlags::parse(&args);
    let cfg = CrossbarConfig::paper();
    let clocks: Vec<Hertz> = [1.0e9, 2.0e9, 3.0e9, 4.0e9, 5.0e9]
        .into_iter()
        .map(Hertz)
        .collect();

    // One job per scheme: characterize, then render the MIT cells for
    // every clock as a tab-joined payload line.
    let jobs: Vec<Job> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let mut b = DigestBuilder::new(DIGEST_DOMAIN)
                .field("scheme", scheme.name())
                // Derived Debug prints every CrossbarConfig field, so
                // any process/geometry change invalidates the cache.
                .field("crossbar", format_args!("{cfg:?}"));
            for (i, clk) in clocks.iter().enumerate() {
                b = b.f64(&format!("clock.{i}"), clk.0);
            }
            let cfg = cfg.clone();
            let clocks = clocks.clone();
            Job::new(scheme.name(), b.finish(), move || {
                let ch = Characterizer::new(&cfg);
                let c = ch.characterize(scheme).expect("characterization");
                let n = cfg.slice_count() as f64;
                let p_saved = Watts((c.idle_awake_leakage.0 - c.standby_leakage.0) / n);
                let e_trans = Joules(c.transition_energy.0);
                let cells: Vec<String> = clocks
                    .iter()
                    .map(|&clk| min_idle_cycles(e_trans, p_saved, clk).to_string())
                    .collect();
                Ok(cells.join("\t"))
            })
        })
        .collect();

    let runner_cfg = flags.runner_config("idle_sweep");
    let report = run_jobs(&runner_cfg, &jobs);
    lnoc_bench::write_artifact(
        "idle_sweep_failures.json",
        &failure_manifest(&jobs, &report),
    );

    let mut headers = vec!["scheme".to_string()];
    headers.extend(clocks.iter().map(|c| format!("{c:.0}")));
    let mut table = TextTable::new(headers);
    for (scheme, status) in Scheme::ALL.into_iter().zip(&report.statuses) {
        let Some(payload) = status.payload() else {
            continue;
        };
        let mut cells = vec![scheme.name().to_string()];
        cells.extend(payload.split('\t').map(String::from));
        table.row(cells);
    }
    println!("minimum idle time (cycles) vs clock frequency:");
    println!("{table}");
    lnoc_bench::write_artifact("x1_idle_sweep.txt", &table.to_string());
    std::process::exit(report.exit_code());
}
