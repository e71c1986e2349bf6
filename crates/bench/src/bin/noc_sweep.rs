//! Experiment X2: network-level leakage savings. Runs the mesh
//! simulator across traffic patterns and loads, extracts per-port
//! idle-interval histograms, and evaluates every gating policy with each
//! scheme's gating parameters.
//!
//! Each (pattern, rate) point runs as an isolated job on the
//! supervised [`lnoc_bench::runner`] — its fully rendered text section
//! is cached under the point's canonical config digest, so a killed
//! sweep resumed with `--resume` regenerates `out/x2_noc_sweep.txt`
//! byte-identically without re-simulating completed points.

use lnoc_bench::digest::{mesh_config, DigestBuilder};
use lnoc_bench::runner::{failure_manifest, run_jobs, Job, JobAbort, SweepFlags, FLAGS_HELP};
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_netsim::{MeshConfig, NetworkStats, Simulation, TrafficPattern};
use lnoc_power::gating::{evaluate_policy, GatingParams, GatingPolicy};
use lnoc_power::report::TextTable;
use lnoc_power::router::RouterPowerModel;
use rayon::prelude::*;

const DIGEST_DOMAIN: &str = "x2.v2";

const USAGE: &str = "\
noc_sweep — X2 network-level gating savings across patterns and loads
";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\n{FLAGS_HELP}");
        return;
    }
    let flags = SweepFlags::parse(&args);
    let cfg = CrossbarConfig::paper();
    let ch = Characterizer::new(&cfg);

    // Characterize each scheme once, in parallel.
    let params: Vec<(Scheme, GatingParams)> = Scheme::ALL
        .into_par_iter()
        .map(|scheme| {
            let c = ch.characterize(scheme).expect("characterization");
            let model = RouterPowerModel::from_characterization(&c, &cfg);
            (scheme, model.port_gating_params(cfg.radix))
        })
        .collect();

    let clock = cfg.clock;
    let points: Vec<(TrafficPattern, f64)> = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::Hotspot,
    ]
    .into_iter()
    .flat_map(|pattern| [0.02, 0.05, 0.10].map(|rate| (pattern, rate)))
    .collect();
    let jobs: Vec<Job> = points
        .iter()
        .map(|&(pattern, rate)| {
            let mesh = MeshConfig {
                width: 4,
                height: 4,
                injection_rate: rate,
                pattern,
                packet_len_flits: 4,
                buffer_depth: 4,
                seed: 2005,
                cycle_budget: flags.deadline_cycles,
                ..MeshConfig::default()
            };
            let digest = {
                let mut b = mesh_config(DigestBuilder::new(DIGEST_DOMAIN), &mesh)
                    .field("warmup", 1000u64)
                    .field("measure", 10000u64)
                    .f64("clock_hz", clock.0);
                for (scheme, p) in &params {
                    let key = |f: &str| format!("params.{}.{f}", scheme.name());
                    b = b
                        .f64(&key("p_idle_awake_w"), p.p_idle_awake.0)
                        .f64(&key("p_standby_w"), p.p_standby.0)
                        .f64(&key("e_transition_j"), p.e_transition.0)
                        .field(&key("wake_latency_cycles"), p.wake_latency_cycles);
                }
                b.finish()
            };
            let label = format!("{} @ {rate:.2}", pattern.name());
            let params = params.clone();
            Job::new(label, digest, move || {
                let mut sim = Simulation::new(mesh.clone());
                let stats = sim.try_run(1000, 10000).map_err(JobAbort::from_sim)?;
                let hist = stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);

                let mut table = TextTable::new(vec![
                    "scheme".into(),
                    "policy".into(),
                    "saved %".into(),
                    "sleeps".into(),
                ]);
                for (scheme, p) in &params {
                    let threshold = p.min_idle_cycles(clock);
                    for policy in [
                        GatingPolicy::Immediate,
                        GatingPolicy::IdleThreshold(threshold),
                        GatingPolicy::Oracle,
                    ] {
                        let o = evaluate_policy(&hist, p, policy, clock);
                        table.row(vec![
                            scheme.name().into(),
                            policy.to_string(),
                            format!("{:.1}", o.savings_fraction() * 100.0),
                            o.sleep_events.to_string(),
                        ]);
                    }
                }
                let header = format!(
                    "\n== {} @ injection {:.2} — latency {:.1} cy, util {:.3}, {} idle intervals ==",
                    pattern.name(),
                    rate,
                    stats.avg_latency(),
                    stats.crossbar_utilization(),
                    hist.interval_count(),
                );
                Ok(format!("{header}\n{table}"))
            })
        })
        .collect();

    let runner_cfg = flags.runner_config("noc_sweep");
    let report = run_jobs(&runner_cfg, &jobs);
    lnoc_bench::write_artifact("noc_sweep_failures.json", &failure_manifest(&jobs, &report));

    let mut out = String::new();
    for status in &report.statuses {
        if let Some(section) = status.payload() {
            println!("{section}");
            out.push_str(section);
        }
    }
    lnoc_bench::write_artifact("x2_noc_sweep.txt", &out);
    std::process::exit(report.exit_code());
}
