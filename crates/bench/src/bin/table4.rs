//! Table 4: replay results for NASA (7-day lifetime) and SDSC with two
//! lifetimes (25 days → 57 modifications; 2.5 days → 576), three protocols
//! each.

use wcc_bench::{experiment_label, paper_experiments, parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::tables::format_trio_block;
use wcc_replay::{run_batch, ExperimentConfig};

/// Paper reference rows that survive in the extracted text.
const PAPER: [(&str, &str, f64, f64, f64); 3] = [
    ("NASA", "1.26/1.26/1.27 GB", 32.6, 36.1, 34.4),
    ("SDSC(57)", "263 MB (all three)", 34.1, 35.6, 32.7),
    ("SDSC(576)", "263/263/264 MB", 33.6, 36.7, 34.7),
];

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    println!("=== Table 4: NASA and SDSC replays (seed {TABLE_SEED}, scale 1/{scale}) ===\n");
    // The whole 3-trace x 3-protocol grid fans out at once; reports come
    // back in submission order, so chunks of three are one trio each.
    let experiments: Vec<_> = paper_experiments().into_iter().skip(3).collect();
    let configs: Vec<ExperimentConfig> = experiments
        .iter()
        .flat_map(|(spec, lifetime, _)| {
            ProtocolKind::PAPER_TRIO.map(|kind| {
                let mut cfg = ExperimentConfig::builder(spec.clone().scaled_down(scale))
                    .mean_lifetime(*lifetime)
                    .seed(TABLE_SEED)
                    .build();
                cfg.protocol = ProtocolConfig::new(kind);
                cfg
            })
        })
        .collect();
    let reports = run_batch(&configs, jobs);
    for ((spec, lifetime, _), trio) in experiments.iter().zip(reports.chunks(3)) {
        let label = experiment_label(spec, *lifetime);
        println!("--- {label} ---");
        println!("{}", format_trio_block(trio));
    }
    println!("Paper reference (rows preserved in the source text):");
    for (trace, bytes, ttl, poll, inval) in PAPER {
        println!(
            "  {trace:<10} bytes {bytes:<20} server CPU {ttl}% / {poll}% / {inval}% (ttl/poll/inval)"
        );
    }
}
