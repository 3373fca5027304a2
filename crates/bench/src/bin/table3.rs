//! Table 3: replay results for EPA (50-day lifetime), SASK (14-day) and
//! ClarkNet (50-day), three protocols each.

use wcc_bench::{experiment_label, paper_experiments, parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::tables::format_trio_block;
use wcc_replay::{run_batch, ExperimentConfig};

/// Paper reference rows that survive in the extracted text:
/// (trace, bytes, cpu_ttl, cpu_poll, cpu_inval).
const PAPER: [(&str, &str, f64, f64, f64); 3] = [
    ("EPA", "237 MB (all three)", 37.6, 41.6, 38.6),
    ("SASK", "183 MB (all three)", 26.0, 30.2, 27.6),
    ("ClarkNet", "448/448/449 MB", 38.3, 40.4, 38.1),
];

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    println!("=== Table 3: EPA, SASK, ClarkNet replays (seed {TABLE_SEED}, scale 1/{scale}) ===\n");
    // The whole 3-trace x 3-protocol grid fans out at once; reports come
    // back in submission order, so chunks of three are one trio each.
    let experiments: Vec<_> = paper_experiments().into_iter().take(3).collect();
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
            "  {trace:<9} bytes {bytes:<20} server CPU {ttl}% / {poll}% / {inval}% (ttl/poll/inval)"
        );
    }
}
