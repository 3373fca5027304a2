//! Table 5: invalidation costs — site-list storage, average/maximum site
//! list length among modified documents, and invalidation send times — for
//! all six replays.

use wcc_bench::{experiment_label, paper_experiments, parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::ProtocolKind;
use wcc_replay::tables::format_table5_column;
use wcc_replay::{run_batch, ExperimentConfig};

/// The storage row preserved in the extracted paper text.
const PAPER_STORAGE: [(&str, &str); 6] = [
    ("EPA", "1.0 MB"),
    ("SASK", "621 KB"),
    ("ClarkNet", "1.6 MB"),
    ("NASA", "742 KB"),
    ("SDSC(57)", "489 KB"),
    ("SDSC(576)", "474 KB"),
];

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    println!("=== Table 5: invalidation costs (seed {TABLE_SEED}, scale 1/{scale}) ===\n");
    let experiments = paper_experiments();
    let configs: Vec<ExperimentConfig> = experiments
        .iter()
        .map(|(spec, lifetime, _)| {
            ExperimentConfig::builder(spec.clone().scaled_down(scale))
                .protocol(ProtocolKind::Invalidation)
                .mean_lifetime(*lifetime)
                .seed(TABLE_SEED)
                .build()
        })
        .collect();
    let reports = run_batch(&configs, jobs);
    for ((spec, lifetime, _), report) in experiments.iter().zip(&reports) {
        let label = experiment_label(spec, *lifetime);
        println!("--- {label} ---");
        println!("{}", format_table5_column(report));
    }
    println!("Paper reference (storage row):");
    for (trace, storage) in PAPER_STORAGE {
        println!("  {trace:<10} {storage}");
    }
    println!(
        "\n(The paper's storage is \"on the order of 20 to 30 bytes per request\";\n\
         our model charges 24 bytes per entry plus 48 per tracked document.)"
    );
}
