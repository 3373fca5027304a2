//! Ablation A6: lock-step window sensitivity.
//!
//! The paper's coordinator runs the replay "in lock step for every five
//! minutes" — an arbitrary methodological constant. This sweep checks that
//! none of the headline comparisons depend on it.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_httpsim::DeploymentOptions;
use wcc_replay::{run_trio, ExperimentConfig};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args())).max(4);
    println!("=== Ablation A6: lock-step window sensitivity (EPA, scale 1/{scale}) ===\n");
    println!(
        "{:<10}{:>14}{:>14}{:>14}{:>20}",
        "window", "ttl msgs", "poll msgs", "inval msgs", "poll/inval ratio"
    );
    for (label, window) in [
        ("1m", SimDuration::from_mins(1)),
        ("5m", SimDuration::from_mins(5)),
        ("15m", SimDuration::from_mins(15)),
        ("60m", SimDuration::from_mins(60)),
    ] {
        let mut options = DeploymentOptions::default();
        options.window = window;
        let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
            .seed(TABLE_SEED)
            .options(options)
            .build();
        let trio = run_trio(&cfg);
        let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
        println!(
            "{:<10}{:>14}{:>14}{:>14}{:>19.3}x",
            label,
            ttl.total_messages,
            poll.total_messages,
            inval.total_messages,
            poll.total_messages as f64 / inval.total_messages as f64,
        );
    }
    println!(
        "\nExpected shape: message counts are identical across windows (the\n\
         window only batches execution; protocol decisions run on trace\n\
         time), so the paper's five-minute choice is benign."
    );
}
