//! Table 2: summary of the (synthetic) traces used in the experiments,
//! side by side with the paper's reported values.

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_traces::{synthetic, TraceSpec, TraceSummary};

/// The paper's Table 2, for reference: (name, duration, requests, avg size
/// KB, max popularity, avg popularity).
const PAPER: [(&str, &str, u64, u64, u64, f64); 5] = [
    ("EPA", "1 day", 40_658, 21, 1_642, 8.2),
    ("SDSC", "1 day", 25_430, 14, 1_020, 12.0),
    ("ClarkNet", "10 hours", 61_703, 13, 680, 8.0),
    ("NASA", "1 day", 61_823, 44, 3_138, 31.0),
    ("SASK", "8 days", 51_471, 12, 1_155, 14.0),
];

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!("=== Table 2: summary of the traces (seed {TABLE_SEED}, scale 1/{scale}) ===\n");
    println!("{}", TraceSummary::header());
    let mut summaries = Vec::new();
    for spec in TraceSpec::all() {
        let spec = spec.scaled_down(scale);
        let trace = synthetic::generate(&spec, TABLE_SEED);
        let summary = TraceSummary::of(&trace);
        println!("{summary}");
        summaries.push(summary);
    }
    println!("\nPaper reference (Table 2):");
    println!(
        "{:<10} {:>8} {:>10} {:>8} {:>14}",
        "Trace", "Duration", "Requests", "AvgSize", "Popularity"
    );
    for (name, duration, requests, kb, maxpop, avgpop) in PAPER {
        println!("{name:<10} {duration:>8} {requests:>10} {kb:>6}KB {maxpop:>7} ({avgpop:>4.1})");
    }
    println!(
        "\nNote: file counts are derived from the paper's reported modification\n\
         counts (see DESIGN.md); popularity shape is calibrated, not fitted."
    );
}
