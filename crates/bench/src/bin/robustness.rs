//! Seed-robustness check: the headline orderings must hold across many
//! independently generated workloads, not just the table seed.

use wcc_replay::{run_trio, ExperimentConfig};
use wcc_traces::TraceSpec;

fn main() {
    let scale = wcc_bench::or_exit(wcc_bench::parse_scale(std::env::args())).max(10);
    println!("=== Robustness: headline orderings across seeds (EPA, scale 1/{scale}) ===\n");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>10}{:>12}",
        "seed", "ttl msgs", "poll msgs", "inval msgs", "poll>inv", "inv≤1.06ttl"
    );
    let mut ordering_held = 0;
    let mut parity_held = 0;
    const SEEDS: u64 = 10;
    for seed in 0..SEEDS {
        let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
            .seed(1_000 + seed)
            .build();
        let trio = run_trio(&cfg);
        let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
        let ord = poll.total_messages > inval.total_messages;
        let par = (inval.total_messages as f64) <= ttl.total_messages as f64 * 1.06;
        ordering_held += ord as u32;
        parity_held += par as u32;
        println!(
            "{:<8}{:>12}{:>12}{:>12}{:>10}{:>12}",
            1_000 + seed,
            ttl.total_messages,
            poll.total_messages,
            inval.total_messages,
            ord,
            par,
        );
        assert_eq!(inval.final_violations, 0);
        assert_eq!(poll.stale_hits, 0);
    }
    println!(
        "\npolling > invalidation held on {ordering_held}/{SEEDS} seeds; \
         invalidation ≤ 1.06×TTL held on {parity_held}/{SEEDS}."
    );
}
