//! Ablation A5: the fixed-TTL baseline (Worrell's comparison point, §2).
//!
//! A single TTL for all documents either revalidates constantly (short TTL)
//! or serves stale documents freely (long TTL); adaptive TTL interpolates,
//! which is why the paper adopts it as the weak-consistency champion —
//! "studies have shown adaptive TTL performs best". This sweep makes that
//! dominance measurable, with invalidation as the strong-consistency anchor.

use wcc_bench::{parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::experiment::{materialise, run_on};
use wcc_replay::{effective_jobs, parallel, ExperimentConfig, ReplayReport};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!("=== Ablation A5: fixed-TTL sweep vs adaptive TTL vs invalidation (SASK, scale 1/{scale}) ===\n");
    let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
        .mean_lifetime(SimDuration::from_days(2)) // brisk churn
        .seed(TABLE_SEED)
        .build();
    let (trace, mods) = materialise(&base);
    println!(
        "{:<20}{:>12}{:>12}{:>14}{:>12}",
        "protocol", "messages", "IMS", "stale hits", "transfers"
    );
    let fixed = [
        ("fixed-ttl 10m", SimDuration::from_mins(10)),
        ("fixed-ttl 1h", SimDuration::from_hours(1)),
        ("fixed-ttl 1d", SimDuration::from_days(1)),
        ("fixed-ttl 8d", SimDuration::from_days(8)),
    ];
    // All six replays (four fixed TTLs plus the two anchors) share the
    // workload and fan out together.
    let mut labelled: Vec<(String, ExperimentConfig)> = fixed
        .iter()
        .map(|&(label, ttl)| {
            let mut cfg = base.clone();
            cfg.protocol = ProtocolConfig::new(ProtocolKind::FixedTtl).with_fixed_ttl(ttl);
            (label.to_string(), cfg)
        })
        .collect();
    for kind in [ProtocolKind::AdaptiveTtl, ProtocolKind::Invalidation] {
        let mut cfg = base.clone();
        cfg.protocol = ProtocolConfig::new(kind);
        labelled.push((kind.name().to_string(), cfg));
    }
    let jobs = effective_jobs(wcc_bench::or_exit(parse_jobs(std::env::args())));
    let reports: Vec<ReplayReport> =
        parallel::map_indexed(&labelled, jobs, |(_, cfg)| run_on(cfg, &trace, &mods));
    for ((label, _), r) in labelled.iter().zip(&reports) {
        println!(
            "{:<20}{:>12}{:>12}{:>14}{:>12}",
            label, r.raw.total_messages, r.raw.ims, r.raw.stale_hits, r.raw.replies_200
        );
    }
    println!(
        "\nExpected shape: short fixed TTLs pay validations for little gain;\n\
         long fixed TTLs buy silence with thousands of stale hits; adaptive\n\
         TTL sits on the efficient frontier (few stale hits, moderate IMS).\n\
         Invalidation is the only point with zero staleness; at this sweep's\n\
         deliberately brisk churn (2-day lifetimes) it pays invalidation\n\
         traffic for that guarantee — §3's crossover — while at the paper's\n\
         measured lifetimes (14–50 days, Tables 3/4) it is outright cheapest."
    );
}
