//! Extension E2: piggyback server invalidation (PSI).
//!
//! Krishnamurthy & Wills' follow-up line of work: keep the accelerator's
//! site lists, but deliver invalidations by *piggybacking* them on the next
//! reply to each site instead of pushing dedicated messages. Zero added
//! messages; consistency bounded by each site's contact frequency. This
//! binary places PSI between adaptive TTL and push invalidation on the
//! paper's axes.

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::experiment::{materialise, run_on};
use wcc_replay::ExperimentConfig;
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!("=== Extension E2: piggyback server invalidation (SASK, scale 1/{scale}) ===\n");
    let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
        .mean_lifetime(SimDuration::from_days(14))
        .seed(TABLE_SEED)
        .build();
    let (trace, mods) = materialise(&base);
    println!(
        "{:<18}{:>12}{:>14}{:>12}{:>12}{:>14}{:>12}",
        "protocol", "messages", "invalidations", "IMS", "stale hits", "piggybacked", "CPU"
    );
    for kind in [
        ProtocolKind::AdaptiveTtl,
        ProtocolKind::PiggybackInvalidation,
        ProtocolKind::Invalidation,
        ProtocolKind::PollEveryTime,
    ] {
        let mut cfg = base.clone();
        cfg.protocol = ProtocolConfig::new(kind);
        let r = run_on(&cfg, &trace, &mods);
        println!(
            "{:<18}{:>12}{:>14}{:>12}{:>12}{:>14}{:>11.1}%",
            kind.name(),
            r.raw.total_messages,
            r.raw.invalidations,
            r.raw.ims,
            r.raw.stale_hits,
            r.raw.piggybacked,
            r.raw.server_cpu * 100.0,
        );
    }
    println!(
        "\nReading the result: PSI is the cheapest protocol on the wire — it\n\
         sends no INVALIDATE messages and no validations at all, its\n\
         invalidations riding existing replies — at the price of modest\n\
         staleness bounded by each site's contact rate. Adaptive TTL buys\n\
         lower staleness with thousands of If-Modified-Since validations;\n\
         push invalidation pays dedicated messages for exactly zero\n\
         staleness. Three distinct points on the §3 cost/freshness frontier."
    );
}
