//! Extension E3: hit metering merged with the consistency protocol (§7).
//!
//! "Invalidation should be merged with other hit-metering protocols to
//! provide both the benefits of caching and the capability of access
//! control." Caches count the hits they serve and report them on whatever
//! they already send — the next request for the document, or the
//! invalidation acknowledgement when the copy is deleted. Zero extra
//! messages; this binary measures how much of the true view count each
//! protocol's natural traffic recovers.

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::experiment::{materialise, run_on};
use wcc_replay::ExperimentConfig;
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!("=== Extension E3: §7 hit metering (SASK, scale 1/{scale}) ===\n");
    let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
        .mean_lifetime(SimDuration::from_days(14))
        .seed(TABLE_SEED)
        .build();
    let (trace, mods) = materialise(&base);
    let actual = trace.records.len() as u64;
    println!("true user requests: {actual}\n");
    println!(
        "{:<20}{:>14}{:>14}{:>14}{:>12}",
        "protocol", "server-visible", "reported", "metered total", "recovered"
    );
    for kind in [
        ProtocolKind::AdaptiveTtl,
        ProtocolKind::PollEveryTime,
        ProtocolKind::Invalidation,
        ProtocolKind::LeaseInvalidation,
        ProtocolKind::TwoTierLease,
        ProtocolKind::PiggybackInvalidation,
    ] {
        let mut cfg = base.clone();
        cfg.protocol = ProtocolConfig::new(kind);
        let r = run_on(&cfg, &trace, &mods);
        let metered = r.raw.metered_served + r.raw.metered_reported;
        println!(
            "{:<20}{:>14}{:>14}{:>14}{:>11.1}%",
            kind.name(),
            r.raw.metered_served,
            r.raw.metered_reported,
            metered,
            100.0 * metered as f64 / actual as f64,
        );
    }
    println!(
        "\nReading the result: without metering, the server only sees its own\n\
         replies (the \"server-visible\" column) and undercounts document\n\
         popularity by every cache hit. The free reports close most of the\n\
         gap: validation-based protocols report on each revalidation, and\n\
         the invalidation family reports a dying copy's tally on the ack.\n\
         The remainder is hits still sitting unreported in live cache\n\
         entries at the end of the replay."
    );
}
