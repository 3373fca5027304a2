//! §6: the two-tier lease-augmented invalidation scheme on the SASK trace.
//!
//! The paper reports: "at the end of the 8-day SASK trace, the site lists
//! have only 2489 entries, compared to [~24k] entries under the simple
//! invalidation scheme. The maximum length of the site list of a document
//! is reduced from 1155 entries to 473 entries. The reduction is achieved
//! with 2489 extra if-modified-since requests."

use wcc_bench::{parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::{run_batch, ExperimentConfig, TwoTierComparison};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    println!("=== Section 6: two-tier lease-augmented invalidation (SASK, scale 1/{scale}) ===\n");
    let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
        .mean_lifetime(SimDuration::from_days(14))
        .seed(TABLE_SEED)
        .build();
    // Full lease longer than the 8-day trace, as in the paper's comparison
    // (their simple scheme is "a lease equal to the duration of each trace").
    // Both arms fan out together; same result as `two_tier_comparison`.
    let mut plain_cfg = base.clone();
    plain_cfg.protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let mut two_tier_cfg = base;
    two_tier_cfg.protocol =
        ProtocolConfig::new(ProtocolKind::TwoTierLease).with_lease(SimDuration::from_days(30));
    let mut reports = run_batch(&[plain_cfg, two_tier_cfg], jobs);
    let two_tier = reports.pop().expect("two reports");
    let plain = reports.pop().expect("two reports");
    let cmp = TwoTierComparison { plain, two_tier };

    let (plain_entries, tt_entries) = cmp.entries();
    let (plain_max, tt_max) = cmp.max_list();
    println!("{:<34}{:>14}{:>14}", "", "plain inval", "two-tier");
    println!(
        "{:<34}{:>14}{:>14}",
        "Site-list entries (end of trace)", plain_entries, tt_entries
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "Max site-list length", plain_max, tt_max
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "Site-list storage",
        cmp.plain.raw.sitelist.storage.to_string(),
        cmp.two_tier.raw.sitelist.storage.to_string()
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "If-Modified-Since requests", cmp.plain.raw.ims, cmp.two_tier.raw.ims
    );
    println!(
        "{:<34}{:>28}",
        "Extra IMS paid by two-tier",
        cmp.extra_ims()
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "Invalidations sent", cmp.plain.raw.invalidations, cmp.two_tier.raw.invalidations
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "Total messages", cmp.plain.raw.total_messages, cmp.two_tier.raw.total_messages
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "Strong-consistency violations",
        cmp.plain.raw.final_violations,
        cmp.two_tier.raw.final_violations
    );
    println!(
        "\nPaper reference: entries ~24k → 2489; max list 1155 → 473; +2489 IMS.\n\
         Reduction ratio here: entries ÷{:.1}, max list ÷{:.1}.",
        plain_entries as f64 / tt_entries.max(1) as f64,
        plain_max as f64 / tt_max.max(1) as f64,
    );
}
