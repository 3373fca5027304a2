//! Ablation A3: lease-duration sweep.
//!
//! §6: "if the lease is three days, the total size of site lists is bounded
//! by the total number of requests seen by the server for the last three
//! days" — shorter leases trade site-list storage and invalidation fan-out
//! for extra `If-Modified-Since` revalidations. This sweep quantifies the
//! trade-off on the 8-day SASK trace.

use wcc_bench::{parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_replay::{run_batch, ExperimentConfig};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!("=== Ablation A3: lease-duration sweep (SASK, scale 1/{scale}) ===\n");
    println!(
        "{:<12}{:>12}{:>12}{:>14}{:>14}{:>12}{:>12}",
        "lease", "entries", "storage", "invalidations", "IMS", "messages", "violations"
    );
    let leases = [
        ("1h", SimDuration::from_hours(1)),
        ("6h", SimDuration::from_hours(6)),
        ("1d", SimDuration::from_days(1)),
        ("3d", SimDuration::from_days(3)),
        ("8d", SimDuration::from_days(8)),
        ("30d", SimDuration::from_days(30)),
    ];
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    // The whole sweep (plus the infinite-lease anchor) fans out as one batch.
    let mut configs: Vec<ExperimentConfig> = leases
        .iter()
        .map(|(_, lease)| {
            ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
                .protocol_config(
                    ProtocolConfig::new(ProtocolKind::LeaseInvalidation).with_lease(*lease),
                )
                .mean_lifetime(SimDuration::from_days(14))
                .seed(TABLE_SEED)
                .build()
        })
        .collect();
    configs.push(
        ExperimentConfig::builder(TraceSpec::sask().scaled_down(scale))
            .protocol(ProtocolKind::Invalidation)
            .mean_lifetime(SimDuration::from_days(14))
            .seed(TABLE_SEED)
            .build(),
    );
    let mut reports = run_batch(&configs, jobs);
    let plain = reports.pop().expect("anchor report");
    for ((label, _), r) in leases.iter().zip(&reports) {
        println!(
            "{:<12}{:>12}{:>12}{:>14}{:>14}{:>12}{:>12}",
            label,
            r.raw.sitelist.total_entries,
            r.raw.sitelist.storage.to_string(),
            r.raw.invalidations,
            r.raw.ims,
            r.raw.total_messages,
            r.raw.final_violations,
        );
    }
    println!(
        "{:<12}{:>12}{:>12}{:>14}{:>14}{:>12}{:>12}",
        "infinite",
        plain.raw.sitelist.total_entries,
        plain.raw.sitelist.storage.to_string(),
        plain.raw.invalidations,
        plain.raw.ims,
        plain.raw.total_messages,
        plain.raw.final_violations,
    );
    println!(
        "\nExpected shape: entries/storage grow monotonically with the lease;\n\
         IMS shrinks as the lease grows; consistency violations stay zero at\n\
         every point (leases are a *strong*-consistency mechanism)."
    );
}
