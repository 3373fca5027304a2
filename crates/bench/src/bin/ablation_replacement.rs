//! Ablation A2: Harvest's expired-first replacement vs. pure LRU, under
//! adaptive TTL with a constrained cache.
//!
//! §5.2 explains SASK's depressed adaptive-TTL hit ratio: "Harvest's
//! implementation of adaptive TTL replaces expired documents first. Coupled
//! with adaptive TTL's conservative estimate of the file's lifetime, this
//! policy can create undesirable effects" — a just-modified, soon-reaccessed
//! document gets a short TTL and becomes the first eviction victim.
//!
//! The effect requires requests that *revisit just-modified documents*, so
//! this ablation applies the generator's modification-interest rewriter
//! (`wcc_traces::synthetic::with_modification_interest`) before replaying.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::parse_jobs;
use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_cache::ReplacementPolicy;
use wcc_core::ProtocolKind;
use wcc_httpsim::DeploymentOptions;
use wcc_replay::experiment::run_on;
use wcc_replay::{effective_jobs, parallel, ExperimentConfig, ReplayReport};
use wcc_traces::{synthetic, ModSchedule, Trace, TraceSpec};
use wcc_types::{ByteSize, SimDuration};

fn workload(scale: u64) -> (Trace, ModSchedule) {
    let spec = TraceSpec::sask().scaled_down(scale);
    // Brisk churn: short TTL estimates dominate the cache.
    let lifetime = SimDuration::from_days(2);
    let trace = synthetic::generate(&spec, TABLE_SEED);
    let mods = ModSchedule::generate(spec.num_docs, lifetime, spec.duration, TABLE_SEED);
    // 35% of requests within 6 hours of a modification chase that document.
    let hot = synthetic::with_modification_interest(
        &trace,
        &mods,
        0.35,
        SimDuration::from_hours(6),
        TABLE_SEED,
    );
    (hot, mods)
}

fn config(policy: ReplacementPolicy, kind: ProtocolKind, scale: u64) -> ExperimentConfig {
    let mut options = DeploymentOptions::default();
    options.replacement = policy;
    // Constrain the cache so replacement decisions matter (per proxy).
    options.cache_capacity = ByteSize::from_mib((8 / scale).max(1));
    ExperimentConfig::builder(TraceSpec::sask())
        .protocol(kind)
        .seed(TABLE_SEED)
        .options(options)
        .build()
}

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!(
        "=== Ablation A2: replacement policy under a constrained cache \
         (SASK + modification-interest, scale 1/{scale}) ===\n"
    );
    let (trace, mods) = workload(scale);
    let kinds = [ProtocolKind::AdaptiveTtl, ProtocolKind::Invalidation];
    // All four (policy, protocol) replays share the rewritten workload and
    // fan out together.
    let configs: Vec<ExperimentConfig> = kinds
        .iter()
        .flat_map(|&kind| {
            [ReplacementPolicy::ExpiredFirstLru, ReplacementPolicy::Lru]
                .map(|policy| config(policy, kind, scale))
        })
        .collect();
    let jobs = effective_jobs(wcc_bench::or_exit(parse_jobs(std::env::args())));
    let reports: Vec<ReplayReport> =
        parallel::map_indexed(&configs, jobs, |cfg| run_on(cfg, &trace, &mods));
    for (kind, pair) in kinds.iter().zip(reports.chunks(2)) {
        let kind = *kind;
        let (expired_first, lru) = (&pair[0], &pair[1]);
        println!("--- protocol: {kind} ---");
        println!("{:<26}{:>16}{:>16}", "", "expired-first", "pure LRU");
        println!(
            "{:<26}{:>15.2}%{:>15.2}%",
            "Hit ratio",
            expired_first.raw.hit_ratio() * 100.0,
            lru.raw.hit_ratio() * 100.0
        );
        println!(
            "{:<26}{:>16}{:>16}",
            "File transfers", expired_first.raw.replies_200, lru.raw.replies_200
        );
        println!(
            "{:<26}{:>16}{:>16}",
            "Evictions", expired_first.raw.cache_evictions, lru.raw.cache_evictions
        );
        println!(
            "{:<26}{:>16}{:>16}",
            "Expired evictions",
            expired_first.raw.cache_expired_evictions,
            lru.raw.cache_expired_evictions
        );
        println!(
            "{:<26}{:>16}{:>16}",
            "Total messages", expired_first.raw.total_messages, lru.raw.total_messages
        );
        println!(
            "{:<26}{:>16}{:>16}",
            "Stale hits", expired_first.raw.stale_hits, lru.raw.stale_hits
        );
        println!();
    }
    println!(
        "Reading the result: two effects compete under adaptive TTL. The\n\
         paper's SASK anomaly — expired-first throws away just-modified,\n\
         short-TTL documents that modification-chasing requests want next —\n\
         pushes transfers up; but expired-first also shields unexpired\n\
         popular documents that pure LRU would evict, pushing transfers\n\
         down. Which dominates depends on the workload's re-access pattern;\n\
         the policies measurably diverge only for adaptive TTL, while\n\
         invalidation (no TTL state; stale copies already deleted by\n\
         INVALIDATEs) is exactly insensitive — the paper's structural point."
    );
}
