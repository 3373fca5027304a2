//! Ablation A1: synchronous vs. decoupled invalidation sending.
//!
//! The paper traces its worst-case latency to the accelerator refusing new
//! requests "until it finishes sending all invalidation messages", and
//! predicts that "a more fine-tuned implementation would have a separate
//! process sending the invalidation messages, thus avoiding the maximum
//! latency problem." This binary measures both designs.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::{parse_jobs, parse_scale, TABLE_SEED};
use wcc_core::ProtocolKind;
use wcc_httpsim::{DeploymentOptions, InvalSendMode};
use wcc_replay::{run_batch, ExperimentConfig};
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn config(
    spec: TraceSpec,
    lifetime: SimDuration,
    mode: InvalSendMode,
    scale: u64,
) -> ExperimentConfig {
    let mut options = DeploymentOptions::default();
    options.send_mode = mode;
    ExperimentConfig::builder(spec.scaled_down(scale))
        .protocol(ProtocolKind::Invalidation)
        .mean_lifetime(lifetime)
        .seed(TABLE_SEED)
        .options(options)
        .build()
}

fn fmt_ms(d: Option<wcc_types::SimDuration>) -> String {
    d.map_or("-".into(), |d| format!("{:.1} ms", d.as_secs_f64() * 1e3))
}

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args()));
    println!(
        "=== Ablation A1: synchronous vs decoupled invalidation sender (scale 1/{scale}) ===\n"
    );
    // High-churn, high-popularity settings where fan-outs are large enough
    // to stall: NASA with a 7-day lifetime and SDSC with 2.5 days.
    let cases = [
        (TraceSpec::nasa(), SimDuration::from_days(7)),
        (TraceSpec::sdsc(), SimDuration::from_secs(5 * 86_400 / 2)),
    ];
    let jobs = wcc_bench::or_exit(parse_jobs(std::env::args()));
    let configs: Vec<ExperimentConfig> = cases
        .iter()
        .flat_map(|(spec, lifetime)| {
            [InvalSendMode::Synchronous, InvalSendMode::Decoupled]
                .map(|mode| config(spec.clone(), *lifetime, mode, scale))
        })
        .collect();
    let reports = run_batch(&configs, jobs);
    for ((spec, lifetime), pair) in cases.iter().zip(reports.chunks(2)) {
        let name = spec.name;
        let lifetime = *lifetime;
        let (sync, dec) = (&pair[0], &pair[1]);
        println!("--- {name} (lifetime {lifetime}) ---");
        println!("{:<30}{:>16}{:>16}", "", "synchronous", "decoupled");
        println!(
            "{:<30}{:>16}{:>16}",
            "Invalidations (fresh)",
            sync.raw.invalidations - sync.raw.invalidation_retries,
            dec.raw.invalidations - dec.raw.invalidation_retries
        );
        println!(
            "{:<30}{:>16}{:>16}",
            "Avg latency",
            fmt_ms(sync.raw.latency.mean()),
            fmt_ms(dec.raw.latency.mean())
        );
        println!(
            "{:<30}{:>16}{:>16}",
            "Max latency",
            fmt_ms(sync.raw.latency.max()),
            fmt_ms(dec.raw.latency.max())
        );
        println!(
            "{:<30}{:>16}{:>16}",
            "Max invalidation batch time",
            fmt_ms(sync.raw.inval_time.max()),
            fmt_ms(dec.raw.inval_time.max())
        );
        println!(
            "{:<30}{:>15.1}%{:>15.1}%",
            "Server CPU",
            sync.raw.server_cpu * 100.0,
            dec.raw.server_cpu * 100.0
        );
        println!();
    }
    println!(
        "Expected shape: identical traffic, but the synchronous sender's max\n\
         latency includes whole invalidation batches; decoupling removes the\n\
         stall, as §5.2 predicts."
    );
}
